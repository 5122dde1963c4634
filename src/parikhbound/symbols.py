"""Alphabets, words, Parikh vectors, elementary bounded languages, regexes and automata.

Words are tuples of symbol strings; the empty word is ``()``.  An elementary
bounded language ``w1* w2* ... wk*`` is represented by its ordered word list.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError

Word = tuple[str, ...]
ParikhVector = tuple[int, ...]

EPSILON: Word = ()


def word(text: str) -> Word:
    """Parse a whitespace-separated word; '' or 'eps' denote the empty word."""
    text = text.strip()
    if not text or text == "eps":
        return EPSILON
    return tuple(text.split())


def chars(text: str) -> Word:
    """Split a string into single-character symbols (test convenience)."""
    return tuple(text)


@dataclass(frozen=True)
class Alphabet:
    """An ordered, duplicate-free tuple of symbols; order fixes Parikh coordinates."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise InputError(f"duplicate symbols in alphabet: {self.symbols}")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]  # type: ignore[attr-defined]
        except KeyError:
            raise InputError(f"symbol {symbol!r} not in alphabet") from None

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)


def alphabet(symbols) -> Alphabet:
    return Alphabet(tuple(symbols))


def parikh_of_word(w: Word, sigma: Alphabet) -> ParikhVector:
    """Count symbol occurrences; coordinate order follows the alphabet."""
    counts = [0] * len(sigma)
    for a in w:
        counts[sigma.index(a)] += 1
    return tuple(counts)


@dataclass(frozen=True)
class ElementaryBounded:
    """The language w1* w2* ... wk*.  Empty-word factors are dropped eagerly.

    ``words == ()`` denotes the singleton language {epsilon}.
    """

    words: tuple[Word, ...]

    def __post_init__(self):
        kept = tuple(tuple(w) for w in self.words if len(w) > 0)
        object.__setattr__(self, "words", kept)

    @property
    def k(self) -> int:
        return len(self.words)

    def total_length(self) -> int:
        return sum(len(w) for w in self.words)

    def symbols_used(self) -> tuple[str, ...]:
        return tuple(sorted({a for w in self.words for a in w}))


def eb(words) -> ElementaryBounded:
    return ElementaryBounded(tuple(words))


def eb_concat(*parts: ElementaryBounded) -> ElementaryBounded:
    """Concatenation of elementary bounded languages, collapsing adjacent repeats.

    The words of all parts are read in order; each is dropped if it is a
    power of the last word kept, and kept otherwise.  Dropping is exact,
    since x* (x^n)* = x*.
    """
    out: list[Word] = []
    for part in parts:
        for w in part.words:
            if out:
                n, r = divmod(len(w), len(out[-1]))
                if not r and w == out[-1] * n:
                    continue
            out.append(w)
    result = object.__new__(ElementaryBounded)  # words are nonempty tuples
    object.__setattr__(result, "words", tuple(out))
    return result


def eb_to_text(b: ElementaryBounded) -> str:
    if not b.words:
        return "# k=0\n"
    return "".join(" ".join(w) + "\n" for w in b.words)


def eb_from_text(text: str) -> ElementaryBounded:
    words = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        words.append(tuple(line.split()))
    return eb(words)


# ---------------------------------------------------------------------------
# Finite automata


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic automaton without epsilon moves; a deterministic one
    is an Nfa with one initial state and one successor per (state, letter)."""

    states: frozenset
    alphabet: Alphabet
    transitions: frozenset  # of (state, symbol, state)
    initial: frozenset
    accepting: frozenset

    def __post_init__(self):
        by_source: dict = {}
        for p, a, q in self.transitions:
            by_source.setdefault((p, a), set()).add(q)
        object.__setattr__(self, "_delta", by_source)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def step(self, qs: frozenset, a: str) -> frozenset:
        nxt: set = set()
        for q in qs:
            nxt |= self._delta.get((q, a), set())  # type: ignore[attr-defined]
        return frozenset(nxt)

    def accepts(self, w: Word) -> bool:
        current = self.initial
        for a in w:
            current = self.step(current, a)
            if not current:
                return False
        return bool(current & self.accepting)


def determinize(n: Nfa) -> Nfa:
    """Subset construction; the subsets become states 0..n-1 in BFS order.
    The empty subset is a sink, so every state has one successor per letter."""
    ids = {n.initial: 0}
    queue = [n.initial]
    transitions = set()
    # the list grows while it is walked; a subset's index in it is its id
    for i, current in enumerate(queue):
        for a in n.alphabet:
            nxt = n.step(current, a)
            if nxt not in ids:
                ids[nxt] = len(ids)
                queue.append(nxt)
            transitions.add((i, a, ids[nxt]))
    accepting = frozenset(i for s, i in ids.items() if s & n.accepting)
    return Nfa(frozenset(range(len(ids))), n.alphabet, frozenset(transitions),
               frozenset({0}), accepting)


def eb_to_nfa(b: ElementaryBounded, sigma: Alphabet) -> Nfa:
    """Chain-shaped NFA for w1*...wk* with 1 + sum(len(wi)) integer states.

    State i in 0..k is boundary i, "block i just completed" (block 0 =
    start); from there any block j >= max(i, 1) may begin.  The states
    inside the blocks are k+1 onward, block by block.  All boundary states
    accept.
    """
    words = b.words
    k = len(words)
    transitions = set()
    inner = k + 1  # the next unused state
    for j, w in enumerate(words, start=1):
        # the states after reading 1..len(w) letters of block j
        path = list(range(inner, inner + len(w) - 1)) + [j]
        inner += len(w) - 1
        for i in range(j + 1):
            # from boundary i, start block j when j >= max(i, 1)
            transitions.add((i, w[0], path[0]))
        for pos in range(1, len(w)):
            transitions.add((path[pos - 1], w[pos], path[pos]))
    return Nfa(frozenset(range(inner)), sigma, frozenset(transitions),
               frozenset({0}), frozenset(range(k + 1)))


def eb_complement_dfa(b: ElementaryBounded, sigma: Alphabet) -> Nfa:
    """A deterministic automaton for the words over sigma outside b."""
    for a in b.symbols_used():
        if a not in sigma:
            raise InputError(f"bounded-language symbol {a!r} missing from alphabet")
    d = determinize(eb_to_nfa(b, sigma))
    return Nfa(d.states, d.alphabet, d.transitions, d.initial,
               d.states - d.accepting)


# ---------------------------------------------------------------------------
# Regular expressions


class Regex:
    __slots__ = ()


@dataclass(frozen=True)
class REmpty(Regex):
    pass


@dataclass(frozen=True)
class REpsilon(Regex):
    pass


@dataclass(frozen=True)
class RSym(Regex):
    symbol: str


@dataclass(frozen=True)
class RConcat(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class RUnion(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class RStar(Regex):
    inner: Regex


EMPTY = REmpty()
EPS = REpsilon()


def runion(a: Regex, b: Regex) -> Regex:
    if isinstance(a, REmpty):
        return b
    if isinstance(b, REmpty):
        return a
    if a == b:
        return a
    return RUnion(a, b)


def rconcat(a: Regex, b: Regex) -> Regex:
    if isinstance(a, REmpty) or isinstance(b, REmpty):
        return EMPTY
    if isinstance(a, REpsilon):
        return b
    if isinstance(b, REpsilon):
        return a
    return RConcat(a, b)


def rstar(a: Regex) -> Regex:
    if isinstance(a, (REmpty, REpsilon)):
        return EPS
    if isinstance(a, RStar):
        return a
    return RStar(a)


def nfa_to_regex(n: Nfa) -> Regex:
    """State elimination; states of lowest in*out degree go first."""
    INIT, FINAL = ("#init",), ("#final",)
    edges: dict = {}

    def add(p, q, r):
        if isinstance(r, REmpty):
            return
        edges[(p, q)] = runion(edges.get((p, q), EMPTY), r)

    # frozensets iterate in hash order; sorting keeps the regex, and every
    # bounded language built from it, independent of PYTHONHASHSEED
    for p, a, q in sorted(n.transitions, key=repr):
        add(p, q, RSym(a))
    for q in sorted(n.initial, key=repr):
        add(INIT, q, EPS)
    for q in sorted(n.accepting, key=repr):
        add(q, FINAL, EPS)

    remaining = set(n.states)
    while remaining:
        def degree(s):
            ins = sum(1 for (p, q) in edges if q == s and p != s)
            outs = sum(1 for (p, q) in edges if p == s and q != s)
            return ins * outs

        s = min(sorted(remaining, key=repr), key=degree)
        remaining.discard(s)
        loop = rstar(edges.pop((s, s), EMPTY))
        ins = [(p, r) for (p, q), r in edges.items() if q == s]
        outs = [(q, r) for (p, q), r in edges.items() if p == s]
        for k in [k for k in list(edges) if k[0] == s or k[1] == s]:
            edges.pop(k)
        for p, rin in ins:
            for q, rout in outs:
                add(p, q, rconcat(rin, rconcat(loop, rout)))
    return edges.get((INIT, FINAL), EMPTY)
