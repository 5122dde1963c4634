"""Context-free grammars and the constructions the pipeline needs.

A production is a pair (lhs, rhs) where rhs is a tuple of symbols; a symbol is
a variable iff it belongs to g.variables.  Grammars are immutable and hashable
so expensive analyses can be cached per grammar object value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, groupby
from operator import itemgetter
from typing import Iterator

from .errors import BudgetError, InputError
from .symbols import (Alphabet, ElementaryBounded, Nfa, Regex, REmpty, REpsilon,
                      RSym, RConcat, RUnion, RStar, Word, alphabet, eb_to_nfa)

Production = tuple[str, tuple[str, ...]]


@dataclass(frozen=True)
class Cfg:
    variables: frozenset[str]
    terminals: Alphabet
    productions: frozenset[Production]
    start: str

    def __post_init__(self):
        if self.start not in self.variables:
            raise InputError(f"start symbol {self.start!r} is not a variable")
        overlap = set(self.variables) & set(self.terminals.symbols)
        if overlap:
            raise InputError(f"symbols are both variable and terminal: {overlap}")
        for lhs, rhs in self.productions:
            if lhs not in self.variables:
                raise InputError(f"production head {lhs!r} is not a variable")
            for s in rhs:
                if s not in self.variables and s not in self.terminals:
                    raise InputError(f"undeclared symbol {s!r} in {lhs} -> {rhs}")

    def sorted_productions(self) -> list[Production]:
        return sorted(self.productions)


@dataclass(frozen=True)
class LinearGrammar(Cfg):
    """A Cfg whose right-hand sides contain at most one variable."""

    def __post_init__(self):
        super().__post_init__()
        for lhs, rhs in self.productions:
            if sum(1 for s in rhs if s in self.variables) > 1:
                raise InputError(f"{lhs} -> {rhs} is not linear")


def cfg(variables, terminals, productions, start) -> Cfg:
    sigma = terminals if isinstance(terminals, Alphabet) else alphabet(terminals)
    return Cfg(frozenset(variables), sigma,
               frozenset((l, tuple(r)) for l, r in productions), start)


def _new_names(prefix: str, taken) -> Iterator[str]:
    """prefix#0, prefix#1, ..., skipping the names in taken.  Each
    construction numbers its own helper variables from 0, so equal inputs
    build equal grammars whatever ran before."""
    return (name for name in (f"{prefix}#{i}" for i in count())
            if name not in taken)


# ---------------------------------------------------------------------------
# Text format


def parse_grammar(text: str) -> Cfg:
    """Parse the line format::

        start X0
        X0 -> a X1 | a
        X1 -> X0 b | eps

    Symbols are whitespace-separated; any symbol never used as a left-hand
    side is a terminal; 'eps' denotes the empty right-hand side, and an
    alternative with no symbol at all is an error.  Only a line without '->'
    is a start directive, so a variable may be named 'start'.  A '#' that
    starts a token begins a comment; inside a symbol, as in the helper
    variable S#0, it is part of the name.
    """
    start = None
    rules: list[tuple[str, list[str]]] = []
    for raw in text.splitlines():
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            words = line.split()
            if len(words) != 2 or words[0] != "start":
                raise InputError(f"cannot parse grammar line: {raw!r}")
            start = words[1]
            continue
        lhs, rest = line.split("->", 1)
        lhs = lhs.strip()
        if not lhs or len(lhs.split()) != 1:
            raise InputError(f"bad left-hand side in line: {raw!r}")
        for rhs in map(str.split, rest.split("|")):
            if not rhs:
                raise InputError(f"empty alternative (write eps): {raw!r}")
            rules.append((lhs, rhs))
    if not rules:
        raise InputError("grammar has no productions")
    variables = {lhs for lhs, _ in rules}
    if start is None:
        start = rules[0][0]
    if start not in variables:
        raise InputError(f"start symbol {start!r} has no productions")
    productions = set()
    terminals = set()
    for lhs, rhs in rules:
        syms = [s for s in rhs if s != "eps"]
        for s in syms:
            if s not in variables:
                terminals.add(s)
        productions.add((lhs, tuple(syms)))
    return Cfg(frozenset(variables), alphabet(sorted(terminals)),
               frozenset(productions), start)


def format_grammar(g: Cfg) -> str:
    """The text format of parse_grammar: a line per variable with
    productions, from one sort of all of them."""
    lines = [f"start {g.start}"]
    for x, group in groupby(g.sorted_productions(), key=itemgetter(0)):
        rendered = " | ".join(" ".join(rhs) if rhs else "eps"
                              for _, rhs in group)
        lines.append(f"{x} -> {rendered}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Least derivation relations


def _derived(variables, productions, leaf, unit) -> dict[str, dict]:
    """For each variable, the least relation closed under its productions,
    read as written (no normal form needed): a terminal a relates leaf(a),
    an empty right-hand side relates unit, and a longer one relates the
    left-to-right composition of its symbols' relations.  A production is
    joined again only when the relation of one of its right-hand symbols
    grows.  A relation is a successor map, state -> set of next states, so
    "derives a word" is {0: {0}} and "derives no word" is {}.

    With automaton states this is the relation of the Bar-Hillel product;
    trimming, nullability and CYK are instances of it.  Enumeration and
    Parikh witnesses stay on CNF: witness_for_vector keeps the first word
    its evaluation order finds, and that word enters the bounded language,
    so another order would change the output.  enumerate_words fills its CNF
    table once, in order of length, and checks its budget per stored word;
    a join here builds a whole right-hand side's words before any check, and
    again each time one of its symbols grows, which on acceptor grammars
    runs for minutes where the CNF table runs out of budget in under a
    second."""
    rel: dict[str, dict] = {x: {} for x in variables}
    symbol: dict[str, dict] = {}
    users: dict[str, list[Production]] = {}
    for production in productions:
        for s in production[1]:
            if s in rel:
                users.setdefault(s, []).append(production)
            elif s not in symbol:
                symbol[s] = leaf(s)
    symbol.update(rel)
    work = list(productions)
    queued = set(work)
    while work:
        lhs, rhs = production = work.pop()
        queued.discard(production)
        acc = symbol[rhs[0]] if rhs else unit
        for s in rhs[1:]:
            if not acc:
                break
            acc = _compose(acc, symbol[s])
        # acc may be another symbol's map, whose sets are copied, or lhs's
        # own (X -> X), which has every key and so gains none while read
        target = rel[lhs]
        grew = False
        for p, qs in acc.items():
            have = target.setdefault(p, set())
            if not qs <= have:
                have |= qs
                grew = True
        if grew:
            for user in users.get(lhs, ()):
                if user not in queued:
                    queued.add(user)
                    work.append(user)
    return rel


def _compose(left: dict, right: dict) -> dict:
    """Join of two successor maps: relational composition."""
    out = {}
    for p, qs in left.items():
        nxt = set().union(*[right[q] for q in qs if q in right])
        if nxt:
            out[p] = nxt
    return out


# ---------------------------------------------------------------------------
# Trimming and emptiness


@lru_cache(maxsize=1 << 12)
def trim(g: Cfg) -> Cfg:
    """Keep only variables that are productive and reachable from the start.

    If the language is empty the result keeps just the start variable and no
    productions.
    """
    derived = _derived(g.variables, g.productions, lambda a: {0: {0}},
                       {0: {0}})
    productive = {x for x, r in derived.items() if r}
    keep = {(l, r) for (l, r) in g.productions
            if l in productive and all(s in productive or s in g.terminals for s in r)}
    reachable = {g.start}
    frontier = [g.start]
    by_lhs: dict[str, list] = {}
    for l, r in keep:
        by_lhs.setdefault(l, []).append(r)
    while frontier:
        x = frontier.pop()
        for rhs in by_lhs.get(x, ()):
            for s in rhs:
                if s not in g.terminals and s not in reachable:
                    reachable.add(s)
                    frontier.append(s)
    keep = {(l, r) for (l, r) in keep if l in reachable}
    variables = {l for l, _ in keep} | {g.start}
    return Cfg(frozenset(variables), g.terminals, frozenset(keep), g.start)


def is_empty_language(g: Cfg) -> bool:
    return not trim(g).productions


# ---------------------------------------------------------------------------
# Chomsky normal form and CYK


@dataclass(frozen=True)
class CnfGrammar:
    start: str
    binary: tuple[tuple[str, str, str], ...]   # (X, Y, Z) for X -> Y Z
    unary: tuple[tuple[str, str], ...]         # (X, a) for X -> a
    eps_in_language: bool


@lru_cache(maxsize=1 << 12)
def to_cnf(g: Cfg) -> CnfGrammar:
    g = binarize(trim(g))
    if not g.productions:
        return CnfGrammar(g.start, (), (), False)
    variables = g.variables

    # DEL: eliminate nullable occurrences
    derived = _derived(variables, g.productions, lambda a: {}, {0: {0}})
    nullable = {x for x, r in derived.items() if r}
    eps_in_language = g.start in nullable
    expanded: set[Production] = set()
    for lhs, rhs in g.productions:
        subsets = [()]
        for s in rhs:
            if s in nullable:
                subsets = [t + (s,) for t in subsets] + list(subsets)
            else:
                subsets = [t + (s,) for t in subsets]
        for t in subsets:
            if t:
                expanded.add((lhs, t))

    # UNIT: eliminate X -> Y chains.  Every other right-hand side enters the
    # engine as one leaf symbol, so X relates each one its chains reach, and
    # no production is long enough to need a join.
    chains = {(lhs, rhs if len(rhs) == 1 and rhs[0] in variables else (rhs,))
              for lhs, rhs in expanded}
    reached = _derived(variables, chains, lambda rhs: {rhs: {rhs}}, {})
    final = {(x, rhs) for x, rhss in reached.items() for rhs in rhss}

    # TERM: lift terminals occurring inside binary rules
    lift: dict[str, str] = {}
    names = _new_names("term", variables)
    binary: set[tuple[str, str, str]] = set()
    unary: set[tuple[str, str]] = set()
    for lhs, rhs in sorted(final):
        if len(rhs) == 1:
            unary.add((lhs, rhs[0]))
        else:
            parts = []
            for s in rhs:
                if s in variables:
                    parts.append(s)
                else:
                    if s not in lift:
                        lift[s] = next(names)
                        unary.add((lift[s], s))
                    parts.append(lift[s])
            binary.add((lhs, parts[0], parts[1]))

    # drop binary rules naming a variable that derives no word, such as one
    # that was only nullable; after TERM, so that no lifted name changes
    derives = _derived({x for rule in binary for x in rule}
                       | {x for x, _ in unary},
                       {(x, (y, z)) for x, y, z in binary}
                       | {(x, (a,)) for x, a in unary},
                       lambda a: {0: {0}}, {})
    binary = {(x, y, z) for x, y, z in binary if derives[y] and derives[z]}
    return CnfGrammar(g.start, tuple(sorted(binary)), tuple(sorted(unary)),
                      eps_in_language)


def cyk_membership(g: Cfg, w: Word) -> bool:
    """Whether g derives w, from the spans (i, j) of w each variable derives."""
    g = trim(g)
    n = len(w)
    spans = _derived(g.variables, g.productions,
                     lambda a: {i: {i + 1} for i in range(n) if w[i] == a},
                     {i: {i} for i in range(n + 1)})
    return n in spans[g.start].get(0, ())


def enumerate_words(g: Cfg, max_length: int, budget: int = 500_000) -> list[Word]:
    """All words of L(g) up to max_length, sorted; raises BudgetError when the
    total number of stored intermediate words exceeds the budget.

    One pass in order of length fills the table: CNF has no unit rules and no
    epsilon-rules (epsilon shows only as eps_in_language), so both parts of a
    word of length n that X -> Y Z derives are nonempty and shorter than n,
    and every cell they come from is complete when length n is filled."""
    if max_length < 0:
        raise InputError(f"enumeration length must be >= 0, not {max_length}")
    cnf = to_cnf(g)
    variables = ({x for x, _, _ in cnf.binary} | {y for _, y, _ in cnf.binary}
                 | {z for _, _, z in cnf.binary} | {x for x, _ in cnf.unary}
                 | {cnf.start})
    table: dict[str, list[set[Word]]] = {
        x: [set() for _ in range(max_length + 1)] for x in variables}
    stored = 0
    for x, a in cnf.unary:
        if max_length >= 1:
            table[x][1].add((a,))
            stored += 1
    if stored > budget:
        raise BudgetError(f"enumeration exceeded {budget} words")
    for total in range(2, max_length + 1):
        for x, y, z in cnf.binary:
            cell = table[x][total]
            for i in range(1, total):
                lefts, rights = table[y][i], table[z][total - i]
                if not lefts or not rights:
                    continue
                for u in lefts:
                    for v in rights:
                        wv = u + v
                        if wv not in cell:
                            cell.add(wv)
                            stored += 1
                            if stored > budget:
                                raise BudgetError(
                                    f"enumeration exceeded {budget} words")
    out: set[Word] = set()
    if cnf.eps_in_language:
        out.add(())
    for length in range(1, max_length + 1):
        out |= table[cnf.start][length]
    return sorted(out, key=lambda w: (len(w), w))


# ---------------------------------------------------------------------------
# Closure constructions


def binarize(g: Cfg) -> Cfg:
    """Cut right-hand sides to length <= 2 (mixed symbols allowed)."""
    prods: set[Production] = set()
    variables = set(g.variables)
    names = _new_names("bin", g.variables)
    for lhs, rhs in g.sorted_productions():
        head, rest = lhs, rhs
        while len(rest) > 2:
            nxt = next(names)
            variables.add(nxt)
            prods.add((head, (rest[0], nxt)))
            head, rest = nxt, rest[1:]
        prods.add((head, rest))
    return Cfg(frozenset(variables), g.terminals, frozenset(prods), g.start)


def cfg_rename_variables(g: Cfg, ren: dict[str, str]) -> Cfg:
    prods = {(ren.get(l, l), tuple(ren.get(s, s) if s in g.variables else s for s in r))
             for l, r in g.productions}
    return Cfg(frozenset(ren.get(x, x) for x in g.variables), g.terminals,
               frozenset(prods), ren.get(g.start, g.start))


def union_alphabets(*sigmas: Alphabet) -> Alphabet:
    return alphabet(sorted({a for s in sigmas for a in s.symbols}))


def with_alphabet(g: Cfg, sigma: Alphabet) -> Cfg:
    """Re-declare g over a larger alphabet (language unchanged)."""
    for a in g.terminals:
        if a not in sigma:
            raise InputError(f"alphabet is missing terminal {a!r}")
    return Cfg(g.variables, sigma, g.productions, g.start)


def concat_grammars(gs: list[Cfg], sigma: Alphabet | None = None) -> Cfg:
    """Concatenation; with an empty list this is the language {epsilon}.
    Part i's variable X is renamed c#i:X."""
    sigma = sigma or union_alphabets(*[g.terminals for g in gs])
    start = next(_new_names("cat", sigma))
    variables = {start}
    prods: set[Production] = set()
    starts = []
    for i, g in enumerate(gs):
        rg = cfg_rename_variables(g, {x: f"c#{i}:{x}" for x in g.variables})
        variables |= rg.variables
        prods |= rg.productions
        starts.append(rg.start)
    prods.add((start, tuple(starts)))
    return Cfg(frozenset(variables), sigma, frozenset(prods), start)


def finite_cfg(words: list[Word], sigma: Alphabet) -> Cfg:
    start = next(_new_names("fin", sigma))
    prods = frozenset((start, tuple(w)) for w in words)
    return Cfg(frozenset({start}), sigma, prods, start)


def regex_to_cfg(r: Regex, sigma: Alphabet) -> Cfg:
    """One variable rx#i:rk per regex node; the tag rx#i keeps the variables
    apart from the terminals."""
    tag = next(_new_names("rx", {a.split(":", 1)[0] for a in sigma}))
    prods: set[Production] = set()
    variables: set[str] = set()

    def build(rx) -> str:
        x = f"{tag}:r{len(variables) + 1}"
        variables.add(x)
        if isinstance(rx, REmpty):
            pass
        elif isinstance(rx, REpsilon):
            prods.add((x, ()))
        elif isinstance(rx, RSym):
            prods.add((x, (rx.symbol,)))
        elif isinstance(rx, RConcat):
            prods.add((x, (build(rx.left), build(rx.right))))
        elif isinstance(rx, RUnion):
            prods.add((x, (build(rx.left),)))
            prods.add((x, (build(rx.right),)))
        elif isinstance(rx, RStar):
            inner = build(rx.inner)
            prods.add((x, ()))
            prods.add((x, (inner, x)))
        else:
            raise InputError(f"not a regex: {rx!r}")
        return x

    start = build(r)
    return Cfg(frozenset(variables), sigma, frozenset(prods), start)


# ---------------------------------------------------------------------------
# Bar-Hillel product with an automaton that writes a word on each move


def transducer_product(g: Cfg, t: Nfa, out_sigma: Alphabet, emit) -> Cfg:
    """Grammar over out_sigma for the outputs of t's accepting runs on the
    words of L(g), where the move (q, a, q2) outputs the word emit(q, a, q2).

    Variable [q,x,q2] derives the outputs of the runs from q to q2 on the
    words of x; a move's output stands where its terminal stood.  Each
    terminal relates the moves on it, t's own successor map, and the maps of
    the variables are derived from these bottom-up first.  The productions
    are then built top-down from the start triples, through those maps
    only, so every triple built is productive and reachable: the |Q|^3
    blowup is paid only on triples the product keeps, and the result needs
    no trim.  emit is called only for the moves a production uses.
    """
    g = binarize(trim(g))
    if not g.productions:
        return Cfg(frozenset({g.start}), out_sigma, frozenset(), g.start)
    # succ[s][q] = the states q2 such that [q,s,q2] derives a word
    succ = {a: t.moves.get(a, {}) for a in g.terminals}
    succ.update(_derived(g.variables, g.productions, succ.__getitem__,
                         {q: {q} for q in t.states}))
    alternatives: dict[str, list] = {}
    for x, rhs in g.productions:
        alternatives.setdefault(x, []).append(rhs)

    names: dict = {}  # each triple (x, q, q2) built -> its name [q,x,q2]
    work: list = []

    def tv(triple):
        """The name of a triple; one met for the first time is queued."""
        name = names.get(triple)
        if name is None:
            x, q, q2 = triple
            name = names[triple] = f"[{q},{x},{q2}]"
            work.append(triple)
        return name

    start = "S#0"  # no triple name has this form
    prods = {(start, (tv((g.start, qi, qf)),)) for qi in t.initial
             for qf in t.accepting if qf in succ[g.start].get(qi, ())}
    while work:
        x, q, q2 = triple = work.pop()
        head = names[triple]
        for rhs in alternatives[x]:
            # the state runs q, ..., q2 along which each symbol of rhs derives
            runs = [(q,)]
            for s in rhs[:-1]:
                runs = [r + (p,) for r in runs for p in succ[s].get(r[-1], ())]
            runs = ([r + (q2,) for r in runs
                     if q2 in succ[rhs[-1]].get(r[-1], ())]
                    if rhs else runs * (q == q2))
            for run in runs:
                body: tuple[str, ...] = ()
                for s, p, p2 in zip(rhs, run, run[1:]):
                    body += ((tv((s, p, p2)),) if s in g.variables
                             else emit(p, s, p2))
                prods.add((head, body))
    variables = frozenset({start, *names.values()})
    return Cfg(variables, out_sigma, frozenset(prods), start)


def product_with_dfa(g: Cfg, d: Nfa) -> Cfg:
    """Bar-Hillel product; recognizes L(g) intersected with the language of
    the automaton d, which outputs each letter it reads."""
    for a in g.terminals:
        if a not in d.alphabet:
            raise InputError(f"terminal {a!r} missing from automaton alphabet")
    return transducer_product(g, d, g.terminals, lambda q, a, q2: (a,))


def block_projection(g: Cfg, words: tuple[Word, ...]) -> Cfg:
    """Grammar over a1..an for { a1^t1...an^tn : w1^t1...wn^tn in L(g) }:
    the product with the eb_to_nfa chain, which outputs aj on each move
    into boundary j, the states 1..n of the chain."""
    b = ElementaryBounded(words)
    chain = eb_to_nfa(b, g.terminals)
    out_sigma = alphabet([f"a{j}" for j in range(1, b.k + 1)])
    return transducer_product(
        g, chain, out_sigma,
        lambda q, a, q2: (f"a{q2}",) if q2 <= b.k else ())


# ---------------------------------------------------------------------------
# Language-preserving simplification


def simplify(g: Cfg) -> Cfg:
    """Shrink a grammar without changing its language.

    Combines trimming, merging of variables with identical production
    structure (a stable partition, so languages coincide), and inlining of
    non-recursive single-production variables.
    """
    g = trim(g)
    # ends: no pass adds a variable or a production
    while True:
        before = (len(g.variables), len(g.productions))
        g = _merge_equivalent(g)
        g = _inline_simple(g)
        g = trim(g)
        if (len(g.variables), len(g.productions)) == before:
            return g


def _merge_equivalent(g: Cfg) -> Cfg:
    block: dict[str, int] = {x: 0 for x in g.variables}
    by_lhs: dict[str, list] = {x: [] for x in g.variables}
    for lhs, rhs in g.productions:
        by_lhs[lhs].append(rhs)
    while True:
        signature: dict[str, tuple] = {}
        for x in g.variables:
            sig = frozenset(
                tuple(("v", block[s]) if s in g.variables else ("t", s) for s in rhs)
                for rhs in by_lhs[x])
            signature[x] = sig
        groups: dict[tuple, list[str]] = {}
        for x in sorted(g.variables):
            groups.setdefault((block[x], signature[x]), []).append(x)
        new_block = {}
        for i, (_, members) in enumerate(sorted(groups.items(),
                                                key=lambda kv: kv[1][0])):
            for x in members:
                new_block[x] = i
        if new_block == block:
            break
        block = new_block
    rep: dict[int, str] = {}
    for x in sorted(g.variables):
        rep.setdefault(block[x], x)
    ren = {x: rep[block[x]] for x in g.variables}
    prods = {(ren[l], tuple(ren.get(s, s) for s in r)) for l, r in g.productions}
    return Cfg(frozenset(rep.values()), g.terminals, frozenset(prods), ren[g.start])


def _inline_simple(g: Cfg) -> Cfg:
    while True:
        prods_by_lhs: dict[str, list] = {x: [] for x in g.variables}
        for lhs, rhs in g.productions:
            prods_by_lhs[lhs].append(rhs)
        occurrences: dict[str, int] = {x: 0 for x in g.variables}
        for _, rhs in g.productions:
            for s in rhs:
                if s in occurrences:
                    occurrences[s] += 1
        target = None
        for x in sorted(g.variables):
            if x == g.start or len(prods_by_lhs[x]) != 1:
                continue
            rhs = prods_by_lhs[x][0]
            if x in rhs or occurrences[x] == 0:
                continue
            # inline when the copies it makes stay small
            if len(rhs) <= 2 or occurrences[x] * len(rhs) <= 12:
                target = (x, rhs)
                break
        if target is None:
            return g
        x, body = target
        prods = set()
        for lhs, rhs in g.productions:
            if lhs == x:
                continue
            new_rhs: tuple[str, ...] = ()
            for s in rhs:
                new_rhs += body if s == x else (s,)
            prods.add((lhs, new_rhs))
        g = Cfg(g.variables - {x}, g.terminals, frozenset(prods), g.start)
