"""Construction of Parikh-equivalent bounded subsets.

Everything here maintains one contract: the returned elementary bounded
language B satisfies Parikh(L intersect B) = Parikh(L) for the relevant L.
The route for a general grammar: build the differential (linear) grammar,
find bounded languages for its variable languages through the regular-
language and linear-language cases, then push them down the k-fold
composition levels via the power and substitution constructions.  Every
level above 0 applies the same substitution, over the differential
grammar's terminals, so a level is a step of a loop, not an alphabet.
"""

from __future__ import annotations

from functools import reduce

from .errors import SoundnessError
from .grammar import (Cfg, LinearGrammar, enumerate_words, finite_cfg,
                      is_empty_language, product_with_dfa, regex_to_cfg, simplify,
                      trim)
from .newton import KFoldComposition, build_kfold, suggested_depth, v_symbol
from .semilinear import (WitnessedSemilinear, _spans_within, outermost,
                         parikh_image, wit_minkowski, wit_singleton)
from .symbols import (Alphabet, ElementaryBounded, Nfa, Regex, REmpty, REpsilon,
                      RSym, RConcat, RUnion, RStar, Word, alphabet, eb,
                      eb_concat, eb_to_nfa, nfa_to_regex, parikh_of_word)


@outermost
def verify_parikh_property(g: Cfg, b: ElementaryBounded, max_length: int) -> bool:
    """Enumeration check: every word of L(g) up to max_length has a commutative
    mate inside L(g) intersect B.  A Parikh vector's entries sum to its
    word's length, so comparing the two sets of vectors is exact."""
    sigma = g.terminals
    nfa = eb_to_nfa(b, sigma)
    words = enumerate_words(g, max_length)
    return ({parikh_of_word(w, sigma) for w in words}
            <= {parikh_of_word(w, sigma) for w in words if nfa.accepts(w)})


def bounded_for_powers(g: Cfg, b: ElementaryBounded) -> ElementaryBounded:
    """Given Parikh(L intersect B) = Parikh(L), return B' covering every power:
    Parikh(L^t intersect B') = Parikh(L^t) for all t >= 0; see
    _powers_from_image for B' and why it is sound."""
    return _powers_from_image(parikh_image(trim(g)), b)


def _powers_from_image(image: WitnessedSemilinear,
                       b: ElementaryBounded) -> ElementaryBounded:
    """B' = u1* ... ul* B^m for the language L whose witnessed Parikh image
    is given, where Parikh(L intersect B) = Parikh(L).

    The linear components ci + span(Pi) of Parikh(L) number l, and each ui
    is a witness word of L for the constant ci.  The components with
    periods are covered by m chains: sorted by more periods first, then by
    periods and constant, each one goes on the first chain whose last
    element's span contains its own, or starts a new chain.  Span
    containment is transitive, so on every chain the span of each element
    contains the spans of all later ones.

    Why one copy of B per chain suffices: take v in Parikh(L^t) and say
    component i is used ti times, so v = sum over used i of (ti.ci + pi)
    with pi in span(Pi) and sum ti = t.  A period-free component adds
    ti.ci, which is Parikh(ui^ti).  On a chain with a used component, let s
    be the first one used; every used i on that chain has span(Pi) inside
    span(Ps), so y = cs + sum of those pi lies in cs + span(Ps), a subset
    of Parikh(L) = Parikh(L intersect B).  One word of L intersect B, in
    the chain's copy of B, realizes y, and the words ui^ti, with us taken
    ts - 1 times, realize the rest of the chain's sum.  So s still gets ts
    words of L and every other used i gets ti, t words in all; read in the
    order of B' they form a word of L^t inside B' with Parikh vector v.  A
    chain with no used component takes the empty word from its copy.
    """
    witnesses = [w for _, w in image.components]
    periodic = sorted((comp for comp, _ in image.components if comp.periods),
                      key=lambda c: (-len(c.periods), c.periods, c.constant))
    chains: list = []   # the last element of each chain
    for comp in periodic:
        for k, last in enumerate(chains):
            if _spans_within(comp._gens, last._gens):
                chains[k] = comp
                break
        else:
            chains.append(comp)
    return eb_concat(eb(witnesses), *([b] * len(chains)))


# ---------------------------------------------------------------------------
# Regular languages


def bounded_for_regex(r: Regex, sigma: Alphabet) -> ElementaryBounded:
    """Structural recursion; union and concatenation both take B1 B2, and a
    star defers to the power construction for the language under the star."""
    if isinstance(r, (REmpty, REpsilon)):
        return eb([])
    if isinstance(r, RSym):
        return eb([(r.symbol,)])
    if isinstance(r, (RConcat, RUnion)):
        left = bounded_for_regex(r.left, sigma)
        right = bounded_for_regex(r.right, sigma)
        return eb_concat(left, right)
    if isinstance(r, RStar):
        inner = bounded_for_regex(r.inner, sigma)
        return bounded_for_powers(regex_to_cfg(r.inner, sigma), inner)
    raise SoundnessError(f"not a regex: {r!r}")


# ---------------------------------------------------------------------------
# Linear languages


def decompose_linear(lg: LinearGrammar
                     ) -> tuple[Nfa, dict[str, tuple[Word, Word]]]:
    """An NFA over production letters and the two sides of each letter.

    The NFA accepts the production sequences p1..pm of lg's derivations.
    With sides[p] = (the words left of p's variable, those right of it),
    such a derivation yields the left sides of p1..pm in order, then the
    right sides of pm..p1.  A terminal production's whole right-hand side
    is its left side."""
    lg = trim(lg)
    final = "#qf"
    sides: dict[str, tuple[Word, Word]] = {}
    transitions = set()
    for i, (lhs, rhs) in enumerate(lg.sorted_productions()):
        p = f"p{i}"
        j = next((j for j, s in enumerate(rhs) if s in lg.variables), len(rhs))
        sides[p] = (tuple(rhs[:j]), tuple(rhs[j + 1:]))
        transitions.add((lhs, p, rhs[j] if j < len(rhs) else final))
    nfa = Nfa(frozenset(lg.variables | {final}), alphabet(sides),
              frozenset(transitions), frozenset({lg.start}), frozenset({final}))
    return nfa, sides


def bounded_for_linear(lg: LinearGrammar) -> ElementaryBounded:
    """From a bounded language w1*..wm* of the production sequences: the
    left sides of each wi, over w1..wm, then the right sides of each wi
    read backwards, over wm..w1."""
    lg = trim(lg)
    if not lg.productions:
        return eb([])
    nfa, sides = decompose_linear(lg)
    base = bounded_for_regex(nfa_to_regex(nfa), nfa.alphabet)
    forward = [tuple(a for p in w for a in sides[p][0]) for w in base.words]
    backward = [tuple(a for p in reversed(w) for a in sides[p][1])
                for w in reversed(base.words)]
    return eb(forward + backward)


# ---------------------------------------------------------------------------
# Substitution


def bounded_for_substitution(b: ElementaryBounded,
                             sigma_map: dict[str, Cfg],
                             tau_map: dict[str, ElementaryBounded],
                             out_alphabet: Alphabet,
                             memo: dict | None = None) -> ElementaryBounded:
    """Push a bounded language through a substitution.

    For each word wi of b, the language Li substitutes every letter of wi
    (unmapped letters stand for themselves) and Bi handles all powers of Li;
    the concatenation B1 ... Bk covers the substituted language.  Two sound
    shortcuts, in this order: a word with an empty-language letter gives
    nothing, and one whose letters each have a single-vector image (an
    unmapped letter's is its own vector) gives their witnesses in a row,
    as one vector has no periods to chain.  They are there for speed: each
    skips the Minkowski sums of the word's images, which give the same Bi.

    Each distinct word is substituted once.  ``memo`` may carry that work
    across calls: it maps each word to its Bi, and each mapped letter to
    whether its language is empty.  Both depend on the maps and the output
    alphabet, so a memo must never be shared between calls with different
    ``sigma_map``, ``tau_map`` or ``out_alphabet``.
    """
    memo = {} if memo is None else memo
    parts: dict[str, WitnessedSemilinear] = {}

    def empty(a: str) -> bool:
        if a not in memo:
            memo[a] = is_empty_language(sigma_map[a])
        return memo[a]

    def part(a: str) -> WitnessedSemilinear:
        """The witnessed Parikh image of letter a's language, once per call."""
        if a not in parts:
            parts[a] = (parikh_image(sigma_map[a]) if a in sigma_map
                        else wit_singleton(parikh_of_word((a,), out_alphabet),
                                           (a,)))
        return parts[a]

    for wi in dict.fromkeys(b.words):
        if wi in memo:
            continue
        if any(a in sigma_map and empty(a) for a in wi):
            memo[wi] = eb([])
            continue
        images = [part(a) for a in wi]
        if all(len(p.components) == 1 and not p.components[0][0].periods
               for p in images):
            word = tuple(a for p in images for a in p.components[0][1])
            memo[wi] = eb([word])
        else:
            # Parikh(Li) is the Minkowski sum of the per-letter images
            image = reduce(wit_minkowski, images)
            ti = eb_concat(*[tau_map[a] if a in tau_map else eb([(a,)])
                              for a in wi])
            memo[wi] = _powers_from_image(image, ti)
    return eb_concat(*map(memo.__getitem__, b.words))


# ---------------------------------------------------------------------------
# The bounded-sequence algorithm over composition levels


def algorithm1_bounded_sequence(kf: KFoldComposition,
                                btilde: dict[str, ElementaryBounded],
                                root: str,
                                trace: list | None = None) -> ElementaryBounded:
    """Turn bounded languages for the differential grammar's variable
    languages into a bounded language for nu_depth(root).

    Every level above 0 applies the same map: v_Y goes to L_Y(G~), with
    btilde[Y] as its bounded language, so one memo serves all of them.  A
    level needs no alphabet of its own, because no word of ``current``
    mixes letters of two levels: the words of btilde[root] hold v-letters
    of the level below the top only, and a substitution replaces every
    v-letter of a word while the v-letters it emits all stand for the next
    level down.  Level 0 maps v_Y to the terminal-only right-hand sides of
    Y.  Only root's chain is substituted: the maps come from the
    differential grammar and btilde alone, so the other chains cannot
    change root's.  ``trace`` receives (level, B) per level, the last one
    ("final", B) even at depth 0."""
    record = trace.append if trace is not None else lambda entry: None
    if kf.depth == 0:
        result = eb(kf.base_words(root))
        record(("final", result))
        return result
    gt = kf.differential
    variables = sorted(kf.base.variables)
    sig = {v_symbol(y): Cfg(gt.variables, gt.terminals, gt.productions, y)
           for y in variables}
    tau = {v_symbol(y): btilde[y] for y in variables}
    memo: dict = {}
    current = btilde[root]
    record((kf.depth - 1, current))
    for i in range(kf.depth - 2, -1, -1):
        current = bounded_for_substitution(current, sig, tau, gt.terminals, memo)
        record((i, current))
    base_sigma = kf.base.terminals
    sig0 = {v_symbol(y): finite_cfg(list(kf.base_words(y)), base_sigma)
            for y in variables}
    tau0 = {v_symbol(y): eb(kf.base_words(y)) for y in variables}
    result = bounded_for_substitution(current, sig0, tau0, base_sigma)
    record(("final", result))
    return result


# ---------------------------------------------------------------------------
# End-to-end entry points


@outermost
def parikh_equivalent_bounded(g: Cfg,
                              trace: list | None = None) -> ElementaryBounded:
    """An elementary bounded B over terminals(g) with
    Parikh(L(g) intersect B) = Parikh(L(g))."""
    g = trim(g)
    if not g.productions:
        return eb([])
    g = simplify(g)
    kf = build_kfold(g, suggested_depth(g))
    gt = kf.differential
    btilde = {}
    for x in sorted(g.variables):
        rooted = LinearGrammar(gt.variables, gt.terminals, gt.productions, x)
        btilde[x] = bounded_for_linear(rooted)
    return algorithm1_bounded_sequence(kf, btilde, g.start, trace)


@outermost
def bounded_subset(g: Cfg, b: ElementaryBounded | None = None) -> Cfg:
    """A grammar for L' = L(g) intersect B; L' is bounded, contained in L(g),
    and Parikh-equivalent to it.  It is the product with B's eb_to_nfa
    chain, as in block_projection; the chain's integer states keep the
    printed grammar parseable."""
    g = trim(g)
    if b is None:
        b = parikh_equivalent_bounded(g)
    return product_with_dfa(g, eb_to_nfa(b, g.terminals))
