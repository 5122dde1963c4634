import pickle
import random
from collections import Counter
from functools import reduce
from itertools import product
from operator import add
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (CORE_CORPUS, G_EX, Budget, corpus_and_acceptors,
                     expand_semilinear, full_corpus, naive_lin_member,
                     parikh_vectors, random_corpus, random_linear_grammar,
                     reference_lin_subsumed, reference_merge_pair,
                     reference_minkowski_pairs, reference_prune_pairs,
                     reference_solve_block, reference_witness_for_vector)
from parikhbound import (BudgetError, InputError, LinearSet, SemilinearSet,
                         cyk_membership, differential_grammar, linear_set,
                         parikh_image, parikh_semilinear, parikh_of_word,
                         parse_grammar,
                         sl_intersect, sl_intersection_witness,
                         sl_membership, trim, witness_for_vector)
from parikhbound import semilinear
from parikhbound.diophantine import solve_nonneg
from parikhbound.grammar import regex_to_cfg
from parikhbound.pdn import acceptor_to_cfg, encode_to_acceptors, family_instance
from parikhbound.semilinear import (WitnessedSemilinear, _lin_minkowski,
                                    _lin_key, _lin_subsumed, _merge_pair,
                                    _merge_search, _prune_pairs,
                                    _spans_within, prune,
                                    sl_empty, sl_minkowski, sl_singleton,
                                    sl_star,
                                    sl_union, wit_minkowski)
from parikhbound.symbols import RStar, RSym, alphabet, rconcat, runion
from test_caches import lru_caches

vec2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
lin2 = st.builds(linear_set, vec2, st.lists(vec2, max_size=3).map(tuple))
sl2 = st.builds(lambda comps: SemilinearSet(2, tuple(comps)),
                st.lists(lin2, min_size=0, max_size=3))

ALL_VECS_6 = [v for v in product(range(7), repeat=2) if sum(v) <= 6]


def member_oracle(s: SemilinearSet, v) -> bool:
    return any(naive_lin_member(c.constant, c.periods, v)
               for c in s.components)


def test_linear_set_canonicalizes_periods():
    # a period derivable from the others is dropped; zero periods are dropped
    l = linear_set((0, 0), ((1, 0), (0, 1), (1, 1), (0, 0)))
    assert set(l.periods) == {(1, 0), (0, 1)}


def test_linear_set_rejects_periods_of_another_dimension():
    with pytest.raises(InputError):
        linear_set((1, 2), ((1,),))


def test_membership_fixture():
    l = linear_set((1, 0), ((1, 1),))
    assert sl_membership(SemilinearSet(2, (l,)), (3, 2))
    assert not sl_membership(SemilinearSet(2, (l,)), (2, 2))


@settings(max_examples=80, deadline=None)
@given(sl2, vec2)
def test_membership_matches_naive_oracle(s, v):
    assert sl_membership(s, v) == member_oracle(s, v)


@settings(max_examples=60, deadline=None)
@given(sl2)
def test_prune_is_exact(s):
    p = prune(s)
    assert len(p.components) <= max(len(s.components), 1)
    for v in ALL_VECS_6:
        assert sl_membership(p, v) == member_oracle(s, v)


@settings(max_examples=200, deadline=None)
@given(st.builds(lambda comps: SemilinearSet(2, tuple(comps)),
                 st.lists(lin2, min_size=0, max_size=6)))
def test_prune_is_idempotent_and_irredundant(s):
    p = prune(s)
    assert prune(p) == p
    for a in p.components:
        for b in p.components:
            assert a == b or not _lin_subsumed(a, b), (a, b)


def test_prune_keeps_one_of_equal_constants():
    # the component with periods contains the one without
    s = SemilinearSet(2, (linear_set((3, 0)), linear_set((3, 0), ((2, 1),))))
    assert prune(s).components == (linear_set((3, 0), ((2, 1),)),)
    # fewer periods, yet the larger set: {1}* contains {2, 3}*
    s = SemilinearSet(1, (linear_set((0,), ((1,),)),
                          linear_set((0,), ((2,), (3,)))))
    assert prune(s).components == (linear_set((0,), ((1,),)),)


def test_prune_merges_star_blowup():
    # the union of the 2^2 subset-sum components of {e1, e2}* collapses
    parts = [linear_set((0, 0)),
             linear_set((1, 0), ((1, 0),)),
             linear_set((0, 1), ((0, 1),)),
             linear_set((1, 1), ((1, 0), (0, 1)))]
    p = prune(SemilinearSet(2, tuple(parts)))
    assert p.components == (linear_set((0, 0), ((1, 0), (0, 1))),)


@st.composite
def lin_pairs(draw):
    """Two 2-D or 3-D linear sets.  Half the period lists lie along axes, so
    period supports often differ or are disjoint.  A quarter of the pairs
    share one period set, as most pairs in prune do; a quarter put the first
    set inside the second, and a quarter make the second the first shifted
    by some d with d as an extra period, so that subsumptions and merges
    occur; an extra random period may break either relation."""
    n = draw(st.sampled_from((2, 3)))
    vec = st.tuples(*[st.integers(0, 3)] * n)
    axis = st.builds(lambda i, k: tuple(k if j == i else 0 for j in range(n)),
                     st.integers(0, n - 1), st.integers(1, 3))
    periods = st.lists(axis, max_size=2) | st.lists(axis | vec, max_size=2)
    b = linear_set(draw(vec), draw(periods))
    mode = draw(st.sampled_from(("free", "shared", "inside", "shifted")))
    if mode == "free":
        return linear_set(draw(vec), draw(periods)), b
    if mode == "shared":
        return linear_set(draw(vec), b.periods), b
    extra = draw(st.lists(axis | vec, max_size=1))
    if mode == "shifted":
        d = draw(vec)
        return b, linear_set(tuple(map(add, b.constant, d)),
                             [*b.periods, d, *extra])
    point = b.constant
    for p in b.periods:
        k = draw(st.integers(0, 2))
        point = tuple(x + k * y for x, y in zip(point, p))
    inside = list(b.periods) + [tuple(map(add, p, q))
                                for p in b.periods for q in b.periods]
    own = draw(st.lists(st.sampled_from(inside), max_size=2)) if inside else []
    return linear_set(point, own + extra), b


@settings(max_examples=400, deadline=None)
@given(lin_pairs())
@example((linear_set((1, 0), ((1, 0),)), linear_set((0, 0), ((0, 1),))))
@example((linear_set((1, 2), ((0, 1),)),
          linear_set((1, 1), ((0, 1), (2, 0)))))
# the gap (1, 1) leaves b's period support
@example((linear_set((0, 0), ((1, 0),)), linear_set((1, 1), ((1, 0),))))
# b's constant is zero where a's is not, so the gap is negative
@example((linear_set((1, 0), ()), linear_set((0, 2), ((0, 1),))))
# the gap is already a period of a
@example((linear_set((0, 0), ((1, 1),)), linear_set((1, 1), ((1, 1),))))
def test_rejects_before_search_match_the_definitions(pair):
    for a, b in (pair, pair[::-1]):
        subsumed = reference_lin_subsumed(a, b)
        assert _lin_subsumed(a, b) == subsumed
        # the mask test that _prune_pairs makes before calling _lin_subsumed
        assert not subsumed or not a._sub_sig & ~b._sub_sig
        merged = reference_merge_pair(a, b)
        assert _merge_pair(a, b) == merged
        # the rejects that the merge scan of _prune_pairs makes inline
        assert merged is None or not (a._csum >= b._csum
                                      or a._pmask & ~b._pmask
                                      or b._zeros & ~a._zeros)


def test_merge_cache_is_keyed_by_period_sets_and_gap():
    # a translated pair has the same period sets and gap, so it finds the
    # entry of the first; the entry holds neither pair alive
    a = linear_set((0, 1), ((1, 0),))
    b = linear_set((0, 2), ((1, 0), (0, 1)))
    _merge_search.cache_clear()
    assert _merge_pair(a, b) == linear_set((0, 1), ((1, 0), (0, 1)))
    assert _merge_pair(linear_set((2, 4), ((1, 0),)),
                       linear_set((2, 5), ((1, 0), (0, 1)))) \
        == linear_set((2, 4), ((1, 0), (0, 1)))
    info = _merge_search.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_linear_sets_have_slots_and_keep_equality_hash_and_repr():
    built = linear_set((1, 0), ((0, 2), (0, 1)))
    summed = _lin_minkowski(linear_set((1, 0)), linear_set((0, 0), ((0, 1),)))
    merged = _merge_pair(linear_set((1, 0)), linear_set((1, 1), ((0, 1),)))
    for l in (built, summed, merged, pickle.loads(pickle.dumps(built))):
        assert not hasattr(l, "__dict__")
        assert repr(l) == "LinearSet(constant=(1, 0), periods=((0, 1),))"
        assert l == built and hash(l) == hash(((1, 0), ((0, 1),)))
        assert (l._csum, l._zeros) == (1, 0b10)


@settings(max_examples=300, deadline=None)
@given(lin_pairs())
def test_spans_within_matches_its_definition(pair):
    for a, b in (pair, pair[::-1]):
        assert _spans_within(a._gens, b._gens) == all(
            solve_nonneg(b.periods, p) is not None for p in a.periods)


MIX_PERIODS = [(), ((1, 0),), ((0, 1),), ((1, 0), (0, 1)), ((2, 0),),
               ((1, 1),), ((2, 0), (0, 1)), ((1, 0), (1, 1)), ((0, 2), (3, 0))]
MIX_CONSTANTS = [(0, 0), (1, 0), (2, 1)]


def test_period_sets_interned_before_and_after_cache_clear_mix():
    """Linear sets built before and after every cache is cleared hold
    different interned period sets for the same periods; mixed freely, they
    must still compare, hash, subsume, merge and prune alike.  Each round
    rebuilds the sets in another order, so a new period set may land at the
    address of a freed one with other periods."""
    def build(periods):
        return [linear_set(c, ps) for ps in periods for c in MIX_CONSTANTS]

    old = build(MIX_PERIODS)
    pruned = [l for l, _ in _prune_pairs([(l, None) for l in old])]
    for r in range(1, len(MIX_PERIODS)):
        for cached in lru_caches().values():
            cached.cache_clear()
        new = build(MIX_PERIODS[r:] + MIX_PERIODS[:r])
        twin = {(l.constant, l.periods): l for l in new}
        mixed = []
        for i, a in enumerate(old):
            a2 = twin[(a.constant, a.periods)]
            assert a == a2 and hash(a) == hash(a2) and a._gens is not a2._gens
            mixed.append(a2 if i % 2 else a)
        for a in old + new:
            for b in old + new:
                assert _lin_subsumed(a, b) == reference_lin_subsumed(a, b)
                assert _merge_pair(a, b) == reference_merge_pair(a, b)
        assert [l for l, _ in _prune_pairs([(l, None) for l in mixed])] \
            == pruned


def test_parikh_semilinear_under_reference_predicates(monkeypatch):
    """Pruning with the plain definitions of subsumption and merge gives the
    same Parikh images."""
    grammars = full_corpus() + [acceptor_to_cfg(a) for a in
                                encode_to_acceptors(*family_instance(3))]
    expected = [parikh_semilinear(g) for g in grammars]
    monkeypatch.setattr(semilinear, "_lin_subsumed", reference_lin_subsumed)
    monkeypatch.setattr(semilinear, "_merge_pair", reference_merge_pair)
    for cached in lru_caches().values():
        cached.cache_clear()
    assert [parikh_semilinear(g) for g in grammars] == expected


@settings(max_examples=40, deadline=None)
@given(lin2, lin2)
def test_minkowski_matches_expansion(a, b):
    s = sl_minkowski(SemilinearSet(2, (a,)), SemilinearSet(2, (b,)))
    ea = expand_semilinear(SemilinearSet(2, (a,)), 6)
    eb_ = expand_semilinear(SemilinearSet(2, (b,)), 6)
    expected = {tuple(x + y for x, y in zip(u, v))
                for u in ea for v in eb_}
    got = expand_semilinear(s, 12)
    assert {v for v in expected if sum(v) <= 6} == {v for v in got if sum(v) <= 6}


def test_star_of_singletons():
    s = sl_union(sl_singleton((1, 0)), sl_singleton((0, 2)))
    st_ = sl_star(s)
    for v in ALL_VECS_6:
        expected = v[1] % 2 == 0
        assert sl_membership(st_, v) == expected, v
    # in dimension 0 every star is {()}
    zero = sl_singleton(())
    assert sl_star(sl_empty(0)) == zero
    assert parikh_semilinear(parse_grammar("S -> S S | eps")) == zero


@settings(max_examples=40, deadline=None)
@given(sl2, sl2)
def test_intersect_matches_membership(a, b):
    inter = sl_intersect(a, b)
    for v in ALL_VECS_6:
        expected = member_oracle(a, v) and member_oracle(b, v)
        assert sl_membership(inter, v) == expected, v
    w = sl_intersection_witness(a, b)
    assert (w is None) == inter.is_empty()
    if w is not None:
        assert sl_membership(a, w) and sl_membership(b, w)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sl2, sl2, sl2)
# one system stacking a block of rows per set ran past 600 s on this
# triple; met one set at a time it takes milliseconds
@example(SemilinearSet(2, (linear_set((0, 0), ((1, 0), (2, 1))),)),
         SemilinearSet(2, (linear_set((2, 0), ((2, 1), (3, 2))),)),
         SemilinearSet(2, (linear_set((3, 0), ((2, 1), (3, 2))),)))
def test_witness_of_three_sets_matches_their_intersection(a, b, c):
    sets = (a, b, c)
    common = [v for v in ALL_VECS_6
              if all(member_oracle(s, v) for s in sets)]
    try:
        w = sl_intersection_witness(*sets)
    except BudgetError:
        return  # undecided: nothing to check
    if w is not None:
        assert all(member_oracle(s, w) for s in sets)
    elif common:
        pytest.fail(f"{common[0]} lies in every set")
    try:
        # the exact reference gets a smaller budget: on a few triples it
        # would spend minutes running out of the full one
        with patch.object(semilinear.diophantine, "NODE_BUDGET", 20_000):
            empty = reduce(sl_intersect, sets).is_empty()
    except BudgetError:
        return
    assert (w is None) == empty


def test_witness_meets_a_shared_prefix_once(monkeypatch):
    # (2, 1) is the one point of a and b, and no component of c holds it,
    # by parity; none is told apart from it by its constant alone, so each
    # is searched.  The three tuples share the prefix (a, b), whose system
    # is solved once
    a = SemilinearSet(2, (linear_set((1, 0), ((1, 1),)),))
    b = SemilinearSet(2, (linear_set((0, 1), ((1, 0),)),))
    c = SemilinearSet(2, (linear_set((2, 0), ((0, 2),)),
                          linear_set((1, 1), ((2, 0),)),
                          linear_set((0, 0), ((2, 0), (0, 2)))))
    systems = []
    solve = semilinear.diophantine.solve_system

    def counted(columns, target):
        systems.append((tuple(columns), target))
        return solve(columns, target)

    monkeypatch.setattr(semilinear.diophantine, "solve_system", counted)
    assert sl_intersection_witness(a, b, c) is None
    assert len(systems) == 4 and len(set(systems)) == 4
    # a prefix that ran out of budget is not searched again
    systems.clear()
    monkeypatch.setattr(semilinear.diophantine, "NODE_BUDGET", 0)
    with pytest.raises(BudgetError):
        sl_intersection_witness(a, b, c)
    assert len(systems) == 1


@settings(max_examples=300, deadline=None)
@given(lin_pairs())
# a's constant exceeds b's in coordinate 0, where b has no period
@example((linear_set((3, 0), ((0, 1),)), linear_set((2, 1), ((0, 1),))))
# equal where b has no period, and a reaches b's constant: not apart
@example((linear_set((2, 0), ((0, 2),)), linear_set((2, 1), ())))
def test_constants_apart_only_for_disjoint_pairs(pair):
    a, b = pair
    apart = semilinear._constants_apart(a, b)
    assert semilinear._constants_apart(b, a) == apart
    if apart:
        sa, sb = (SemilinearSet(a.dim, (x,)) for x in pair)
        box = product(range(9 if a.dim == 2 else 7), repeat=a.dim)
        assert not any(member_oracle(sa, v) and member_oracle(sb, v)
                       for v in box)


def test_witness_searches_every_component_of_a_meet():
    # a and b meet in several components; (6, 5), the least common vector,
    # lies in one past the first
    sets = (SemilinearSet(2, (linear_set((1, 0), ((1, 1), (1, 2))),)),
            SemilinearSet(2, (linear_set((1, 1), ((2, 3), (3, 1))),)),
            SemilinearSet(2, (linear_set((2, 3), ((1, 2), (3, 0))),)))
    assert len(semilinear._lin_meet(tuple(s.components[0] for s in sets[:2]),
                                    {})) > 1
    assert sl_intersection_witness(*sets) == (6, 5)
    exact = reduce(sl_intersect, sets)
    assert min(c.constant for c in exact.components) == (6, 5)


def test_intersection_witness_of_one_set_and_of_none():
    with pytest.raises(InputError):
        sl_intersection_witness()
    with pytest.raises(InputError):
        sl_intersection_witness(sl_singleton((1,)), sl_singleton((1, 0)))
    # the lightest constant, not the lexicographically least
    s = SemilinearSet(2, (linear_set((0, 3)), linear_set((1, 1), ((1, 0),))))
    assert sl_intersection_witness(s) == (1, 1)
    assert sl_intersection_witness(SemilinearSet(2, ())) is None


def test_parikh_semilinear_on_corpus_sound_and_tight():
    # the named grammars, and linear ones, whose blocks Newton solves in at
    # most two steps: their differentials and seeded random linear grammars
    linear = [differential_grammar(g) for g in CORE_CORPUS] + \
        random_corpus(12, seed=20261019, max_vars=4, make=random_linear_grammar)
    for g in CORE_CORPUS + linear:
        t = trim(g)
        s = parikh_semilinear(g)
        enumerated = parikh_vectors(g, 8)
        for v in enumerated:
            assert sl_membership(s, v), (g.start, v)
        # conversely, small vectors of the image must be Parikh vectors of
        # real words (here: all corpus languages contain every length they
        # touch only via enumeration, so compare against length-8 closure)
        for v in expand_semilinear(s, 8):
            if sum(v) <= 8:
                assert v in enumerated, (g.start, v)


def test_a_linear_block_is_solved_at_most_twice(monkeypatch):
    """On a block whose monomials hold at most one of its variables, the
    first Newton step already gives the least solution; one more step, and
    no test for change, is all that runs."""
    solves = Counter()
    solve = semilinear._solve_block

    def counted(block, matrix, rhs, dim):
        solves[tuple(block)] += 1
        return solve(block, matrix, rhs, dim)

    monkeypatch.setattr(semilinear, "_solve_block", counted)
    for a in encode_to_acceptors(*family_instance(3)):
        g = trim(acceptor_to_cfg(a))
        for cached in lru_caches().values():
            cached.cache_clear()
        solves.clear()
        parikh_semilinear(g)
        assert max(map(len, solves)) >= 3
        for block, calls in solves.items():
            assert all(sum(s in block for s in rhs) <= 1
                       for lhs, rhs in g.productions if lhs in block)
            assert calls <= min(2, len(block)), (block, calls)


def unit(i, dim=5):
    return tuple(int(j == i) for j in range(dim))


def test_spokes_are_pivoted_before_the_hub(monkeypatch):
    """A hub with edges to and from four spokes, named to sort first:
    eliminating it first would fill in all twelve spoke pairs.  Each
    variable has its own loop, so the stars taken show the pivot order."""
    names = "abcde"
    matrix = {(x, x): sl_singleton(unit(i)) for i, x in enumerate(names)}
    for x in names[1:]:
        matrix[("a", x)] = sl_singleton(unit(0))
        matrix[(x, "a")] = sl_singleton(unit(names.index(x)))
    rhs = {x: sl_singleton((0,) * 5) for x in names}
    pivots = []

    def star(s):
        if s.components:
            pivots.append(names[s.components[0].constant.index(1)])
        return sl_star(s)

    monkeypatch.setattr(semilinear, "sl_star", star)
    values = semilinear._solve_block(list(names), matrix, rhs, 5)
    monkeypatch.undo()
    # with one spoke left, hub and spoke tie, and the name decides
    assert pivots == ["b", "c", "d", "a", "e"]
    reference = reference_solve_block(list(names), matrix, rhs, 5)
    for x in names:
        assert expand_semilinear(values[x], 6) == \
            expand_semilinear(reference[x], 6), x


def test_the_family_hub_blocks_fill_in_little(monkeypatch):
    """The second acceptor of the k = 3 family has 5-variable hub blocks;
    solving them in name order took 706 Minkowski products."""
    inside, products = [False], [0]
    solve, minkowski = semilinear._solve_block, semilinear.sl_minkowski

    def counted_minkowski(a, b):
        products[0] += inside[0]
        return minkowski(a, b)

    def counted_solve(block, matrix, rhs, dim):
        inside[0] = True
        try:
            return solve(block, matrix, rhs, dim)
        finally:
            inside[0] = False

    monkeypatch.setattr(semilinear, "_solve_block", counted_solve)
    monkeypatch.setattr(semilinear, "sl_minkowski", counted_minkowski)
    g = trim(acceptor_to_cfg(encode_to_acceptors(*family_instance(3))[1]))
    for cached in lru_caches().values():
        cached.cache_clear()
    parikh_semilinear(g)
    assert 0 < products[0] <= 400, products


def per_variable_images(g):
    for cached in lru_caches().values():
        cached.cache_clear()
    return dict(semilinear._newton(trim(g))[0])


def test_an_acyclic_block_takes_no_newton_step(monkeypatch):
    """A variable absent from its own monomials has kappa_0 = F(0) as its
    value: the step it no longer takes, run on the values _newton returns,
    gives each such value back.  A grammar without recursion solves no
    block at all."""
    ab = alphabet(["a", "b", "c"])
    a, b, c = RSym("a"), RSym("b"), RSym("c")
    regexes = [rconcat(a, runion(b, c)), rconcat(RStar(runion(a, b)), c),
               runion(rconcat(a, RStar(rconcat(b, c))), RStar(a))]
    finite = parse_grammar("start S\nS -> A B\nA -> a\nB -> b\n")
    solves = []
    solve = semilinear._solve_block

    def counted(*args):
        solves.append(args[0])
        return solve(*args)

    monkeypatch.setattr(semilinear, "_solve_block", counted)
    acyclic = 0
    for g in [regex_to_cfg(r, ab) for r in regexes] + [finite] + full_corpus():
        t = trim(g)
        mons = semilinear._monomials(t)
        deps = {x: {y for _, occs in mons[x] for y in occs} for x in mons}
        blocks = semilinear._scc_blocks(deps)
        singles = [x for x, *rest in blocks if not rest and x not in deps[x]]
        solves.clear()
        values = per_variable_images(t)
        if len(singles) == len(blocks):
            assert not solves, g.start
        for x in singles:
            rhs = semilinear._eval_block([x], mons, values, len(t.terminals))
            assert rhs[x] == values[x], x
            stepped = solve([x], {}, rhs, len(t.terminals))[x]
            assert prune(sl_union(stepped, values[x])) == values[x], x
            acyclic += 1
    assert acyclic >= 20


def test_the_pivot_order_keeps_the_least_solution(monkeypatch):
    """Every pivot order gives the least solution of a block: the images
    of every variable agree with name-order elimination."""
    grammars = [differential_grammar(g) for g in CORE_CORPUS] + \
        random_corpus(12, seed=20261020, max_vars=5,
                      make=random_linear_grammar) + \
        [acceptor_to_cfg(a) for k in (1, 2, 3)
         for a in encode_to_acceptors(*family_instance(k))]
    for n, g in enumerate(grammars):
        pivoted = per_variable_images(g)
        with monkeypatch.context() as m:
            m.setattr(semilinear, "_solve_block", reference_solve_block)
            named = per_variable_images(g)
        assert pivoted.keys() == named.keys()
        for x in pivoted:
            assert expand_semilinear(pivoted[x], 6) == \
                expand_semilinear(named[x], 6), (n, x)


def test_witness_for_vector_fixtures():
    assert witness_for_vector(trim(G_EX), (1, 0)) == ("a",)
    w = witness_for_vector(trim(G_EX), (2, 1))
    assert w is not None and sorted(w) == ["a", "a", "b"]
    assert cyk_membership(G_EX, w)
    assert witness_for_vector(trim(G_EX), (0, 1)) is None


def test_packed_witness_search_matches_the_tuple_reference():
    """Packing the vectors into ints keeps every first-found word: on each
    component constant, on small random vectors, and on vectors with an
    entry of 256, one past the widest 8-bit field."""
    rng = random.Random(26)
    found_large = 0
    for g in corpus_and_acceptors():
        t = trim(g)
        d = len(t.terminals)
        vectors = [c.constant for c in parikh_semilinear(t).components]
        vectors += [tuple(rng.randint(0, 3) for _ in range(d))
                    for _ in range(8)]
        large = []
        for i in range(d):
            v = [0] * d
            v[i] = 256
            large.append(tuple(v))
            v[(i + 1) % d] += 1
            large.append(tuple(v))
        for v in vectors + large:
            w = witness_for_vector(t, v)
            assert w == reference_witness_for_vector(t, v), (g.start, v)
            found_large += v in large and w is not None
        for v in vectors[:2]:
            assert witness_for_vector(t, (-1,) + v[1:]) is None
            assert witness_for_vector(t, v[:-1] + (v[-1] - 300,)) is None
    assert found_large >= 5


def test_witness_search_lists_each_join_once_per_pass():
    """Grammar #20 at (1, 256) joins tens of thousands of rows: listing z's
    pairs once per row of y, not once per pass, takes about 0.4 s.  The
    test above checks the word against the reference.  CYK on the word,
    257 letters long, took 7 s when the engine re-indexed its right
    operand on every join."""
    t = trim(corpus_and_acceptors()[20])
    with Budget(0.2):
        w = witness_for_vector(t, (1, 256))
    with Budget(2):
        assert cyk_membership(t, w)
    assert parikh_of_word(w, t.terminals) == (1, 256)


def test_parikh_image_witnesses_are_members():
    for g in CORE_CORPUS:
        t = trim(g)
        image = parikh_image(g)
        for comp, w in image.components:
            assert cyk_membership(t, w)
            assert parikh_of_word(w, t.terminals) == comp.constant


# Pruned sets of up to six components; unions of two of them share
# components, subsume and merge across the two often enough.
pruned2 = st.builds(lambda comps: prune(SemilinearSet(2, tuple(comps))),
                    st.lists(lin2, max_size=6))


def _forbidden(*args):
    raise AssertionError("_prune_pairs called")


def _witnessed(s: SemilinearSet) -> WitnessedSemilinear:
    return WitnessedSemilinear(s.dim, tuple((c, (f"w{i}",))
                                            for i, c in enumerate(s.components)))


@settings(max_examples=200, deadline=None)
@given(pruned2, vec2, st.booleans())
def test_minkowski_with_a_point_is_a_translate(s, t, point_first):
    point = SemilinearSet(2, (linear_set(t),))
    wpoint = WitnessedSemilinear(2, ((linear_set(t), ("p",)),))
    operands, woperands = (point, s), (wpoint, _witnessed(s))
    if not point_first:
        operands, woperands = operands[::-1], woperands[::-1]
    expected = reference_prune_pairs(reference_minkowski_pairs(*woperands))
    with patch.object(semilinear, "_prune_pairs", _forbidden):
        assert wit_minkowski(*woperands).components == tuple(expected)
    assert sl_minkowski.__wrapped__(*operands).components == \
        SemilinearSet(2, tuple(c for c, _ in expected)).components


@settings(max_examples=300, deadline=None)
@given(pruned2, pruned2)
# the first and the last merge into the whole quadrant, which then
# contains the second
@example(prune(SemilinearSet(2, (linear_set((0, 0), ((0, 1),)),
                                 linear_set((0, 1), ((1, 0),))))),
         prune(SemilinearSet(2, (linear_set((1, 0), ((1, 0), (0, 1))),))))
def test_prune_of_a_union_matches_the_reference(a, b):
    union = sl_union(a, b)
    got = prune.__wrapped__(union)
    expected = reference_prune_pairs([(c, None)
                                      for c in a.components + b.components])
    assert got.components == \
        SemilinearSet(2, tuple(c for c, _ in expected)).components
    # a semilinear set is its value alone, with no hints beside it
    for s in (a, b, union, got):
        assert set(vars(s)) == {"dim", "components"}


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
# 0 and e1 + N e1 merge into N e1; with e2 + N{e1, e2} into N{e1, e2}, which
# then contains the kept 2 e1 + N e2; with e3 + N{e1, e2, e3} into the
# whole octant
CASCADE = [linear_set((0, 0, 0)), linear_set(E1, (E1,)),
           linear_set(E2, (E1, E2)), linear_set(E3, (E1, E2, E3)),
           linear_set((2, 0, 0), (E2,))]


@st.composite
def lin3_lists(draw):
    """Up to ten 3-D linear sets.  A new set is often an earlier one
    shifted by some d with d as an extra period, so that merges chain, or a
    subset of an earlier one, so that subsumptions occur; periods lie along
    axes half the time."""
    vec = st.tuples(*[st.integers(0, 2)] * 3)
    axis = st.sampled_from((E1, E2, E3, (2, 0, 0), (0, 1, 1)))
    comps: list = []
    for _ in range(draw(st.integers(0, 10))):
        mode = draw(st.sampled_from(("free", "shifted", "inside"))
                    if comps else st.just("free"))
        if mode == "free":
            comps.append(linear_set(draw(vec),
                                    draw(st.lists(axis | vec, max_size=2))))
            continue
        base = draw(st.sampled_from(comps))
        if mode == "shifted":
            d = draw(vec)
            comps.append(linear_set(tuple(map(add, base.constant, d)),
                                    [*base.periods, d]))
        else:
            point = base.constant
            for p in base.periods:
                k = draw(st.integers(0, 2))
                point = tuple(x + k * y for x, y in zip(point, p))
            own = draw(st.lists(st.sampled_from(base.periods), max_size=2)) \
                if base.periods else []
            comps.append(linear_set(point, own))
    return comps


@settings(max_examples=300, deadline=None)
@given(lin3_lists())
@example(CASCADE)
def test_prune_matches_the_restarting_reference(comps):
    """Merging without a restart keeps what the reference keeps, payloads
    and order included: the first payload of a component, and a's payload
    for a merge of a and b."""
    pairs = [(c, i) for i, c in enumerate(comps)]
    expected = reference_prune_pairs(pairs)
    assert _prune_pairs(pairs) == expected
    got = prune.__wrapped__(SemilinearSet(3, tuple(comps)))
    assert got.components == \
        SemilinearSet(3, tuple(c for c, _ in expected)).components


def test_a_cascade_of_merges_drops_what_a_merge_subsumes():
    merges = []

    def merge(x, y):
        m = _merge_pair(x, y)
        if m is not None:
            merges.append(m)
        return m

    with patch.object(semilinear, "_merge_pair", merge):
        got = _prune_pairs([(c, None) for c in CASCADE])
    assert got == [(linear_set((0, 0, 0), (E1, E2, E3)), None)]
    assert len(merges) == 3
    # the second merge subsumes the last input, which nothing else does
    assert _lin_subsumed(CASCADE[-1], merges[1])
    assert not any(_lin_subsumed(CASCADE[-1], c) for c in CASCADE[:-1])


@settings(max_examples=300, deadline=None)
@given(lin3_lists())
@example(CASCADE)
# (0,0,0) fails with every later set, then (0,0,1) merges with the last; a
# scan from the start would try the pairs of (0,0,0) again
@example([linear_set((0, 0, 1)), linear_set((0, 0, 3), ((0, 0, 2),)),
          linear_set((0, 0, 0)), linear_set((0, 1, 0))])
def test_prune_tests_no_merge_pair_twice(comps):
    tested = []

    def merge(x, y):
        tested.append((x, y))
        return _merge_pair(x, y)

    with patch.object(semilinear, "_merge_pair", merge):
        _prune_pairs([(c, None) for c in comps])
    assert len(tested) == len(set(tested))
    # the merge scan pairs a component only with later ones in the key order
    assert all(_lin_key(x) < _lin_key(y) for x, y in tested)


@settings(max_examples=200, deadline=None)
@given(st.builds(lambda comps: SemilinearSet(2, tuple(comps)),
                 st.lists(lin2, max_size=6)))
def test_prune_of_a_pruned_set_is_that_set(s):
    assert prune(prune(s)) is prune(prune(s))
    p = prune(s)
    assert prune.__wrapped__(p) == p
    # the lemma of _prune_pairs: no ordered pair would subsume or merge
    for x in p.components:
        for y in p.components:
            assert x == y or not (_lin_subsumed(x, y) or _merge_pair(x, y))
