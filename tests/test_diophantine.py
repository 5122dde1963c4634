import time
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_solve_nonneg
from parikhbound import (BudgetError, InputError, diophantine, linear_set,
                         sl_intersection_witness)
from parikhbound.diophantine import (minimal_homogeneous, solve_nonneg,
                                     solve_system)
from parikhbound.semilinear import SemilinearSet


def apply_cols(columns, coeffs):
    dim = len(columns[0]) if columns else 0
    out = [0] * dim
    for c, col in zip(coeffs, columns):
        for i, x in enumerate(col):
            out[i] += c * x
    return tuple(out)


def brute_homogeneous(columns, bound=6):
    """All nonzero nonnegative solutions of A x = 0 with entries <= bound."""
    sols = set()
    for coeffs in product(range(bound + 1), repeat=len(columns)):
        if any(coeffs) and not any(apply_cols(columns, coeffs)):
            sols.add(coeffs)
    return sols


def is_minimal(sol, sols):
    return not any(s != sol and all(x <= y for x, y in zip(s, sol))
                   for s in sols)


def test_minimal_homogeneous_small_fixture():
    # x1 - x2 = 0 over columns (1,), (-1,): minimal solution (1, 1)
    assert minimal_homogeneous([(1,), (-1,)]) == [(1, 1)]


def test_minimal_homogeneous_matches_brute_force():
    systems = [
        [(1, 0), (0, 1), (-1, -1)],
        [(2, -1), (-1, 2), (-1, -1)],
        [(1, -1), (-2, 2)],
        [(3,), (-2,)],
    ]
    for columns in systems:
        got = set(map(tuple, minimal_homogeneous(columns)))
        sols = brute_homogeneous(columns)
        expected = {s for s in sols if is_minimal(s, sols)}
        # every brute-force minimal solution within the bound must be found,
        # and everything found must be a minimal solution
        assert expected <= got
        for s in got:
            assert not any(apply_cols(columns, s))
            if max(s) <= 6:
                assert s in expected


def test_solve_system_shape():
    particulars, homogeneous = solve_system([(1, 0), (0, 1)], (2, 3))
    assert (2, 3) in particulars
    for h in homogeneous:
        assert not any(apply_cols([(1, 0), (0, 1)], h))


def test_solve_nonneg_fixture():
    sol = solve_nonneg([(1, 1), (1, 0)], (3, 2))
    assert sol is not None and apply_cols([(1, 1), (1, 0)], sol) == (3, 2)
    assert solve_nonneg([(2, 0), (0, 2)], (1, 1)) is None
    assert solve_nonneg([], (0, 0)) == ()
    assert solve_nonneg([], (1, 0)) is None


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=1, max_size=4),
       st.tuples(st.integers(0, 6), st.integers(0, 6)))
def test_solve_nonneg_matches_brute_force(columns, target):
    got = solve_nonneg(columns, target)
    brute = any(apply_cols(columns, coeffs) == target
                for coeffs in product(range(7), repeat=len(columns)))
    if got is None:
        assert not brute
    else:
        assert apply_cols(columns, got) == target


# entries at 2^k - 1 and 2^k change the packed field width
ENTRY = st.sampled_from((0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32)) | \
    st.integers(0, 40)


@st.composite
def natural_systems(draw):
    """Columns and a target in 1 to 4 dimensions, target entries 0..40.
    Columns are small, zero, or drawn like the target, so some exceed it;
    half the targets are natural combinations of the columns, capped at
    40, so that solutions are common."""
    dim = draw(st.integers(1, 4))
    small = st.tuples(*[st.integers(0, 3)] * dim)
    columns = draw(st.lists(small | st.tuples(*[ENTRY] * dim)
                            | st.just((0,) * dim), max_size=6))
    if columns and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(0, 5), min_size=len(columns),
                               max_size=len(columns)))
        target = tuple(min(40, sum(k * col[i]
                                   for k, col in zip(coeffs, columns)))
                       for i in range(dim))
    else:
        target = draw(st.tuples(*[ENTRY] * dim))
    return columns, target


@settings(max_examples=500, deadline=None)
@given(natural_systems())
@example(([(1,), (2,)], (7,)))        # 3 value bits
@example(([(1,), (3,)], (8,)))        # 4 value bits
@example(([(16, 1), (15, 0)], (31, 1)))
@example(([(0, 0), (41, 0), (1, 1), (0, 2)], (3, 5)))
@example(([(5, 0), (0, 5)], (40, 0)))
def test_solve_nonneg_matches_reference_dfs(system):
    """The packed search returns the tuple of the plain depth-first search
    on tuples."""
    columns, target = system
    got = solve_nonneg(columns, target)
    assert got == reference_solve_nonneg(columns, target)
    if got is not None:
        assert len(got) == len(columns)
        assert tuple(sum(k * col[i] for k, col in zip(got, columns))
                     for i in range(len(target))) == target


@settings(max_examples=100, deadline=None)
@given(natural_systems(), st.data())
def test_solve_nonneg_raises_on_a_negative_entry(system, data):
    columns, target = system
    vectors = [list(target)] + [list(col) for col in columns]
    vector = data.draw(st.sampled_from(vectors))
    vector[data.draw(st.integers(0, len(target) - 1))] = \
        -data.draw(st.integers(1, 40))
    with pytest.raises(InputError):
        solve_nonneg([tuple(v) for v in vectors[1:]], tuple(vectors[0]))


def test_solve_nonneg_rejects_negative_entries():
    for columns, target in (([(1, -1)], (1, 0)), ([(2, 0)], (-1, 0)),
                            ([(-1,)], (0,)), ([], (-3,))):
        with pytest.raises(InputError):
            solve_nonneg(columns, target)


def test_solve_system_node_budget(monkeypatch):
    # 3x - 3y = 2 has rational solutions and no integer ones; a completed
    # search proves it, a search cut short raises
    columns, target = [(3,), (-3,)], (2,)
    monkeypatch.setattr(diophantine, "NODE_BUDGET", 50)
    particular, homogeneous = solve_system(columns, target)
    assert particular == [] and homogeneous == [(1, 1)]
    monkeypatch.setattr(diophantine, "NODE_BUDGET", 5)
    with pytest.raises(BudgetError):
        solve_system(columns, target)


def test_residue_pair_is_disjoint_and_fast():
    a = SemilinearSet(1, (linear_set((1,), ((3,),)),))   # 3n + 1
    b = SemilinearSet(1, (linear_set((3,), ((3,),)),))   # 3m + 3
    start = time.perf_counter()
    assert sl_intersection_witness(a, b) is None
    assert time.perf_counter() - start < 1.0
