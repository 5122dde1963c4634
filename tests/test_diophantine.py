import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parikhbound import BudgetError, linear_set, sl_intersection_witness
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


def test_solve_system_node_budget():
    # 3x - 3y = 2 has rational solutions and no integer ones; a completed
    # search proves it, a search cut short raises
    columns, target = [(3,), (-3,)], (2,)
    particular, homogeneous = solve_system(columns, target, node_budget=50)
    assert particular == [] and homogeneous == [(1, 1)]
    with pytest.raises(BudgetError):
        solve_system(columns, target, node_budget=5)


def test_residue_pair_is_disjoint_and_fast():
    a = SemilinearSet(1, (linear_set((1,), ((3,),)),))   # 3n + 1
    b = SemilinearSet(1, (linear_set((3,), ((3,),)),))   # 3m + 3
    start = time.perf_counter()
    assert sl_intersection_witness(a, b) is None
    assert time.perf_counter() - start < 1.0
