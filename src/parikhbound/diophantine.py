"""Nonnegative integer solutions of linear Diophantine systems.

Columns are integer vectors; a solution x (one entry per column) satisfies
sum_j x_j * col_j = target.  The complete solver follows Contejean and Devie's
breadth-first procedure for computing the minimal solutions of A x = 0:
candidates grow one unit at a time, a candidate x is extended by e_j only when
<A x, A e_j> < 0, and candidates dominating an already-found minimal solution
are pruned.  Inhomogeneous systems are reduced to homogeneous ones by
appending -target as an extra column whose coefficient is forced to one.
"""

from __future__ import annotations

from .errors import BudgetError

Vec = tuple[int, ...]


def _add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def _dot(u: Vec, v: Vec) -> int:
    return sum(a * b for a, b in zip(u, v))


def _geq(u: Vec, v: Vec) -> bool:
    return all(a >= b for a, b in zip(u, v))


def minimal_homogeneous(columns: list[Vec], node_budget: int = 300_000) -> list[Vec]:
    """All minimal nonzero solutions of sum_j x_j * col_j = 0 over the naturals."""
    q = len(columns)
    if q == 0:
        return []
    dim = len(columns[0])
    zero_val = (0,) * dim
    minimals: list[Vec] = []
    frontier: dict[Vec, Vec] = {}
    for j in range(q):
        x = tuple(1 if i == j else 0 for i in range(q))
        frontier[x] = columns[j]
    nodes = 0
    while frontier:
        next_frontier: dict[Vec, Vec] = {}
        for x, val in frontier.items():
            nodes += 1
            if nodes > node_budget:
                raise BudgetError("Diophantine search budget exhausted")
            if val == zero_val:
                if not any(_geq(x, m) and x != m for m in minimals):
                    minimals.append(x)
                continue
            for j in range(q):
                if _dot(val, columns[j]) < 0:
                    y = tuple(x[i] + (1 if i == j else 0) for i in range(q))
                    if y in next_frontier:
                        continue
                    if any(_geq(y, m) for m in minimals):
                        continue
                    next_frontier[y] = _add(val, columns[j])
        frontier = next_frontier
    # a later-found equal-weight solution can make an earlier one non-minimal
    return [m for m in minimals
            if not any(_geq(m, m2) and m != m2 for m2 in minimals)]


def solve_system(columns: list[Vec], target: Vec, node_budget: int = 300_000
                 ) -> tuple[list[Vec], list[Vec]]:
    """Minimal particular solutions and minimal homogeneous solutions of
    sum_j x_j col_j = target.  Every solution is one particular solution plus a
    natural combination of homogeneous ones."""
    extended = list(columns) + [tuple(-t for t in target)]
    particular: list[Vec] = []
    homogeneous: list[Vec] = []
    for m in minimal_homogeneous(extended, node_budget):
        if m[-1] == 0:
            if any(m[:-1]):
                homogeneous.append(m[:-1])
        elif m[-1] == 1:
            particular.append(m[:-1])
    return particular, homogeneous


def _support(v: Vec) -> int:
    m = 0
    for i, x in enumerate(v):
        if x:
            m |= 1 << i
    return m


def solve_nonneg(columns: list[Vec], target: Vec) -> Vec | None:
    """One solution of sum_j x_j col_j = target for NONNEGATIVE columns.

    Depth-first search with failure memoization; complete because columns are
    nonnegative, so coefficients are bounded by the remaining target.  Not
    cached here: callers cache per question (semilinear._in_span).
    """
    q = len(columns)
    if any(t < 0 for t in target):
        return None
    # support of columns j.. ; coordinates of the remainder outside it can
    # never be paid for, so such branches fail immediately
    suffix_support = [0] * (q + 1)
    for j in range(q - 1, -1, -1):
        suffix_support[j] = suffix_support[j + 1] | _support(columns[j])
    dead: set[tuple[int, Vec]] = set()

    def rec(j: int, rest: Vec) -> tuple[int, ...] | None:
        if not any(rest):
            return (0,) * (q - j)
        if j == q or _support(rest) & ~suffix_support[j]:
            return None
        if (j, rest) in dead:
            return None
        col = columns[j]
        bound = min((r // c for r, c in zip(rest, col) if c > 0), default=None)
        if bound is None:  # zero column contributes nothing
            tail = rec(j + 1, rest)
            return None if tail is None else (0,) + tail
        for k in range(bound + 1):
            reduced = tuple(r - k * c for r, c in zip(rest, col))
            tail = rec(j + 1, reduced)
            if tail is not None:
                return (k,) + tail
        dead.add((j, rest))
        return None

    return rec(0, tuple(target))
