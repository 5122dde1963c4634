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

from itertools import chain, count
from operator import le, lshift

from .errors import BudgetError, InputError

Vec = tuple[int, ...]

# Node budget of each minimal-solution search.  A completed search finds the
# same solutions under any budget, so a smaller first try would only add
# work when it runs out.
NODE_BUDGET = 300_000


def _add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def _dot(u: Vec, v: Vec) -> int:
    return sum(a * b for a, b in zip(u, v))


def _geq(u: Vec, v: Vec) -> bool:
    return all(a >= b for a, b in zip(u, v))


def minimal_homogeneous(columns: list[Vec]) -> list[Vec]:
    """All minimal nonzero solutions of sum_j x_j * col_j = 0 over the
    naturals; BudgetError after NODE_BUDGET nodes."""
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
    nodes, budget = 0, NODE_BUDGET
    while frontier:
        next_frontier: dict[Vec, Vec] = {}
        for x, val in frontier.items():
            nodes += 1
            if nodes > budget:
                raise BudgetError("Diophantine search budget exhausted")
            if val == zero_val:
                # frontiers go up in weight, so a distinct minimal solution
                # that x dominates was found at a lighter level
                if not any(_geq(x, m) for m in minimals):
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
    return minimals


def solve_system(columns: list[Vec], target: Vec) -> tuple[list[Vec], list[Vec]]:
    """Minimal particular solutions and minimal homogeneous solutions of
    sum_j x_j col_j = target.  Every solution is one particular solution plus a
    natural combination of homogeneous ones."""
    extended = list(columns) + [tuple(-t for t in target)]
    particular: list[Vec] = []
    homogeneous: list[Vec] = []
    for m in minimal_homogeneous(extended):
        if m[-1] == 0:
            if any(m[:-1]):
                homogeneous.append(m[:-1])
        elif m[-1] == 1:
            particular.append(m[:-1])
    return particular, homogeneous


def solve_nonneg(columns: list[Vec], target: Vec) -> Vec | None:
    """One solution of sum_j x_j col_j = target over natural vectors, or
    None; InputError for a negative entry.

    Depth-first search over the columns in order, each coefficient from 0
    up, with failure memoization; complete because the columns are natural,
    so every coefficient is bounded by the target.  Not cached here: callers
    cache per question (semilinear._in_span).

    Each vector is packed into one int, a field of `width` bits per
    coordinate.  The remainder keeps the top bit of every field set as a
    guard: the target fits below it, and a column no larger than the target
    never borrows across a field, so subtracting it clears a guard exactly
    when the remainder goes negative there.  A column larger than the target
    somewhere, or zero, can only take 0 and is left out of the search; so is
    a branch whose remainder is nonzero in a field no column left can pay.
    """
    if min(chain(target, *columns), default=0) < 0:
        raise InputError("solve_nonneg takes natural vectors")
    q = len(columns)
    if not any(target):
        return (0,) * q
    width = max(target).bit_length() + 1
    shifts = range(0, width * len(target), width)
    ones = ((1 << width * len(target)) - 1) // ((1 << width) - 1)
    guards = ones << (width - 1)
    live = [j for j, col in enumerate(columns)
            if any(col) and all(map(le, col, target))]
    packed = [sum(map(lshift, columns[j], shifts)) for j in live]
    n = len(live)
    # suffix[k]: the guard bits, and every bit of the fields in which some
    # column k.. is nonzero; suffix[n], the guards alone, fails every
    # nonzero remainder
    suffix = [guards] * (n + 1)
    seen = 0
    for k in range(n - 1, -1, -1):
        seen |= packed[k]
        # adding 2^(width-1) - 1 to a field reaches its top bit iff it is
        # nonzero, and never carries out of it
        top = (seen + guards - ones) & guards
        suffix[k] = guards | (top - (top >> (width - 1)))
    dead: set[tuple[int, int]] = set()

    def rec(k: int, rest: int) -> tuple[int, ...] | None:
        if rest == guards:
            return (0,) * (n - k)
        if rest & ~suffix[k] or (k, rest) in dead:
            return None
        key, col = (k, rest), packed[k]
        for x in count():
            tail = rec(k + 1, rest)
            if tail is not None:
                return (x,) + tail
            rest -= col
            if rest & guards != guards:
                break
        dead.add(key)
        return None

    found = rec(0, guards | sum(map(lshift, target, shifts)))
    if found is None:
        return None
    out = [0] * q
    for j, x in zip(live, found):
        out[j] = x
    return tuple(out)
