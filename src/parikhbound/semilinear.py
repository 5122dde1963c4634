"""Semilinear sets, their algebra, and Parikh images of context-free grammars.

The Parikh image of a grammar is computed by Newton iteration over the
semiring of semilinear sets (union as addition, Minkowski sum as product):
the iteration kappa_0 = F(0), kappa_{i+1} = DF*|kappa_i (F(kappa_i)) reaches
the Parikh image of the least fixpoint after at most |variables| steps, and
every intermediate component is a subset of the Parikh image, so component
constants always have witness words in the language.
"""

from __future__ import annotations

import re
from bisect import bisect
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache, reduce, wraps
from itertools import product
from operator import add, attrgetter, ge, itemgetter, or_, sub

from . import diophantine
from .errors import BudgetError, InputError, SoundnessError
from .grammar import Cfg, to_cnf, trim
from .symbols import Word

Vec = tuple[int, ...]


def _support(v: Vec) -> int:
    """The mask of v's nonzero coordinates."""
    m = 0
    for i, x in enumerate(v):
        if x:
            m |= 1 << i
    return m


class _Gens:
    """A period set interned by _gens: reduced periods, their support mask,
    and ``off``, which maps a vector to its coordinates outside the mask
    (all of them when there is no period), so that two vectors are compared
    there without building a mask.  It hashes by identity, so caches keyed
    on it hash no tuples; after an eviction two of them may stand for one
    period set, and such a cache then misses but never answers wrongly."""

    __slots__ = ("periods", "mask", "off")

    def __init__(self, periods: tuple[Vec, ...]):
        self.periods = periods
        self.mask = reduce(or_, map(_support, periods), 0)
        if not periods:
            self.off = tuple
        else:
            off = [i for i in range(len(periods[0])) if not self.mask >> i & 1]
            self.off = itemgetter(*off) if off else itemgetter(slice(0))


@lru_cache(maxsize=1 << 14)
def _gens(cleaned: tuple[Vec, ...]) -> _Gens:
    """The interned period set of sorted, distinct, nonzero periods.
    Periods that are natural combinations of the remaining ones are dropped;
    the generated set is unchanged.  Heaviest periods are tried first so
    composites are expressed through the small generators."""
    if any(e < 0 for p in cleaned for e in p):
        raise InputError("linear sets live in the nonnegative orthant")
    kept = list(cleaned)
    if len(kept) > 1:
        for p in sorted(cleaned, key=sum, reverse=True):
            rest = [q for q in kept if q != p]
            if diophantine.solve_nonneg(rest, p) is not None:
                kept = rest
    return _Gens(tuple(kept))


@lru_cache(maxsize=1 << 14)
def _join(ga: _Gens, gb: _Gens) -> _Gens:
    """The interned period set of the union of two period sets."""
    return _gens(tuple(sorted({*ga.periods, *gb.periods})))


@lru_cache(maxsize=1 << 16)
def _in_span(gens: _Gens, v: Vec) -> bool:
    """v is a natural combination of the periods; most often it is one of
    them.  An entry holds no linear set alive."""
    return v in gens.periods or \
        diophantine.solve_nonneg(gens.periods, v) is not None


@lru_cache(maxsize=1 << 16)
def _spans_within(ga: _Gens, gb: _Gens) -> bool:
    """Every period of ga lies in span_N(gb.periods), so span(ga) is inside
    span(gb)."""
    return not ga.mask & ~gb.mask and all(_in_span(gb, p) for p in ga.periods)


@dataclass(frozen=True)
class LinearSet:
    """constant + natural combinations of periods; periods are nonzero,
    sorted, and none is a natural combination of the others.  Equality and
    hash use constant and periods alone; _gens, the interned period set, lets
    span containment be decided once per pair of period sets."""

    __slots__ = ("constant", "periods", "_gens", "_hash", "_csum", "_pmask",
                 "_zeros", "_sub_sig")
    constant: Vec
    periods: tuple[Vec, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.constant):
            raise InputError("linear sets live in the nonnegative orthant")
        if any(len(p) != self.dim for p in self.periods):
            raise InputError("a period of another dimension than the constant")
        self._set_gens(_gens(tuple(sorted({p for p in self.periods
                                           if any(p)}))),
                       sum(self.constant),
                       ~_support(self.constant) & ((1 << self.dim) - 1))

    def _set_gens(self, gens: _Gens, csum: int, zeros: int):
        """csum: the constant's weight; zeros: its zero coordinates."""
        setattr_ = object.__setattr__
        setattr_(self, "periods", gens.periods)
        setattr_(self, "_gens", gens)
        setattr_(self, "_hash", hash((self.constant, gens.periods)))
        setattr_(self, "_csum", csum)
        setattr_(self, "_pmask", gens.mask)
        setattr_(self, "_zeros", zeros)
        # a subset of this set has its period support, and the zero
        # coordinates of its constant, inside this set's; tested on these
        # bits before any search
        setattr_(self, "_sub_sig", gens.mask | zeros << self.dim)

    def __reduce__(self):
        # frozen slots: rebuild through the constructor
        return (LinearSet, (self.constant, self.periods))

    def __hash__(self):
        return self._hash

    @property
    def dim(self) -> int:
        return len(self.constant)


@dataclass(frozen=True)
class SemilinearSet:
    """A finite union of linear sets, kept sorted and free of repeats."""

    dim: int
    components: tuple[LinearSet, ...]

    def __post_init__(self):
        for c in self.components:
            if c.dim != self.dim:
                raise InputError("mixed dimensions in semilinear set")
        comps = tuple(sorted(set(self.components),
                             key=lambda l: (l.constant, l.periods)))
        object.__setattr__(self, "components", comps)

    def is_empty(self) -> bool:
        return not self.components


@dataclass(frozen=True)
class WitnessedSemilinear:
    """A semilinear set plus, per component, a language word realizing its constant."""

    dim: int
    components: tuple[tuple[LinearSet, Word], ...]

    @property
    def semilinear(self) -> SemilinearSet:
        return SemilinearSet(self.dim, tuple(l for l, _ in self.components))


def linear_set(constant, periods=()) -> LinearSet:
    return LinearSet(tuple(constant), tuple(tuple(p) for p in periods))


def sl_empty(dim: int) -> SemilinearSet:
    return SemilinearSet(dim, ())


def sl_singleton(v: Vec) -> SemilinearSet:
    return SemilinearSet(len(v), (LinearSet(tuple(v), ()),))


def sl_union(*sets: SemilinearSet) -> SemilinearSet:
    """The union, unpruned."""
    dim = sets[0].dim
    comps: list[LinearSet] = []
    for s in sets:
        if s.dim != dim:
            raise InputError("dimension mismatch in union")
        comps.extend(s.components)
    return SemilinearSet(dim, tuple(comps))


def _lin_minkowski(a: LinearSet, b: LinearSet) -> LinearSet:
    """a + b, with the period set joined from the two interned ones; the
    constant is a sum of natural vectors, so nothing needs checking."""
    out = object.__new__(LinearSet)
    object.__setattr__(out, "constant", tuple(map(add, a.constant, b.constant)))
    out._set_gens(_join(a._gens, b._gens), a._csum + b._csum,
                  a._zeros & b._zeros)
    return out


def _is_point(s: SemilinearSet) -> bool:
    return len(s.components) == 1 and not s.components[0].periods


@lru_cache(maxsize=1 << 8)
def sl_minkowski(a: SemilinearSet, b: SemilinearSet) -> SemilinearSet:
    """a + b, pruned.  When one operand is a single vector t the sum is
    prune(other) + t, with no pruning of its own: _prune_pairs commutes with
    translation (see there)."""
    if a.dim != b.dim:
        raise InputError("dimension mismatch in Minkowski sum")
    if _is_point(b):
        a, b = b, a
    if _is_point(a):
        (t,) = a.components
        return SemilinearSet(a.dim, tuple(_lin_minkowski(x, t)
                                          for x in prune(b).components))
    comps = tuple(_lin_minkowski(x, y) for x in a.components for y in b.components)
    return prune(SemilinearSet(a.dim, comps))


def _lin_star(a: LinearSet) -> SemilinearSet:
    """{0} together with c + span(periods + {c}): all sums of >= 1 elements."""
    zero = (0,) * a.dim
    plus = LinearSet(a.constant, a.periods + (a.constant,))
    return SemilinearSet(a.dim, (LinearSet(zero, ()), plus))


def sl_star(s: SemilinearSet) -> SemilinearSet:
    """Finite sums of elements; star distributes over union commutatively."""
    out = sl_singleton((0,) * s.dim)
    for comp in s.components:
        out = sl_minkowski(out, _lin_star(comp))
    return out


# ---------------------------------------------------------------------------
# Membership, pruning, intersection


def lin_membership(l: LinearSet, v: Vec) -> bool:
    rest = tuple(a - b for a, b in zip(v, l.constant))
    if any(r < 0 for r in rest):
        return False
    return not any(rest) or _in_span(l._gens, rest)


def sl_membership(s: SemilinearSet, v) -> bool:
    v = tuple(v)
    if len(v) != s.dim:
        raise InputError("vector dimension mismatch")
    return any(lin_membership(c, v) for c in s.components)


def _lin_subsumed(a: LinearSet, b: LinearSet) -> bool:
    """True only if a is provably a subset of b (sound, not complete).

    a is in b iff span(a.periods) is in span(b.periods), cached per pair of
    period sets, and the gap a.constant - b.constant is in span(b.periods):
    natural and zero off b's period directions, which is tested before a
    search."""
    if a._sub_sig & ~b._sub_sig or a._csum < b._csum or \
       not _spans_within(a._gens, b._gens):
        return False
    gens, ac, bc = b._gens, a.constant, b.constant
    if gens.off(ac) != gens.off(bc) or not all(map(ge, ac, bc)):
        return False
    return ac == bc or _in_span(gens, tuple(map(sub, ac, bc)))


def _merge_pair(a: LinearSet, b: LinearSet) -> LinearSet | None:
    """Exact union of two linear sets as a single one, when possible.

    If b.constant = a.constant + d with d nonzero and span(b.periods) equals
    span(a.periods + {d}), then a | b = a.constant + span(a.periods + {d}):
    elements using d at least once land in b, the rest lie in a."""
    if a._csum >= b._csum or a._pmask & ~b._pmask or \
       not _spans_within(a._gens, b._gens):
        return None  # d must be nonzero; span(a.periods) must fit in b's
    off = b._gens.off
    if off(a.constant) != off(b.constant):
        return None  # d must lie in b's directions
    d = tuple(map(sub, b.constant, a.constant))
    if min(d) < 0:
        return None
    extra = b._pmask & ~a._pmask
    while extra:  # b's directions that a lacks must be d's
        low = extra & -extra
        if not d[low.bit_length() - 1]:
            return None
        extra ^= low
    gens = _merge_search(a._gens, b._gens, d)
    if gens is None:
        return None
    out = object.__new__(LinearSet)
    object.__setattr__(out, "constant", a.constant)
    out._set_gens(gens, a._csum, a._zeros)
    return out


@lru_cache(maxsize=1 << 16)
def _merge_search(ga: _Gens, gb: _Gens, d: Vec) -> _Gens | None:
    """The merge's period set ga + {d}, given span(ga) inside span(gb), if
    d is in span(gb) and gb in span(ga + {d}).  Translates of a pair share
    the entry, which holds no linear set alive."""
    if not _in_span(gb, d):
        return None
    # tested before interning, so a failed merge interns no period set
    merged = (*ga.periods, d)
    if all(q in merged or diophantine.solve_nonneg(merged, q) is not None
           for q in gb.periods):
        return _gens(tuple(sorted(set(merged))))
    return None


def _lin_key(c: LinearSet) -> tuple:
    return (c._csum, c.constant, -len(c.periods), c.periods)


def _prune_key(cw) -> tuple:
    """The scan order of _prune_pairs on (component, payload) pairs."""
    return _lin_key(cw[0])


class _Entry:
    """A component in _prune_pairs: its payload, and whether it has been
    tried as the first of a merge pair against every later component."""

    __slots__ = ("comp", "payload", "scanned", "key")

    def __init__(self, comp: LinearSet, payload):
        self.comp, self.payload = comp, payload
        self.scanned = False
        self.key = _lin_key(comp)


_entry_key = attrgetter("key")


def _prune_pairs(pairs: list) -> list:
    """Pruning core on (LinearSet, payload) pairs: drop components provably
    contained in a kept one and apply exact pairwise merges until stable; a
    merge keeps the payload of the component providing the constant.  The
    result is sorted by _prune_key.

    For subsumption, components are scanned by increasing constant weight; a
    subsumer has a pointwise-smaller constant, so it precedes its subsumees
    unless the constants are equal.  Equal constants come in one run, more
    periods first, and a kept component also drops the earlier ones of its
    run that it contains: periods {(1,0)} span all of {(2,0),(3,0)}.  Then
    the merge scan takes the kept components in order as a, each with the
    later ones as b, and merges the first pair it can.  Bit masks on period
    supports and constant zeros, and constant weights, reject most pairs
    before a call.

    Lemma: for every ordered pair (a, b) of distinct components in the
    result, _lin_subsumed(a, b) and _merge_pair(a, b) both fail.  It is
    proved here for the loop that scans all from the start after each
    merge, which gives the same result (see below).  Its last pass merged
    nothing, so its merge scan tried every pair (a, b) with a before b; with
    b before a, a._csum >= b._csum fails _merge_pair.  Say _lin_subsumed(a,
    b) held.  If the constants differ, b's weight is smaller, so b was kept
    before a was scanned, and a would have been dropped.  If they are equal,
    then either b came first, as before, or a did and b dropped it from
    their run when b was kept.  The same argument with a = b, as
    _lin_subsumed(a, a) holds, shows that no two components of the result
    are equal.

    A merge of a and b into m neither restarts the scans nor rescans: it
    removes a, b and every kept component that m subsumes, inserts m at its
    place in the order, and the merge scan goes on from the first component,
    testing only the pairs not tested yet.  For a component not scanned yet,
    that is every later one.  A scanned one x has met every later component
    there was when it was last scanned, and m is the one made since.  By
    induction over the merges since x's scan: each came before x in the
    order, or the scan would have reached x, so its first component was
    scanned no earlier than x and could pair only with the entry of the
    merge before, or was that entry; either way the merge used it up.  This
    gives what scanning all from the start after each merge gives
    (tests/helpers.reference_prune_pairs):
    - Every test is pure, so a pair of unchanged components that failed
      fails again, in either scan.
    - m is never subsumed.  _lin_subsumed(m, d) implies _lin_subsumed(a, d)
      when the span searches are complete: the constants are equal, a's
      support and periods lie within m's, and span(a.periods) is inside
      span(m.periods), which lies inside span(d.periods).  Since a and d
      were both kept, that test failed.
    - So the subsumption scan from the start keeps every component it kept
      before but a, b and those m subsumes, and keeps m: before m in the
      order, only components of m's constant can be subsumed by m, and m
      drops them from its run; after m, m subsumes exactly those it drops.
    - The merge scan from the start then meets the untested pairs in the
      order this scan tests them, and stops at the same first merge.

    Both tests read only the difference of the two constants and the two
    period sets; the zero bits of _sub_sig only reject pairs whose gap is
    negative anyway.  So the lemma holds for any translate of a result, and
    _prune_pairs commutes with translation: the key order, every test and
    every merge move along with the constants.
    """
    payload: dict[LinearSet, object] = {}
    for l, w in pairs:
        payload.setdefault(l, w)
    kept: list[_Entry] = []  # sorted by key
    for c in sorted(payload, key=_lin_key):
        sig = c._sub_sig  # spares most pairs the call to _lin_subsumed
        if any(not sig & ~d.comp._sub_sig and _lin_subsumed(c, d.comp)
               for d in kept):
            continue
        run = len(kept)
        while run and kept[run - 1].comp.constant == c.constant:
            run -= 1
        kept[run:] = [d for d in kept[run:] if d.comp._sub_sig & ~sig
                      or not _lin_subsumed(d.comp, c)]
        kept.append(_Entry(c, payload[c]))

    i = 0
    while i < len(kept):
        a = kept[i]
        c = a.comp
        # a scanned a has been tried against every later component but the
        # last merge's (see above)
        pool = [merged] if a.scanned else kept[i + 1:]
        # _merge_pair's first rejects, inline: b's greater weight puts it
        # after a, and b zero where a is not makes d negative somewhere.
        # Nor can b share a's period set: the merge needs d in span(b's
        # periods) = span(a's), and then _lin_subsumed(b, a) would hold.
        for b in [b for b in pool if c._csum < b.comp._csum
                  and not b.comp._zeros & ~c._zeros
                  and b.comp._gens is not c._gens]:
            m = _merge_pair(c, b.comp)
            if m is not None:
                break
        else:
            a.scanned = True
            i += 1
            continue
        sig = m._sub_sig
        kept = [d for d in kept if d is not a and d is not b
                and (d.comp._sub_sig & ~sig or not _lin_subsumed(d.comp, m))]
        merged = _Entry(m, a.payload)
        kept.insert(bisect(kept, merged.key, key=_entry_key), merged)
        i = 0
    return [(e.comp, e.payload) for e in kept]


@lru_cache(maxsize=1 << 8)
def prune(s: SemilinearSet) -> SemilinearSet:
    """The same set from no more components (a sound reduction, not a normal
    form; see _prune_pairs).  Memoised: the result depends on the component
    set alone, since _prune_pairs sorts by a total key.  By the lemma of
    _prune_pairs, pruning a pruned set gives an equal set."""
    kept = _prune_pairs([(c, None) for c in s.components])
    return SemilinearSet(s.dim, tuple(c for c, _ in kept))


def wit_singleton(vec, word: Word) -> WitnessedSemilinear:
    """The witnessed Parikh image of the single word `word`."""
    return WitnessedSemilinear(
        len(vec), ((LinearSet(tuple(vec), ()), tuple(word)),))


def wit_minkowski(a: WitnessedSemilinear,
                  b: WitnessedSemilinear) -> WitnessedSemilinear:
    """Minkowski sum with witness words concatenated per component; this is
    the witnessed Parikh image of a language concatenation.  Both operands
    must be pruned, as every witnessed set this module builds is; then a sum
    with a single vector is a translate of a pruned set and needs only the
    sort (see _prune_pairs)."""
    if a.dim != b.dim:
        raise InputError("dimension mismatch in Minkowski sum")
    pairs = [(_lin_minkowski(x, y), wx + wy)
             for x, wx in a.components for y, wy in b.components]
    if any(len(s.components) == 1 and not s.components[0][0].periods
           for s in (a, b)):
        # a translate of the other operand, which is pruned
        return WitnessedSemilinear(a.dim, tuple(sorted(pairs, key=_prune_key)))
    return WitnessedSemilinear(a.dim, tuple(_prune_pairs(pairs)))


def sl_subset_sound(a: SemilinearSet, b: SemilinearSet) -> bool:
    """True only if a is provably a subset of b component-by-component."""
    return all(any(_lin_subsumed(c, d) for d in b.components)
               for c in a.components)


def _lin_point(a: LinearSet, coeffs) -> Vec:
    """a.constant plus coeffs[j] times the j-th period; coefficients past the
    last period are ignored."""
    return tuple(c + sum(k * p[i] for k, p in zip(coeffs, a.periods))
                 for i, c in enumerate(a.constant))


def _pair_system(a: LinearSet, b: LinearSet) -> tuple[list[Vec], Vec]:
    """Columns and target of the system whose natural solutions (x, y) are
    the points a.constant + x.periods = b.constant + y.periods."""
    columns = [tuple(p) for p in a.periods] + \
              [tuple(-x for x in q) for q in b.periods]
    target = tuple(x - y for x, y in zip(b.constant, a.constant))
    return columns, target


# Node budget of each Diophantine search on a pair system.  A completed
# search finds the same solutions under any budget, so a smaller first try
# would only add work when it runs out.
SEARCH_NODES = 300_000


def _constants_apart(a: LinearSet, b: LinearSet) -> bool:
    """a and b are disjoint because, at a coordinate where one of them has
    no nonzero period, every point of it equals its constant there, and the
    other one's constant is larger."""
    for i, (x, y) in enumerate(zip(a.constant, b.constant)):
        if x > y and not b._pmask >> i & 1 or y > x and not a._pmask >> i & 1:
            return True
    return False


def _pair_solutions(a: LinearSet, b: LinearSet) -> tuple[list[Vec], list[Vec]]:
    """Particular and minimal homogeneous solutions of the pair system of a
    and b; the coefficients of a's periods come first.  No solution at all
    for a pair _constants_apart proves disjoint, without a search."""
    if _constants_apart(a, b):
        return [], []
    columns, target = _pair_system(a, b)
    if not columns:
        return ([()] if a.constant == b.constant else []), []
    return diophantine.solve_system(columns, target, SEARCH_NODES)


def _lin_intersect(a: LinearSet, b: LinearSet) -> list[LinearSet]:
    """Exact intersection of two linear sets via minimal Diophantine
    solutions: one component per particular solution, based at its point,
    with a's share of every homogeneous solution as periods (LinearSet
    drops the zero ones)."""
    particular, homogeneous = _pair_solutions(a, b)
    periods = tuple(tuple(map(sub, _lin_point(a, h), a.constant))
                    for h in homogeneous)
    return [LinearSet(_lin_point(a, part), periods) for part in particular]


def sl_intersect(a: SemilinearSet, b: SemilinearSet) -> SemilinearSet:
    """The exact intersection, pruned.  The procedure itself only asks for
    one common vector (sl_intersection_witness); this is the exact API that
    search is tested against."""
    if a.dim != b.dim:
        raise InputError("dimension mismatch in intersection")
    comps: list[LinearSet] = []
    for x in a.components:
        for y in b.components:
            comps.extend(_lin_intersect(x, y))
    return prune(SemilinearSet(a.dim, tuple(comps)))


def _lin_meet(sets: tuple[LinearSet, ...], meets: dict) -> list[LinearSet]:
    """Exact intersection of the linear sets, met one set at a time, so each
    search has one row per coordinate.  meets holds the meet of every tuple
    of two or more sets asked for so far, or None for one whose search ran
    out of budget; such a tuple raises BudgetError again without a search."""
    if len(sets) == 1:
        return list(sets)
    if sets not in meets:
        meets[sets] = None  # stays when a search below raises
        meets[sets] = [m for x in _lin_meet(sets[:-1], meets)
                       for m in _lin_intersect(x, sets[-1])]
    elif meets[sets] is None:
        raise BudgetError("Diophantine search budget exhausted")
    return meets[sets]


def _lin_common_vector(sets: tuple[LinearSet, ...],
                       meets: dict) -> Vec | None:
    """Some vector in every linear set, or None when they are proved
    disjoint; BudgetError when neither is settled.

    In order: a constant of one set that lies in all the others; the least
    point of the last set's pair system with each component of the meet of
    the others (_lin_meet; one system with a block of rows per set outran
    any budget on a 2-D triple this settles in milliseconds).  A completed
    search with no particular solution proves them disjoint."""
    for s in sets:
        if all(t is s or lin_membership(t, s.constant) for t in sets):
            return s.constant
    return min((_lin_point(x, part) for x in _lin_meet(sets[:-1], meets)
                for part in _pair_solutions(x, sets[-1])[0]), default=None)


def sl_intersection_witness(*sets: SemilinearSet) -> Vec | None:
    """Some vector in every set, or None when they are proved disjoint;
    BudgetError when no component tuple yields a vector and some tuple is
    undecided.

    Component tuples, one component of each set, are tried one at a time:
    by the weight of the pointwise maximum of their constants, then by the
    constants, then by the periods, so the vector returned depends on the
    sets alone.  For one set that is its lightest constant."""
    if not sets:
        raise InputError("need at least one set to intersect")
    if any(s.dim != sets[0].dim for s in sets):
        raise InputError("dimension mismatch in intersection")

    def order(combo):
        constants = [c.constant for c in combo]
        top = sum(map(max, zip(*constants)))
        return (top, *constants, *(c.periods for c in combo))

    undecided = False
    meets: dict = {}
    for combo in sorted(product(*(s.components for s in sets)), key=order):
        try:
            v = _lin_common_vector(combo, meets)
        except BudgetError:
            undecided = True
            continue
        if v is not None:
            if not all(sl_membership(s, v) for s in sets):
                raise SoundnessError(f"common vector {v} failed membership")
            return v
    if undecided:
        raise BudgetError("intersection emptiness undecided within budget")
    return None


# ---------------------------------------------------------------------------
# Serialization


def sl_to_text(s: SemilinearSet) -> str:
    if not s.components:
        return "# empty\n"
    lines = []
    for c in s.components:
        const = "(" + ",".join(map(str, c.constant)) + ")"
        if c.periods:
            ps = ",".join("(" + ",".join(map(str, p)) + ")" for p in c.periods)
            lines.append(f"c = {const}; periods = {ps}")
        else:
            lines.append(f"c = {const}; periods =")
    return "\n".join(lines) + "\n"


def sl_from_text(text: str, dim: int | None = None) -> SemilinearSet:
    """The set sl_to_text wrote.  Its dimension is ``dim`` when given, else
    that of the first component; InputError for a component of another
    dimension."""
    comps = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "periods" not in line or not line.startswith("c"):
            raise InputError(f"cannot parse semilinear line: {line!r}")
        const_part, period_part = line.split(";", 1)
        vecs = re.findall(r"\(([0-9,\s]*)\)", const_part)
        if len(vecs) != 1:
            raise InputError(f"bad constant in: {line!r}")
        const = tuple(int(x) for x in vecs[0].split(",") if x.strip())
        periods = [tuple(int(x) for x in grp.split(",") if x.strip())
                   for grp in re.findall(r"\(([0-9,\s]*)\)", period_part)]
        comps.append(LinearSet(const, tuple(periods)))
    if dim is None:
        dim = len(comps[0].constant) if comps else 0
    return SemilinearSet(dim, tuple(comps))


# ---------------------------------------------------------------------------
# Parikh images of grammars


def _monomials(g: Cfg):
    """Per variable: list of (terminal Parikh vector as a singleton set,
    variable occurrence tuple)."""
    dim = len(g.terminals)
    mons: dict[str, list] = {x: [] for x in g.variables}
    for lhs, rhs in g.sorted_productions():
        counts = [0] * dim
        occs = []
        for s in rhs:
            if s in g.variables:
                occs.append(s)
            else:
                counts[g.terminals.index(s)] += 1
        mons[lhs].append((sl_singleton(counts), tuple(occs)))
    return mons


def _eval_monomial(point: SemilinearSet, occs, val: dict[str, SemilinearSet],
                   dim: int) -> SemilinearSet:
    if any(val[y].is_empty() for y in occs):
        return sl_empty(dim)
    out = point
    for y in occs:
        out = sl_minkowski(out, val[y])
    return out


def _eval_block(order, mons, val: dict[str, SemilinearSet],
                dim: int) -> dict[str, SemilinearSet]:
    """F(val) on a block: per variable, the pruned union of its monomials."""
    out = {}
    for x in order:
        parts = [_eval_monomial(p, occs, val, dim) for p, occs in mons[x]]
        parts = [p for p in parts if not p.is_empty()]
        out[x] = prune(sl_union(*parts)) if parts else sl_empty(dim)
    return out


def _scc_blocks(deps: dict) -> list[list]:
    """Strongly connected components of the dependency graph, dependencies
    before dependents.  A variable's block is the set of variables it
    reaches that reach it back; blocks are ordered by reach size, then by
    their least name.  That order is topological: when block A depends on
    another block B, A reaches all that B reaches, and A's variables are not
    reached from B, so A reaches strictly more."""
    reach: dict = {}
    for x in deps:
        seen, stack = {x}, [x]
        while stack:
            for y in deps[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        reach[x] = seen
    blocks = {tuple(sorted(y for y in reach[x] if x in reach[y])) for x in deps}
    return sorted(blocks, key=lambda block: (len(reach[block[0]]), block))


def _solve_block(block, matrix, rhs, dim):
    """Least solution of x = M x + b over the semilinear semiring on the
    variables of one block, by Gaussian elimination with Kleene star on the
    diagonal.

    Each pivot is the remaining variable k of least Markowitz count: the
    number of other remaining i with an entry M[i,k] times that of other
    remaining j with an entry M[k,j], which is the number of products its
    elimination makes.  Ties go to the least name, so the result depends on
    the input alone.  Both counts follow removals and fill-in.  A hub goes
    after its spokes, so its elimination fills in no spoke pairs.

    Any order gives the least solution.  Eliminating x_k substitutes
    x_k = M[k,k]* (sum over j != k of M[k,j] x_j + b_k) into the other
    equations, and in a commutative idempotent semiring with star
    M[k,k]* t is the least solution of x_k = M[k,k] x_k + t for any t.
    Orders differ only in the components that prune keeps."""
    matrix = dict(matrix)
    rhs = dict(rhs)
    eliminated = []
    remaining = sorted(block)
    n_in = dict.fromkeys(remaining, 0)
    n_out = dict.fromkeys(remaining, 0)
    for i, j in matrix:
        if i != j:
            n_out[i] += 1
            n_in[j] += 1
    while remaining:
        k = min(remaining, key=lambda x: n_in[x] * n_out[x])
        remaining.remove(k)
        star_kk = sl_star(matrix.pop((k, k), sl_empty(dim)))
        row = {j: sl_minkowski(star_kk, matrix.pop((k, j)))
               for j in remaining if (k, j) in matrix}
        for j in row:
            n_in[j] -= 1
        bk = sl_minkowski(star_kk, rhs[k])
        eliminated.append((k, row, bk))
        for i in remaining:
            if (i, k) not in matrix:
                continue
            mik = matrix.pop((i, k))
            n_out[i] -= 1
            for j, rv in row.items():
                cur = matrix.get((i, j))
                add = sl_minkowski(mik, rv)
                if cur:
                    matrix[(i, j)] = prune(sl_union(cur, add))
                else:
                    matrix[(i, j)] = add
                    if i != j:
                        n_out[i] += 1
                        n_in[j] += 1
            rhs[i] = prune(sl_union(rhs[i], sl_minkowski(mik, bk)))
    values: dict[str, SemilinearSet] = {}
    for k, row, bk in reversed(eliminated):
        acc = bk
        for j, rv in row.items():
            if not values[j].is_empty():
                acc = prune(sl_union(acc, sl_minkowski(rv, values[j])))
        values[k] = acc
    return values


@lru_cache(maxsize=1 << 12)
def _newton(g: Cfg) -> tuple[tuple[tuple[str, SemilinearSet], ...], int]:
    """Newton iteration over semilinear sets, staged along the strongly
    connected blocks of the variable dependency graph; lower blocks converge
    first and enter higher blocks as constants.  Returns per-variable Parikh
    images of the trimmed grammar together with a stabilization depth for
    the start variable: the largest step sum along a dependency chain of
    blocks, which bounds the steps the unstaged iteration needs, and is in
    turn capped by the variable count.

    A block is linear when each of its monomials holds at most one of its
    variables.  Its system x = M x + b then has a matrix M of lower-block
    values alone, so the first step's M*(M b + b) = M* b is already the least
    solution, and the block counts one step in the depth.  A second step,
    with no test for change, still runs on a block of two or more variables:
    it adds no vector, but its union re-expresses the components over the
    block's full period sets, and without it B has 5-16% more words on
    the acceptor grammars of two-thread networks.  Other blocks iterate until a step adds
    nothing, at most once per variable.  An acyclic block, one variable
    absent from its own monomials, takes no step: kappa_0 = F(0) is its
    value, and a step returns it unchanged (by the lemma of _prune_pairs)."""
    g = trim(g)
    dim = len(g.terminals)
    all_vars = sorted(g.variables)
    if not g.productions:
        return (tuple((x, sl_empty(dim)) for x in all_vars), 0)
    mons = _monomials(g)
    deps = {x: set() for x in all_vars}
    for x in all_vars:
        for _, occs in mons[x]:
            deps[x].update(occs)
    values: dict[str, SemilinearSet] = {}
    depth_at: dict[str, int] = {}
    # a block's values and depth read only its dependencies, so any
    # topological order of the blocks gives the same result
    for block in _scc_blocks(deps):
        order = sorted(block)
        in_block = set(block)
        inherited = max((depth_at[y] for x in order for y in deps[x]
                         if y not in in_block), default=0)
        # kappa_0 = F(0): with the block's variables empty, every monomial
        # that holds one of them evaluates to the empty set
        kappa = {**values, **dict.fromkeys(order, sl_empty(dim))}
        kappa.update(_eval_block(order, mons, kappa, dim))
        # per monomial, how many of the block's variables it holds
        held = [sum(o in in_block for o in occs)
                for x in order for _, occs in mons[x]]
        linear = max(held) <= 1
        steps = 0
        for _ in range(0 if not any(held) else
                       min(2, len(order)) if linear else len(order)):
            rhs = _eval_block(order, mons, kappa, dim)
            matrix = {}
            for x in order:
                for point, occs in mons[x]:
                    for i, y in enumerate(occs):
                        if y not in in_block:
                            continue
                        others = occs[:i] + occs[i + 1:]
                        term = _eval_monomial(point, others, kappa, dim)
                        if term.is_empty():
                            continue
                        cur = matrix.get((x, y))
                        matrix[(x, y)] = (prune(sl_union(cur, term))
                                          if cur else term)
            new_kappa = _solve_block(order, matrix, rhs, dim)
            for x in order:
                new_kappa[x] = prune(sl_union(new_kappa[x], kappa[x]))
            if not linear and all(sl_subset_sound(new_kappa[x], kappa[x])
                                  for x in order):
                break
            for x in order:
                kappa[x] = new_kappa[x]
            steps += 1
        # a block whose monomials mention any variable needs at least one
        # unstaged step: the iterate must evaluate those monomials before
        # their (already solved) values become visible to it
        floor = 1 if any(occs for x in order for _, occs in mons[x]) else 0
        for x in order:
            values[x] = kappa[x]
            depth_at[x] = inherited + (floor if linear else max(steps, floor))
    depth = min(depth_at.get(g.start, 0), len(all_vars))
    return (tuple((x, values[x]) for x in all_vars), depth)


def parikh_semilinear(g: Cfg) -> SemilinearSet:
    """The Parikh image of L(g) as a plain semilinear set."""
    g = trim(g)
    per_var, _ = _newton(g)
    return dict(per_var)[g.start]


def witness_for_vector(g: Cfg, v) -> Word | None:
    """A word of L(g) with Parikh vector v, by dynamic programming over all
    vectors dominated by v; None if no such word exists.

    The join is semi-naive: rule r skips the pairs inside the y and z
    snapshot lengths it joined on its last pass (joined[r]), in an
    unchanged loop order.  Those pairs were tried already; the table only
    grows, in insertion order, so they would insert nothing, and the first
    word found for each vector stays the same.  A pass lists z's pairs
    once; when x is z, each pair it inserts joins that list, so every row
    of y meets z's pairs as they stand when the row starts.  A vector is
    packed into one int, a field of ``width`` bits per coordinate with a
    guard bit on top.  The table's vectors are dominated by v, so a sum of
    two stays below the guards, and s <= v exactly when top - s clears no
    guard."""
    v = tuple(v)
    g = trim(g)
    if len(v) != len(g.terminals):
        raise InputError("vector dimension does not match the alphabet")
    cnf = to_cnf(g)
    if not any(v):
        return () if cnf.eps_in_language else None
    if min(v) < 0:
        return None
    width = max(v).bit_length() + 2
    packed = sum(x << width * i for i, x in enumerate(v))
    guards = sum(1 << width * i + width - 1 for i in range(len(v)))
    top = packed | guards
    index = {a: i for i, a in enumerate(g.terminals.symbols)}
    table: dict[str, dict[int, Word]] = {}
    for x, a in cnf.unary:
        if a in index and v[index[a]]:
            table.setdefault(x, {})[1 << width * index[a]] = (a,)
    joined: dict[int, tuple[int, int]] = {}
    changed = True
    while changed:
        changed = False
        for r, (x, y, z) in enumerate(cnf.binary):
            ys = table.get(y)
            zs = table.get(z)
            if not ys or not zs:
                continue
            cell = table.setdefault(x, {})
            old_y, old_z = joined.get(r, (0, 0))
            joined[r] = len(ys), len(zs)
            z_pairs = list(zs.items())
            grows = cell is zs
            for i, (u1, w1) in enumerate(list(ys.items())):
                for u2, w2 in z_pairs[old_z if i < old_y else 0:]:
                    s = u1 + u2
                    if (top - s) & guards != guards or s in cell:
                        continue
                    word = cell[s] = w1 + w2
                    if grows:
                        z_pairs.append((s, word))
                    changed = True
    return table.get(cnf.start, {}).get(packed)


@lru_cache(maxsize=1 << 12)
def parikh_image(g: Cfg) -> WitnessedSemilinear:
    """Exact Parikh image with a witness word per component constant."""
    g = trim(g)
    sl = parikh_semilinear(g)
    out = []
    for comp in sl.components:
        w = witness_for_vector(g, comp.constant)
        if w is None:
            raise SoundnessError(
                f"no witness for component constant {comp.constant}")
        out.append((comp, w))
    return WitnessedSemilinear(sl.dim, tuple(out))


# ---------------------------------------------------------------------------
# Outermost pipeline calls

# Every memo of the library, held by reference: a tracer may rebind the
# module attributes to wrappers that cannot be cleared.
CACHES = (trim, to_cnf, _newton, parikh_image, prune, sl_minkowski,
          _gens, _join, _in_span, _spans_within, _merge_search)
_depth: ContextVar[int] = ContextVar("pipeline_depth", default=0)


def outermost(fn):
    """Mark fn as a pipeline entry point.  A call that no marked call
    encloses first empties every cache, so neither its output nor its
    memory depends on what ran earlier in the process; a nested call keeps
    its caller's entries."""
    @wraps(fn)
    def entry(*args, **kwargs):
        depth = _depth.get()
        if not depth:
            for cache in CACHES:
                cache.cache_clear()
        token = _depth.set(depth + 1)
        try:
            return fn(*args, **kwargs)
        finally:
            _depth.reset(token)
    return entry
