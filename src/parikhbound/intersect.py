"""Semi-decision procedure for emptiness of a context-free intersection.

Each round runs four phases on the current languages:

1. Parikh disjointness: look for one vector common to their Parikh images,
   component tuple by component tuple (a completed Diophantine search
   proves a tuple empty).  If the images are disjoint, the intersection is
   empty; if a budget leaves this open, the round goes on to phase 3.
2. Fast-path witness: a common vector yields one candidate word per
   language; a candidate in every original grammar is a witness.
3. Decision inside B: build a Parikh-equivalent bounded language for each
   current language and concatenate them into B; decide the intersection
   inside B exactly via block projections, verifying any witness in every
   original grammar.
4. Refinement: intersect every language with the complement of B and start
   the next round.

Refinement only removes words certified witness-free, so an emptiness
answer is sound; when a search budget leaves the decision inside B open,
the answer is "unknown".
"""

from __future__ import annotations

from dataclasses import dataclass

from .boundedgen import parikh_equivalent_bounded
from .errors import BudgetError, InputError, ProgressNotReached, SoundnessError
from .grammar import (Cfg, block_projection, cyk_membership, product_with_dfa,
                      simplify, trim, union_alphabets, with_alphabet)
from .semilinear import (outermost, parikh_semilinear,
                         sl_intersection_witness, witness_for_vector)
from .symbols import ElementaryBounded, Word, eb_complement_dfa, eb_concat


@dataclass(frozen=True)
class IntersectionInstance:
    grammars: tuple[Cfg, ...]

    def __post_init__(self):
        if len(self.grammars) < 1:
            raise InputError("need at least one grammar")


@dataclass
class IterationState:
    round: int
    current: tuple[Cfg, ...]
    bounded: ElementaryBounded | None = None


@dataclass(frozen=True)
class IntersectionResult:
    status: str                      # "nonempty" | "empty" | "unknown"
    witness: Word | None = None
    rounds: int = 0

    @property
    def exit_code(self) -> int:
        return {"nonempty": 0, "empty": 1, "unknown": 2}[self.status]


@outermost
def intersect_modulo(grammars: list[Cfg], b: ElementaryBounded) -> Word | None:
    """A word in (intersection of all L_i) intersect B, or None if there is none.

    Project every L_i intersect B onto block-count vectors (t1..tn), find one
    vector common to the resulting semilinear sets, and rebuild
    w = w1^t1 ... wn^tn from it.  The membership of the rebuilt word in every
    grammar is re-checked; failure would mean a soundness bug.  BudgetError
    when a search budget leaves the question open.
    """
    if not grammars:
        raise InputError("need at least one grammar")
    words = b.words
    images = []
    for g in grammars:
        image = parikh_semilinear(block_projection(trim(g), words))
        if image.is_empty():
            return None
        images.append(image)
    vector = sl_intersection_witness(*images)
    if vector is None:
        return None
    witness: Word = ()
    for t, wi in zip(vector, words):
        witness += wi * t
    for g in grammars:
        if not cyk_membership(g, witness):
            raise SoundnessError("reconstructed witness failed membership")
    return witness


def refine(g: Cfg, b: ElementaryBounded) -> Cfg:
    """Grammar for L(g) minus the bounded language (intersection with its
    complement), trimmed."""
    g = trim(g)
    return product_with_dfa(g, eb_complement_dfa(b, g.terminals))


@outermost
def semi_algorithm(instance: IntersectionInstance, max_rounds: int = 5,
                   states: list[IterationState] | None = None
                   ) -> IntersectionResult:
    sigma = union_alphabets(*[g.terminals for g in instance.grammars])
    originals = tuple(with_alphabet(g, sigma) for g in instance.grammars)
    current = tuple(simplify(trim(g)) for g in originals)
    for rnd in range(1, max_rounds + 1):
        state = IterationState(rnd, current)
        if states is not None:
            states.append(state)
        try:
            vector = sl_intersection_witness(
                *[parikh_semilinear(g) for g in current])
        except BudgetError:
            pass  # disjointness not settled; the bounded language decides
        else:
            if vector is None:
                return IntersectionResult("empty", rounds=rnd)
            # fast path: a common Parikh vector yields candidate witness
            # words far more cheaply than the full bounded construction
            for w in dict.fromkeys(witness_for_vector(g, vector)
                                   for g in current):
                if w is not None and all(cyk_membership(g, w)
                                         for g in originals):
                    return IntersectionResult("nonempty", witness=w,
                                              rounds=rnd)
        bounded = eb_concat(*[parikh_equivalent_bounded(g) for g in current])
        state.bounded = bounded
        try:
            witness = intersect_modulo(list(originals), bounded)
        except BudgetError:
            # B may hold a witness: refining it away could make a later
            # round answer "empty" wrongly
            return IntersectionResult("unknown", rounds=rnd)
        if witness is not None:
            return IntersectionResult("nonempty", witness=witness, rounds=rnd)
        current = tuple(simplify(refine(g, bounded)) for g in current)
    return IntersectionResult("unknown", rounds=max_rounds)


@outermost
def progress_trace(g: Cfg, w: Word, max_rounds: int = 10) -> int:
    """The first refinement round i at which w is no longer in L_i, when the
    procedure runs on the single language L(g)."""
    if not cyk_membership(g, w):
        raise InputError("w must belong to L(g)")
    current = simplify(trim(g))
    for rnd in range(1, max_rounds + 1):
        bounded = parikh_equivalent_bounded(current)
        current = simplify(refine(current, bounded))
        if not cyk_membership(current, w):
            return rnd
    raise ProgressNotReached(f"word not removed within {max_rounds} rounds")
