"""The benchmark's workloads: inputs, operations and output checks.

Each workload is a list of operations.  An operation calls the library's
public API once and returns its output; its check compares that output with
the reference computations in ``oracles`` or with properties the method must
have, and returns an error message or None.  Every workload runs its fixed
inputs first and its seeded inputs after them, so that the seeded part cannot
change the names the library invents for the fixed part.

Library functions are looked up through their modules at call time, so that
the wrappers of a traced run see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from parikhbound import boundedgen, grammar, intersect, pdn

import oracles

SUBSET_LENGTH = 12      # enumeration length of the subset pipeline
BOUND_CHECK_LENGTH = 8  # length up to which Parikh equivalence is checked
EMPTY_CHECK_LENGTH = 10  # length up to which an empty verdict is checked
FAMILY_K = 3


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


# ---------------------------------------------------------------------------
# Inputs


def _network(threads, stacks, init_g, target_g):
    """A network whose globals and stack symbols are those its rules and
    configurations mention."""
    rules = [r for t in threads for r in t]
    globals_ = sorted({r[0] for r in rules} | {r[2] for r in rules}
                      | {init_g, target_g})
    symbols = sorted({r[1] for r in rules} | {s for r in rules for s in r[3]}
                     | {s for st in stacks for s in st})
    return (pdn.PushdownNetwork(tuple(globals_), tuple(symbols),
                                tuple(tuple(t) for t in threads)),
            pdn.GlobalConfiguration(init_g, tuple(map(tuple, stacks))),
            pdn.GlobalConfiguration(target_g, tuple(() for _ in threads)))


COUNTDOWN = [("g0", "A", "g0", ()), ("g0", "Z", "g1", ())]
PARITY = [("g0", "A", "g1", ()), ("g1", "A", "g0", ()), ("g0", "Z", "g0", ())]


def _small_networks(rng: random.Random):
    """Networks with answers known by construction, sized by the seed.
    Yields (name, network, init, target, reachable)."""
    n = rng.randint(1, 4)
    yield (f"countdown-{n}",
           *_network([COUNTDOWN], [("A",) * n + ("Z",)], "g0", "g1"), True)
    # nothing ever writes g2
    n = rng.randint(1, 4)
    yield (f"countdown-{n}-to-g2",
           *_network([COUNTDOWN], [("A",) * n + ("Z",)], "g0", "g2"), False)
    # each A flips the global; Z pops only at g0
    n = rng.randint(1, 4)
    yield (f"parity-{n}-to-g0",
           *_network([PARITY], [("A",) * n + ("Z",)], "g0", "g0"), n % 2 == 0)
    n = rng.randint(1, 4)
    yield (f"parity-{n}-to-g1",
           *_network([PARITY], [("A",) * n + ("Z",)], "g0", "g1"), False)
    n = rng.randint(1, 3)
    yield (f"drain-{n}",
           *_network([[("g0", "A", "g0", ())], [("g0", "B", "g0", ())]],
                     [("A",) * n, ("B",)], "g0", "g0"), True)


def two_thread_networks():
    """The two networks whose acceptor grammars the bound workload uses:
    thread 2 must run first to enable thread 1's pop, and a deadlock where
    each thread waits for a global only the other would set."""
    return {
        "thread-2-first": _network([[("g1", "A", "g1", ())],
                                    [("g0", "B", "g1", ())]],
                                   [("A",), ("B",)], "g0", "g1"),
        "deadlock": _network([[("g1", "A", "g2", ())],
                              [("g2", "B", "g1", ())]],
                             [("A",), ("B",)], "g0", "g2"),
    }


# Small grammars the seed picks from.  Each takes well under a second
# through every workload's operations.
POOL = {
    "ab-star": "T -> a b T | eps",
    "a-plus": "A -> a A | a",
    "center-b": "S -> a S c | b",
    "a-b2": "S -> a S b b | b",
    "palindrome-c": "P -> a P a | b P b | c",
    "even-a": "X -> a a X | a",
    "anbn-from-2": "S -> a S b | a a b b",
    "left-right": "E -> a E | E b | c",
    "ab-ba": "S -> a S b | b S a | eps",
    "two-stars": "X -> a X | Y\nY -> b Y | eps",
}

NAMED_SUBSET = {
    "dyck-2": "D -> a D b D | c D d D | eps",
    "running-example": "X0 -> a X1 | a\nX1 -> X0 b | a X1 b X0",
    "dyck-1": "D -> a b | a D b | D D",
    "palindrome": "P -> a P a | b P b | eps",
    "anbn": "S -> a S b | a b",
}


def _pool_pick(rng: random.Random, count: int):
    names = sorted(POOL)
    rng.shuffle(names)
    return [(name, grammar.parse_grammar(POOL[name]))
            for name in names[:count]]


# ---------------------------------------------------------------------------
# Checks


def _check_reach(net, init, target, expected, min_switches=0):
    def check(result):
        confirmed = oracles.pdn_reachable(net, init, target)
        if confirmed != expected:
            return f"search says reachable={confirmed}, expected {expected}"
        want = "nonempty" if expected else "empty"
        if result.status != want:
            return f"verdict {result.status}, expected {want}"
        if expected:
            if not oracles.replay_schedule(net, init, target, result.witness):
                return f"witness {result.witness} does not reach the target"
            switches = sum(1 for s in result.witness if s.endswith(",2)"))
            if switches < min_switches:
                return f"witness activates thread 2 {switches} times"
        return None
    return check


def _check_intersection(grammars, expected):
    def check(result):
        if result.status != expected:
            return f"verdict {result.status}, expected {expected}"
        if expected == "nonempty":
            for g in grammars:
                if not oracles.derives(g, result.witness):
                    return f"witness {result.witness} not in {g.start}"
        else:
            common = oracles.words_upto(grammars[0], EMPTY_CHECK_LENGTH)
            for g in grammars[1:]:
                common &= oracles.words_upto(g, EMPTY_CHECK_LENGTH)
            if common:
                return f"common word {min(common)} behind an empty verdict"
        return None
    return check


def _parikh_gap(g, words, member, n):
    """Lengths at which Parikh(L ∩ B) differs from Parikh(L), up to n."""
    sigma = tuple(g.terminals.symbols)
    all_vecs = oracles.parikh_by_length(words, sigma)
    in_b = oracles.parikh_by_length([w for w in words if member.accepts(w)],
                                    sigma)
    return [k for k in range(n + 1) if all_vecs.get(k, set()) != in_b.get(k, set())]


def _check_bounded(g, n):
    def check(b):
        used = {a for w in b.words for a in w}
        if not used <= set(g.terminals.symbols):
            return f"B uses symbols outside the grammar: {used}"
        words = oracles.words_upto(g, n)
        gap = _parikh_gap(g, words, oracles.BoundedMembership(b.words), n)
        return f"Parikh images differ at lengths {gap}" if gap else None
    return check


def _check_subset(g, n):
    def check(out):
        b, words = out
        member = oracles.BoundedMembership(b.words)
        lang = oracles.words_upto(g, n)
        expected = {w for w in lang if member.accepts(w)}
        if set(words) != expected:
            return (f"L ∩ B has {len(set(words))} words up to {n}, "
                    f"the reference {len(expected)}")
        gap = _parikh_gap(g, lang, member, n)
        return f"Parikh images differ at lengths {gap}" if gap else None
    return check


# ---------------------------------------------------------------------------
# Workloads


def reach_ops(seed: int) -> list[Op]:
    """reach() on the parametric family, then on small seeded networks."""
    net, init, target = pdn.family_instance(FAMILY_K)
    ops = [Op(f"family-{FAMILY_K}",
              lambda: pdn.reach(net, init, target),
              _check_reach(net, init, target, True, FAMILY_K))]
    for name, *instance, expected in _small_networks(random.Random(seed)):
        ops.append(Op(name, lambda inst=instance: pdn.reach(*inst),
                      _check_reach(*instance, expected)))
    return ops


def _semi(grammars):
    return lambda: intersect.semi_algorithm(
        intersect.IntersectionInstance(tuple(grammars)))


def intersect_ops(seed: int) -> list[Op]:
    """semi_algorithm on pairs that reach each verdict path: refinement into
    round 2, disjoint Parikh images, and a fast-path witness."""
    pairs = [
        # round 1 finds common Parikh vectors but no common word; round 2
        # proves emptiness after refinement
        ("refined", "X0 -> eps | b a X1\nX1 -> b | b b a",
         "X0 -> X0 a | a X0 | b b", "empty"),
        ("anbn-vs-ab-plus", "S -> a S b | a a b b", "T -> a b T | a b",
         "empty"),
        # the running example has one more a than b; Dyck words are balanced
        ("running-vs-dyck", "X0 -> a X1 | a\nX1 -> X0 b | a X1 b X0",
         "D -> a b | a D b | D D", "empty"),
    ]
    rng = random.Random(seed)
    p = rng.randint(2, 3)
    r = rng.randint(1, p)
    s = r + rng.randint(1, p - 1)
    pairs.append((f"residues-{r}-{s}-mod-{p}",
                  f"X -> {' '.join('a' * p)} X | {' '.join('a' * r)}",
                  f"Y -> {' '.join('a' * p)} Y | {' '.join('a' * s)}",
                  "empty"))
    d = rng.randint(1, 3)
    pairs.append((f"anbn-vs-anbn+{d}", "S -> a S b | a b",
                  f"T -> a T b | a {' '.join('b' * (d + 1))}", "empty"))
    q = rng.randint(1, 3)
    block = " ".join("a" * q + "b" * q)
    pairs.append((f"shared-block-{q}",
                  f"S -> a S b | {block}", f"T -> {block} T | {block}",
                  "nonempty"))
    ops = []
    for name, left, right, expected in pairs:
        gs = [grammar.parse_grammar(left), grammar.parse_grammar(right)]
        ops.append(Op(name, _semi(gs), _check_intersection(gs, expected)))
    return ops


def bound_ops(seed: int) -> list[Op]:
    """parikh_equivalent_bounded on the acceptor grammars of two small
    two-thread networks, then on seeded picks from the small pool."""
    inputs = []
    for name, (net, init, target) in two_thread_networks().items():
        for acc in pdn.encode_to_acceptors(net, init, target):
            inputs.append((f"{name}-acceptor-{acc.thread}",
                           pdn.acceptor_to_cfg(acc)))
    inputs += _pool_pick(random.Random(seed), 3)
    return [Op(name, lambda g=g: boundedgen.parikh_equivalent_bounded(g),
               _check_bounded(g, BOUND_CHECK_LENGTH))
            for name, g in inputs]


def _subset_pipeline(g):
    def run():
        b = boundedgen.parikh_equivalent_bounded(g)
        sub = boundedgen.bounded_subset(g, b)
        return b, grammar.enumerate_words(grammar.trim(sub), SUBSET_LENGTH,
                                          budget=2_000_000)
    return run


def subset_ops(seed: int) -> list[Op]:
    """parikh_equivalent_bounded, bounded_subset and enumerate_words on
    named grammars, then on seeded picks from the small pool."""
    inputs = [(name, grammar.parse_grammar(text))
              for name, text in NAMED_SUBSET.items()]
    inputs += _pool_pick(random.Random(seed), 4)
    return [Op(name, _subset_pipeline(grammar.trim(g)),
               _check_subset(g, SUBSET_LENGTH))
            for name, g in inputs]


WORKLOADS = {
    "reach": reach_ops,
    "intersect": intersect_ops,
    "bound": bound_ops,
    "subset": subset_ops,
}
