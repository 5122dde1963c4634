"""Shared fixtures: a grammar corpus and brute-force oracles.

Everything here is independent of the implementation under test: oracles work
by exhaustive enumeration or explicit expansion, so agreement with the library
is meaningful evidence of correctness.
"""

from __future__ import annotations

import random
import time
from itertools import product

from parikhbound import Cfg, enumerate_words, parikh_of_word, trim
from parikhbound.grammar import cfg, is_empty_language


class Budget:
    """Context manager that fails the test when its body takes longer than
    `seconds` of wall-clock time."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.t0
            assert elapsed < self.seconds, \
                f"exceeded time budget: {elapsed:.1f}s > {self.seconds}s"


# ---------------------------------------------------------------------------
# Named grammars

# Running example: X0 -> a X1 | a ; X1 -> X0 b | a X1 b X0
G_EX = cfg({"X0", "X1"}, ["a", "b"],
           [("X0", ("a", "X1")), ("X0", ("a",)),
            ("X1", ("X0", "b")), ("X1", ("a", "X1", "b", "X0"))],
           "X0")

# Balanced brackets over one bracket pair (nonempty words).
DYCK1 = cfg({"D"}, ["a", "b"],
            [("D", ("a", "b")), ("D", ("a", "D", "b")),
             ("D", ("D", "D"))],
            "D")

# { a^n b^n : n >= 1 }
ANBN = cfg({"S"}, ["a", "b"],
           [("S", ("a", "S", "b")), ("S", ("a", "b"))],
           "S")

# Even-length palindromes over {a, b} (linear).
PALIN = cfg({"P"}, ["a", "b"],
            [("P", ("a", "P", "a")), ("P", ("b", "P", "b")), ("P", ())],
            "P")

# Odd-length "marked-center" palindrome-like linear grammar.
PALIN_C = cfg({"P"}, ["a", "b", "c"],
              [("P", ("a", "P", "a")), ("P", ("b", "P", "b")),
               ("P", ("c",))],
              "P")

CORE_CORPUS = [G_EX, DYCK1, ANBN, PALIN, PALIN_C]


# ---------------------------------------------------------------------------
# Seeded random grammars


def random_grammar(rng: random.Random, n_vars: int) -> Cfg:
    variables = [f"X{i}" for i in range(n_vars)]
    terminals = ["a", "b"]
    symbols = terminals + variables
    prods = set()
    for x in variables:
        for _ in range(rng.randint(1, 3)):
            length = rng.randint(0, 3)
            rhs = tuple(rng.choice(symbols if rng.random() < 0.4 else terminals)
                        for _ in range(length))
            prods.add((x, rhs))
    return cfg(set(variables), terminals, prods, "X0")


def random_corpus(count: int, seed: int = 20260826,
                  max_vars: int = 3) -> list[Cfg]:
    """`count` nonempty seeded random grammars with 2..max_vars variables."""
    rng = random.Random(seed)
    out: list[Cfg] = []
    while len(out) < count:
        g = random_grammar(rng, rng.randint(2, max_vars))
        if is_empty_language(g):
            continue
        t = trim(g)
        # keep the corpus interesting: skip languages that are a single word
        if len(enumerate_words(t, 6)) < 2:
            continue
        out.append(g)
    return out


def full_corpus() -> list[Cfg]:
    """At least 20 grammars: the 5 named ones plus seeded random grammars."""
    return CORE_CORPUS + random_corpus(15)


# ---------------------------------------------------------------------------
# Enumeration oracles


def per_length_parikh(g: Cfg, max_length: int,
                      sigma=None) -> dict[int, set]:
    """Map word length -> set of Parikh vectors of L(g), by enumeration."""
    t = trim(g)
    sigma = sigma if sigma is not None else t.terminals
    out: dict[int, set] = {}
    for w in enumerate_words(t, max_length):
        out.setdefault(len(w), set()).add(parikh_of_word(w, sigma))
    return out


def parikh_vectors(g: Cfg, max_length: int, sigma=None) -> set:
    t = trim(g)
    sigma = sigma if sigma is not None else t.terminals
    return {parikh_of_word(w, sigma) for w in enumerate_words(t, max_length)}


def eb_words(b, max_length: int) -> set:
    """All words of the elementary bounded language w1*...wk* up to a length,
    generated directly from the definition (independent of eb_to_nfa)."""
    out = set()

    def rec(prefix, i):
        out.add(prefix)
        if i == len(b.words):
            return
        w = b.words[i]
        rec(prefix, i + 1)
        cur = prefix
        while len(cur) + len(w) <= max_length:
            cur = cur + w
            rec(cur, i + 1)

    rec((), 0)
    return out


def expand_semilinear(s, max_sum: int) -> set:
    """All vectors of a semilinear set with coefficient sum <= max_sum,
    by explicit expansion of each linear component."""
    out = set()
    for comp in s.components:
        frontier = {comp.constant}
        seen = set(frontier)
        while frontier:
            nxt = set()
            for v in frontier:
                if sum(v) <= max_sum:
                    out.add(v)
                for p in comp.periods:
                    u = tuple(a + b for a, b in zip(v, p))
                    if sum(u) <= max_sum and u not in seen:
                        seen.add(u)
                        nxt.add(u)
            frontier = nxt
    return {v for v in out if sum(v) <= max_sum}


def naive_lin_member(constant, periods, v, budget: int = 200_000) -> bool:
    """Brute-force membership of v in {constant + sum li*pi} by bounded
    search over coefficient tuples."""
    if any(x > y for x, y in zip(constant, v)):
        return False
    rest = tuple(y - x for x, y in zip(constant, v))
    if not any(rest):
        return True
    bounds = []
    for p in periods:
        if not any(p):
            bounds.append(0)
            continue
        bounds.append(min((r // c if c else 10 ** 9)
                          for r, c in zip(rest, p) if c) if any(p) else 0)
    count = 0
    for coeffs in product(*[range(b + 1) for b in bounds]):
        count += 1
        if count > budget:
            raise RuntimeError("naive membership budget exhausted")
        total = list(constant)
        for l, p in zip(coeffs, periods):
            for i, c in enumerate(p):
                total[i] += l * c
        if tuple(total) == v:
            return True
    return False
