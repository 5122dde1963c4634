"""The benchmark's reference computations on tiny hand-checked cases.

    PYTHONPATH=src python3 -m pytest perfbench/test_oracles.py

Grammars and networks here are plain namespaces, so these tests exercise the
oracles alone.
"""

import json
import random
import re
from itertools import product
from pathlib import Path
from types import SimpleNamespace as NS

import pytest

import oracles


def grammar(text):
    """A grammar from lines "X -> a X b | eps"; the first head is the start."""
    rules = []
    for line in text.strip().splitlines():
        lhs, rest = line.split("->")
        for alt in rest.split("|"):
            rules.append((lhs.strip(),
                          tuple(s for s in alt.split() if s != "eps")))
    variables = {lhs for lhs, _ in rules}
    terminals = sorted({s for _, rhs in rules for s in rhs} - variables)
    return NS(variables=frozenset(variables), productions=frozenset(rules),
              terminals=NS(symbols=tuple(terminals)), start=rules[0][0])


ANBN = grammar("S -> a S b | a b")
A_STAR = grammar("S -> A | eps\nA -> S a | S")   # empty and unit cycles
NO_WORDS = grammar("S -> a S")
DYCK = grammar("D -> a D b D | eps")


def w(text):
    return tuple(text)


def test_words_upto_hand_cases():
    assert oracles.words_upto(ANBN, 6) == {w("ab"), w("aabb"), w("aaabbb")}
    assert oracles.words_upto(A_STAR, 3) == {(), w("a"), w("aa"), w("aaa")}
    assert oracles.words_upto(NO_WORDS, 5) == set()
    assert oracles.words_upto(DYCK, 4) == {(), w("ab"), w("aabb"), w("abab")}


@pytest.mark.parametrize("g", [ANBN, A_STAR, NO_WORDS, DYCK])
def test_derives_agrees_with_enumeration(g):
    words = oracles.words_upto(g, 6)
    for n in range(7):
        for u in product("ab", repeat=n):
            assert oracles.derives(g, u) == (u in words), u


def test_derives_hand_cases():
    assert oracles.derives(ANBN, w("aabb"))
    assert not oracles.derives(ANBN, w("abab"))
    assert not oracles.derives(ANBN, ())
    assert oracles.derives(A_STAR, ())


def test_bounded_membership_hand_cases():
    m = oracles.BoundedMembership([w("ab"), w("a"), w("b")])
    for u in ("", "abab", "aab", "aba", "abb", "ab"):
        assert m.accepts(w(u)), u
    for u in ("ba", "abba", "bab", "c"):
        assert not m.accepts(w(u)), u
    m = oracles.BoundedMembership([w("a"), w("b"), w("a")])
    assert m.accepts(w("aba")) and m.accepts(w("baa"))
    assert not m.accepts(w("abab"))
    assert oracles.BoundedMembership([]).accepts(())
    assert not oracles.BoundedMembership([]).accepts(w("a"))


def test_bounded_membership_agrees_with_regex():
    rng = random.Random(7)
    for _ in range(200):
        blocks = ["".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
                  for _ in range(rng.randint(0, 5))]
        pattern = re.compile("".join(f"(?:{b})*" for b in blocks))
        m = oracles.BoundedMembership([w(b) for b in blocks])
        for _ in range(20):
            u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 8)))
            assert m.accepts(w(u)) == bool(pattern.fullmatch(u)), (blocks, u)


def network(threads, stacks, init_g, target_g):
    return (NS(threads=threads), NS(global_state=init_g, stacks=stacks),
            NS(global_state=target_g, stacks=tuple(() for _ in stacks)))


COUNTDOWN = (("g0", "A", "g0", ()), ("g0", "Z", "g1", ()))
PARITY = (("g0", "A", "g1", ()), ("g1", "A", "g0", ()), ("g0", "Z", "g0", ()))
FIRST = ((("g1", "A", "g1", ()),), (("g0", "B", "g1", ()),))


def test_pdn_reachable_hand_cases():
    assert oracles.pdn_reachable(*network((COUNTDOWN,), (("A", "Z"),),
                                          "g0", "g1"))
    assert not oracles.pdn_reachable(*network((COUNTDOWN,), (("A", "Z"),),
                                              "g0", "g2"))
    assert oracles.pdn_reachable(*network((PARITY,), (("A", "A", "Z"),),
                                          "g0", "g0"))
    assert not oracles.pdn_reachable(*network((PARITY,), (("A", "Z"),),
                                              "g0", "g0"))
    assert oracles.pdn_reachable(*network(FIRST, (("A",), ("B",)),
                                          "g0", "g1"))
    growing = ((("g0", "Z", "g0", ("A", "Z")), ("g0", "A", "g0", ("A", "A"))),)
    with pytest.raises(oracles.SearchLimit):
        oracles.pdn_reachable(*network(growing, (("Z",),), "g0", "g1"))


def test_replay_schedule_hand_cases():
    first = network(FIRST, (("A",), ("B",)), "g0", "g1")
    assert oracles.replay_schedule(*first, ("(g0,2)", "(g1,1)"))
    assert not oracles.replay_schedule(*first, ())
    assert not oracles.replay_schedule(*first, ("(g1,2)",))
    assert not oracles.replay_schedule(*first, ("(g0,1)",))
    countdown = network((COUNTDOWN,), (("A", "Z"),), "g0", "g1")
    assert oracles.replay_schedule(*countdown, ())


def test_benchmark_lists_every_traced_metric():
    layertrace = pytest.importorskip("layertrace")
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json")
                      .read_text())
    listed = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    assert listed == set(layertrace.LAYER_METRICS)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
