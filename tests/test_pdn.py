import json
from functools import reduce
from operator import getitem

import pytest

from helpers import Budget
from parikhbound import (GlobalConfiguration, InputError, PushdownNetwork,
                         cyk_membership, enumerate_words,
                         acceptor_to_cfg, encode_to_acceptors,
                         family_instance, pdn_from_json, pdn_reach_bounded,
                         pdn_to_json, reach, trim)
from parikhbound.pdn import switch_symbol


def single_thread(rules, init_stack, init_g, target_g):
    globals_ = sorted({g for g, _, _, _ in rules}
                      | {g2 for _, _, g2, _ in rules} | {init_g, target_g})
    stack = sorted({gamma for _, gamma, _, _ in rules}
                   | {s for _, _, _, push in rules for s in push}
                   | set(init_stack))
    pdn = PushdownNetwork(tuple(globals_), tuple(stack), (tuple(rules),))
    return (pdn, GlobalConfiguration(init_g, (tuple(init_stack),)),
            GlobalConfiguration(target_g, ((),)))


COUNTDOWN = single_thread(
    [("g0", "A", "g0", ()), ("g0", "Z", "g1", ())],
    ("A", "A", "Z"), "g0", "g1")


def test_network_validation():
    with pytest.raises(InputError):
        PushdownNetwork(("g",), ("A",), ((("g", "B", "g", ()),),))


def test_bounded_oracle_on_countdown():
    pdn, init, target = COUNTDOWN
    assert pdn_reach_bounded(pdn, init, target, 12)
    wrong = GlobalConfiguration("g0", ((),))
    assert not pdn_reach_bounded(pdn, init, wrong, 12)


def test_encoding_shape():
    pdn, init, target = family_instance(1)
    accs = encode_to_acceptors(pdn, init, target)
    assert len(accs) == 2
    assert accs[0].initial_global == init.global_state
    assert switch_symbol("t1", 2) in accs[0].input_symbols


def test_encoding_rejects_nonempty_target_stack():
    pdn, init, _ = COUNTDOWN
    bad = GlobalConfiguration("g1", (("A",),))
    with pytest.raises(InputError):
        encode_to_acceptors(pdn, init, bad)


def test_undeclared_configuration_symbols_are_input_errors():
    # without the check, reach would answer "empty" with no certificate
    pdn, init, target = COUNTDOWN
    for bad_init, bad_target in (
            (GlobalConfiguration("g0", (("A", "Q"),)), target),
            (GlobalConfiguration("gX", init.stacks), target),
            (init, GlobalConfiguration("g9", ((),)))):
        with pytest.raises(InputError, match="undeclared"):
            encode_to_acceptors(pdn, bad_init, bad_target)
        with pytest.raises(InputError, match="undeclared"):
            reach(pdn, bad_init, bad_target)


def test_encoder_names_are_input_errors():
    # both targets are unreachable, but a network may not move through the
    # encoding's idle global or bottom marker: reach answered "reachable"
    idle_global = PushdownNetwork(
        ("g0", "#idle"), ("A", "B"),
        ((("#idle", "A", "g0", ()),), (("g0", "B", "g0", ()),)))
    bottom_symbol = PushdownNetwork(("g0", "g1"), ("#bot",),
                                    ((("g0", "#bot", "g1", ()),),))
    for pdn, init, target in (
            (idle_global, GlobalConfiguration("g0", (("A",), ("B",))),
             GlobalConfiguration("g0", ((), ()))),
            (bottom_symbol, GlobalConfiguration("g0", ((),)),
             GlobalConfiguration("g1", ((),)))):
        assert not pdn_reach_bounded(pdn, init, target, 20)
        with pytest.raises(InputError, match="reserved"):
            encode_to_acceptors(pdn, init, target)
        with pytest.raises(InputError, match="reserved"):
            reach(pdn, init, target)


def test_acceptor_cfg_nonempty_iff_reachable():
    # single-thread network: schedule language nonempty iff target reachable
    pdn, init, target = COUNTDOWN
    g = acceptor_to_cfg(encode_to_acceptors(pdn, init, target)[0])
    assert enumerate_words(trim(g), 4) or trim(g).productions
    unreachable = single_thread(
        [("g0", "A", "g0", ())], ("A",), "g0", "g1")
    g2 = acceptor_to_cfg(encode_to_acceptors(unreachable[0], unreachable[1],
                                             unreachable[2])[0])
    assert not trim(g2).productions


def test_reach_single_thread():
    pdn, init, target = COUNTDOWN
    assert reach(pdn, init, target).status == "nonempty"
    wrong = GlobalConfiguration("g0", ((),))
    # popping Z forces g1, so g0 with an empty stack is unreachable
    assert reach(pdn, init, wrong).status == "empty"


def test_reach_three_thread_drain():
    # threads 1 and 2 pop A and B at g0; thread 3 pops C and moves to g1,
    # after which nobody else can pop, so the three schedules must agree
    # on thread 3 running last
    pdn = PushdownNetwork(("g0", "g1"), ("A", "B", "C"),
                          ((("g0", "A", "g0", ()),),
                           (("g0", "B", "g0", ()),),
                           (("g0", "C", "g1", ()),)))
    init = GlobalConfiguration("g0", (("A",), ("B",), ("C",)))
    target = GlobalConfiguration("g1", ((), (), ()))
    assert pdn_reach_bounded(pdn, init, target, 3)
    with Budget(30):
        result = reach(pdn, init, target)
    assert result.status == "nonempty" and result.rounds == 1
    grammars = [trim(acceptor_to_cfg(a))
                for a in encode_to_acceptors(pdn, init, target)]
    assert all(cyk_membership(g, result.witness) for g in grammars)


def test_family_oracle():
    pdn, init, target = family_instance(1)
    assert pdn_reach_bounded(pdn, init, target, 12)


def test_reach_on_the_family_up_to_five():
    """W1 of the roadmap, beyond the k <= 3 of the acceptance tests: each
    instance is reachable, by a schedule that activates thread 2 at least
    k times and that every acceptor grammar accepts."""
    with Budget(10):
        for k in range(1, 6):
            pdn, init, target = family_instance(k)
            result = reach(pdn, init, target)
            assert result.status == "nonempty", k
            activations = sum(1 for s in result.witness if s.endswith(",2)"))
            assert activations >= k, (k, result.witness)
            assert all(cyk_membership(trim(acceptor_to_cfg(a)), result.witness)
                       for a in encode_to_acceptors(pdn, init, target)), k


def test_family_requires_positive_k():
    with pytest.raises(InputError):
        family_instance(0)


def test_json_round_trip():
    pdn, init, target = family_instance(2)
    text = pdn_to_json(pdn, init, target)
    pdn2, init2, target2 = pdn_from_json(text)
    assert (pdn2, init2, target2) == (pdn, init, target)
    with pytest.raises(InputError):
        pdn_from_json("not json")
    with pytest.raises(InputError):
        pdn_from_json("{}")
    # a string where a list belongs, or a rule without 4 fields
    good = json.loads(pdn_to_json(*family_instance(1)))
    for path, bad in ((("globals",), "t0t1f0f1"), (("stack_alphabet",), "JZW"),
                      (("threads",), "x"), (("threads", 0), "x"),
                      (("threads", 0, 0), "f0Jt1J"),
                      (("threads", 0, 0, 3), "J"),
                      (("threads", 0, 0), ["f0", "J", "t1"]),
                      (("threads", 0, 0), ["f0", "J", "t1", ["J"], "x"]),
                      (("init", "stacks"), "JZ"), (("init", "stacks", 0), "JZ"),
                      (("target", "stacks", 1), "")):
        data = json.loads(json.dumps(good))
        *outer, last = path
        reduce(getitem, outer, data)[last] = bad
        with pytest.raises(InputError, match="must be lists"):
            pdn_from_json(json.dumps(data))
