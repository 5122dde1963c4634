import pytest

from helpers import G_EX, per_length_parikh, random_corpus
from parikhbound import (InputError, LinearGrammar, build_kfold,
                         differential_grammar, materialize_iterate,
                         suggested_depth, trim)
from parikhbound.grammar import cfg, enumerate_words
from parikhbound.newton import v_symbol
from parikhbound.pdn import acceptor_to_cfg, encode_to_acceptors, family_instance

G_EX_DIFFERENTIAL = {
    ("X0", ("a", "X1")),
    ("X0", ("a", "v_X1")),
    ("X0", ("a",)),
    ("X1", ("X0", "b")),
    ("X1", ("a", "X1", "b", "v_X0")),
    ("X1", ("a", "v_X1", "b", "X0")),
    ("X1", ("v_X0", "b")),
    ("X1", ("a", "v_X1", "b", "v_X0")),
}


def test_differential_grammar_fixture():
    gt = differential_grammar(G_EX)
    assert set(gt.productions) == G_EX_DIFFERENTIAL
    assert isinstance(gt, LinearGrammar)


def test_differential_of_terminal_grammar_is_itself():
    g = cfg({"X"}, ["a"], [("X", ("a",))], "X")
    gt = differential_grammar(g)
    assert set(gt.productions) == {("X", ("a",))}


def test_differential_rejects_symbol_clash():
    g = cfg({"X"}, ["v_X"], [("X", ("v_X",))], "X")
    with pytest.raises(InputError):
        differential_grammar(g)


def test_differential_is_linear():
    for g in [G_EX] + random_corpus(8):
        gt = differential_grammar(trim(g))
        for _, rhs in gt.productions:
            assert sum(1 for s in rhs if s in gt.variables) <= 1


def test_size_bound():
    for g in [G_EX] + random_corpus(8):
        t = trim(g)
        gt = differential_grammar(t)
        bound = sum(1 + sum(1 for s in rhs if s in t.variables)
                    for _, rhs in t.productions)
        assert len(gt.productions) <= bound


def test_build_kfold_base_level():
    kf = build_kfold(G_EX)
    assert kf.depth == 2
    assert kf.base_words("X0") == (("a",),)
    assert kf.base_words("X1") == ()
    assert v_symbol("X0") in kf.differential.terminals


def test_materialize_level_zero():
    kf = build_kfold(G_EX)
    g0 = materialize_iterate(kf, "X0", 0)
    assert set(enumerate_words(g0, 6)) == {("a",)}


def test_materialize_levels_are_monotone():
    kf = build_kfold(G_EX)
    prev: set = set()
    for k in range(kf.depth + 1):
        cur = set(enumerate_words(materialize_iterate(kf, "X0", k), 7))
        assert prev <= cur
        prev = cur


def test_materialize_converges_on_running_example():
    kf = build_kfold(G_EX)
    iterate = materialize_iterate(kf, "X0", kf.depth)
    assert per_length_parikh(iterate, 8) == per_length_parikh(G_EX, 8)


def test_iterate_words_belong_to_language():
    # every word of the iterate is a word of the base language
    kf = build_kfold(G_EX)
    base = set(enumerate_words(trim(G_EX), 8))
    for k in range(kf.depth + 1):
        for w in enumerate_words(materialize_iterate(kf, "X0", k), 8):
            assert w in base


def test_suggested_depth_keeps_the_parikh_image_of_the_family_acceptors():
    # the staged bound counts one step for each linear block on a chain
    for k in (1, 2, 3):
        for a in encode_to_acceptors(*family_instance(k)):
            g = trim(acceptor_to_cfg(a))
            kf = build_kfold(g, suggested_depth(g))
            iterate = materialize_iterate(kf, g.start, kf.depth)
            assert per_length_parikh(iterate, 6, g.terminals) == \
                per_length_parikh(g, 6), (k, kf.depth)


def test_suggested_depth_bounds():
    for g in [G_EX] + random_corpus(8):
        t = trim(g)
        d = suggested_depth(t)
        assert 0 <= d <= len(t.variables)


def test_materialize_rejects_unknown_variable():
    kf = build_kfold(G_EX)
    with pytest.raises(InputError):
        materialize_iterate(kf, "Z", 1)
