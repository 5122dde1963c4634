import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import eb_words, greedy_collapse
from parikhbound import (InputError, alphabet, determinize, eb, eb_concat,
                         eb_complement_dfa, eb_from_text, eb_to_nfa,
                         eb_to_text, nfa_to_regex, parikh_of_word, word)
from parikhbound.grammar import cyk_membership, regex_to_cfg
from parikhbound.symbols import chars

AB = alphabet(["a", "b"])


def all_words(sigma, max_length):
    out = [()]
    frontier = [()]
    for _ in range(max_length):
        frontier = [w + (a,) for w in frontier for a in sigma]
        out.extend(frontier)
    return out


def test_word_parsing():
    assert word("a b a") == ("a", "b", "a")
    assert word("") == ()
    assert word("eps") == ()
    assert chars("aba") == ("a", "b", "a")


def test_alphabet_rejects_duplicates():
    with pytest.raises(InputError):
        alphabet(["a", "a"])


def test_parikh_of_word():
    assert parikh_of_word(chars("abba"), AB) == (2, 2)
    assert parikh_of_word((), AB) == (0, 0)
    with pytest.raises(InputError):
        parikh_of_word(("c",), AB)


def test_eb_drops_empty_factors():
    assert eb([(), ("a",), ()]).words == (("a",),)
    assert eb([]).k == 0


def test_eb_concat_absorbs_adjacent_powers():
    # x* x* = x* and x* (xx)* = x*
    assert eb_concat(eb([("a",)]), eb([("a",)])).words == (("a",),)
    assert eb_concat(eb([("a",)]), eb([("a", "a")])).words == (("a",),)
    # non-powers are kept
    assert eb_concat(eb([("a",)]), eb([("a", "b")])).k == 2


# words are powers of these roots, so that many are powers of one another
ROOTS = [chars("a"), chars("aa"), chars("ab"), chars("abab"), chars("b")]


@st.composite
def split_words(draw):
    """A list of words, parts that hold it in order (some built by eb() and
    some by eb_concat), and a place to cut the list of parts."""
    words = draw(st.lists(st.builds(lambda r, n: r * n, st.sampled_from(ROOTS),
                                    st.integers(1, 3)), max_size=12))
    cuts = sorted(draw(st.sets(st.integers(0, len(words)), max_size=4)))
    bounds = [0] + cuts + [len(words)]
    parts = []
    for i, j in zip(bounds, bounds[1:]):
        chunk = words[i:j]
        parts.append(eb(chunk) if draw(st.booleans())
                     else eb_concat(*[eb([w]) for w in chunk]))
    return words, parts, draw(st.integers(0, len(parts)))


@settings(max_examples=200, deadline=None)
@given(split_words())
# a part from eb_concat whose first two words are both powers of the last
# word kept, while the second is no power of the first
@example(([("a",), ("a", "a"), ("a", "a", "a")],
          [eb([("a",)]), eb_concat(eb([("a", "a")]), eb([("a", "a", "a")]))],
          1))
def test_eb_concat_is_an_associative_greedy_collapse(split):
    words, parts, cut = split
    flat = eb_concat(*parts)
    assert flat.words == tuple(greedy_collapse(words))
    assert eb_concat(eb_concat(*parts[:cut]), eb_concat(*parts[cut:])) == flat


def test_eb_nfa_matches_definition_oracle():
    b = eb([chars("ab"), chars("a"), chars("ba")])
    nfa = eb_to_nfa(b, AB)
    expected = eb_words(b, 5)
    for w in all_words(AB, 5):
        assert nfa.accepts(w) == (w in expected), w


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=3),
                max_size=3))
def test_eb_nfa_matches_definition_oracle_random(words):
    b = eb([tuple(w) for w in words])
    nfa = eb_to_nfa(b, AB)
    expected = eb_words(b, 4)
    for w in all_words(AB, 4):
        assert nfa.accepts(w) == (w in expected)


def test_complement_dfa():
    b = eb([chars("ab")])
    comp = eb_complement_dfa(b, AB)
    expected = eb_words(b, 4)
    for w in all_words(AB, 4):
        assert comp.accepts(w) == (w not in expected), w


def test_determinize_preserves_language():
    b = eb([chars("ab"), chars("b")])
    nfa = eb_to_nfa(b, AB)
    dfa = determinize(nfa)
    for w in all_words(AB, 5):
        assert dfa.accepts(w) == nfa.accepts(w)
    # deterministic and total, as eb_complement_dfa needs
    assert len(dfa.initial) == 1
    for q in dfa.states:
        for a in AB:
            assert len(dfa.step(frozenset({q}), a)) == 1, (q, a)


def test_nfa_regex_nfa_round_trip():
    b = eb([chars("ab"), chars("a")])
    nfa = eb_to_nfa(b, AB)
    back = regex_to_cfg(nfa_to_regex(nfa), AB)
    for w in all_words(AB, 5):
        assert cyk_membership(back, w) == nfa.accepts(w), w


def test_eb_text_round_trip():
    b = eb([chars("ab"), chars("ba")])
    assert eb_from_text(eb_to_text(b)) == b
    assert eb_from_text(eb_to_text(eb([]))) == eb([])
