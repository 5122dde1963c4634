import pytest

from helpers import ANBN, DYCK1, G_EX, PALIN, Budget
from parikhbound import (BudgetError, InputError, IntersectionInstance,
                         cyk_membership, eb, enumerate_words,
                         intersect_modulo, parse_grammar, progress_trace,
                         semi_algorithm, trim)
from parikhbound import diophantine, intersect
from parikhbound.grammar import cfg
from parikhbound.intersect import refine
from parikhbound.semilinear import (parikh_semilinear,
                                    sl_intersection_witness)
from parikhbound.symbols import eb_to_nfa

AB_STAR = cfg({"T"}, ["a", "b"],
              [("T", ("a", "b", "T")), ("T", ())], "T")  # (ab)*
A_PLUS = cfg({"A"}, ["a"], [("A", ("a", "A")), ("A", ("a",))], "A")
B_PLUS = cfg({"B"}, ["b"], [("B", ("b", "B")), ("B", ("b",))], "B")
ANB2N = cfg({"S"}, ["a", "b"],
            [("S", ("a", "S", "b", "b")), ("S", ())], "S")


def test_intersect_modulo_fixture():
    w = intersect_modulo([ANBN, AB_STAR], eb([("a",), ("b",)]))
    assert w == ("a", "b")
    assert cyk_membership(ANBN, w) and cyk_membership(AB_STAR, w)


def test_intersect_modulo_empty_cases():
    assert intersect_modulo([A_PLUS, B_PLUS],
                            eb([("a",), ("b",)])) is None
    # nonempty intersection but B misses it entirely
    assert intersect_modulo([ANBN, ANBN], eb([("b",), ("a",)])) is None


def test_intersect_modulo_epsilon_bound():
    assert intersect_modulo([ANB2N], eb([])) == ()
    assert intersect_modulo([ANBN], eb([])) is None


def test_intersect_modulo_needs_grammar():
    with pytest.raises(InputError):
        intersect_modulo([], eb([]))


def test_refine_removes_exactly_bounded_part():
    b = eb([("a",), ("b",)])  # a* b* contains all of {a^n b^n}
    r = refine(trim(ANBN), b)
    assert not enumerate_words(r, 8)
    # refining Dyck-1 by a*b* keeps exactly the words outside a*b*
    r2 = refine(trim(DYCK1), b)
    nfa = eb_to_nfa(b, trim(DYCK1).terminals)
    expected = {w for w in enumerate_words(trim(DYCK1), 8) if not nfa.accepts(w)}
    assert set(enumerate_words(r2, 8)) == expected


def intersection_oracle(grammars, max_length):
    words = set(enumerate_words(trim(grammars[0]), max_length))
    for g in grammars[1:]:
        words = {w for w in words if cyk_membership(trim(g), w)}
    return words


def check_sound(grammars, max_rounds=3, oracle_length=8):
    result = semi_algorithm(IntersectionInstance(tuple(grammars)),
                            max_rounds=max_rounds)
    oracle = intersection_oracle(list(grammars), oracle_length)
    if result.status == "nonempty":
        assert all(cyk_membership(trim(g), result.witness) for g in grammars)
    elif result.status == "empty":
        assert not oracle, oracle
    return result


def test_semi_algorithm_nonempty():
    r = check_sound([ANBN, AB_STAR])
    assert r.status == "nonempty" and r.witness == ("a", "b")


def test_semi_algorithm_empty_by_parikh_disjointness():
    r = check_sound([A_PLUS, B_PLUS])
    assert r.status == "empty" and r.rounds == 1


def test_semi_algorithm_empty_intersection_same_alphabet():
    # a^n b^n vs a^n b^2n intersect only in the empty word here excluded
    no_eps = cfg({"S"}, ["a", "b"],
                 [("S", ("a", "S", "b", "b")), ("S", ("a", "b", "b"))], "S")
    check_sound([ANBN, no_eps])


def test_semi_algorithm_nonempty_epsilon():
    r = check_sound([ANB2N, AB_STAR])
    assert r.status == "nonempty"


def test_semi_algorithm_single_grammar():
    r = check_sound([G_EX])
    assert r.status == "nonempty"


def test_progress_trace_fixture():
    g = cfg({"S"}, ["a", "b"],
            [("S", ("a", "S", "b")), ("S", ())], "S")
    assert progress_trace(g, ("a", "b")) == 1


def test_progress_trace_rejects_non_member():
    with pytest.raises(InputError):
        progress_trace(ANBN, ("b",))


def test_instance_requires_grammar():
    with pytest.raises(InputError):
        IntersectionInstance(())


def _zero_node_budgets(monkeypatch):
    monkeypatch.setattr(diophantine, "NODE_BUDGET", 0)


def test_exhausted_budget_never_answers_empty(monkeypatch):
    # the Parikh images here have no periods, so no search runs and a node
    # budget cannot bite; every intersection decision is made to run out
    # of budget instead.  "a a" is in both languages.
    grammars = (parse_grammar("S -> b c | a a"),
                parse_grammar("T -> c b | a a"))

    def exhausted(a, b):
        raise BudgetError("Diophantine search budget exhausted")

    monkeypatch.setattr(intersect, "sl_intersection_witness", exhausted)
    result = semi_algorithm(IntersectionInstance(grammars))
    assert result.status == "unknown"
    with pytest.raises(BudgetError):
        intersect_modulo(list(grammars), eb([("a", "a")]))


def test_zero_node_budget_gives_unknown_not_empty(monkeypatch):
    # 3n + 1 and 3m + 3 never meet, but only over the integers: proving it
    # takes a search, which a zero budget stops
    grammars = (parse_grammar("X -> a a a X | a"),
                parse_grammar("Y -> a a a Y | a a a"))
    assert semi_algorithm(IntersectionInstance(grammars)).status == "empty"
    _zero_node_budgets(monkeypatch)
    assert semi_algorithm(IntersectionInstance(grammars)).status == "unknown"
    for texts in (("S -> b c | a a", "T -> c b | a a"),
                  ("S -> a S b | a b", "T -> a b T | eps")):
        pair = tuple(parse_grammar(t) for t in texts)
        result = semi_algorithm(IntersectionInstance(pair))
        assert result.status == "nonempty"
        assert all(cyk_membership(g, result.witness) for g in pair)


def test_three_images_fall_back_to_a_shared_constant(monkeypatch):
    # with no node budget every search runs out at once; (2, 1), the image
    # of "a a b", is a constant of every image and still answers
    grammars = [parse_grammar("X -> a a b | a X a"),
                parse_grammar("Y -> a a b | b Y b"),
                parse_grammar("Z -> a a b | a a a b Z")]
    images = [parikh_semilinear(g) for g in grammars]
    _zero_node_budgets(monkeypatch)
    assert sl_intersection_witness(*images) == (2, 1)
    result = semi_algorithm(IntersectionInstance(tuple(grammars)))
    assert result.status == "nonempty"
    assert all(cyk_membership(g, result.witness) for g in grammars)
    # with no shared constant the search's BudgetError propagates
    images[2] = parikh_semilinear(parse_grammar("Z -> a a a b Z | a"))
    with pytest.raises(BudgetError):
        sl_intersection_witness(*images)


def test_dyck_against_short_words_is_empty():
    # used to spend minutes in prune on the projected grammar inside B
    with Budget(30):
        r = check_sound([parse_grammar("D -> a b | a D b | D D"),
                         parse_grammar("X0 -> eps | b X1\nX1 -> a")])
    assert r.status == "empty"


def test_five_letter_witness_is_found():
    # the fast-path candidates miss; the witness comes from inside B
    grammars = [parse_grammar("X0 -> b a X0 | b b | b b a"),
                parse_grammar("X0 -> eps | b a X1\nX1 -> b | b b a")]
    with Budget(30):
        r = check_sound(grammars)
    assert r.status == "nonempty" and r.witness == ("b", "a", "b", "b", "a")
    # a round whose candidates all fail is decided inside B that same round
    assert r.rounds == 1


def test_round_one_of_the_running_example_and_palindromes():
    # B's block projections meet in no vector.  Nearly all of their
    # component pairs differ in a constant where one side has no period;
    # a Diophantine search on each pair took over a minute
    with Budget(20):
        states = []
        result = semi_algorithm(IntersectionInstance((G_EX, PALIN)),
                                max_rounds=1, states=states)
        assert result.status == "unknown"
        assert intersect_modulo([G_EX, PALIN], states[0].bounded) is None
