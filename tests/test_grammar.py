import copy
import importlib.util
from itertools import product
from pathlib import Path

import pytest

from helpers import (ANBN, CORE_CORPUS, DYCK1, G_EX, PALIN, Budget,
                     corpus_and_acceptors, full_corpus, per_length_parikh,
                     reference_transducer_product)
from parikhbound import (BudgetError, Cfg, InputError, alphabet,
                         block_projection, bounded_subset, cyk_membership,
                         enumerate_words, format_grammar,
                         parikh_equivalent_bounded, parse_grammar,
                         product_with_dfa, simplify, trim)
from parikhbound.grammar import (CnfGrammar, cfg, concat_grammars,
                                 finite_cfg, is_empty_language, to_cnf,
                                 transducer_product)
from parikhbound.intersect import refine
from parikhbound.pdn import acceptor_to_cfg, encode_to_acceptors, family_instance
from parikhbound.symbols import (Nfa, chars, determinize, eb, eb_complement_dfa,
                                 eb_to_nfa)

AB = alphabet(["a", "b"])

ORACLES = Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py"


def _oracles():
    """The benchmark's reference computations, which decide membership and
    enumerate words straight from the productions."""
    spec = importlib.util.spec_from_file_location("oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _oracles()

# Grammars whose shapes the normal-form steps treat specially
ODD_SHAPES = [
    # epsilon-productions, on the start variable and inside
    parse_grammar("S -> A S B | eps\nA -> a | eps\nB -> b"),
    # a unit cycle
    parse_grammar("X -> Y | a\nY -> X | b"),
    # a variable with no productions, once optional and once needed
    cfg({"S", "Z"}, ["a", "b"], [("S", ("a", "Z")), ("S", ("b", "a"))], "S"),
    cfg({"S", "Z"}, ["a", "b"], [("S", ("a", "Z")), ("S", ("Z",))], "S"),
    # a chain of nullable variables
    parse_grammar("S -> A a A\nA -> B\nB -> C C\nC -> D | b\nD -> eps"),
]

# Variables already named as the first helpers that binarize (bin#0) and the
# TERM step (term#0) would add; a long rule with terminals needs both
HELPER_NAMED = cfg({"S", "bin#0", "term#0"}, ["a", "b"],
                   [("S", ("a", "bin#0", "b", "term#0")), ("S", ("b",)),
                    ("bin#0", ("b", "a", "S")), ("bin#0", ()),
                    ("term#0", ("a", "a", "b")), ("term#0", ("S", "a"))],
                   "S")


def words_set(g, n):
    return set(enumerate_words(trim(g), n))


def words_over(sigma, n):
    """Every word over sigma of length at most n."""
    return [w for k in range(n + 1) for w in product(sigma, repeat=k)]


def test_parse_format_round_trip():
    text = "start X0\nX0 -> a X1 | a\nX1 -> X0 b | a X1 b X0\n"
    g = parse_grammar(text)
    assert g == G_EX
    assert parse_grammar(format_grammar(g)) == g


def test_parse_eps_and_comments():
    g = parse_grammar("# comment\nS -> a S | eps\n")
    assert ("S", ()) in g.productions
    assert g.start == "S"


def test_printed_grammar_parses_back():
    # helper variables such as S#0 and [1,bin#0,2] hold a '#'
    t = format_grammar(bounded_subset(parse_grammar("S -> a S b | a b")))
    assert "#" in t
    assert format_grammar(parse_grammar(t)) == t
    g = parse_grammar("S -> a b  # note\n")
    assert g == cfg({"S"}, ["a", "b"], [("S", ("a", "b"))], "S")


def test_parse_a_variable_named_start():
    # a line with '->' is a rule even when it begins with "start"
    recursive = parse_grammar("start -> a start | b\n")
    assert recursive == cfg({"start"}, ["a", "b"],
                            [("start", ("a", "start")), ("start", ("b",))],
                            "start")
    inner = parse_grammar("S -> start\nstart -> a\n")
    assert inner == cfg({"S", "start"}, ["a"],
                        [("S", ("start",)), ("start", ("a",))], "S")
    for g in (recursive, inner):
        assert parse_grammar(format_grammar(g)) == g


def test_parse_errors():
    with pytest.raises(InputError):
        parse_grammar("")
    with pytest.raises(InputError):
        parse_grammar("no arrow here")
    with pytest.raises(InputError):
        parse_grammar("start Z\nS -> a\n")
    # the empty word is written eps, never as an empty alternative
    for text in ("S -> a S |", "S -> a || b", "S ->", "S -> | a"):
        with pytest.raises(InputError, match="empty alternative"):
            parse_grammar(text)


def test_trim_removes_useless_variables():
    g = cfg({"S", "U", "D"}, ["a"],
            [("S", ("a",)), ("U", ("U", "a")),  # U unproductive
             ("D", ("a",))],                    # D unreachable
            "S")
    t = trim(g)
    assert t.variables == frozenset({"S"})


def test_is_empty_language():
    assert not is_empty_language(G_EX)
    assert is_empty_language(cfg({"S"}, ["a"], [("S", ("S", "a"))], "S"))


def test_cyk_membership_fixtures():
    assert cyk_membership(G_EX, chars("a"))
    assert cyk_membership(G_EX, chars("aab"))
    assert not cyk_membership(G_EX, chars("b"))
    assert cyk_membership(PALIN, ())
    assert not cyk_membership(ANBN, ())


def test_cyk_agrees_with_enumeration():
    for g in (G_EX, DYCK1, ANBN, PALIN):
        lang = words_set(g, 6)
        sigma = trim(g).terminals
        frontier = [()]
        for _ in range(6):
            for w in frontier:
                assert cyk_membership(g, w) == (w in lang), w
            frontier = [w + (a,) for w in frontier for a in sigma]


def test_enumerate_words_fixtures():
    assert words_set(G_EX, 1) == {chars("a")}
    assert words_set(G_EX, 3) == {chars("a"), chars("aab")}


def rebuilt_from_cnf(g):
    cnf = to_cnf(g)
    start = "cnf-start"
    prods = ([(x, (y, z)) for x, y, z in cnf.binary]
             + [(x, (a,)) for x, a in cnf.unary]
             + [(start, (cnf.start,))] + [(start, ())] * cnf.eps_in_language)
    variables = {start, cnf.start} | {x for r in cnf.binary for x in r} | {
        x for x, _ in cnf.unary}
    return cfg(variables, g.terminals, prods, start)


def test_enumerate_words_agrees_with_oracle():
    # epsilon in the language, and max_length 0 and 1, are covered
    for g in full_corpus() + ODD_SHAPES + [HELPER_NAMED]:
        t = trim(g)
        for n in range(8):
            assert set(enumerate_words(t, n)) == oracles.words_upto(g, n), \
                (g.start, n)
        with pytest.raises(InputError):
            enumerate_words(t, -1)


def test_enumeration_budget_counts_stored_words():
    # the table stores, for each CNF variable, its nonempty words up to n;
    # the words of length 1 count as well, so a grammar with no binary rule,
    # or n = 1, runs out of budget too
    for g in full_corpus():
        t = trim(g)
        cnf, r = to_cnf(t), rebuilt_from_cnf(t)
        variables = ({x for rule in cnf.binary for x in rule}
                     | {x for x, _ in cnf.unary} | {cnf.start})
        for n in (1, 6):
            stored = sum(1 for x in variables
                         for w in oracles.words_upto(
                             Cfg(r.variables, r.terminals, r.productions, x),
                             n)
                         if w)
            enumerate_words(t, n, budget=stored)
            with pytest.raises(BudgetError):
                enumerate_words(t, n, budget=stored - 1)
    with pytest.raises(BudgetError):
        enumerate_words(trim(parse_grammar("S -> a S | a")), 1, budget=0)


def test_to_cnf_preserves_language():
    # a grammar rebuilt from a CNF holds term#0, and bin#0 if it had a long
    # rule; a long rule added to it makes to_cnf name new helpers again
    corpus = full_corpus() + ODD_SHAPES + [HELPER_NAMED]
    again = []
    for g in corpus:
        r = rebuilt_from_cnf(g)
        long_rule = (r.start, (g.terminals.symbols[0],) * 2 + (r.start,))
        again.append(Cfg(r.variables, r.terminals,
                         r.productions | {long_rule}, r.start))
    for g in corpus + again:
        assert oracles.words_upto(rebuilt_from_cnf(g), 5) \
            == oracles.words_upto(g, 5), g.start


def test_to_cnf_keeps_no_dead_binary_rule():
    # grammar #10 of the corpus, X0 -> a a | b X1 a; X1 -> eps, once kept
    # bin -> X1 term although X1 heads no rule after the nullable step
    for g in full_corpus() + ODD_SHAPES:
        cnf = to_cnf(g)
        heads = {x for x, _, _ in cnf.binary} | {x for x, _ in cnf.unary}
        assert {v for _, y, z in cnf.binary for v in (y, z)} <= heads, g.start


def test_cyk_agrees_with_derivation_oracle():
    for g in full_corpus() + ODD_SHAPES:
        for w in words_over(g.terminals.symbols, 6):
            assert cyk_membership(g, w) == oracles.derives(g, w), (g.start, w)


def test_trim_and_emptiness_agree_with_oracle():
    empty = cfg({"S", "U"}, ["a"], [("S", ("a", "U")), ("U", ("U", "a"))], "S")
    for g in full_corpus() + ODD_SHAPES + [empty]:
        words = oracles.words_upto(g, 6)
        assert is_empty_language(g) == (not words)
        t = trim(g)
        assert oracles.words_upto(t, 6) == words
        # every variable trim keeps derives a word
        for x in t.variables - {t.start}:
            assert oracles.words_upto(Cfg(t.variables, t.terminals,
                                          t.productions, x), 6), x


def test_enumeration_of_an_acceptor_grammar_ends():
    # set joins over whole right-hand sides ran for minutes here before the
    # budget on stored words could fire
    g = acceptor_to_cfg(encode_to_acceptors(*family_instance(1))[0])
    with Budget(10):
        try:
            enumerate_words(g, 7)
        except BudgetError:
            pass


def test_product_with_dfa_filters_language():
    bounded = [eb([("a",), ("b",)]),  # a* b*
               eb([("a", "b"), ("a",), ("b", "a"), ("a", "b")])]
    for g in full_corpus() + ODD_SHAPES:
        sigma = g.terminals
        for b in bounded:
            # B itself, and its complement as refine uses it
            for dfa in (determinize(eb_to_nfa(b, sigma)),
                        eb_complement_dfa(b, sigma)):
                expected = {w for w in oracles.words_upto(g, 6)
                            if dfa.accepts(w)}
                assert oracles.words_upto(product_with_dfa(g, dfa), 6) == expected


def test_block_projection_counts_blocks():
    # same first letters, and a repeated word, make the parse of w1^t1...
    # ambiguous; the projection must still hold exactly the block counts t
    word_lists = [(("a",), ("a", "b"), ("b",), ("a",)),
                  (("a", "b"), ("b",), ("a", "a"), ("a", "b"))]
    for g in CORE_CORPUS:
        for words in word_lists:
            proj = block_projection(trim(g), words)
            for t in product(range(5), repeat=len(words)):
                if sum(t) > 4:
                    continue
                counts = tuple(f"a{j}" for j, tj in enumerate(t, 1)
                               for _ in range(tj))
                w = sum((wj * tj for wj, tj in zip(words, t)), ())
                assert cyk_membership(proj, counts) == cyk_membership(g, w), \
                    (g.start, words, t)


def test_product_matches_the_bottom_up_reference():
    # the product as block_projection, bounded_subset and refine build it:
    # B itself, the chain that writes a block's letter, B's complement
    def copy(q, a, q2):
        return (a,)

    checked = 0
    for g in corpus_and_acceptors():
        b = parikh_equivalent_bounded(g)
        if len(b.words) > 400:
            continue

        def to_block(q, a, q2, k=b.k):
            # the chain's boundaries 1..k end the blocks
            return (f"a{q2}",) if q2 <= k else ()

        g = trim(g)
        blocks = alphabet([f"a{j}" for j in range(1, len(b.words) + 1)])
        for t, out_sigma, emit in (
                (eb_to_nfa(b, g.terminals), g.terminals, copy),
                (eb_to_nfa(b, g.terminals), blocks, to_block),
                (eb_complement_dfa(b, g.terminals), g.terminals, copy)):
            product_g = transducer_product(g, t, out_sigma, emit)
            assert product_g == reference_transducer_product(
                g, t, out_sigma, emit)
            assert trim(product_g) == product_g
            checked += 1
        assert block_projection(g, b.words) == transducer_product(
            g, eb_to_nfa(b, g.terminals), blocks, to_block)
        assert bounded_subset(g, b) == transducer_product(
            g, eb_to_nfa(b, g.terminals), g.terminals, copy)
    assert checked >= 60


def test_products_leave_the_automaton_moves_unchanged(monkeypatch):
    # the product hands the automaton's own successor maps to the engine as
    # the terminals' relations; no product may add to them
    built = []

    def recording(make):
        def build(*args):
            t = make(*args)
            built.append((t.moves, copy.deepcopy(t.moves)))
            return t
        return build

    monkeypatch.setattr("parikhbound.grammar.eb_to_nfa",
                        recording(eb_to_nfa))
    monkeypatch.setattr("parikhbound.boundedgen.eb_to_nfa",
                        recording(eb_to_nfa))
    monkeypatch.setattr("parikhbound.intersect.eb_complement_dfa",
                        recording(eb_complement_dfa))
    calls = 0
    for g in full_corpus():
        b = parikh_equivalent_bounded(g)
        if len(b.words) > 100:
            continue
        bounded_subset(g, b)
        block_projection(trim(g), b.words)
        refine(g, b)
        calls += 3
    assert len(built) == calls >= 30
    for moves, before in built:
        assert moves == before


def test_block_projection_of_the_expression_grammar():
    # 356,884 productions; the bottom-up product took over 20 s
    g = parse_grammar("E -> E p T | T\nT -> T m F | F\nF -> l E r | x\n")
    b = parikh_equivalent_bounded(g)
    with Budget(20):
        proj = block_projection(trim(g), b.words)
    assert any(lhs == proj.start for lhs, _ in proj.productions)


def test_bounded_subset_of_the_expression_grammar():
    # the product with the 178-word chain of B has 356,884 productions;
    # with B's determinized automaton it had 487,237 and took 10 s
    g = parse_grammar("E -> E p T | T\nT -> T m F | F\nF -> l E r | x\n")
    b = parikh_equivalent_bounded(g)
    with Budget(6):
        sub = bounded_subset(g, b)
    text = format_grammar(sub)
    assert format_grammar(parse_grammar(text)) == text


def test_unit_self_loops():
    # X -> X joins a variable's relation with itself while the engine adds
    # to it; the answers are those of the engine over sets of pairs
    g = parse_grammar("S -> S | A B\nA -> A | a | S\nB -> B | b | eps\n"
                      "D -> D | D a\n")
    assert format_grammar(trim(g)) == (
        "start S\nA -> A | S | a\nB -> eps | B | b\nS -> A B | S\n")
    assert to_cnf(g) == CnfGrammar(
        "S", (("A", "A", "B"), ("S", "A", "B")),
        (("A", "a"), ("B", "b"), ("S", "a")), False)
    h = parse_grammar("S -> S | S S | X\nX -> X | a X b | eps\n")
    assert to_cnf(h) == CnfGrammar(
        "S", (("S", "S", "S"), ("S", "term#0", "bin#0"),
              ("X", "term#0", "bin#0"), ("bin#0", "X", "term#1")),
        (("bin#0", "b"), ("term#0", "a"), ("term#1", "b")), True)
    for grammar, members in ((g, {"a", "ab", "abb", "abbb"}),
                             (h, {"", "ab", "aabb", "abab"})):
        for n in range(5):
            for w in product("ab", repeat=n):
                assert cyk_membership(grammar, w) == ("".join(w) in members)


def test_product_with_empty_dfa_is_empty():
    dfa = determinize(eb_to_nfa(eb([("a",)]), AB))
    empty = Nfa(dfa.states, dfa.alphabet, dfa.moves, dfa.initial,
                frozenset())
    assert is_empty_language(product_with_dfa(trim(G_EX), empty))


def test_product_with_full_dfa_is_identity():
    full = determinize(eb_to_nfa(eb([]), AB))
    full = Nfa(full.states, full.alphabet, full.moves, full.initial,
               full.states)
    inter = product_with_dfa(trim(G_EX), full)
    assert words_set(inter, 6) == words_set(G_EX, 6)
    assert per_length_parikh(inter, 6, AB) == per_length_parikh(G_EX, 6, AB)


def test_concat_grammars():
    epsg = finite_cfg([()], AB)
    assert words_set(concat_grammars([G_EX, epsg], AB), 6) == words_set(G_EX, 6)
    c = concat_grammars([ANBN, ANBN], AB)
    expected = {u + v for u in words_set(ANBN, 4) for v in words_set(ANBN, 4)
                if len(u) + len(v) <= 6}
    assert words_set(c, 6) == expected


def test_simplify_preserves_language():
    for g in (G_EX, DYCK1, ANBN):
        s = simplify(g)
        assert isinstance(s, Cfg)
        assert words_set(s, 7) == words_set(g, 7)
