import hashlib
from collections import Counter
from functools import reduce
from itertools import product as iproduct

from helpers import (ANBN, DYCK1, G_EX, PALIN, corpus_and_acceptors,
                     eb_words, full_corpus, per_length_parikh,
                     reference_bounded_for_substitution,
                     reference_parikh_equivalent_bounded)
from parikhbound import (LinearGrammar, alphabet, bounded_for_linear,
                         bounded_for_powers, bounded_for_regex,
                         bounded_subset, cyk_membership, decompose_linear,
                         enumerate_words, eb, eb_concat, eb_to_nfa,
                         parikh_equivalent_bounded, parikh_image,
                         parse_grammar, trim, verify_parikh_property)
from parikhbound import boundedgen
from parikhbound.boundedgen import bounded_for_substitution
from parikhbound.grammar import (cfg, concat_grammars, finite_cfg,
                                 is_empty_language)
from parikhbound.semilinear import wit_minkowski, wit_singleton
from parikhbound.symbols import RStar, RSym, parikh_of_word, rconcat, runion

AB = alphabet(["a", "b"])


def test_verify_parikh_property_detects_failure():
    # b*a* misses every word of {a^n b^n}; (ab)* covers only n = 1
    assert not verify_parikh_property(trim(ANBN), eb([("b",), ("a",)]), 4)
    assert not verify_parikh_property(trim(ANBN), eb([("a", "b")]), 6)
    # a*b* covers the whole language
    assert verify_parikh_property(trim(ANBN), eb([("a",), ("b",)]), 6)


def test_bounded_for_regex():
    # (a | b)* ab
    r = rconcat(RStar(runion(RSym("a"), RSym("b"))),
                rconcat(RSym("a"), RSym("b")))
    b = bounded_for_regex(r, AB)
    # every Parikh vector of the regex language has a mate in the bounded part
    lang_vecs = set()
    words = [()]
    for _ in range(5):
        words = [w + (s,) for w in words for s in ("a", "b")]
        lang_vecs |= {parikh_of_word(w, AB) for w in words
                      if len(w) >= 2 and w[-2:] == ("a", "b")}
    in_vecs = {parikh_of_word(w, AB) for w in eb_words(b, 5)}
    assert lang_vecs <= in_vecs


def test_decompose_linear_reconstructs_words():
    lg = LinearGrammar(PALIN.variables, PALIN.terminals, PALIN.productions,
                       PALIN.start)
    nfa, sides = decompose_linear(lg)
    lang = set(enumerate_words(trim(PALIN), 6))
    # the left sides of p1..pm, then the right sides of pm..p1, for every
    # accepted production word p1..pm
    rebuilt = set()
    for length in range(0, 5):
        for w in iproduct(nfa.alphabet.symbols, repeat=length):
            if nfa.accepts(w):
                full = (tuple(a for p in w for a in sides[p][0])
                        + tuple(a for p in reversed(w) for a in sides[p][1]))
                if len(full) <= 6:
                    assert full in lang, (w, full)
                    rebuilt.add(full)
    # and every word up to length 6 comes from a production word of length
    # at most 4: three letters for its three letter pairs, one for P -> eps
    assert rebuilt == lang


def test_bounded_for_linear_on_palindromes():
    lg = LinearGrammar(PALIN.variables, PALIN.terminals, PALIN.productions,
                       PALIN.start)
    b = bounded_for_linear(lg)
    assert verify_parikh_property(trim(PALIN), b, 8)


def test_parikh_equivalent_bounded_on_corpus():
    for i, g in enumerate(full_corpus()):
        b = parikh_equivalent_bounded(g)
        assert verify_parikh_property(trim(g), b, 8), i
    # X0 -> X2 X0 | a a a; X2 -> a b a | b X2 has a B of 37 words
    assert len(parikh_equivalent_bounded(full_corpus()[14]).words) <= 40


def _check_powers(g, bp):
    """Parikh(L^t intersect B') = Parikh(L^t) per length up to 8, for
    t = 0..3."""
    sigma = g.terminals
    nfa = eb_to_nfa(bp, sigma)
    for t in range(4):
        lt = (finite_cfg([()], sigma) if t == 0
              else concat_grammars([g] * t, sigma))
        per_all = per_length_parikh(lt, 8, sigma)
        per_in: dict[int, set] = {}
        for w in enumerate_words(trim(lt), 8):
            if nfa.accepts(w):
                per_in.setdefault(len(w), set()).add(parikh_of_word(w, sigma))
        for n, vecs in per_all.items():
            assert vecs == per_in.get(n, set()), (g.start, t, n)


def test_bounded_for_powers():
    g = trim(ANBN)
    _check_powers(g, bounded_for_powers(g, parikh_equivalent_bounded(g)))
    # a period-free component ("a") and a periodic one (b b* c): the
    # witnesses cover the first, one copy of B the second
    mixed = trim(parse_grammar("S -> a | b T\nT -> b T | c"))
    b = parikh_equivalent_bounded(mixed)
    witnesses = [w for _, w in parikh_image(mixed).components]
    bp = bounded_for_powers(mixed, b)
    assert bp == eb_concat(eb(witnesses), b)
    _check_powers(mixed, bp)
    # a+ has span{a}, inside span{a, b} of b{a,b}*: one chain, one copy
    nested = trim(parse_grammar(
        "S -> A | b T\nA -> a A | a\nT -> a T | b T | eps"))
    assert sorted(c.periods for c, _ in parikh_image(nested).components) \
        == [((0, 1), (1, 0)), ((1, 0),)]
    b = parikh_equivalent_bounded(nested)
    witnesses = [w for _, w in parikh_image(nested).components]
    bp = bounded_for_powers(nested, b)
    assert bp == eb_concat(eb(witnesses), b)
    _check_powers(nested, bp)
    # span{a} of a+ and span{b} of b+ are incomparable: two chains
    apart = trim(parse_grammar("S -> A | B\nA -> a A | a\nB -> b B | b"))
    assert sorted(c.periods for c, _ in parikh_image(apart).components) \
        == [((0, 1),), ((1, 0),)]
    b = parikh_equivalent_bounded(apart)
    witnesses = [w for _, w in parikh_image(apart).components]
    bp = bounded_for_powers(apart, b)
    assert bp == eb_concat(eb(witnesses), b, b) != eb_concat(eb(witnesses), b)
    _check_powers(apart, bp)
    # a finite language needs no copy of B at all
    finite = trim(finite_cfg([("a", "b"), ("b",), ("b", "a", "a")], AB))
    witnesses = [w for _, w in parikh_image(finite).components]
    bp = bounded_for_powers(finite, parikh_equivalent_bounded(finite))
    assert bp == eb(witnesses)
    _check_powers(finite, bp)


def test_bounded_for_substitution():
    # substitute x -> {a^n b^n} into x* and check Parikh coverage
    b = eb([("x",)])
    out = bounded_for_substitution(b, {"x": trim(ANBN)},
                                   {"x": eb([("a", "b")])}, AB)
    # the substituted language is all concatenations of a^n b^n blocks
    blocks = set(enumerate_words(trim(ANBN), 6)) | {()}
    lang = {u + v for u in blocks for v in blocks if len(u + v) <= 6}
    lang_vecs_by_len: dict[int, set] = {}
    for w in lang:
        lang_vecs_by_len.setdefault(len(w), set()).add(parikh_of_word(w, AB))
    in_words = {w for w in eb_words(out, 6)
                if cyk_in_substituted(w, blocks)}
    in_vecs_by_len: dict[int, set] = {}
    for w in in_words:
        in_vecs_by_len.setdefault(len(w), set()).add(parikh_of_word(w, AB))
    for n, vecs in lang_vecs_by_len.items():
        assert vecs <= in_vecs_by_len.get(n, set()), n


def test_bounded_for_substitution_edge_cases():
    nothing = cfg({"S"}, ["a", "b"], [("S", ("S", "a"))], "S")
    sigma = {"x": trim(ANBN), "e": nothing}
    tau = {"x": eb([("a", "b")]), "e": eb([])}

    def sub(b, memo=None):
        return bounded_for_substitution(b, sigma, tau, AB, memo)

    # a word with an empty-language letter contributes nothing
    assert sub(eb([("x", "e")])) == eb([])
    assert sub(eb([("x",), ("e", "x"), ("b", "x")])) \
        == sub(eb([("x",), ("b", "x")]))
    # a word of only unmapped letters maps to itself
    assert sub(eb([("b", "a")])) == eb([("b", "a")])
    # two calls that share one memo agree with two fresh calls
    b1 = eb([("x",), ("a", "x"), ("e",), ("x",)])
    b2 = eb([("a", "x"), ("x", "x"), ("b",), ("x", "e")])
    memo: dict = {}
    assert [sub(b1, memo), sub(b2, memo)] == [sub(b1), sub(b2)]


def test_substitution_matches_word_by_word_reference(monkeypatch):
    grammars = corpus_and_acceptors()
    fast = [parikh_equivalent_bounded(g).words for g in grammars]
    monkeypatch.setattr(boundedgen, "bounded_for_substitution",
                        reference_bounded_for_substitution)
    for g, words in zip(grammars, fast):
        assert parikh_equivalent_bounded(g).words == words


def test_bounded_languages_match_their_pinned_digest():
    # SHA-256 of the repr of every B: a change to any of these bounded
    # languages shows here
    digest = hashlib.sha256()
    for g in corpus_and_acceptors():
        digest.update(repr(parikh_equivalent_bounded(g)).encode() + b"\n")
    assert digest.hexdigest() \
        == "719f15b13c6b18f592d23e7c6541101b0150fdf84666e7a3c2ce7e1ff34e7871"


def test_substitution_shortcuts_match_the_general_path(monkeypatch):
    """Every word either shortcut takes gets the Bi of the general path,
    the powers of the Minkowski sum of its letters' images, in every
    substitution of the corpus and the acceptor grammars."""
    calls = []
    substitute = boundedgen.bounded_for_substitution

    def recording(*args):
        calls.append(args[:4])
        return substitute(*args)

    monkeypatch.setattr(boundedgen, "bounded_for_substitution", recording)
    parikh_equivalent_bounded(G_EX)
    # the level-0 call: X1 has no terminal-only right-hand side, so the
    # language of v_X1 is empty
    assert is_empty_language(calls[-1][1]["v_X1"])
    g_ex = len(calls)
    for g in corpus_and_acceptors():
        parikh_equivalent_bounded(g)
    counts = []
    for b, sigma_map, tau_map, out_alphabet in calls:
        memo: dict = {}
        substitute(b, sigma_map, tau_map, out_alphabet, memo)
        count = Counter()
        for wi in dict.fromkeys(b.words):
            parts = [parikh_image(sigma_map[a]) if a in sigma_map
                     else wit_singleton(parikh_of_word((a,), out_alphabet),
                                        (a,))
                     for a in wi]
            ti = eb_concat(*[tau_map.get(a, eb([(a,)])) for a in wi])
            general = boundedgen._powers_from_image(
                reduce(wit_minkowski, parts), ti)
            assert memo[wi] == general, wi
            count["words"] += 1
            if any(not p.components for p in parts):
                count["empty"] += 1
            elif all(len(p.components) == 1 and not p.components[0][0].periods
                     for p in parts):
                count["single-vector"] += 1
        counts.append(count)
    assert counts[g_ex - 1] == {"words": 8, "empty": 4, "single-vector": 4}
    assert sum(counts, Counter()) \
        == {"words": 4982, "empty": 2524, "single-vector": 1881}


def test_only_the_start_variables_chain_is_substituted(monkeypatch):
    grammars = corpus_and_acceptors()
    for g in grammars:
        assert parikh_equivalent_bounded(g) \
            == reference_parikh_equivalent_bounded(g), g.start
    calls = []
    original = boundedgen.bounded_for_substitution

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(boundedgen, "bounded_for_substitution", counting)
    for g in grammars:
        calls.clear()
        trace: list = []
        b = parikh_equivalent_bounded(g, trace=trace)
        # one substitution per level below the top, each of one chain
        assert len(calls) == max(len(trace) - 1, 0), g.start
        assert [level for level, _ in trace] \
            == ([*range(len(trace) - 2, -1, -1), "final"] if trace else [])
        assert not trace or trace[-1] == ("final", b)


def test_every_level_substitutes_with_one_map_and_memo(monkeypatch):
    calls = []
    kfs = []
    substitute = boundedgen.bounded_for_substitution
    build = boundedgen.build_kfold

    def recording(b, sigma_map, tau_map, out_alphabet, memo=None):
        calls.append((sigma_map, out_alphabet, memo))
        return substitute(b, sigma_map, tau_map, out_alphabet, memo)

    def keeping(*args, **kwargs):
        kfs.append(build(*args, **kwargs))
        return kfs[-1]

    monkeypatch.setattr(boundedgen, "bounded_for_substitution", recording)
    monkeypatch.setattr(boundedgen, "build_kfold", keeping)
    for g in corpus_and_acceptors():
        calls.clear()
        kfs.clear()
        trace: list = []
        parikh_equivalent_bounded(g, trace=trace)
        if len(trace) < 2:
            continue
        sigma = kfs[-1].differential.terminals
        # every level above the final one is over the differential grammar's
        # terminals: no level has letters of its own
        for level, b in trace[:-1]:
            assert all(a in sigma for w in b.words for a in w), (g.start, level)
        above, final = calls[:-1], calls[-1]
        for sigma_map, out_alphabet, memo in above:
            assert sigma_map is above[0][0] and out_alphabet == sigma, g.start
            assert memo is not None and memo is above[0][2], g.start
        # level 0 has maps of its own, so it must not share their memo
        assert not above or final[2] is not above[0][2], g.start


def cyk_in_substituted(w, blocks):
    # dynamic programming: is w a concatenation of blocks (incl. empty)?
    ok = [False] * (len(w) + 1)
    ok[0] = True
    for i in range(1, len(w) + 1):
        ok[i] = any(ok[j] and w[j:i] in blocks for j in range(i))
    return ok[len(w)]


def test_bounded_subset_is_subset_and_parikh_equal():
    for g in (G_EX, ANBN, DYCK1):
        sub = bounded_subset(g)
        for w in enumerate_words(trim(sub), 8):
            assert cyk_membership(trim(g), w)
        assert per_length_parikh(sub, 8, trim(g).terminals) \
            == per_length_parikh(g, 8, trim(g).terminals)


def test_empty_grammar_gives_empty_bounded():
    g = cfg({"S"}, ["a"], [("S", ("S", "a"))], "S")
    assert parikh_equivalent_bounded(g) == eb([])
