"""The ten acceptance criteria, one test (and one pass/fail line under
``pytest -v``) per criterion.  Each test checks its own wall-clock budget."""

import pytest

from helpers import (ANBN, CORE_CORPUS, Budget, DYCK1, G_EX, PALIN, PALIN_C,
                     expand_semilinear, full_corpus, per_length_parikh,
                     random_corpus, two_thread_networks)
from parikhbound import (GlobalConfiguration, IntersectionInstance,
                         PushdownNetwork, bounded_for_powers, bounded_subset,
                         build_kfold, cyk_membership, differential_grammar,
                         eb, eb_to_nfa, enumerate_words, family_instance,
                         intersect_modulo, materialize_iterate,
                         parikh_equivalent_bounded, parikh_image,
                         parikh_of_word, pdn_reach_bounded, progress_trace,
                         reach, sl_membership, trim, verify_parikh_property,
                         witness_for_vector)
from parikhbound.grammar import cfg, concat_grammars, finite_cfg
from parikhbound.pdn import acceptor_to_cfg, encode_to_acceptors, switch_symbol


def test_ac01_differential_grammar_fixture():
    with Budget(1):
        gt = differential_grammar(G_EX)
        assert set(gt.productions) == {
            ("X0", ("a", "X1")),
            ("X0", ("a", "v_X1")),
            ("X0", ("a",)),
            ("X1", ("X0", "b")),
            ("X1", ("a", "X1", "b", "v_X0")),
            ("X1", ("a", "v_X1", "b", "X0")),
            ("X1", ("v_X0", "b")),
            ("X1", ("a", "v_X1", "b", "v_X0")),
        }


def test_ac02_newton_convergence_at_depth_n():
    with Budget(60):
        grammars = [G_EX] + random_corpus(10)
        for g in grammars:
            t = trim(g)
            assert len(t.variables) <= 3 or g is G_EX
            kf = build_kfold(t, len(t.variables))
            iterate = materialize_iterate(kf, t.start, kf.depth)
            assert per_length_parikh(iterate, 10, t.terminals) \
                == per_length_parikh(t, 10, t.terminals), t.start


def test_ac03_parikh_equivalent_bounded_subset():
    with Budget(300):
        corpus = full_corpus()
        assert len(corpus) >= 20
        for i, g in enumerate(corpus):
            t = trim(g)
            b = parikh_equivalent_bounded(t)
            sub = bounded_subset(t, b)
            words = enumerate_words(trim(sub), 12, budget=2_000_000)
            nfa = eb_to_nfa(b, t.terminals)
            for w in words:
                assert cyk_membership(t, w), (i, w)       # (i) L' subset of L
                assert nfa.accepts(w), (i, w)             # (iii) L' subset of B
            assert per_length_parikh(sub, 12, t.terminals) \
                == per_length_parikh(t, 12, t.terminals), i   # (ii) Parikh eq.


def test_ac04_powers_preserve_parikh_images():
    with Budget(60):
        pairs = []
        for g in (G_EX, ANBN, PALIN_C,
                  cfg({"T"}, ["a", "b"],
                      [("T", ("a", "b", "T")), ("T", ())], "T"),
                  cfg({"A"}, ["a"], [("A", ("a", "A")), ("A", ("a",))], "A")):
            t = trim(g)
            b = parikh_equivalent_bounded(t)
            assert verify_parikh_property(t, b, 8)  # verified precondition
            pairs.append((t, b))
        for t, b in pairs:
            bp = bounded_for_powers(t, b)
            nfa = eb_to_nfa(bp, t.terminals)
            for power in range(4):
                lt = (finite_cfg([()], t.terminals) if power == 0
                      else concat_grammars([t] * power, t.terminals))
                per_all = per_length_parikh(lt, 8, t.terminals)
                per_in: dict[int, set] = {}
                for w in enumerate_words(trim(lt), 8):
                    if nfa.accepts(w):
                        per_in.setdefault(len(w), set()).add(
                            parikh_of_word(w, t.terminals))
                for n, vecs in per_all.items():
                    assert vecs == per_in.get(n, set()), (t.start, power, n)


def test_ac05_decidable_bounded_intersection():
    with Budget(5):
        ab_star = cfg({"T"}, ["a", "b"],
                      [("T", ("a", "b", "T")), ("T", ())], "T")
        w = intersect_modulo([ANBN, ab_star], eb([("a",), ("b",)]))
        assert w == ("a", "b")
        assert cyk_membership(ANBN, w) and cyk_membership(ab_star, w)


def _pdn_corpus():
    """Small pushdown networks paired with nothing; ground truth comes from
    the breadth-first oracle inside the test."""
    out = []

    def single(rules, init_stack, init_g, target_g):
        globals_ = sorted({r[0] for r in rules} | {r[2] for r in rules}
                          | {init_g, target_g})
        stack = sorted({r[1] for r in rules}
                       | {s for r in rules for s in r[3]} | set(init_stack))
        out.append((PushdownNetwork(tuple(globals_), tuple(stack),
                                    (tuple(rules),)),
                    GlobalConfiguration(init_g, (tuple(init_stack),)),
                    GlobalConfiguration(target_g, ((),))))

    # countdown: pop two tokens, then the end marker flips the global
    single([("g0", "A", "g0", ()), ("g0", "Z", "g1", ())],
           ("A", "A", "Z"), "g0", "g1")
    # same network, unreachable target global
    single([("g0", "A", "g0", ()), ("g0", "Z", "g1", ())],
           ("A", "A", "Z"), "g0", "g2")
    # push-then-pop loop reaching the target
    single([("g0", "Z", "g0", ("A", "Z")), ("g0", "A", "g1", ()),
            ("g1", "A", "g1", ()), ("g1", "Z", "g1", ())],
           ("Z",), "g0", "g1")
    # stack can never empty (every rule pushes)
    single([("g0", "Z", "g0", ("A", "Z")), ("g0", "A", "g0", ("A", "A"))],
           ("Z",), "g0", "g0")
    # global 2-cycle ending on the right parity
    single([("g0", "A", "g1", ()), ("g1", "A", "g0", ()),
            ("g0", "Z", "g0", ())],
           ("A", "A", "Z"), "g0", "g0")
    # same, wrong parity: popping both tokens always lands back in g0
    single([("g0", "A", "g1", ()), ("g1", "A", "g0", ()),
            ("g0", "Z", "g0", ())],
           ("A", "A", "Z"), "g0", "g1")

    out.extend(two_thread_networks())
    # the parametric family at k = 1
    out.append(family_instance(1))
    return out


def test_ac06_reach_never_contradicts_bfs_oracle():
    with Budget(300):
        corpus = _pdn_corpus()
        assert len(corpus) >= 10
        for i, (pdn, init, target) in enumerate(corpus):
            reachable = pdn_reach_bounded(pdn, init, target, 12)
            result = reach(pdn, init, target, max_rounds=2)
            if result.status == "nonempty":
                # the witness schedule certifies reachability; the oracle
                # must agree at some depth
                assert pdn_reach_bounded(pdn, init, target, 40), i
            elif result.status == "empty":
                assert not reachable, i


def test_ac07_family_certified_by_one_bounded_language():
    with Budget(120):
        fixed = eb([(switch_symbol("t1", 2), switch_symbol("f1", 1))])
        for k in (1, 2, 3):
            pdn, init, target = family_instance(k)
            result = reach(pdn, init, target)
            assert result.status == "nonempty", k
            activations = sum(1 for s in result.witness if s.endswith(",2)"))
            assert activations >= k, (k, result.witness)
            grammars = [acceptor_to_cfg(a)
                        for a in encode_to_acceptors(pdn, init, target)]
            w = intersect_modulo(grammars, fixed)
            assert w is not None, k
            assert all(cyk_membership(g, w) for g in grammars), k


def test_ac08_progress_within_ten_rounds():
    with Budget(120):
        for g in CORE_CORPUS:
            t = trim(g)
            for w in enumerate_words(t, 5):
                assert progress_trace(t, w, max_rounds=10) <= 10, (t.start, w)


def test_ac09_parikh_image_sound_and_witnessed():
    with Budget(120):
        for i, g in enumerate(full_corpus()):
            t = trim(g)
            image = parikh_image(t)
            s = image.semilinear
            for w in enumerate_words(t, 10):
                assert sl_membership(s, parikh_of_word(w, t.terminals)), (i, w)
            for v in expand_semilinear(s, 4):
                w = witness_for_vector(t, v)
                assert w is not None, (i, v)
                assert cyk_membership(t, w), (i, v, w)
                assert parikh_of_word(w, t.terminals) == v, (i, v, w)


def test_ac10_differential_grammar_size_bound():
    with Budget(1):
        for g in full_corpus():
            t = trim(g)
            gt = differential_grammar(t)
            bound = sum(1 + sum(1 for s in rhs if s in t.variables)
                        for _, rhs in t.productions)
            assert len(gt.productions) <= bound, t.start
