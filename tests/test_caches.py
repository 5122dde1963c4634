"""The library's caches: each is bounded, none changes a result, and an
outermost pipeline call starts from empty ones."""

import importlib
import pkgutil
from collections.abc import Iterator

import pytest

from helpers import DYCK1, G_EX, full_corpus
import parikhbound
from parikhbound import (InputError, IntersectionInstance, boundedgen,
                         parikh_equivalent_bounded, parikh_image,
                         parikh_semilinear, parse_grammar, semi_algorithm,
                         semilinear, trim)
from parikhbound.semilinear import CACHES, outermost


def package_modules():
    return [parikhbound] + [
        importlib.import_module(f"parikhbound.{info.name}")
        for info in pkgutil.iter_modules(parikhbound.__path__)]


def lru_caches():
    """Every functools.lru_cache defined at module level in the package, by
    qualified name."""
    return {f"{module.__name__}.{name}": value
            for module in package_modules()
            for name, value in vars(module).items()
            if hasattr(value, "cache_clear")
            and value.__module__ == module.__name__}


def test_every_cache_is_bounded():
    caches = lru_caches()
    # the ones the semilinear core and the benchmark's tracer rely on
    assert {"parikhbound.semilinear.prune",
            "parikhbound.semilinear.sl_minkowski",
            "parikhbound.semilinear.parikh_image",
            "parikhbound.grammar.to_cnf"} <= set(caches)
    for name, cached in caches.items():
        assert cached.cache_info().maxsize is not None, name
    # nor any other state that outlives a call: a container, or an iterator
    # such as a name counter
    for module in package_modules():
        for name, value in vars(module).items():
            if not name.startswith("__"):
                assert not isinstance(value, (dict, set, list)), \
                    f"module-level container {module.__name__}.{name}"
                assert not isinstance(value, Iterator), \
                    f"module-level iterator {module.__name__}.{name}"


def test_parikh_image_does_not_depend_on_warm_caches():
    # the named grammars and the seeded random ones; each image is computed
    # after the earlier ones have filled the caches
    corpus = full_corpus()
    warm = [parikh_semilinear(g) for g in corpus]
    for g, expected in zip(corpus, warm):
        for cached in lru_caches().values():
            cached.cache_clear()
        assert parikh_semilinear(g) == expected


def cache_sizes() -> list[int]:
    return [cached.cache_info().currsize for cached in CACHES]


def test_the_marker_holds_every_cache():
    assert len(set(CACHES)) == len(CACHES)
    assert set(lru_caches().values()) == set(CACHES)


def test_an_outermost_call_starts_from_empty_caches():
    probe = outermost(cache_sizes)
    parikh_semilinear(G_EX)     # not an entry point: the caches fill
    assert any(cache_sizes())
    assert not any(probe())

    # a call that raises still gives the depth back, so the next one clears
    @outermost
    def fails():
        raise InputError("fails")

    parikh_semilinear(G_EX)
    with pytest.raises(InputError):
        fails()
    assert not any(probe())

    # through an entry point: an image computed before it is computed afresh
    warm = trim(G_EX)
    parikh_image(warm)
    parikh_equivalent_bounded(DYCK1)
    misses = parikh_image.cache_info().misses
    parikh_image(warm)
    assert parikh_image.cache_info().misses == misses + 1


def test_a_nested_entry_keeps_its_callers_entries(monkeypatch):
    """On the benchmark's refined pair, phase 3 of each round calls
    parikh_equivalent_bounded, itself an entry point, on the grammars whose
    images phase 1 computed: their Newton runs are still hits there."""
    newton_calls = []
    real = boundedgen.suggested_depth

    def suggested_depth(g):
        before = semilinear._newton.cache_info()
        depth = real(g)
        after = semilinear._newton.cache_info()
        newton_calls.append((after.hits - before.hits,
                             after.misses - before.misses))
        return depth

    monkeypatch.setattr(boundedgen, "suggested_depth", suggested_depth)
    left = parse_grammar("X0 -> eps | b a X1\nX1 -> b | b b a")
    right = parse_grammar("X0 -> X0 a | a X0 | b b")
    result = semi_algorithm(IntersectionInstance((left, right)))
    assert (result.status, result.rounds) == ("empty", 2)
    # round 1's two grammars; phase 1 of round 2 settles it
    assert newton_calls == [(1, 0), (1, 0)]
