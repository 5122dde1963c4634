"""The library's caches: each is bounded, and none changes a result."""

import importlib
import pkgutil
from collections.abc import Iterator

from helpers import full_corpus
import parikhbound
from parikhbound import parikh_semilinear


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
