"""The benchmark's tracer finds the library functions it wraps.

perfbench/layertrace.py looks functions up by name with getattr, so a
rename or removal in the library would only show when a traced benchmark
run fails.  These tests load the tracer from its file and check its names
against the library.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_a_library_function():
    layertrace = _layertrace()
    missing = []
    for layer, names in layertrace.WRAPPED.items():
        module = importlib.import_module(f"parikhbound.{layer}")
        missing += [f"{layer}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    assert not missing, missing


def test_cached_names_keep_their_caches():
    layertrace = _layertrace()
    for name in layertrace.CACHED:
        layer, fname = name.split(".")
        module = importlib.import_module(f"parikhbound.{layer}")
        assert hasattr(getattr(module, fname), "cache_info"), name
