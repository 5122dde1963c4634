"""The benchmark's tracer finds the library functions it wraps.

perfbench/layertrace.py looks functions up by name with getattr, so a
rename or removal in the library would only show when a traced benchmark
run fails.  These tests load the tracer from its file and check its names
against the library, and run one traced round of a workload.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"


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


def test_traced_round_reads_every_counter(tmp_path):
    # the counters are read from call results (determinize's n_states), so
    # a changed result type fails only the traced round
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "perfbench")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "intersect",
         "401", "trace", str(tmp_path / "spans.json")],
        env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    assert not result["errors"], result["errors"]
    assert result["layers"]["symbols.determinize.states_out"] > 0
