"""Benchmark of parikhbound's pipeline through its public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every round of the workload runs in
a fresh interpreter with PYTHONHASHSEED pinned, one process at a time, and
rounds repeat until S seconds have passed.  With --trace 0 the last line
printed holds the end-to-end metrics (medians over the rounds, and over
separate set-up-only interpreters for setup_s); with --trace 1 it holds the
per-layer metrics of traced rounds.  Details of every round go to
perfbench/out/.

Times are CPU times of the worker process; README.md says why.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
HASH_SEED = "0"
SETUP_SAMPLES = 5
TIME_LIMIT = 170.0   # the whole run, set-up samples included
WORKLOADS = ("reach", "intersect", "bound", "subset")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    # every start compiles the sources, so setup_s does not depend on
    # whether a bytecode cache exists
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def _spawn(args: list[str], timeout: float) -> tuple[dict | None, str]:
    """Run the worker; return its result (None if it failed) and stderr."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker exceeded {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr[-2000:]
    return json.loads(lines[-1]), proc.stderr[-2000:]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "parikhbound" / "__init__.py").is_file():
        print(f"no parikhbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    began = time.monotonic()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup_samples: list[float] = []
    rounds: list[dict] = []
    problems: list[str] = []

    def remaining() -> float:
        return TIME_LIMIT - (time.monotonic() - began)

    if not args.trace:
        # the first start reads the sources into the file cache; untimed
        _spawn([args.workload, str(args.seed), "setup"], remaining())
        for _ in range(SETUP_SAMPLES):
            res, err = _spawn([args.workload, str(args.seed), "setup"],
                              remaining())
            if res is None:
                problems.append(f"set-up failed: {err}")
                break
            setup_samples.append(res["setup_s"])

    measuring = time.monotonic()
    mode = "trace" if args.trace else "plain"
    while not problems:
        spans = OUT / f"spans-{tag}-round{len(rounds)}.json"
        start = time.monotonic()
        res, err = _spawn(
            [args.workload, str(args.seed), mode, str(spans)], remaining())
        if res is None:
            problems.append(f"round {len(rounds)} failed: {err}")
            break
        setup_samples.append(res["setup_s"])
        rounds.append(res)
        now = time.monotonic()
        if now - measuring >= args.seconds or now - start > remaining():
            break

    errors = problems + [e for r in rounds for e in r["errors"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if args.trace:
        names = rounds[0]["layers"] if rounds else {}
        metrics = {name: statistics.median(r["layers"][name] for r in rounds)
                   for name in names}
        units = _layer_units()
    else:
        metrics = {}
        if rounds:
            metrics = {"setup_s": statistics.median(setup_samples),
                       "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
                       "peak_rss_mb": statistics.median(r["rss_mb"]
                                                        for r in rounds)}
        units = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
    summary = {"correct": not errors and bool(rounds),
               "attempted": max(attempted, 1), "failed": failed,
               "metrics": {name: {"value": value, "unit": units[name]}
                           for name, value in metrics.items()}}
    with open(OUT / f"result-{tag}.json", "w") as f:
        json.dump({"summary": summary, "errors": errors,
                   "setup_samples": setup_samples,
                   "rounds": [{k: v for k, v in r.items() if k != "layers"}
                              for r in rounds]}, f, indent=1)
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


def _layer_units() -> dict:
    sys.path.insert(0, str(HERE))
    from layertrace import LAYER_METRICS
    return dict(LAYER_METRICS)


if __name__ == "__main__":
    sys.exit(main())
