"""One round of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE [SPANS_FILE]

MODE is ``setup`` (build the inputs, report when they are ready, and stop),
``plain`` (also run every operation once and check the outputs) or ``trace``
(the same with the per-layer wrappers installed before the inputs are built;
the spans go to SPANS_FILE).  The last line of standard output is a JSON
object.  Times are CPU times of this process: ``setup_s`` runs from the
start of the interpreter to inputs ready, ``cpu_s`` covers the operations.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> None:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    tracer = None
    if mode == "trace":
        import layertrace
        tracer = layertrace.install()
    import workloads

    ops = workloads.WORKLOADS[workload](seed)
    setup = time.process_time()
    if mode == "setup":
        print(json.dumps({"setup_s": setup}), flush=True)
        return

    outputs = []
    op_s = {}
    wall_start = time.perf_counter()
    for op in ops:
        start = time.process_time()
        try:
            outputs.append((op, op.run(), None))
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append((op, None, f"{type(exc).__name__}: {exc}"))
        op_s[op.name] = time.process_time() - start
    wall = time.perf_counter() - wall_start
    cpu = sum(op_s.values())
    # ru_maxrss is in KiB on Linux; read it before the checks allocate
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = [f"{op.name}: {err}" for op, _, err in outputs if err]
    errors = []
    for op, out, err in outputs:
        if err is None:
            message = op.check(out)
            if message:
                errors.append(f"{op.name}: {message}")
    result = {"setup_s": setup, "cpu_s": cpu, "wall_s": wall, "rss_mb": rss_mb,
              "op_s": op_s,
              "attempted": len(ops), "failed": len(failures),
              "failures": failures, "errors": errors}
    if tracer is not None:
        import layertrace
        result["layers"] = layertrace.layer_metrics(tracer, cpu)
        with open(argv[3], "w") as f:
            json.dump({"totals": tracer.totals,
                       "spans_dropped": tracer.spans_dropped,
                       "spans": tracer.spans}, f)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
    # skip freeing the round's objects one by one at exit; nothing is
    # left to flush
    os._exit(0)
