"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED SPAWN_NS MODE OUT_DIR [--tiny]

SPAWN_NS is the parent's CLOCK_MONOTONIC reading just before it started this
process; MODE is `setup` (build the inputs and stop), `plain` or `traced`.
The last line of standard output is a JSON object with this repetition's
sample.  The checks run after the timed region and after peak RSS is read.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import workloads


def environment() -> dict:
    import mpmath
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("spawn_ns", type=int)
    parser.add_argument("mode", choices=("setup", "plain", "traced"))
    parser.add_argument("out_dir")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    wl = workloads.build(args.workload, args.seed, args.tiny, args.out_dir)
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    import artifact

    sample = {"mode": args.mode, "setup_s": setup_s,
              "artifact_file": os.path.abspath(artifact.__file__)}
    if args.mode == "setup":
        sample["env"] = environment()
        print(json.dumps(sample))
        return 0

    tracer = None
    if args.mode == "traced":
        from tracing import Tracer
        tracer = Tracer(wl.path_labels)
        tracer.install()

    outputs = []
    start = time.perf_counter()
    for call in wl.calls:
        try:
            outputs.append(call.run())
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append(exc)
            sample.setdefault("tracebacks", []).append(
                [call.name, traceback.format_exc(limit=4)])
    wall_s = time.perf_counter() - start
    sample["wall_s"] = wall_s
    sample["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        sample["layers"] = tracer.summary()
        sample["absent"] = tracer.absent
        spans_path = os.path.join(args.out_dir, f"spans-{args.workload}-{args.seed}.tsv")
        tracer.write_spans(spans_path)
        sample["spans_file"] = os.path.relpath(spans_path)
        sample["layers"]["operators.peak_mb"] = tracer.measure_peak()

    ops = {}
    for call, output in zip(wl.calls, outputs):
        if isinstance(output, Exception):
            error = f"raised {type(output).__name__}: {output}"
            ops.update({op: {"ok": False, "raised": True, "error": error} for op in call.ops})
            continue
        try:
            errors = call.check(output)
        except Exception as exc:  # a check that cannot read the output fails it
            errors = {op: f"check raised {type(exc).__name__}: {exc}" for op in call.ops}
        for op in call.ops:
            error = errors.get(op, "no check result")
            ops[op] = {"ok": error is None, "raised": False, "error": error}
    for path in wl.cleanup:
        if os.path.exists(path):
            os.remove(path)
    sample["ops"] = ops
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
