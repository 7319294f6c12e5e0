"""Benchmark entry point: fresh-process repetitions of one workload, with medians.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory.  Every repetition runs in a new interpreter, so every CLI
call starts with empty memo tables, as it does for a user.  With --trace 0
the run reports the end-to-end metrics; with --trace 1 it alternates plain
and traced repetitions and reports the per-layer metrics, including the
tracing overhead.  See perfbench/README.md for the workloads and metrics.

The last line of standard output is the result object; the line before it
is a record of the environment and of every repetition, also written to
.perfbench_out/.  The run exits non-zero, printing no result, when the
program cannot be found or a repetition dies.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up-only processes started per plain run, besides the set-up each
# repetition measures: set-up takes ~0.2 s and varies by ~20% between
# processes, so its median needs more samples.
SETUP_PROBES = 9
# No repetition may start or keep running past this point, so that a run
# always ends within 180 s whatever --seconds asks for.
HARD_LIMIT_S = 170.0

KNOWN_DEFECTS = [
    "appendix_example(n) and `artifact operator appendix-demo --n n` raise "
    "OverflowError for n >= 32: S_remainder_at_J computes 4.0 ** p with "
    "p = J(n) + 1 > 512. boundary_series keeps those n and counts them as "
    "failed operations.",
    "On the Jordan path brunel reports truncation_P = 0 although it sums "
    "about J(n) + 80 terms (384 at n = 20); term counts come from the "
    "alpha_mantissa_row wrapper, not from the reported P.",
]


class RunError(RuntimeError):
    """A repetition could not produce a sample."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Single-threaded BLAS: the baseline, and it keeps load within 2 cores.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, mode: str, deadline: float) -> dict:
    spawn_ns = time.monotonic_ns()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), args.workload,
           str(args.seed), str(spawn_ns), mode, OUT_DIR]
    if args.tiny:
        cmd.append("--tiny")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("no time left for another repetition")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{mode} repetition timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"{mode} repetition exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    if not sample["artifact_file"].startswith(SRC + os.sep):
        raise RunError(f"imported artifact from {sample['artifact_file']}, not {SRC}")
    sample["duration_s"] = (time.monotonic_ns() - spawn_ns) / 1e9
    return sample


def repeat(args, modes: tuple[str, ...], start: float, deadline: float) -> list[dict]:
    """Cycle through `modes` until the next repetition would overrun --seconds.

    Each mode runs at least once; a repetition starts only when the median
    duration of its mode still fits in the time left.
    """
    samples: list[dict] = []
    turn = 0
    while True:
        mode = modes[turn % len(modes)]
        done = [s["duration_s"] for s in samples if s["mode"] == mode]
        if len(samples) >= len(modes) and done and (
                time.monotonic() - start + statistics.median(done) > args.seconds):
            break
        samples.append(run_child(args, mode, deadline))
        turn += 1
    return samples


def source_identity() -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "artifact")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def tally(samples: list[dict]) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over every operation of every sample.

    An operation fails when it raised or its output failed its check; the
    run is incorrect only when some output was produced and was wrong.
    """
    ops = [op for s in samples for op in s["ops"].values()]
    correct = all(op["ok"] or op["raised"] for op in ops)
    return correct, len(ops), sum(not op["ok"] for op in ops)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "artifact", "__init__.py")):
        print(f"error: no program at {SRC}/artifact; run from a source checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    try:
        if args.trace:
            probes = [run_child(args, "setup", deadline)]
            samples = repeat(args, ("plain", "traced"), start, deadline)
        else:
            probes = [run_child(args, "setup", deadline) for _ in range(SETUP_PROBES)]
            samples = repeat(args, ("plain",), start, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain = [s for s in samples if s["mode"] == "plain"]
    traced = [s for s in samples if s["mode"] == "traced"]
    correct, attempted, failed = tally(samples)
    wall = statistics.median(s["wall_s"] for s in plain)
    if args.trace:
        layers = tracing.median_metrics([s["layers"] for s in traced])
        layers["trace.overhead_s"] = statistics.median(s["wall_s"] for s in traced) - wall
        metrics = {name: metric(layers[name], unit)
                   for name, unit in tracing.LAYER_METRICS.items()}
    else:
        setups = [s["setup_s"] for s in probes + plain]
        metrics = {
            "wall_s": metric(wall, "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(statistics.median(s["peak_rss_mb"] for s in plain), "MB"),
            "pass_share": metric((attempted - failed) / attempted, "ratio"),
        }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "env": probes[0]["env"], **source_identity(),
        "run_s": time.monotonic() - start,
        "setup_probes_s": [p["setup_s"] for p in probes],
        "samples": [{k: s[k] for k in ("mode", "setup_s", "wall_s", "peak_rss_mb",
                                       "duration_s")} for s in samples],
        "failed_ops": {name: op["error"] for name, op in samples[0]["ops"].items()
                       if not op["ok"]},
        "tracebacks": samples[0].get("tracebacks", []),
        "absent": traced[0]["absent"] if traced else [],
        "spans_files": sorted({s["spans_file"] for s in traced}),
        "known_defects": KNOWN_DEFECTS,
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
