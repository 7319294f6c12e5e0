"""Self-test of the benchmark at tiny sizes: schema and metric names only.

    python3 -m pytest -q perfbench/tests

No timing is asserted.  Each workload runs once plain and once traced with
`--tiny`, which keeps every call path of the full workload at toy sizes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracing  # noqa: E402
import workloads  # noqa: E402


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    spec = load_benchmark()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"wall_s", "setup_s", "peak_rss_mb", "pass_share"}
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_schema(workload, trace):
    spec = load_benchmark()
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    for value in result["metrics"].values():
        assert set(value) == {"value", "unit"}
        assert isinstance(value["value"], (int, float))

    # The only tolerated failures are the known overflow of appendix_example
    # at n >= 32; every other operation must pass.
    for name in record["failed_ops"]:
        kind, n = name.split(":")
        assert kind == "appendix_example" and int(n) >= 32, record["failed_ops"]
    assert record["env"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert record["samples"] and record["absent"] == []
    if trace:
        assert {s["mode"] for s in record["samples"]} == {"plain", "traced"}


def test_no_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("verify_all", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer({})

    def inner():
        time.sleep(0.02)

    wrapped_inner = tracer.wrap(inner, "inner")

    def outer():
        wrapped_inner()
        wrapped_inner()

    tracer.wrap(outer, "outer")()
    spans = tracer.spans
    assert [s[0] for s in spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in spans] == [-1, 0, 0]
    calls, self_ns, total_ns = tracing.span_totals(spans)
    assert calls == {"outer": 1, "inner": 2}
    assert self_ns["inner"] == total_ns["inner"]
    assert self_ns["outer"] == total_ns["outer"] - total_ns["inner"] >= 0
