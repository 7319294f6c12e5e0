"""The four benchmark workloads: inputs built from a seed, timed calls, checks.

A workload is a list of `Call`s.  Each call is one timed invocation of a
public function of `artifact`; it yields one or more operations, and each
operation is checked after the timed region ends.  Nothing here imports
`artifact` at module level: `build` imports it, so that the child process
can time the import as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("verify_all", "operator_general", "boundary_series", "table_export")

# Relative tolerance of S_value against its closed form, as in the tier-1 tests.
S_REL_TOL = 1e-11
# Largest |closed form - series| the tier-1 tests allow for appendix_example.
APPENDIX_ABS_TOL = 1e-8

# n grid of boundary_series: every eighth n up to 60, the range of the paper's
# trend bound.  It passes n = 31, where appendix_example starts to overflow.
BOUNDARY_N = tuple(range(4, 61, 8))
BOUNDARY_N_TINY = (2, 33)


@dataclass
class Call:
    """One timed call; `check(output)` maps each operation name to an error.

    An error of None means the operation's output passed its check.
    """

    name: str
    run: Callable[[], Any]
    ops: list[str]
    check: Callable[[Any], dict[str, str | None]]


@dataclass
class Workload:
    calls: list[Call]
    # matrix bytes -> operator path the benchmark expects for that input
    path_labels: dict[bytes, str] = field(default_factory=dict)
    cleanup: list[str] = field(default_factory=list)


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def build(name: str, seed: int, tiny: bool, out_dir: str) -> Workload:
    """Import the program and build the named workload's inputs."""
    import artifact  # noqa: F401  (set-up includes the package import)
    import artifact.cli  # noqa: F401

    expected = load_expected()["tiny" if tiny else "full"]
    builders = {
        "verify_all": _verify_all,
        "operator_general": _operator_general,
        "boundary_series": _boundary_series,
        "table_export": _table_export,
    }
    return builders[name](seed, tiny, out_dir, expected)


def _out_path(out_dir: str, stem: str) -> str:
    return os.path.join(out_dir, f"{stem}-{os.getpid()}")


# ---------------------------------------------------------------------------
# verify_all
# ---------------------------------------------------------------------------

def _verify_all(seed, tiny, out_dir, expected) -> Workload:
    from artifact import cli

    counts: dict[str, int] = expected["verify_checks"]
    path = _out_path(out_dir, "verify.json")
    if tiny:
        # One small suite through the same CLI path; the full run takes seconds.
        argv = ["verify", "alpha0", "--n-max", "8", "--out", path]
    else:
        argv = ["verify", "all", "--out", path]

    def run():
        return cli.main(argv)

    def check(code) -> dict[str, str | None]:
        with open(path) as fh:
            data = json.load(fh)
        reports = {r["suite"]: r for r in (data if isinstance(data, list) else [data])}
        errors: dict[str, str | None] = {}
        for suite, want in counts.items():
            report = reports.get(suite)
            if report is None:
                errors[suite] = "suite missing from the report"
            elif report["passed"] is not True:
                errors[suite] = f"suite failed: {report['failures'][:3]}"
            elif report["checks"] != want:
                errors[suite] = f"checks {report['checks']} != baseline count {want}"
            else:
                errors[suite] = None
        if code != 0 and not any(errors.values()):
            errors = {s: f"exit code {code}" for s in errors}
        return errors

    return Workload([Call("verify", run, sorted(counts), check)], cleanup=[path])


# ---------------------------------------------------------------------------
# operator_general
# ---------------------------------------------------------------------------

def _row_stochastic(rng: np.random.Generator, d: int) -> np.ndarray:
    arr = rng.uniform(0.1, 1.1, size=(d, d))
    return arr / arr.sum(axis=1, keepdims=True)


def _doubly_stochastic(rng: np.random.Generator, d: int) -> np.ndarray:
    arr = rng.uniform(0.1, 1.1, size=(d, d))
    for _ in range(200):
        arr /= arr.sum(axis=1, keepdims=True)
        arr /= arr.sum(axis=0, keepdims=True)
    return arr / arr.sum(axis=1, keepdims=True)


def _rotation(rng: np.random.Generator) -> np.ndarray:
    # Angles in [0.9, 1.0] stay away from pi/4 and pi/3, whose short orbits
    # would lower the probed power bound and so the truncation P.
    theta = rng.uniform(0.9, 1.0)
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def eig_oracle(arr: np.ndarray, n: int) -> np.ndarray:
    """psi(T)^n = V diag(psi(lambda)^n) V^-1, psi(z) = 1/(1 + sqrt(1 - z))."""
    lam, V = np.linalg.eig(arr)
    psi = 1.0 / (1.0 + np.sqrt(1.0 - lam.astype(complex)))
    return (V @ np.diag(psi ** n) @ np.linalg.inv(V)).real


def _operator_general(seed, tiny, out_dir, expected) -> Workload:
    from artifact import operators as ops

    rng = np.random.default_rng(seed)
    dims = (3,) if tiny else (3, 16, 64)
    eps = 1e-1 if tiny else 1e-2
    n_list = [1, 2, 3]
    inputs = {f"row{d}": _row_stochastic(rng, d) for d in dims}
    inputs["rot2"] = _rotation(rng)
    doubly = _doubly_stochastic(rng, 3)
    row3 = _row_stochastic(rng, 3)
    power_n_max = 2 if tiny else 40
    cesaro_N_max = 10 if tiny else 200

    labels = {arr.tobytes(): "general" for arr in (*inputs.values(), doubly, row3)}
    matrices = {key: ops.DenseMatrix.from_rows(arr) for key, arr in inputs.items()}
    calls = []
    for key, T in matrices.items():
        def run(T=T):
            return ops.evaluate_powers(T, n_list, eps=eps)

        def check(output, T=T, key=key):
            powers, _P = output
            errors = {}
            for n in n_list:
                mat, tail = powers[n]
                err = ops.Norm.OPINF.compute(mat - eig_oracle(T.array, n))
                if not tail <= eps:
                    errors[f"{key}:n={n}"] = f"tail_bound {tail!r} > eps {eps!r}"
                elif not err <= tail:
                    errors[f"{key}:n={n}"] = f"error {err!r} > tail_bound {tail!r}"
                else:
                    errors[f"{key}:n={n}"] = None
            return errors

        calls.append(Call(f"evaluate_powers:{key}", run,
                          [f"{key}:n={n}" for n in n_list], check))

    D = ops.DenseMatrix.from_rows(doubly)
    R = ops.DenseMatrix.from_rows(row3)
    calls.append(_report_call(
        "power_bound", lambda: ops.check_power_bound_theorem(D, n_max=power_n_max),
        2 * power_n_max))
    calls.append(_report_call(
        "cesaro_domination", lambda: ops.check_cesaro_domination(R, N_max=cesaro_N_max),
        cesaro_N_max))
    return Workload(calls, path_labels=labels)


def _report_call(name: str, run: Callable, want_checks: int) -> Call:
    """A theorem check: one operation that must pass with its expected cell count."""

    def check(report):
        if not report.passed:
            return {name: f"theorem check failed: {report.failures[:3]}"}
        if report.checks != want_checks:
            return {name: f"checks {report.checks} != {want_checks}"}
        return {name: None}

    return Call(name, run, [name], check)


# ---------------------------------------------------------------------------
# boundary_series
# ---------------------------------------------------------------------------

def _closed_forms(n: int) -> tuple[float, np.ndarray]:
    """S(n) and A^n(T) of the worked example, from closed forms in mpmath."""
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.prec = 200
    r2 = ctx.sqrt(2)
    dpsi1 = r2 - 1 - 1 / (2 * r2)
    S = -(ctx.mpf(2) ** n) * (r2 - 1) ** (n - 1) * dpsi1
    diag = (r2 - 1) ** n
    off = -(ctx.mpf(2) ** (1 - n)) * n * S
    return float(S), np.array([[float(diag), float(off)], [0.0, float(diag)]])


def _boundary_series(seed, tiny, out_dir, expected) -> Workload:
    from artifact import operators as ops

    T = ops.APPENDIX_T
    mean_n_max = 3 if tiny else 30
    calls = []
    for n in BOUNDARY_N_TINY if tiny else BOUNDARY_N:
        def check_S(value, n=n):
            S, _ = _closed_forms(n)
            ok = abs(value - S) <= S_REL_TOL * abs(S)
            return {f"S_value:{n}": None if ok else f"S_value {value!r} != closed form {S!r}"}

        def check_brunel(result, n=n):
            _, closed = _closed_forms(n)
            err = ops.Norm.OPINF.compute(result.matrix.array - closed)
            ok = err <= result.tail_bound
            return {f"brunel:{n}": None if ok else
                    f"error {err!r} > tail_bound {result.tail_bound!r}"}

        def check_appendix(ex, n=n):
            S, closed = _closed_forms(n)
            if not abs(ex.S_n - S) <= S_REL_TOL * abs(S):
                return {f"appendix_example:{n}": f"S_n {ex.S_n!r} != closed form {S!r}"}
            err = float(np.abs(ex.series_matrix.array - closed).max())
            if not (ex.max_abs_difference < APPENDIX_ABS_TOL and err < APPENDIX_ABS_TOL):
                return {f"appendix_example:{n}": f"series off by {err!r}"}
            return {f"appendix_example:{n}": None}

        calls.append(Call(f"S_value:{n}", lambda n=n: ops.S_value(n),
                          [f"S_value:{n}"], check_S))
        calls.append(Call(f"brunel:{n}", lambda n=n: ops.brunel(T, n, eps=1e-10),
                          [f"brunel:{n}"], check_brunel))
        calls.append(Call(f"appendix_example:{n}", lambda n=n: ops.appendix_example(n),
                          [f"appendix_example:{n}"], check_appendix))
    calls.append(_report_call(
        "mean_bound", lambda: ops.check_mean_bound_theorem(T, n_max=mean_n_max),
        2 * mean_n_max))
    return Workload(calls, path_labels={T.array.tobytes(): "jordan"})


# ---------------------------------------------------------------------------
# table_export
# ---------------------------------------------------------------------------

def _table_export(seed, tiny, out_dir, expected) -> Workload:
    from artifact import cli

    size = ["--n-max", "4", "--p-max", "6"] if tiny else ["--n-max", "60", "--p-max", "400"]
    exports = {
        "alpha_csv": ["table", "--kind", "alpha", *size],
        "beta_json": ["table", "--kind", "beta", *size, "--format", "json"],
    }
    digests: dict[str, str] = expected["table_sha256"]
    calls = []
    paths = []
    for key, argv in exports.items():
        path = _out_path(out_dir, key)
        paths.append(path)

        def run(argv=argv, path=path):
            return cli.main([*argv, "--out", path])

        def check(code, key=key, path=path):
            got = sha256_file(path)
            if code != 0:
                return {key: f"exit code {code}"}
            return {key: None if got == digests[key] else
                    f"sha256 {got} != baseline digest {digests[key]}"}

        calls.append(Call(key, run, [key], check))
    return Workload(calls, cleanup=paths)
