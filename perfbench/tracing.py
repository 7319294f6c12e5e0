"""Per-layer tracing by wrapping public functions of `artifact` at run time.

Each wrapped function records one span (name, start, end, parent) per call.
A wrapper is rebound in every `artifact.*` module namespace that holds the
original, because modules import each other's functions by name
(`analysis` takes `alpha_mantissa_row` from `coeffs`, `operators` takes
`psi_pow_at_minus_one`).  Spans stay in memory until `summary` and
`write_spans` run after the timed region.

Hot helpers called far more often (`alpha`, `beta`, the `Fraction`
operators) are not wrapped; the memo table sizes stand in for them.  A
target that the program no longer has is reported as absent and its
metrics read 0.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from typing import Any, Callable

SUITES = ("alpha0", "bounds", "gamma", "k_regions", "majorant", "monotonicity",
          "oracle", "quotient", "recurrences", "s_monotone", "sum_bound",
          "sums", "technical")

# (module, attribute, span name): the functions that get a span.
TARGETS = (
    ("arith", "binomial", "arith.binomial"),
    ("arith", "iv_float_down", "arith.interval"),
    ("arith", "iv_float_up", "arith.interval"),
    ("arith", "rational_str", "arith.rational_str"),
    ("coeffs", "alpha_mantissa_row", "coeffs.alpha_mantissa_row"),
    ("coeffs", "oracle_alpha", "coeffs.oracle_alpha"),
    ("coeffs", "sum_alpha", "coeffs.sum_alpha"),
    ("coeffs", "psi_pow_at_minus_one", "coeffs.psi_pow_at_minus_one"),
    ("coeffs", "dpsi_pow_at_minus_one", "coeffs.dpsi_pow_at_minus_one"),
    ("coeffs", "alpha_tail_envelope", "coeffs.alpha_tail_envelope"),
    ("operators", "S_value", "operators.S_value"),
    ("operators", "evaluate_powers", "operators.evaluate_powers"),
    ("operators", "probe_power_bound", "operators.probe_power_bound"),
    ("operators", "probe_mean_bound", "operators.probe_mean_bound"),
    ("cli", "main", "cli.main"),
)

PATHS = ("scalar", "jordan", "nilpotent", "general")


def _layer_metrics() -> dict[str, str]:
    """Per-layer metric names and units, in the order BENCHMARK.json lists them."""
    names: dict[str, str] = {}
    for suite in SUITES:
        names[f"analysis.suite.{suite}.s"] = "s"
        names[f"analysis.suite.{suite}.checks_per_s"] = "1/s"
    for span in dict.fromkeys(t[2] for t in TARGETS if t[2] != "cli.main"):
        names[f"{span}.calls"] = "count"
        names[f"{span}.s"] = "s"
    names.update({
        "coeffs.alpha_mantissa_row.terms": "count",
        "coeffs.alpha_table.entries": "count",
        "coeffs.beta_table.entries": "count",
        "arith.rational_str.bytes": "B",
        "operators.P_max": "count",
        "operators.matmuls": "count",
        "operators.peak_mb": "MB",
        **{f"operators.path.{p}": "count" for p in PATHS},
        "report.to_dict.calls": "count",
        "report.to_dict.s": "s",
        "report.checks": "count",
        "report.skipped": "count",
        "cli.main.s": "s",
        "trace.overhead_s": "s",
    })
    return names


LAYER_METRICS = _layer_metrics()


class Tracer:
    """Collects spans and counters for one traced repetition."""

    def __init__(self, path_labels: dict[bytes, str]):
        self.path_labels = path_labels
        # A span's slot is reserved at call entry and filled at exit, so the
        # list is in call order and parents precede their children.
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.suite_checks: dict[str, int] = defaultdict(int)
        self.reports: list[Any] = []
        self.absent: list[str] = []
        self.general_calls: list[tuple[tuple, dict]] = []

    def wrap(self, fn: Callable, name: str,
             after: Callable[[tuple, dict, Any], None] | None = None) -> Callable:
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import artifact.analysis as analysis
        import artifact.report as report

        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "artifact" or key.startswith("artifact."))]
        hooks = {
            "arith.rational_str": self._after_rational_str,
            "coeffs.alpha_mantissa_row": self._after_mantissa_row,
        }
        for module_name, attr, span in TARGETS:
            module = sys.modules.get(f"artifact.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if span == "operators.evaluate_powers":
                wrapped = self._wrap_evaluate_powers(original)
            else:
                wrapped = self.wrap(original, span, hooks.get(span))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

        suites = getattr(analysis, "SUITES", None)
        if suites is None:
            self.absent.append("analysis.SUITES")
        else:
            for suite, fn in list(suites.items()):
                suites[suite] = self.wrap(fn, f"analysis.suite.{suite}",
                                          self._after_suite(suite))

        cls = getattr(report, "VerifyReport", None)
        if cls is None:
            self.absent.append("report.VerifyReport")
            return
        cls.to_dict = self.wrap(cls.to_dict, "report.to_dict")
        init = cls.__init__
        reports = self.reports

        def collecting_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            reports.append(obj)

        cls.__init__ = collecting_init

    def _after_rational_str(self, args, kwargs, result) -> None:
        self.counters["arith.rational_str.bytes"] += len(result)

    def _after_mantissa_row(self, args, kwargs, result) -> None:
        self.counters["coeffs.alpha_mantissa_row.terms"] += len(result)

    def _after_suite(self, suite: str):
        def after(args, kwargs, report) -> None:
            self.suite_checks[suite] += report.checks
        return after

    def _wrap_evaluate_powers(self, original: Callable) -> Callable:
        """Span plus path label, truncation P and computed matmuls.

        General-path calls are kept so that `measure_peak` can repeat them
        under tracemalloc after the timed region: tracing every allocation
        slows the power loop several-fold, which would swamp the span.
        """
        signature = inspect.signature(original)
        counters = self.counters
        self._evaluate_powers = original

        def after(args, kwargs, result) -> None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            T = bound.arguments["T"]
            label = self.path_labels.get(T.array.tobytes(), "unlabelled")
            counters[f"operators.path.{label}"] += 1
            P = result[1]
            counters["operators.P_max"] = max(counters["operators.P_max"], P)
            if label == "general":
                counters["operators.matmuls"] += bound.arguments["probe_len"] + P
                self.general_calls.append((args, kwargs))

        return self.wrap(original, "operators.evaluate_powers", after)

    def measure_peak(self) -> float:
        """Largest tracemalloc peak, in MB, over the recorded general-path calls.

        Run it after `summary` and `write_spans`: the repeated calls add spans.
        """
        peak = 0
        for args, kwargs in self.general_calls:
            tracemalloc.start()
            try:
                self._evaluate_powers(*args, **kwargs)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peak / 2 ** 20

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Layer metrics of this repetition (without trace.overhead_s)."""
        import artifact.coeffs as coeffs

        calls, self_ns, total_ns = span_totals(self.spans)
        out = {name: 0.0 for name in LAYER_METRICS}
        for name in LAYER_METRICS:
            stem, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = float(calls[stem])
            elif field == "s" and stem in self_ns:
                out[name] = self_ns[stem] / 1e9
        for suite in SUITES:
            key = f"analysis.suite.{suite}"
            if total_ns[key]:
                out[f"{key}.checks_per_s"] = self.suite_checks[suite] / (total_ns[key] / 1e9)
        out.update({k: float(v) for k, v in self.counters.items() if k in out})
        for table, attr in (("alpha_table", "ALPHA_TABLE"), ("beta_table", "BETA_TABLE")):
            memo = getattr(coeffs, attr, None)
            if memo is None:
                self.absent.append(f"coeffs.{attr}")
            else:
                out[f"coeffs.{table}.entries"] = float(len(memo))
        out["report.checks"] = float(sum(r.checks for r in self.reports))
        out["report.skipped"] = float(sum(r.skipped for r in self.reports))
        return out

    def write_spans(self, path: str) -> None:
        """Spans as tab-separated lines: name, start_ns, end_ns, parent index."""
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for span in self.spans:
                fh.write("%s\t%d\t%d\t%d\n" % span)


def span_totals(spans) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
    """Per span name: call count, self time and inclusive time, in ns.

    Self time is a span's duration minus the durations of its direct children.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    total_ns: dict[str, int] = defaultdict(int)
    for (name, start, end, _), child in zip(spans, child_ns):
        calls[name] += 1
        self_ns[name] += end - start - child
        total_ns[name] += end - start
    return calls, self_ns, total_ns


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}
