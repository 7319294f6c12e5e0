"""Structured results for verification sweeps, serialized deterministically."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .arith import rational_str


def dumps(data: Any) -> str:
    """Strict JSON (RFC 8259) with sorted keys; a non-finite float, which it
    has no token for, is written as the string "inf", "-inf" or "nan"."""
    return json.dumps(_finite(data), indent=2, sort_keys=True, allow_nan=False)


def _finite(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def _plain(value: Any) -> Any:
    """Make a value JSON-safe; exact rationals become exact strings."""
    if isinstance(value, Fraction):
        return rational_str(value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


@dataclass
class VerifyReport:
    """Outcome of one verification suite over a finite parameter rectangle.

    checks counts every (params) cell visited; skipped counts cells where the
    claim does not apply or a certified comparison was indeterminate; failures
    lists every cell where the claim was checked and found false.
    """

    suite: str
    rectangle: dict[str, Any]
    checks: int = 0
    skipped: int = 0
    failures: list[dict[str, Any]] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, params: dict[str, Any], ok: bool | None,
               lhs: Any = None, rhs: Any = None) -> None:
        """Tally one cell: True = pass, False = fail, None = skipped."""
        self.checks += 1
        if ok is None:
            self.skipped += 1
        elif not ok:
            self.failures.append(
                {"params": dict(params), "lhs": _plain(lhs), "rhs": _plain(rhs)}
            )

    def record_row(self, params: dict[str, Any], key: str, values: Any,
                   verdicts: list) -> None:
        """Tally one row: verdicts[i] is the cell {**params, key: values[i]}.

        A verdict is True, False, None (skipped) or (False, lhs, rhs), a
        failure with its values.  An all-True row only adds to checks; any
        other row hands each non-True cell to `record`.
        """
        if verdicts.count(True) == len(verdicts):
            self.checks += len(verdicts)
            return
        for value, verdict in zip(values, verdicts):
            if verdict is True:
                self.checks += 1
            elif type(verdict) is tuple:
                self.record({**params, key: value}, *verdict)
            else:
                self.record({**params, key: value}, verdict)

    def to_dict(self) -> dict[str, Any]:
        failures = sorted(
            self.failures, key=lambda f: sorted(f["params"].items())
        )
        return {
            "suite": self.suite,
            "rectangle": {k: _plain(v) for k, v in self.rectangle.items()},
            "checks": self.checks,
            "skipped": self.skipped,
            "passed": self.passed,
            "failures": failures,
            "elapsed_s": round(self.elapsed_s, 6),
        }

    def to_json(self, include_elapsed: bool = True) -> str:
        data = self.to_dict()
        if not include_elapsed:
            del data["elapsed_s"]
        return dumps(data)
