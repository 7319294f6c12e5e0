"""Acceptance gate: eleven criteria, each a single pass/fail check at full scale.

Every test sweeps the complete stated rectangle at the stated tolerance and
prints one summary line; run with -s (or read the -v test lines) to see them.
These are intentionally heavier than the unit tests and take a few minutes
in total.
"""

import hashlib
import json
import math
import time
from fractions import Fraction

import mpmath

from artifact.analysis import (
    check_I_equivalence,
    check_In_bound,
    check_J_equivalence,
    check_K_appendix_equivalence,
    check_quotient_identity,
    check_S_monotone,
    check_sean_lemma,
    check_sum_coefficient_bound,
    check_technical_lemma,
    check_uniform_p_estimate,
    check_upper_lower_K,
    run_all_suites,
    thresholds,
)
from artifact.cli import main
from artifact.coeffs import (
    alpha,
    alpha_recurrence_check,
    beta,
    beta_recurrence_check,
    oracle_alpha,
    sum_alpha,
)
from artifact.operators import (
    APPENDIX_T,
    DenseMatrix,
    Norm,
    S_value,
    appendix_example,
    brunel,
    check_cesaro_domination,
    check_mean_bound_theorem,
    check_power_bound_theorem,
    random_stochastic,
    rotation_matrix,
)

from test_operators import reference_jordan, reference_norm

VERIFY_ALL_SHA256 = "202675e3993a58588b6f93584d55ee5a7a0da1f67a6ab90511d8c38b5324c267"


def announce(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {label}: {status}{suffix}")
    assert ok, f"criterion {num:02d} {label} failed{suffix}"


class TestAcceptance:
    def test_01_closed_form_matches_oracle(self):
        start = time.monotonic()
        convolution_ok = all(
            oracle_alpha(n, 30) == [alpha(n, p) for p in range(31)]
            for n in range(1, 31)
        )
        shift_ok = all(
            beta(n, p + n) == alpha(n, p)
            for n in range(1, 41)
            for p in range(101)
        )
        elapsed = time.monotonic() - start
        announce(
            1,
            "closed form vs series oracle and shift identity",
            convolution_ok and shift_ok and elapsed < 30.0,
            f"elapsed {elapsed:.1f}s",
        )

    def test_02_recurrences_exact(self):
        beta_ok = all(
            beta_recurrence_check(N, p)
            for N in range(2, 41)
            for p in range(121)
        )
        alpha_ok = all(
            alpha_recurrence_check(n, p)
            for n in range(2, 41)
            for p in range(201)
        )
        announce(2, "three-term recurrences exact", beta_ok and alpha_ok)

    def test_03_threshold_equivalences(self):
        failures = 0
        indeterminate = 0
        for n in range(1, 41):
            for p in range(601):
                if not check_I_equivalence(n, p):
                    failures += 1
                if not check_J_equivalence(n, p):
                    failures += 1
                if n >= 2 and not check_K_appendix_equivalence(n, p):
                    failures += 1
                if n >= 5:
                    verdict = check_upper_lower_K(n, p)
                    if verdict is None:
                        indeterminate += 1
                    elif not verdict:
                        failures += 1
        announce(
            3,
            "threshold equivalences and root regions",
            failures == 0,
            f"{indeterminate} root-adjacent points indeterminate",
        )

    def test_04_pointwise_bounds(self):
        uniform_ok = all(
            check_uniform_p_estimate(n, p)
            for n in range(1, 61)
            for p in range(1, 401)
        )
        sean_ok = all(
            check_sean_lemma(n, p)
            for n in range(1, 101)
            for p in range(1, 401)
        )
        in_ok = all(check_In_bound(n) for n in range(6, 201))
        quotient_ok = all(
            check_quotient_identity(n, p) is not False
            for n in range(2, 31)
            for p in range(201)
        )
        announce(
            4,
            "uniform difference, central binomial, and quotient bounds",
            uniform_ok and sean_ok and in_ok and quotient_ok,
        )

    def test_05_summed_difference_bound(self):
        start = time.monotonic()
        ok = all(check_sum_coefficient_bound(n) for n in range(1, 41))
        elapsed = time.monotonic() - start
        announce(
            5,
            "summed difference, exact by sign change, <= 33/(2n)",
            ok and elapsed < 120.0,
            f"elapsed {elapsed:.1f}s",
        )

    def test_06_partial_sum_closed_form(self):
        sums_ok = all(
            sum_alpha(N, p) == sum(alpha(n, p) for n in range(1, N + 1))
            for N in range(1, 41)
            for p in range(101)
        )
        monotone_ok = all(
            check_S_monotone(N, k)
            for N in range(1, 101)
            for k in range(121)
        )
        announce(
            6,
            "column sums closed form and monotone decay",
            sums_ok and monotone_ok,
        )

    def test_07_averaged_lower_bound_and_domination(self):
        lower_ok = all(check_technical_lemma(N) for N in range(1, 401))
        matrices = [DenseMatrix.identity(3), DenseMatrix.from_rows([[0.0] * 3] * 3)]
        matrices += [random_stochastic(3, seed=s) for s in range(10)]
        reports = [check_cesaro_domination(T, N_max=200, slack=1e-9) for T in matrices]
        domination_ok = all(r.passed for r in reports)
        announce(
            7,
            "1/N lower bound and entrywise Cesaro domination",
            lower_ok and domination_ok,
            f"{len(matrices)} matrices, {sum(r.checks for r in reports)} checks",
        )

    def test_08_operator_norm_theorems(self):
        power_targets = [DenseMatrix.identity(2), rotation_matrix()]
        power_targets += [random_stochastic(3, seed=s) for s in range(3)]
        power_ok = all(
            check_power_bound_theorem(T, n_max=40).passed for T in power_targets
        )
        mean_ok = check_mean_bound_theorem(APPENDIX_T, n_max=30).passed
        announce(
            8,
            "power-difference and mean-difference norm bounds",
            power_ok and mean_ok,
        )

    def test_09_worked_2x2_example(self):
        """Both sides of `appendix_example` come from one closed-form routine,
        so the series matrix is also held against an independent 200-bit
        mpmath evaluation of psi(-1)^n and 2 (psi^n)'(-1): it must lie
        within the tail that `brunel` proves for it."""
        agreement_ok = all(
            appendix_example(n).max_abs_difference < 1e-8 for n in range(1, 13)
        )
        for n in range(1, 13):
            series = appendix_example(n).series_matrix.array
            r = brunel(APPENDIX_T, n, eps=1e-10)
            with mpmath.workprec(200):
                E = [[mpmath.mpf(float(x)) - y for x, y in zip(row, ref)]
                     for row, ref in zip(series, reference_jordan(-1.0, 2.0, 2, n))]
                agreement_ok = (agreement_ok and (series == r.matrix.array).all()
                                and reference_norm(E, Norm.OPINF) <= r.tail_bound)
        observed = max(
            n * 2.0 ** (1 - n) * abs(S_value(n)) for n in range(1, 61)
        )
        trend_bound = 4.0 * math.exp(1.0 / 12.0) * math.sqrt(2.0 / math.pi) + 0.5
        announce(
            9,
            "closed form for the 2x2 nilpotent-shift example",
            agreement_ok and observed <= trend_bound,
            f"max trend value {observed:.6f} <= {trend_bound:.4f}",
        )

    def test_10_figure_data_claims(self, capsys):
        argmax_ok = True
        for n in (10, 20):
            diffs = [alpha(n, p) - alpha(n + 1, p) for p in range(61)]
            argmax_p = diffs.index(max(diffs))
            K = thresholds(n).K
            argmax_ok = argmax_ok and K is not None and K < argmax_p
        code = main(["figure", "fig3", "--n", "40"])
        out = capsys.readouterr().out
        near_one = [
            (float(x_s), float(v_s))
            for n_s, x_s, v_s in (l.split(",") for l in out.strip().splitlines()[1:])
            if float(x_s) >= 0.999
        ]
        tail_ok = (
            code == 0
            and len(near_one) > 0
            and all(abs(v) >= 0.1 for _, v in near_one)
        )
        announce(
            10,
            "figure data: threshold before peak, no decay at x near 1",
            argmax_ok and tail_ok,
            f"{len(near_one)} grid points with x >= 0.999",
        )

    def test_11_full_verification_deterministic(self):
        first = [r.to_json(include_elapsed=False) for r in run_all_suites()]
        second = [r.to_json(include_elapsed=False) for r in run_all_suites()]
        all_passed = all(
            json.loads(doc)["failures"] == [] for doc in first
        )
        # sha256 of the `verify all` JSON without elapsed_s: any change to
        # what a suite checks or reports changes it.
        text = json.dumps([json.loads(doc) for doc in first], indent=2, sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()
        announce(
            11,
            "full verification run deterministic and green",
            first == second and all_passed and digest == VERIFY_ALL_SHA256,
            f"{len(first)} suites, sha256 {digest[:12]}",
        )


def test_boundary_anchor_values():
    """Spot anchors guarding the acceptance constants themselves."""
    assert thresholds(10).K == Fraction(6600, 1296)
    assert alpha(1, 1) == Fraction(1, 8)
    assert abs(S_value(1) + 0.1213203435596426) < 1e-12
