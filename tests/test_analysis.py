"""Tests for thresholds, inequality checks, and verification suites."""

import json
import math
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import analysis, coeffs
from artifact.analysis import (
    BoundConstants,
    RECTANGLE_KEYS,
    UnknownSuiteError,
    SUITES,
    c_np,
    check_I_equivalence,
    check_In_bound,
    check_J_equivalence,
    check_K_appendix_equivalence,
    check_S_monotone,
    check_alpha0_difference,
    check_gamma_K,
    check_majorant_summability,
    check_quotient_identity,
    check_sean_lemma,
    check_sum_coefficient_bound,
    check_technical_lemma,
    check_uniform_p_estimate,
    check_upper_lower_K,
    roots_exist,
    run_all_suites,
    run_suite,
    technical_C_down,
    thresholds,
    _discriminant,
    _quartic_q,
)
from artifact.coeffs import (
    alpha,
    alpha_mantissa,
    alpha_mantissa_row,
    psi_eval,
    psi_partial_sum,
    sum_alpha_mantissa,
)
from artifact.arith import certified_ge
from artifact.report import VerifyReport

# a suite's cell verdicts: pass, fail, skipped, or a failure with its values
VERDICTS = st.one_of(
    st.sampled_from([True, False, None]),
    st.tuples(st.just(False), st.fractions(max_denominator=50), st.integers()))


class TestThresholds:
    def test_J_at_one(self):
        assert thresholds(1).J == 1

    def test_K_at_ten(self):
        t = thresholds(10)
        assert t.K == Fraction(6600, 1296)
        assert float(t.K) == pytest.approx(5.0926, abs=1e-4)

    def test_K_absent_at_one(self):
        assert thresholds(1).K is None

    def test_exact_formulas(self):
        for n in range(2, 60):
            t = thresholds(n)
            assert t.I == Fraction(n * n - 3 * n - 4, 6)
            assert t.J == Fraction(n * n + n, 2)
            assert t.K == Fraction(
                n**4 - 2 * n**3 - 13 * n**2 - 10 * n, 12 * n * n + 12 * n - 24
            )

    def test_smallest_n_with_roots_is_five(self):
        """Root existence is decided by the sign of the quartic, first >= 0 at n=5."""
        for n in range(1, 5):
            assert not roots_exist(n)
            assert thresholds(n).K_lower is None
        for n in range(5, 40):
            assert roots_exist(n)
            t = thresholds(n)
            assert t.K_lower is not None and t.K_upper is not None
            assert 0 <= t.K_lower <= t.K_upper

    def test_roots_solve_the_quadratic(self):
        for n in (5, 10, 25):
            t = thresholds(n)
            for root in (t.K_lower, t.K_upper):
                f = -12 * root**2 + 12 * (n * n + n - 1) * root - _quartic_q(n)
                assert abs(f) < 1e-3 * max(1.0, 12 * root**2)

    def test_K_below_J_exact(self):
        for n in range(2, 501):
            t = thresholds(n)
            assert t.K <= t.J

    def test_K_vs_lower_root_exact_classification(self):
        """K sits at or below the lower root for every n >= 5 except n = 6.

        Exact form: with t = A - 24K, [K <= lower root] iff [t >= 0 and
        t^2 >= D].  At n = 5 the quartic vanishes, so K = lower root = 0.
        """
        for n in range(5, 501):
            A, D = _discriminant(n)
            K = thresholds(n).K
            t = A - 24 * K
            below = t >= 0 and t * t >= D
            assert below == (n != 6), n

    def test_n6_counterexample_magnitude(self):
        """At n = 6 the gap is ~5.3e-3, far beyond any 1e-9 tolerance."""
        t = thresholds(6)
        assert t.K == Fraction(7, 10)
        assert float(t.K) > t.K_lower + 5e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            thresholds(0)


class TestThresholdEquivalences:
    def test_I_example_cells(self):
        assert check_I_equivalence(10, 5)
        assert check_I_equivalence(3, 0)
        # direction content behind the cells
        assert alpha(10, 5) <= alpha(10, 6)
        assert alpha(3, 0) > alpha(3, 1)

    def test_J_example_cells(self):
        assert check_J_equivalence(1, 1)
        assert alpha(1, 1) == alpha(2, 1) == Fraction(1, 8)  # boundary equality
        assert check_J_equivalence(2, 4)
        assert alpha(2, 4) < alpha(3, 4)

    def test_K_example_cells(self):
        assert check_K_appendix_equivalence(10, 3)
        assert check_K_appendix_equivalence(10, 20)

    def test_K_needs_n_at_least_two(self):
        with pytest.raises(ValueError):
            check_K_appendix_equivalence(1, 0)

    @pytest.mark.parametrize("check, n, p", [
        (check_I_equivalence, 0, 3), (check_J_equivalence, -1, 2),
        (check_K_appendix_equivalence, 5, -1), (check_upper_lower_K, 6, -2)])
    def test_cells_outside_the_domain_raise(self, check, n, p):
        with pytest.raises(ValueError, match="n >= 1, p >= 0"):
            check(n, p)

    def test_sweeps_small(self):
        for n in range(1, 16):
            for p in range(0, 80):
                assert check_I_equivalence(n, p), (n, p)
                assert check_J_equivalence(n, p), (n, p)
                if n >= 2:
                    assert check_K_appendix_equivalence(n, p), (n, p)

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=600))
    @settings(max_examples=120)
    def test_equivalences_property(self, n, p):
        assert check_I_equivalence(n, p)
        assert check_J_equivalence(n, p)
        if n >= 2:
            assert check_K_appendix_equivalence(n, p)


class TestUpperLowerK:
    def test_three_regions_at_twenty(self):
        t = thresholds(20)
        below = int(t.K_lower) - 1
        inside = (int(t.K_lower) + int(t.K_upper)) // 2
        above = int(t.K_upper) + 2
        assert check_upper_lower_K(20, below)
        assert check_upper_lower_K(20, inside)
        assert check_upper_lower_K(20, above)

    def test_root_hit_reports_indeterminate(self):
        # n = 5 has a root exactly at p = 0 (the quartic vanishes)
        assert _quartic_q(5) == 0
        assert check_upper_lower_K(5, 0) is None

    def test_only_exact_roots_are_ties(self):
        # 24p = A -+ sqrt(D) in integers; the neighbours of a tie are decided
        for n, p in ((5, 0), (5, 29), (90, 714), (90, 7475)):
            A, D = _discriminant(n)
            assert (A - 24 * p) ** 2 == D
            assert check_upper_lower_K(n, p) is None
            assert check_upper_lower_K(n, p + 1) is True
            if p:
                assert check_upper_lower_K(n, p - 1) is True

    def test_rejects_n_without_roots(self):
        with pytest.raises(ValueError):
            check_upper_lower_K(4, 1)

    def test_sweep(self):
        for n in (5, 6, 12, 20):
            for p in range(0, 500):
                result = check_upper_lower_K(n, p)
                assert result is not False, (n, p)


class TestQuotientIdentity:
    def test_example_cell(self):
        assert check_quotient_identity(5, 3)

    def test_n1_anchor(self):
        # p = 1 gives ratio 0, p = 2 gives 1/4: (p-1)/(p+2) exactly
        assert check_quotient_identity(1, 1)
        assert check_quotient_identity(1, 2)
        assert (alpha(1, 2) - alpha(2, 2)) / (Fraction(0) - alpha(1, 2)) == Fraction(1, 4)

    def test_n1_p0_is_indeterminate(self):
        """The guard n(n-1) = 2p reduces to p = 0 at n = 1; the anchor formula
        does not hold there either (true ratio +1/2 vs formula -1/2)."""
        assert check_quotient_identity(1, 0) is None

    def test_guard_set_skipped(self):
        for n in range(2, 12):
            p_guard, rem = divmod(n * (n - 1), 2)
            assert rem == 0
            assert check_quotient_identity(n, p_guard) is None

    def test_sweep(self):
        for n in range(1, 16):
            for p in range(0, 100):
                assert check_quotient_identity(n, p) is not False, (n, p)

    def test_domain(self):
        """The error names the caller's cell, not the walk's start (n-1, p)."""
        for n, p in [(0, 0), (0, 3), (-2, 0), (1, -1)]:
            with pytest.raises(ValueError, match=re.escape(f"n >= 1, p >= 0, got ({n}, {p})")):
                check_quotient_identity(n, p)


class TestUniformEstimate:
    def test_zero_difference_cell(self):
        assert alpha(2, 1) - alpha(1, 1) == 0
        assert check_uniform_p_estimate(1, 1)

    def test_example_cell(self):
        assert check_uniform_p_estimate(7, 3)

    def test_sweep(self):
        for n in range(1, 20):
            for p in range(1, 80):
                assert check_uniform_p_estimate(n, p), (n, p)

    def test_domain(self):
        with pytest.raises(ValueError):
            check_uniform_p_estimate(1, 0)


class TestAlpha0Difference:
    def test_plain_difference_is_dyadic(self):
        for n in range(1, 30):
            assert abs(alpha(n + 1, 0) - alpha(n, 0)) == Fraction(1, 2 ** (n + 1))

    def test_normalized_identity_sweep(self):
        for n in range(1, 61):
            assert check_alpha0_difference(n)

    def test_domain(self):
        with pytest.raises(ValueError):
            check_alpha0_difference(0)


class TestMajorant:
    def test_M0_is_one(self):
        assert BoundConstants.majorant(0) == 1.0

    def test_two_term_sum(self):
        assert check_majorant_summability(1) == pytest.approx(
            1.0 + BoundConstants.majorant(1)
        )

    def test_envelope(self):
        total = check_majorant_summability(10**4)
        assert total <= 3.613
        assert total <= 4.0

    def test_monotone_in_P(self):
        values = [check_majorant_summability(P) for P in (1, 10, 100, 1000)]
        assert values == sorted(values)

    def test_majorant_dominates_differences(self):
        for n in range(1, 30):
            for p in range(0, 60):
                d = abs(float(alpha(n + 1, p) - alpha(n, p)))
                assert d <= BoundConstants.majorant(p) * (1 + 1e-12), (n, p)

    def test_constants(self):
        assert BoundConstants.C_sum == Fraction(33, 2)
        assert BoundConstants.C_meanbound == Fraction(99, 2)


def exact_difference_sum(n):
    """sum_p |alpha(n,p) - alpha(n+1,p)| as 2 sum_{p<=J(n)} of the differences."""
    J = n * (n + 1) // 2
    return 2 * sum((alpha(n, p) - alpha(n + 1, p) for p in range(J + 1)), Fraction(0))


def horner_partial_difference_sum(n, P):
    """The P-term partial sum the sign-change identity replaced, kept as reference.

    sum_{p<=P} |d(n,p)| / 2^(n+1+2p) by one Horner pass over the mantissa
    rows; the discarded tail is at most 2/isqrt(P).
    """
    row_lo = alpha_mantissa_row(n, P)
    row_hi = alpha_mantissa_row(n + 1, P)
    num = 0
    for p in range(P + 1):
        num = (num << 2) + abs(row_hi[p] - 2 * row_lo[p])
    return Fraction(num, 1 << (n + 1 + 2 * P))


class TestSumCoefficientBound:
    def test_small_n(self):
        assert check_sum_coefficient_bound(1)
        assert check_sum_coefficient_bound(10)

    def test_exact_sums_at_one_and_two(self):
        """The full sums are 1/2 and 21/64, far below 33/2 and 33/4."""
        assert exact_difference_sum(1) == Fraction(1, 2)
        assert exact_difference_sum(2) == Fraction(21, 64)

    def test_exact_sum_inside_old_tail_bracket(self):
        P = 10 ** 4
        scaled = {1: 0.5, 2: 0.656, 5: 0.810, 10: 0.881, 20: 0.922, 40: 0.944}
        for n, want in scaled.items():
            exact = exact_difference_sum(n)
            partial = horner_partial_difference_sum(n, P)
            assert partial <= exact <= partial + Fraction(2, math.isqrt(P)), n
            assert float(n * exact) == pytest.approx(want, abs=5e-4), n

    def test_coefficients_sum_to_one(self):
        """Abel at x = 1: sum_p alpha(n,p) = psi(1)^n = 1.  alpha(n, p) is the
        chance that a fair +-1 walk first reaches -n at step N = n + 2p, so by
        the reflection principle the tail past P is P(-n < S_N <= n) at
        N = n + 2P, a sum of n binomial terms."""
        P = 2000
        for n in (1, 7, 40):
            num = 0
            for a in alpha_mantissa_row(n, P):
                num = (num << 2) + a
            deficit = 1 - Fraction(num, 1 << (n + 2 * P))
            N = n + 2 * P
            tail = sum(math.comb(N, (N + j) // 2) for j in range(-n + 2, n + 1, 2))
            assert deficit == Fraction(tail, 1 << N), n

    def test_domain(self):
        with pytest.raises(ValueError):
            check_sum_coefficient_bound(0)


class TestSeanLemma:
    def test_example_cell(self):
        # LHS at (1,1) is C(3,1)/8 = 3/8; RHS ~ 0.6139
        assert Fraction(3, 8) == Fraction(math.comb(3, 1), 8)
        assert check_sean_lemma(1, 1)

    def test_large_n_cell(self):
        assert check_sean_lemma(50, 2)

    def test_sweep(self):
        for n in range(1, 30):
            for p in range(1, 60):
                assert check_sean_lemma(n, p), (n, p)

    def test_domain(self):
        with pytest.raises(ValueError):
            check_sean_lemma(1, 0)


class TestInBound:
    def test_first_valid_n(self):
        # I_6 = 14/6, floor 2
        assert (6 * 6 - 3 * 6 - 4) // 6 == 2
        assert check_In_bound(6)

    def test_example(self):
        assert check_In_bound(20)

    def test_sweep(self):
        for n in range(6, 80):
            assert check_In_bound(n)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            check_In_bound(5)


class TestGammaK:
    def test_c_value_at_one_one(self):
        assert c_np(1, 1) == pytest.approx(0.84375, rel=1e-12)

    def test_lower_constant_at_K1(self):
        assert math.exp(-0.5) <= c_np(1, 1) <= 1.0

    def test_outside_region_skips(self):
        assert check_gamma_K(10, 1, 1.0) is None

    def test_sweep(self):
        for K in (1.0, 2.0, 4.0):
            for n in range(1, 25):
                p0 = math.ceil(n * n / K)
                for p in range(p0, p0 + 30):
                    assert check_gamma_K(n, p, K) is not False, (n, p, K)

    def test_c_np_domain(self):
        with pytest.raises(ValueError):
            c_np(0, 1)


class TestTechnicalLemma:
    def test_N1_headroom(self):
        """At N = 1 the inequality reduces to 1 <= C * alpha(1,1) = C/8."""
        C = technical_C_down()
        assert alpha(1, 1) == Fraction(1, 8)
        assert C / 8 >= 1
        assert check_technical_lemma(1)

    def test_sweep(self):
        for N in range(1, 120):
            assert check_technical_lemma(N), N

    def test_constant_value(self):
        expected = 6 * math.exp(7 / 12) * math.sqrt(2 * math.pi) / (2 - math.sqrt(2))
        assert float(technical_C_down()) == pytest.approx(expected, rel=1e-12)
        assert float(technical_C_down()) <= expected

    def test_domain(self):
        with pytest.raises(ValueError):
            check_technical_lemma(0)


class TestSMonotone:
    def test_small_cells(self):
        assert check_S_monotone(4, 0)
        assert check_S_monotone(100, 0)

    def test_sweep(self):
        for N in (4, 25, 100):
            for k in range(0, 121):
                assert check_S_monotone(N, k), (N, k)

    def test_strictly_decreasing_observed(self):
        from artifact.coeffs import sum_alpha

        r = 10
        values = [sum_alpha(r, k) for k in range(40)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestDifferenceMonotoneBelowK:
    """For n >= 2 and 1 <= p <= floor(K), successive absolute differences
    |alpha(n,p) - alpha(n+1,p)| are nondecreasing in p, checked exactly."""

    def test_sweep(self):
        for n in range(2, 41):
            K = thresholds(n).K
            if K is None or K < 1:
                continue
            for p in range(1, math.floor(K)):
                d_here = abs(alpha(n, p) - alpha(n + 1, p))
                d_next = abs(alpha(n, p + 1) - alpha(n + 1, p + 1))
                assert d_here <= d_next, (n, p)


class TestUniformBoundCorollaries:
    """Function-level consequences of the difference-sum bound."""

    def test_scaled_difference_on_unit_grid(self):
        grid = [i / 1023 for i in range(1024)]
        bound = 33 / 2 + 1e-9
        for n in range(1, 41):
            worst = max(abs(psi_eval(x, n + 1) - psi_eval(x, n)) for x in grid)
            assert n * worst <= bound, n

    def test_weighted_difference_on_unit_grid(self):
        grid = [i / 1023 for i in range(1024)]
        bound = 33 / 2 + 1
        for n in (1, 5, 20, 40):
            worst = max(
                abs((n + 1) * psi_eval(x, n + 1) - n * psi_eval(x, n)) for x in grid
            )
            assert worst <= bound, n

    def test_weighted_difference_on_negative_axis_via_partial_sums(self):
        """On [-1, 0) the series is alternating; for P past the peak the
        discarded tail is below the first omitted term, so a truncated sum
        plus that certificate stays within the bound."""
        P = 2000
        bound = 33 / 2 + 1
        for n in (1, 5, 20, 40):
            slack = (n + 1) * float(alpha(n + 1, P + 1)) + n * float(alpha(n, P + 1))
            for x in (-1.0, -0.75, -0.25, -1e-3):
                value = abs(
                    (n + 1) * psi_partial_sum(x, n + 1, P)
                    - n * psi_partial_sum(x, n, P)
                )
                assert value <= bound + slack, (n, x)

    def test_partial_sums_match_function_on_negative_axis(self):
        P = 4000
        for n in (1, 4):
            for x in (-1.0, -0.5):
                truncated = psi_partial_sum(x, n, P)
                certificate = float(alpha(n, P + 1))
                assert abs(truncated - psi_eval(x, n)) <= certificate


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuiteError):
            run_suite("bogus")

    def test_hyphen_normalization(self):
        report = run_suite("k-regions", n_max=6, p_max=30)
        assert report.suite == "k_regions"
        assert report.passed

    def test_all_suites_registered(self):
        assert set(SUITES) == {
            "oracle", "recurrences", "monotonicity", "k_regions", "quotient",
            "bounds", "alpha0", "majorant", "sum_bound", "gamma", "technical",
            "s_monotone", "sums",
        }

    SMALL = {
        "oracle": dict(n_max=5, p_max=10),
        "recurrences": dict(n_max=5, alpha_p_max=15, beta_p_max=15),
        "monotonicity": dict(n_max=8, p_max=30),
        "k_regions": dict(n_max=8, p_max=40),
        "quotient": dict(n_max=6, p_max=25),
        "bounds": dict(n_max=7, p_max=25),
        "alpha0": dict(n_max=12),
        "majorant": dict(P=200),
        "sum_bound": dict(n_max=3),
        "gamma": dict(n_max=6),
        "technical": dict(N_max=25),
        "s_monotone": dict(N_max=16, k_max=20),
        "sums": dict(N_max=6, p_max=12),
    }

    def test_small_rectangles_pass(self):
        assert set(self.SMALL) == set(SUITES)
        for name, rect in self.SMALL.items():
            report = run_suite(name, **rect)
            assert report.passed, (name, report.failures[:2])
            assert report.checks > 0
            assert report.elapsed_s >= 0
            # the registry names the report and states the rectangle that ran
            assert report.suite == name
            assert tuple(report.rectangle) == RECTANGLE_KEYS[name]
            assert report.rectangle | rect == report.rectangle, name

    def test_recurrences_read_beta_closed_form(self, monkeypatch):
        """The beta cells read beta's own closed form, so a wrong beta
        mantissa fails them while every alpha cell still passes."""
        right = analysis.beta_mantissa
        monkeypatch.setattr(analysis, "beta_mantissa",
                            lambda n, p: right(n, p) + ((n, p) == (5, 70)))
        report = run_suite("recurrences", n_max=8, beta_p_max=80, alpha_p_max=20)
        assert not report.passed
        assert {f["params"]["check"] for f in report.failures} == {"beta"}
        assert {(f["params"]["N"], f["params"]["p"]) for f in report.failures} == {
            (4, 70), (5, 70), (6, 71)}

    @pytest.mark.parametrize("in_n_max, peaks", [(5, 0), (6, 1), (7, 2)])
    def test_bounds_peak_cells(self, monkeypatch, in_n_max, peaks):
        """The peak column starts at n = 6 and reads a(n, floor(I(n))) from the walk."""
        seen = []
        claim = analysis._peak_claim

        def record(n, i, a, M):
            seen.append((n, i, a))
            return claim(n, i, a, M)

        monkeypatch.setattr(analysis, "_peak_claim", record)
        rect = dict(n_max=1, p_max=1, sean_n_max=1)
        report = run_suite("bounds", in_n_max=in_n_max, **rect)
        assert report.passed
        assert report.checks == run_suite("bounds", in_n_max=0, **rect).checks + peaks
        cells = [(n, (n * n - 3 * n - 4) // 6) for n in range(6, in_n_max + 1)]
        assert seen == [(n, i, alpha_mantissa(n, i)) for n, i in cells]

    def test_bounds_takes_one_binomial_mantissa(self, monkeypatch):
        """Only the seed of the peak walk is a closed-form mantissa; the other
        194 peak cells are ratio hops and the rows come from the kernel."""
        calls = []
        right = alpha_mantissa

        def counted(n, p):
            calls.append((n, p))
            return right(n, p)

        monkeypatch.setattr(analysis, "alpha_mantissa", counted)
        monkeypatch.setattr(coeffs, "alpha_mantissa", counted)
        assert run_suite("bounds").passed
        assert calls == [(6, 2)]

    def test_recurrences_take_no_alpha_binomial(self, monkeypatch):
        """The alpha closed forms come from the checked ratio hops of
        alpha_mantissa_row, not from one binomial per cell."""
        calls = []
        right = alpha_mantissa
        counted = lambda n, p: calls.append((n, p)) or right(n, p)
        monkeypatch.setattr(analysis, "alpha_mantissa", counted)
        monkeypatch.setattr(coeffs, "alpha_mantissa", counted)
        assert run_suite("recurrences").passed
        assert calls == []

    def test_sums_take_one_binomial_per_p(self, monkeypatch):
        """C(2p, p) once per p; every C(N+2p, p) is a hop from C(N-1+2p, p)."""
        calls = []
        right = analysis.binomial
        counted = lambda n, k: calls.append((n, k)) or right(n, k)
        monkeypatch.setattr(analysis, "binomial", counted)
        monkeypatch.setattr(coeffs, "binomial", counted)
        report = run_suite("sums")
        assert report.passed and report.checks == 40 * 101
        assert calls == [(2 * p, p) for p in range(101)]

    def test_technical_certifies_once_per_column(self, monkeypatch):
        """One threshold per (r, k) with k <= min((r+1)^2 - 1, N_max): 3 270
        divisions for the 80 600 cells at N_max = 400."""
        calls = []
        right = analysis.certified_ge_threshold
        monkeypatch.setattr(analysis, "certified_ge_threshold",
                            lambda *args: calls.append(args) or right(*args))
        report = run_suite("technical")
        assert report.passed and report.checks == 80600
        assert len(calls) <= 3270

    def test_technical_failure_names_its_cell(self, monkeypatch):
        """A row with one failing cell reports that cell alone, with the row's
        params and the varying key, and counts every cell of the rectangle."""
        checks = run_suite("technical", N_max=25).checks
        claim = analysis._technical_claim
        monkeypatch.setattr(analysis, "_technical_claim",
                            lambda N, k, *rest: (N, k) != (10, 3) and claim(N, k, *rest))
        report = run_suite("technical", N_max=25)
        assert report.checks == checks
        assert report.skipped == 0
        assert report.to_dict()["failures"] == [
            {"params": {"N": 10, "k": 3}, "lhs": None, "rhs": None}]

    def test_bounds_failure_names_its_cell(self, monkeypatch):
        rect = dict(n_max=7, p_max=25, sean_n_max=7, in_n_max=10)
        checks = run_suite("bounds", **rect).checks
        claim = analysis._uniform_claim
        monkeypatch.setattr(analysis, "_uniform_claim",
                            lambda n, p, *rest: (n, p) != (2, 5) and claim(n, p, *rest))
        report = run_suite("bounds", **rect)
        assert report.checks == checks
        assert report.failures == [
            {"params": {"check": "uniform", "n": 2, "p": 5}, "lhs": None, "rhs": None}]
        assert list(report.failures[0]["params"]) == ["check", "n", "p"]

    @staticmethod
    def tighten(monkeypatch, name, factors):
        """Replace the interval bound analysis.<name>(p) by factors[p] times it."""
        right = getattr(analysis, name)
        monkeypatch.setattr(analysis, name, lambda p: right(p) * factors.get(p, 1))

    def test_bounds_fallbacks_match_per_cell_checks(self, monkeypatch):
        """With bounds tightened until the per-p certificates break, the suite
        reports what the per-cell checks report.  At p = 5, 9, 15 and 25
        alpha(1, p) no longer clears the sharp bound, so every uniform cell
        there runs the full claim: the first three columns fail in part, p = 25
        passes.  At p = 2 and 10 the Stirling bound lies between x_100 and x_1,
        so the column fails and then passes."""
        self.tighten(monkeypatch, "_eq8_bound", {5: 0.2, 9: 0.2, 15: 0.2, 25: 0.9})
        self.tighten(monkeypatch, "_sean_bound", {2: 0.3, 10: 0.6})
        rect = dict(n_max=12, p_max=30, sean_n_max=100, in_n_max=10)
        want = VerifyReport(suite="bounds", rectangle=rect)
        for n in range(1, 101):
            if n <= 12:
                for p in range(1, 31):
                    want.record({"check": "uniform", "n": n, "p": p},
                                check_uniform_p_estimate(n, p))
            for p in range(1, 31):
                want.record({"check": "stirling", "n": n, "p": p}, check_sean_lemma(n, p))
        for n in range(6, 11):
            want.record({"check": "peak", "n": n}, check_In_bound(n))
        got = run_suite("bounds", **rect)
        assert (got.checks, got.skipped) == (want.checks, want.skipped)
        assert got.failures == want.failures
        assert {(f["params"]["check"], f["params"]["p"]) for f in got.failures} == {
            ("uniform", 5), ("uniform", 9), ("uniform", 15), ("stirling", 2), ("stirling", 10)}
        assert [f["params"]["n"] for f in got.failures
                if f["params"]["check"] == "stirling" and f["params"]["p"] == 2] == [1, 2, 3]

    def test_technical_thresholds_match_per_cell_checks(self, monkeypatch):
        """With C shrunk until some cells fail, the per-column thresholds
        report the cells of the direct comparison N s / 2^(r+2k) >= r/C."""
        right = analysis._technical_C
        monkeypatch.setattr(analysis, "_technical_C", lambda: right() / 5.8)
        want = VerifyReport(suite="technical", rectangle={"N_max": 40})
        for N in range(1, 41):
            r = math.isqrt(N)
            for k in range(N + 1):
                want.record({"N": N, "k": k}, certified_ge(
                    N * sum_alpha_mantissa(r, k), r / analysis._technical_C(), r + 2 * k))
        got = run_suite("technical", N_max=40)
        assert (got.checks, got.skipped) == (want.checks, want.skipped)
        assert got.failures == want.failures
        failed = {f["params"]["N"] for f in got.failures}
        assert failed and failed != set(range(1, 41))

    def test_majorant_sums_each_term_once(self, monkeypatch):
        """The partial sums at 1, 10, 100, 1000 and P come from one pass of
        P + 1 terms, and equal the per-P sums."""
        calls = []
        term = BoundConstants.majorant
        monkeypatch.setattr(BoundConstants, "majorant",
                            staticmethod(lambda p: calls.append(p) or term(p)))
        report = run_suite("majorant", P=1500)
        assert report.passed and report.checks == 3
        assert calls == list(range(1501))
        total = 0.0
        for p in range(1501):
            total += term(p)
        assert check_majorant_summability(1500) == total

    def test_registry_fills_rectangle_defaults_from_signature(self):
        assert run_suite("gamma", n_max=2).rectangle == {
            "n_max": 2, "K_values": [1, 2, 4]}
        assert run_suite("sums", p_max=3).rectangle == {"N_max": 40, "p_max": 3}

    def test_plain_wrapper_keeps_unread_key_error(self, monkeypatch):
        inner = SUITES["alpha0"]
        monkeypatch.setitem(SUITES, "alpha0", lambda *args, **kwargs: inner(*args, **kwargs))
        assert run_suite("alpha0", n_max=3).checks == 3
        with pytest.raises(ValueError, match="does not read bogus"):
            run_suite("alpha0", n_max=3, bogus=1)

    @pytest.mark.parametrize("K_values", [[-1], [0], [1, 0.5]])
    def test_gamma_rejects_K_below_one(self, K_values):
        with pytest.raises(ValueError, match="K >= 1"):
            run_suite("gamma", n_max=3, K_values=K_values)

    def test_unread_rectangle_keys_fail_loudly(self):
        with pytest.raises(ValueError, match="bogus, p_max"):
            run_suite("alpha0", p_max=5, bogus=1)
        with pytest.raises(ValueError, match="N_max"):
            run_suite("sums", n_max=6, N_max=None)
        # None means "use the default" and is not an unread key
        assert run_suite("alpha0", n_max=3, p_max=None).checks == 3

    def test_report_structure_round_trips_json(self):
        report = run_suite("alpha0", n_max=6)
        doc = json.loads(report.to_json())
        assert doc["suite"] == "alpha0"
        assert doc["passed"] is True
        assert doc["failures"] == []
        assert "elapsed_s" in doc
        doc2 = json.loads(report.to_json(include_elapsed=False))
        assert "elapsed_s" not in doc2

    def test_determinism_modulo_elapsed(self):
        a = run_suite("quotient", n_max=5, p_max=20).to_json(include_elapsed=False)
        b = run_suite("quotient", n_max=5, p_max=20).to_json(include_elapsed=False)
        assert a == b

    def test_failures_are_recorded_not_raised(self):
        report = VerifyReport(suite="demo", rectangle={})
        report.record({"n": 1}, True)
        report.record({"n": 2}, False, Fraction(1, 3), 0.25)
        report.record({"n": 3}, None)
        assert report.checks == 3
        assert report.skipped == 1
        assert not report.passed
        assert report.failures[0]["lhs"] == "1/3"

    @given(st.lists(st.tuples(st.sampled_from(["I", "J"]), st.lists(VERDICTS)),
                    max_size=6))
    @settings(max_examples=200)
    def test_row_tally_matches_cell_records(self, rows):
        by_row = VerifyReport(suite="demo", rectangle={})
        by_cell = VerifyReport(suite="demo", rectangle={})
        for n, (check, row) in enumerate(rows):
            values = range(3, 3 + len(row))
            by_row.record_row({"check": check, "n": n}, "p", values, row)
            for p, verdict in zip(values, row):
                cell = {"check": check, "n": n, "p": p}
                if isinstance(verdict, tuple):
                    by_cell.record(cell, *verdict)
                else:
                    by_cell.record(cell, verdict)
        assert by_row.checks == by_cell.checks == sum(len(r) for _, r in rows)
        assert by_row.skipped == by_cell.skipped
        assert by_row.to_dict()["failures"] == by_cell.to_dict()["failures"]

    def test_run_all_suites_smoke(self):
        # default rectangles are exercised by the acceptance tests; here we
        # only pin the registry order contract on names
        assert sorted(SUITES) == [r for r in sorted(SUITES)]


class TestBoundEnclosures:
    """Each suite bound's integer enclosure contains the value computed in
    300-bit mpmath, and is at most 2^-120 wide relative to it, or 4 units of
    2^-E where the value is so small that the scale dominates."""

    @staticmethod
    def encloses(bound, value) -> bool:
        lo, hi = mpmath.ldexp(bound.lo, -bound.E), mpmath.ldexp(bound.hi, -bound.E)
        return lo <= value <= hi and bound.hi - bound.lo <= max(4, value * 2 ** (bound.E - 120))

    def test_uniform_and_stirling_bounds(self):
        with mpmath.workprec(300):
            e12 = mpmath.exp(mpmath.mpf(1) / 12)
            for p in range(1, 401):
                root = mpmath.sqrt(mpmath.pi * p)
                eq8 = mpmath.exp(mpmath.mpf(1) / (24 * p)) / (2 * (1 + p) * root)
                assert self.encloses(analysis._eq8_bound(p), eq8), p
                assert self.encloses(analysis._sean_bound(p), e12 / root), p

    def test_peak_and_technical_constants(self):
        with mpmath.workprec(300):
            M = 6 * mpmath.sqrt(2 / mpmath.pi) * mpmath.exp(mpmath.mpf(1) / 12)
            C = (6 * mpmath.exp(mpmath.mpf(7) / 12) * mpmath.sqrt(2 * mpmath.pi)
                 / (2 - mpmath.sqrt(2)))
            assert self.encloses(analysis._in_bound_M(), M)
            assert self.encloses(analysis._technical_C(), C)

    def test_technical_C_down_bits(self):
        """The float at or below the lower end, pinned."""
        C = technical_C_down()
        assert C.hex() == "0x1.7011e52b47e34p+5"
        bound = analysis._technical_C()
        lo = Fraction(bound.lo) / Fraction(2) ** bound.E
        assert Fraction(C) <= lo
        assert Fraction(math.nextafter(C, math.inf)) > lo
