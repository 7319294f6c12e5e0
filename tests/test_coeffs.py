"""Tests for the exact coefficient engine: closed forms, oracle, recurrences."""

import math
from decimal import Context, Inexact, Rounded, getcontext, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import coeffs
from artifact.coeffs import (
    alpha,
    alpha_mantissa,
    alpha_mantissa_row,
    alpha_mantissa_stream,
    alpha_mantissa_walk,
    alpha_recurrence_check,
    beta,
    beta_mantissa,
    beta_recurrence_check,
    catalan_series,
    decimal_rows,
    mantissa_rows,
    oracle_alpha,
    oracle_beta,
    psi_eval,
    psi_partial_sum,
    sum_alpha,
    sum_alpha_mantissa,
)
from artifact.operators import S_value

ROOT2 = math.sqrt(2.0)


def fraction_alternating_sum(numerator, start, window):
    """The averaged alternating sum that S(n)'s closed form replaced, in
    Fractions, kept as a reference.

    Exact partial sum of (-1)^p numerator(p) / 4^p for p < start,
    plus the window partial sums averaged pairwise down to one value.
    """
    def term(p):
        t = Fraction(numerator(p), 1 << (2 * p))
        return -t if p % 2 else t

    total = sum((term(p) for p in range(start)), Fraction(0))
    parts = []
    acc = Fraction(0)
    for p in range(start, start + window):
        acc += term(p)
        parts.append(acc)
    while len(parts) > 1:
        parts = [(parts[i] + parts[i + 1]) / 2 for i in range(len(parts) - 1)]
    return float(total + parts[0])


def reference_S_value(n, window=64):
    """S(n) by the Fraction reference."""
    J = (n * n + n) // 2
    return fraction_alternating_sum(
        lambda p: math.comb(n + 2 * p - 1, p - 1) if p else 0, J + 8, window
    )


class TestFrozenValues:
    """Hand-checked coefficient values pinned as regression anchors."""

    def test_alpha_anchors(self):
        assert alpha(1, 0) == Fraction(1, 2)
        assert alpha(1, 1) == Fraction(1, 8)
        assert alpha(1, 2) == Fraction(1, 16)
        assert alpha(2, 0) == Fraction(1, 4)
        assert alpha(2, 1) == Fraction(1, 8)
        assert alpha(2, 2) == Fraction(5, 64)
        assert alpha(2, 3) == Fraction(7, 128)
        assert alpha(5, 0) == Fraction(1, 32)

    def test_alpha_at_zero_is_two_to_minus_n(self):
        for n in range(1, 80):
            assert alpha(n, 0) == Fraction(1, 2**n)

    def test_beta_anchors(self):
        assert beta(1, 1) == Fraction(1, 2)
        assert beta(1, 2) == Fraction(1, 8)
        assert beta(3, 2) == 0
        assert beta(2, 2) == Fraction(1, 4)

    def test_beta_vanishes_below_diagonal(self):
        for n in range(1, 12):
            for p in range(n):
                assert beta(n, p) == 0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            alpha(0, 0)
        with pytest.raises(ValueError):
            alpha(1, -1)
        with pytest.raises(ValueError):
            beta(0, 0)
        for name, accessor in (("alpha", alpha_mantissa), ("beta", beta_mantissa)):
            for n, p in ((0, 3), (-2, 5), (3, -1), (0, 0)):
                with pytest.raises(ValueError, match=rf"^{name} requires n >= 1, p >= 0, "
                                                     rf"got \({n}, {p}\)$"):
                    accessor(n, p)


class TestMantissa:
    def test_matches_alpha(self):
        for n in range(1, 15):
            for p in range(0, 25):
                assert Fraction(alpha_mantissa(n, p), 2 ** (n + 2 * p)) == alpha(n, p)

    def test_row_recurrence_agrees_with_direct(self):
        for n in (1, 2, 7, 23):
            row = alpha_mantissa_row(n, 60)
            for p in range(61):
                assert row[p] == alpha_mantissa(n, p)

    def test_rows_match_closed_form_on_the_recurrences_rectangle(self):
        """The recurrences suite reads its alpha closed forms from these rows."""
        for n in range(1, 42):
            assert alpha_mantissa_row(n, 201) == [alpha_mantissa(n, p) for p in range(202)], n

    def test_mantissas_are_positive(self):
        for n in range(1, 30):
            assert all(a > 0 for a in alpha_mantissa_row(n, 50))

    @given(st.integers(min_value=1, max_value=80), st.integers(min_value=0, max_value=3000))
    @settings(max_examples=12, deadline=None)
    def test_kernel_rows_match_closed_form(self, n_max, p_max):
        """Rows built by subtraction equal the closed form and stay positive."""
        for n, row in mantissa_rows(n_max, p_max):
            assert all(a > 0 for a in row[: p_max + 1]), n
        assert n == n_max
        assert row[: p_max + 1] == alpha_mantissa_row(n, p_max)
        for p in {0, p_max // 3, p_max // 2, p_max}:
            assert row[p] == alpha_mantissa(n, p), (n, p)

    def test_kernel_rows_exhaustive_small(self):
        rows = {n: list(row[:41]) for n, row in mantissa_rows(25, 40)}
        assert sorted(rows) == list(range(1, 26))
        for n, row in rows.items():
            assert row == [alpha_mantissa(n, p) for p in range(41)], n

    @pytest.mark.parametrize("n_max, p_max", [
        (0, 5), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (2, 200)])
    def test_kernel_rows_at_the_seed(self, n_max, p_max):
        """The rows next to the psi^0 = 1 seed; none below n_max = 1."""
        rows = [(n, row[: p_max + 1]) for n, row in mantissa_rows(n_max, p_max)]
        assert rows == [(n, [alpha_mantissa(n, p) for p in range(p_max + 1)])
                        for n in range(1, n_max + 1)]

    def test_row_two_is_row_one_shifted(self):
        """The recurrence at n = 1 with psi^0 = 1: a(2, p) = a(1, p+1)."""
        assert all(alpha_mantissa(2, p) == alpha_mantissa(1, p + 1) for p in range(201))

    @pytest.mark.parametrize("n", [0, -1])
    def test_rows_reject_n_below_one(self, n):
        """n = 0 once gave 1.0 / -0.0 and n = -1 a ZeroDivisionError or NaNs."""
        for evaluate in (
            lambda: alpha_mantissa_row(n, 5),
            lambda: next(alpha_mantissa_stream(n)),
            lambda: psi_partial_sum(0.5, n, 5),
        ):
            with pytest.raises(ValueError, match="n must be >= 1"):
                evaluate()


class TestDecimalRows:
    """The exact Decimal rows the table export prints, against the integer kernel."""

    def test_every_cell_matches_the_integer_kernel(self):
        """Fraction(row[p]) = a(n, p) / 2^(n+2p) on all of n <= 60, p <= 400,
        and every entry is normalized: its last digit is not 0."""
        p_max = 400
        for (n, row), (m, mantissas) in zip(decimal_rows(60, p_max), mantissa_rows(60, p_max)):
            assert n == m
            for p in range(p_max + 1):
                assert Fraction(row[p]) == Fraction(mantissas[p], 1 << (n + 2 * p)), (n, p)
                assert row[p].as_tuple().digits[-1], (n, p)
        assert n == 60

    @pytest.mark.parametrize("n_max", [0, 1, 2])
    @pytest.mark.parametrize("p_max", [0, 1])
    def test_rows_at_the_seed(self, n_max, p_max):
        """The rows next to the psi^0 = 1 seed; none below n_max = 1."""
        rows = [(n, [Fraction(v) for v in row[: p_max + 1]])
                for n, row in decimal_rows(n_max, p_max)]
        assert rows == [(n, [alpha(n, p) for p in range(p_max + 1)])
                        for n in range(1, n_max + 1)]

    def test_exact_and_private_under_a_narrow_caller_context(self):
        """prec = 5 in the caller changes no digit, and the kernel's context
        never shows in the caller: not between rows, not afterwards."""
        with localcontext() as caller:
            caller.prec = 5
            caller.clear_flags()
            for n, row in decimal_rows(12, 30):
                assert getcontext() is caller and caller.prec == 5
                assert [Fraction(v) for v in row[:31]] == [alpha(n, p) for p in range(31)], n
            assert n == 12
            assert getcontext() is caller and caller.prec == 5
            assert not any(caller.flags.values())
            assert not caller.traps[Inexact] and not caller.traps[Rounded]

    def test_a_narrow_context_raises_instead_of_rounding(self, monkeypatch):
        """Half the digits the entries need: the trapped rounding raises."""
        monkeypatch.setattr(coeffs, "Context", lambda prec: Context(prec=prec // 2))
        with pytest.raises((Inexact, Rounded)):
            list(decimal_rows(3, 40))


class TestMantissaWalk:
    """Ratio hops along a path whose n and p never decrease."""

    def test_peak_column(self):
        cells = [(n, (n * n - 3 * n - 4) // 6) for n in range(6, 201)]
        assert list(alpha_mantissa_walk(cells)) == [alpha_mantissa(n, p) for n, p in cells]

    @given(st.lists(st.tuples(st.integers(1, 60), st.integers(0, 2000)),
                    min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_monotone_paths(self, cells):
        """Sorting n and p apart gives a path with repeats, single steps and long hops."""
        path = list(zip(sorted(n for n, _ in cells), sorted(p for _, p in cells)))
        assert list(alpha_mantissa_walk(path)) == [alpha_mantissa(n, p) for n, p in path]

    def test_seed_skips_the_binomial(self):
        assert list(alpha_mantissa_walk([(3, 4), (4, 5)], seed=alpha_mantissa(3, 4))) == [
            alpha_mantissa(3, 4), alpha_mantissa(4, 5)]

    def test_empty_path(self):
        assert list(alpha_mantissa_walk([])) == []

    def test_inexact_division_raises(self):
        """a(2, 2) / a(2, 1) = 5/2, so a wrong odd seed leaves a remainder."""
        assert list(alpha_mantissa_walk([(2, 1), (2, 2)])) == [2, 5]
        with pytest.raises(AssertionError, match="not an integer"):
            list(alpha_mantissa_walk([(2, 1), (2, 2)], seed=3))

    @pytest.mark.parametrize("path", [[(3, 4), (2, 5)], [(3, 4), (4, 3)]])
    def test_step_back_raises(self, path):
        with pytest.raises(ValueError, match="step back"):
            list(alpha_mantissa_walk(path))

    @pytest.mark.parametrize("start", [(0, 3), (-1, 0), (2, -1)])
    def test_rejects_start_outside_domain(self, start):
        with pytest.raises(ValueError, match="starts at n >= 1"):
            next(alpha_mantissa_walk([start]))


class TestOracle:
    """The convolution oracle shares no code with the closed forms."""

    def test_catalan_anchors(self):
        assert catalan_series(6) == [0, 1, 1, 2, 5, 14, 42]
        assert catalan_series(0) == [0]

    def test_beta_oracle_equality(self):
        for n in range(1, 9):
            series = oracle_beta(n, 24)
            for p in range(25):
                assert series[p] == beta(n, p), (n, p)

    def test_alpha_oracle_equality(self):
        for n in range(1, 9):
            series = oracle_alpha(n, 20)
            for p in range(21):
                assert series[p] == alpha(n, p), (n, p)

    def test_shift_identity(self):
        for n in range(1, 12):
            for p in range(0, 30):
                assert beta(n, p + n) == alpha(n, p)


class TestRecurrences:
    def test_alpha_recurrence(self):
        for n in range(2, 12):
            for p in range(0, 40):
                assert alpha_recurrence_check(n, p)

    def test_beta_recurrence(self):
        for n in range(2, 12):
            for p in range(0, 40):
                assert beta_recurrence_check(n, p)

    def test_recurrence_anchor_guard(self):
        with pytest.raises(ValueError):
            alpha_recurrence_check(1, 0)
        with pytest.raises(ValueError):
            beta_recurrence_check(1, 0)


class TestSums:
    def test_closed_form_matches_direct_sum(self):
        for N in range(1, 12):
            for p in range(0, 25):
                direct = sum(alpha(n, p) for n in range(1, N + 1))
                assert sum_alpha(N, p) == direct, (N, p)

    def test_telescoping_step(self):
        for N in range(1, 20):
            for p in (0, 3, 11):
                assert sum_alpha(N + 1, p) - sum_alpha(N, p) == alpha(N + 1, p)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sum_alpha(0, 0)
        with pytest.raises(ValueError):
            sum_alpha(1, -1)
        for N, p in ((0, 3), (-2, 5), (3, -1), (0, 0)):
            with pytest.raises(ValueError, match=rf"^sum_alpha requires N >= 1, p >= 0, "
                                                 rf"got \({N}, {p}\)$"):
                sum_alpha_mantissa(N, p)


class TestPsiEval:
    def test_values(self):
        assert psi_eval(0.0, 1) == 0.5
        assert psi_eval(0.0, 3) == 0.125
        assert psi_eval(1.0, 1) == 1.0
        assert psi_eval(1.0, 7) == 1.0
        assert psi_eval(-1.0, 1) == pytest.approx(ROOT2 - 1.0, rel=1e-15)

    def test_matches_naive_form_away_from_zero(self):
        for x in (0.2, 0.5, -0.7, 0.99, -1.0):
            naive = ((1.0 - math.sqrt(1.0 - x)) / x) ** 3
            assert psi_eval(x, 3) == pytest.approx(naive, rel=1e-13)

    def test_matches_exact_series_near_zero(self):
        """No cancellation at tiny x: compare against the exact rational series."""
        for exp in (10, 26, 40):
            x = Fraction(1, 2**exp)
            exact = sum(alpha(1, p) * x**p for p in range(6))
            assert psi_eval(float(x), 1) == pytest.approx(float(exact), rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            psi_eval(1.5, 1)
        with pytest.raises(ValueError):
            psi_eval(0.0, 0)

    def test_partial_sum_converges_from_below(self):
        x, n = 0.8, 2
        full = psi_eval(x, n)
        prev = 0.0
        for P in (4, 16, 64, 256):
            cur = psi_partial_sum(x, n, P)
            assert prev <= cur <= full + 1e-12
            prev = cur
        assert full - psi_partial_sum(x, n, 256) < 1e-12

    def test_partial_sum_domain(self):
        with pytest.raises(ValueError):
            psi_partial_sum(1.5, 1, 10)


class TestBoundarySeries:
    """S(n) against the averaged alternating sum it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 31, 32, 60])
    def test_bit_identical_to_fraction_reference(self, n):
        assert S_value(n) == reference_S_value(n)


class TestMonotonicityInN:
    """Normalized coefficients fall in n; plain coefficients are subadditive."""

    def test_normalized_decreasing_in_n(self):
        for n in range(1, 25):
            for p in range(0, 40):
                assert alpha(n + 1, p) / (n + 1) <= alpha(n, p) / n

    def test_weighted_difference_nonnegative(self):
        for n in range(1, 25):
            for p in range(0, 40):
                assert (n + 1) * alpha(n, p) - n * alpha(n + 1, p) >= 0

    def test_subadditive_in_n(self):
        for m in range(1, 13):
            for n in range(1, 13):
                for p in range(0, 25):
                    assert alpha(m + n, p) <= alpha(m, p) + alpha(n, p)

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=80),
    )
    @settings(max_examples=80)
    def test_subadditivity_property(self, m, n, p):
        assert alpha(m + n, p) <= alpha(m, p) + alpha(n, p)
