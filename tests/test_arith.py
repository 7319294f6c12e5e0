"""Tests for exact rational arithmetic, binomials, and certified comparisons."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.arith import (
    Rational,
    binomial,
    certified_ge,
    certified_ge_threshold,
    certified_le,
    dyadic_str,
    iv,
    iv_float_down,
    iv_float_up,
    parse_rational,
    rational_str,
)

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**6
)
mantissas = st.integers(min_value=-(2**200), max_value=2**200)
exponents = st.integers(min_value=0, max_value=300)


def fraction_str(q: Fraction) -> str:
    """Test oracle: the serializer on a reduced Fraction alone, the form that
    dyadic_str and rational_str must reproduce byte for byte."""
    num, den = q.numerator, q.denominator
    if den == 1:
        return str(num)
    a = (den & -den).bit_length() - 1
    rest = den >> a
    b = 0
    while rest % 5 == 0:
        rest //= 5
        b += 1
    if rest != 1:
        return f"{num}/{den}"
    digits = max(a, b)
    scaled = (abs(num) << (digits - a)) * 5 ** (digits - b)
    sign = "-" if num < 0 else ""
    text = str(scaled).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


class TestBinomial:
    def test_base_cases(self):
        assert binomial(0, 0) == 1
        assert binomial(4, 2) == 6
        assert binomial(5, 7) == 0
        assert binomial(5, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_pascal_rule_sweep(self):
        """C(n,k) = C(n-1,k-1) + C(n-1,k) for 1 <= k <= n <= 200."""
        for n in range(1, 201):
            for k in range(1, n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    def test_row_sums(self):
        for n in range(0, 60):
            assert sum(binomial(n, k) for k in range(n + 1)) == 2**n

    def test_symmetry(self):
        for n in range(0, 40):
            for k in range(n + 1):
                assert binomial(n, k) == binomial(n, n - k)


class TestRationalFieldAxioms:
    """The value type is stdlib Fraction; pin the contract we rely on."""

    @given(rationals, rationals, rationals)
    @settings(max_examples=200)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @given(rationals)
    def test_reduced_form_uniqueness(self, a):
        assert math.gcd(abs(a.numerator), a.denominator) == 1
        assert a.denominator > 0
        assert Fraction(a.numerator * 7, a.denominator * 7) == a


class TestRationalStr:
    def test_terminating_decimals(self):
        assert rational_str(Fraction(1, 8)) == "0.125"
        assert rational_str(Fraction(1, 32)) == "0.03125"
        assert rational_str(Fraction(-3, 4)) == "-0.75"
        assert rational_str(Fraction(1, 5)) == "0.2"
        assert rational_str(Fraction(7, 50)) == "0.14"

    def test_integers(self):
        assert rational_str(Fraction(0)) == "0"
        assert rational_str(Fraction(17)) == "17"
        assert rational_str(Fraction(-3)) == "-3"

    def test_nonterminating_fraction_form(self):
        assert rational_str(Fraction(1, 3)) == "1/3"
        assert rational_str(Fraction(-5, 6)) == "-5/6"
        assert rational_str(Fraction(6600, 1296)) == "275/54"

    @given(rationals)
    @settings(max_examples=300)
    def test_round_trip(self, a):
        assert parse_rational(rational_str(a)) == a

    def test_parse_accepts_both_forms(self):
        assert parse_rational("0.125") == Fraction(1, 8)
        assert parse_rational("1/8") == Fraction(1, 8)
        assert parse_rational("-2") == Fraction(-2)

    @pytest.mark.parametrize("text", ["", "abc", "1.5/2", "1/-2", "0x10", "1e5", ".5",
                                      "1.", "- 1", "NaN", "Infinity"])
    def test_parse_rejects_other_forms(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    @pytest.mark.parametrize("q", [
        Fraction(1, 5 ** 15000),  # digits 2^15000 (4516) after 15000 places
        Fraction(-(7 ** 5200), 5 ** 37),  # a 4395-digit numerator
        Fraction(2 ** 15000 + 1, 5 ** 3 * 2 ** 9),
        Fraction(7 ** 6000, 3),  # the p/q form
    ])
    def test_round_trip_past_the_int_string_limit(self, q):
        """str(int) refuses more than 4300 digits; the serializer does not."""
        text = rational_str(q)
        assert len(text.replace("-", "").replace(".", "").lstrip("0")) > 4300
        assert parse_rational(text) == q
        assert text == rational_str(parse_rational(text))

    @given(rationals)
    @settings(max_examples=300)
    def test_matches_fraction_oracle(self, a):
        assert rational_str(a) == fraction_str(a)


class TestDyadicStr:
    """dyadic_str(m, e) prints m / 2^e exactly as the Fraction oracle does."""

    def check(self, m: int, e: int) -> None:
        q = Fraction(m, 2**e)
        text = dyadic_str(m, e)
        assert text == fraction_str(q), (m, e)
        assert parse_rational(text) == q, (m, e)

    @given(mantissas, exponents)
    @settings(max_examples=400)
    def test_matches_fraction_oracle(self, m, e):
        self.check(m, e)

    @given(mantissas, exponents, st.integers(min_value=0, max_value=8))
    @settings(max_examples=200)
    def test_integer_results(self, m, e, extra):
        """m with at least e trailing zero bits: the value is an integer."""
        m <<= e + extra
        self.check(m, e)
        assert "." not in dyadic_str(m, e)

    @given(st.integers(min_value=-(2**64), max_value=2**64))
    def test_exponent_zero(self, m):
        assert dyadic_str(m, 0) == str(m)

    @given(exponents)
    def test_zero(self, e):
        assert dyadic_str(0, e) == "0"

    def test_examples(self):
        assert dyadic_str(1, 3) == "0.125"
        assert dyadic_str(-3, 2) == "-0.75"
        assert dyadic_str(-1, 5) == "-0.03125"
        assert dyadic_str(12, 2) == "3"
        assert dyadic_str(-12, 3) == "-1.5"
        assert dyadic_str(5, 1) == "2.5"


class TestCertifiedComparisons:
    def test_le_requires_clearing_the_pessimistic_endpoint(self):
        third = iv.mpf(1) / 3
        assert certified_le(Fraction(1, 4), third)
        assert not certified_le(Fraction(1, 2), third)
        # 1/3 vs its own enclosure is not certain in either direction
        assert not certified_le(Fraction(1, 3), third)

    def test_ge(self):
        pi = iv.pi
        assert certified_ge(Fraction(4), pi)
        assert not certified_ge(Fraction(3), pi)

    def test_tightness_at_128_bits(self):
        """The enclosure of pi is narrower than 2^-120."""
        width = iv_float_up(iv.pi) - iv_float_down(iv.pi)
        assert 0 <= width < 1e-15

    def test_float_rounding_directions(self):
        x = iv.mpf(1) / 3
        lo, hi = iv_float_down(x), iv_float_up(x)
        assert lo <= 1 / 3 <= hi
        x = iv.exp(iv.mpf(1) / 12)
        assert iv_float_down(x) <= math.exp(1 / 12) <= iv_float_up(x)

    def test_exact_rationals_round_trip_through_intervals(self):
        x = iv.mpf(3) / 8
        assert iv_float_down(x) == 0.375 == iv_float_up(x)

    @given(rationals)
    @settings(max_examples=100)
    def test_certified_le_is_sound(self, a):
        """certified_le never affirms a false inequality against sqrt(2)."""
        root2 = iv.sqrt(2)
        if certified_le(a, root2):
            assert a * a <= 2 or a < 0
        if certified_ge(a, root2):
            assert a >= 0 and a * a >= 2

    @given(st.integers(min_value=-(2**200), max_value=2**200),
           st.integers(min_value=-300, max_value=300))
    @settings(max_examples=300)
    def test_dyadic_comparisons_are_sound(self, m, shift):
        """m/2^shift against sqrt(2): an affirmed inequality is true."""
        root2 = iv.sqrt(2)
        x = Fraction(m) / Fraction(2) ** shift
        if certified_le(m, root2, shift):
            assert x <= 0 or x * x <= 2
        if certified_ge(m, root2, shift):
            assert x >= 0 and x * x >= 2

    @given(st.sampled_from([0, 1]), st.integers(min_value=-8, max_value=8))
    def test_dyadic_equal_to_an_endpoint(self, end, extra):
        """A dyadic equal to an endpoint compares as equal, exactly."""
        root2 = iv.sqrt(2)
        sign, man, exp, _ = root2._mpi_[end]
        assert sign == 0
        # man * 2^exp written as (man << extra) / 2^(extra - exp)
        m, shift = man << max(extra, 0), max(extra, 0) - exp
        assert Fraction(m, 2 ** shift) == Fraction(man) * Fraction(2) ** exp
        if end == 0:  # the lower endpoint: le holds with equality, ge fails
            assert certified_le(m, root2, shift)
            assert not certified_le(m + 1, root2, shift)
            assert not certified_ge(m, root2, shift)
        else:  # the upper endpoint: ge holds with equality, le fails
            assert certified_ge(m, root2, shift)
            assert not certified_ge(m - 1, root2, shift)
            assert not certified_le(m, root2, shift)

    @pytest.mark.parametrize("shift", [-3, 0, 5])
    @pytest.mark.parametrize("x", [-2, -1, 0, 1, 3, Fraction(-1, 7), Fraction(0),
                                   Fraction(5, 3)])
    def test_zero_endpoint(self, x, shift):
        zero = iv.mpf(0)
        assert certified_le(x, zero, shift) == (x <= 0)
        assert certified_ge(x, zero, shift) == (x >= 0)

    @pytest.mark.parametrize("shift", [-3, 0, 5])
    @pytest.mark.parametrize("x", [-(2**70), -1, 0, 1, 2**70, Fraction(-1, 3),
                                   Fraction(10**9, 7)])
    def test_infinite_endpoints(self, x, shift):
        """No finite x clears +inf from below or -inf from above."""
        up = iv.mpf([1, "inf"])
        assert up._mpi_[1] == mpmath.libmp.finf
        assert not certified_ge(x, up, shift)
        down = iv.mpf(["-inf", 1])
        assert down._mpi_[0] == mpmath.libmp.fninf
        assert not certified_le(x, down, shift)
        # the finite endpoints of the same intervals still decide
        assert certified_le(x, up, shift) == (Fraction(x) / Fraction(2) ** shift <= 1)
        assert certified_ge(x, down, shift) == (Fraction(x) / Fraction(2) ** shift >= 1)

    @pytest.mark.parametrize("x", [0, 1, Fraction(1, 3)])
    def test_nan_endpoint_raises(self, x):
        class NanInterval:
            _mpi_ = (mpmath.libmp.fnan, mpmath.libmp.fnan)

        with pytest.raises(ValueError, match="NaN"):
            certified_le(x, NanInterval())
        with pytest.raises(ValueError, match="NaN"):
            certified_ge(x, NanInterval(), 4)

    @given(st.integers(min_value=-(2**140), max_value=2**140),
           st.integers(min_value=-40, max_value=160))
    @settings(max_examples=300)
    def test_negative_endpoint_matches_fraction(self, m, shift):
        """Against -sqrt(2), an int m over 2^shift orders as its Fraction does
        against the exact endpoints."""
        bound = -iv.sqrt(2)
        lo, hi = (Fraction(-man if sign else man) * Fraction(2) ** exp
                  for sign, man, exp, _ in bound._mpi_)
        assert lo < hi < 0
        x = Fraction(m) / Fraction(2) ** shift
        assert certified_le(m, bound, shift) == (x <= lo)
        assert certified_ge(m, bound, shift) == (x >= hi)
        assert certified_le(x, bound) == (x <= lo)
        assert certified_ge(x, bound) == (x >= hi)

    def test_negative_endpoint_equality(self):
        bound = -iv.sqrt(2)
        sign, man, exp, _ = bound._mpi_[0]
        assert sign == 1 and exp < 0
        assert certified_le(-man, bound, -exp)
        assert not certified_le(-man + 1, bound, -exp)
        assert certified_le(-man << 3, bound, 3 - exp)

    @given(st.integers(min_value=1, max_value=2**80),
           st.integers(min_value=-(2**50), max_value=2**50),
           st.integers(min_value=-120, max_value=120),
           st.integers(min_value=-120, max_value=120))
    @settings(max_examples=400)
    def test_threshold_is_the_least_certified_multiple(self, x, man, exp, shift):
        """Against an upper endpoint man 2^exp of either sign or zero, N = t
        clears it and N = t - 1 does not, and t is the exact ceiling."""
        hi = mpmath.mpf((man, exp))
        bound = iv.mpf([hi - 1, hi])
        assert bound._mpi_[1] == hi._mpf_
        t = certified_ge_threshold(x, bound, shift)
        assert certified_ge(t * x, bound, shift)
        assert not certified_ge((t - 1) * x, bound, shift)
        assert t == math.ceil(Fraction(man) * Fraction(2) ** (exp + shift) / x)

    @pytest.mark.parametrize("shift", [-3, 0, 5])
    def test_threshold_at_infinite_endpoints(self, shift):
        """No N clears +inf, which gives inf; every N clears -inf, which gives
        -inf; so N >= t reads the same as certified_ge(N x, ...)."""
        up, down = iv.mpf([1, "inf"]), iv.mpf(["-inf", "-inf"])
        assert certified_ge_threshold(3, up, shift) == math.inf
        assert certified_ge_threshold(3, down, shift) == -math.inf
        for N in (-(2**70), -1, 0, 1, 2**70):
            assert not certified_ge(N * 3, up, shift)
            assert certified_ge(N * 3, down, shift)

    @pytest.mark.parametrize("x", [0, -2, Fraction(1, 3), 1.0])
    def test_threshold_needs_a_positive_int(self, x):
        with pytest.raises(ValueError, match="int x > 0"):
            certified_ge_threshold(x, iv.pi)

    def test_threshold_nan_endpoint_raises(self):
        class NanInterval:
            _mpi_ = (mpmath.libmp.fnan, mpmath.libmp.fnan)

        with pytest.raises(ValueError, match="NaN"):
            certified_ge_threshold(1, NanInterval(), 4)

    def test_rational_alias(self):
        assert Rational is Fraction
