"""Tests for exact rational arithmetic, binomials, and certified comparisons."""

import math
import struct
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artifact.arith import (
    BITS,
    GUARD_BITS,
    Enclosure,
    Rational,
    binomial,
    certified_ge,
    certified_ge_threshold,
    certified_le,
    float_down,
    float_up,
    parse_rational,
    rational_str,
    sqrt_up,
)
from artifact.arith import _atan_inv, _exp_series

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**6
)
mantissas = st.integers(min_value=-(2**200), max_value=2**200)
exponents = st.integers(min_value=0, max_value=300)


def fraction_str(q: Fraction) -> str:
    """Test oracle, an independent serializer that places integer digits by
    hand: a reduced fraction terminates in base 10 iff its denominator is
    2^a 5^b, and with k = max(a, b) its digits are |num| 2^(k-a) 5^(k-b), the
    point k places from the right.  rational_str must match it byte for byte."""
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
                                      "1.", "- 1", "NaN", "Infinity",
                                      "1/0", "0/0"])
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

    def check(self, q: Fraction) -> None:
        text = rational_str(q)
        assert text == fraction_str(q), q
        assert parse_rational(text) == q, q

    @given(mantissas, exponents)
    @settings(max_examples=400)
    def test_dyadics_match_fraction_oracle(self, m, e):
        self.check(Fraction(m, 2**e))

    @given(mantissas, exponents, st.integers(min_value=0, max_value=8))
    @settings(max_examples=200)
    def test_dyadic_integer_results(self, m, e, extra):
        """m with at least e trailing zero bits: the value is an integer."""
        m <<= e + extra
        self.check(Fraction(m, 2**e))
        assert "." not in rational_str(Fraction(m, 2**e))

    @given(st.integers(min_value=-(2**64), max_value=2**64))
    def test_integers_print_as_str(self, m):
        assert rational_str(Fraction(m)) == str(m)

    @given(exponents)
    def test_zero_over_a_power_of_two(self, e):
        assert rational_str(Fraction(0, 2**e)) == "0"

    def test_dyadic_examples(self):
        assert rational_str(Fraction(1, 2**3)) == "0.125"
        assert rational_str(Fraction(-3, 2**2)) == "-0.75"
        assert rational_str(Fraction(-1, 2**5)) == "-0.03125"
        assert rational_str(Fraction(12, 2**2)) == "3"
        assert rational_str(Fraction(-12, 2**3)) == "-1.5"
        assert rational_str(Fraction(5, 2**1)) == "2.5"

    def test_denominators_either_side_of_termination(self):
        """2^a 5^b r: a decimal for r = 1, p/q once a factor 3 or 7 stays.
        The numerators are prime to 21, so r is never cancelled."""
        for a in range(0, 70, 3):
            for b in range(0, 50, 3):
                for r in (1, 3, 7):
                    for num in (1, -1, 11, 2**70 + 1, -(10**25 + 1)):
                        q = Fraction(num, 2**a * 5**b * r)
                        self.check(q)
                        assert ("/" in rational_str(q)) == (r > 1), q

    @pytest.mark.parametrize("lead, zeros", [(1, 5000), (-12, 40)])
    def test_trailing_zeros_print_as_digits(self, lead, zeros):
        """10**5000 and -12 * 10**40, normalized 1E+5000 and -1.2E+41, print
        as plain digits."""
        n = lead * 10**zeros
        text = str(lead) + "0" * zeros
        assert rational_str(Fraction(n)) == text
        assert parse_rational(text) == n


positives = st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(10**6),
                         max_denominator=10**6)


def scale(bound: Enclosure) -> Fraction:
    """2^E, the denominator of the enclosure's ends."""
    return Fraction(2) ** bound.E


def contains(bound: Enclosure, value: Fraction) -> bool:
    return bound.lo <= value * scale(bound) <= bound.hi


def mp_contains(bound: Enclosure, value) -> bool:
    """lo / 2^E <= value <= hi / 2^E for a 300-bit mpf value (the ends
    convert exactly), with a width of at most 2^-120 relative, or 4 units of
    2^-E where the value is so small that the scale dominates."""
    with mpmath.workprec(300):
        lo, hi = mpmath.ldexp(bound.lo, -bound.E), mpmath.ldexp(bound.hi, -bound.E)
        return lo <= value <= hi and bound.hi - bound.lo <= max(4, value * 2 ** (bound.E - 120))


class TestEnclosure:
    def test_pi_against_300_bits(self):
        with mpmath.workprec(300):
            assert mp_contains(Enclosure.pi(), +mpmath.pi)

    @pytest.mark.parametrize("q", [Fraction(1, 12), Fraction(7, 12), Fraction(1),
                                   *(Fraction(1, 24 * p) for p in (1, 2, 3, 10, 99, 400))])
    def test_exp_against_300_bits(self, q):
        with mpmath.workprec(300):
            assert mp_contains(Enclosure.exp(q),
                               mpmath.exp(mpmath.mpf(q.numerator) / q.denominator))

    def test_exp_of_every_uniform_bound_against_300_bits(self):
        with mpmath.workprec(300):
            for p in range(1, 401):
                assert mp_contains(Enclosure.exp(Fraction(1, 24 * p)),
                                   mpmath.exp(mpmath.mpf(1) / (24 * p))), p

    @pytest.mark.parametrize("k", [2, 3, 5, 239])
    def test_atan_series_counts_its_error(self, k):
        """Before the final rounding: the guarded ends contain 2^W atan(1/k)."""
        lo, hi = _atan_inv(k)
        with mpmath.workprec(400):
            assert lo <= mpmath.ldexp(mpmath.atan(mpmath.mpf(1) / k), BITS + GUARD_BITS) <= hi

    def test_exp_series_counts_its_error(self):
        """Before the final rounding: the guarded ends contain 2^W e^q."""
        qs = [Fraction(1), Fraction(7, 12), Fraction(1, 12), Fraction(2, 3),
              *(Fraction(1, 24 * p) for p in range(1, 401))]
        with mpmath.workprec(400):
            for q in qs:
                lo, hi = _exp_series(q)
                true = mpmath.exp(mpmath.mpf(q.numerator) / q.denominator)
                assert lo <= mpmath.ldexp(true, BITS + GUARD_BITS) <= hi, q

    @pytest.mark.parametrize("q", [0, -1, Fraction(13, 12), 2])
    def test_exp_domain(self, q):
        with pytest.raises(ValueError, match="0 < q <= 1"):
            Enclosure.exp(q)

    @given(positives, positives)
    @settings(max_examples=300)
    def test_operations_round_outward(self, a, b):
        """Each operation contains the exact result, from exact operands and
        from inexact ones (a / 7 and b / 3 enclose non-dyadic values), at
        BITS, at 256 bits and at mixed K.  A result carries the larger K of
        its operands, with hi <= 2^K, and an exact operand is enclosed at the
        other operand's K: cut to BITS beside a 256-bit A, b would leave A * b
        about 2^127 units wide."""
        def at(q: Fraction, K: int) -> Enclosure:
            return Enclosure.between(q.numerator, q.denominator, q.numerator, q.denominator, 0, K)

        for A, B, x, y in ((Enclosure(a), Enclosure(b), a, b),
                           (Enclosure(a) / 7, Enclosure(b) / 3, a / 7, b / 3),
                           (at(a, 256) / 7, at(b, 256) / 3, a / 7, b / 3),
                           (at(a, 256) / 7, Enclosure(b) / 3, a / 7, b / 3),
                           (Enclosure(a) / 7, at(b, 256) / 3, a / 7, b / 3)):
            assert contains(A, x) and contains(B, y)
            K, top = max(A.K, B.K), math.ceil(x) + 1
            with_b = [(A * b, x * b), (b * A, x * b), (A / b, x / b), (b / A, b / x),
                      (A + b, x + b), (b + A, x + b)]
            for bound, value, want_K in [(A * B, x * y, K), (A / B, x / y, K),
                                         (A + B, x + y, K), (top - A, top - x, A.K),
                                         *((bound, value, A.K) for bound, value in with_b)]:
                assert contains(bound, value) and bound.K == want_K and bound.hi <= 2 ** want_K
            for bound, _ in with_b:
                assert bound.hi - bound.lo < 256
            root = A.sqrt()
            assert root.K == A.K and root.lo ** 2 <= x * scale(root) ** 2 <= root.hi ** 2

    @given(positives, st.floats(min_value=1e-6, max_value=1e6))
    def test_float_operands_are_exact(self, a, f):
        A = Enclosure(a)
        exact = Fraction(f)
        assert contains(Enclosure(f), exact)
        assert contains(A * f, a * exact) and contains(A / f, a / exact)
        assert contains(f / A, exact / a)

    def test_ends_are_one_unit_apart_after_one_rounding(self):
        third = Enclosure(1) / 3
        assert third.hi - third.lo == 1

    def test_refuses_what_it_cannot_enclose(self):
        with pytest.raises(ValueError, match=">= 0"):
            Enclosure(Fraction(-1, 3))
        with pytest.raises(ValueError, match=">= 0"):
            Enclosure.pi() * -2
        with pytest.raises(ValueError, match="not certainly >= 0"):
            3 - Enclosure.pi()
        with pytest.raises(ZeroDivisionError):
            Enclosure(1) / Enclosure(0)
        with pytest.raises(ZeroDivisionError):
            1 / Enclosure(0)
        with pytest.raises(ZeroDivisionError):
            Enclosure(1) / 0
        with pytest.raises(TypeError):
            Enclosure(1) * "2"


class TestCertifiedComparisons:
    def test_le_requires_clearing_the_pessimistic_endpoint(self):
        third = Enclosure(1) / 3
        assert certified_le(Fraction(1, 4), third)
        assert not certified_le(Fraction(1, 2), third)
        # 1/3 vs its own enclosure is not certain in either direction
        assert not certified_le(Fraction(1, 3), third)

    def test_ge(self):
        pi = Enclosure.pi()
        assert certified_ge(Fraction(4), pi)
        assert not certified_ge(Fraction(3), pi)

    def test_tightness_at_128_bits(self):
        """The enclosure of pi is narrower than 2^-120."""
        pi = Enclosure.pi()
        assert 0 <= pi.hi - pi.lo < 2 ** (pi.E - 120)

    def test_exact_rationals_round_trip_through_intervals(self):
        """A dyadic with at most BITS bits is enclosed exactly."""
        for x in (Fraction(3, 8), 0.375, 3):
            bound = Enclosure(x)
            assert bound.lo == bound.hi == Fraction(x) * scale(bound)

    @given(rationals)
    @settings(max_examples=100)
    def test_certified_le_is_sound(self, a):
        """certified_le never affirms a false inequality against sqrt(2)."""
        root2 = Enclosure(2).sqrt()
        if certified_le(a, root2):
            assert a * a <= 2 or a < 0
        if certified_ge(a, root2):
            assert a >= 0 and a * a >= 2

    @given(st.integers(min_value=-(2**200), max_value=2**200),
           st.integers(min_value=-300, max_value=300))
    @settings(max_examples=300)
    def test_dyadic_comparisons_are_sound(self, m, shift):
        """m/2^shift against sqrt(2): an affirmed inequality is true."""
        root2 = Enclosure(2).sqrt()
        x = Fraction(m) / Fraction(2) ** shift
        if certified_le(m, root2, shift):
            assert x <= 0 or x * x <= 2
        if certified_ge(m, root2, shift):
            assert x >= 0 and x * x >= 2

    @given(st.sampled_from([0, 1]), st.integers(min_value=-8, max_value=8))
    def test_dyadic_equal_to_an_endpoint(self, end, extra):
        """A dyadic equal to an end compares as equal, exactly."""
        root2 = Enclosure(2).sqrt()
        man = (root2.lo, root2.hi)[end]
        # man / 2^E written as (man << extra) / 2^(extra + E)
        m, shift = man << max(extra, 0), max(extra, 0) + root2.E
        assert Fraction(m, 2 ** shift) == Fraction(man) / scale(root2)
        if end == 0:  # the lower end: le holds with equality, ge fails
            assert certified_le(m, root2, shift)
            assert not certified_le(m + 1, root2, shift)
            assert not certified_ge(m, root2, shift)
        else:  # the upper end: ge holds with equality, le fails
            assert certified_ge(m, root2, shift)
            assert not certified_ge(m - 1, root2, shift)
            assert not certified_le(m, root2, shift)

    @pytest.mark.parametrize("shift", [-3, 0, 5])
    @pytest.mark.parametrize("x", [-2, -1, 0, 1, 3, Fraction(-1, 7), Fraction(0),
                                   Fraction(5, 3)])
    def test_zero_endpoint(self, x, shift):
        zero = Enclosure(0)
        assert certified_le(x, zero, shift) == (x <= 0)
        assert certified_ge(x, zero, shift) == (x >= 0)

    @pytest.mark.parametrize("shift", [-3, 0, 5])
    @pytest.mark.parametrize("x", [-(2**70), -1, 0, 1, 2**70, Fraction(-1, 3),
                                   Fraction(10**9, 7)])
    def test_infinite_endpoints(self, x, shift):
        """An infinite bound has no enclosure, so nothing is certified against
        it; the largest float has an exact one, which decides exactly."""
        for inf in (math.inf, -math.inf):
            with pytest.raises(OverflowError):
                certified_ge(x, Enclosure(inf), shift)
        big = Enclosure(sys.float_info.max)
        assert big.lo == big.hi
        value = Fraction(x) / Fraction(2) ** shift
        assert certified_le(x, big, shift) == (value <= Fraction(sys.float_info.max))
        assert not certified_ge(x, big, shift)

    @pytest.mark.parametrize("x", [0, 1, Fraction(1, 3)])
    def test_nan_endpoint_raises(self, x):
        with pytest.raises(ValueError, match="NaN"):
            certified_le(x, Enclosure(math.nan))
        with pytest.raises(ValueError, match="NaN"):
            certified_ge(x, Enclosure(math.nan), 4)

    @given(st.integers(min_value=-(2**140), max_value=2**140),
           st.integers(min_value=-40, max_value=160))
    @settings(max_examples=300)
    def test_ends_match_fraction(self, m, shift):
        """Against sqrt(2), an int m over 2^shift, and its Fraction, order as
        the Fraction does against the exact ends."""
        bound = Enclosure(2).sqrt()
        lo, hi = Fraction(bound.lo) / scale(bound), Fraction(bound.hi) / scale(bound)
        assert 0 < lo < hi
        x = Fraction(m) / Fraction(2) ** shift
        assert certified_le(m, bound, shift) == (x <= lo)
        assert certified_ge(m, bound, shift) == (x >= hi)
        assert certified_le(x, bound) == (x <= lo)
        assert certified_ge(x, bound) == (x >= hi)

    @given(st.integers(min_value=1, max_value=2**80),
           st.integers(min_value=0, max_value=2**50),
           st.integers(min_value=-120, max_value=120),
           st.integers(min_value=-120, max_value=120))
    @settings(max_examples=400)
    def test_threshold_is_the_least_certified_multiple(self, x, man, exp, shift):
        """Against an upper end man 2^exp >= 0, N = t clears it and N = t - 1
        does not, and t is the exact ceiling."""
        hi = Fraction(man) * Fraction(2) ** exp
        bound = Enclosure(hi)
        assert Fraction(bound.hi) / scale(bound) == hi
        t = certified_ge_threshold(x, bound, shift)
        assert certified_ge(t * x, bound, shift)
        assert not certified_ge((t - 1) * x, bound, shift)
        assert t == math.ceil(hi * Fraction(2) ** shift / x)

    @pytest.mark.parametrize("shift", [-3, 0, 5])
    def test_threshold_at_infinite_endpoints(self, shift):
        """An infinite bound has no enclosure; against the largest float,
        N >= t reads the same as certified_ge(N x, ...)."""
        with pytest.raises(OverflowError):
            certified_ge_threshold(3, Enclosure(math.inf), shift)
        big = Enclosure(sys.float_info.max)
        t = certified_ge_threshold(3, big, shift)
        for N in (-(2**70), -1, 0, 1, t - 1, t, t + 1):
            assert certified_ge(N * 3, big, shift) == (N >= t)

    @pytest.mark.parametrize("x", [0, -2, Fraction(1, 3), 1.0])
    def test_threshold_needs_a_positive_int(self, x):
        with pytest.raises(ValueError, match="int x > 0"):
            certified_ge_threshold(x, Enclosure.pi())

    def test_threshold_nan_endpoint_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            certified_ge_threshold(1, Enclosure(math.nan), 4)

    def test_rational_alias(self):
        assert Rational is Fraction


# ---------------------------------------------------------------------------
# the float read-out, against its Fraction definitions
# ---------------------------------------------------------------------------

INF_BITS = 0x7FF0000000000000  # the bit pattern of inf; below it, the finite floats >= 0


def from_bits(i: int) -> float:
    return struct.unpack("<d", struct.pack("<q", i))[0]


def exact(f: float) -> Fraction:
    """The value of a float >= 0, with inf standing as 2^1024, where IEEE
    rounding places it."""
    return Fraction(2) ** 1024 if f == math.inf else Fraction(f)


def least_float(holds) -> float:
    """The least float >= 0 (inf included) at which the monotone test holds,
    by bisection on bit patterns, which order the floats >= 0."""
    lo, hi = 0, INF_BITS
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(exact(from_bits(mid))) else (mid + 1, hi)
    return from_bits(lo)


def ref_up(q: Fraction) -> float:
    return least_float(lambda f: f >= q)


def ref_down(q: Fraction) -> float:
    f = ref_up(q)
    return f if f < math.inf and exact(f) == q else math.nextafter(f, 0.0)


def ref_sqrt_up(q: Fraction) -> float:
    return least_float(lambda f: f * f >= q)


def ref_nearest(q: Fraction) -> float:
    """Round to nearest, ties to the even bit pattern, inf past the range."""
    down, up = ref_down(q), ref_up(q)
    gap = (q - exact(down)) - (exact(up) - q)
    if gap == 0:
        return up if struct.unpack("<q", struct.pack("<d", up))[0] % 2 == 0 else down
    return up if gap > 0 else down


# rationals m 2^e / d >= 0 over the whole float range, past it at both ends,
# and through the subnormals
scaled = st.builds(lambda m, e, d: Fraction(m) * Fraction(2) ** e / d,
                   st.integers(min_value=0, max_value=2 ** 80),
                   st.integers(min_value=-1250, max_value=1100),
                   st.integers(min_value=1, max_value=2 ** 40))


def check_rational_read_outs(q: Fraction) -> None:
    num, den = q.numerator, q.denominator
    assert float_down(num, den) == ref_down(q)
    assert float_up(num, den) == ref_up(q)
    assert sqrt_up(num, den) == ref_sqrt_up(q)


class TestFloatReadOut:
    @given(scaled)
    @settings(max_examples=300)
    def test_rational_read_outs(self, q):
        check_rational_read_outs(q)

    @pytest.mark.parametrize("q", [Fraction(0), Fraction(1, 2 ** 1075), Fraction(1, 2 ** 1074),
                                   Fraction(3, 2 ** 1076), Fraction(2 ** 1024),
                                   Fraction(2 ** 1024 - 2 ** 970), Fraction(2 ** 1024 - 2 ** 971),
                                   Fraction(2) ** -2000, Fraction(2) ** 2000, Fraction(9, 4),
                                   Fraction(2) ** -2148, Fraction(2) ** -2149])
    def test_rational_read_outs_at_the_edges(self, q):
        check_rational_read_outs(q)

    @given(st.integers(min_value=0, max_value=2 ** 140), st.integers(min_value=0, max_value=2 ** 20),
           st.integers(min_value=-1200, max_value=2400), st.integers(min_value=1, max_value=300))
    @settings(max_examples=300)
    @example(0, 0, -1029, 1)  # a zero end over a negative exponent is 0, not huge
    @example(1, 0, 1075, 53)  # 2^-1075, the tie between 0.0 and 5e-324
    @example(3, 0, 1076, 53)  # 1.5 2^-1075, which rounds to 5e-324
    @example(3, 0, -1022, 53)  # 1.5 2^1023, finite
    @example(1, 0, -1024, 53)  # 2^1024, past the range
    def test_enclosure_read_outs(self, m, width, shift, K):
        """down, up and nearest read the ends exactly; nearest decides
        exactly when both ends round to one float v outside the open
        enclosure whose distances to the ends round up alike, and always
        decides an exact enclosure."""
        bound = Enclosure.between(m, 1, m + width, 1, -shift, K)
        lo, hi = (Fraction(end) / Fraction(2) ** bound.E for end in (bound.lo, bound.hi))
        assert bound.down() == ref_down(lo) and bound.up() == ref_up(hi)
        v = ref_nearest(lo)
        if v == math.inf:
            decided = ref_nearest(hi) == v
            want = (v, v)
        else:
            below, above = exact(v) - lo, exact(v) - hi
            tail = ref_up(abs(below))
            decided = (ref_nearest(hi) == v and (below <= 0 or above >= 0)
                       and ref_up(abs(above)) == tail)
            want = (v, tail)
        assert bound.nearest() == (want if decided else None)
        if lo == hi:
            assert decided

    def test_read_outs_far_outside_the_range(self):
        """Ends of exponent 10^9 either way are read from bit lengths."""
        tiny = Enclosure.between(3, 1, 5, 1, -10 ** 9)
        assert tiny.nearest() == (0.0, 5e-324)
        assert (tiny.down(), tiny.up()) == (0.0, 5e-324)
        huge = Enclosure.between(3, 1, 5, 1, 10 ** 9)
        assert huge.nearest() == (math.inf, math.inf)
        assert (huge.down(), huge.up()) == (sys.float_info.max, math.inf)

    @pytest.mark.parametrize("scale", [Fraction(1, 10 ** 300), Fraction(10 ** 300)])
    def test_enclosures_far_from_one_against_300_bits(self, scale):
        """Near 1e-300 and 1e300 every operation keeps BITS bits, which a
        fixed 2^-128 scale could not: each result holds the 300-bit value."""
        with mpmath.workprec(300):
            s = mpmath.mpf(scale.numerator) / scale.denominator
            cases = [(Enclosure.pi() * scale, mpmath.pi * s),
                     (scale / Enclosure.pi(), s / mpmath.pi),
                     (Enclosure.exp(Fraction(1, 12)) / (2 * (1 + scale) * Enclosure(scale).sqrt()),
                      mpmath.exp(mpmath.mpf(1) / 12) / (2 * (1 + s) * mpmath.sqrt(s))),
                     (Enclosure(scale).sqrt(), mpmath.sqrt(s)),
                     (Enclosure(2 * scale) / 3, 2 * s / 3)]
            for bound, value in cases:
                assert mp_contains(bound, value), (bound, value)
                assert bound.hi.bit_length() >= BITS - 1
