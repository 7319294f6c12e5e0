"""Exact rational arithmetic, combinatorial primitives, and certified comparisons.

Every identity check in this package is decided in exact arithmetic.  The value
type is `Rational` (stdlib `fractions.Fraction`: always reduced, denominator
positive, exact field operations).  Any other value (pi, e, a square root, a
closed form (1 + sqrt(1-a))^-k) is an `Enclosure`: ints lo <= hi over 2^E,
E and the precision K per instance, each result cut outward to K significant
bits.  pi and exp come from integer series that count their truncation error
(Brent and Zimmermann, Modern Computer Arithmetic, CUP 2010, ch. 4).
`certified_le` / `certified_ge` pass only if a rational clears the
unfavorable end, an integer inequality, so a pass is a proof;
`certified_ge_threshold` solves the ge comparison of N x for N.  Floats are
read out here and nowhere else: `Enclosure.down`, `up` and `nearest`, and
`float_down`, `float_up` and `sqrt_up` of an exact num / den.

Exact values become text one way, through `decimal`, whose int conversion is
exact and, unlike str(int), has no limit on the number of digits.
`exact_context` is the context that traps rounding, so exact decimal work
either fits or raises: `rational_str` divides in one, and `coeffs.decimal_rows`
builds the table export's rows in one.
"""

from __future__ import annotations

import functools
import math
import re
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, Inexact, Rounded
from fractions import Fraction

Rational = Fraction

BITS = 128  # significant bits of an Enclosure's ends
GUARD_BITS = 32  # extra fraction bits the series for pi and exp carry
_W = -BITS - GUARD_BITS  # the series' ends are over 2^-_W


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention that out-of-range k gives 0."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def exact_context(digits: int) -> Context:
    """A decimal context of `digits` significant digits that traps Inexact and
    Rounded, so a result that would need rounding raises instead.  Its
    exponent range is the widest decimal allows, so an integer of more than
    the default 999 999 digits does not overflow."""
    ctx = Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN)
    ctx.traps[Inexact] = ctx.traps[Rounded] = True
    return ctx


def rational_str(q: Rational) -> str:
    """Serialize exactly: terminating decimal when one exists, else 'p/q'.

    A reduced num / den terminates in base 10 iff den divides a power of 10,
    and then den divides 10^k for k = den.bit_length().  Its quotient has at
    most num.bit_length() + den.bit_length() + 1 digits, so one division in an
    exact context of that size gives it, and normalize drops the trailing
    zeros.
    """
    q = Fraction(q)
    num, den = q.numerator, q.denominator
    if pow(10, den.bit_length(), den):
        return f"{Decimal(num)}/{Decimal(den)}"
    ctx = exact_context(num.bit_length() + den.bit_length() + 1)
    return f"{ctx.divide(num, den).normalize(ctx):f}"


def parse_rational(text: str) -> Rational:
    """Inverse of rational_str (also accepts plain ints and p/q).

    The text must be one of those forms, with q > 0, else ValueError.  Its
    digits are read by Decimal, which is exact and, unlike int(str), takes any
    number of them.
    """
    if not re.fullmatch(r"-?[0-9]+(\.[0-9]+)?|-?[0-9]+/[0-9]+", text):
        raise ValueError(f"not a decimal, an integer or p/q: {text!r}")
    num, _, den = text.partition("/")
    q = int(Decimal(den or 1))
    if not q:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(Decimal(num)) / q


# ---------------------------------------------------------------------------
# float read-outs
# ---------------------------------------------------------------------------

def _floor_shift(num: int, den: int, s: int) -> int:
    """floor(num 2^s / den) for ints num, den > 0 and s of either sign."""
    return (num << s) // den if s >= 0 else num // (den << -s)


def _nearest(num: int, den: int) -> float:
    """num / den >= 0 correctly rounded, as int / int division is; inf past the range."""
    try:
        return num / den
    except OverflowError:
        return math.inf


def _excess(f: float, num: int, den: int) -> int:
    """A positive multiple of f - num / den, for a finite float f."""
    fn, fd = f.as_integer_ratio()
    return fn * den - num * fd


def float_down(num: int, den: int = 1) -> float:
    """The greatest float at or below num / den >= 0 (the largest float past the range)."""
    f = _nearest(num, den)
    return f if f < math.inf and _excess(f, num, den) <= 0 else math.nextafter(f, 0.0)


def float_up(num: int, den: int = 1) -> float:
    """The least float at or above num / den >= 0 (inf past the float range)."""
    f = _nearest(num, den)
    return f if f == math.inf or _excess(f, num, den) >= 0 else math.nextafter(f, math.inf)


def sqrt_up(num: int, den: int = 1) -> float:
    """The least float whose square is at or above q = num / den >= 0 (inf
    past the float range): the floats near sqrt(q) are multiples of 2^-t, so
    it is the least one at or above ceil(2^t sqrt(q)) / 2^t, an isqrt."""
    t = 54 - (num.bit_length() - den.bit_length()) // 2
    x = -_floor_shift(-num, den, 2 * t)
    y = math.isqrt(x - 1) + 1 if x else 0  # the least y with y^2 >= x
    return float_up(y, 1 << t) if t >= 0 else float_up(y << -t)


def _end_ratio(m: int, E: int) -> tuple[int, int]:
    """m / 2^E as (num, den), or 2^-1076 for an end in (0, 2^-1075) and 2^1026
    for one at or above 2^1026, which round every way as those ends do."""
    if not m:
        return 0, 1
    b = m.bit_length() - E  # 2^(b-1) <= m / 2^E < 2^b
    if b <= -1075:
        return 1, 1 << 1076
    if b > 1026:
        return 1 << 1026, 1
    return (m, 1 << E) if E >= 0 else (m << -E, 1)


# ---------------------------------------------------------------------------
# integer enclosures
# ---------------------------------------------------------------------------


class Enclosure:
    """A real x >= 0 with lo / 2^E <= x <= hi / 2^E: ints 0 <= lo <= hi cut
    outward to K significant bits (hi <= 2^K), E of either sign, K carried
    with the value.  Enclosure(q) encloses an int, Fraction or float q >= 0
    at BITS bits, exactly when q is a dyadic of at most BITS bits; `*`, `/`,
    `+` and q minus an Enclosure hold the exact result for all values the
    operands hold, cut to the operands' K (the larger of two; an exact
    operand is enclosed at the other's K); `between` encloses exact ends at
    a K that its caller deepens."""

    __slots__ = ("lo", "hi", "E", "K")

    def __new__(cls, q: Rational | float):
        return _operand(q, BITS)

    @classmethod
    def between(cls, l: int, ld: int, h: int, hd: int, s: int, K: int = BITS) -> "Enclosure":
        """[l / ld, h / hd] 2^s for ints l, h >= 0 and ld, hd > 0, cut outward to K
        bits: h / hd < 2^(h.bit_length() - hd.bit_length() + 1), so E puts hi below 2^(K+2)."""
        E = K - h.bit_length() + hd.bit_length() - s
        lo, hi = _floor_shift(l, ld, s + E), -_floor_shift(-h, hd, s + E)
        x = max(hi.bit_length() - K, 0)
        new = object.__new__(cls)
        new.lo, new.hi, new.E, new.K = lo >> x, -(-hi >> x), E - x, K
        return new

    @staticmethod
    @functools.cache
    def pi() -> "Enclosure":
        """pi = 16 atan(1/5) - 4 atan(1/239) (Machin)."""
        lo5, hi5 = _atan_inv(5)
        lo239, hi239 = _atan_inv(239)
        return Enclosure.between(16 * lo5 - 4 * hi239, 1, 16 * hi5 - 4 * lo239, 1, _W)

    @staticmethod
    def exp(q: Rational) -> "Enclosure":
        """e^q for a rational 0 < q <= 1, by its Taylor series (`_exp_series`)."""
        lo, hi = _exp_series(Fraction(q))
        return Enclosure.between(lo, 1, hi, 1, _W)

    def sqrt(self) -> "Enclosure":
        """isqrt of the floor and of the ceiling of x 2^(2t-E), over 2^t."""
        t = (2 * self.K + 2 - self.hi.bit_length() + self.E) // 2
        s = 2 * t - self.E
        top = -_floor_shift(-self.hi, 1, s)
        hi = math.isqrt(top)
        return Enclosure.between(math.isqrt(_floor_shift(self.lo, 1, s)), 1,
                                 hi + (hi * hi < top), 1, -t, self.K)

    def __mul__(self, other):
        other = _operand(other, self.K)
        s = -self.E - other.E
        return Enclosure.between(self.lo * other.lo, 1, self.hi * other.hi, 1, s,
                                 max(self.K, other.K))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _operand(other, self.K)
        if not other.lo:
            raise ZeroDivisionError("the divisor's enclosure contains 0")
        s = other.E - self.E
        return Enclosure.between(self.lo, other.hi, self.hi, other.lo, s,
                                 max(self.K, other.K))

    def __rtruediv__(self, other):
        return _operand(other, self.K) / self

    def __add__(self, other):
        other = _operand(other, self.K)
        E = max(other.E, self.E)
        a, b = E - other.E, E - self.E
        return Enclosure.between((other.lo << a) + (self.lo << b), 1,
                                 (other.hi << a) + (self.hi << b), 1, -E,
                                 max(self.K, other.K))

    __radd__ = __add__

    def __rsub__(self, other):
        left = _operand(other, self.K)
        E = max(left.E, self.E)
        a, b = E - left.E, E - self.E
        low = (left.lo << a) - (self.hi << b)
        if low < 0:
            raise ValueError(f"{other!r} minus the enclosure is not certainly >= 0")
        return Enclosure.between(low, 1, (left.hi << a) - (self.lo << b), 1, -E,
                                 max(self.K, left.K))

    def down(self) -> float:
        """The greatest float at or below the lower end."""
        return float_down(*_end_ratio(self.lo, self.E))

    def up(self) -> float:
        """The least float at or above the upper end."""
        return float_up(*_end_ratio(self.hi, self.E))

    def nearest(self) -> tuple[float, float] | None:
        """(v, tail): v the float nearest every value enclosed, decided when
        both ends round to it, and tail the least float at or above their
        distances to v, decided when v lies outside the open enclosure and
        its distances to both ends round up alike; else None, and the caller
        deepens K.  A value past the float range gives inf twice."""
        (ln, ld), (hn, hd) = _end_ratio(self.lo, self.E), _end_ratio(self.hi, self.E)
        value = _nearest(ln, ld)
        if value != _nearest(hn, hd):
            return None
        if value == math.inf:
            return value, value
        below, above = _excess(value, ln, ld), _excess(value, hn, hd)
        vd = value.as_integer_ratio()[1]
        tail = float_up(abs(below), vd * ld)
        if (below <= 0 or above >= 0) and tail == float_up(abs(above), vd * hd):
            return value, tail
        return None

    def __repr__(self) -> str:
        return f"Enclosure[{self.lo} / 2^{self.E}, {self.hi} / 2^{self.E}]"


def _operand(x, K: int) -> Enclosure:
    """x if it is an Enclosure, else the exact int, Fraction or float x >= 0
    enclosed at K bits."""
    if isinstance(x, Enclosure):
        return x
    if not isinstance(x, (int, Fraction, float)):
        raise TypeError(f"an Enclosure operand must be exact, got {x!r}")
    num, den = x.as_integer_ratio()
    if num < 0:
        raise ValueError(f"an Enclosure operand must be >= 0, got {x!r}")
    return Enclosure.between(num, den, num, den, 0, K)


def _atan_inv(k: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^W atan(1/k) <= hi, W = BITS + GUARD_BITS, for an int k >= 2.

    The terms t_j = 2^W / ((2j+1) k^(2j+1)) alternate and decrease.  Nested
    floors of positive ints compose, so u_j = u_(j-1) // k^2 is exactly
    floor(2^W / k^(2j+1)) and u_j // (2j+1) exactly floor(t_j): each of the N
    terms summed is off by less than 1, and the sum stops at u_N = 0, where
    the remainder is below t_N < 1.
    """
    total, j, u = 0, 0, (1 << (BITS + GUARD_BITS)) // k
    while u:
        term = u // (2 * j + 1)
        total += -term if j & 1 else term
        j += 1
        u //= k * k
    return total - j - 1, total + j + 1


def _exp_series(q: Fraction) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^W e^q <= hi, W = BITS + GUARD_BITS, for 0 < q <= 1.

    The terms t_j = 2^W q^j / j! are formed as f_j = floor(f_(j-1) q / j)
    from f_0 = 2^W, so 0 <= t_j - f_j < 2 by induction (q / j <= 1).  The sum
    of f_0..f_(N-1) stops at the first f_N = 0, where t_N < 2, so the
    Lagrange remainder e^xi t_(N+1) = e^xi t_N q / (N+1) is below 3, and
    2^W e^q lies in [sum, sum + 2N + 3].
    """
    if not 0 < q <= 1:
        raise ValueError(f"exp needs a rational 0 < q <= 1, got {q}")
    a, b = q.numerator, q.denominator
    total, term, j = 0, 1 << (BITS + GUARD_BITS), 0
    while term:
        total += term
        j += 1
        term = term * a // (b * j)
    return total, total + 2 * j + 3


# ---------------------------------------------------------------------------
# certified comparisons against transcendental bounds
# ---------------------------------------------------------------------------

def _over(x: Rational, end: int, E: int, shift: int) -> int:
    """A positive multiple of x / 2^shift - end / 2^E; a Fraction x moves its
    denominator onto the end."""
    if type(x) is not int:
        x, end = x.numerator, end * x.denominator
    e = shift - E
    return (x << -e) - end if e < 0 else x - (end << e)


def certified_le(x: Rational, bound: Enclosure, shift: int = 0) -> bool:
    """True only if x/2^shift <= bound is certain: it must clear the lower end.
    x is an int (a dyadic mantissa) or any exact rational."""
    return _over(x, bound.lo, bound.E, shift) <= 0


def certified_ge(x: Rational, bound: Enclosure, shift: int = 0) -> bool:
    """True only if x/2^shift >= bound is certain: it must clear the upper end."""
    return _over(x, bound.hi, bound.E, shift) >= 0


def certified_ge_threshold(x: int, bound: Enclosure, shift: int = 0) -> int:
    """The least integer N with certified_ge(N * x, bound, shift), for an int x > 0.

    With the upper end hi / 2^E, N x / 2^shift clears it iff
    N >= hi 2^(shift - E) / x, whose ceiling is N.
    """
    if type(x) is not int or x <= 0:
        raise ValueError(f"the threshold needs an int x > 0, got {x!r}")
    return -_floor_shift(-bound.hi, x, shift - bound.E)
