"""Exact rational arithmetic, combinatorial primitives, and certified comparisons.

Every identity check in this package is decided in exact arithmetic.  The value
type is `Rational` (stdlib `fractions.Fraction`: always reduced, denominator
positive, exact field operations).  A transcendental bound (anything containing
pi, e, or a square root) is an `Enclosure`: integers lo <= hi with
lo / 2^128 <= x <= hi / 2^128, built from integer series whose truncation error
is counted (Machin's formula for pi, the Taylor series of exp with its Lagrange
remainder; Brent and Zimmermann, Modern Computer Arithmetic, CUP 2010, ch. 4)
and carried through operations that round lo down and hi up.  A rational is
compared against a bound by `certified_le` / `certified_ge`: the check passes
only if it clears the unfavorable end, and x / 2^shift against lo / 2^128 is
x << (128 - shift) against lo, or x against lo << (shift - 128), so a pass is
an integer inequality and a proof, never a float accident.  A Fraction x moves
its denominator onto the end first.  `certified_ge_threshold` solves the ge
comparison of N x for N: the least integer multiple of an int x > 0 that clears
the upper end, so one division certifies a whole column of N.

Exact values print as decimal digits through `decimal`, whose int conversion
is exact and, unlike str(int), has no limit on the number of digits.
"""

from __future__ import annotations

import functools
import math
import re
from decimal import Decimal
from fractions import Fraction

Rational = Fraction

BITS = 128  # fraction bits of an Enclosure's ends
GUARD_BITS = 32  # extra fraction bits the series for pi and exp carry


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention that out-of-range k gives 0."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _digits(n: int) -> str:
    """str(n) for an int of any size: str(int) refuses more than 4300 digits."""
    return str(Decimal(n))


def dyadic_str(man: int, exp: int) -> str:
    """Serialize man / 2^exp exactly, in the form rational_str gives that value.

    A reduced fraction terminates in base 10 iff its denominator is 2^a * 5^b,
    and a dyadic is the case b = 0: once the trailing zero bits of man are
    shifted out, m / 2^e with e > 0 is reduced, and m / 2^e = m 5^e / 10^e, so
    its digits are the integer |m| 5^e with the point e places from the right.
    No gcd is taken.
    """
    if not man:
        return "0"
    shift = (man & -man).bit_length() - 1
    man >>= shift
    exp -= shift
    if exp <= 0:
        return _digits(man << -exp)
    sign = "-" if man < 0 else ""
    text = _digits(abs(man) * 5 ** exp).rjust(exp + 1, "0")
    return f"{sign}{text[:-exp]}.{text[-exp:]}"


def rational_str(q: Rational) -> str:
    """Serialize exactly: terminating decimal when one exists, else 'p/q'.

    A reduced fraction terminates in base 10 iff its denominator is 2^a * 5^b;
    with k = max(a, b) its digits are the integer |num| 2^(k-a) 5^(k-b).  A
    power-of-two denominator (b = 0, integers included) goes to dyadic_str.
    """
    q = Fraction(q)
    num, den = q.numerator, q.denominator
    if not den & (den - 1):
        return dyadic_str(num, den.bit_length() - 1)
    a = (den & -den).bit_length() - 1
    rest = den >> a
    b = 0
    while rest % 5 == 0:
        rest //= 5
        b += 1
    if rest != 1:
        return f"{_digits(num)}/{_digits(den)}"
    digits = max(a, b)
    scaled = (abs(num) << (digits - a)) * 5 ** (digits - b)
    sign = "-" if num < 0 else ""
    text = _digits(scaled).rjust(digits + 1, "0")
    whole, frac = text[:-digits], text[-digits:]
    return f"{sign}{whole}.{frac}"


def parse_rational(text: str) -> Rational:
    """Inverse of rational_str (also accepts plain ints and p/q).

    The text must be one of those forms, else ValueError.  Its digits are read
    by Decimal, which is exact and, unlike int(str), takes any number of them.
    """
    if not re.fullmatch(r"-?[0-9]+(\.[0-9]+)?|-?[0-9]+/[0-9]+", text):
        raise ValueError(f"not a decimal, an integer or p/q: {text!r}")
    num, _, den = text.partition("/")
    return Fraction(Decimal(num)) / int(Decimal(den or 1))


# ---------------------------------------------------------------------------
# integer enclosures of transcendental bounds
# ---------------------------------------------------------------------------

def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _ratio(x: Rational | float) -> tuple[int, int]:
    """(num, den) with x = num / den exactly, for an int, Fraction or float x >= 0."""
    num, den = x.as_integer_ratio()
    if num < 0:
        raise ValueError(f"an Enclosure operand must be >= 0, got {x!r}")
    return num, den


_EXACT = (int, Fraction, float)


class Enclosure:
    """A real x >= 0 with lo / 2^BITS <= x <= hi / 2^BITS, where lo and hi are ints.

    Enclosure(q) encloses an int, Fraction or float q >= 0 (a float through its
    exact `as_integer_ratio`).  `*` and `/` take another Enclosure or an exact
    number on either side, and an exact number minus an Enclosure is one too;
    each rounds lo down and hi up, so the result contains the exact result for
    every pair of values the operands contain.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, q: Rational | float):
        num, den = _ratio(q)
        self.lo, self.hi = (num << BITS) // den, _ceil_div(num << BITS, den)

    @classmethod
    def _ends(cls, lo: int, hi: int) -> "Enclosure":
        new = object.__new__(cls)
        new.lo, new.hi = lo, hi
        return new

    @staticmethod
    @functools.cache
    def pi() -> "Enclosure":
        """pi = 16 atan(1/5) - 4 atan(1/239) (Machin)."""
        lo5, hi5 = _atan_inv(5)
        lo239, hi239 = _atan_inv(239)
        return _from_guarded(16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239)

    @staticmethod
    def exp(q: Rational) -> "Enclosure":
        """e^q for a rational 0 < q <= 1, by its Taylor series (`_exp_series`)."""
        return _from_guarded(*_exp_series(Fraction(q)))

    def sqrt(self) -> "Enclosure":
        lo = math.isqrt(self.lo << BITS)
        top = self.hi << BITS
        hi = math.isqrt(top)
        return Enclosure._ends(lo, hi if hi * hi == top else hi + 1)

    def __mul__(self, other):
        if isinstance(other, Enclosure):
            return Enclosure._ends(self.lo * other.lo >> BITS,
                                   -(-self.hi * other.hi >> BITS))
        if not isinstance(other, _EXACT):
            return NotImplemented
        num, den = _ratio(other)
        return Enclosure._ends(self.lo * num // den, _ceil_div(self.hi * num, den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Enclosure):
            if not other.lo:
                raise ZeroDivisionError("the divisor's enclosure contains 0")
            return Enclosure._ends((self.lo << BITS) // other.hi,
                                   _ceil_div(self.hi << BITS, other.lo))
        if not isinstance(other, _EXACT):
            return NotImplemented
        num, den = _ratio(other)
        if not num:
            raise ZeroDivisionError("division of an Enclosure by 0")
        return Enclosure._ends(self.lo * den // num, _ceil_div(self.hi * den, num))

    def __rtruediv__(self, other):
        if not isinstance(other, _EXACT):
            return NotImplemented
        if not self.lo:
            raise ZeroDivisionError("the divisor's enclosure contains 0")
        num, den = _ratio(other)
        return Enclosure._ends((num << 2 * BITS) // (den * self.hi),
                               _ceil_div(num << 2 * BITS, den * self.lo))

    def __rsub__(self, other):
        if not isinstance(other, _EXACT):
            return NotImplemented
        left = Enclosure(other)
        if left.lo < self.hi:
            raise ValueError(f"{other!r} minus the enclosure is not certainly >= 0")
        return Enclosure._ends(left.lo - self.hi, left.hi - self.lo)

    def __repr__(self) -> str:
        return f"Enclosure[{self.lo} / 2^{BITS}, {self.hi} / 2^{BITS}]"


def _from_guarded(lo: int, hi: int) -> Enclosure:
    """The Enclosure of [lo, hi] / 2^(BITS + GUARD_BITS), rounded outward."""
    return Enclosure._ends(lo >> GUARD_BITS, -(-hi >> GUARD_BITS))


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

def certified_le(x: Rational, bound: Enclosure, shift: int = 0) -> bool:
    """True only if x/2^shift <= bound is certain: it must clear the lower end.

    x is an int (a dyadic mantissa) or any exact rational; the comparison
    against the enclosure's exact end is itself exact.
    """
    end = bound.lo
    if type(x) is not int:
        x, end = x.numerator, end * x.denominator
    e = shift - BITS
    return x << -e <= end if e < 0 else x <= end << e


def certified_ge(x: Rational, bound: Enclosure, shift: int = 0) -> bool:
    """True only if x/2^shift >= bound is certain: it must clear the upper end."""
    end = bound.hi
    if type(x) is not int:
        x, end = x.numerator, end * x.denominator
    e = shift - BITS
    return x << -e >= end if e < 0 else x >= end << e


def certified_ge_threshold(x: int, bound: Enclosure, shift: int = 0) -> int:
    """The least integer N with certified_ge(N * x, bound, shift), for an int x > 0.

    With the upper end hi / 2^BITS and e = shift - BITS, N x / 2^shift clears
    it iff N >= hi 2^e / x, so N is ceil(hi << e, x), or ceil(hi, x << -e)
    when e < 0.
    """
    if type(x) is not int or x <= 0:
        raise ValueError(f"the threshold needs an int x > 0, got {x!r}")
    e = shift - BITS
    return _ceil_div(bound.hi, x << -e) if e < 0 else _ceil_div(bound.hi << e, x)
