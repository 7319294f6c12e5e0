"""Exact rational arithmetic, combinatorial primitives, and certified comparisons.

Every identity check in this package is decided in exact arithmetic.  The value
type is `Rational` (stdlib `fractions.Fraction`: always reduced, denominator
positive, exact field operations).  Comparisons of an exact rational against a
transcendental bound (anything containing pi, e, or a square root) go through
outward-rounded interval arithmetic and `certified_le` / `certified_ge`: the
check passes only if the rational clears the unfavorable endpoint of the
interval.  That endpoint is an mpf, itself a dyadic (-1)^s man * 2^exp, so the
comparison is exact integer arithmetic and a pass is a proof, never a float
accident.  The common case, an int x against a finite nonzero endpoint, is
decided inside the call: with e = exp + shift, x / 2^shift against the endpoint
is x << -e against the signed man when e < 0, and x against man << e
otherwise.  Every other case (a Fraction x, a zero or infinite endpoint, a NaN
endpoint, which raises) is first rewritten by `_exact_operands` into integers
for that same comparison.  `certified_ge_threshold` solves the ge comparison
of N x for N: the least integer multiple of an int x > 0 that clears the
upper endpoint, so one division certifies a whole column of N.

Exact values print as decimal digits through `decimal`, whose int conversion
is exact and, unlike str(int), has no limit on the number of digits.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction

import mpmath

Rational = Fraction

# Interval context used for every transcendental bound. 128 binary digits of
# working precision; endpoints are outward-rounded by mpmath.
iv = mpmath.iv
iv.prec = 128


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
# certified comparisons against transcendental expressions
# ---------------------------------------------------------------------------

def _exact_operands(x: Rational, endpoint: tuple) -> tuple[int, int, int, int]:
    """(num, sign, man, exp) such that x/2^shift against the mpf endpoint orders
    as num/2^shift against (-1)^sign man 2^exp, for every shift.

    The cases `certified_le` / `certified_ge` do not decide inline: a Fraction
    x = num/den moves den onto the endpoint's mantissa; a zero endpoint is
    man = 0; an infinite one is replaced by 0 against a signed 1, which orders
    the same way against every finite x.  A NaN endpoint raises ValueError.
    """
    sign, man, exp, _ = endpoint
    if not man:
        if endpoint == mpmath.libmp.finf:
            return 0, 0, 1, 0
        if endpoint == mpmath.libmp.fninf:
            return 0, 1, 1, 0
        if endpoint != mpmath.libmp.fzero:
            raise ValueError("cannot compare against a NaN interval endpoint")
        exp = 0
    if isinstance(x, int):
        return x, sign, man, exp
    return x.numerator, sign, man * x.denominator, exp


def certified_le(x: Rational, bound: "iv.mpf", shift: int = 0) -> bool:
    """True only if x/2^shift <= bound is certain: it must clear the lower endpoint.

    x is an int (a dyadic mantissa) or any exact rational; the comparison
    against the interval's exact endpoint is itself exact.
    """
    endpoint = bound._mpi_[0]
    sign, man, exp, _ = endpoint
    if not man or type(x) is not int:
        x, sign, man, exp = _exact_operands(x, endpoint)
    if sign:
        man = -man
    e = exp + shift
    return x << -e <= man if e < 0 else x <= man << e


def certified_ge(x: Rational, bound: "iv.mpf", shift: int = 0) -> bool:
    """True only if x/2^shift >= bound is certain: it must clear the upper endpoint."""
    endpoint = bound._mpi_[1]
    sign, man, exp, _ = endpoint
    if not man or type(x) is not int:
        x, sign, man, exp = _exact_operands(x, endpoint)
    if sign:
        man = -man
    e = exp + shift
    return x << -e >= man if e < 0 else x >= man << e


def certified_ge_threshold(x: int, bound: "iv.mpf", shift: int = 0) -> int | float:
    """The least integer N with certified_ge(N * x, bound, shift), for an int x > 0.

    With the upper endpoint (-1)^s man 2^exp and e = exp + shift, N x / 2^shift
    clears it iff N >= man 2^e / x, so N is ceil(man << e, x), or
    ceil(man, x << -e) when e < 0.  A +inf endpoint is cleared by no N and
    gives inf; a -inf endpoint by every N and gives -inf.  A NaN endpoint
    raises ValueError, as in certified_ge.
    """
    if type(x) is not int or x <= 0:
        raise ValueError(f"the threshold needs an int x > 0, got {x!r}")
    endpoint = bound._mpi_[1]
    sign, man, exp, _ = endpoint
    if not man:
        if endpoint == mpmath.libmp.finf:
            return math.inf
        if endpoint == mpmath.libmp.fninf:
            return -math.inf
        _, sign, man, exp = _exact_operands(x, endpoint)
    if sign:
        man = -man
    e = exp + shift
    return -(-man // (x << -e)) if e < 0 else -(-(man << e) // x)


def iv_float_down(x: "iv.mpf") -> float:
    """Float at or below the interval's lower endpoint (floor rounding)."""
    return mpmath.libmp.to_float(x._mpi_[0], rnd="f")


def iv_float_up(x: "iv.mpf") -> float:
    """Float at or above the interval's upper endpoint (ceiling rounding)."""
    return mpmath.libmp.to_float(x._mpi_[1], rnd="c")
