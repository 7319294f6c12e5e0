"""Taylor coefficients of powers of psi(x) = (1 - sqrt(1-x))/x.

Let xi(x) = 1 - sqrt(1-x), so psi(x) = xi(x)/x.  This module computes, in
exact arithmetic,

    beta(n, p)  = p-th Taylor coefficient of xi(x)^n,
    alpha(n, p) = p-th Taylor coefficient of psi(x)^n,

related by the index shift beta(n, p+n) = alpha(n, p).  Closed forms:

    beta(n, p)  = 0 for p < n, else (n/2p) * 2^(n+1-2p) * C(2p-n-1, p-1)
    alpha(n, p) = (n/(n+p)) * 2^(-n-2p) * C(n+2p-1, p)

Every coefficient is a dyadic rational, handled as an integer mantissa over
a power of two:

    alpha(n, p) = a(n, p) / 2^(n+2p),   a(n, p) = n C(n+2p-1, p) / (n+p),
    beta(n, p)  = b(n, p) / 2^(2p-n),   b(n, p) = n C(2p-n-1, p-1) / p.

`alpha` and `beta` are exact accessors on those mantissas, each from its own
closed form, so the shift b(n, p+n) = a(n, p) is a real check.  Sweeps over a
rectangle use `mantissa_rows`, the integer kernel: row 0 is psi^0 = 1, row 1
comes from the exact ratio recurrence, and every further row is built whole
from the two before it by the paper's three-term recurrence in mantissa
form, a(n+1, p) = a(n, p+1) - a(n-1, p+1), which is pure big-integer
subtraction.  The `table` export prints from `decimal_rows`, the same
recurrence in value form on exact Decimals: row 1 is the integer row 1 over
2^(1+2p), the context is wide enough for every entry and traps rounding, and
the tests check each entry against the integer kernel.  The export builds and
writes its output one row at a time, so no string of the whole table is
built.  Single cells off a row use `alpha_mantissa_walk`: one binomial seeds a
path whose n and p never decrease, and each further cell is one exact ratio
hop.

An independent oracle builds the same mantissas in integers from the
binomial series of xi(x) alone: its coefficient ratio (2k-3)/(2k), scaled by
4^k/2, is the Catalan recurrence, so xi(x) = 2 C(x/4) with C(y) the Catalan
series sum_k Cat(k-1) y^k, a(n, p) = [y^(n+p)] C(y)^n, and the powers of C
come from packed big-integer multiplication (Kronecker substitution).  Float
helpers evaluate psi(x)^n and its truncated series.

The worked example's boundary sum S(n) = sum_p (-1/4)^p C(n+2p-1, p-1) at
x = -1 is not summed here: it is -(2^n/n) (psi^n)'(-1).  `operators` rounds
that closed form, and psi(a)^n and (psi^n)'(a) on scalar and Jordan matrices,
a = -1 included, by one routine of `arith.Enclosure` operations.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, Inexact, Rounded, localcontext
from fractions import Fraction
from itertools import count, islice
from operator import sub
from typing import Iterable, Iterator, Optional

from .arith import Rational, binomial


def alpha_mantissa(n: int, p: int) -> int:
    """Integer a with alpha(n, p) = a / 2^(n+2p), from one binomial."""
    if n < 1 or p < 0:
        raise ValueError(f"alpha requires n >= 1, p >= 0, got ({n}, {p})")
    return binomial(n + 2 * p - 1, p) * n // (n + p)


def alpha_mantissa_stream(n: int) -> Iterator[int]:
    """a(n, 0), a(n, 1), ... without end, by the exact ratio recurrence.

    a(n, p+1) = a(n, p) * (n+2p+1)(n+2p) / ((p+1)(n+p+1)); each entry costs
    one big-int multiply and divmod, and a division that leaves a remainder is
    an error.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    a = 1
    for p in count():
        yield a
        den = (p + 1) * (n + p + 1)
        a, r = divmod(a * ((n + 2 * p + 1) * (n + 2 * p)), den)
        if r:
            raise AssertionError(f"a({n}, {p + 1}) = {a} + {r}/{den} is not an integer")


def alpha_mantissa_walk(
    cells: Iterable[tuple[int, int]], seed: Optional[int] = None
) -> Iterator[int]:
    """a(n, p) at each cell of a path whose n and p never decrease.

    The first cell costs one binomial (`alpha_mantissa`), or none when its
    mantissa is passed as `seed`.  Every later cell is one hop: the exact
    ratios

        a(n+1, p) / a(n, p) = (n+1)(n+2p) / (n(n+p+1)),
        a(n, p+1) / a(n, p) = (n+2p+1)(n+2p) / ((p+1)(n+p+1)),

    taken first in n and then in p, are multiplied into one small numerator
    and one small denominator, followed by one big multiply and one divmod; a
    division that leaves a remainder is an error.
    """
    cells = iter(cells)
    first = next(cells, None)
    if first is None:
        return
    n, p = first
    if n < 1 or p < 0:
        raise ValueError(f"the walk starts at n >= 1, p >= 0, got ({n}, {p})")
    a = alpha_mantissa(n, p) if seed is None else seed
    yield a
    for n_to, p_to in cells:
        if n_to < n or p_to < p:
            raise ValueError(f"the walk cannot step back from ({n}, {p}) to ({n_to}, {p_to})")
        num = den = 1
        for m in range(n, n_to):
            num *= (m + 1) * (m + 2 * p)
            den *= m * (m + p + 1)
        n = n_to
        for q in range(p, p_to):
            num *= (n + 2 * q + 1) * (n + 2 * q)
            den *= (q + 1) * (n + q + 1)
        p = p_to
        a, r = divmod(a * num, den)
        if r:
            raise AssertionError(f"a({n}, {p}) = {a} + {r}/{den} is not an integer")
        yield a


def alpha_mantissa_row(n: int, p_max: int) -> list[int]:
    """Mantissas of alpha(n, 0..p_max) by the exact ratio recurrence."""
    return list(islice(alpha_mantissa_stream(n), p_max + 1))


def mantissa_rows(n_max: int, p_max: int) -> Iterator[tuple[int, list[int]]]:
    """(n, row) for n = 1..n_max, with row[p] = a(n, p) for p = 0..p_max.

    Row 0 is psi^0 = 1, i.e. [1, 0, 0, ...], and row 1 comes from the ratio
    recurrence; each further row is a new list, built in one pass from the
    two before it by a(n+1, p) = a(n, p+1) - a(n-1, p+1).  Entries past p_max
    are working space for the later rows: each row is one entry shorter.
    """
    if n_max < 1:
        return
    cur = alpha_mantissa_row(1, p_max + n_max - 1)
    prev = [1] + [0] * (len(cur) - 1)
    yield 1, cur
    for n in range(2, n_max + 1):
        prev, cur = cur, list(map(sub, cur[1:], prev[1:len(cur)]))
        yield n, cur


def decimal_rows(n_max: int, p_max: int) -> Iterator[tuple[int, list[Decimal]]]:
    """(n, row) for n = 1..n_max, with row[p] = alpha(n, p) as an exact Decimal.

    The value form of `mantissa_rows`, for printing: row 0 is psi^0 = 1, row 1
    is `alpha_mantissa_row` divided by 2^(1+2p), and each further row is built
    whole, as a new list, by alpha(n+1, p) = 2 alpha(n, p+1) - alpha(n-1, p+1),
    with 2x taken as x + x.  The arithmetic runs in a context of
    2(n_max + p_max) digits, more than any entry (or twice one) needs:
    alpha(n, p) < 1 has n+2p fractional digits.  Inexact and Rounded are
    trapped, so a result that would need rounding raises.  Every entry is
    normalized, so format(row[p], "f") prints it exactly under any context.
    The caller's context is never changed: each row is built inside the exact
    context, which is left before the row is yielded.
    """
    if n_max < 1:
        return
    exact = Context(prec=2 * (n_max + p_max))
    exact.traps[Inexact] = exact.traps[Rounded] = True
    with localcontext(exact):
        cur = [(Decimal(a) / (1 << (1 + 2 * p))).normalize()
               for p, a in enumerate(alpha_mantissa_row(1, p_max + n_max - 1))]
    prev = [Decimal(1)] + [Decimal(0)] * (len(cur) - 1)
    yield 1, cur
    for n in range(2, n_max + 1):
        with localcontext(exact):
            row = [(c + c - q).normalize() for c, q in zip(cur[1:], prev[1:len(cur)])]
        prev, cur = cur, row
        yield n, cur


def alpha(n: int, p: int) -> Rational:
    """Exact p-th Taylor coefficient of psi(x)^n."""
    return Fraction(alpha_mantissa(n, p), 1 << (n + 2 * p))


def beta_mantissa(n: int, p: int) -> int:
    """Integer b with beta(n, p) = b / 2^(2p-n): n C(2p-n-1, p-1) / p, 0 for p < n."""
    if n < 1 or p < 0:
        raise ValueError(f"beta requires n >= 1, p >= 0, got ({n}, {p})")
    return binomial(2 * p - n - 1, p - 1) * n // p if p >= n else 0


def beta(n: int, p: int) -> Rational:
    """Exact p-th Taylor coefficient of xi(x)^n."""
    b = beta_mantissa(n, p)
    return Fraction(b, 1 << (2 * p - n)) if p >= n else Fraction(0)


# ---------------------------------------------------------------------------
# independent oracle: packed powers of the Catalan series
# ---------------------------------------------------------------------------

def catalan_series(degree: int) -> list[int]:
    """Integer coefficients Cat(k-1) of C(y) = xi(y/4)/2 for k = 0..degree.

    s_k = 4^k xi_k / 2 for the binomial-series coefficients xi_k of xi(x):
    xi_1 = 1/2 and xi_k / xi_(k-1) = (2k-3)/(2k) give s_1 = 1 and
    s_k = s_(k-1) 2(2k-3) / k; a division that leaves a remainder is an error.
    """
    out = [0, 1][: degree + 1]
    for k in range(2, degree + 1):
        s, r = divmod(out[-1] * 2 * (2 * k - 3), k)
        if r:
            raise AssertionError(f"4^{k} xi_{k} / 2 = {s} + {r}/{k} is not an integer")
        out.append(s)
    return out


def catalan_power_rows(n_max: int, degree: int) -> Iterator[tuple[int, list[int]]]:
    """(n, [y^q] C(y)^n for q = 0..degree) for n = 1..n_max.

    Each series is packed into one integer with a fixed slot per coefficient
    (Kronecker substitution), so C^n = C^(n-1) * C is one big-int multiply,
    truncated by a mask.  C(1/4) = 1/2 bounds [C^n]_q < 4^q; the slots hold
    2*degree + 1 bits and every unpacked coefficient is checked against that
    bound, so no slot can have carried into the next.
    """
    nbytes = (2 * degree + 1 + 7) // 8
    slots = degree + 1
    base = int.from_bytes(
        b"".join(c.to_bytes(nbytes, "little") for c in catalan_series(degree)),
        "little",
    )
    mask = (1 << (8 * nbytes * slots)) - 1
    packed = 1
    for n in range(1, n_max + 1):
        packed = (packed * base) & mask
        data = packed.to_bytes(nbytes * slots, "little")
        coeffs = [
            int.from_bytes(data[q * nbytes : (q + 1) * nbytes], "little")
            for q in range(slots)
        ]
        for q, c in enumerate(coeffs):
            if c.bit_length() > 2 * q:
                raise AssertionError(f"[C^{n}]_{q} = {c} is not below 4^{q}")
        yield n, coeffs


def oracle_mantissa_rows(n_max: int, p_max: int) -> Iterator[tuple[int, list[int]]]:
    """(n, [a(n, 0..p_max)]) for n = 1..n_max from the packed Catalan powers.

    Shares no code with the closed form or the three-term recurrence.
    """
    for n, coeffs in catalan_power_rows(n_max, n_max + p_max):
        if any(coeffs[:n]):
            raise AssertionError(f"C^{n} has a nonzero coefficient below y^{n}")
        yield n, coeffs[n : n + p_max + 1]


def oracle_beta(n: int, p_max: int) -> list[Rational]:
    """beta(n, 0..p_max): xi(x)^n = 2^n C(x/4)^n from packed integer powers."""
    if n < 1:
        raise ValueError("n must be >= 1")
    *_, (_, coeffs) = catalan_power_rows(n, p_max)
    return [Fraction(c << n, 1 << (2 * q)) for q, c in enumerate(coeffs)]


def oracle_alpha(n: int, p_max: int) -> list[Rational]:
    """alpha(n, 0..p_max): a(n, p) = [y^(n+p)] C(y)^n over 2^(n+2p)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    *_, (_, row) = oracle_mantissa_rows(n, p_max)
    return [Fraction(a, 1 << (n + 2 * p)) for p, a in enumerate(row)]


# ---------------------------------------------------------------------------
# recurrences and closed-form sums
# ---------------------------------------------------------------------------

def alpha_recurrence_check(n: int, p: int) -> bool:
    """alpha(n+1, p) == 2*alpha(n, p+1) - alpha(n-1, p+1), exactly (n >= 2):
    a(n+1, p) = a(n, p+1) - a(n-1, p+1) over the common 2^(n+2p+1)."""
    if n < 2:
        raise ValueError("recurrence anchor needs n >= 2")
    return alpha_mantissa(n + 1, p) == alpha_mantissa(n, p + 1) - alpha_mantissa(n - 1, p + 1)


def beta_recurrence_check(n: int, p: int) -> bool:
    """beta(n+1, p) == 2*beta(n, p) - beta(n-1, p-1), exactly (n >= 2):
    b(n+1, p) = b(n, p) - b(n-1, p-1) over the common 2^(2p-n-1)."""
    if n < 2:
        raise ValueError("recurrence anchor needs n >= 2")
    lower = beta_mantissa(n - 1, p - 1) if p >= 1 else 0
    return beta_mantissa(n + 1, p) == beta_mantissa(n, p) - lower


def sum_alpha_mantissa(N: int, p: int) -> int:
    """Integer s with sum_{n=1}^{N} alpha(n, p) = s / 2^(N+2p), closed form."""
    if N < 1 or p < 0:
        raise ValueError(f"sum_alpha requires N >= 1, p >= 0, got ({N}, {p})")
    return (binomial(2 * p, p) << N) - binomial(N + 2 * p, p)


def sum_alpha(N: int, p: int) -> Rational:
    """Closed form of sum_{n=1}^{N} alpha(n, p)."""
    return Fraction(sum_alpha_mantissa(N, p), 1 << (N + 2 * p))


# ---------------------------------------------------------------------------
# float evaluation
# ---------------------------------------------------------------------------

def psi_eval(x: float, n: int) -> float:
    """psi(x)^n in float, for x in [-1, 1].

    Uses the cancellation-free algebraic form psi(x) = 1/(1 + sqrt(1-x)),
    exact at the removable singularity x = 0 (value 2^-n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [-1, 1], got {x}")
    return (1.0 / (1.0 + math.sqrt(1.0 - x))) ** n


def psi_partial_sum(x: float, n: int, P: int) -> float:
    """sum_{p=0}^{P} alpha(n, p) x^p in float, each alpha(n, p) = a / 2^(n+2p)
    correctly rounded from its mantissa."""
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [-1, 1], got {x}")
    total = 0.0
    xp = 1.0
    for p, a in enumerate(islice(alpha_mantissa_stream(n), P + 1)):
        total += a / (1 << (n + 2 * p)) * xp
        xp *= x
    return total
