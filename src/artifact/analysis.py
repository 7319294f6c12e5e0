"""Thresholds and inequality verification for the psi-power coefficients.

Everything here is about the coefficients alpha(n, p) of psi(x)^n, where
psi(x) = (1 - sqrt(1-x))/x.  Three exact rational thresholds in p organize
their behavior:

    I(n) = (n^2 - 3n - 4)/6     alpha(n, p) <= alpha(n, p+1)  iff  p <= I(n)
    J(n) = (n^2 + n)/2          alpha(n, p) >= alpha(n+1, p)  iff  p <= J(n)
    K(n) = (n^4 - 2n^3 - 13n^2 - 10n) / (12n^2 + 12n - 24)

K(n) is refined by the roots of the exact quadratic f_n(p) = -12 p^2 +
12 (n^2 + n - 1) p - (n^4 - 2n^3 - 13n^2 - 10n): the differences
alpha(n, p) - alpha(n+1, p) are nondecreasing in p exactly where f_n(p) <= 0
(outside the roots) and decrease strictly between them.

Every claim is one small predicate on the integer mantissas
a(n, p) = alpha(n, p) 2^(n+2p); d(n,p) = 2 a(n,p) - a(n+1,p) is the mantissa
of alpha(n,p) - alpha(n+1,p) over 2^(n+1+2p).  The suites feed the predicates
rows of the kernel `mantissa_rows`; the public per-cell check_* functions, and
the `bounds` suite's peak column, feed them closed-form mantissas reached by
the exact ratio hops of `alpha_mantissa_walk`.  The `recurrences`, `sums` and
`oracle` suites check the kernel against what it does not use: the alpha and
sum closed forms by remainder-checked hops (from a(n, 0) = 1, and from one
C(2p, p) per p), beta's by one binomial per cell, and the Catalan oracle.

A transcendental bound is an outward-rounded interval built once per p from
cached pieces; a mantissa is compared exactly against its unfavorable endpoint
by `arith.certified_le` / `certified_ge`.  The check_* functions compare in
every cell.  The suites compare once per row or column, and each cell is then
one exact integer step that still proves that cell (see `_suite_bounds` and
`_suite_technical`).

The module ends with a registry of named verification suites.  A suite is a
generator of rows (params, key, values, verdicts), one verdict per cell
{**params, key: value}: True, False, None (skipped) or (False, lhs, rhs), a
failure with its values.  The registering decorator `_suite` turns it into a
runner whose deterministic VerifyReport names the suite and the rectangle
that ran.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .arith import (
    Rational,
    binomial,
    certified_ge,
    certified_ge_threshold,
    certified_le,
    iv,
    iv_float_down,
)
from .coeffs import (
    alpha_mantissa,
    alpha_mantissa_row,
    alpha_mantissa_walk,
    beta_mantissa,
    mantissa_rows,
    oracle_mantissa_rows,
    sum_alpha_mantissa,
)
from .report import VerifyReport


@dataclass(frozen=True)
class BoundConstants:
    """Constants appearing in the difference-sum and mean-bound theorems."""

    C_sum: Rational = Fraction(33, 2)
    C_meanbound: Rational = Fraction(99, 2)

    @staticmethod
    def majorant(p: int) -> float:
        """M_p: 1 at p = 0, else e^(1/(24p)) / (2(1+p) sqrt(pi p))."""
        if p == 0:
            return 1.0
        return math.exp(1.0 / (24 * p)) / (2 * (1 + p) * math.sqrt(math.pi * p))


@dataclass(frozen=True)
class Thresholds:
    """The monotonicity thresholds for one n (quadratic roots when present)."""

    n: int
    I: Rational
    J: Rational
    K: Optional[Rational]
    K_lower: Optional[float]
    K_upper: Optional[float]


def _quartic_q(n: int) -> int:
    return n ** 4 - 2 * n ** 3 - 13 * n ** 2 - 10 * n


def _discriminant(n: int) -> tuple[int, int]:
    """(A, D) with roots of f_n at (A -+ sqrt(D))/24; D > 0 for all n >= 1."""
    A = 12 * (n * n + n - 1)
    D = A * A - 48 * _quartic_q(n)
    return A, D


def thresholds(n: int) -> Thresholds:
    """Exact I, J, K plus the quadratic roots when both are nonnegative.

    K has denominator 12(n^2 + n - 2), which vanishes at n = 1; K is absent
    there.  The roots are absent until both are nonnegative, which a scan
    shows first happens at n = 5.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    I = Fraction(n * n - 3 * n - 4, 6)
    J = Fraction(n * n + n, 2)
    K = None if n == 1 else Fraction(_quartic_q(n), 12 * n * n + 12 * n - 24)
    if roots_exist(n):
        A, D = _discriminant(n)
        lo = (A - math.sqrt(D)) / 24
        hi = (A + math.sqrt(D)) / 24
    else:
        lo = hi = None
    return Thresholds(n=n, I=I, J=J, K=K, K_lower=lo, K_upper=hi)


def roots_exist(n: int) -> bool:
    """Both roots nonnegative iff the quartic q(n) >= 0 (A^2 - D = 48 q)."""
    return _quartic_q(n) >= 0


# ---------------------------------------------------------------------------
# threshold equivalences (exact)
# ---------------------------------------------------------------------------

def _diff_pair(n: int, p: int) -> tuple[int, int]:
    """(d(n, p), d(n, p+1)) with d(n, p) = 2 a(n, p) - a(n+1, p), from one binomial.

    d(n, p) is the mantissa of alpha(n,p) - alpha(n+1,p) over 2^(n+1+2p); the
    seed a(n, p) starts both walks, one up in n, one along p and then up.
    """
    a = alpha_mantissa(n, p)
    _, a_up = alpha_mantissa_walk([(n, p), (n + 1, p)], seed=a)
    _, a_next, a_up_next = alpha_mantissa_walk([(n, p), (n, p + 1), (n + 1, p + 1)], seed=a)
    return 2 * a - a_up, 2 * a_next - a_up_next


def _diff_column(n: int, p: int) -> tuple[int, int]:
    """(d(n-1, p), d(n, p)) from one walk up the column; a(0, p) = [p = 0] from psi^0 = 1."""
    if n < 1 or p < 0:
        # the walk starts at n - 1, so its own check would name another cell
        raise ValueError(f"the quotient identity needs n >= 1, p >= 0, got ({n}, {p})")
    if n == 1:
        a, a_up = alpha_mantissa_walk([(1, p), (2, p)])
        a_prev = int(p == 0)
    else:
        a_prev, a, a_up = alpha_mantissa_walk([(n - 1, p), (n, p), (n + 1, p)])
    return 2 * a_prev - a, 2 * a - a_up


def _I_claim(n: int, p: int, a: int, a_next: int) -> bool:
    """alpha(n,p) <= alpha(n,p+1), i.e. 4 a(n,p) <= a(n,p+1), iff p <= I(n)."""
    return (4 * a <= a_next) == (6 * p <= n * n - 3 * n - 4)


def _J_claim(n: int, p: int, a: int, a_up: int) -> bool:
    """alpha(n,p) >= alpha(n+1,p), i.e. 2 a(n,p) >= a(n+1,p), iff p <= J(n)."""
    return (2 * a >= a_up) == (2 * p <= n * n + n)


def _K_claim(p: int, A: int, q: int, d: int, d_next: int) -> bool:
    """Difference step nondecreasing, 4 d(n,p) <= d(n,p+1), iff p (A - 12p) <= q(n).

    A = 12(n^2 + n - 1) and q(n) are the per-n constants of `_discriminant` and
    `_quartic_q`, so the right side is the quadratic criterion f_n(p) <= 0.
    """
    return (4 * d <= d_next) == (p * (A - 12 * p) <= q)


def _regions_claim(p: int, A: int, D: int, d: int, d_next: int) -> Optional[bool]:
    """Difference step nondecreasing iff p lies outside the roots; None at a root.

    (A, D) = `_discriminant(n)`, computed once per n by the caller.
    """
    t = A - 24 * p
    if t * t == D:
        return None
    return (4 * d <= d_next) == (t * t > D)


def _quotient_claim(n: int, p: int, d_prev: int, d: int) -> Optional[bool]:
    """The difference-column ratio d(n,p) / (2 d(n-1,p)) against its closed form."""
    guard = n * (n - 1) - 2 * p
    if guard == 0 or d_prev == 0:
        return None
    return d * 2 * (n + p + 1) * guard == 2 * d_prev * (n * n + n - 2 * p) * (n + 2 * p - 1)


def check_I_equivalence(n: int, p: int) -> bool:
    """[alpha(n,p) <= alpha(n,p+1)] iff [p <= I(n)], both sides exact."""
    return _I_claim(n, p, *alpha_mantissa_walk([(n, p), (n, p + 1)]))


def check_J_equivalence(n: int, p: int) -> bool:
    """[alpha(n,p) >= alpha(n+1,p)] iff [p <= J(n)], both sides exact."""
    return _J_claim(n, p, *alpha_mantissa_walk([(n, p), (n + 1, p)]))


def check_K_appendix_equivalence(n: int, p: int) -> bool:
    """Difference-step comparison against the exact quadratic criterion.

    [alpha(n,p) - alpha(n+1,p) <= alpha(n,p+1) - alpha(n+1,p+1)]
        iff  [12 p (n^2 + n - 1) - 12 p^2 <= n^4 - 2n^3 - 13n^2 - 10n].
    """
    if n < 2:
        raise ValueError("quadratic criterion needs n >= 2")
    A, _ = _discriminant(n)
    return _K_claim(p, A, _quartic_q(n), *_diff_pair(n, p))


def check_upper_lower_K(n: int, p: int) -> Optional[bool]:
    """Three-region classification of the difference steps by the two roots.

    Below the lower root or above the upper one the successive differences
    alpha(n,p) - alpha(n+1,p) are nondecreasing in p; strictly between the
    roots they decrease.  Classification is exact integer arithmetic; p that
    hits a root exactly, 24p = A -+ sqrt(D), reports None (a tie) rather than
    pass/fail.
    """
    if not roots_exist(n):
        raise ValueError(f"n = {n} does not have two nonnegative roots")
    return _regions_claim(p, *_discriminant(n), *_diff_pair(n, p))


def check_quotient_identity(n: int, p: int) -> Optional[bool]:
    """Exact ratio of successive difference columns.

    For n >= 2, away from the guard set alpha(n-1,p) = alpha(n,p) (equivalently
    n(n-1) - 2p = 0 plus the p = J-type equalities):

        (alpha(n,p) - alpha(n+1,p)) / (alpha(n-1,p) - alpha(n,p))
            = (n^2 + n - 2p)(n + 2p - 1) / (2 (n+p+1) (n(n-1) - 2p)).

    For n = 1 the previous power is psi^0 = 1, whose coefficients are 1 at
    p = 0 and 0 otherwise; the ratio then reduces to (p-1)/(p+2) for p >= 1,
    which is the same formula at n = 1.  Returns None when the denominator
    guard n(n-1) - 2p = 0 fails (for n = 1 that is exactly p = 0, where the
    reduced formula does not apply either).
    """
    return _quotient_claim(n, p, *_diff_column(n, p))


# ---------------------------------------------------------------------------
# bound checks (exact mantissa vs outward-rounded transcendental bound)
# ---------------------------------------------------------------------------

# The bounds are built from shared pieces and cached, so that the suites and the
# per-cell checks read one definition and a sweep evaluates each interval once.
# The caches hold intervals at the fixed `iv.prec` set by `arith`.

@functools.cache
def _e_twelfth() -> "iv.mpf":
    """e^(1/12) as an outward-rounded interval."""
    return iv.exp(iv.mpf(1) / 12)


@functools.lru_cache(maxsize=4096)
def _sqrt_pi_p(p: int) -> "iv.mpf":
    """sqrt(pi p) as an outward-rounded interval."""
    return iv.sqrt(iv.pi * p)


@functools.lru_cache(maxsize=4096)
def _eq8_bound(p: int) -> "iv.mpf":
    """e^(1/(24p)) / (2(1+p) sqrt(pi p)) as an outward-rounded interval."""
    return iv.exp(iv.mpf(1) / (24 * p)) / (2 * (1 + p) * _sqrt_pi_p(p))


@functools.lru_cache(maxsize=4096)
def _sean_bound(p: int) -> "iv.mpf":
    """e^(1/12) / sqrt(pi p) as an outward-rounded interval."""
    return _e_twelfth() / _sqrt_pi_p(p)


@functools.cache
def _in_bound_M() -> "iv.mpf":
    """6 sqrt(2/pi) e^(1/12) as an outward-rounded interval."""
    return 6 * iv.sqrt(iv.mpf(2) / iv.pi) * _e_twelfth()


@functools.cache
def _technical_C() -> "iv.mpf":
    """6 e^(7/12) sqrt(2 pi) / (2 - sqrt(2)) as an outward-rounded interval."""
    return 6 * iv.exp(iv.mpf(7) / 12) * iv.sqrt(2 * iv.pi) / (2 - iv.sqrt(iv.mpf(2)))


def technical_C_down() -> float:
    """A float at or below 6 e^(7/12) sqrt(2 pi) / (2 - sqrt(2))."""
    return iv_float_down(_technical_C())


def _uniform_claim(n: int, p: int, d: int, a1: int, bound: "iv.mpf",
                   chained: bool = False) -> bool:
    """|alpha(n+1,p) - alpha(n,p)| = |d|/2^(n+1+2p) under alpha(1,p) = a1/2^(1+2p),
    p^(-3/2) and the sharp bound, certified against the interval `bound`.
    `chained` says that a1/2^(1+2p) clears the last two, so the first implies them."""
    d = abs(d)
    shift = n + 1 + 2 * p
    return d <= a1 << n and (chained or d * d * p ** 3 <= 1 << (2 * shift)
                             and certified_le(d, bound, shift))


def _stirling_claim(n: int, p: int, c: int, bound: "iv.mpf") -> bool:
    """C(n+2p, p) / 2^(n+2p) <= bound, with c = C(n+2p, p)."""
    return certified_le(c, bound, n + 2 * p)


def _peak_claim(n: int, i: int, a: int, M: "iv.mpf") -> bool:
    """alpha(n, i) <= M / i, i.e. i a(n,i) / 2^(n+2i) <= M."""
    return certified_le(i * a, M, n + 2 * i)


def _alpha0_claim(n: int, a: int, a_next: int) -> bool:
    """|alpha(n+1,0)/(n+1) - alpha(n,0)/n| = 2^-(n+1) (2+n) / (n(1+n)) <= 1.

    Over the common denominator n (n+1) 2^(n+1) the left side has numerator
    |n a(n+1,0) - 2 (n+1) a(n,0)| and the right side n + 2.
    """
    return (abs(n * a_next - 2 * (n + 1) * a) == n + 2
            and n + 2 <= (n * (n + 1)) << (n + 1))


def _sum_bound_claim(n: int, row_lo: list[int], row_hi: list[int]) -> bool:
    """sum_p |d(n,p)| / 2^(n+1+2p) <= 33/(2n), exactly, from the rows through J(n).

    Sign change: a(n+1,p)/a(n,p) = (n+1)(n+2p)/(n(n+p+1)), so d(n,p) =
    2 a(n,p) - a(n+1,p) >= 0 iff 2p <= n^2 + n, i.e. p <= J(n), for every p.
    Zero sum: alpha(n,p) >= 0 and psi(1) = 1, so by Abel sum_p alpha(n,p) =
    lim_{x->1-} psi(x)^n = 1 for every n, and sum_p d(n,p) / 2^(n+1+2p) = 0.
    So the terms p > J(n) cancel those p <= J(n): the sum of |d| is twice the
    finite one.  With num = sum_{p<=J} d(n,p) 4^(J-p), one Horner pass, the
    claim reads 2 n num den(C) <= num(C) 2^(n+1+2J) for C = 33/2; a negative
    d read contradicts the sign fact and fails.
    """
    J = n * (n + 1) // 2
    num = 0
    for p in range(J + 1):
        d = 2 * row_lo[p] - row_hi[p]
        if d < 0:
            return False
        num = (num << 2) + d
    C = BoundConstants.C_sum
    return 2 * n * num * C.denominator <= C.numerator << (n + 1 + 2 * J)


def _technical_claim(N: int, k: int, least: int) -> bool:
    """1/N <= (C/r) S(r,k): N >= certified_ge_threshold(s, r/C, r + 2k), s = S 2^(r+2k)."""
    return N >= least


def _s_monotone_claim(s: int, s_next: int) -> bool:
    """S(k+1) <= S(k) on mantissas over 2^(r+2k+2) and 2^(r+2k)."""
    return s_next <= 4 * s


def check_uniform_p_estimate(n: int, p: int) -> bool:
    """|alpha(n+1,p) - alpha(n,p)| against alpha(1, p), p^(-3/2) and the sharp
    e^(1/(24p)) / (2(1+p) sqrt(pi p)), each compared in this cell; the sharp one
    against its interval's lower endpoint, so a pass is a certificate."""
    if n < 1 or p < 1:
        raise ValueError("need n >= 1, p >= 1")
    a1, a, a_up = alpha_mantissa_walk([(1, p), (n, p), (n + 1, p)])
    return _uniform_claim(n, p, 2 * a - a_up, a1, _eq8_bound(p))


def check_alpha0_difference(n: int) -> bool:
    """Identity for the p = 0 column of n-normalized coefficients.

    alpha(n, 0) = 2^-n exactly, so

        |alpha(n+1,0)/(n+1) - alpha(n,0)/n| = 2^-(n+1) (2+n) / (n(1+n)),

    and that value is at most 1.  Checked as an exact identity.
    """
    return _alpha0_claim(n, alpha_mantissa(n, 0), alpha_mantissa(n + 1, 0))


def _majorant_partial_sums(P: int, steps: set[int]) -> list[float]:
    """Partial sums of M_p through each p in steps (ascending; steps above P
    are never reached), from one running pass over p = 0..P."""
    if P < 1:
        raise ValueError("P must be >= 1")
    total = 0.0
    sums = []
    for p in range(P + 1):
        total += BoundConstants.majorant(p)
        if p in steps:
            sums.append(total)
    return sums


def check_majorant_summability(P: int) -> float:
    """Partial sum of the majorant sequence M_p through p = P (float)."""
    return _majorant_partial_sums(P, {P})[0]


def check_sum_coefficient_bound(n: int) -> bool:
    """sum_p |alpha(n+1,p) - alpha(n,p)| <= 33/(2n), exactly.

    The differences change sign once, at p = J(n), and sum to zero, so the
    infinite sum is twice the finite sum over p <= J(n) (see _sum_bound_claim).
    """
    J = n * (n + 1) // 2
    return _sum_bound_claim(n, alpha_mantissa_row(n, J), alpha_mantissa_row(n + 1, J))


def check_sean_lemma(n: int, p: int) -> bool:
    """2^(-n-2p) C(n+2p, p) <= e^(1/12)/sqrt(pi p), certified."""
    if n < 1 or p < 1:
        raise ValueError("need n >= 1, p >= 1")
    return _stirling_claim(n, p, binomial(n + 2 * p, p), _sean_bound(p))


def check_In_bound(n: int) -> bool:
    """alpha(n, floor(I(n))) <= M / floor(I(n)) with M = 6 sqrt(2/pi) e^(1/12)."""
    if n < 6:
        raise ValueError("floor(I(n)) may be nonpositive below n = 6")
    i = (n * n - 3 * n - 4) // 6
    return _peak_claim(n, i, alpha_mantissa(n, i), _in_bound_M())


def c_np(n: int, p: int) -> float:
    """(1 + n/2p)^(2p+n) / (1 + n/p)^(n+p), evaluated in log space."""
    if n < 1 or p < 1:
        raise ValueError("need n >= 1, p >= 1")
    return math.exp(
        (2 * p + n) * math.log1p(n / (2.0 * p)) - (n + p) * math.log1p(n / float(p))
    )


def check_gamma_K(n: int, p: int, K: float) -> Optional[bool]:
    """e^(-K/2) <= c(n,p) <= 1 on the region n^2 <= pK (slack 1e-12).

    The lower constant is e^(-K/2): on n^2 <= pK the exponent of c(n,p) is
    bounded below by -n^2/(2p) >= -K/2.
    """
    if n * n > p * K:
        return None
    c = c_np(n, p)
    slack = 1e-12
    return math.exp(-K / 2.0) - slack <= c <= 1.0 + slack


def check_technical_lemma(N: int) -> bool:
    """1/N <= (C/r) sum_{j=1}^{r} alpha(j, k) for every k in [0, N], r = isqrt(N),
    each k compared against the unfavorable endpoint of C's interval."""
    if N < 1:
        raise ValueError("N must be >= 1")
    r = math.isqrt(N)
    r_over_C = r / _technical_C()
    return all(certified_ge(N * sum_alpha_mantissa(r, k), r_over_C, r + 2 * k)
               for k in range(N + 1))


def check_S_monotone(N: int, k: int) -> bool:
    """S(k) = sum_{n<=isqrt(N)} alpha(n, k) is nonincreasing: S(k+1) <= S(k)."""
    if N < 1 or k < 0:
        raise ValueError("need N >= 1, k >= 0")
    r = math.isqrt(N)
    return _s_monotone_claim(sum_alpha_mantissa(r, k), sum_alpha_mantissa(r, k + 1))


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

SUITES: dict[str, Callable[..., VerifyReport]] = {}
# Each suite's keyword parameters are its rectangle keys, read once at
# registration so that a wrapper installed over a SUITES entry keeps the schema.
RECTANGLE_KEYS: dict[str, tuple[str, ...]] = {}


def _suite(fn: Callable[..., Iterator[tuple]]) -> Callable[..., VerifyReport]:
    """Register `_suite_<name>` in SUITES as a report-returning runner.

    The generator's keyword parameters are the suite's rectangle and their
    defaults its default rectangle; it yields rows (params, key, values,
    verdicts) for VerifyReport.record_row, whose verdicts are built per row,
    never for the whole suite.  The report's name is <name> and its rectangle
    is the bound keywords, defaults applied, so it states exactly what ran.
    """
    name = fn.__name__.removeprefix("_suite_")
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def run(**rectangle) -> VerifyReport:
        bound = signature.bind(**rectangle)
        bound.apply_defaults()
        report = VerifyReport(suite=name, rectangle=dict(bound.arguments))
        for row in fn(**bound.arguments):
            report.record_row(*row)
        return report

    SUITES[name] = run
    RECTANGLE_KEYS[name] = tuple(signature.parameters)
    return run


def _exact(lhs: int, rhs: int, shift: int) -> bool | tuple:
    """Verdict of lhs == rhs on mantissas over 2^shift; a failure shows both values."""
    if lhs == rhs:
        return True
    return False, Fraction(lhs, 1 << shift), Fraction(rhs, 1 << shift)


def _row_pairs(n_max: int, p_max: int) -> Iterator[tuple[int, list[int], list[int]]]:
    """(n, a(n, .), a(n+1, .)) for n = 1..n_max, from consecutive kernel rows."""
    rows = mantissa_rows(n_max + 1, p_max)
    _, prev = next(rows, (0, None))
    for n, row in rows:
        yield n - 1, prev, row
        prev = row


def _column_sum_rows(N_max: int, p_max: int) -> Iterator[tuple[int, list[int]]]:
    """(N, row) with row[p] the mantissa of sum_{n<=N} alpha(n, p) over 2^(N+2p)."""
    total = [0] * (p_max + 1)
    for N, row in mantissa_rows(N_max, p_max):
        total = [2 * t + a for t, a in zip(total, row)]
        yield N, total


@_suite
def _suite_oracle(n_max=30, p_max=30, shift_n_max=40, shift_p_max=100):
    ps = range(p_max + 1)
    pairs = zip(mantissa_rows(n_max, p_max), oracle_mantissa_rows(n_max, p_max))
    for (n, row), (_, want) in pairs:
        yield {"check": "oracle", "n": n}, "p", ps, [
            _exact(row[p], want[p], n + 2 * p) for p in ps]
    ps = range(shift_p_max + 1)
    for n, row in mantissa_rows(shift_n_max, shift_p_max):
        yield {"check": "shift", "n": n}, "p", ps, [
            _exact(beta_mantissa(n, p + n), row[p], n + 2 * p) for p in ps]


@_suite
def _suite_recurrences(n_max=40, beta_p_max=120, alpha_p_max=200):
    # Each coefficient's own closed form, never rows built by the recurrence
    # under test: alpha's by its checked ratio hops along p, beta's by binomials.
    closed = {k: alpha_mantissa_row(k, alpha_p_max + 1) for k in range(1, n_max + 2)}
    beta = {k: [beta_mantissa(k, q) for q in range(beta_p_max + 1)]
            for k in range(1, n_max + 2)}

    beta_ps, alpha_ps = range(beta_p_max + 1), range(alpha_p_max + 1)
    for n in range(2, n_max + 1):
        lower, mid, upper = beta[n - 1], beta[n], beta[n + 1]
        yield {"check": "beta", "N": n}, "p", beta_ps, [
            upper[p] == mid[p] - (lower[p - 1] if p else 0) for p in beta_ps]
        lower, mid, upper = closed[n - 1], closed[n], closed[n + 1]
        yield {"check": "alpha", "n": n}, "p", alpha_ps, [
            upper[p] == mid[p + 1] - lower[p + 1] for p in alpha_ps]


@_suite
def _suite_monotonicity(n_max=40, p_max=600):
    ps = range(p_max + 1)
    for n, row, up in _row_pairs(n_max, p_max + 1):
        yield {"check": "I", "n": n}, "p", ps, [_I_claim(n, p, row[p], row[p + 1]) for p in ps]
        yield {"check": "J", "n": n}, "p", ps, [_J_claim(n, p, row[p], up[p]) for p in ps]


@_suite
def _suite_k_regions(n_max=40, p_max=600):
    ps = range(p_max + 1)
    for n, row, up in _row_pairs(n_max, p_max + 1):
        if n < 2:
            continue
        d = [2 * row[p] - up[p] for p in range(p_max + 2)]
        q = _quartic_q(n)
        A, D = _discriminant(n)
        yield {"check": "quadratic", "n": n}, "p", ps, [
            _K_claim(p, A, q, d[p], d[p + 1]) for p in ps]
        if q >= 0:  # both roots nonnegative, as in roots_exist(n)
            yield {"check": "regions", "n": n}, "p", ps, [
                _regions_claim(p, A, D, d[p], d[p + 1]) for p in ps]


@_suite
def _suite_quotient(n_max=30, p_max=200):
    ps = range(p_max + 1)
    d_prev = None
    for n, row, up in _row_pairs(n_max, p_max):
        if n == 1:  # d(0, .) from psi^0 = 1, whose only mantissa is a(0, 0) = 1
            d_prev = [2 * (p == 0) - row[p] for p in ps]
        d = [2 * row[p] - up[p] for p in ps]
        yield {"n": n}, "p", ps, [_quotient_claim(n, p, d_prev[p], d[p]) for p in ps]
        d_prev = d


@_suite
def _suite_bounds(n_max=60, p_max=400, sean_n_max=100, in_n_max=200):
    ps = range(1, p_max + 1)
    eq8 = [None] + [_eq8_bound(p) for p in ps]
    sean = [None] + [_sean_bound(p) for p in ps]
    stirling = [False] * p_max
    for n, row, up in _row_pairs(max(n_max, sean_n_max), p_max):
        if n == 1:
            a1 = row[: p_max + 1]
            # alpha(1, p) under p^(-3/2) and the sharp bound: the claim at n = 0, d = a1
            chain = [None] + [_uniform_claim(0, p, a1[p], a1[p], eq8[p]) for p in ps]
        if n <= n_max:
            yield {"check": "uniform", "n": n}, "p", ps, [
                _uniform_claim(n, p, 2 * row[p] - up[p], a1[p], eq8[p], chain[p])
                for p in ps]
        if n <= sean_n_max:
            # x_n = C(n+2p, p)/2^(n+2p) = x_(n-1) - a(n, p)/2^(n+2p), so a pass
            # carries down the column while a(n, p) >= 0
            stirling = [passed and row[p] >= 0
                        or _stirling_claim(n, p, binomial(n + 2 * p, p), sean[p])
                        for p, passed in zip(ps, stirling)]
            yield {"check": "stirling", "n": n}, "p", ps, stirling
    # The peak column n -> floor(I(n)) never steps back, so one binomial seeds
    # a walk that reaches every peak cell by exact ratio hops.
    M = _in_bound_M()
    peaks = [(n, (n * n - 3 * n - 4) // 6) for n in range(6, in_n_max + 1)]
    yield {"check": "peak"}, "n", range(6, in_n_max + 1), [
        _peak_claim(n, i, a, M) for (n, i), a in zip(peaks, alpha_mantissa_walk(peaks))]


@_suite
def _suite_alpha0(n_max=60):
    ns = range(1, n_max + 1)
    yield {}, "n", ns, [check_alpha0_difference(n) for n in ns]


@_suite
def _suite_majorant(P=10 ** 4):
    partial = _majorant_partial_sums(P, {1, 10, 100, 1000, P})
    total = partial[-1]
    yield {"check": "envelope"}, "P", [P], [total <= 3.613 or (False, total, 3.613)]
    yield {"check": "cap"}, "P", [P], [total <= 4.0 or (False, total, 4.0)]
    monotone = all(a <= b for a, b in zip([0.0] + partial, partial))
    yield {"check": "monotone"}, "P", [P], [monotone]


@_suite
def _suite_sum_bound(n_max=40):
    yield {}, "n", range(1, n_max + 1), [
        _sum_bound_claim(n, row, up)
        for n, row, up in _row_pairs(n_max, n_max * (n_max + 1) // 2)]


@_suite
def _suite_gamma(n_max=60, K_values=[1, 2, 4]):  # a list prints as "[1, 2, 4]"
    if any(K < 1 for K in K_values):
        raise ValueError(f"K_values needs every K >= 1, got {K_values}")
    for K in K_values:
        for n in range(1, n_max + 1):
            p_min = max(1, -(-(n * n) // K))
            ps = sorted(set(range(p_min, p_min + 40)) | {p_min * 4, p_min * 16})
            yield {"K": K, "n": n}, "p", ps, [check_gamma_K(n, p, K) for p in ps]


@_suite
def _suite_technical(N_max=400):
    C = _technical_C()
    # The N with isqrt(N) = r share the row S(r, .) and the bound r/C, so each
    # column k certifies once the least N that clears it.
    for r, row in _column_sum_rows(math.isqrt(N_max), N_max):
        bound = r / C
        Ns = range(r * r, min((r + 1) ** 2, N_max + 1))
        least = [certified_ge_threshold(s, bound, r + 2 * k)
                 for k, s in enumerate(row[: Ns[-1] + 1])]
        for N in Ns:
            ks = range(N + 1)
            yield {"N": N}, "k", ks, [_technical_claim(N, k, least[k]) for k in ks]


@_suite
def _suite_s_monotone(N_max=100, k_max=120):
    ks = range(k_max + 1)
    sums = dict(_column_sum_rows(math.isqrt(N_max), k_max + 1))
    for N in range(1, N_max + 1):
        row = sums[math.isqrt(N)]
        yield {"N": N}, "k", ks, [_s_monotone_claim(row[k], row[k + 1]) for k in ks]


@_suite
def _suite_sums(N_max=40, p_max=100):
    ps = range(p_max + 1)
    # The closed form (C(2p, p) << N) - C(N+2p, p), with C(N+2p, p) one exact
    # hop x (N+2p)/(N+p) from C(N-1+2p, p).
    central = [binomial(2 * p, p) for p in ps]
    top = central[:]
    for N, direct in _column_sum_rows(N_max, p_max):
        for p in ps:
            top[p], rest = divmod(top[p] * (N + 2 * p), N + p)
            if rest:
                raise AssertionError(f"C({N + 2 * p}, {p}) is not an integer")
        yield {"N": N}, "p", ps, [
            _exact((central[p] << N) - top[p], direct[p], N + 2 * p) for p in ps]


class UnknownSuiteError(ValueError):
    pass


def run_suite(name: str, **rectangle) -> VerifyReport:
    """Run one registered suite; deterministic for a fixed rectangle.

    Each suite's keyword parameters are its rectangle keys and defaults
    (RECTANGLE_KEYS); a key the suite does not read raises ValueError naming
    every such key.  Keys given as None take the default.  A degenerate
    rectangle raises ValueError too: a negative integer value, or no check.
    """
    key = name.replace("-", "_")
    fn = SUITES.get(key)
    if fn is None:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}"
        )
    rect = {k: v for k, v in rectangle.items() if v is not None}
    known = RECTANGLE_KEYS[key]
    unknown = sorted(k for k in rect if k not in known)
    if unknown:
        raise ValueError(
            f"suite {key!r} does not read {', '.join(unknown)}; "
            f"its rectangle keys are {', '.join(known)}"
        )
    negative = sorted(k for k, v in rect.items() if isinstance(v, int) and v < 0)
    if negative:
        raise ValueError(f"suite {key!r} needs {', '.join(negative)} >= 0")
    start = time.perf_counter()
    report = fn(**rect)
    if report.checks == 0:
        raise ValueError(f"suite {key!r} records no checks on {report.rectangle}")
    report.elapsed_s = time.perf_counter() - start
    return report


def run_all_suites() -> list[VerifyReport]:
    """Every registered suite with its default rectangle, in sorted name order."""
    return [run_suite(name) for name in sorted(SUITES)]
