"""Finite-dimensional evaluation of A(T) = sum_p alpha(1,p) T^p and its powers.

Since x psi^2 - 2 psi + 1 = 0, A = psi(T) is the minimal solution of
X = I/2 + (T/2) X^2, the G-matrix equation of a quasi-birth-death process,
and the general path solves it by logarithmic reduction (Latouche and
Ramaswami, J. Appl. Probab. 30, 1993; Bini, Latouche and Meini, Numerical
Methods for Structured Markov Chains, 2005).  From H = T/2, L = I/2, G = L and
Pi = H, each step sets U = HL + LH and W = (I - U)^-1, then H <- W H^2,
L <- W L^2, G <- G + Pi L and Pi <- Pi H; A^n is formed as G^n.  After K
steps the power series of G in T has coefficients in [0, alpha(1,p)]; they
equal alpha(1,p) for p <= 2^(K+1) - 2, the agreement degree P that is
reported, and they sum to 1 - 2^-(K+1), while Pi_j's sum to 2^-(j+1).  So with
M = sup_p ||T^p||, ||A^n - G^n|| <= n M 2^-(K+1).  K = k + 1 for the smallest k
with max(n) M 2^-(k+1) <= eps, and the reported tail is n M 2^-(k+1), rounded
up: twice the truncation, the other half being headroom for float rounding,
which is not bounded.  M is the largest ||T^p|| over a probe window
(`powers._walk`), so the power-boundedness of T is probed, not proved; a
guard stops the reduction when an iterate is non-finite or
||Pi_j|| > 2 M 2^-(j+1).  At most LR_STEP_CAP steps are taken.  The bound
holds for a nilpotent T too, so a T with a zero float power takes the same
steps, and its tail is positive: M = 0 only at T = 0, a closed form.

Scalar matrices a*I and 2x2 Jordan blocks [[a, b], [0, a]] with |a| <= 1
take no reduction: A^n has psi(a)^n = (1 + s)^(-n), s = sqrt(1-a), on the
diagonal and b (psi^n)'(a) = (b n / 2) / ((1 + s)^(n+1) s) above it.
`_closed_form` builds each from `arith.Enclosure` operations at K bits (s
from a cached square root, the powers of 1 + s from cached squarings) and
reads out the nearest float with the least float at or above its distance,
so the reported tail, those combined in `norm` and rounded up, is a proof
(0 when the values are exact; 5e-324 or more when an entry underflows to
0).  The derivative diverges at a = 1, and an entry past the float range
has an infinite bound; both are signalled.

The module also carries the theorem-scale checks (power-bounded and
mean-bounded difference bounds, Cesaro square-root domination), each walking
T^p at most once; on closed-form inputs the mean check walks no power, as
`_mean_bound` sums the means exactly and rounds M up.  The worked 2x2
example's alternating series S(n) is the Jordan closed form at a = -1 again.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .arith import BITS, Enclosure, float_up, sqrt_up
from .analysis import BoundConstants, technical_C_down
from .powers import (PROBE_CUTOFF, MeanBoundProbeError, SpectralExplosionError, _Walk,
                     _check_positive, _power_blocks, _prefix_sums, _probed, _walk)
from .report import VerifyReport

LR_STEP_CAP = 21  # most logarithmic-reduction steps the general path takes
CLOSED_FORM_BITS = 128  # first bits of the closed forms' enclosures, past those of 1 - a
SINKHORN_ITERS = 200  # balancing rounds of random_stochastic(doubly=True)


class Norm(enum.Enum):
    OPINF = "opinf"
    FROBENIUS = "fro"
    MAX = "max"

    def compute(self, arr: np.ndarray) -> float | np.ndarray:
        """The norm of a d x d array as a float, or of each matrix of a
        stack (..., d, d) as an array; a stacked norm has the bits of the
        matrix's own."""
        if self is Norm.OPINF:
            value = np.abs(arr).sum(axis=-1).max(axis=-1)
        elif self is Norm.FROBENIUS:
            # squares at a power-of-two scale: entries near 1e-200 do not
            # underflow, and the exact scaling keeps every other norm's bits
            _, e = np.frexp(np.abs(arr).max(axis=(-2, -1), keepdims=True))
            scaled = np.ldexp(arr, -e)
            value = np.ldexp(np.sqrt((scaled * scaled).sum(axis=(-2, -1))), e[..., 0, 0])
        else:
            value = np.abs(arr).max(axis=(-2, -1))
        return float(value) if arr.ndim == 2 else value


class NonConvergenceError(RuntimeError):
    """The requested tolerance cannot be certified within the step cap."""


@dataclass
class DenseMatrix:
    """Square matrix of finite 64-bit floats."""

    dim: int
    array: np.ndarray

    def __post_init__(self):
        _check_positive(dim=self.dim)
        self.array = np.asarray(self.array, dtype=np.float64)
        if self.array.shape != (self.dim, self.dim):
            raise ValueError(f"expected shape ({self.dim}, {self.dim})")
        if not np.isfinite(self.array).all():
            raise ValueError("matrix entries must be finite")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "DenseMatrix":
        arr = np.asarray(rows, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("rows must form a square matrix")
        return cls(dim=arr.shape[0], array=arr)

    @classmethod
    def identity(cls, dim: int) -> "DenseMatrix":
        return cls(dim=dim, array=np.eye(dim))

    def to_dict(self) -> dict:
        return {"dim": self.dim, "rows": self.array.tolist()}


def matrix_from_dict(data: dict) -> DenseMatrix:
    if not isinstance(data, dict) or "dim" not in data or "rows" not in data:
        raise ValueError('matrix JSON must be {"dim": d, "rows": [[...], ...]}')
    dim = data["dim"]
    rows = data["rows"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError("dim must be a positive integer")
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError("rows must be a list of lists")
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ValueError("rows must be dim x dim")
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool)
               for r in rows for x in r):
        raise ValueError("matrix entries must be numbers")
    try:
        array = np.asarray(rows, dtype=np.float64)
    except OverflowError:  # an int past the float range
        raise ValueError("matrix entries must be finite") from None
    return DenseMatrix(dim=dim, array=array)


def load_matrix(path) -> DenseMatrix:
    with open(path) as fh:
        return matrix_from_dict(json.load(fh))


APPENDIX_T = DenseMatrix.from_rows([[-1.0, 2.0], [0.0, -1.0]])


def matrix_power(T: DenseMatrix, k: int) -> DenseMatrix:
    """T^k by iterated multiplication; overflow to non-finite entries errs."""
    _check_positive(0, k=k)
    for block in _power_blocks(T.array, k + 1):
        if not np.isfinite(block).all():
            raise ValueError("matrix power overflowed to non-finite entries")
    return DenseMatrix(dim=T.dim, array=block[-1].copy())


def cesaro(T: DenseMatrix, N: int) -> DenseMatrix:
    """(I + T + ... + T^(N-1)) / N."""
    _check_positive(N=N)
    total = np.zeros((T.dim, T.dim))
    for block in _power_blocks(T.array, N):
        total = _prefix_sums(total, block)[-1]
        if not np.isfinite(total).all():
            raise ValueError("matrix power overflowed to non-finite entries")
    return DenseMatrix(dim=T.dim, array=total / N)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _root(m: int, e: int, K: int) -> Enclosure:
    """s = sqrt(m / 2^e) at K bits."""
    return Enclosure.between(m, 1, m, 1, -e, K).sqrt()


@functools.lru_cache(maxsize=256)
def _square(m: int, e: int, K: int, i: int) -> Enclosure:
    """(1+s)^(2^i), s = sqrt(m / 2^e), by i squarings of 1 + s at K bits;
    cached, so the entries and the powers n of one matrix, and the S(n) of
    one run, share them."""
    if not i:
        return 1 + _root(m, e, K)
    f = _square(m, e, K, i - 1)
    return f * f


def _enclosure(c: Fraction, m: int, e: int, k: int, j: int, K: int) -> Enclosure:
    """c / ((1+s)^k s^j), s = sqrt(m / 2^e), at K bits: the divisor is the
    product of the `_square`s of k's binary digits, times s when j = 1.  Its
    exponent E is an int: |E| is near 1.3e9 for (1+sqrt(2))^(10^9)."""
    factors = [_square(m, e, K, i) for i in range(k.bit_length()) if k >> i & 1]
    return c / functools.reduce(Enclosure.__mul__, factors + [_root(m, e, K)] * j)


def _closed_form(c: Fraction, a: float, k: int, j: int) -> tuple[float, float]:
    """c / ((1+s)^k s^j), s = sqrt(1-a), correctly rounded, and the least
    float at or above its distance to the exact value (0 when it is a float),
    for c > 0, a <= 1, k >= 1, j in {0, 1} and a < 1 when j = 1: `_enclosure`
    read out by `Enclosure.nearest`, K doubling until it decides, as it does
    once an irrational value leaves every float or a float value is exact;
    at a small K the divisor's enclosure can reach 0, which decides nothing.
    K starts at CLOSED_FORM_BITS + e, 1 - a = m / 2^e: for a small |a| of e
    fraction bits, the value c 2^-k (1 + O(k a)) lies within about 2^(52-e)
    of c 2^-k, a distance the tail has to resolve."""
    if j and a == 1.0:  # no K would decide
        raise ZeroDivisionError("s = sqrt(1 - a) is 0 at a = 1")
    an, den = a.as_integer_ratio()
    e = den.bit_length() - 1
    K = CLOSED_FORM_BITS + e
    while True:
        try:
            if found := _enclosure(c, den - an, e, k, j, K).nearest():
                return found
        except ZeroDivisionError:
            pass
        K *= 2


def _as_jordan(T: DenseMatrix) -> Optional[tuple[float, float]]:
    """(a, b) if T is a*I (b = 0) or the 2x2 Jordan block [[a, b], [0, a]]
    with |a| <= 1: the inputs evaluated in closed form."""
    arr = T.array
    a = float(arr[0, 0])
    b = float(arr[0, 1]) if T.dim == 2 else 0.0
    off = b * np.eye(T.dim, k=1)
    if abs(a) <= 1.0 and np.array_equal(arr - off, a * np.eye(T.dim)):
        return a, b
    return None


def evaluate_powers(
    T: DenseMatrix,
    n_list: Sequence[int],
    eps: float,
    norm: Norm = Norm.OPINF,
    probe_len: int = 2000,
) -> tuple[dict[int, tuple[np.ndarray, float]], int]:
    """A^n(T) for every n in n_list, from one probe and one reduction.

    Returns ({n: (matrix, tail_bound)}, P).  tail_bound is measured in `norm`.
    P is the agreement degree: on the general path the series of every G^n
    agrees with that of A^n through T^P, P = 2^(K+1) - 2 after K reduction
    steps; it is 0 on scalar and Jordan inputs, whose closed forms read no
    term.
    """
    return _evaluate(T, n_list, eps, norm, probe_len)


def _check_request(n_list: Sequence[int], eps: float, probe_len: int) -> None:
    if not n_list:
        raise ValueError("n_list is empty")
    for n in n_list:
        _check_positive(n=n)
    _check_positive(probe_len=probe_len)
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps:g}")


def _reduce(T: DenseMatrix, steps: int, M: float, norm: Norm) -> np.ndarray:
    """G after `steps` steps of logarithmic reduction on X = I/2 + (T/2) X^2.

    Pi_j, the product of the H's, has a power series in T with nonnegative
    coefficients summing to 2^-(j+1), so ||Pi_j|| <= M 2^-(j+1) for every T
    with sup_p ||T^p|| <= M; a singular I - U, a non-finite G or
    ||Pi_j|| > 2 M 2^-(j+1) (which a non-finite Pi fails too) shows powers
    past the probe above M.  An overflow of H reaches Pi, and one of L
    reaches G, in the same step.
    """
    eye = np.eye(T.dim)
    H, L = T.array / 2, eye / 2
    G, Pi = L, H
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, steps + 1):
            try:
                W = np.linalg.inv(eye - (H @ L + L @ H))
            except np.linalg.LinAlgError:
                raise SpectralExplosionError(
                    f"I - U is singular at reduction step {j}: "
                    "powers grow past the probe") from None
            H, L = W @ (H @ H), W @ (L @ L)
            G = G + Pi @ L
            Pi = Pi @ H
            if not np.isfinite(G).all():
                raise SpectralExplosionError(
                    f"reduction step {j} overflowed: powers grow past the probe")
            size, bound = norm.compute(Pi), M * 2.0 ** -j
            if not size <= bound:
                raise SpectralExplosionError(
                    f"||Pi_{j}|| = {size:g} exceeds 2 M 2^-{j + 1} = {bound:g}: "
                    "powers grow past the probe")
    return G


def _evaluate(
    T: DenseMatrix, n_list: Sequence[int], eps: float, norm: Norm,
    probe_len: int, walk: Optional[_Walk] = None,
) -> tuple[dict[int, tuple[np.ndarray, float]], int]:
    """`evaluate_powers`; the general path reads M from `walk` when given."""
    _check_request(n_list, eps, probe_len)
    d = T.dim

    jordan = _as_jordan(T)
    if jordan is not None:
        a, b = jordan
        if a == 1.0 and b:
            raise NonConvergenceError("(psi^n)'(a) diverges at a = 1")
        out = {}
        for n in n_list:
            diag, e1 = _closed_form(Fraction(1), a, n, 0)
            mat = diag * np.eye(d)
            off, e2 = 0.0, 0.0
            if b:
                off, e2 = _closed_form(Fraction(abs(b)) * n / 2, a, n + 1, 1)
                mat[0, 1] = math.copysign(off, b)
            if norm is Norm.MAX or math.inf in (e1, e2):
                tail = max(e1, e2)
            else:
                (p1, q1), (p2, q2) = e1.as_integer_ratio(), e2.as_integer_ratio()
                tail = (sqrt_up(d * (p1 * q2) ** 2 + (p2 * q1) ** 2, (q1 * q2) ** 2)
                        if norm is Norm.FROBENIUS else float_up(p1 * q2 + p2 * q1, q1 * q2))
            if tail > eps:
                raise NonConvergenceError(
                    f"rounding bound {tail:g} of the closed form exceeds {eps:g}"
                )
            out[n] = (mat, tail)
        return out, 0

    M = (walk or _walk(T, probe_len, norm)).M
    num, den = M.as_integer_ratio()

    def tail(n: int, k: int) -> float:
        return float_up(n * num, den << (k + 1))

    top = max(n_list)
    k = next((k for k in range(LR_STEP_CAP) if tail(top, k) <= eps), None)
    if k is None:
        raise NonConvergenceError(
            f"tail <= {eps:g} needs more than {LR_STEP_CAP} reduction steps")
    steps = k + 1
    G = _reduce(T, steps, M, norm)
    powers = {n: (np.linalg.matrix_power(G, n), tail(n, k)) for n in n_list}
    return powers, 2 ** (steps + 1) - 2


@dataclass
class BrunelResult:
    """A^n_power(T), its tail bound in `norm_used`, and `truncation_P`, the
    agreement degree: on the general path the series of the result agrees
    with that of A^n through T^truncation_P (0 on the closed forms, which
    read no term)."""

    matrix: DenseMatrix
    truncation_P: int
    tail_bound: float
    norm_used: Norm


def brunel(
    T: DenseMatrix, n_power: int = 1, eps: float = 1e-5,
    norm: Norm = Norm.OPINF, probe_len: int = 2000,
) -> BrunelResult:
    """A^n_power(T) with tail_bound <= eps (in `norm`), or a signalled failure."""
    powers, P = evaluate_powers(T, [n_power], eps, norm, probe_len)
    mat, tail = powers[n_power]
    return BrunelResult(
        matrix=DenseMatrix(dim=T.dim, array=mat),
        truncation_P=P,
        tail_bound=tail,
        norm_used=norm,
    )


# ---------------------------------------------------------------------------
# theorem checks
# ---------------------------------------------------------------------------

MEAN_NORM_FACTOR = 4 * math.sqrt(6 / math.pi) + 2


def _mean_bound(a: float, b: float, d: int, norm: Norm, probe_len: int) -> float:
    """M = max(1, R) for a closed-form input T = a I + b E, |a| <= 1 (E the
    2x2 superdiagonal unit; b = 0 unless d = 2): R is the least float at or
    above an upper end of every ||C_N||, N <= probe_len, where
    C_N = (T^0 + ... + T^(N-1)) / N, from exact sums; no power is drawn.

    T^p = a^p I + p a^(p-1) b E, so N C_N = u_N I + b v_N E with
    u_N = sum_(p<N) a^p and v_N = sum_(p<N) p a^(p-1), and ||C_N|| is
    (|u| + |b||v|)/N in OPINF, sqrt(d u^2 + b^2 v^2)/N in FRO (R then the
    least float whose square is at or above the end) and max(|u|, |b||v|)/N
    in MAX.  b enters as its exact ratio.

    At a in {-1, 0, 1} the sums are small integers, and only N in
    {1, 2, probe_len} are read.  At a = 1, u_N = N and v_N = N(N-1)/2, so the
    means never decrease in N.  At a = 0, u_N = 1 and v_N = 1 past N = 1, so
    they decrease past N = 2.  At a = -1, u_N = N mod 2 and
    |v_N| = floor(N/2): an even-N mean is +-(b/2) E, of the norm of C_2, and
    an odd N = 2k+1 > 1 has N C_N = C_1 +- 2k C_2, so
    ||C_N|| <= (||C_1|| + 2k ||C_2||)/(2k+1) <= max(||C_1||, ||C_2||).  So at
    a = -1 (and 0), M bounds the mean of every N >= 1, not only of the
    window: the parity argument that proves M = 1 for the worked example in
    OPINF and MAX (sqrt(2) in FRO).

    Otherwise a^p is carried over 2^F, F = CLOSED_FORM_BITS, as
    w_p = floor(w_(p-1) a), which lies within e_p of a^p 2^F, e_p counting
    the inexact floors so far (|a| < 1 shrinks the earlier errors).  u and v
    sum the w's and u_err and v_err the matching e's, so |u| + u_err and
    |v| + v_err are upper ends of 2^F |u_N| and 2^F |v_N|.  Every ||N C_N||
    is at most B = d (1/(1-|a|) + |b|/(1-|a|)^2) in all three norms, so the
    sums stop once B/N is at most the largest mean so far (or 1), checked
    every 16 sums: no later N can raise M, which then bounds the mean of
    every N >= 1.

    A mean past PROBE_CUTOFF raises MeanBoundProbeError naming the first
    such N, as the float walk does; at a = 1 bisection finds it.
    """
    _check_positive(probe_len=probe_len)
    (bn, bd), (cn, cd) = abs(b).as_integer_ratio(), PROBE_CUTOFF.as_integer_ratio()
    an, den = a.as_integer_ratio()
    S = bd << (0 if den == 1 else CLOSED_FORM_BITS)  # sums are over S = bd 2^F
    k = 2 if norm is Norm.FROBENIUS else 1
    if norm is Norm.OPINF:
        def key(U: int, V: int) -> int:  # (S N ||C_N||)^k for U >= 2^F |u|, V >= 2^F |v|
            return U * bd + bn * V
    elif norm is Norm.MAX:
        def key(U: int, V: int) -> int:
            return max(U * bd, bn * V)
    else:
        def key(U: int, V: int) -> int:
            return d * (U * bd) ** 2 + (bn * V) ** 2

    def up(x: int, N: int) -> float:
        return float_up(x, (N * S) ** k) if k == 1 else sqrt_up(x, (N * S) ** k)

    def passes(x: int, N: int) -> bool:  # the mean of key x at N is past the cutoff
        return x * cd ** k > (cn * N * S) ** k

    def fail(x: int, N: int) -> None:
        _probed(up(x, N), f"M_{N}", MeanBoundProbeError)

    best, best_N = S ** k, 1  # the mean 1
    if den == 1:
        def at(N: int) -> int:
            if a:
                return key(N, N * (N - 1) // 2) if a > 0 else key(N % 2, N // 2)
            return key(1, min(N - 1, 1))

        last = 0
        for N in sorted({1, min(2, probe_len), probe_len}):
            x = at(N)
            if passes(x, N):  # N <= 2 unless a = 1, whose means never decrease
                while N - last > 1:
                    mid = (last + N) // 2
                    last, N = (last, mid) if passes(at(mid), mid) else (mid, N)
                fail(at(N), N)
            if x * best_N ** k > best * N ** k:
                best, best_N = x, N
            last = N
        return up(best, best_N)

    e, m = den.bit_length() - 1, den - abs(an)  # a = an / 2^e, 1 - |a| = m / 2^e
    Bn, Bd = d * den * (m * bd + bn * den), m * m * bd  # B = Bn / Bd
    w, w_prev, low = S // bd, 0, den - 1  # a^p and a^(p-1) over 2^F, p = N - 1
    w_err = w_prev_err = u = v = u_err = v_err = 0
    for N in range(1, probe_len + 1):
        p = N - 1
        u += w
        u_err += w_err
        v += p * w_prev
        v_err += p * w_prev_err
        x = key(abs(u) + u_err, abs(v) + v_err)
        if x * best_N ** k > best * N ** k:
            if passes(x, N):
                fail(x, N)
            best, best_N = x, N
        elif not N % 16 and (Bn * best_N * S) ** k <= best * (Bd * N) ** k:
            break  # B/N is at most the largest mean so far
        w_prev, w_prev_err, w = w, w_err, w * an
        w_err += w & low != 0  # floor(w a) is within 1 of w a, and exact when w a is
        w >>= e
    return up(best, best_N)


def _difference_theorem(
    T: DenseMatrix, suite: str, means: bool, norm_factor: float, diff_factor: float,
    n_max: int, eps: float, norm: Norm, probe_len: int,
) -> VerifyReport:
    """||A^n|| <= norm_factor M and n ||A^n - A^(n+1)|| <= diff_factor M, n <= n_max.

    M is the larger of 1 and the sup of the Cesaro means (with `means`) or of
    the power norms, taken in the one walk the general path then reads; a
    mean check on a closed-form input takes M from `_mean_bound`'s exact
    sums and walks no power.
    Truncation slack is carried explicitly: each comparison allows the
    certified tail bounds plus 1e-9, so a pass is sound for the truncated
    quantities standing in for the true ones.
    """
    _check_positive(n_max=n_max)
    n_list = list(range(1, n_max + 2))
    _check_request(n_list, eps, probe_len)
    start = time.perf_counter()
    jordan = _as_jordan(T) if means else None
    if jordan is not None:  # the closed forms read no power norms
        M, walk = _mean_bound(*jordan, T.dim, norm, probe_len), None
    else:
        walk = _walk(T, probe_len, norm, means)
        M = max(1.0, walk.M_mean if means else walk.M)
    norm_bound, diff_bound = norm_factor * M, diff_factor * M
    powers, P = _evaluate(T, n_list, eps, norm, probe_len, walk)
    report = VerifyReport(
        suite=suite,
        rectangle={"n_max": n_max, "eps": eps, "norm": norm.value,
                   "M": M, "P": P},
    )
    for n in range(1, n_max + 1):
        A_n, tail_n = powers[n]
        A_next, tail_next = powers[n + 1]
        lhs = norm.compute(A_n)
        report.record({"check": "norm", "n": n},
                      lhs <= norm_bound + tail_n + 1e-9, lhs, norm_bound)
        lhs = n * norm.compute(A_n - A_next)
        slack = n * (tail_n + tail_next) + 1e-9
        report.record({"check": "difference", "n": n},
                      lhs <= diff_bound + slack, lhs, diff_bound)
    report.elapsed_s = time.perf_counter() - start
    return report


def check_power_bound_theorem(
    T: DenseMatrix, n_max: int = 40, eps: float = 0.1,
    norm: Norm = Norm.OPINF, probe_len: int = 2000,
) -> VerifyReport:
    """n ||A^n - A^(n+1)|| <= 33M/2 and ||A^n|| <= 33M/2, M the probed power sup."""
    C = float(BoundConstants.C_sum)
    return _difference_theorem(T, "power_bound", False, C, C, n_max, eps, norm, probe_len)


def check_mean_bound_theorem(
    T: DenseMatrix, n_max: int = 30, eps: float = 0.1,
    norm: Norm = Norm.OPINF, probe_len: int = 2000,
) -> VerifyReport:
    """Mean-bounded variant: ||A^n|| <= M(4 sqrt(6/pi) + 2), n||A^(n+1)-A^n|| <= 99M/2.

    M is at least the sup of the Cesaro means over N <= probe_len: probed
    by the float walk on the general path, and certified from exact sums on
    the closed-form inputs (`_mean_bound`), where at a = -1 it bounds the
    mean of every N >= 1.
    """
    return _difference_theorem(T, "mean_bound", True, MEAN_NORM_FACTOR,
                               float(BoundConstants.C_meanbound), n_max, eps, norm,
                               probe_len)


def check_cesaro_domination(
    T: DenseMatrix, N_max: int = 200, eps: float = 0.05,
    slack: float = 1e-9, probe_len: int = 2000,
) -> VerifyReport:
    """(1/N) sum_{n<=N} T^n f <= (C/isqrt(N)) sum_{l<=isqrt(N)} A^l f entrywise.

    f runs over the standard basis (equivalently: the matrix inequality holds
    entrywise).  The A^l series are truncated, which only lowers the right
    side, and C is rounded down, so a pass certifies the displayed inequality.
    No mean probe is taken: on the general path the power probe behind the
    A^l series rejects every T whose Cesaro means pass PROBE_CUTOFF within
    its window, since ||(I + ... + T^(N-1))/N|| <= max_(j<N) ||T^j||, and the
    scalar and Jordan inputs that reach the closed forms are power-bounded.
    """
    _check_positive(N_max=N_max)
    start = time.perf_counter()
    if (T.array < 0).any():
        raise ValueError("domination check requires entrywise nonnegative T")
    C = technical_C_down()
    r_max = math.isqrt(N_max)
    powers, P = evaluate_powers(T, list(range(1, r_max + 1)), eps,
                                probe_len=probe_len)
    report = VerifyReport(
        suite="cesaro_domination",
        rectangle={"N_max": N_max, "eps": eps, "slack": slack, "P": P},
    )
    rhs = np.zeros((r_max + 1, T.dim, T.dim))  # rhs[r] = sum_{l<=r} A^l
    for r in range(1, r_max + 1):
        rhs[r] = rhs[r - 1] + powers[r][0]
    lhs_sum, offset = np.zeros((T.dim, T.dim)), 0  # block[0] is T^offset
    for block in _power_blocks(T.array, N_max + 1):
        first = int(offset == 0)  # T^0 is not summed
        sums = _prefix_sums(lhs_sum, block[first:])
        lhs_sum, Ns = sums[-1], range(offset + first, offset + len(block))
        r = [math.isqrt(N) for N in Ns]
        lhs = sums / np.array(Ns, dtype=float)[:, None, None]
        rhs_r = np.array([C / x for x in r])[:, None, None] * rhs[r]
        gaps = (lhs - rhs_r).max(axis=(1, 2)).tolist()
        report.record_row({}, "N", Ns, [True if gap <= slack else (False, gap, slack)
                                        for gap in gaps])
        offset += len(block)
    report.elapsed_s = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# the worked 2x2 example
# ---------------------------------------------------------------------------

def S_value(n: int) -> float:
    """S(n) = sum_(p>=1) (-1/4)^p C(n+2p-1, p-1), the float nearest its value
    -2^(n-1) (sqrt(2)-1)^(n+1) / sqrt(2) = -2^(n-1) / ((1+sqrt(2))^(n+1) sqrt(2)).

    The value, for every n >= 1.  With C(n+2p-1, p-1) = p a(n,p) / n and
    alpha(n,p) = a(n,p) / 2^(n+2p), the terms are t_p = (2^n/n) p alpha(n,p)
    (-1)^p, so S(n) = -(2^n/n) sum_p p alpha(n,p) (-1)^(p-1), the series of
    (psi^n)' at x = -1.  That series converges: its terms alternate; by
    |t_(p+1)/t_p| = (n+2p+1)(n+2p) / (4p(n+p+1)), which is <= 1 exactly when
    p >= J(n) = (n^2+n)/2, they decrease from p = J(n) on; and they tend to 0,
    since C(m, k) <= 2^m sqrt(2/(pi m)) (Stirling with Robbins' bounds, Amer.
    Math. Monthly 62, 1955) gives |t_p| <= 2^(n-1) sqrt(2/(pi (n+2p-1))).
    By Abel's theorem its sum is the limit of (psi^n)'(x) as x -> -1 from
    above, and (psi^n)' = n psi^(n+1) / (2 sqrt(1-x)) is continuous on [-1, 1),
    so S(n) = -(2^n/n) (psi^n)'(-1) with psi(-1) = 1/(1+sqrt(2)) = sqrt(2)-1.

    The rounding is `_closed_form`'s at c = 2^(n-1), a = -1, k = n+1, j = 1,
    the Jordan closed form of `brunel`.
    """
    _check_positive(n=n)
    return -_closed_form(Fraction(1 << (n - 1)), -1.0, n + 1, 1)[0]


def S_remainder_at_J(n: int) -> float:
    """Alternating-series remainder bound for truncation at p = J(n): the term
    |t_(J+1)| = C(m, k) / 4^p at p = J(n) + 1, m = n+2p-1, k = p-1, correctly
    rounded, or inf past the float range.

    C(m, k) < 2^m bounds the term by 2^(n-1), so only n > 1024 can leave the
    range, and there the binomial has about n^2 bits (n = 1030 took 12 s).
    So the overflow is decided first, from a lower bound on log2 of the term.
    With j = m - k = n + p, Robbins' bounds (see `S_value`) give
    ln C(m, k) > k ln(m/k) + j ln(m/j) + ln(m/(2 pi k j))/2 + 1/(12m+1)
    - 1/(12k) - 1/(12j); m/k = 2(1+x) and m/j = 2(1-y) with x = (n+1)/(2k),
    y = (n+1)/(2j), and ln(1+x) >= x - x^2/2, ln(1-y) >= -y - y^2/(2(1-y)),
    so ln(term) > (n-1) ln 2 - k x^2/2 - j y^2/(2(1-y)) + ln(m/(2 pi k j))/2
    + 1/(12m+1) - 1/(12k) - 1/(12j).  The negative terms are divided by
    0.693 < ln 2, and log2(m/(k j)) is bounded by bit lengths and log2(2 pi)
    by 2.66, all in exact rationals; a bound of 1024 or more means the term
    is at least 2^1024.  Below that, `_binomial_over` encloses the term
    without forming C(m, k), and K doubles until it reads out.
    """
    _check_positive(n=n)
    p = (n * n + n) // 2 + 1
    m, k, j = n + 2 * p - 1, p - 1, n + p
    if n > 1024:
        x, y = Fraction(n + 1, 2 * k), Fraction(n + 1, 2 * j)
        loss = (k * x * x / 2 + j * y * y / (2 * (1 - y)) + Fraction(1, 12 * k)
                + Fraction(1, 12 * j) - Fraction(1, 12 * m + 1))
        log2_low = (n - 1 + Fraction(m.bit_length() - 1 - k.bit_length() - j.bit_length()
                                     - Fraction(266, 100), 2) - loss / Fraction(693, 1000))
        if log2_low >= 1024:
            return math.inf
    K = BITS
    while not (found := _binomial_over(m, k, 2 * p, K).nearest()):
        K *= 2
    return found[0]


def _binomial_over(m: int, k: int, e: int, K: int) -> Enclosure:
    """C(m, k) / 2^e = (m/k) ((m-1)/(k-1)) ... ((m-k+1)/1) / 2^e at K bits:
    each step multiplies both ends by the exact ratio of 64 factors
    (`math.perm`) and cuts them outward to K bits."""
    bound = Enclosure.between(1, 1, 1, 1, -e, K)
    for i in range(0, k, 64):
        f, g = math.perm(m - i, min(64, k - i)), math.perm(k - i, min(64, k - i))
        bound = Enclosure.between(bound.lo * f, g, bound.hi * f, g, -bound.E, K)
    return bound


@dataclass
class AppendixExample:
    """A^n for T = [[-1, 2], [0, -1]] by one formula, evaluated two ways.

    The off-diagonal entry 2 (psi^n)'(-1) is -2^(1-n) n S(n), so both sides
    are the closed form of `S_value`'s docstring.  `closed_form` takes S(n),
    correctly rounded, times the float -2^(1-n) n, and a float diagonal
    (sqrt(2)-1)^n; `series_matrix` is `brunel`, which on this Jordan block
    rounds psi(-1)^n and (psi^n)'(-1) each once, through the same
    `_closed_form` as S(n).
    `remainder_at_J` is the term |t_(J+1)| of S(n)'s series, J = (n^2+n)/2.
    The field names predate these evaluations and are kept so that reports
    keep their keys.
    """

    n: int
    S_n: float
    closed_form: DenseMatrix
    series_matrix: DenseMatrix
    remainder_at_J: float

    @property
    def max_abs_difference(self) -> float:
        return float(np.abs(self.closed_form.array - self.series_matrix.array).max())


def appendix_example(n: int, eps: float = 1e-10) -> AppendixExample:
    """A^n(T) twice: from S(n) (diag (sqrt(2)-1)^n, off-diag -2^(1-n) n S(n))
    in float arithmetic, and from `brunel`'s correctly rounded entries."""
    S_n = S_value(n)
    diag = (math.sqrt(2.0) - 1.0) ** n
    off = -(2.0 ** (1 - n)) * n * S_n
    closed = DenseMatrix.from_rows([[diag, off], [0.0, diag]])
    series = brunel(APPENDIX_T, n, eps=eps).matrix
    return AppendixExample(
        n=n,
        S_n=S_n,
        closed_form=closed,
        series_matrix=series,
        remainder_at_J=S_remainder_at_J(n),
    )


# ---------------------------------------------------------------------------
# test-matrix helpers
# ---------------------------------------------------------------------------

def random_stochastic(dim: int, seed: int, doubly: bool = False) -> DenseMatrix:
    """Seeded random row-stochastic (or Sinkhorn doubly stochastic) matrix."""
    _check_positive(dim=dim)
    rng = np.random.default_rng(seed)
    arr = rng.random((dim, dim)) + 0.1
    if doubly:
        for _ in range(SINKHORN_ITERS):
            arr /= arr.sum(axis=1, keepdims=True)
            arr /= arr.sum(axis=0, keepdims=True)
        # one extra row pass so rows sum to 1 within float rounding
        arr /= arr.sum(axis=1, keepdims=True)
    else:
        arr /= arr.sum(axis=1, keepdims=True)
    return DenseMatrix(dim=dim, array=arr)


def rotation_matrix(angle: float = 1.0) -> DenseMatrix:
    c, s = math.cos(angle), math.sin(angle)
    return DenseMatrix.from_rows([[c, -s], [s, c]])
