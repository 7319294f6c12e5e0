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
which is not bounded.  M is the largest ||T^p|| over a probe window, so the
power-boundedness of T is a hypothesis probed empirically, not proved; a
guard stops the reduction when an iterate is non-finite or
||Pi_j|| > 2 M 2^-(j+1), which the probed M forbids.  At most LR_STEP_CAP
steps are taken.  A nilpotent T (a probed power of norm 0) is evaluated with
enough steps to reach its last nonzero power exactly, with tail 0.

Scalar matrices a*I and 2x2 Jordan blocks [[a, b], [0, a]] with |a| <= 1
(a scalar matrix is the case b = 0) take no reduction at all: A^n has
psi(a)^n = (1 + sqrt(1-a))^(-n) on the diagonal and b (psi^n)'(a) =
b n psi(a)^(n+1) / (2 sqrt(1-a)) above it.  Both closed forms are enclosed
in 128-bit `arith.iv` intervals; each entry is the float nearest its
interval's midpoint, and the reported tail is the float rounding bound,
rounded up, so it is a proof (0 when the values are exact, as for a in
{0, 1}).  The derivative diverges at a = 1, which is signalled.

Every loop over T^0, T^1, ... draws from the block source
`powers._power_blocks`, and each evaluation walks it once, in the probe
`powers._walk`, which stops at an exact repeat of the float chain; M is that
of a walk over every power, bit for bit.

The module also carries the theorem-scale checks (power-bounded and
mean-bounded difference bounds, Cesaro square-root domination) and the worked
2x2 example with its alternating series S(n), which is the Jordan closed form
at a = -1 again: `S_value` evaluates it exactly in Z[sqrt(2)] and rounds once,
and `brunel` evaluates it in 128-bit intervals.  Each difference check walks
T^p once: the mean-bounded check reads the sup of the Cesaro means
||(T^0 + ... + T^(N-1))/N|| from the same walk that gives the general path
its norms, and on closed-form inputs its walk takes the means only.
"""

from __future__ import annotations

import enum
import json
import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath
import numpy as np

from .arith import binomial, iv, iv_float_up
from .analysis import BoundConstants, technical_C_down
from .powers import (PROBE_CUTOFF, MeanBoundProbeError, SpectralExplosionError, _Walk,
                     _check_positive, _power_blocks, _prefix_sums, _probed, _walk)
from .report import VerifyReport

LR_STEP_CAP = 21  # most logarithmic-reduction steps the general path takes
S_GUARD_BITS = 64  # first fraction bits of the enclosure of |u| sqrt(2) in S_value
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
            value = np.sqrt((arr * arr).sum(axis=(-2, -1)))
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
    return DenseMatrix(dim=dim, array=np.asarray(rows, dtype=np.float64))


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
    return DenseMatrix(dim=T.dim, array=total / N)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _enclose(x: "iv.mpf") -> tuple[float, float]:
    """The float nearest the middle of x and its distance to x's far end, rounded up."""
    value = mpmath.libmp.to_float(x.mid._mpi_[0], rnd="n")
    return value, iv_float_up(abs(x - value))


def _jordan_values(
    a: float, b: float, n_list: Sequence[int]
) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """psi(a)^n and b (psi^n)'(a) for each n of n_list from their closed
    forms, each with its bound.

    With s = sqrt(1-a), psi(a)^n = (1+s)^(-n) and
    (psi^n)'(a) = n psi(a)^(n+1) / (2s), enclosed in 128-bit intervals; s,
    1+s and 2s are formed once.  The derivative is only formed for b != 0,
    and needs a < 1.
    """
    s = iv.sqrt(1 - iv.mpf(a))
    one_s, two_s, b_iv = 1 + s, 2 * s, iv.mpf(b)
    values = []
    for n in n_list:
        diag = _enclose(one_s ** -n)
        off = _enclose(b_iv * n * one_s ** -(n + 1) / two_s) if b else (0.0, 0.0)
        values.append((diag, off))
    return values


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
    P is the agreement degree: on the general path every A^n is exact through
    T^P, P = 2^(K+1) - 2 after K reduction steps, or on a nilpotent T the last
    nonzero power; it is 0 on scalar and Jordan inputs, whose closed forms read
    no term.
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
    """`evaluate_powers`; the general path reads the norms of `walk` when given."""
    _check_request(n_list, eps, probe_len)
    d = T.dim

    jordan = _as_jordan(T)
    if jordan is not None:
        a, b = jordan
        if a == 1.0 and b:
            raise NonConvergenceError("(psi^n)'(a) diverges at a = 1")
        out = {}
        for n, ((diag, e1), (off, e2)) in zip(n_list, _jordan_values(a, b, n_list)):
            mat = diag * np.eye(d)
            if b:
                mat[0, 1] = off
            if norm is Norm.MAX:
                tail = max(e1, e2)
            elif norm is Norm.FROBENIUS:
                tail = iv_float_up(iv.sqrt(d * iv.mpf(e1) ** 2 + iv.mpf(e2) ** 2))
            else:
                tail = iv_float_up(iv.mpf(e1) + e2)
            if tail > eps:
                raise NonConvergenceError(
                    f"rounding bound {tail:g} of the closed form exceeds {eps:g}"
                )
            out[n] = (mat, tail)
        return out, 0

    norms = (walk or _walk(T, probe_len, norm)).norms
    M = max(norms)
    if norms[-1] == 0.0:
        # nilpotent: A^n is a polynomial of degree P < the zero index, and
        # K steps agree with it through degree 2^(K+1) - 2 >= P
        P = len(norms) - 1
        steps = (P + 1).bit_length() - 1
        tails = {n: 0.0 for n in n_list}
    else:
        def tail(n: int, k: int) -> float:
            return math.nextafter(n * M, math.inf) * 2.0 ** -(k + 1)

        top = max(n_list)
        k = next((k for k in range(LR_STEP_CAP) if tail(top, k) <= eps), None)
        if k is None:
            raise NonConvergenceError(
                f"tail <= {eps:g} needs more than {LR_STEP_CAP} reduction steps")
        steps = k + 1
        P = 2 ** (steps + 1) - 2
        tails = {n: tail(n, k) for n in n_list}

    G = _reduce(T, steps, M, norm)
    return {n: (np.linalg.matrix_power(G, n), tails[n]) for n in n_list}, P


@dataclass
class BrunelResult:
    """A^n_power(T), its tail bound in `norm_used`, and `truncation_P`, the
    agreement degree: the result is exact through T^truncation_P (0 on the
    closed forms, which read no term)."""

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


def _difference_theorem(
    T: DenseMatrix, suite: str, means: bool, norm_factor: float, diff_factor: float,
    n_max: int, eps: float, norm: Norm, probe_len: int,
) -> VerifyReport:
    """||A^n|| <= norm_factor M and n ||A^n - A^(n+1)|| <= diff_factor M, n <= n_max.

    M is the larger of 1 and the sup of the Cesaro means (with `means`) or of
    the power norms, taken in the one walk the general path then reads.
    Truncation slack is carried explicitly: each comparison allows the
    certified tail bounds plus 1e-9, so a pass is sound for the truncated
    quantities standing in for the true ones.
    """
    _check_positive(n_max=n_max)
    n_list = list(range(1, n_max + 2))
    _check_request(n_list, eps, probe_len)
    start = time.perf_counter()
    # the closed forms read no power norms, so the mean check's walk skips them
    walk = _walk(T, probe_len, norm, means, norms=not (means and _as_jordan(T)))
    M = max([1.0] + (walk.means if means else walk.norms))
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
    """Mean-bounded variant: ||A^n|| <= M(4 sqrt(6/pi) + 2), n||A^(n+1)-A^n|| <= 99M/2."""
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
    -2^(n-1) (sqrt(2)-1)^(n+1) / sqrt(2), computed exactly in Z[sqrt(2)].

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

    The rounding.  (sqrt(2)-1)^(n+1) = u + v sqrt(2) with integers from
    (u, v) = (-1, 1) by (u, v) -> (2v - u, u - v).  The norm
    u^2 - 2v^2 = (-1)^(n+1) and u, v of opposite signs give
    S(n) = -2^(n-1) / (2|v| + |u| sqrt(2)), a sum without cancellation.
    With r = isqrt(2 u^2 4^K), |u| sqrt(2) 2^K lies strictly between r and
    r + 1, so S(n) lies strictly between -2^(n-1+K) / (2|v| 2^K + r) and
    -2^(n-1+K) / (2|v| 2^K + r + 1); int / int division rounds each correctly,
    and when the two floats agree that float is S(n) correctly rounded.
    Otherwise K doubles, from S_GUARD_BITS on.
    """
    _check_positive(n=n)
    u, v = -1, 1
    for _ in range(n):
        u, v = 2 * v - u, u - v
    K = S_GUARD_BITS
    while True:
        top = 1 << (n - 1 + K)
        den = (abs(v) << (K + 1)) + math.isqrt(2 * u * u << 2 * K)
        value = -top / den
        if value == -top / (den + 1):
            return value
        K *= 2


def S_remainder_at_J(n: int) -> float:
    """Alternating-series remainder bound for truncation at p = J(n)."""
    _check_positive(n=n)
    p = (n * n + n) // 2 + 1
    return binomial(n + 2 * p - 1, p - 1) / (1 << (2 * p))


@dataclass
class AppendixExample:
    """A^n for T = [[-1, 2], [0, -1]] by one formula, evaluated two ways.

    The off-diagonal entry 2 (psi^n)'(-1) is -2^(1-n) n S(n), so both sides
    are the closed form of `S_value`'s docstring.  `closed_form` takes S(n)
    exactly in Z[sqrt(2)], rounded once, and a float diagonal
    (sqrt(2)-1)^n; `series_matrix` is `brunel`, which on this Jordan block
    evaluates psi(-1)^n and (psi^n)'(-1) in 128-bit intervals.
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
    and from `brunel`'s interval closed form."""
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
