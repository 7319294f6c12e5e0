"""Finite-dimensional evaluation of A(T) = sum_p alpha(1,p) T^p and its powers.

A^n(T) = sum_p alpha(n,p) T^p, truncated with a certified bound on the
discarded tail: sum_{p>P} alpha(n,p) <= e^(1/12) n / sqrt(pi P), multiplied by
the measured sup of ||T^p|| over a probe window (the power-boundedness of T is
a hypothesis probed empirically, not proved).

Scalar matrices a*I and 2x2 Jordan blocks [[a, b], [0, a]] with |a| <= 1
(a scalar matrix is the case b = 0) read no series at all: A^n has
psi(a)^n = (1 + sqrt(1-a))^(-n) on the diagonal and b (psi^n)'(a) =
b n psi(a)^(n+1) / (2 sqrt(1-a)) above it.  Both closed forms are enclosed
in 128-bit `arith.iv` intervals; each entry is the float nearest its
interval's midpoint, and the reported tail is the float rounding bound,
rounded up, so it is a proof (0 when the values are exact, as for a in
{0, 1}).  The derivative diverges at a = 1, which is signalled.

Every loop over T^0, T^1, ... consumes the one generator `_powers`, and the
general path walks it once, so each power is computed once.  The walk probes
||T^p|| for p <= probe_len and keeps T^0..T^min(probe_len, w) in one block,
w = POWER_BLOCK; the series is then summed block by block as
sum_j (sum_i alpha(n, jw+i) T^i) S^j with S = T^w (the block form of
Paterson-Stockmeyer), reading the block and S from the walk and drawing only
the powers the probe did not reach.  So the walk draws
max(probe_len, min(w, P+1)) + 1 powers, and the pass adds about
2 ceil((P+1)/w) matrix products; memory does not grow with P.

The module also carries the theorem-scale checks (power-bounded and
mean-bounded difference bounds, Cesaro square-root domination) and the worked
2x2 example with its alternating series S(n), the one sum still taken on the
integer kernel `coeffs.alternating_dyadic_sum`.  Each difference check walks
T^p once: the mean-bounded check reads the sup of the Cesaro means
||(T^0 + ... + T^(N-1))/N|| from the same walk that gives the general path
its norms and block, and on closed-form inputs its walk takes the means only.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
import time
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, NamedTuple, Optional, Sequence

import mpmath
import numpy as np

from .arith import binomial, iv, iv_float_up
from .coeffs import (
    alpha_float_blocks,
    alpha_mantissa_stream,
    alpha_tail_envelope,
    alternating_dyadic_sum,
)
from .analysis import BoundConstants, technical_C_down
from .report import VerifyReport

POWER_BLOCK = 1024  # powers of T held by the general path, and its stride
P_CAP = 10 ** 6  # largest truncation P the general path sums to
PROBE_CUTOFF = 1e6  # a probed norm above this counts as divergence
S_WINDOW = 64  # partial sums averaged for the alternating tail of S(n)
SINKHORN_ITERS = 200  # balancing rounds of random_stochastic(doubly=True)


class Norm(enum.Enum):
    OPINF = "opinf"
    FROBENIUS = "fro"
    MAX = "max"

    def compute(self, arr: np.ndarray) -> float:
        if self is Norm.OPINF:
            return float(np.abs(arr).sum(axis=1).max())
        if self is Norm.FROBENIUS:
            return float(np.sqrt((arr * arr).sum()))
        return float(np.abs(arr).max())


class SpectralExplosionError(RuntimeError):
    """Powers of T grew past the probe cutoff: T is not usably power-bounded."""


class MeanBoundProbeError(RuntimeError):
    """Cesaro averages of T grew past the probe cutoff."""


class NonConvergenceError(RuntimeError):
    """No truncation point within the cap certifies the requested tolerance."""


def _check_positive(least: int = 1, /, **values: int) -> None:
    """Each value is an integer >= least; the error names the parameter."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


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


def _powers(T: DenseMatrix) -> Iterator[np.ndarray]:
    """T^0, T^1, ... without end, each power a fresh array computed on demand."""
    power = np.eye(T.dim)
    while True:
        yield power
        power = power @ T.array


def matrix_power(T: DenseMatrix, k: int) -> DenseMatrix:
    """T^k by iterated multiplication; overflow to non-finite entries errs."""
    _check_positive(0, k=k)
    with np.errstate(over="ignore", invalid="ignore"):
        for acc in islice(_powers(T), k + 1):
            if not np.isfinite(acc).all():
                raise ValueError("matrix power overflowed to non-finite entries")
    return DenseMatrix(dim=T.dim, array=acc)


def cesaro(T: DenseMatrix, N: int) -> DenseMatrix:
    """(I + T + ... + T^(N-1)) / N."""
    _check_positive(N=N)
    return DenseMatrix(dim=T.dim, array=sum(islice(_powers(T), N)) / N)


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

class _Walk(NamedTuple):
    norms: list[float]
    means: list[float]
    block: np.ndarray
    powers: Iterator[np.ndarray]


def _probed(value: float, name: str, error: type[RuntimeError]) -> float:
    if not math.isfinite(value) or value > PROBE_CUTOFF:
        raise error(f"||{name}|| = {value:g} exceeds the probe cutoff {PROBE_CUTOFF:g}")
    return value


def _walk(
    T: DenseMatrix, probe_len: int, norm: Norm, rows: int, means: bool = False,
) -> _Walk:
    """The probe, keeping the powers it passes in a (rows, d^2) block.

    Returns ||T^p|| for p = 1..probe_len (cut after the first zero norm);
    with `means`, ||(T^0 + ... + T^(N-1))/N|| for N = 1..probe_len, cut with
    the norms, as past a zero power the means only shrink; the block, whose
    row p holds T^p for every p < rows the walk reached; and the generator,
    which yields T^(len(norms) + 1) next.  A walk with `means` and rows = 0
    takes the means only: a mean-bounded T need not be power-bounded.
    """
    _check_positive(probe_len=probe_len)
    block = np.empty((rows, T.dim * T.dim))
    powers = _powers(T)
    norms, mean_norms = [], []
    total = np.zeros((T.dim, T.dim))
    for p, power in enumerate(islice(powers, probe_len + 1)):
        if p < rows:
            block[p] = power.reshape(-1)
        if means and p < probe_len:
            total += power
            mean_norms.append(_probed(norm.compute(total) / (p + 1),
                                      f"M_{p + 1}", MeanBoundProbeError))
        if p == 0 or (means and not rows):
            continue
        norms.append(_probed(norm.compute(power), f"T^{p}", SpectralExplosionError))
        if norms[-1] == 0.0:
            break
    return _Walk(norms, mean_norms, block, powers)


def probe_power_bound(
    T: DenseMatrix, probe_len: int = 2000, norm: Norm = Norm.OPINF,
) -> list[float]:
    """||T^p|| for p = 1..probe_len; errs if any norm passes PROBE_CUTOFF."""
    return _walk(T, probe_len, norm, 0).norms


def probe_mean_bound(
    T: DenseMatrix, probe_len: int = 2000, norm: Norm = Norm.OPINF,
) -> float:
    """sup of ||(I + T + ... + T^(N-1))/N|| over N = 1..probe_len."""
    return max(_walk(T, probe_len, norm, 0, means=True).means)


# ---------------------------------------------------------------------------
# series evaluation
# ---------------------------------------------------------------------------

def _pick_P(n: int, M: float, eps: float) -> int:
    """Smallest P >= 16 with envelope(n, P) * M <= eps for M > 0, up to P_CAP.

    The start solves e^(1/12) n M / sqrt(pi P) = eps with 1.0869 < e^(1/12),
    a few parts per million short, so the search steps up one term at a time.
    """
    P = max(16, math.ceil((1.0869 * n * M / eps) ** 2 / math.pi))
    while P <= P_CAP and alpha_tail_envelope(n, P) * M > eps:
        P += 1
    if P > P_CAP:
        raise NonConvergenceError(
            f"tail <= {eps:g} needs truncation beyond the cap {P_CAP:g}"
        )
    return P


def _enclose(x: "iv.mpf") -> tuple[float, float]:
    """The float nearest the middle of x and its distance to x's far end, rounded up."""
    value = mpmath.libmp.to_float(x.mid._mpi_[0], rnd="n")
    return value, iv_float_up(abs(x - value))


def _jordan_values(
    a: float, b: float, n: int
) -> tuple[tuple[float, float], tuple[float, float]]:
    """psi(a)^n and b (psi^n)'(a) from their closed forms, each with its bound.

    With s = sqrt(1-a), psi(a)^n = (1+s)^(-n) and
    (psi^n)'(a) = n psi(a)^(n+1) / (2s), enclosed in 128-bit intervals; the
    derivative is only formed for b != 0, and needs a < 1.
    """
    s = iv.sqrt(1 - iv.mpf(a))
    diag = _enclose((1 + s) ** -n)
    if not b:
        return diag, (0.0, 0.0)
    return diag, _enclose(iv.mpf(b) * n * (1 + s) ** -(n + 1) / (2 * s))


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
    """Truncated A^n(T) for every n in n_list, sharing one pass over T^p.

    Returns ({n: (matrix, tail_bound)}, P).  tail_bound is measured in `norm`;
    P is 0 on scalar and Jordan inputs, whose closed forms read no term.
    """
    return _evaluate(T, n_list, eps, norm, probe_len)


def _evaluate(
    T: DenseMatrix, n_list: Sequence[int], eps: float, norm: Norm,
    probe_len: int, walk: Optional[_Walk] = None,
) -> tuple[dict[int, tuple[np.ndarray, float]], int]:
    """`evaluate_powers`; the general path reads `walk` when given, a
    `_walk(T, probe_len, norm, POWER_BLOCK + 1)` not yet drawn further."""
    if not n_list:
        raise ValueError("n_list is empty")
    for n in n_list:
        _check_positive(n=n)
    _check_positive(probe_len=probe_len)
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps:g}")
    d = T.dim

    jordan = _as_jordan(T)
    if jordan is not None:
        a, b = jordan
        if a == 1.0 and b:
            raise NonConvergenceError("(psi^n)'(a) diverges at a = 1")
        out = {}
        for n in n_list:
            (diag, e1), (off, e2) = _jordan_values(a, b, n)
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

    norms, _, block, powers = walk or _walk(T, probe_len, norm, POWER_BLOCK + 1)
    M = max(norms)
    if norms[-1] == 0.0:
        # nilpotent: the series is a polynomial of degree < the zero index
        P = len(norms) - 1
        tails = {n: 0.0 for n in n_list}
    else:
        P = _pick_P(max(n_list), M, eps)
        tails = {n: math.nextafter(alpha_tail_envelope(n, P) * M, math.inf)
                 for n in n_list}

    # Block j of w0 terms is (sum_i alpha(n, j w0 + i) T^i) T^(j w0): the
    # walk holds T^0..T^w0 once the powers past the probe are drawn, and Q
    # steps by S = T^w0 per block.
    w0 = min(POWER_BLOCK, P + 1)
    for i, power in zip(range(len(norms) + 1, w0 + 1), powers):
        block[i] = power.reshape(-1)
    S = block[w0].reshape(d, d)
    Q = np.eye(d)
    flat = np.zeros((len(n_list) * d, d))
    for rows in alpha_float_blocks(n_list, P, POWER_BLOCK):
        w = rows.shape[1]
        flat += (rows @ block[:w]).reshape(-1, d) @ Q
        Q = Q @ S
        # rows are positive, so a non-finite entry of `block` reaches `flat`;
        # a non-finite entry of Q makes its whole column of the product
        # non-finite, since 0 * inf is nan
        if not np.isfinite(flat).all():
            raise SpectralExplosionError("powers overflowed past the probe")
    stack = flat.reshape(len(n_list), d, d)
    out = {n: (stack[i], tails[n]) for i, n in enumerate(n_list)}
    return out, P


@dataclass
class BrunelResult:
    matrix: DenseMatrix
    truncation_P: int
    tail_bound: float
    norm_used: Norm


def brunel(
    T: DenseMatrix, n_power: int = 1, eps: float = 1e-8,
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
    start = time.perf_counter()
    # closed-form inputs read no powers, so their walk keeps none
    walk = _walk(T, probe_len, norm, 0 if _as_jordan(T) else POWER_BLOCK + 1, means)
    M = max([1.0] + (walk.means if means else walk.norms))
    norm_bound, diff_bound = norm_factor * M, diff_factor * M
    powers, P = _evaluate(T, list(range(1, n_max + 2)), eps, norm, probe_len, walk)
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
    rhs_partial = np.zeros((T.dim, T.dim))
    rhs_by_r = {0: rhs_partial.copy()}
    for ell in range(1, r_max + 1):
        rhs_partial = rhs_partial + powers[ell][0]
        rhs_by_r[ell] = rhs_partial.copy()
    lhs_sum = np.zeros((T.dim, T.dim))
    for N, power in enumerate(islice(_powers(T), 1, N_max + 1), start=1):
        lhs_sum += power
        r = math.isqrt(N)
        gap = float((lhs_sum / N - (C / r) * rhs_by_r[r]).max())
        report.record({"N": N}, gap <= slack, gap, slack)
    report.elapsed_s = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# the worked 2x2 example
# ---------------------------------------------------------------------------

def S_value(n: int) -> float:
    """S(n) = sum_p (-1/4)^p C(n+2p-1, p-1), summed exactly then accelerated.

    Terms decrease in magnitude exactly for p > J(n) = (n^2+n)/2, so the
    exact partial sum runs just past J(n) and the remaining alternating tail
    is collapsed by iterated averaging, all on the integer kernel
    `coeffs.alternating_dyadic_sum` with C(n+2p-1, p-1) = p a(n,p) / n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    start = (n * n + n) // 2 + 8
    terms = (p * a // n for p, a in enumerate(alpha_mantissa_stream(n)))
    return alternating_dyadic_sum(terms, start, S_WINDOW)


def S_remainder_at_J(n: int) -> float:
    """Alternating-series remainder bound for truncation at p = J(n)."""
    _check_positive(n=n)
    p = (n * n + n) // 2 + 1
    return binomial(n + 2 * p - 1, p - 1) / (1 << (2 * p))


@dataclass
class AppendixExample:
    """Two independent evaluations of A^n for T = [[-1, 2], [0, -1]].

    `closed_form` is built from the alternating series S(n); `series_matrix`
    is `brunel`, which on this Jordan block evaluates the closed forms of
    psi(-1)^n and (psi^n)'(-1).  The field names predate that swap and are
    kept so that reports keep their keys.
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
    """A^n(T) twice: from the series S(n) (diag (sqrt(2)-1)^n, off-diag
    -2^(1-n) n S(n)) and from `brunel`'s interval closed form."""
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
