"""The float power chain T^0, T^1, ... of a square matrix, and the probe.

Every loop over T^p in `operators` draws from `_power_blocks`, which refills
one reused buffer of at most 64 powers and POWER_BUFFER floats (128 KiB; two
powers where d > 90).  Each power is fl(T^(p-1) @ T), computed into the
buffer by `np.matmul(..., out=...)`: the bits of a fresh `power @ T`, so
the blocks leave the chain as a loop over single powers forms it.

The probe `_walk` reads ||T^p|| and, for the mean check on the general path,
the Cesaro means a block at a time, and returns only their sups M and M_mean.
It stops once the float chain repeats a power exactly, as the norms past the
repeat are ones already read, so M is that of a walk over every power, bit
for bit.  Its errors are the probe's: a power or a mean past PROBE_CUTOFF.
The closed-form inputs of `operators` take the sup of their means from exact
sums, not from this walk.
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .operators import DenseMatrix, Norm

PROBE_CUTOFF = 1e6  # a probed norm above this counts as divergence
POWER_BUFFER = 2 ** 14  # floats (128 KiB) the reused buffer of powers holds


class SpectralExplosionError(RuntimeError):
    """Powers of T grew past the probe cutoff: T is not usably power-bounded."""


class MeanBoundProbeError(RuntimeError):
    """Cesaro averages of T grew past the probe cutoff."""


def _check_positive(least: int = 1, /, **values: int) -> None:
    """Each value is an integer >= least; the error names the parameter."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


def _power_blocks(T: np.ndarray, count: int) -> Iterator[np.ndarray]:
    """T^0..T^(count-1) in consecutive blocks, each a view of the buffer
    that is valid until the next block is drawn.  Overflowing products give
    non-finite entries silently; the consumers check them."""
    d = len(T)
    buf = np.empty((max(2, min(64, POWER_BUFFER // T.size)), d, d))
    buf[0] = np.eye(d)
    for start in range(0, count, len(buf)):
        with np.errstate(over="ignore", invalid="ignore"):
            # past the first block, buf[-1] is the last power drawn
            for i in range(1 if start == 0 else 0, min(len(buf), count - start)):
                np.matmul(buf[i - 1], T, out=buf[i])
        yield buf[:count - start]


def _first(mask: np.ndarray) -> int:
    """Index of the first True in mask, or len(mask)."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else len(mask)


def _prefix_sums(total: np.ndarray, block: np.ndarray) -> np.ndarray:
    """total + block[0], then + block[1], ...: the sums a loop
    `total += power` forms, added in the same order (`np.cumsum` along an
    axis is `np.add.accumulate`, which adds in sequence)."""
    sums = block.copy()
    sums[0] += total
    return np.cumsum(sums, axis=0, out=sums)


class _Walk(NamedTuple):
    M: float  # sup of the probed ||T^p||, p >= 1
    M_mean: float  # sup of the probed Cesaro means; 0.0 in a walk without means


def _probed(value: float, name: str, error: type[RuntimeError]) -> float:
    if not math.isfinite(value) or value > PROBE_CUTOFF:
        raise error(f"||{name}|| = {value:g} exceeds the probe cutoff {PROBE_CUTOFF:g}")
    return value


def _walk(T: DenseMatrix, probe_len: int, norm: Norm, means: bool = False) -> _Walk:
    """The probe: one walk over T^0..T^probe_len.

    Returns M, the sup of ||T^p|| for p = 1..probe_len (cut after the first
    zero norm) and, with `means`, M_mean, the sup of
    ||(T^0 + ... + T^(N-1))/N|| for N = 1..probe_len, cut with the norms, as
    past a zero power the means only shrink.  The means are those of the
    general path's mean check; they are probed, not proved, as float sums
    may land on either side of the exact means.

    Norms and prefix sums are taken a block at a time, and each power is
    still judged in order: its mean, then its norm, then the zero cut.  A
    walk without means also runs Brent's cycle test (R. P. Brent, BIT 20,
    1980): the last power of blocks 1, 2, 4, ... becomes the reference,
    and each later power is compared with it as floats, so a NaN never
    matches.  From a match T^p == T^q the two chains agree up to the signs
    of zero entries, as (+-0) * t is a zero for finite t and x + (+-0) = x
    for x != 0, and such signs reach no norm.  So the norms past p repeat
    those already read, and the walk stops: M and any error are those of a
    walk over every power.
    """
    _check_positive(probe_len=probe_len)
    M = M_mean = 0.0
    total = np.zeros((T.dim, T.dim))
    start, ref = 0, None  # ref: a power that passed its checks
    with np.errstate(over="ignore", invalid="ignore"):
        for b, block in enumerate(_power_blocks(T.array, probe_len + 1), start=1):
            size, first = len(block), int(start == 0)  # T^0 has no norm
            ends = np.zeros(size, dtype=bool)  # powers that end the walk
            mvals = np.empty(0)
            if means and start < probe_len:
                sums = _prefix_sums(total, block[:probe_len - start])
                total = sums[-1]
                mvals = norm.compute(sums) / np.arange(start + 1.0, start + len(sums) + 1)
                ends[:len(mvals)] = ~(mvals <= PROBE_CUTOFF)
            pvals = norm.compute(block)
            ends |= ~((pvals > 0.0) & (pvals <= PROBE_CUTOFF))
            if ref is not None:
                ends |= (block == ref).all(axis=(1, 2))
            stop = _first(ends)
            M_mean = float(np.max(mvals[:stop + 1], initial=M_mean))
            M = float(np.max(pvals[first:stop + 1], initial=M))
            if stop < size:
                if stop < len(mvals):
                    _probed(float(mvals[stop]), f"M_{start + stop + 1}",
                            MeanBoundProbeError)
                _probed(float(pvals[stop]), f"T^{start + stop}", SpectralExplosionError)
                break  # a zero norm or a repeat
            start += size
            if not means and b & (b - 1) == 0:
                ref = block[-1].copy()
    return _Walk(M, M_mean)
