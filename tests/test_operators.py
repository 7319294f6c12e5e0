"""Tests for matrix-scale series evaluation and the operator theorems."""

import hashlib
import json
import math
import time
import tracemalloc
from fractions import Fraction
from itertools import islice

import mpmath
import numpy as np
import pytest

from artifact import arith, coeffs, operators, powers
from artifact.analysis import technical_C_down
from artifact.coeffs import alpha, psi_eval
from artifact.powers import _power_blocks
from artifact.operators import (
    APPENDIX_T,
    AppendixExample,
    BrunelResult,
    DenseMatrix,
    MeanBoundProbeError,
    NonConvergenceError,
    Norm,
    S_remainder_at_J,
    S_value,
    SpectralExplosionError,
    _Walk,
    _check_positive,
    _probed,
    _reduce,
    _mean_bound,
    _walk,
    appendix_example,
    brunel,
    cesaro,
    check_cesaro_domination,
    check_mean_bound_theorem,
    check_power_bound_theorem,
    evaluate_powers,
    load_matrix,
    matrix_from_dict,
    matrix_power,
    random_stochastic,
    rotation_matrix,
)

ROOT2 = math.sqrt(2.0)
CYCLE2 = DenseMatrix.from_rows([[0.0, 2.0], [0.5, 0.0]])  # T^2 = I: norms 2, 1
CYCLE3 = DenseMatrix.from_rows(  # T^3 = I: norms 2, 4, 1
    [[0.0, 2.0, 0.0], [0.0, 0.0, 2.0], [0.25, 0.0, 0.0]])
SHIFT3 = DenseMatrix(dim=3, array=np.eye(3, k=1))  # T^3 = 0
TINY_DIAG = DenseMatrix(dim=3, array=np.diag([1e-200, 2e-200, 3e-200]))  # fl(T^2) = 0


def sym3() -> DenseMatrix:
    return DenseMatrix.from_rows(
        [[0.4, 0.2, 0.0], [0.2, -0.1, 0.3], [0.0, 0.3, 0.2]]
    )


def plain_powers(T: DenseMatrix):
    """T^0, T^1, ... without end, each power a fresh array computed on demand:
    the chain the block source must reproduce bit for bit."""
    power = np.eye(T.dim)
    while True:
        yield power
        power = power @ T.array


def reference_walk(T: DenseMatrix, probe_len: int, norm: Norm, means: bool = False) -> _Walk:
    """The probe as one loop over single powers and no cycle test, kept as
    the reference the block walk must equal, sup for sup and error for
    error."""
    _check_positive(probe_len=probe_len)
    power_norms, mean_norms = [], []
    total = np.zeros((T.dim, T.dim))
    for p, power in enumerate(islice(plain_powers(T), probe_len + 1)):
        if means and p < probe_len:
            total += power
            mean_norms.append(_probed(norm.compute(total) / (p + 1),
                                      f"M_{p + 1}", MeanBoundProbeError))
        if p == 0:
            continue
        power_norms.append(_probed(norm.compute(power), f"T^{p}", SpectralExplosionError))
        if power_norms[-1] == 0.0:
            break
    return _Walk(max(power_norms), max(mean_norms, default=0.0))


@pytest.fixture
def power_draws(monkeypatch):
    """A one-entry list counting the powers drawn from `_power_blocks`, by
    the probe in `powers` and by the loops in `operators`."""
    drawn = [0]

    def counting(T, count):
        for block in _power_blocks(T, count):
            drawn[0] += len(block)
            yield block

    for module in (operators, powers):
        monkeypatch.setattr(module, "_power_blocks", counting)
    return drawn


def walk_draws(power_draws, T: DenseMatrix, **kwargs) -> int:
    """The powers one bare probe over T^0..T^2000 draws; the count is restored."""
    before = power_draws[0]
    _walk(T, 2000, Norm.OPINF, **kwargs)
    drawn, power_draws[0] = power_draws[0] - before, before
    return drawn


def eig_oracle(T: DenseMatrix, n: int) -> np.ndarray:
    """psi(T)^n = V diag(psi(lambda)^n) V^-1 for diagonalizable T.

    psi(z) = 1/(1 + sqrt(1 - z)) on the principal branch, which is the sum
    of the series sum_p alpha(n, p) z^p for |z| <= 1.
    """
    lam, V = np.linalg.eig(T.array)
    psi = 1.0 / (1.0 + np.sqrt(1.0 - lam.astype(complex)))
    return (V @ np.diag(psi ** n) @ np.linalg.inv(V)).real


class TestDenseMatrix:
    def test_from_rows_and_identity(self):
        m = DenseMatrix.from_rows([[1.0, 2.0], [3.0, 4.0]])
        assert m.dim == 2
        assert np.array_equal(DenseMatrix.identity(3).array, np.eye(3))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            DenseMatrix.from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DenseMatrix.from_rows([[1.0, float("nan")], [0.0, 1.0]])
        with pytest.raises(ValueError):
            DenseMatrix.from_rows([[float("inf")]])

    def test_dict_round_trip(self):
        m = DenseMatrix.from_rows([[0.5, -1.5], [2.0, 0.0]])
        again = matrix_from_dict(m.to_dict())
        assert np.array_equal(m.array, again.array)

    def test_from_dict_validation(self):
        with pytest.raises(ValueError):
            matrix_from_dict({"rows": [[1.0]]})
        with pytest.raises(ValueError):
            matrix_from_dict({"dim": 2, "rows": [[1.0, 0.0]]})
        with pytest.raises(ValueError):
            matrix_from_dict({"dim": 0, "rows": []})
        with pytest.raises(ValueError):
            matrix_from_dict({"dim": 2, "rows": 5})
        with pytest.raises(ValueError):
            matrix_from_dict({"dim": 2, "rows": [[1, 2], 3]})
        with pytest.raises(ValueError, match="entries must be numbers"):
            matrix_from_dict({"dim": 2, "rows": [[{}, 1], [1, 1]]})
        with pytest.raises(ValueError, match="dim must be a positive integer"):
            matrix_from_dict({"dim": True, "rows": [[1]]})

    def test_load_matrix(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": 1, "rows": [[0.25]]}))
        assert load_matrix(path).array[0, 0] == 0.25


class TestNorms:
    def test_values(self):
        arr = np.array([[1.0, -2.0], [0.5, 0.25]])
        assert Norm.OPINF.compute(arr) == 3.0
        assert Norm.MAX.compute(arr) == 2.0
        assert Norm.FROBENIUS.compute(arr) == pytest.approx(
            math.sqrt(1 + 4 + 0.25 + 0.0625)
        )

    def test_enum_values_match_cli_flags(self):
        assert {n.value for n in Norm} == {"opinf", "fro", "max"}

    @pytest.mark.parametrize("norm", list(Norm), ids=[n.value for n in Norm])
    def test_stacked_norms_have_each_matrix_bits(self, norm):
        """The walk takes its norms a block at a time; each must have the bits
        of the matrix's own norm (the Frobenius sum of d^2 squares too)."""
        rng = np.random.default_rng(0)
        for d in (1, 2, 3, 7, 16, 33, 64):
            stack = rng.standard_normal((5, d, d)) * 10.0 ** rng.integers(-3, 4, (5, 1, 1))
            stack[1] = -0.0
            got = norm.compute(stack)
            assert got.shape == (5,)
            assert [x.hex() for x in got.tolist()] == [norm.compute(m).hex() for m in stack]

    def test_frobenius_keeps_the_unscaled_bits(self):
        """The squares are taken at a power-of-two scale, which is exact: in
        the float range the norm has the bits of the plain sum of squares."""
        rng = np.random.default_rng(1)
        for d in (1, 3, 16):
            for exp in range(-140, 141, 20):
                stack = rng.standard_normal((4, d, d)) * 10.0 ** exp
                want = np.sqrt((stack * stack).sum(axis=(-2, -1)))
                assert [x.hex() for x in Norm.FROBENIUS.compute(stack).tolist()] == \
                    [x.hex() for x in want.tolist()], (d, exp)

    def test_frobenius_scales_before_squaring(self):
        """The squares of entries near 1e-200 once underflowed to a norm of
        0.0; those near 1e200 give a finite norm past the probe cutoff, and
        a non-finite entry still gives a non-finite norm."""
        tiny = np.diag([1e-200, 1e-200])
        assert Norm.FROBENIUS.compute(tiny) == pytest.approx(ROOT2 * 1e-200, rel=1e-15)
        huge = np.full((2, 2), 1e200)
        assert Norm.FROBENIUS.compute(huge) == pytest.approx(2e200, rel=1e-15)
        with pytest.raises(SpectralExplosionError, match=r"^\|\|T\^1\|\| = 2e\+200 "):
            _walk(DenseMatrix.from_rows(huge), 10, Norm.FROBENIUS)
        for bad in (math.inf, math.nan):
            assert not math.isfinite(Norm.FROBENIUS.compute(np.array([[bad, 1.0], [0.0, 1.0]])))


class TestMatrixPower:
    def test_zero_power_is_identity(self):
        assert np.array_equal(matrix_power(APPENDIX_T, 0).array, np.eye(2))

    def test_identity_powers(self):
        I7 = matrix_power(DenseMatrix.identity(3), 7)
        assert np.array_equal(I7.array, np.eye(3))

    def test_appendix_closed_form(self):
        for k in range(0, 21):
            P = matrix_power(APPENDIX_T, k).array
            sign = (-1.0) ** k
            expected = [[sign, 2 * k * -sign], [0.0, sign]]
            assert np.allclose(P, expected, atol=0), k

    def test_overflow_detected(self):
        big = DenseMatrix.from_rows([[1e155]])
        with pytest.raises(ValueError):
            matrix_power(big, 3)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            matrix_power(APPENDIX_T, -1)

    @pytest.mark.parametrize("T", [random_stochastic(3, 0), CYCLE3, rotation_matrix(1.0),
                                   APPENDIX_T], ids=["row3", "cycle3", "rotation", "appendix"])
    def test_matches_plain_chain(self, T):
        """Bit for bit the chain's T^k, across the blocks of the power source."""
        for k, power in enumerate(islice(plain_powers(T), 301)):
            assert matrix_power(T, k).array.tobytes() == power.tobytes(), k


class TestCesaro:
    def test_N1_is_identity(self):
        assert np.array_equal(cesaro(APPENDIX_T, 1).array, np.eye(2))

    def test_identity_fixed_point(self):
        for N in (1, 5, 50):
            assert np.allclose(cesaro(DenseMatrix.identity(2), N).array, np.eye(2))

    def test_appendix_two_term_average(self):
        assert np.array_equal(cesaro(APPENDIX_T, 2).array, [[0.0, 1.0], [0.0, 0.0]])

    def test_domain(self):
        with pytest.raises(ValueError):
            cesaro(APPENDIX_T, 0)

    def test_overflow_names_the_powers(self):
        """A finite input whose powers overflow is not blamed: the sums stop
        at the first non-finite one."""
        with pytest.raises(ValueError, match="matrix power overflowed"):
            cesaro(DenseMatrix.from_rows([[1e200]]), 3)

    @pytest.mark.parametrize("T", [random_stochastic(3, 5), random_stochastic(32, 5),
                                   APPENDIX_T], ids=["row3", "row32", "appendix"])
    def test_equals_plain_sum(self, T):
        """The blocks' prefix sums add the powers in order, as `sum` does."""
        for N in (1, 63, 64, 65, 150):
            want = sum(islice(plain_powers(T), N)) / N
            assert cesaro(T, N).array.tobytes() == want.tobytes(), N

    def test_telescoping(self):
        """(N+1) M_(N+1) - N M_N recovers T^N to float rounding."""
        for T in (APPENDIX_T, rotation_matrix(1.0), random_stochastic(3, 5)):
            for N in (1, 7, 40, 100):
                lhs = (N + 1) * cesaro(T, N + 1).array - N * cesaro(T, N).array
                rhs = matrix_power(T, N).array
                scale = max(1.0, float(np.abs(rhs).max()))
                assert np.abs(lhs - rhs).max() <= 1e-12 * scale, N


class TestProbes:
    def test_power_probe_explodes_on_expansion(self):
        with pytest.raises(SpectralExplosionError):
            _walk(DenseMatrix.from_rows([[2.0]]), 2000, Norm.OPINF)

    def test_power_probe_rotation_is_unit(self):
        assert _walk(rotation_matrix(1.0), 100, Norm.OPINF).M <= ROOT2 + 1e-12

    def test_power_probe_stops_at_zero(self, power_draws):
        """T^2 = 0: the walk stops in its first block of 64 powers, and the
        zero norm does not lower M = ||T||."""
        shift = DenseMatrix.from_rows([[0.0, 1.0], [0.0, 0.0]])
        assert _walk(shift, 100, Norm.OPINF) == (1.0, 0.0)
        assert power_draws[0] <= 64

    def test_mean_probe_appendix_is_one(self):
        """The float walk's means and the exact sums agree on M = 1."""
        assert _walk(APPENDIX_T, 500, Norm.OPINF, means=True).M_mean == pytest.approx(1.0)
        assert _mean_bound(-1.0, 2.0, 2, Norm.OPINF, 500) == 1.0

    @pytest.mark.parametrize("probe_len", [0, -1])
    def test_probe_len_must_be_positive(self, probe_len):
        """probe_len = 0 once gave a mean bound of 0.0 and a misleading P error."""
        T = random_stochastic(3, 0)
        for evaluate in (
            lambda: _walk(T, probe_len, Norm.OPINF),
            lambda: _mean_bound(-1.0, 2.0, 2, Norm.OPINF, probe_len),
            lambda: evaluate_powers(T, [1], 0.1, probe_len=probe_len),
            lambda: evaluate_powers(DenseMatrix.identity(2), [1], 0.1, probe_len=probe_len),
        ):
            with pytest.raises(ValueError, match="probe_len must be >= 1"):
                evaluate()

    @pytest.mark.parametrize("norm", list(Norm), ids=[n.value for n in Norm])
    @pytest.mark.parametrize("T", [random_stochastic(4, 1), rotation_matrix(1.0),
                                   APPENDIX_T], ids=["row4", "rotation", "appendix"])
    def test_mean_probe_matches_separate_loop(self, T, norm):
        """The mean check's M against the separate float loop the probe once
        ran: on the general path the walk's means equal the loop's, and on
        the worked example, a closed-form input, the exact sums give the same
        M (its means are small integers over N, and in FRO the largest is
        sqrt(2), whose float is the least above it)."""
        best = 0.0
        acc = np.zeros((T.dim, T.dim))
        for N, power in enumerate(islice(plain_powers(T), 2000), start=1):
            acc += power
            best = max(best, norm.compute(acc) / N)
        if T is APPENDIX_T:
            assert _mean_bound(-1.0, 2.0, 2, norm, 2000) == max(1.0, best)
        else:
            assert _walk(T, 2000, norm, means=True).M_mean == best
        report = check_mean_bound_theorem(T, n_max=1, norm=norm)
        assert report.rectangle["M"] == max(1.0, best)

    def test_mean_probe_explodes_on_expansion(self):
        """A mean past the cutoff is judged before the power that enters it:
        on the general path M_2 = (1 + 4e6)/2 stops the walk before
        ||T^1|| = 4e6, and the exact sums of a Jordan block stop at its
        first mean past the cutoff, M_2 = ||(b/2) E||."""
        with pytest.raises(MeanBoundProbeError, match=r"^\|\|M_2\|\| = 2e\+06 "):
            _walk(DenseMatrix.from_rows([[4e6]]), 200, Norm.OPINF, means=True)
        with pytest.raises(MeanBoundProbeError, match=r"^\|\|M_2\|\| = 2e\+06 "):
            _mean_bound(-1.0, 4e6, 2, Norm.OPINF, 200)

    def test_appendix_power_growth_vs_mean_boundedness(self):
        """Powers grow linearly while Cesaro averages stay at norm one."""
        for n in (1, 10, 100, 500):
            grown = matrix_power(APPENDIX_T, n)
            assert Norm.OPINF.compute(grown.array) == 1.0 + 2.0 * n
        acc = np.zeros((2, 2))
        power = np.eye(2)
        for N in range(1, 501):
            acc += power
            assert Norm.OPINF.compute(acc / N) == pytest.approx(1.0, abs=1e-12)
            power = power @ APPENDIX_T.array


WALK_INPUTS = {
    "row3": random_stochastic(3, 1),
    "row16": random_stochastic(16, 1),
    "row64": random_stochastic(64, 1),
    "doubly3": random_stochastic(3, 1, doubly=True),
    "rotation": rotation_matrix(1.0),
    "shift": DenseMatrix(dim=4, array=np.eye(4, k=1)),
    "appendix": APPENDIX_T,
    "diag": DenseMatrix.from_rows([[2.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.1]]),
    "jordan1e3": DenseMatrix.from_rows([[-1.0, 1e3], [0.0, -1.0]]),
    "cycle2": CYCLE2,
    "cycle3": CYCLE3,
}


def walk_outcome(walk, *args):
    """The hex bits of a walk's sups M and M_mean, or its error's type and text."""
    try:
        result = walk(*args)
    except (SpectralExplosionError, MeanBoundProbeError) as err:
        return type(err), str(err)
    return result.M.hex(), result.M_mean.hex()


class TestBlockWalk:
    """The block walk against `reference_walk`, over single powers."""

    @pytest.mark.parametrize("norm", list(Norm), ids=[n.value for n in Norm])
    @pytest.mark.parametrize("name", list(WALK_INPUTS))
    def test_matches_reference_walk(self, name, norm):
        T = WALK_INPUTS[name]
        for means in (False, True):
            for probe_len in (1, 2, 63, 64, 65, 2000):
                args = (T, probe_len, norm, means)
                assert walk_outcome(_walk, *args) == walk_outcome(reference_walk, *args), \
                    (means, probe_len)

    @pytest.mark.parametrize("T, cycle", [(CYCLE2, [2.0, 1.0]), (CYCLE3, [2.0, 4.0, 1.0])],
                             ids=["period2", "period3"])
    def test_exact_cycle_norms_in_phase(self, power_draws, T, cycle):
        """The chain repeats exactly, so the walk stops in its second block,
        against the reference T^63: the norms past the repeat are ones
        already read, and M is the largest of one period."""
        assert _walk(T, 2000, Norm.OPINF).M == max(cycle)
        assert power_draws[0] <= 128


    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_prefix_sums_match_the_loop(self, d):
        """The walk's prefix sums are bit for bit the loop `total += power`."""
        rng = np.random.default_rng(d)
        for scale in (1e-5, 1.0, 1e5):
            for count in (1, 2, 64):
                total = rng.standard_normal((d, d)) * scale
                block = rng.standard_normal((count, d, d)) * scale
                kept = block.copy()
                want = block.copy()
                want[0] += total
                for i in range(1, count):
                    want[i] += want[i - 1]
                got = powers._prefix_sums(total, block)
                assert (got.view(np.int64) == want.view(np.int64)).all()
                assert (block == kept).all()


class TestBrunelFastPaths:
    def test_zero_matrix(self):
        r = brunel(DenseMatrix.from_rows([[0.0, 0.0], [0.0, 0.0]]), 1, eps=1e-12)
        assert np.allclose(r.matrix.array, 0.5 * np.eye(2), atol=0)
        assert r.tail_bound == 0.0

    def test_identity_tight_eps(self):
        r = brunel(DenseMatrix.identity(3), 1, eps=1e-10)
        assert np.array_equal(r.matrix.array, np.eye(3))
        assert r.tail_bound <= 1e-10

    def test_scalar_contraction_matches_psi(self):
        for a in (0.5, -0.5, 0.99, -0.99):
            for n in (1, 3):
                r = brunel(DenseMatrix.from_rows([[a]]), n, eps=1e-12)
                assert r.matrix.array[0, 0] == pytest.approx(
                    psi_eval(a, n), rel=1e-10
                )
                assert r.tail_bound <= 1e-12

    def test_scalar_minus_one_accelerated(self):
        r = brunel(DenseMatrix(dim=2, array=-np.eye(2)), 4, eps=1e-10)
        with mpmath.workprec(200):
            exact = float((mpmath.sqrt(2) - 1) ** 4)
        assert r.matrix.array[0, 0] == exact
        assert r.tail_bound <= 1e-16

    def test_boundary_truncation_P_is_last_index_read(self):
        # the closed forms read no series term, so nothing is truncated
        scalar = DenseMatrix(dim=2, array=-np.eye(2))
        for T, n in ((scalar, 4), (APPENDIX_T, 4), (APPENDIX_T, 40)):
            assert brunel(T, n, eps=1e-10).truncation_P == 0
        report = check_mean_bound_theorem(APPENDIX_T, n_max=3)
        assert report.rectangle["P"] == 0

    def test_jordan_block_matches_derivative_series(self):
        b = 0.7
        T = DenseMatrix.from_rows([[0.5, b], [0.0, 0.5]])
        n = 3
        r = brunel(T, n, eps=1e-11)
        # diagonal: psi(1/2)^3; off-diagonal: b * d/dx psi(x)^3 at 1/2
        h = 1e-6
        deriv = (psi_eval(0.5 + h, n) - psi_eval(0.5 - h, n)) / (2 * h)
        assert r.matrix.array[0, 0] == pytest.approx(psi_eval(0.5, n), rel=1e-10)
        assert r.matrix.array[0, 1] == pytest.approx(b * deriv, rel=1e-5)
        assert r.matrix.array[1, 0] == 0.0

    def test_jordan_at_one_diverges(self):
        T = DenseMatrix.from_rows([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(NonConvergenceError):
            brunel(T, 1, eps=0.1)


def reference_jordan(a: float, b: float, d: int, n: int) -> list[list]:
    """A^n of a*I + b*E_01 at 200 bits.

    psi(a)^n on the diagonal and b n psi(a)^(n+1) / (2 sqrt(1-a)) at (0, 1).
    """
    with mpmath.workprec(200):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        psi = 1 / (1 + mpmath.sqrt(1 - a))
        R = [[psi ** n if i == j else mpmath.mpf(0) for j in range(d)]
             for i in range(d)]
        if b:
            R[0][1] = b * n * psi ** (n + 1) / (2 * mpmath.sqrt(1 - a))
    return R


def reference_norm(E: list[list], norm: Norm):
    """`norm` of a matrix of mpf entries, in the working precision."""
    if norm is Norm.OPINF:
        return max(sum(abs(x) for x in row) for row in E)
    if norm is Norm.MAX:
        return max(abs(x) for row in E for x in row)
    return mpmath.sqrt(sum(x * x for row in E for x in row))


STRUCTURED = (
    [(a, 0.0, d) for a in (-1.0, -0.99, -0.5, 0.0, 0.5, 0.99, 1.0) for d in (1, 3)]
    + [(a, b, 2) for a in (-1.0, -0.5, 0.0, 0.9) for b in (2.0, -0.5, 3.7, 1e3)]
)


class TestClosedFormEnclosure:
    """Scalar and Jordan inputs: every entry within tail_bound of 200 bits."""

    @pytest.mark.parametrize("a, b, d", STRUCTURED,
                             ids=[f"a{a}-b{b}-d{d}" for a, b, d in STRUCTURED])
    def test_within_tail_of_reference(self, a, b, d):
        T = DenseMatrix(dim=d, array=a * np.eye(d) + b * np.eye(d, k=1))
        eps = 1e-10
        for norm in Norm:
            powers, P = evaluate_powers(T, [1, 7, 40], eps, norm)
            assert P == 0
            for n, (mat, tail) in powers.items():
                R = reference_jordan(a, b, d, n)
                with mpmath.workprec(200):
                    E = [[mpmath.mpf(float(x)) - y for x, y in zip(row, ref)]
                         for row, ref in zip(mat, R)]
                    assert reference_norm(E, norm) <= tail, (norm, n)
                assert tail <= eps
                if b == 0.0 and a in (0.0, 1.0):
                    assert tail == 0.0

    def test_closed_form_edge_grid_pinned(self):
        """_closed_form(1, a, k, j), value and tail, on the edges of a: the
        subnormals, the floats next to 1 and -1, and the ends 0, -1 and 1.
        The digest was taken from the Z[sqrt(1-a)] arithmetic that the
        Enclosure expressions replaced; a change in any output bit moves it."""
        rows = [f"{a.hex()} {k} {j} " + " ".join(x.hex() for x in
                                                operators._closed_form(Fraction(1), a, k, j))
                for a in (5e-324, -5e-324, 1 - 2 ** -52, -(1 - 2 ** -52), -1.0, 0.0, 0.75, 1.0)
                for k in (*range(1, 9), 61, 3000, 10 ** 5) for j in (0, 1)
                if not (a == 1.0 and j)]
        assert len(rows) == 165
        assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == (
            "1144459848cfc8450201f765b579243cd941db79d255be49cad924bf5234bc3c")
        with pytest.raises(ZeroDivisionError):  # s = 0 divides at a = 1, j = 1
            operators._closed_form(Fraction(1), 1.0, 3, 1)

    def test_float_rounding_directions(self):
        """float_up gives the least float at or above num / den."""
        for x in (0.375, 0.1, 1.0, 5e-324, 1.7976931348623157e308):
            assert arith.float_up(*x.as_integer_ratio()) == x
        up = arith.float_up(1, 3)
        assert up > 1 / 3 and Fraction(up) > Fraction(1, 3)
        assert Fraction(math.nextafter(up, 0.0)) < Fraction(1, 3)
        assert arith.float_up(1, 1 << 1074) == 5e-324
        assert arith.float_up(1, 1 << 1075) == 5e-324
        assert arith.float_up(1, 3 << 1074) == 5e-324
        assert arith.float_up(0) == 0.0
        assert arith.float_up(1 << 1024) == math.inf

    @pytest.mark.parametrize("a, b", [(a, b) for a in (-1.0, 0.0, 0.5) for b in (0.0, 2.0)])
    def test_tail_below_the_float_range(self, a, b):
        """At n = 3000 every entry underflows to 0.0 (psi(0.5)^3000 is about
        1.7e-697), so a tail of 0 would claim exactness: each tail is > 0
        and at least the 200-bit distance."""
        T = DenseMatrix(dim=2, array=a * np.eye(2) + b * np.eye(2, k=1))
        R = reference_jordan(a, b, 2, 3000)
        for norm in Norm:
            mat, tail = evaluate_powers(T, [3000], 1e-10, norm)[0][3000]
            assert not mat.any()
            with mpmath.workprec(200):
                E = [[mpmath.mpf(float(x)) - y for x, y in zip(row, ref)]
                     for row, ref in zip(mat, R)]
                assert 0 < tail and reference_norm(E, norm) <= tail, norm

    def test_overflow_is_signalled(self):
        """A value past the float range has an infinite rounding bound."""
        T = DenseMatrix.from_rows([[0.99, 1e308], [0.0, 0.99]])
        for norm in Norm:
            with pytest.raises(NonConvergenceError, match="rounding bound inf"):
                brunel(T, 1, eps=1e300, norm=norm)

    def test_eps_below_rounding_bound_raises(self):
        with pytest.raises(NonConvergenceError, match="rounding bound"):
            brunel(DenseMatrix.from_rows([[0.5]]), 1, eps=1e-30)
        with pytest.raises(NonConvergenceError, match="rounding bound"):
            brunel(APPENDIX_T, 7, eps=1e-30, norm=Norm.FROBENIUS)


BATCHED = [(-1.0, 2.0, 2), (0.999, 1.5, 2), (0.999, 0.0, 3), (-0.3, -2.0, 2),
           (0.5, -1e3, 2), (-1.0, 0.0, 1), (1.0, 0.0, 2), (0.25, 0.0, 4)]


class TestJordanBatch:
    """One closed-form pass over n_list equals one call per n, bit for bit."""

    @pytest.mark.parametrize("norm", list(Norm), ids=[n.value for n in Norm])
    @pytest.mark.parametrize("a, b, d", BATCHED,
                             ids=[f"a{a}-b{b}-d{d}" for a, b, d in BATCHED])
    def test_batched_equals_single_calls(self, a, b, d, norm):
        T = DenseMatrix(dim=d, array=a * np.eye(d) + b * np.eye(d, k=1))
        batched, P = evaluate_powers(T, range(1, 41), 1e-6, norm)
        assert P == 0 and sorted(batched) == list(range(1, 41))
        for n in range(1, 41):
            single, tail = evaluate_powers(T, [n], 1e-6, norm)[0][n]
            mat, batched_tail = batched[n]
            assert [x.hex() for x in mat.ravel()] == [x.hex() for x in single.ravel()], n
            assert batched_tail.hex() == tail.hex(), n


class TestBrunelGeneralPath:
    def test_explosion_signal(self):
        with pytest.raises(SpectralExplosionError):
            brunel(DenseMatrix.from_rows([[2.0, 0.0], [0.0, 0.5]]), 1, eps=0.1)

    def test_overflow_past_short_probe_signalled(self):
        """A probe too short to see the growth still cannot yield non-finite
        entries or a numpy warning: the guard on Pi_j stops the reduction at
        step 2, where unguarded it would overflow Pi at step 11."""
        T = DenseMatrix.from_rows([[1.5, 0.0], [0.0, 0.2]])
        with pytest.raises(SpectralExplosionError, match="past the probe"):
            evaluate_powers(T, [1], 0.1, probe_len=5)

    def test_singular_step_signalled(self):
        """I - T/2 is singular for diag(2, 0.5), which a probe of 5 powers
        (||T^5|| = 32) lets through."""
        T = DenseMatrix.from_rows([[2.0, 0.0], [0.0, 0.5]])
        with pytest.raises(SpectralExplosionError, match="singular"):
            evaluate_powers(T, [1], 0.1, probe_len=5)

    def test_non_convergence_at_tiny_eps(self):
        """eps = 1e-10 needs 34 reduction steps on the rotation (M = 1.41)."""
        with pytest.raises(NonConvergenceError, match="21 reduction steps"):
            brunel(rotation_matrix(1.0), 1, eps=1e-10)

    def test_result_fields(self):
        r = brunel(rotation_matrix(1.0), 1, eps=0.05)
        assert isinstance(r, BrunelResult)
        # M 2^-(k+1) <= 0.05 with M = 1.41 first at k = 4, so K = 5 steps
        assert r.truncation_P == 2 ** 6 - 2
        assert 0 < r.tail_bound <= 0.05
        assert r.norm_used is Norm.OPINF

    def test_commutation(self):
        """A(T) is a limit of polynomials in T, so it commutes with T."""
        for T in (rotation_matrix(1.0), random_stochastic(3, 2), sym3()):
            r = brunel(T, 1, eps=0.02)
            A = r.matrix.array
            gap = Norm.OPINF.compute(A @ T.array - T.array @ A)
            assert gap <= 2 * r.tail_bound + 1e-10

    def test_spectral_mapping_on_symmetric_matrix(self):
        T = sym3()
        lams = np.linalg.eigvalsh(T.array)
        assert all(-1 < l < 1 for l in lams)
        for n in (1, 2):
            A = brunel(T, n, eps=0.01).matrix.array
            assert np.allclose(A, A.T, rtol=0, atol=1e-15)
            got = np.linalg.eigvalsh(A)
            expected = sorted(psi_eval(l, n) for l in lams)
            assert got == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("eps", [0.1, 0.04, 1e-2, 1e-4, 1e-5])
    @pytest.mark.parametrize("T", [
        rotation_matrix(1.0),
        random_stochastic(3, 0, doubly=True),
        random_stochastic(3, 0),
        random_stochastic(16, 0),
        random_stochastic(64, 1),
    ], ids=["rotation", "doubly3", "row3", "row16", "row64"])
    def test_series_within_tail_of_eig_oracle(self, T, eps):
        """The reduction is within its tail of psi(T)^n, down to eps = 1e-5,
        where the truncated series needed more terms than it could sum."""
        powers, P = evaluate_powers(T, [1, 2, 3], eps)
        assert (P + 2) & (P + 1) == 0  # P = 2^(K+1) - 2
        for n in (1, 2, 3):
            mat, tail = powers[n]
            assert 0 < tail <= eps
            assert Norm.OPINF.compute(mat - eig_oracle(T, n)) <= tail, n

    @pytest.mark.parametrize("norm", list(Norm), ids=[n.value for n in Norm])
    @pytest.mark.parametrize("T, n_list", [
        (SHIFT3, [1, 5]),
        (DenseMatrix(dim=80, array=np.eye(80, k=1)), [5]),
        (TINY_DIAG, [1, 5]),
    ], ids=["shift3", "shift80", "tiny-diag"])
    def test_zero_float_power_within_tail(self, T, n_list, norm):
        """A T with a zero float power takes the reduction and its tail
        n M 2^-(K+1) like any other.  The shifts once reported tail 0.0,
        although 52 of S_80's 80 row-0 entries at n = 5 are inexact, and
        diag(1e-200, 2e-200, 3e-200), whose square underflows, returned
        entries of 0.5 for psi(1e-200) with tail 0.0.  The shifts' entries
        are compared with alpha(n, j - i) as Fractions, the diagonal's with
        200 bits of psi(t)^n.  eps = 1e-4 lets S_80 in FRO, M = sqrt(79),
        stay within LR_STEP_CAP steps."""
        powers, P = evaluate_powers(T, n_list, 1e-4, norm)
        assert (P + 2) & (P + 1) == 0  # P = 2^(K+1) - 2
        for n, (mat, tail) in powers.items():
            assert 0 < tail <= 1e-4
            if T is TINY_DIAG:
                R = [[reference_jordan(t, 0.0, 1, n)[0][0] if i == j else 0 for j, t in
                      enumerate(np.diag(T.array))] for i in range(T.dim)]
                with mpmath.workprec(200):
                    E = [[mpmath.mpf(float(x)) - y for x, y in zip(row, ref)]
                         for row, ref in zip(mat, R)]
                    assert reference_norm(E, norm) <= tail, n
                continue
            E = [[Fraction(x) - (alpha(n, j - i) if j >= i else 0) for j, x in enumerate(row)]
                 for i, row in enumerate(mat.tolist())]
            if norm is Norm.FROBENIUS:
                assert sum(x * x for row in E for x in row) <= Fraction(tail) ** 2, n
            else:
                assert reference_norm(E, norm) <= tail, n

    def test_tiny_entries_in_frobenius(self):
        """The Frobenius probe once read ||T|| = 0.0 here and returned an
        off-diagonal entry of 0.0 with tail 0.0.  The reference is
        psi(T) = [[psi(a), b (psi(a) - psi(c)) / (a - c)], [0, psi(c)]],
        at 1 500 bits, as the divided difference cancels about 660."""
        a, b, c = 1e-200, 1e-200, 3e-200
        r = brunel(DenseMatrix.from_rows([[a, b], [0.0, c]]), 1, norm=Norm.FROBENIUS)
        assert r.matrix.array[0, 1] == pytest.approx(b / 8, rel=1e-12)
        assert r.tail_bound > 0
        with mpmath.workprec(1500):
            psi = [1 / (1 + mpmath.sqrt(1 - mpmath.mpf(x))) for x in (a, c)]
            R = [[psi[0], b * (psi[0] - psi[1]) / (mpmath.mpf(a) - c)], [0, psi[1]]]
            E = [[mpmath.mpf(float(x)) - y for x, y in zip(row, ref)]
                 for row, ref in zip(r.matrix.array, R)]
            assert reference_norm(E, Norm.FROBENIUS) <= r.tail_bound

    def test_zero_float_power_needs_the_step_cap(self):
        """The 3 x 3 shift once claimed exactness at any eps; M = 1 now
        needs 2^-(K+1) <= 1e-15, past LR_STEP_CAP steps."""
        with pytest.raises(NonConvergenceError, match="21 reduction steps"):
            brunel(SHIFT3, 1, eps=1e-15)

    @pytest.mark.parametrize("a, b, eps", [
        (0.9999, 0.01, 0.2), (0.9999, 0.003, 0.1),
        (0.99999, 0.01, 0.2), (0.99999, 0.003, 0.1),
    ])
    def test_tail_bound_holds_past_the_probe(self, a, b, eps):
        """M is the largest ||T^p|| over p <= probe_len = 2000, not a
        certified bound: at a = 0.9999, b = 0.01 it is 17.2 while
        sup_p ||T^p|| = 37.2 near p = 10^4.  The reduction's headroom covers
        a = 0.9999 (errors 0.025 and 0.046 against tails 0.134 and 0.090); at
        a = 0.99999 its errors would be 0.80 and 0.24 against tails 0.16 and
        0.054, and only the guard on Pi_j stops it."""
        T = DenseMatrix.from_rows([[a, b, 0.0], [0.0, a, 0.0], [0.0, 0.0, 0.5]])
        try:
            r = brunel(T, 1, eps=eps)
        except SpectralExplosionError:
            return
        R = reference_jordan(a, b, 3, 1)
        R[2][2] = reference_jordan(0.5, 0.0, 1, 1)[0][0]
        with mpmath.workprec(200):
            E = [[mpmath.mpf(float(x)) - y for x, y in zip(row, ref)]
                 for row, ref in zip(r.matrix.array, R)]
            assert reference_norm(E, Norm.OPINF) <= r.tail_bound

    def test_general_path_memory_is_bounded(self):
        """The reduction holds a few d x d iterates and the probe its norms;
        memory does not grow with P."""
        T = random_stochastic(32, 0)
        tracemalloc.start()
        try:
            _, P = evaluate_powers(T, [1, 2, 3], 1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert P == 1022
        assert peak < 2 ** 20, peak

    def test_semigroup_consistency_scalar(self):
        a = DenseMatrix.from_rows([[0.5]])
        one = brunel(a, 1, eps=1e-12).matrix.array[0, 0]
        for n in range(2, 7):
            direct = brunel(a, n, eps=1e-12).matrix.array[0, 0]
            assert direct == pytest.approx(one**n, rel=1e-9)

    def test_semigroup_consistency_general(self):
        T = DenseMatrix(dim=3, array=0.9 * random_stochastic(3, 4).array)
        eps = 0.01
        A1 = brunel(T, 1, eps=eps).matrix.array
        acc = A1.copy()
        for n in range(2, 7):
            acc = acc @ A1
            direct = brunel(T, n, eps=eps).matrix.array
            assert Norm.OPINF.compute(direct - acc) <= (n + 2) * eps

    def test_evaluate_powers_validation(self):
        with pytest.raises(ValueError):
            evaluate_powers(APPENDIX_T, [], 0.1)
        with pytest.raises(ValueError):
            evaluate_powers(APPENDIX_T, [0], 0.1)
        with pytest.raises(ValueError):
            evaluate_powers(APPENDIX_T, [1], 0.0)

    @pytest.mark.parametrize("call", [
        lambda: evaluate_powers(random_stochastic(3, 0), [1, 2.5], 0.1),
        lambda: evaluate_powers(DenseMatrix.identity(2), [1, 2.5], 0.1),
        lambda: evaluate_powers(random_stochastic(3, 0), [True], 0.1),
        lambda: evaluate_powers(random_stochastic(3, 0), [1], 0.1, probe_len=8.0),
        lambda: brunel(APPENDIX_T, 2.0),
        lambda: check_power_bound_theorem(DenseMatrix.identity(2), n_max=True),
        lambda: check_cesaro_domination(DenseMatrix.identity(2), N_max=2.5),
        lambda: random_stochastic(2.0, 0),
        lambda: DenseMatrix(dim=True, array=[[1.0]]),
        lambda: cesaro(APPENDIX_T, True),
        lambda: cesaro(APPENDIX_T, 2.5),
        lambda: matrix_power(APPENDIX_T, True),
        lambda: matrix_power(APPENDIX_T, 2.5),
        lambda: S_value(True),
        lambda: S_value(2.5),
        lambda: appendix_example(True),
        lambda: appendix_example(2.5),
    ], ids=["n-2.5", "n-2.5-closed-form", "n-True", "probe_len-8.0", "brunel-n-2.0",
            "n_max-True", "N_max-2.5", "dim-2.0", "matrix-dim-True", "cesaro-N-True",
            "cesaro-N-2.5", "power-k-True", "power-k-2.5", "S-True", "S-2.5",
            "appendix-True", "appendix-2.5"])
    def test_non_integer_counts_rejected(self, call):
        """The tail bound is proved for integer n only: n = 2.5 once got a
        "certified" tail, True was keyed True, and N_max = 2.5 raised a bare
        TypeError.  A matrix of dim True was accepted, cesaro(T, True) was
        the identity and cesaro(T, 2.5) failed inside islice; S_value(True)
        returned S(1) and S_value(2.5) failed inside islice."""
        with pytest.raises(ValueError, match="must be an integer"):
            call()

    def test_shared_pass_matches_individual_calls(self):
        """The shared pass truncates everything at the deepest P, so the top
        n agrees exactly with its standalone call and the lower ones agree
        within the certified tails of both computations."""
        T = random_stochastic(3, 7)
        shared, _ = evaluate_powers(T, [1, 2, 3], 0.05)
        top = brunel(T, 3, eps=0.05)
        # same truncation depth; entries agree to kernel rounding
        assert np.allclose(shared[3][0], top.matrix.array, rtol=0, atol=1e-13)
        for n in (1, 2):
            single = brunel(T, n, eps=0.05)
            gap = Norm.OPINF.compute(shared[n][0] - single.matrix.array)
            assert gap <= shared[n][1] + single.tail_bound


def alpha_float_rows(n_list: list[int], P: int) -> np.ndarray:
    """Float alpha(n, 0..P), one row per n, by the ratio recurrence
    alpha(n, p+1) / alpha(n, p) = (n+2p+1)(n+2p) / (4(p+1)(n+p+1))."""
    n = np.array(n_list, dtype=np.float64)[:, None]
    p = np.arange(P, dtype=np.float64)
    ratios = (n + 2 * p + 1) * (n + 2 * p) / (4 * (p + 1) * (n + p + 1))
    return 2.0 ** -n * np.cumprod(np.hstack([np.ones_like(n), ratios]), axis=1)


def sequential_pass(T: DenseMatrix, n_list: list[int], P: int) -> np.ndarray:
    """The truncated series sum_(p<=P) alpha(n, p) T^p, one product per power,
    the powers taken 1024 at a time."""
    d = T.dim
    rows = alpha_float_rows(n_list, P)
    flat = np.zeros((len(n_list), d * d))
    powers = plain_powers(T)
    for s in range(0, P + 1, 1024):
        block = np.array([p.reshape(-1) for p in islice(powers, min(1024, P + 1 - s))])
        flat += rows[:, s:s + len(block)] @ block
    return flat.reshape(len(n_list), d, d)


def series_tail(n: int, P: int) -> float:
    """sum_(p>P) alpha(n, p) <= e^(1/12) n / sqrt(pi P), from Stirling's
    bound on C(n+2p-1, p) and the integral test; 1.087 > e^(1/12)."""
    return 1.087 * n / math.sqrt(math.pi * P)


class TestStridedPowerPass:
    """The truncated series, summed here, against the reduction: the two
    agree within the sum of both tails."""

    @pytest.mark.parametrize("T, probe_len", [
        (random_stochastic(3, 0), 8),
        (random_stochastic(16, 0), 8),
        (rotation_matrix(1.0), 8),
        (random_stochastic(3, 0), 2000),
    ], ids=["row3", "row16", "rotation", "row3-probe2000"])
    @pytest.mark.parametrize("n_list", [[1], [1, 2, 3], list(range(1, 42))],
                             ids=["n1", "n1-3", "n1-41"])
    @pytest.mark.parametrize("P", [5, 1023, 1024, 1025, 2049, 33844])
    def test_matches_sequential_pass(self, T, probe_len, n_list, P):
        """P is the series' truncation; a probe of 8 powers gives the
        reduction a smaller M than the 2000 the series tail is taken with."""
        powers, _ = evaluate_powers(T, n_list, 0.1, probe_len=probe_len)
        ref = sequential_pass(T, n_list, P)
        M = _walk(T, 2000, Norm.OPINF).M
        for i, n in enumerate(n_list):
            mat, tail = powers[n]
            gap = Norm.OPINF.compute(mat - ref[i])
            assert gap <= tail + M * series_tail(n, P), n

    def test_overflow_past_first_stride_signalled(self):
        """1.9^p overflows first at p = 1106, so even T^0..T^1024 are finite;
        the guard on Pi_j stops the reduction at its first step."""
        T = DenseMatrix.from_rows([[1.9, 0.0], [0.0, 0.2]])
        assert np.isfinite(matrix_power(T, 1024).array).all()
        with pytest.raises(SpectralExplosionError, match="past the probe"):
            evaluate_powers(T, [1, 2], 0.1, probe_len=5)

    def test_power_budget(self, power_draws):
        """The probe's walk over T^0..T^2000 is the only draw of powers; the
        truncated series once added P + 1 = 33 845 more.  The rotation's
        chain never repeats, so its walk draws every power."""
        probe_len = 2000
        _, P = evaluate_powers(rotation_matrix(1.0), [1, 2, 3], 1e-2,
                               probe_len=probe_len)
        assert P == 1022
        assert power_draws[0] == probe_len + 1

    def test_probe_stops_at_repeat(self, power_draws):
        """This chain first repeats at p = 38 (T^38 == T^37), which the probe
        sees against its reference T^63 at p = 64, so it stops after two
        blocks of 64 powers; a walk over every power drew 2 001."""
        _, P = evaluate_powers(random_stochastic(3, 0), [1, 2, 3], 1e-2)
        assert P == 1022
        assert power_draws[0] < 200

    def test_peak_memory_is_one_block(self):
        """The walk keeps one 128 KiB buffer of powers and the reduction a
        few d x d iterates; the half MB covers these and the probed norms."""
        d = 16
        T = random_stochastic(d, 0)
        tracemalloc.start()
        try:
            _, P = evaluate_powers(T, [1, 2, 3], 1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert P == 1022
        assert peak <= 2 ** 19, peak


def scalar_reduction(steps: int, degree: int) -> tuple[list, list]:
    """G and Pi after `steps` reduction steps at T = x, as Fraction power
    series in x truncated after x^degree."""
    def mul(a, b):
        return [sum(a[i] * b[p - i] for i in range(p + 1)) for p in range(degree + 1)]

    def inverse(u):  # (1 - u)^-1 for u with no constant term
        w = [Fraction(1)] + [Fraction(0)] * degree
        for p in range(1, degree + 1):
            w[p] = sum(u[i] * w[p - i] for i in range(1, p + 1))
        return w

    zero = [Fraction(0)] * (degree + 1)
    H, L = zero[:], zero[:]
    H[1], L[0] = Fraction(1, 2), Fraction(1, 2)
    G, Pi = L, H
    for _ in range(steps):
        W = inverse([x + y for x, y in zip(mul(H, L), mul(L, H))])
        H, L = mul(W, mul(H, H)), mul(W, mul(L, L))
        G = [g + q for g, q in zip(G, mul(Pi, L))]
        Pi = mul(Pi, H)
    return G, Pi


class TestLogarithmicReduction:
    """The facts the tail bound and the guard rest on, in exact arithmetic."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_iterate_agrees_through_degree(self, k):
        """After k steps G's coefficients lie in [0, alpha(1, p)] and equal
        alpha(1, p) exactly for p <= 2^(k+1) - 2, the reported P."""
        degree = 79
        G, _ = scalar_reduction(k, degree)
        exact = [alpha(1, p) for p in range(degree + 1)]
        assert all(0 <= g <= a for g, a in zip(G, exact))
        P = 2 ** (k + 1) - 2
        assert G[:P + 1] == exact[:P + 1]
        assert G[P + 1] < exact[P + 1]

    def test_sums_at_one(self):
        """At x = 1 the iterate G sums to 1 - 2^-(k+1) and Pi to 2^-(k+1):
        H = L = 1/2 at every step."""
        H = L = G = Fraction(1, 2)
        Pi = H
        for k in range(1, 13):
            W = 1 / (1 - (H * L + L * H))
            H, L = W * H * H, W * L * L
            G, Pi = G + Pi * L, Pi * H
            assert (G, Pi) == (1 - Fraction(1, 2 ** (k + 1)), Fraction(1, 2 ** (k + 1)))

    def test_matrix_iterate_matches_series(self):
        """On the 40 x 40 shift S, row 0 of G(S) lists G's coefficients, so the
        float reduction computes the exact iterate to rounding."""
        d, k = 40, 4
        S = DenseMatrix(dim=d, array=np.eye(d, k=1))
        G, _ = scalar_reduction(k, d - 1)
        row = _reduce(S, k, 1.0, Norm.OPINF)[0]
        assert np.abs(row - [float(g) for g in G]).max() <= 1e-16


def reference_S(n: int) -> float:
    """S(n) = -2^(n-1) (sqrt(2)-1)^(n+1) / sqrt(2) at 400 bits, to the nearest float."""
    with mpmath.workprec(400):
        root2 = mpmath.sqrt(2)
        value = -mpmath.mpf(2) ** (n - 1) * (root2 - 1) ** (n + 1) / root2
        return mpmath.libmp.to_float(value._mpf_, rnd="n")


class TestWorkedExample:
    def test_S_values_match_closed_form(self):
        dpsi1 = ROOT2 - 1.0 - 1.0 / (2.0 * ROOT2)
        for n in range(1, 21):
            closed = -(2.0**n) * (ROOT2 - 1.0) ** (n - 1) * dpsi1
            assert S_value(n) == pytest.approx(closed, rel=1e-11), n

    def test_S1(self):
        assert S_value(1) == pytest.approx(-0.1213203435596426, abs=1e-13)

    def test_S_values_match_closed_form_at_400_bits(self):
        """Bit for bit against -2^(n-1) (sqrt(2)-1)^(n+1) / sqrt(2) in
        400-bit mpmath, rounded to the nearest float."""
        for n in range(1, 201):
            assert S_value(n).hex() == reference_S(n).hex(), n

    def test_S_value_reads_no_coefficient(self, monkeypatch):
        def refuse(n):
            raise AssertionError("S_value read a coefficient")

        for module in (coeffs, operators):
            monkeypatch.setattr(module, "alpha_mantissa_stream", refuse, raising=False)
        assert S_value(2000) == reference_S(2000) < 0

    def test_S_value_retry_path(self, monkeypatch):
        """From 1 + e bits (1 - a = m / 2^e) the closed form doubles K until
        both ends round alike and v's distances to them round up alike, and
        returns the floats it returns from CLOSED_FORM_BITS + e: S(n), and on
        a Jordan block every entry and tail.  The small n are the ones that
        retry: the ends differ by about one unit of 2^-K in a value near
        2^-(1.27 n).  A round is one `_enclosure` call, counted also when
        its divisor's enclosure reaches 0."""
        T = DenseMatrix.from_rows([[0.5, 0.7], [0.0, 0.5]])
        ns = range(1, 61)

        def jordan():
            return [(mat.tobytes(), tail.hex()) for norm in Norm
                    for mat, tail in evaluate_powers(T, ns, 1.0, norm)[0].values()]

        want_S, want_T = [S_value(n) for n in ns], jordan()
        enclosure, rounds = operators._enclosure, []

        def counting_enclosure(*args):
            rounds[-1] += 1
            return enclosure(*args)

        monkeypatch.setattr(operators, "CLOSED_FORM_BITS", 1)
        monkeypatch.setattr(operators, "_enclosure", counting_enclosure)
        got = []
        for n in ns:
            rounds.append(0)
            got.append(S_value(n))
        assert got == want_S
        assert min(rounds[:30]) > 1
        rounds.append(0)
        assert jordan() == want_T
        assert rounds[-1] > 2 * 2 * len(ns) * len(Norm)  # two entries per n and norm

    def test_remainder_bound_is_loose_but_positive(self):
        for n in (1, 3, 8):
            assert S_remainder_at_J(n) > 0

    def test_remainder_is_the_rounded_quotient(self):
        """Below the float range the term is C(m, k) / 4^p correctly rounded."""
        for n in [*range(1, 300, 13), 300, 500]:
            p = (n * n + n) // 2 + 1
            assert S_remainder_at_J(n) == float(Fraction(math.comb(n + 2 * p - 1, p - 1),
                                                          4 ** p)), n

    def test_remainder_forms_no_binomial(self):
        """C(m, k) of about n^2 bits is enclosed, not formed: at n = 600 it
        has 361 191 bits, and n = 1024 is the largest n below the overflow
        shortcut."""
        for n in (600, 1024):
            start = time.perf_counter()
            assert 0 < S_remainder_at_J(n) < math.inf
            assert time.perf_counter() - start < 1.0, n

    @pytest.mark.parametrize("n", [1100, 10 ** 6])
    def test_remainder_past_float_range_is_inf(self, n):
        """Past the float range the overflow is decided from Robbins' bounds
        before the binomial of about n^2 bits is formed: n = 1100 once took
        15 s to end in an OverflowError."""
        start = time.perf_counter()
        assert S_remainder_at_J(n) == math.inf
        assert time.perf_counter() - start < 1.0

    def test_appendix_example_agreement(self):
        for n in (1, 2, 5, 9, 12):
            ex = appendix_example(n)
            assert isinstance(ex, AppendixExample)
            assert ex.max_abs_difference < 1e-8, (n, ex.max_abs_difference)

    def test_appendix_example_past_float_range_of_4_to_the_p(self):
        """From n = 32 on, 4^(J(n)+1) exceeds the float range; the remainder
        bound must still come out finite and correctly rounded."""
        for n in (32, 60):
            ex = appendix_example(n)
            assert ex.max_abs_difference < 1e-8, (n, ex.max_abs_difference)
            p = (n * n + n) // 2 + 1
            exact = Fraction(math.comb(n + 2 * p - 1, p - 1), 4 ** p)
            assert math.isfinite(ex.remainder_at_J)
            assert ex.remainder_at_J == float(exact)
        assert appendix_example(60).remainder_at_J == pytest.approx(4.57e15, rel=1e-3)

    def test_diagonal_value_n1(self):
        ex = appendix_example(1)
        assert ex.closed_form.array[0, 0] == pytest.approx(0.41421356, abs=1e-8)
        assert ex.closed_form.array[1, 0] == 0.0

    def test_off_diagonal_trend_bound(self):
        limit = 4 * math.exp(1 / 12) * math.sqrt(2 / math.pi) + 0.5
        worst = max(
            n * 2.0 ** (1 - n) * abs(S_value(n)) for n in range(1, 61)
        )
        assert worst <= limit
        # the observed maximum sits at n = 1
        assert worst == pytest.approx(1 * 2.0**0 * abs(S_value(1)), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            S_value(0)


def assert_domination_gaps(T: DenseMatrix, N_max: int) -> None:
    """check_cesaro_domination at slack -inf fails every N with the gap a
    loop over single powers and precomputed r-prefix sums of A^l gives."""
    report = check_cesaro_domination(T, N_max=N_max, slack=-math.inf)
    assert report.checks == len(report.failures) == N_max
    C = technical_C_down()
    r_max = math.isqrt(N_max)
    powers, _ = evaluate_powers(T, list(range(1, r_max + 1)), 0.05)
    prefix = [np.zeros((T.dim, T.dim))]
    for ell in range(1, r_max + 1):
        prefix.append(prefix[-1] + powers[ell][0])
    lhs_sum = np.zeros((T.dim, T.dim))
    want = []
    for N, power in enumerate(islice(plain_powers(T), 1, N_max + 1), start=1):
        lhs_sum += power
        r = math.isqrt(N)
        want.append(float((lhs_sum / N - (C / r) * prefix[r]).max()))
    got = [f["lhs"] for f in report.failures]
    assert [f["params"] for f in report.failures] == [{"N": N} for N in range(1, N_max + 1)]
    assert [g.hex() for g in got] == [w.hex() for w in want]


class TestTheoremChecks:
    def test_power_bound_identity(self):
        report = check_power_bound_theorem(DenseMatrix.identity(2), n_max=12)
        assert report.passed, report.failures[:2]
        assert report.suite == "power_bound"
        assert report.checks == 24

    def test_power_bound_rotation(self):
        report = check_power_bound_theorem(rotation_matrix(1.0), n_max=8)
        assert report.passed, report.failures[:2]

    def test_power_bound_stochastic(self):
        report = check_power_bound_theorem(random_stochastic(5, 0, doubly=True), n_max=8)
        assert report.passed, report.failures[:2]

    def test_power_bound_rejects_explosive(self):
        with pytest.raises(SpectralExplosionError):
            check_power_bound_theorem(DenseMatrix.from_rows([[1.5]]), n_max=4)

    @pytest.mark.parametrize("check, name", [
        (lambda: check_power_bound_theorem(DenseMatrix.identity(2), n_max=0), "n_max"),
        (lambda: check_mean_bound_theorem(APPENDIX_T, n_max=-3), "n_max"),
        (lambda: check_cesaro_domination(DenseMatrix.identity(2), N_max=0), "N_max"),
        (lambda: random_stochastic(0, 0), "dim"),
        (lambda: DenseMatrix.identity(0), "dim"),
        (lambda: cesaro(APPENDIX_T, 0), "N"),
        (lambda: S_remainder_at_J(0), "n"),
    ], ids=["power-0", "mean-minus3", "domination-0", "stochastic-dim-0",
            "identity-dim-0", "cesaro-N-0", "remainder-n-0"])
    def test_degenerate_range_names_parameter(self, check, name):
        """n_max = 0 once passed with 0 checks; -3 and N_max = 0 failed on
        the inner n_list instead of naming the parameter; dim = 0 returned an
        empty matrix, and as DenseMatrix.identity(0) it reached an IndexError;
        S_remainder_at_J(0) returned 0.25."""
        with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
            check()

    def test_mean_bound_appendix(self):
        report = check_mean_bound_theorem(APPENDIX_T, n_max=8)
        assert report.passed, report.failures[:2]
        assert report.suite == "mean_bound"

    def test_mean_bound_identity(self):
        report = check_mean_bound_theorem(DenseMatrix.identity(2), n_max=8)
        assert report.passed, report.failures[:2]

    def test_mean_bound_stochastic(self):
        report = check_mean_bound_theorem(random_stochastic(4, 1), n_max=6)
        assert report.passed, report.failures[:2]

    def test_domination_identity(self):
        report = check_cesaro_domination(DenseMatrix.identity(3), N_max=50)
        assert report.passed, report.failures[:2]
        assert report.suite == "cesaro_domination"
        assert report.checks == 50

    def test_domination_zero(self):
        report = check_cesaro_domination(
            DenseMatrix.from_rows([[0.0, 0.0], [0.0, 0.0]]), N_max=50
        )
        assert report.passed, report.failures[:2]

    def test_domination_stochastic(self):
        report = check_cesaro_domination(random_stochastic(3, 0), N_max=50)
        assert report.passed, report.failures[:2]

    @pytest.mark.parametrize("T", [random_stochastic(3, 0), DenseMatrix.identity(3)],
                             ids=["row3", "identity"])
    def test_domination_gaps_bit_for_bit(self, T):
        """At slack -inf every cell fails and records its gap; the gaps equal
        those of a loop over precomputed r-prefix sums of A^l."""
        assert_domination_gaps(T, 50)

    @pytest.mark.parametrize("T, N_max", [(random_stochastic(3, 0), 200),
                                          (random_stochastic(32, 0), 70)],
                             ids=["row3-200", "row32-70"])
    def test_domination_gaps_across_blocks(self, T, N_max):
        """The left side's sums and gaps run on across power blocks of 64
        (d = 3) and 16 (d = 32) powers."""
        assert_domination_gaps(T, N_max)

    def test_domination_probe_len_reaches_power_probe(self):
        """The right side's power probe reads probe_len powers, not 2000:
        the norms of this T peak near p = 9, past a probe of 3."""
        T = DenseMatrix.from_rows(
            [[0.9, 1.0, 0.0], [0.0, 0.9, 0.0], [0.0, 0.0, 0.5]]
        )
        ells = [1, 2, 3, 4]
        report = check_cesaro_domination(T, N_max=16, eps=0.2, probe_len=3)
        short = evaluate_powers(T, ells, 0.2, probe_len=3)[1]
        assert report.rectangle["P"] == short
        assert short < evaluate_powers(T, ells, 0.2)[1]

    @pytest.mark.parametrize("check", [
        lambda: check_power_bound_theorem(random_stochastic(16, 0), eps=0.0),
        lambda: check_mean_bound_theorem(random_stochastic(16, 0), eps=-1),
    ], ids=["power-eps-0", "mean-eps-minus1"])
    def test_bad_eps_rejected_before_the_walk(self, power_draws, check):
        """eps is checked before the probe, which once drew 2 001 powers first."""
        with pytest.raises(ValueError, match="eps must be positive"):
            check()
        assert power_draws[0] == 0

    def test_power_bound_walks_once(self, power_draws):
        """M and the series come from one walk; probing for M and again for
        the series drew 5 027 powers."""
        T = random_stochastic(3, 1, doubly=True)
        report = check_power_bound_theorem(T, n_max=40)
        assert report.passed
        assert power_draws[0] == walk_draws(power_draws, T)

    def test_mean_bound_walks_once(self, power_draws):
        """M and the series come from one walk; a separate mean probe and the
        evaluation's power walk drew 4 001 powers."""
        T = random_stochastic(4, 1)
        report = check_mean_bound_theorem(T, n_max=6)
        assert report.passed
        assert power_draws[0] == walk_draws(power_draws, T, means=True)

    def test_mean_bound_closed_form_walks_once(self, power_draws):
        """M comes from exact sums and A^n from the closed form, so the
        check draws no power; the means-only walk drew 2 001."""
        report = check_mean_bound_theorem(APPENDIX_T, n_max=6)
        assert report.passed
        assert power_draws[0] == 0

    def test_mean_bound_needs_no_power_bound(self):
        """The means of this Jordan block peak at 500 while ||T^1000|| is
        about 1e6; on the closed-form path no power is drawn or probed."""
        T = DenseMatrix.from_rows([[-1.0, 1e3], [0.0, -1.0]])
        report = check_mean_bound_theorem(T, n_max=6)
        assert report.passed, report.failures[:2]
        assert report.rectangle["M"] == 500.0

    def test_mean_bound_general_path_probes_powers(self):
        """On the general path the walk also takes the power norms the series
        truncation reads, so the same block beside a 0.5 explodes."""
        T = DenseMatrix.from_rows(
            [[-1.0, 1e3, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.5]]
        )
        with pytest.raises(SpectralExplosionError, match=r"\|\|T\^1000\|\|"):
            check_mean_bound_theorem(T, n_max=4)

    def test_mean_bound_explosion_raises_at_first_power(self):
        """Powers and means both explode; the power past the cutoff comes first."""
        T = DenseMatrix.from_rows([[2.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.1]])
        with pytest.raises(SpectralExplosionError,
                           match=r"^\|\|T\^20\|\| = 1\.04858e\+06 "):
            check_mean_bound_theorem(T, n_max=4)

    def test_power_bound_closed_form_keeps_no_block(self):
        """A scalar input is evaluated in closed form, so the walk that gives
        M keeps no more than its 128 KiB buffer of powers."""
        T = DenseMatrix(dim=64, array=0.5 * np.eye(64))
        tracemalloc.start()
        try:
            report = check_power_bound_theorem(T, n_max=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 2 ** 20, peak

    def test_domination_walks_once(self, power_draws):
        """One walk for the A^l series plus T^0..T^N_max for the left side;
        a discarded mean probe and a second walk drew 5 227."""
        T = random_stochastic(3, 0)
        report = check_cesaro_domination(T, N_max=200)
        assert report.passed
        assert power_draws[0] == walk_draws(power_draws, T) + 201

    def test_domination_explosion_caught_by_power_probe(self):
        """Without a mean probe, the power probe rejects growing powers."""
        T = DenseMatrix.from_rows([[2.0, 0.0], [0.0, 0.5]])
        with pytest.raises(SpectralExplosionError):
            check_cesaro_domination(T, N_max=16)

    def test_domination_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            check_cesaro_domination(APPENDIX_T, N_max=10)


def reference_means(a: float, b: float, d: int, L: int) -> list[dict[Norm, mpmath.mpf]]:
    """||(T^0 + ... + T^(N-1))/N|| in each norm for N = 1..L, for
    T = a I_d + b E (E the 2x2 superdiagonal unit), in 300-bit arithmetic."""
    ctx = mpmath.mp.clone()
    ctx.prec = 300
    a, b = ctx.mpf(a), ctx.mpf(b)
    u = v = apm = ctx.mpf(0)  # apm = a^(p-1)
    ap, means = ctx.mpf(1), []
    for N in range(1, L + 1):
        u, v = u + ap, v + (N - 1) * apm
        means.append({Norm.OPINF: (abs(u) + abs(b * v)) / N,
                      Norm.MAX: max(abs(u), abs(b * v)) / N,
                      Norm.FROBENIUS: ctx.sqrt(d * u * u + b * b * v * v) / N})
        apm, ap = ap, ap * a
    return means


def reference_mean_sups(a: float, b: float, d: int, L: int) -> dict[Norm, mpmath.mpf]:
    means = reference_means(a, b, d, L)
    return {norm: max(m[norm] for m in means) for norm in Norm}


def assert_tight_bound(M: float, sup) -> None:
    """M is the least float at or above max(1, sup)."""
    assert M >= max(1, sup) > math.nextafter(M, 0.0), (M, sup)


class TestCertifiedMeans:
    """M of the mean check on closed-form inputs, from exact sums."""

    @pytest.mark.parametrize("a, b", [(0.3, 1.0), (-0.7, 2.0), (0.999999, 1.0)])
    def test_never_below_window_sup(self, a, b):
        """The float walk reported 1.15, 1.15 and 999.1686636375928, each
        below the sup of the means over N <= 2000."""
        T = DenseMatrix.from_rows([[a, b], [0.0, a]])
        M = check_mean_bound_theorem(T, n_max=1).rectangle["M"]
        assert M >= reference_mean_sups(a, b, 2, 2000)[Norm.OPINF]

    @pytest.mark.parametrize("a, b, d", [
        (0.3, 1.0, 2), (-0.7, 2.0, 2), (0.999999, 1.0, 2), (0.999, 1.0, 2),
        (-0.999, 1.0, 2), (0.99, -3.0, 2), (0.5, 1.0, 2), (2.0 ** -60, 7.0, 2),
        (-1.0, 2 * ROOT2, 2), (0.0, 3.0, 2), (1.0, 0.5, 2), (-0.6, 0.0, 3),
        (1.0, 0.0, 3), (-1.0, 0.0, 1),
    ])
    def test_least_float_above_window_sup(self, a, b, d):
        """In every norm M is the least float at or above the sup over the
        window: the sums' error bounds stay below the float spacing here."""
        sups = reference_mean_sups(a, b, d, 2000)
        for norm in Norm:
            assert_tight_bound(_mean_bound(a, b, d, norm, 2000), sups[norm])

    def test_frobenius_on_scalar_rounds_up(self):
        """On I_3 every FRO mean is sqrt(3), and fl(sqrt(3)) lies below it."""
        assert math.sqrt(3.0) ** 2 < 3
        assert _mean_bound(1.0, 0.0, 3, Norm.FROBENIUS, 2000) == math.nextafter(
            math.sqrt(3.0), math.inf)

    @pytest.mark.parametrize("a, b", [(-1.0, 2.0), (-1.0, 0.5), (-1.0, 3.0), (0.0, 3.0),
                                      (0.3, 1.0), (0.99, 1.0)])
    def test_bound_holds_past_the_window(self, a, b):
        """At a = -1 (the parity argument), at a = 0 and, once B/N falls
        below the largest mean, for |a| < 1, M bounds the means of every N:
        a window of 2000 gives the same M as one of 10^9, and that M is at
        least the sup over N <= 6000."""
        sups = reference_mean_sups(a, b, 2, 6000)
        for norm in Norm:
            M = _mean_bound(a, b, 2, norm, 2000)
            assert M == _mean_bound(a, b, 2, norm, 10 ** 9)
            assert M >= sups[norm]

    @pytest.mark.parametrize("probe_len", [1, 2])
    def test_short_windows_on_worked_example(self, probe_len):
        """The float walk's M on windows of one and two means."""
        want = {Norm.OPINF: 1.0, Norm.FROBENIUS: ROOT2, Norm.MAX: 1.0}
        for norm in Norm:
            report = check_mean_bound_theorem(APPENDIX_T, n_max=2, norm=norm,
                                              probe_len=probe_len)
            assert report.rectangle["M"] == want[norm]

    @pytest.mark.parametrize("b, name", [(1e4, "M_201"), (-1e4, "M_201")])
    def test_unit_eigenvalue_raises_at_first_mean_past_cutoff(self, b, name):
        """At a = 1 the means 1 + |b| (N-1)/2 grow with N; the first past
        1e6 is found by bisection, and the probe error precedes the
        closed form's divergence error."""
        T = DenseMatrix.from_rows([[1.0, b], [0.0, 1.0]])
        with pytest.raises(MeanBoundProbeError, match=rf"^\|\|{name}\|\| = 1e\+06 "):
            check_mean_bound_theorem(T, n_max=2)

    def test_worked_example_scaled_raises_at_second_mean(self):
        T = DenseMatrix.from_rows([[-1.0, 4e6], [0.0, -1.0]])
        with pytest.raises(MeanBoundProbeError, match=r"^\|\|M_2\|\| = 2e\+06 "):
            check_mean_bound_theorem(T, n_max=2)

    def test_unit_eigenvalue_window_end(self):
        """M is the mean at N = probe_len, 1 + 0.5 * 1999 / 2; the closed
        form then reports the divergence of (psi^n)' at a = 1."""
        assert _mean_bound(1.0, 0.5, 2, Norm.OPINF, 2000) == 500.75
        T = DenseMatrix.from_rows([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NonConvergenceError, match="diverges at a = 1"):
            check_mean_bound_theorem(T, n_max=2)

    @pytest.mark.parametrize("a, b", [(-0.5, 3e6), (0.999, 2e4), (0.9, 4e5)])
    def test_error_names_first_mean_past_cutoff(self, a, b):
        """For |a| < 1 the sums run in order, and the error names the first
        N whose exact OPINF mean passes 1e6 (a float walk with the power
        norms would stop first at a power, except at M_2)."""
        N = next(N for N, means in enumerate(reference_means(a, b, 2, 2000), start=1)
                 if means[Norm.OPINF] > 1e6)
        with pytest.raises(MeanBoundProbeError, match=rf"^\|\|M_{N}\|\| = "):
            _mean_bound(a, b, 2, Norm.OPINF, 2000)


class TestEigOracle:
    """The numpy oracle the series is held to, checked on known spectra."""

    def test_diagonal_matrix(self):
        D = DenseMatrix.from_rows([[0.3, 0.0], [0.0, -0.8]])
        for n in (1, 3):
            expected = np.diag([psi_eval(0.3, n), psi_eval(-0.8, n)])
            assert np.allclose(eig_oracle(D, n), expected, rtol=1e-14, atol=0)

    def test_matches_eigh_on_symmetric(self):
        T = sym3()
        lams, Q = np.linalg.eigh(T.array)
        for n in (1, 2):
            expected = Q @ np.diag([psi_eval(l, n) for l in lams]) @ Q.T
            assert np.allclose(eig_oracle(T, n), expected, rtol=0, atol=1e-14)

    def test_scalar_fast_path(self):
        T = DenseMatrix(dim=3, array=0.5 * np.eye(3))
        for n in (1, 2):
            r = brunel(T, n, eps=1e-12)
            assert np.allclose(r.matrix.array, eig_oracle(T, n), rtol=1e-12, atol=0)


class TestMatrixGenerators:
    def test_row_stochastic(self):
        m = random_stochastic(4, 3)
        assert (m.array >= 0).all()
        assert m.array.sum(axis=1) == pytest.approx(np.ones(4), abs=1e-12)

    def test_doubly_stochastic(self):
        m = random_stochastic(5, 0, doubly=True)
        assert m.array.sum(axis=1) == pytest.approx(np.ones(5), abs=1e-12)
        assert m.array.sum(axis=0) == pytest.approx(np.ones(5), abs=1e-9)

    def test_seed_determinism(self):
        a = random_stochastic(3, 11)
        b = random_stochastic(3, 11)
        assert np.array_equal(a.array, b.array)
        c = random_stochastic(3, 12)
        assert not np.array_equal(a.array, c.array)

    def test_rotation_is_orthogonal(self):
        R = rotation_matrix(1.0)
        assert np.allclose(R.array @ R.array.T, np.eye(2), atol=1e-15)
