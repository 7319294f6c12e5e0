"""Tests for matrix-scale series evaluation and the operator theorems."""

import json
import math
import tracemalloc
from fractions import Fraction
from itertools import islice

import mpmath
import numpy as np
import pytest

from artifact import operators
from artifact.coeffs import alpha, alpha_float_blocks, alpha_tail_envelope, psi_eval
from artifact.operators import (
    APPENDIX_T,
    AppendixExample,
    BrunelResult,
    DenseMatrix,
    MeanBoundProbeError,
    NonConvergenceError,
    Norm,
    POWER_BLOCK,
    S_remainder_at_J,
    S_value,
    SpectralExplosionError,
    _pick_P,
    _powers,
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
    probe_mean_bound,
    probe_power_bound,
    random_stochastic,
    rotation_matrix,
)

ROOT2 = math.sqrt(2.0)


def sym3() -> DenseMatrix:
    return DenseMatrix.from_rows(
        [[0.4, 0.2, 0.0], [0.2, -0.1, 0.3], [0.0, 0.3, 0.2]]
    )


@pytest.fixture
def power_draws(monkeypatch):
    """A one-entry list counting the powers drawn from `operators._powers`."""
    drawn = [0]

    def counting(T):
        for power in _powers(T):
            drawn[0] += 1
            yield power

    monkeypatch.setattr(operators, "_powers", counting)
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
            probe_power_bound(DenseMatrix.from_rows([[2.0]]))

    def test_power_probe_rotation_is_unit(self):
        norms = probe_power_bound(rotation_matrix(1.0), probe_len=100)
        assert max(norms) <= ROOT2 + 1e-12

    def test_power_probe_stops_at_zero(self):
        shift = DenseMatrix.from_rows([[0.0, 1.0], [0.0, 0.0]])
        norms = probe_power_bound(shift, probe_len=100)
        assert norms == [1.0, 0.0]

    def test_mean_probe_appendix_is_one(self):
        assert probe_mean_bound(APPENDIX_T, probe_len=500) == pytest.approx(1.0)

    @pytest.mark.parametrize("probe_len", [0, -1])
    def test_probe_len_must_be_positive(self, probe_len):
        """probe_len = 0 once gave a mean bound of 0.0 and a misleading P error."""
        T = random_stochastic(3, 0)
        for evaluate in (
            lambda: probe_power_bound(T, probe_len),
            lambda: probe_mean_bound(T, probe_len),
            lambda: evaluate_powers(T, [1], 0.1, probe_len=probe_len),
            lambda: evaluate_powers(DenseMatrix.identity(2), [1], 0.1, probe_len=probe_len),
        ):
            with pytest.raises(ValueError, match="probe_len must be >= 1"):
                evaluate()

    @pytest.mark.parametrize("norm", list(Norm), ids=[n.value for n in Norm])
    @pytest.mark.parametrize("T", [random_stochastic(4, 1), rotation_matrix(1.0),
                                   APPENDIX_T], ids=["row4", "rotation", "appendix"])
    def test_mean_probe_matches_separate_loop(self, T, norm):
        """The means taken by the walk, alone (`probe_mean_bound`) or beside
        the power norms (the general-path mean check), equal those of the
        separate loop the probe once ran."""
        best = 0.0
        acc = np.zeros((T.dim, T.dim))
        for N, power in enumerate(islice(_powers(T), 2000), start=1):
            acc += power
            best = max(best, norm.compute(acc) / N)
        assert probe_mean_bound(T, norm=norm) == best
        report = check_mean_bound_theorem(T, n_max=1, norm=norm)
        assert report.rectangle["M"] == max(1.0, best)

    def test_mean_probe_explodes_on_expansion(self):
        with pytest.raises(MeanBoundProbeError):
            probe_mean_bound(DenseMatrix.from_rows([[2.0]]), probe_len=200)

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

    def test_nilpotent_is_exact_polynomial(self):
        shift = DenseMatrix.from_rows(
            [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
        )
        r = brunel(shift, 1, eps=1e-15)
        expected = (
            0.5 * np.eye(3) + 0.125 * shift.array + 0.0625 * (shift.array @ shift.array)
        )
        assert np.allclose(r.matrix.array, expected, atol=1e-16)
        assert r.tail_bound == 0.0
        assert r.truncation_P == 2


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

    def test_eps_below_rounding_bound_raises(self):
        with pytest.raises(NonConvergenceError, match="rounding bound"):
            brunel(DenseMatrix.from_rows([[0.5]]), 1, eps=1e-30)
        with pytest.raises(NonConvergenceError, match="rounding bound"):
            brunel(APPENDIX_T, 7, eps=1e-30, norm=Norm.FROBENIUS)


class TestBrunelGeneralPath:
    def test_explosion_signal(self):
        with pytest.raises(SpectralExplosionError):
            brunel(DenseMatrix.from_rows([[2.0, 0.0], [0.0, 0.5]]), 1, eps=0.1)

    def test_overflow_past_short_probe_signalled(self):
        """A probe too short to see the growth still cannot yield non-finite
        entries: the overflow inside a block of powers is caught."""
        T = DenseMatrix.from_rows([[1.5, 0.0], [0.0, 0.2]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SpectralExplosionError, match="overflowed"):
                evaluate_powers(T, [1], 0.1, probe_len=5)

    def test_non_convergence_at_tiny_eps(self):
        with pytest.raises(NonConvergenceError):
            brunel(rotation_matrix(1.0), 1, eps=1e-10)

    def test_result_fields(self):
        r = brunel(rotation_matrix(1.0), 1, eps=0.05)
        assert isinstance(r, BrunelResult)
        assert r.truncation_P >= 16
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

    @pytest.mark.parametrize("eps, one_block", [(0.1, True), (0.04, False)])
    @pytest.mark.parametrize("T", [
        rotation_matrix(1.0),
        random_stochastic(3, 0, doubly=True),
        random_stochastic(16, 0),
    ], ids=["rotation", "doubly3", "row16"])
    def test_series_within_tail_of_eig_oracle(self, T, eps, one_block):
        """The truncated series is within its certified tail of psi(T)^n,
        whether P falls inside the first block of powers or past a block
        boundary at no multiple of the block length."""
        powers, P = evaluate_powers(T, [1, 2, 3], eps)
        if one_block:
            assert P < POWER_BLOCK
        else:
            assert P > POWER_BLOCK and P % POWER_BLOCK != 0
        for n in (1, 2, 3):
            mat, tail = powers[n]
            assert 0 < tail <= eps
            assert Norm.OPINF.compute(mat - eig_oracle(T, n)) <= tail, n

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: M is the largest ||T^p|| over p <= probe_len = 2000 "
        "(17.2 here), not a certified bound; sup_p ||T^p|| = 37.2 near p = 10^4"))
    @pytest.mark.parametrize("b, eps", [(0.01, 0.2), (0.003, 0.1)])
    def test_tail_bound_holds_past_the_probe(self, b, eps):
        """At b = 0.01: P = 2780, tail_bound 0.19998, error 0.23143; at
        b = 0.003: tail_bound 0.09997, error 0.10081."""
        a = 0.9999
        T = DenseMatrix.from_rows([[a, b, 0.0], [0.0, a, 0.0], [0.0, 0.0, 0.5]])
        r = brunel(T, 1, eps=eps)
        R = reference_jordan(a, b, 3, 1)
        R[2][2] = reference_jordan(0.5, 0.0, 1, 1)[0][0]
        with mpmath.workprec(200):
            E = [[mpmath.mpf(float(x)) - y for x, y in zip(row, ref)]
                 for row, ref in zip(r.matrix.array, R)]
            assert reference_norm(E, Norm.OPINF) <= r.tail_bound

    def test_general_path_memory_is_bounded(self):
        """Powers stream in blocks: a (P+1) x d^2 buffer of all powers would
        take 265 MB here, while the traced peak must stay under 32 MB."""
        T = random_stochastic(32, 0)
        tracemalloc.start()
        try:
            _, P = evaluate_powers(T, [1, 2, 3], 1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert P == 33844
        assert peak < 32 * 2 ** 20, peak

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

    @pytest.mark.parametrize("n, M, eps, want", [
        (41, 1.0, 0.1, 63213),         # check_power_bound_theorem, n_max = 40
        (41, None, 0.1, 126424),       # the same on rotation_matrix(1.0)
        (1, 1.0, 1e-3, 376039),        # brunel at n = 1, eps = 1e-3
        (9, 1.000000000000002, 0.1, 3046),  # a start that needs no step
    ])
    def test_pick_P_is_minimal(self, n, M, eps, want):
        """The smallest P with envelope(n, P) M <= eps: the search once
        doubled P whenever its start fell a few terms short."""
        if M is None:
            M = max([1.0] + probe_power_bound(rotation_matrix(1.0)))
        P = _pick_P(n, M, eps)
        assert P == want
        assert alpha_tail_envelope(n, P) * M <= eps < alpha_tail_envelope(n, P - 1) * M

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
    ], ids=["n-2.5", "n-2.5-closed-form", "n-True", "probe_len-8.0", "brunel-n-2.0",
            "n_max-True", "N_max-2.5", "dim-2.0", "matrix-dim-True", "cesaro-N-True",
            "cesaro-N-2.5", "power-k-True", "power-k-2.5"])
    def test_non_integer_counts_rejected(self, call):
        """The tail envelope is proved for integer n only: n = 2.5 once got a
        "certified" tail, True was keyed True, and N_max = 2.5 raised a bare
        TypeError.  A matrix of dim True was accepted, cesaro(T, True) was
        the identity and cesaro(T, 2.5) failed inside islice."""
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


def sequential_pass(T: DenseMatrix, n_list: list[int], P: int) -> np.ndarray:
    """sum_p alpha(n, p) T^p by one matrix product per power, for reference."""
    d = T.dim
    flat = np.zeros((len(n_list), d * d))
    powers = _powers(T)
    for rows in alpha_float_blocks(n_list, P, POWER_BLOCK):
        block = np.array([p.reshape(-1) for p in islice(powers, rows.shape[1])])
        flat += rows @ block
    return flat.reshape(len(n_list), d, d)


class TestStridedPowerPass:
    """The general path sums block j as (sum_i alpha(n, jw+i) T^i) T^(jw)."""

    @pytest.mark.parametrize("T, probe_len", [
        (random_stochastic(3, 0), 8),
        (random_stochastic(16, 0), 8),
        (rotation_matrix(1.0), 8),
        (random_stochastic(3, 0), 2000),
    ], ids=["row3", "row16", "rotation", "row3-probe2000"])
    @pytest.mark.parametrize("n_list", [[1], [1, 2, 3], list(range(1, 42))],
                             ids=["n1", "n1-3", "n1-41"])
    @pytest.mark.parametrize("P", [5, 1023, 1024, 1025, 2049, 33844])
    def test_matches_sequential_pass(self, monkeypatch, T, probe_len, n_list, P):
        """A probe of 8 powers leaves most of the block to be drawn after it;
        one of 2000 (at least POWER_BLOCK + 1) fills the block and S itself."""
        monkeypatch.setattr(operators, "_pick_P", lambda n, M, eps: P)
        powers, got_P = evaluate_powers(T, n_list, 0.1, probe_len=probe_len)
        assert got_P == P
        ref = sequential_pass(T, n_list, P)
        for i, n in enumerate(n_list):
            scale = max(1.0, Norm.OPINF.compute(ref[i]))
            assert Norm.OPINF.compute(powers[n][0] - ref[i]) <= 1e-14 * scale, n

    def test_overflow_past_first_stride_signalled(self):
        """1.9^p overflows first at p = 1106, so T^0..T^1024 are finite and
        only the products with the stride T^1024 can overflow."""
        T = DenseMatrix.from_rows([[1.9, 0.0], [0.0, 0.2]])
        assert np.isfinite(matrix_power(T, POWER_BLOCK).array).all()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SpectralExplosionError, match="overflowed"):
                evaluate_powers(T, [1, 2], 0.1, probe_len=5)

    def test_power_budget(self, power_draws):
        """The probe's walk over T^0..T^2000 already holds the block and the
        stride T^POWER_BLOCK, so the pass draws no power of its own; with a
        second walk for the block it was 3 026, and with one product per
        power P + 1 = 33 845 more."""
        probe_len = 2000
        _, P = evaluate_powers(random_stochastic(3, 0), [1, 2, 3], 1e-2,
                              probe_len=probe_len)
        assert P == 33844
        assert power_draws[0] == probe_len + 1

    def test_peak_memory_is_one_block(self):
        """The walk writes T^0..T^POWER_BLOCK into one preallocated block; a
        list of powers stacked afterwards would hold them twice.  The half MB
        covers the float coefficient blocks and the probed norms, which do
        not grow with d; a second block is 2.1 MB at d = 16."""
        d = 16
        T = random_stochastic(d, 0)
        tracemalloc.start()
        try:
            _, P = evaluate_powers(T, [1, 2, 3], 1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert P == 33844
        assert peak <= (POWER_BLOCK + 2) * d * d * 8 + 2 ** 19, peak


class TestWorkedExample:
    def test_S_values_match_closed_form(self):
        dpsi1 = ROOT2 - 1.0 - 1.0 / (2.0 * ROOT2)
        for n in range(1, 21):
            closed = -(2.0**n) * (ROOT2 - 1.0) ** (n - 1) * dpsi1
            assert S_value(n) == pytest.approx(closed, rel=1e-11), n

    def test_S1(self):
        assert S_value(1) == pytest.approx(-0.1213203435596426, abs=1e-13)

    def test_remainder_bound_is_loose_but_positive(self):
        for n in (1, 3, 8):
            assert S_remainder_at_J(n) > 0

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

    def test_power_bound_walks_once(self, power_draws):
        """M and the series come from one walk; probing for M and again for
        the series drew 5 027 powers."""
        report = check_power_bound_theorem(random_stochastic(3, 1, doubly=True),
                                           n_max=40)
        assert report.passed
        assert power_draws[0] == 2001

    def test_mean_bound_walks_once(self, power_draws):
        """M and the series come from one walk; a separate mean probe and the
        evaluation's power walk drew 4 001 powers."""
        report = check_mean_bound_theorem(random_stochastic(4, 1), n_max=6)
        assert report.passed
        assert power_draws[0] == 2001

    def test_mean_bound_closed_form_walks_once(self, power_draws):
        report = check_mean_bound_theorem(APPENDIX_T, n_max=6)
        assert report.passed
        assert power_draws[0] <= 2001

    def test_mean_bound_needs_no_power_bound(self):
        """The means of this Jordan block peak at 500 while ||T^1000|| is
        about 1e6, so its walk, on the closed-form path, takes means only."""
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
        M keeps no powers: a block of POWER_BLOCK + 1 powers is 32 MB here."""
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
        report = check_cesaro_domination(random_stochastic(3, 0), N_max=200)
        assert report.passed
        assert power_draws[0] == 2001 + 201

    def test_domination_explosion_caught_by_power_probe(self):
        """Without a mean probe, the power probe rejects growing powers."""
        T = DenseMatrix.from_rows([[2.0, 0.0], [0.0, 0.5]])
        with pytest.raises(SpectralExplosionError):
            check_cesaro_domination(T, N_max=16)

    def test_domination_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            check_cesaro_domination(APPENDIX_T, N_max=10)


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
