import numpy as np
import pytest
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf, dpotrs

import lpreg.harness as harness
import lpreg.linalg as linalg
from lpreg.errors import (
    InvalidInputError,
    NonFiniteError,
    RankDeficientError,
    SingularGramError,
)
from lpreg.linalg import (
    DenseMatrix,
    SolveCounter,
    approx_lev,
    gram_solve_multi,
    leverage_scores,
    read_matrix,
    read_vector,
    write_matrix,
    write_vector,
)

from diagnostics import exact_leverage_scores, plant_dual_instance


def random_matrix(n, d, seed):
    rng = np.random.default_rng(seed)
    return DenseMatrix(rng.standard_normal((n, d)))


class TestDenseMatrix:
    def test_shape_and_rank_validation(self):
        with pytest.raises(InvalidInputError):
            DenseMatrix(np.ones((2, 3)))
        with pytest.raises(RankDeficientError):
            DenseMatrix(np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]))
        with pytest.raises(NonFiniteError):
            DenseMatrix(np.array([[1.0], [np.nan]]))

    def test_accepts_square(self):
        m = DenseMatrix(np.eye(3))
        assert m.n == 3 and m.d == 3


class TestGramSolve:
    def test_identity_system(self):
        A = DenseMatrix(np.eye(2))
        x = gram_solve_multi(A, np.ones(2), np.array([3.0, 4.0]))
        assert np.allclose(x, [3.0, 4.0], atol=1e-12)

    def test_hand_inverted_system(self):
        # A^T A = [[2, 1], [1, 2]], rhs (1, 0) -> (2/3, -1/3)
        A = DenseMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        x = gram_solve_multi(A, np.ones(3), np.array([1.0, 0.0]))
        assert np.allclose(x, [2.0 / 3.0, -1.0 / 3.0], atol=1e-12)

    def test_diagonal_system(self):
        A = DenseMatrix(np.eye(2))
        x = gram_solve_multi(A, np.array([2.0, 5.0]), np.array([2.0, 5.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-12)

    def test_counter_increments_once_per_solve(self):
        A = random_matrix(20, 4, 0)
        c = SolveCounter()
        gram_solve_multi(A, np.ones(20), np.ones(4), counter=c)
        assert c.gram_solves == 1
        gram_solve_multi(A, np.ones(20), np.ones((4, 7)), counter=c)
        assert c.gram_solves == 8
        assert c.factorizations == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_meets_rtol(self, seed):
        rng = np.random.default_rng(seed)
        A = random_matrix(60, 8, seed)
        dvals = rng.uniform(0.1, 10.0, size=60)
        rhs = rng.standard_normal(8)
        x = gram_solve_multi(A, dvals, rhs)
        gram = (A.a * dvals[:, None]).T @ A.a
        assert np.linalg.norm(gram @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_floor_rescues_zero_weights(self):
        A = DenseMatrix(np.vstack([np.eye(2), np.ones((1, 2))]))
        D = np.array([1.0, 1.0, 0.0])
        x = gram_solve_multi(A, D, np.array([1.0, 2.0]))
        assert np.allclose(x, [1.0, 2.0], atol=1e-10)

    def test_rejects_bad_rhs(self):
        A = DenseMatrix(np.eye(2))
        with pytest.raises(InvalidInputError):
            gram_solve_multi(A, np.ones(2), np.ones(3))
        with pytest.raises(NonFiniteError):
            gram_solve_multi(A, np.ones(2), np.array([np.inf, 0.0]))
        with pytest.raises(InvalidInputError):
            gram_solve_multi(A, np.ones(2), np.ones((3, 2)))

    def test_weight_contract(self):
        A = DenseMatrix(np.eye(2))
        with pytest.raises(InvalidInputError):
            gram_solve_multi(A, np.array([1.0, -1e-300]), np.ones(2))
        for bad in (np.inf, np.nan):
            with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
                gram_solve_multi(A, np.array([1.0, bad]), np.ones(2))

    @pytest.mark.parametrize("columns", [None, 1, 5])
    def test_same_bits_as_cho_solve(self, columns):
        # dpotrs is the routine cho_solve wraps, so the direct call changes
        # no bit of the solution.
        rng = np.random.default_rng(7)
        A = random_matrix(160, 8, 7)
        w = rng.uniform(1e-6, 10.0, size=160)
        rhs = rng.standard_normal(8 if columns is None else (8, columns))
        q, r = A.qr
        ur = linalg._cholesky((q * w[:, None]).T @ q, A.n).T @ r
        expect = cho_solve((ur, False), rhs, check_finite=False)
        assert np.array_equal(gram_solve_multi(A, w, rhs), expect)

    def test_dpotrs_argument_error_raises(self, monkeypatch):
        monkeypatch.setattr(linalg, "dpotrs", lambda *args, **kwargs: (
            dpotrs(*args, **kwargs)[0], -2))
        with pytest.raises(SingularGramError):
            gram_solve_multi(random_matrix(20, 4, 0), np.ones(20), np.ones(4))

    def test_cholesky_raises_after_the_shifted_retry(self, monkeypatch):
        # -I has a negative trace, so the shift makes it no less indefinite
        # and the retry breaks down too.
        calls = []
        monkeypatch.setattr(linalg, "dpotrf", lambda *args, **kwargs: (
            calls.append(1) or dpotrf(*args, **kwargs)))
        with pytest.raises(SingularGramError):
            linalg._cholesky(-np.eye(3), 10)
        assert len(calls) == 2


class TestLeverageScores:
    def test_orthonormal_rows(self):
        assert np.allclose(leverage_scores(DenseMatrix(np.eye(3))), 1.0)

    def test_two_copies_of_one_row(self):
        sig = leverage_scores(DenseMatrix(np.array([[1.0], [1.0]])))
        assert np.allclose(sig, [0.5, 0.5], atol=1e-12)

    def test_explicit_two_by_two(self):
        A = DenseMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        assert np.allclose(leverage_scores(A), 2.0 / 3.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_sum_equals_rank(self, seed):
        A = random_matrix(50, 7, seed)
        sig = leverage_scores(A)
        assert abs(sig.sum() - 7.0) <= 1e-8
        assert np.all(sig >= 0) and np.all(sig <= 1)

    @pytest.mark.parametrize("seed", range(3))
    def test_importance_characterization(self, seed):
        # (Ax)_i^2 / ||Ax||_2^2 <= sigma_i for every direction, with equality
        # attained along (A^T A)^{-1} a_i.
        A = random_matrix(30, 5, seed)
        sig = leverage_scores(A)
        rng = np.random.default_rng(seed + 100)
        for _ in range(200):
            x = rng.standard_normal(5)
            ax = A.a @ x
            assert np.all(ax ** 2 / (ax @ ax) <= sig + 1e-10)
        gram_inv = np.linalg.inv(A.a.T @ A.a)
        for i in range(A.n):
            x = gram_inv @ A.a[i]
            ax = A.a @ x
            ratio = ax[i] ** 2 / (ax @ ax)
            assert ratio >= 0.9 * sig[i]


def householder_scores(a):
    q = np.linalg.qr(a)[0]
    return np.einsum("ij,ij->i", q, q)


def count_passes(monkeypatch):
    """Route linalg's Cholesky QR passes through a counter."""
    calls = [0]
    real = linalg._cholqr_pass

    def counting(Z, G):
        calls[0] += 1
        return real(Z, G)

    monkeypatch.setattr(linalg, "_cholqr_pass", counting)
    return calls


class TestScaledLeverage:
    """Scores of diag(s) A by Cholesky QR of A's basis, against exact ones."""

    @pytest.mark.parametrize("decades, bound", [(6.0, 1e-10), (8.0, 1e-8)])
    @pytest.mark.parametrize("span", [1e-2, 1e-10, 1e-40])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_rational_reference(self, decades, bound, span, seed,
                                            monkeypatch):
        monkeypatch.setattr(harness, "ILL_COND_DECADES", decades)
        A = harness.gen_instance("ill_conditioned", 60, 4, seed).A
        scale = span ** np.random.default_rng(seed).uniform(size=60)
        ref = exact_leverage_scores(A.a, scale)
        assert np.max(np.abs(leverage_scores(A, scale) - ref)) <= bound

    @pytest.mark.parametrize("seed", range(3))
    def test_non_orthonormal_stacked_basis(self, seed):
        # plant_dual_instance's b and g are not orthogonal to range(A), so
        # U's basis [Q_A, b/||b||, g/||g||] is not orthonormal.
        U = plant_dual_instance(60, 4, 1.5, seed).U
        assert np.max(np.abs(U.basis.T @ U.basis - np.eye(U.d))) > 1e-3
        scale = 10.0 ** np.random.default_rng(seed).uniform(-1.0, 1.0, 60)
        expect = householder_scores(U.a * scale[:, None])
        assert np.max(np.abs(leverage_scores(U, scale) - expect)) <= 1e-12
        assert np.allclose(leverage_scores(U), householder_scores(U.a),
                           rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("tiny", [1e-12, 1e-40, 1e-100])
    def test_scale_that_breaks_plain_cholesky(self, tiny, monkeypatch):
        # One row at scale 1 and the rest far below it: the Gram matrix of
        # the scaled basis is not numerically positive definite.
        A = harness.gen_instance("ill_conditioned", 60, 4, 0).A
        scale = np.full(60, tiny)
        scale[0] = 1.0
        Z = A.basis * scale[:, None]
        assert dpotrf(Z.T @ Z)[1] != 0
        passes = count_passes(monkeypatch)
        sig = leverage_scores(A, scale)
        assert passes[0] >= 2
        ref = exact_leverage_scores(A.a, scale)
        assert np.max(np.abs(sig - ref)) <= 1e-10

    def test_one_pass_on_a_mild_scale(self, monkeypatch):
        A = random_matrix(200, 6, 4)
        scale = np.random.default_rng(4).uniform(0.5, 2.0, 200)
        passes = count_passes(monkeypatch)
        sig = leverage_scores(A, scale)
        assert passes[0] == 1
        assert np.max(np.abs(sig - householder_scores(A.a * scale[:, None]))) \
            <= 1e-13

    def test_orthonormal_basis_takes_no_pass(self, monkeypatch):
        passes = count_passes(monkeypatch)
        leverage_scores(random_matrix(50, 5, 6))
        assert passes[0] == 0

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_scale_raises(self, bad):
        scale = np.ones(30)
        scale[3] = bad
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
            leverage_scores(random_matrix(30, 3, 7), scale)

    def test_approx_lev_passes_the_scale_through(self):
        A = random_matrix(40, 4, 8)
        scale = np.random.default_rng(8).uniform(0.1, 3.0, 40)
        assert np.array_equal(approx_lev(A, 0.1, scale),
                              leverage_scores(A, scale))


class TestApproxLev:
    def test_identity_exact(self):
        w = approx_lev(DenseMatrix(np.eye(4)), 0.1)
        assert np.all(w >= 1 / 1.1) and np.all(w <= 1 / 0.9)

    def test_duplicated_row(self):
        w = approx_lev(DenseMatrix(np.array([[1.0], [1.0]])), 0.1)
        assert np.all(w >= 0.4545) and np.all(w <= 0.5556)

    def test_gaussian_matches_exact(self):
        A = random_matrix(50, 5, 3)
        w = approx_lev(A, 0.1)
        sig = leverage_scores(A)
        assert np.all((1 - 0.1) * w <= sig + 1e-12)
        assert np.all(sig <= (1 + 0.1) * w + 1e-12)

    def test_mode_auto_is_exact_at_small_scale(self):
        A = random_matrix(40, 4, 9)
        w = approx_lev(A, 0.1)
        assert np.allclose(w, leverage_scores(A), atol=1e-12)

    def test_eps_sandwich_sweep(self):
        # 20 random matrices at eps = 0.1.
        for seed in range(5):
            for trial in range(4):
                rng = np.random.default_rng(1000 * seed + trial)
                n = int(rng.integers(20, 200))
                d = int(rng.integers(2, min(20, n // 2)))
                A = DenseMatrix(rng.standard_normal((n, d)))
                w = approx_lev(A, 0.1)
                sig = leverage_scores(A)
                assert np.all((1 - 0.1) * w <= sig + 1e-12)
                assert np.all(sig <= (1 + 0.1) * w + 1e-12)


class TestFileFormats:
    def test_matrix_roundtrip(self, tmp_path):
        A = random_matrix(7, 3, 11)
        path = tmp_path / "m.txt"
        write_matrix(path, A)
        B = read_matrix(path)
        assert np.array_equal(A.a, B.a)

    def test_vector_roundtrip(self, tmp_path):
        v = np.random.default_rng(2).standard_normal(9)
        path = tmp_path / "v.txt"
        write_vector(path, v)
        assert np.array_equal(read_vector(path), v)

    def test_malformed_matrix(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 2 3\n")
        with pytest.raises(InvalidInputError):
            read_matrix(path)
