import math

import numpy as np
import pytest

import lpreg.lewis as lewis
from lpreg.errors import DominationFailure, InvalidInputError, NonFiniteError
from lpreg.harness import FAMILIES, gen_instance, solve
from lpreg.lewis import (
    half_minus_inv,
    lewis_overestimates,
    reg_lewis,
    reg_lewis_update,
    row_scale,
)
from lpreg.linalg import DenseMatrix, approx_lev, leverage_scores

from diagnostics import (
    exact_lewis_oracle,
    lewis_residual,
    norm_sandwich_check,
    reg_lewis_residual,
)


def random_matrix(n, d, seed):
    rng = np.random.default_rng(seed)
    return DenseMatrix(rng.standard_normal((n, d)))


def check_certificate(A, est):
    d = A.d
    assert d - 1e-9 <= est.mass <= 2 * d + 1e-9
    sig = leverage_scores(A, row_scale(est.weights, half_minus_inv(est.p)))
    assert np.all(est.weights + 1e-8 >= sig)


class TestOverestimates:
    def test_identity_p4(self):
        est = lewis_overestimates(DenseMatrix(np.eye(4)), 4.0)
        assert np.all(est.weights >= 1.35) and np.all(est.weights <= 1.65)
        assert 5.4 <= est.mass <= 6.6

    def test_identity_p2_dominates(self):
        est = lewis_overestimates(DenseMatrix(np.eye(4)), 2.0)
        assert np.all(est.weights >= 1.35) and np.all(est.weights <= 1.65)
        assert np.all(est.weights >= 1.0)

    def test_gaussian_p8_certificate(self):
        A = random_matrix(100, 6, 7)
        est = lewis_overestimates(A, 8.0)
        assert est.mass <= 12.0
        check_certificate(A, est)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 8.0, math.inf])
    def test_certificate_sweep(self, p):
        for seed in range(4):
            rng = np.random.default_rng(200 + seed)
            n = int(rng.integers(20, 80))
            d = int(rng.integers(2, 8))
            A = DenseMatrix(rng.standard_normal((n, d)))
            check_certificate(A, lewis_overestimates(A, p))

    def test_rejects_small_p(self):
        with pytest.raises(InvalidInputError):
            lewis_overestimates(DenseMatrix(np.eye(3)), 1.5)


class TestNormSandwich:
    def test_identity_p4_values(self):
        est = lewis_overestimates(DenseMatrix(np.eye(2)), 4.0)
        est.weights[:] = 1.5
        lp, wl2, up = norm_sandwich_check(DenseMatrix(np.eye(2)), est,
                                          np.array([1.0, 0.0]))
        assert abs(lp - 1.0) <= 1e-12
        assert abs(wl2 - 1.5 ** 0.25) <= 1e-12
        assert abs(up - 3.0 ** 0.25) <= 1e-12

    def test_p2_everything_collapses(self):
        est = lewis_overestimates(DenseMatrix(np.eye(2)), 2.0)
        est.weights[:] = 1.5
        lp, wl2, up = norm_sandwich_check(DenseMatrix(np.eye(2)), est,
                                          np.array([3.0, 4.0]))
        assert lp == pytest.approx(5.0, abs=1e-12)
        assert wl2 == pytest.approx(5.0, abs=1e-12)
        assert up == pytest.approx(5.0, abs=1e-12)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 8.0, math.inf])
    def test_sandwich_sweep(self, p):
        A = random_matrix(50, 5, 13)
        est = lewis_overestimates(A, p)
        rng = np.random.default_rng(99)
        for _ in range(100):
            x = rng.standard_normal(5)
            lp, wl2, up = norm_sandwich_check(A, est, x)
            assert lp <= wl2 * (1 + 1e-10)
            assert wl2 <= up * (1 + 1e-10)


class TestRegLewis:
    def test_identity_q15(self):
        rw = reg_lewis(DenseMatrix(np.eye(3)), np.zeros(3), 1.5)
        assert np.all(rw.weights >= 0.96) and np.all(rw.weights <= 1.05)

    def test_duplicated_row_q2(self):
        rw = reg_lewis(DenseMatrix(np.array([[1.0], [1.0]])), np.zeros(2), 2.0)
        assert np.allclose(rw.weights, 0.5, rtol=0.02)

    def test_self_consistency(self):
        A = random_matrix(60, 4, 21)
        rw = reg_lewis(A, 0.1 * np.ones(60), 1.5)
        rel, lo, hi = reg_lewis_residual(A, rw)
        assert rel <= 0.15
        assert 0.85 <= lo and hi <= 1.18

    def test_q2_ignores_regularizer(self):
        A = random_matrix(40, 5, 5)
        rw = reg_lewis(A, 0.7 * np.ones(40), 2.0)
        assert np.allclose(rw.weights, leverage_scores(A), rtol=0.05, atol=1e-9)

    def test_rejects_bad_q(self):
        with pytest.raises(InvalidInputError):
            reg_lewis(DenseMatrix(np.eye(3)), np.zeros(3), 2.5)
        with pytest.raises(InvalidInputError):
            reg_lewis(DenseMatrix(np.eye(3)), -np.ones(3), 1.5)


def count_leverage(monkeypatch):
    """Route lewis.approx_lev through a counter; returns the one-item list."""
    calls = [0]

    def counting(A, eps, scale=None):
        calls[0] += 1
        return approx_lev(A, eps, scale)

    monkeypatch.setattr(lewis, "approx_lev", counting)
    return calls


def paper_step_count(n):
    return int(math.ceil(8 * math.log(math.log(max(n, 3))))) + 4


def fixed_count_reg_lewis(A, c, q):
    # The paper's schedule with no early stop: T steps, then a final pass.
    w = np.ones(A.n)
    for _ in range(paper_step_count(A.n)):
        sig = approx_lev(A, 1.0 / 50.0, row_scale(c + w, 0.5 - 1.0 / q))
        w = reg_lewis_update(w, c, q, sig)
    return approx_lev(A, 1.0 / 50.0, row_scale(c + w, 0.5 - 1.0 / q))


def regularizer(kind, n):
    if kind == "zero":
        return np.zeros(n)
    if kind == "uniform":
        return np.random.default_rng(n).uniform(0.0, 0.5, size=n)
    return np.full(n, 1e6)


class TestRegLewisStop:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("q", [1.2, 1.5, 1.8])
    @pytest.mark.parametrize("kind", ["zero", "uniform", "huge"])
    def test_returned_weights_are_near_the_fixed_point(self, family, q, kind):
        A = gen_instance(family, 200, 6, 3).A
        rw = reg_lewis(A, regularizer(kind, 200), q)
        rel, _, _ = reg_lewis_residual(A, rw)
        assert rel <= 2 * lewis.REG_LEWIS_TOL

    def test_huge_regularizer_takes_one_leverage_computation(self, monkeypatch):
        calls = count_leverage(monkeypatch)
        A = random_matrix(80, 4, 41)
        c = 1e6 * (1.0 + np.random.default_rng(1).uniform(size=80))
        rw = reg_lewis(A, c, 1.5)
        assert calls[0] == 1
        assert np.array_equal(rw.weights, leverage_scores(
            A, row_scale(c + 1.0, 0.5 - 1.0 / 1.5)))

    @pytest.mark.parametrize("q", [1.2, 1.5, 2.0])
    def test_unreachable_tolerance_runs_the_paper_schedule(self, q, monkeypatch):
        A = random_matrix(120, 5, 43)
        c = np.random.default_rng(2).uniform(0.0, 0.5, size=120)
        expected = fixed_count_reg_lewis(A, c, q)
        calls = count_leverage(monkeypatch)
        monkeypatch.setattr(lewis, "REG_LEWIS_TOL", -1.0)
        rw = reg_lewis(A, c, q)
        assert calls[0] == paper_step_count(120) + 1
        assert np.array_equal(rw.weights, expected)

    def test_dual_solve_takes_a_third_of_the_fixed_count(self, monkeypatch):
        # gaussian 1000x32 at q = 1.5: 84 leverage computations under the
        # fixed-count schedule, 7 with the stop rule.
        inst = gen_instance("gaussian", 1000, 32, 0, p=1.5, eps=1e-8)
        calls = count_leverage(monkeypatch)
        _, rep = solve(inst, "dual")
        stopped = calls[0]
        monkeypatch.setattr(lewis, "REG_LEWIS_TOL", -1.0)
        calls[0] = 0
        _, rep_fixed = solve(inst, "dual")
        assert rep.certified_gap <= 1e-8 and rep_fixed.certified_gap <= 1e-8
        assert 3 * stopped <= calls[0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_regularizer(self, bad):
        c = np.zeros(50)
        c[7] = bad
        with pytest.raises(NonFiniteError):
            reg_lewis(random_matrix(50, 3, 44), c, 1.5)
        with pytest.raises(NonFiniteError):
            reg_lewis(random_matrix(50, 3, 44), np.full(50, bad), 1.5)

    def test_non_finite_residual_raises(self, monkeypatch):
        calls = [0]

        def broken(A, eps, scale=None):
            calls[0] += 1
            return np.full(A.n, np.nan)

        monkeypatch.setattr(lewis, "approx_lev", broken)
        with pytest.raises(NonFiniteError):
            reg_lewis(random_matrix(50, 3, 45), np.zeros(50), 1.5)
        assert calls[0] == 1


def count_overestimate_leverage(monkeypatch):
    """Count every leverage computation lewis_overestimates makes: the
    rounds' approx_lev and the certificate's leverage_scores."""
    calls = [0]

    def counting_approx(A, eps, scale=None):
        calls[0] += 1
        return approx_lev(A, eps, scale)

    def counting_exact(A, scale=None):
        calls[0] += 1
        return leverage_scores(A, scale)

    monkeypatch.setattr(lewis, "approx_lev", counting_approx)
    monkeypatch.setattr(lewis, "leverage_scores", counting_exact)
    return calls


class TestOverestimateStop:
    # The mwu bench shapes: every family at 60x4 and 160x8, p in {3, 4}.
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n, d", [(60, 4), (160, 8)])
    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_bench_shapes_stop_early(self, family, n, d, p, monkeypatch):
        A = gen_instance(family, n, d, 0, p=p).A
        calls = count_overestimate_leverage(monkeypatch)
        est = lewis_overestimates(A, p)
        assert calls[0] <= 8
        assert est.mass == pytest.approx(1.5 * d, abs=1e-9)
        check_certificate(A, est)

    def test_no_certifying_round_runs_to_the_cap(self, monkeypatch):
        # Inflated scores defeat every round's check, so all T rounds run
        # and the last one raises.
        A = random_matrix(60, 4, 51)
        checks = [0]

        def inflated(B, scale=None):
            checks[0] += 1
            return 3.0 * leverage_scores(B, scale)

        monkeypatch.setattr(lewis, "leverage_scores", inflated)
        with pytest.raises(DominationFailure, match="after 41 rounds"):
            lewis_overestimates(A, 4.0)
        assert checks[0] == math.ceil(10 * math.log(60)) == 41

    @pytest.mark.parametrize("p", [3.0, 8.0, math.inf])
    def test_repeat_calls_are_bit_identical(self, p):
        A = gen_instance("coherent_rows", 160, 8, 1, p=4.0).A
        first = lewis_overestimates(A, p)
        second = lewis_overestimates(A, p)
        assert np.array_equal(first.weights, second.weights)


class TestExactOracle:
    def test_identity(self):
        w = exact_lewis_oracle(DenseMatrix(np.eye(5)), 3.0)
        assert np.allclose(w, 1.0, atol=1e-9)

    def test_p2_equals_leverage(self):
        A = random_matrix(30, 4, 8)
        w = exact_lewis_oracle(A, 2.0)
        assert np.allclose(w, leverage_scores(A), atol=1e-9)

    def test_fixed_point_residual(self):
        A = random_matrix(40, 3, 17)
        w = exact_lewis_oracle(A, 3.5)
        assert lewis_residual(A, w, 3.5) <= 1e-9

    def test_agrees_with_reg_lewis_at_q2(self):
        A = random_matrix(30, 4, 30)
        w = exact_lewis_oracle(A, 2.0)
        rw = reg_lewis(A, np.zeros(30), 2.0)
        assert np.allclose(w, rw.weights, atol=1e-6)


def log_reweighted_quad(A, v, p, i):
    # phi_i(v) = log(v_i^{-2/p} a_i^T (A^T diag(v)^{1-2/p} A)^{-1} a_i)
    vv = np.maximum(v, 1e-14)
    gram = (A.a * (vv ** (1 - 2.0 / p))[:, None]).T @ A.a
    quad = A.a[i] @ np.linalg.solve(gram, A.a[i])
    return math.log(vv[i] ** (-2.0 / p) * quad)


class TestAnalysisProperties:
    @pytest.mark.parametrize("p", [3.0, 4.0, 8.0])
    def test_potential_is_convex(self, p):
        # Midpoint convexity of the log reweighted quadratic, sampled.
        for seed in range(5):
            A = random_matrix(20, 3, 300 + seed)
            rng = np.random.default_rng(400 + seed)
            for _ in range(20):
                u = rng.uniform(0.05, 3.0, size=20)
                v = rng.uniform(0.05, 3.0, size=20)
                i = int(rng.integers(0, 20))
                mid = log_reweighted_quad(A, (u + v) / 2, p, i)
                avg = (log_reweighted_quad(A, u, p, i)
                       + log_reweighted_quad(A, v, p, i)) / 2
                assert mid <= avg + 1e-9

    @pytest.mark.parametrize("q", [1.5, 1.8, 2.0])
    def test_update_contracts_toward_fixed_point(self, q):
        for seed in range(20 // 3 + 1):
            A = random_matrix(25, 3, 500 + seed)
            w_star = exact_lewis_oracle(A, q, tol=1e-12)
            rng = np.random.default_rng(600 + seed)
            nu = 4.0
            u = w_star * np.exp(rng.uniform(-math.log(nu), math.log(nu), size=25))
            c = np.zeros(25)
            sig = leverage_scores(A, row_scale(c + u, 0.5 - 1.0 / q))
            u_new = reg_lewis_update(u, c, q, sig)
            ratio = np.maximum(u_new, 1e-14) / np.maximum(w_star, 1e-14)
            dist_new = max(ratio.max(), 1.0 / ratio.min())
            assert dist_new <= nu ** (1 - q / 2.0) * (1 + 1e-6)
