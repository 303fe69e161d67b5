import math

import numpy as np
import pytest
from scipy import optimize
from scipy.linalg import null_space

import lpreg.dual as dual
from lpreg.dual import (
    DualInstance,
    dual_gamma_value,
    dual_reduce,
    oracle_small,
    primal_recover,
    solve_lq,
    stack_instance,
)
from lpreg.errors import InfeasibleError, InvalidInputError
from lpreg.harness import gen_instance, oracle_opt, plant_dual_instance, solve
from lpreg.linalg import DenseMatrix, SolveCounter
from lpreg.problem import ProblemInstance, pnorm


class TestDualReduce:
    def test_two_point_q2(self):
        A = DenseMatrix(np.array([[1.0], [1.0]]))
        b = np.array([0.0, 2.0])
        p, y0 = dual_reduce(A, b, 2.0)
        assert p == 2.0
        assert np.allclose(y0, [-0.5, 0.5])
        assert pnorm(y0, 2.0) == pytest.approx(1 / math.sqrt(2))

    def test_two_point_q43(self):
        A = DenseMatrix(np.array([[1.0], [1.0]]))
        b = np.array([0.0, 2.0])
        p, y0 = dual_reduce(A, b, 4.0 / 3.0)
        assert p == pytest.approx(4.0)
        # the feasible set is the single point (-1/2, 1/2)
        assert pnorm(y0, 4.0) == pytest.approx(2.0 ** 0.25 / 2.0)

    def test_consistent_rhs_short_circuits(self):
        rng = np.random.default_rng(0)
        A = DenseMatrix(rng.standard_normal((10, 3)))
        b = A.a @ rng.standard_normal(3)
        with pytest.raises(InfeasibleError):
            dual_reduce(A, b, 1.5)

    def test_rejects_bad_q(self):
        A = DenseMatrix(np.eye(3))
        with pytest.raises(InvalidInputError):
            dual_reduce(A, np.ones(3), 2.5)

    @pytest.mark.parametrize("q", [1.25, 1.5, 2.0])
    def test_weak_duality_of_feasible_points(self, q):
        rng = np.random.default_rng(1)
        A = DenseMatrix(rng.standard_normal((30, 4)))
        b = rng.standard_normal(30)
        p, y0 = dual_reduce(A, b, q)
        opt = oracle_opt(ProblemInstance(A, b, q), tol=1e-10)
        proj = np.eye(30) - A.a @ np.linalg.pinv(A.a)
        for _ in range(15):
            y = y0 + proj @ (rng.standard_normal(30) * 0.2)
            y = y / float(b @ y)
            assert np.max(np.abs(A.a.T @ y)) <= 1e-9
            assert 1.0 / pnorm(y, p) <= opt * (1 + 1e-9)


class TestOracleSmall:
    def test_square_stack_is_forced(self):
        U = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 3.0]])
        v = np.array([0.0, 1.0, -1.0])
        inst = DualInstance(DenseMatrix(U), v,
                            0.3 * np.ones(3), 4.0)
        y = oracle_small(inst)
        assert np.allclose(y, np.linalg.solve(U.T, v), atol=1e-10)

    def test_zero_resistance_q2_is_min_norm(self):
        rng = np.random.default_rng(2)
        U = DenseMatrix(rng.standard_normal((20, 5)))
        v = rng.standard_normal(5)
        inst = DualInstance(U, v, np.zeros(20), 2.0)
        y = oracle_small(inst)
        expect = np.linalg.pinv(U.a.T) @ v
        assert np.linalg.norm(y - expect) <= 1e-8 * max(np.linalg.norm(expect), 1)

    @pytest.mark.parametrize("q", [1.25, 1.5])
    def test_planted_postconditions(self, q):
        p = q / (q - 1.0)
        for seed in range(5):
            inst = plant_dual_instance(60, 4, q, seed)
            m = inst.U.d
            y = oracle_small(inst)
            assert np.max(np.abs(inst.U.a.T @ y - inst.v)) <= 1e-9
            assert float(y @ (inst.R * y)) <= 6.0
            assert float(np.sum(np.abs(y) ** p)) \
                <= 2.0 * 4.0 ** p * m ** ((p - 2.0) / 2.0)

    def test_weight_mass_bound(self):
        from lpreg.lewis import reg_lewis
        inst = plant_dual_instance(50, 4, 1.5, 0)
        p = inst.p
        c = np.minimum(inst.U.d * inst.R ** (p / (p - 2.0)), 1e150)
        rw = reg_lewis(inst.U, c, p / (p - 1.0))
        assert float(np.sum(rw.weights)) <= 1.1 * inst.U.d


def dual_opt_bruteforce(inst):
    """min y^T R y + ||y||_p^p over U^T y = v, by damped second order."""
    U, v, r, p = inst.U.a, inst.v, inst.R, inst.p
    base = np.linalg.pinv(U.T) @ v
    N = null_space(U.T)

    def vgh(xi):
        y = base + N @ xi
        val = float(y @ (r * y)) + float(np.sum(np.abs(y) ** p))
        grad = 2 * r * y + p * np.abs(y) ** (p - 2.0) * y
        hess_diag = 2 * r + p * (p - 1.0) * np.abs(y) ** (p - 2.0)
        return val, N.T @ grad, (N * hess_diag[:, None]).T @ N

    xi = np.zeros(N.shape[1])
    val, grad, H = vgh(xi)
    lam = 1e-12
    for _ in range(300):
        if np.linalg.norm(grad) <= 1e-14 * max(val, 1e-30):
            break
        step = np.linalg.solve(H + lam * np.eye(H.shape[0]), -grad)
        v_new, g_new, H_new = vgh(xi + step)
        if v_new < val:
            xi, val, grad, H = xi + step, v_new, g_new, H_new
            lam = max(lam / 10, 1e-14)
        else:
            lam *= 10
    return val


class TestGammaContract:
    @pytest.mark.parametrize("q", [1.25, 1.5])
    def test_planted_contract(self, q):
        p = q / (q - 1.0)
        checked = 0
        for seed in range(8):
            inst = plant_dual_instance(40, 3, q, seed)
            opt = dual_opt_bruteforce(inst)
            if opt < 0.25:
                continue
            y = oracle_small(inst)
            gamma = dual_gamma_value(p, inst.U.d)
            assert float(y @ (inst.R * y)) <= gamma * opt * (1 + 1e-9)
            assert float(np.sum(np.abs(y) ** p)) \
                <= gamma ** (p - 1.0) * opt * (1 + 1e-9)
            checked += 1
        assert checked >= 3


class TestPrimalRecover:
    def test_exact_dual_two_point(self):
        A = DenseMatrix(np.array([[1.0], [1.0]]))
        b = np.array([0.0, 2.0])
        y_star = np.array([-0.5, 0.5])
        x = primal_recover(A, b, y_star, 4.0)
        assert x[0] == pytest.approx(1.0, abs=1e-9)

    def test_consistent_rhs(self):
        rng = np.random.default_rng(3)
        A = DenseMatrix(rng.standard_normal((15, 3)))
        x0 = rng.standard_normal(3)
        b = A.a @ x0
        x = primal_recover(A, b, rng.standard_normal(15), 3.0)
        assert np.allclose(x, x0, atol=1e-8)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_shift_is_the_best_over_all_reals(self, sign, monkeypatch):
        # Without the polish the recovered point is x0 + lam x1, and lam
        # must minimize ||e0 + lam e1||_q over the whole real line.
        monkeypatch.setattr(dual, "RECOVER_POLISH_STEPS", 0)
        rng = np.random.default_rng(5)
        A = DenseMatrix(rng.standard_normal((40, 3)))
        b = rng.standard_normal(40)
        p = 3.0
        q = p / (p - 1.0)
        y = sign * rng.standard_normal(40)
        s = np.sign(y) * np.abs(y) ** (p - 2.0)
        x0 = np.linalg.lstsq(A.a, b, rcond=None)[0]
        x1 = np.linalg.lstsq(A.a, s, rcond=None)[0]
        e0, e1 = A.a @ x0 - b, A.a @ x1
        ref = optimize.minimize_scalar(lambda t: pnorm(e0 + t * e1, q),
                                       method="brent", tol=1e-12)
        assert np.sign(ref.x) == sign
        x = primal_recover(A, b, y, p)
        lam = float((x - x0) @ x1) / float(x1 @ x1)
        assert lam == pytest.approx(ref.x, rel=1e-5)
        assert pnorm(A.a @ x - b, q) <= ref.fun * (1 + 1e-12)

    def test_random_instance_matches_oracle(self):
        rng = np.random.default_rng(4)
        A = DenseMatrix(rng.standard_normal((80, 5)))
        b = rng.standard_normal(80)
        inst = ProblemInstance(A, b, 1.5, eps=1e-6)
        x, rep = solve_lq(inst, seed=0)
        opt = oracle_opt(inst, tol=1e-10)
        assert rep.residual_lp <= (1 + 1e-6) * opt


class TestSolveLq:
    @pytest.mark.parametrize("q", [1.25, 1.5, 2.0])
    def test_certified_against_oracle(self, q):
        rng = np.random.default_rng(int(q * 100))
        A = DenseMatrix(rng.standard_normal((50, 4)))
        b = rng.standard_normal(50)
        inst = ProblemInstance(A, b, q, eps=1e-6)
        counter = SolveCounter()
        x, rep = solve_lq(inst, seed=0, counter=counter)
        opt = oracle_opt(inst, tol=1e-9)
        assert rep.residual_lp <= (1 + 1e-6) * opt
        assert rep.certified_gap <= 1e-6
        assert rep.gram_solves == counter.gram_solves

    def test_strong_duality_sweep(self):
        # certified gap at eps implies primal and dual optima agree to eps
        for seed in range(20):
            rng = np.random.default_rng(700 + seed)
            n = int(rng.integers(15, 50))
            d = int(rng.integers(2, 5))
            A = DenseMatrix(rng.standard_normal((n, d)))
            b = rng.standard_normal(n)
            q = float(rng.choice([1.25, 1.5, 1.8]))
            inst = ProblemInstance(A, b, q, eps=1e-7)
            x, rep = solve_lq(inst, seed=seed)
            opt = oracle_opt(inst, tol=1e-9)
            assert abs(rep.residual_lp / opt - 1.0) <= 1e-6

    def test_consistent_system_short_circuit(self):
        rng = np.random.default_rng(5)
        A = DenseMatrix(rng.standard_normal((12, 3)))
        x0 = rng.standard_normal(3)
        inst = ProblemInstance(A, A.a @ x0, 1.5, eps=1e-6)
        x, rep = solve_lq(inst, seed=0)
        assert rep.residual_lp <= 1e-10
        assert rep.phase_counts.get("short_circuit") == 1

    def test_unreachable_eps_is_an_input_error(self):
        # A gap of 1e-16 is below float64 resolution: rejected before any
        # work instead of stalling until nu underflows.
        with pytest.raises(InvalidInputError):
            gen_instance("planted_residual", 60, 4, 0, p=2.0, eps=1e-16)

    def test_stacked_instance_layout(self):
        rng = np.random.default_rng(6)
        A = DenseMatrix(rng.standard_normal((10, 2)))
        b = rng.standard_normal(10)
        g = rng.standard_normal(10)
        inst = stack_instance(A, b, g, np.ones(10), 4.0)
        assert inst.U.d == 4
        assert np.array_equal(inst.v, [0.0, 0.0, 1.0, -1.0])
        assert np.array_equal(inst.U.a[:, :2], A.a)
