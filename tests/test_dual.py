import warnings

import numpy as np
import pytest
from scipy import optimize
from scipy.linalg import null_space

import lpreg.dual as dual
import lpreg.lewis as lewis
from lpreg.dual import (
    DualInstance,
    dual_exponent,
    min_quadratic_on_affine,
    oracle_small,
    primal_recover,
    solve_lq,
    stack_instance,
)
from lpreg import harness
from lpreg.errors import InvalidInputError, SingularGramError
from lpreg.harness import FAMILIES, gen_instance, oracle_opt, solve
from lpreg.linalg import DenseMatrix, SolveCounter
from lpreg.problem import ProblemInstance, pnorm
from lpreg.refine import ROUNDING_PER_ENTRY

from diagnostics import (
    dual_gamma_value,
    exact_residual_lp,
    plant_dual_instance,
    solve_counters,
)


class TestDualReduce:
    """The dual problem: min ||y||_p over A^T y = 0, b^T y = 1."""

    def test_rejects_bad_q(self):
        with pytest.raises(InvalidInputError):
            dual_exponent(2.5)

    @pytest.mark.parametrize("q", [1.25, 1.5, 2.0])
    def test_weak_duality_of_feasible_points(self, q):
        rng = np.random.default_rng(1)
        A = DenseMatrix(rng.standard_normal((30, 4)))
        b = rng.standard_normal(30)
        p = dual_exponent(q)
        resid = b - A.a @ np.linalg.lstsq(A.a, b, rcond=None)[0]
        y0 = resid / float(b @ resid)
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
        inst = DualInstance(DenseMatrix(U[:, :1]), DenseMatrix(U), v,
                            0.3 * np.ones(3), 4.0)
        y = oracle_small(inst, SolveCounter())
        assert np.allclose(y, np.linalg.solve(U.T, v), atol=1e-10)

    def test_huge_resistances_are_capped_without_a_warning(self):
        # r^(p/(p-2)) overflows to inf at r = 1e300 before the 1e150 cap
        # applies; the overflow is intended and must not warn.
        rng = np.random.default_rng(5)
        A = DenseMatrix(rng.standard_normal((20, 3)))
        b = A.project_out(rng.standard_normal(20))
        b /= np.linalg.norm(b)
        g = A.project_out(rng.standard_normal(20))
        g -= (b @ g) * b
        R = rng.uniform(0.5, 2.0, 20)
        R[:3] = 1e300
        inst = stack_instance(A, b, g, R, 5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = oracle_small(inst, SolveCounter())
        assert np.max(np.abs(inst.U.a.T @ y - inst.v)) <= 1e-9
        assert np.all(np.abs(y[:3]) <= 1e-12)

    @pytest.mark.parametrize("q", [1.25, 1.5])
    def test_planted_postconditions(self, q):
        p = q / (q - 1.0)
        for seed in range(5):
            inst = plant_dual_instance(60, 4, q, seed)
            m = inst.U.d
            y = oracle_small(inst, SolveCounter())
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


class TestMinQuadraticOnAffine:
    @pytest.mark.parametrize("tail", ["b", "a0"])
    def test_repeated_tail_column_is_a_singular_gram(self, tail):
        # [A b b] makes the 2x2 Schur complement singular and [A b a_0] the
        # projection's U^T U; neither may surface as numpy's LinAlgError.
        rng = np.random.default_rng(9)
        A = rng.standard_normal((20, 3))
        b = rng.standard_normal(20)
        last = b if tail == "b" else A[:, 0]
        U = DenseMatrix.trusted(np.column_stack([A, b, last]))
        v = np.zeros(5)
        v[-2], v[-1] = 1.0, -1.0
        with pytest.raises(SingularGramError):
            min_quadratic_on_affine(DenseMatrix(A), U, v,
                                    rng.uniform(0.5, 2.0, 20),
                                    SolveCounter(), "oracle_small")


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
            y = oracle_small(inst, SolveCounter())
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
        x = primal_recover(A, b, y_star, 4.0, SolveCounter())
        assert x[0] == pytest.approx(1.0, abs=1e-9)

    def test_consistent_rhs(self):
        rng = np.random.default_rng(3)
        A = DenseMatrix(rng.standard_normal((15, 3)))
        x0 = rng.standard_normal(3)
        b = A.a @ x0
        x = primal_recover(A, b, rng.standard_normal(15), 3.0, SolveCounter())
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
        x = primal_recover(A, b, y, p, SolveCounter())
        lam = float((x - x0) @ x1) / float(x1 @ x1)
        assert lam == pytest.approx(ref.x, rel=1e-5)
        assert pnorm(A.a @ x - b, q) <= ref.fun * (1 + 1e-12)

    @pytest.mark.parametrize("q", [1.1, 1.5])
    def test_never_above_the_incumbent(self, q):
        # The polish starts from the incumbent when it is strictly below the
        # fit, and a polish step is taken only when it lowers the residual.
        rng = np.random.default_rng(9)
        p = dual_exponent(q)
        starts = []
        for trial in range(12):
            A = DenseMatrix(rng.standard_normal((60, 4)))
            b = rng.standard_normal(60)
            y = b - A.a @ np.linalg.lstsq(A.a, b, rcond=None)[0]
            x_near = primal_recover(A, b, y, p, SolveCounter())
            noise = 10.0 ** -(2 * (trial % 4))
            x_inc = x_near + noise * rng.standard_normal(4)
            hi = pnorm(A.a @ x_inc - b, q)
            counter = SolveCounter()
            # a poor dual iterate, whose fit the polish cannot repair
            x = primal_recover(A, b, rng.standard_normal(60), p, counter,
                               incumbent=(x_inc, hi))
            assert pnorm(A.a @ x - b, q) <= hi
            starts.append(counter.steps.get("warm_recoveries", 0))
        assert 0 in starts and 1 in starts

    def test_random_instance_matches_oracle(self):
        rng = np.random.default_rng(4)
        A = DenseMatrix(rng.standard_normal((80, 5)))
        b = rng.standard_normal(80)
        inst = ProblemInstance(A, b, 1.5, eps=1e-6)
        x, rep = solve_lq(inst)
        opt = oracle_opt(inst, tol=1e-10)
        assert rep.residual_lp <= (1 + 1e-6) * opt


class TestSolveLq:
    @pytest.mark.parametrize("q", [1.25, 1.5, 2.0])
    def test_certified_against_oracle(self, q, monkeypatch):
        rng = np.random.default_rng(int(q * 100))
        A = DenseMatrix(rng.standard_normal((50, 4)))
        b = rng.standard_normal(50)
        inst = ProblemInstance(A, b, q, eps=1e-6)
        counters = solve_counters(monkeypatch)
        x, rep = solve_lq(inst)
        opt = oracle_opt(inst, tol=1e-9)
        assert rep.residual_lp <= (1 + 1e-6) * opt
        assert rep.certified_gap <= 1e-6
        assert rep.gram_solves == counters[0].gram_solves

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
            x, rep = solve_lq(inst)
            opt = oracle_opt(inst, tol=1e-9)
            assert abs(rep.residual_lp / opt - 1.0) <= 1e-6

    def test_consistent_system_short_circuit(self):
        rng = np.random.default_rng(5)
        A = DenseMatrix(rng.standard_normal((12, 3)))
        x0 = rng.standard_normal(3)
        inst = ProblemInstance(A, A.a @ x0, 1.5, eps=1e-6)
        x, rep = solve_lq(inst)
        assert rep.residual_lp <= 1e-10
        assert rep.phase_counts.get("short_circuit") == 1

    def test_unreachable_eps_is_an_input_error(self):
        # A gap of 1e-16 is below float64 resolution: rejected before any
        # work instead of stalling until nu underflows.
        with pytest.raises(InvalidInputError):
            gen_instance("planted_residual", 60, 4, 0, p=2.0, eps=1e-16)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("q", [1.25, 1.5])
    def test_recovery_stops_once_the_incumbent_is_certified(self, family, q,
                                                            monkeypatch):
        # Once the incumbent is within eps/4 of its own weak-duality bound,
        # a fresh recovery cannot close the bracket; only y can.  Recovering
        # every round took 5-8 calls per solve here.
        recover = dual.primal_recover
        calls = []

        def counted(*args, **kw):
            calls.append(1)
            return recover(*args, **kw)

        monkeypatch.setattr(dual, "primal_recover", counted)
        for seed in range(3):
            inst = gen_instance(family, 200, 8, seed, p=q, eps=1e-8)
            calls.clear()
            _, rep = solve(inst, "dual", seed=0)
            assert rep.certified_gap <= 1e-8
            assert rep.residual_lp <= (1 + 1e-8) * oracle_opt(inst, tol=1e-10)
            assert 1 <= len(calls) <= 2

    def test_no_skip_within_the_rounding_allowance(self):
        # At eps 1e-14, eps/4 is below the driver's 4 n eps_mach allowance
        # at n = 60, so the skip is off and recovery keeps lowering hi;
        # with the skip on, this solve stalls in BudgetExceededError.
        inst = gen_instance("ill_conditioned", 60, 4, 1, p=1.5, eps=1e-14)
        _, rep = solve(inst, "dual", seed=0)
        assert rep.certified_gap <= 1e-14
        assert rep.phase_counts["certificate"] == 0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_refused_rounds_leave_the_bound_to_the_incumbent(self, family,
                                                             monkeypatch):
        # With every refinement round refused, y moves only when it is
        # replaced by the recovered point's dual vector; that still
        # certifies.  Without the hand-over the solve stalls in round 2.
        monkeypatch.setattr(dual, "refinement_round", lambda *a, **k: None)
        inst = gen_instance(family, 200, 8, 0, p=1.5, eps=1e-8)
        _, rep = solve(inst, "dual", seed=0)
        assert rep.certified_gap <= 1e-8
        assert rep.residual_lp <= (1 + 1e-8) * oracle_opt(inst, tol=1e-10)

    def test_stalled_warm_polish_falls_back_to_a_cold_recovery(self,
                                                                monkeypatch):
        # Here the polish started at the incumbent sits at a fixed point
        # 1.6e-10 above the best point, refinement finds no step and the
        # incumbent's dual vector is not shorter; without the cold recovery
        # the solve stalls in BudgetExceededError.  Recovering cold every
        # round certifies too, at 951 Gram solves, and the referee is the
        # lower of the two points' exact residuals.
        inst = gen_instance("ill_conditioned", 160, 8, 0, p=1.1, eps=1e-10)
        x, rep = solve(inst, "dual", seed=0)
        assert rep.phase_counts["stall_recoveries"] >= 1
        assert rep.gram_solves < 951
        residual = exact_residual_lp(inst, x)
        recover = dual.primal_recover
        monkeypatch.setattr(dual, "primal_recover",
                            lambda *args, incumbent=None, **kw:
                            recover(*args, **kw))
        x_cold, _ = solve(inst, "dual", seed=0)
        referee = min(residual, exact_residual_lp(inst, x_cold))
        assert residual / referee - 1.0 <= rep.certified_gap <= 1e-10
        # The float oracle_opt lies below both points, by less than the
        # driver's rounding allowance.
        error = residual / oracle_opt(inst) - 1.0
        assert error <= rep.certified_gap + ROUNDING_PER_ENTRY * inst.A.n

    @pytest.mark.parametrize("tol", [5e-4, 1e-3, 5e-3, 1e-2, 1e-1])
    def test_stall_rule_certifies_at_every_lewis_tolerance(self, tol,
                                                           monkeypatch):
        # Without the stall rule, 4 of these 5 tolerances raise
        # BudgetExceededError at gap 1.62e-10 on this instance; only 1e-3
        # certifies.  The referee is the one of the test above.
        monkeypatch.setattr(lewis, "REG_LEWIS_TOL", tol)
        inst = gen_instance("ill_conditioned", 160, 8, 0, p=1.1, eps=1e-10)
        x, rep = solve(inst, "dual", seed=0)
        assert rep.phase_counts["stall_recoveries"] >= 1
        assert rep.gram_solves < 951
        residual = exact_residual_lp(inst, x)
        recover = dual.primal_recover
        monkeypatch.setattr(dual, "primal_recover",
                            lambda *args, incumbent=None, **kw:
                            recover(*args, **kw))
        x_cold, _ = solve(inst, "dual", seed=0)
        referee = min(residual, exact_residual_lp(inst, x_cold))
        assert residual / referee - 1.0 <= rep.certified_gap <= 1e-10

    def test_stall_rule_keeps_the_warm_path_while_lo_rises(self):
        # Warm polishes here stall while the lower bound still rises by
        # more than eps/4 per round, so the rule keeps the warm path; a
        # rule without the lo gate runs 3 of the 8 recoveries cold.
        inst = gen_instance("gaussian", 1000, 32, 0, p=1.2, eps=1e-8)
        _, rep = solve(inst, "dual", seed=0)
        assert rep.phase_counts["stall_recoveries"] == 0
        assert rep.phase_counts["warm_recoveries"] == 8

    @pytest.mark.parametrize("q, eps, recover", [(1.1, 1e-6, 40),
                                                 (1.2, 1e-8, 45)])
    def test_warm_polish_certifies_at_large_n(self, q, eps, recover,
                                              monkeypatch):
        # Polishing from the fit every round took 98 recover solves at
        # q = 1.2; at q = 1.1 it stalled in BudgetExceededError.
        monkeypatch.setattr(harness, "ORACLE_MAX_N", 1000)
        monkeypatch.setattr(harness, "ORACLE_MAX_D", 32)
        inst = gen_instance("gaussian", 1000, 32, 0, p=q, eps=eps)
        x, rep = solve(inst, "dual", seed=0)
        assert rep.phase_counts["warm_recoveries"] >= 1
        assert rep.phase_counts["recover"] <= recover
        residual = exact_residual_lp(inst, x)
        error = residual / min(oracle_opt(inst), residual) - 1.0
        assert error <= rep.certified_gap <= eps

    def test_stacked_instance_layout(self):
        rng = np.random.default_rng(6)
        A = DenseMatrix(rng.standard_normal((10, 2)))
        b = rng.standard_normal(10)
        g = rng.standard_normal(10)
        inst = stack_instance(A, b, g, np.ones(10), 4.0)
        assert inst.U.d == 4
        assert np.array_equal(inst.v, [0.0, 0.0, 1.0, -1.0])
        assert np.array_equal(inst.U.a[:, :2], A.a)
