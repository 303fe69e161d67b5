import gc
import math
import weakref

import numpy as np
import pytest
from scipy import optimize

from lpreg.errors import (
    BisectionStallError,
    BudgetExceededError,
    InfeasibleError,
    LpregError,
)
from lpreg.linalg import DenseMatrix, SolveCounter
from lpreg.mwu import MwuGammaSolver
from lpreg.problem import ProblemInstance, pnorm
from lpreg.refine import (
    ROUND_RETRIES,
    GammaSolverContract,
    bregman_terms,
    line_search_lp,
    lp_dual_bound,
    refine_to_accuracy,
    refinement_round,
    scalar_refine_bounds,
)


class TestBregmanTerms:
    def test_zero_point(self):
        g, r = bregman_terms(np.zeros(3), 4.0)
        assert np.all(g == 0) and np.all(r == 0)

    def test_direct_formula(self):
        g, r = bregman_terms(np.array([1.0, -2.0]), 4.0)
        assert np.allclose(g, [4.0, -32.0])
        assert np.allclose(r, [1.0, 4.0])

    def test_cubic(self):
        g, r = bregman_terms(np.array([3.0]), 3.0)
        assert np.allclose(g, [27.0]) and np.allclose(r, [3.0])

    def test_p2_resistance_is_one(self):
        g, r = bregman_terms(np.array([0.0, 5.0]), 2.0)
        assert np.allclose(r, 1.0)
        assert np.allclose(g, [0.0, 10.0])


class TestScalarRefineBounds:
    def test_zero_step(self):
        lower, upper, actual = scalar_refine_bounds(1.0, 0.0, 4.0)
        assert lower == 0.0 and upper == 0.0 and actual == 0.0

    def test_unit_step_from_zero(self):
        lower, upper, actual = scalar_refine_bounds(0.0, 1.0, 2.0)
        assert actual == pytest.approx(1.0)
        assert lower == pytest.approx(0.25 + 0.125)
        assert upper == pytest.approx(8.0 + 4.0)

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 8.0])
    def test_grid_sandwich(self, p):
        xs = np.linspace(-3.0, 3.0, 601)
        x, d = np.meshgrid(xs, xs, indexing="ij")
        r = np.abs(x) ** (p - 2.0)
        g = p * r * x
        actual = np.abs(x + d) ** p - np.abs(x) ** p - g * d
        lower = (p / 8.0) * r * d ** 2 + 2.0 ** (-p - 1) * np.abs(d) ** p
        upper = 2.0 * p ** 2 * r * d ** 2 + p ** p * np.abs(d) ** p
        tol = 1e-8 + 1e-12 * np.maximum(np.abs(actual), upper)
        assert np.all(lower <= actual + tol)
        assert np.all(actual <= upper + tol)


class TestScalarPowerInequalities:
    @pytest.mark.parametrize("k", [2.0, 3.0, 4.0, 7.5, 10.0])
    def test_growth_linear_plus_power(self, k):
        # (a+b)^k - a^k <= 3k a^{k-1} b + 3 k^k b^k
        v = np.linspace(0.0, 5.0, 501)
        a, b = np.meshgrid(v, v, indexing="ij")
        lhs = (a + b) ** k - a ** k
        rhs = 3.0 * k * a ** (k - 1.0) * b + 3.0 * k ** k * b ** k
        assert np.all(lhs <= rhs + 1e-9 + 1e-12 * rhs)

    @pytest.mark.parametrize("k", [1.0, 1.3, 2.0, 5.0])
    def test_growth_four_to_the_k(self, k):
        # (a+b)^k - a^k <= 4^k (a^{k-1} b + b^k)
        v = np.linspace(0.0, 5.0, 501)
        a, b = np.meshgrid(v, v, indexing="ij")
        lhs = (a + b) ** k - a ** k
        rhs = 4.0 ** k * (a ** (k - 1.0) * b + b ** k)
        assert np.all(lhs <= rhs + 1e-9 + 1e-12 * rhs)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 8.0])
    def test_shifted_power_split(self, p):
        # |x+y|^{p-2} <= e |x|^{p-2} + p^{p-2} |y|^{p-2}
        v = np.linspace(-4.0, 4.0, 801)
        x, y = np.meshgrid(v, v, indexing="ij")
        lhs = np.abs(x + y) ** (p - 2.0)
        rhs = math.e * np.abs(x) ** (p - 2.0) + p ** (p - 2.0) * np.abs(y) ** (p - 2.0)
        assert np.all(lhs <= rhs + 1e-9 + 1e-12 * rhs)

    def test_conjugate_pair_split(self):
        # |x+y|^n <= |ax|^n + |By|^n whenever 1/a + 1/B = 1
        rng = np.random.default_rng(0)
        v = np.linspace(-4.0, 4.0, 161)
        x, y = np.meshgrid(v, v, indexing="ij")
        for alpha in rng.uniform(1.0 + 1e-6, 4.0, size=12):
            beta = alpha / (alpha - 1.0)
            for n in (0.5, 1.0, 2.0, 3.7):
                lhs = np.abs(x + y) ** n
                rhs = np.abs(alpha * x) ** n + np.abs(beta * y) ** n
                assert np.all(lhs <= rhs + 1e-9 + 1e-12 * rhs)


class TestLineSearch:
    def test_finds_scalar_quartic_minimum(self):
        u = np.array([1.0, -1.0, 2.0])
        w = np.array([1.0, 1.0, 1.0])
        c, val = line_search_lp(u, -w, 4.0)
        grid = np.linspace(0, 4, 40001)
        best = min(float(np.sum(np.abs(u - g * w) ** 4)) for g in grid)
        assert val <= best + 1e-9

    def test_no_descent_returns_zero(self):
        u = np.array([1.0, 2.0])
        c, val = line_search_lp(u, u, 4.0)
        assert c == 0.0 and val == pytest.approx(float(np.sum(u ** 4)))

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 8.0, 16.0])
    @pytest.mark.parametrize("scale", [5.0, 1e-7])
    def test_matches_reference_minimizer(self, p, scale):
        # w points back at u, so the minimizer sits near `scale`: above 1
        # the bracket must double, below 1e-6 the root is tiny.
        rng = np.random.default_rng(int(p * 10))
        u = rng.standard_normal(30)
        w = -(u + 0.3 * rng.standard_normal(30)) / scale

        def f(c):
            return float(np.sum(np.abs(u + c * w) ** p))

        ref = optimize.minimize_scalar(
            f, bounds=(0.0, 4.0 * scale), method="bounded",
            options={"xatol": 1e-14 * scale})
        c, val = line_search_lp(u, w, p)
        assert val == f(c)
        assert val <= ref.fun * (1 + 1e-12)
        assert c == pytest.approx(ref.x, rel=1e-5)

    @pytest.mark.parametrize("u, w", [
        (np.array([np.nan, 1.0]), np.array([-1.0, -1.0])),
        # finite at 0, overflows at the first probe c = 1
        (np.array([1.0, -1.0]), np.array([-1.0, 1e200])),
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_slope_is_a_solver_error(self, u, w):
        with pytest.raises(LpregError):
            line_search_lp(u, w, 3.0)

    def test_root_finder_failure_is_a_solver_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("failed to converge")

        monkeypatch.setattr(optimize, "brentq", fail)
        with pytest.raises(BisectionStallError):
            line_search_lp(np.array([1.0, -1.0, 2.0]), -np.ones(3), 4.0)

    def test_inputs_are_freed_without_the_cycle_collector(self):
        u = np.array([1.0, -1.0, 2.0])
        ref = weakref.ref(u)
        gc.disable()
        try:
            c, _ = line_search_lp(u, -np.ones(3), 4.0)
            del u
            assert c > 0.0 and ref() is None
        finally:
            gc.enable()


class TestDualBound:
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 8.0])
    def test_weak_duality_on_random_points(self, p):
        rng = np.random.default_rng(11)
        A = DenseMatrix(rng.standard_normal((40, 4)))
        b = rng.standard_normal(40)
        from lpreg.harness import oracle_opt
        opt = oracle_opt(ProblemInstance(A, b, p), tol=1e-10)
        for _ in range(10):
            x = rng.standard_normal(4)
            lb = lp_dual_bound(A, b, x, p)
            assert lb <= opt * (1 + 1e-9)

    def test_tightens_at_optimum(self):
        rng = np.random.default_rng(12)
        A = DenseMatrix(rng.standard_normal((40, 4)))
        b = rng.standard_normal(40)
        inst = ProblemInstance(A, b, 4.0, eps=1e-10)
        from lpreg.harness import solve
        x, rep = solve(inst, "accel", seed=0)
        lb = lp_dual_bound(A, b, x, 4.0)
        assert pnorm(A.a @ x - b, 4.0) <= (1 + 1e-9) * lb


class TestRefinementRound:
    U = np.array([1.0, -2.0, 0.5])
    P = 4.0

    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("floor, nu_prev", [(0.0, None), (1.0, 0.25)])
    def test_nu_halves_per_infeasible_proposal(self, k, floor, nu_prev):
        u, p = self.U, self.P
        seen = []

        def propose(nu, g, R):
            seen.append(nu)
            if len(seen) <= k:
                raise InfeasibleError("nu too large")
            return -u, -u                 # toward the minimizer u = 0

        counts = {"calls": 0, "accepted_steps": 0}
        c, direction, nu = refinement_round(u, p, floor, nu_prev, propose,
                                            counts, "calls")
        f_u = float(np.sum(np.abs(u) ** p))
        start = f_u - floor if nu_prev is None else min(f_u - floor, 4 * nu_prev)
        assert len(seen) == k + 1 and counts["calls"] == k + 1
        assert seen[0] == start and nu == start / 2 ** k
        assert counts["accepted_steps"] == 1
        assert np.array_equal(direction, -u)
        assert c == pytest.approx(1.0, abs=1e-9)

    def test_no_decrease_gives_up_after_the_retry_cap(self):
        u, p = self.U, self.P
        seen = []

        def propose(nu, g, R):
            seen.append(nu)
            return u, u                   # away from the minimizer

        counts = {"calls": 0, "accepted_steps": 0}
        assert refinement_round(u, p, 0.0, None, propose, counts,
                                "calls") is None
        assert len(seen) == ROUND_RETRIES == counts["calls"]
        assert counts["accepted_steps"] == 0
        assert all(b == a / 2 for a, b in zip(seen, seen[1:]))

    def test_underflowed_nu_ends_the_round(self):
        # f(u) - floor sits below the 1e-300 floor, so nu starts there and
        # reaches 0 within ROUND_RETRIES halvings; a proposal never sees it.
        u, p = self.U, self.P
        seen = []

        def propose(nu, g, R):
            seen.append(nu)
            raise InfeasibleError("nu too large")

        counts = {"calls": 0, "accepted_steps": 0}
        f_u = float(np.sum(np.abs(u) ** p))
        assert refinement_round(u, p, f_u, None, propose, counts,
                                "calls") is None
        assert seen[0] == 1e-300 and min(seen) > 0.0
        assert len(seen) == counts["calls"] < ROUND_RETRIES


def mwu_contract(A, p, counter=None):
    solver = MwuGammaSolver(A, p, counter=counter)
    return GammaSolverContract(solver.gamma, solver)


class TestRefineToAccuracy:
    def test_consistent_system_is_exact(self):
        A = DenseMatrix(np.array([[1.0], [2.0]]))
        b = np.array([3.0, 6.0])
        inst = ProblemInstance(A, b, 4.0, eps=1e-6)
        x, rep = refine_to_accuracy(inst, mwu_contract(A, 4.0))
        assert np.allclose(x, [3.0], atol=1e-10)
        assert rep.residual_lp <= 1e-10

    def test_symmetric_midpoint(self):
        A = DenseMatrix(np.array([[1.0], [1.0]]))
        b = np.array([0.0, 2.0])
        inst = ProblemInstance(A, b, 4.0, eps=1e-8)
        x, rep = refine_to_accuracy(inst, mwu_contract(A, 4.0))
        assert x[0] == pytest.approx(1.0, abs=1e-6)
        assert rep.residual_lp == pytest.approx(2.0 ** 0.25, rel=1e-8)

    def test_zero_rhs_short_circuits(self):
        rng = np.random.default_rng(3)
        A = DenseMatrix(rng.standard_normal((10, 3)))
        inst = ProblemInstance(A, np.zeros(10), 4.0, eps=1e-6)
        x, rep = refine_to_accuracy(inst, mwu_contract(A, 4.0))
        assert np.all(x == 0.0) and rep.residual_lp == 0.0

    def test_random_instance_certified_vs_oracle(self):
        rng = np.random.default_rng(4)
        A = DenseMatrix(rng.standard_normal((80, 5)))
        b = rng.standard_normal(80)
        inst = ProblemInstance(A, b, 4.0, eps=1e-6)
        counter = SolveCounter()
        x, rep = refine_to_accuracy(inst, mwu_contract(A, 4.0, counter=counter),
                                    counter=counter)
        from lpreg.harness import oracle_opt
        opt = oracle_opt(inst, tol=1e-9)
        assert rep.residual_lp <= (1 + 1e-6) * opt
        assert rep.certified_gap <= 1e-6
        assert rep.gram_solves == counter.gram_solves

    def test_monotone_objective_and_budget_fields(self):
        # monotonicity holds by construction of the accepting line search;
        # verify through the recorded round count and a wrapped solver.
        rng = np.random.default_rng(5)
        A = DenseMatrix(rng.standard_normal((30, 3)))
        b = rng.standard_normal(30)
        inst = ProblemInstance(A, b, 3.0, eps=1e-6)
        seen = []
        inner = MwuGammaSolver(A, 3.0)

        def spy(nu, g, R, x=None):
            seen.append(pnorm(A.a @ x - b, 3.0))
            return inner(nu, g, R, x=x)

        x, rep = refine_to_accuracy(inst, GammaSolverContract(inner.gamma, spy))
        assert all(seen[i + 1] <= seen[i] * (1 + 1e-12) for i in range(len(seen) - 1))

    def test_broken_solver_raises_budget_error(self):
        rng = np.random.default_rng(8)
        A = DenseMatrix(rng.standard_normal((20, 3)))
        b = rng.standard_normal(20)
        inst = ProblemInstance(A, b, 4.0, eps=1e-6)

        def garbage(nu, g, R, x=None):
            return np.zeros(3)

        with pytest.raises(BudgetExceededError):
            refine_to_accuracy(inst, GammaSolverContract(2.0, garbage),
                               max_rounds=5)
