import gc
import math
import weakref

import numpy as np
import pytest
from scipy import optimize

from lpreg import harness, refine
from lpreg.errors import (
    BisectionStallError,
    BoundAboveObjectiveError,
    BudgetExceededError,
    InfeasibleError,
    LpregError,
)
from lpreg.harness import FAMILIES, gen_instance
from lpreg.linalg import DenseMatrix, SolveCounter
from lpreg.linf import line_search_lse, lse_eval
from lpreg.mwu import MwuGammaSolver
from lpreg.problem import ProblemInstance, pnorm
from lpreg.refine import (
    ROUND_RETRIES,
    BracketSteps,
    bregman_terms,
    certified_solve,
    line_search_lp,
    lp_dual_bound,
    newton_line_search,
    refine_to_accuracy,
    refinement_round,
    weak_duality_bound,
)

from diagnostics import scalar_refine_bounds


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

    @pytest.mark.parametrize("t", [1.0, 1e-3])
    def test_softmax_minimizer_matches_reference(self, t):
        # the linf Newton step's search: lse_t(z + c jd) over c >= 0
        rng = np.random.default_rng(11)
        u = rng.standard_normal(40)
        du = -(u + 0.2 * rng.standard_normal(40))
        z, jd = np.concatenate([u, -u]), np.concatenate([du, -du])

        def f(c):
            return lse_eval(z + c * jd, t)[0]

        def slope(c):
            return float(lse_eval(z + c * jd, t)[1] @ jd)

        ref = optimize.minimize_scalar(f, bounds=(0.0, 4.0), method="bounded",
                                       options={"xatol": 1e-14})
        root = optimize.brentq(slope, 0.0, 4.0, xtol=1e-300, rtol=8.9e-16)
        c, val = line_search_lse(z, jd, t, lse_eval(z, t), SolveCounter())
        assert val == f(c)
        assert val <= ref.fun + 1e-14 * abs(ref.fun)
        assert c == pytest.approx(ref.x, rel=1e-5)
        assert c == pytest.approx(root, rel=1e-9)

    def test_exact_zeros_at_the_root(self):
        # q = 1.5, with dyadic data so that u + c w is exact at dyadic c.
        # The entries come in mirror pairs, v_j(c) = -v_i(1.5 - c), so the
        # minimizer is 0.75, and they vanish at c = 0, 0.5, 0.75, 1 and
        # 1.5, where the curvature is infinite.  Bisection probes 1, 0.5
        # and the root itself; none of them may stop the search short.
        q, root = 1.5, 0.75
        rng = np.random.default_rng(5)
        wi = rng.integers(4, 17, 12) / 8.0
        ui = rng.integers(-16, 17, 12) / 8.0
        ui[:3] = [0.0, -wi[1], -root * wi[2]]
        u = np.concatenate([ui, -ui - 2.0 * root * wi])
        w = np.concatenate([wi, wi])

        def f(c):
            return float(np.sum(np.abs(u + c * w) ** q))

        def slope(c):
            v = u + c * w
            return q * float((np.abs(v) ** (q - 1.0) * np.sign(v)) @ w)

        def probe(c):
            probes.append(c)
            with np.errstate(divide="ignore"):
                r = np.abs(u + c * w) ** (q - 2.0)
            return slope(c), q * (q - 1.0) * float(r @ (w * w)), 0.0

        ref = optimize.minimize_scalar(f, bounds=(0.0, 2.0), method="bounded",
                                       options={"xatol": 1e-14})
        assert ref.x == pytest.approx(root, rel=1e-6)
        c, val = line_search_lp(u, w, q)
        assert c == pytest.approx(root, rel=1e-12)
        assert val == f(c) and val <= ref.fun
        probes = []
        c = newton_line_search(probe, 1.0)
        assert probes[:3] == [1.0, 0.5, root]
        assert c == pytest.approx(root, rel=1e-12)

    @pytest.mark.parametrize("u, w", [
        (np.array([np.nan, 1.0]), np.array([-1.0, -1.0])),
        # finite at 0, overflows at the first probe c = 1
        (np.array([1.0, -1.0]), np.array([-1.0, 1e200])),
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_slope_is_a_solver_error(self, u, w):
        with pytest.raises(LpregError):
            line_search_lp(u, w, 3.0)

    def test_root_finder_failure_is_a_solver_error(self):
        # a slope that never turns non-negative leaves the root unresolved
        with pytest.raises(BisectionStallError):
            newton_line_search(lambda c: (-1.0, 0.0, 0.0), 1.0)

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
            lb = lp_dual_bound(A, b, x, p, SolveCounter())
            assert lb <= opt * (1 + 1e-9)

    def test_tightens_at_optimum(self):
        rng = np.random.default_rng(12)
        A = DenseMatrix(rng.standard_normal((40, 4)))
        b = rng.standard_normal(40)
        inst = ProblemInstance(A, b, 4.0, eps=1e-10)
        from lpreg.harness import solve
        x, rep = solve(inst, "accel", seed=0)
        lb = lp_dual_bound(A, b, x, 4.0, SolveCounter())
        assert pnorm(A.a @ x - b, 4.0) <= (1 + 1e-9) * lb

    @pytest.mark.parametrize("family", ["gaussian", "ill_conditioned"])
    @pytest.mark.parametrize("p", [3.0, 8.0])
    def test_never_above_the_uncharged_bound(self, family, p):
        # The drift-charged value can only lower -b^T yhat / ||yhat||_q,
        # at the price of the same one certificate solve.
        from lpreg.harness import gen_instance
        inst = gen_instance(family, 160, 8, 0, p=p)
        A, b = inst.A, inst.b
        y0 = np.linalg.lstsq(A.a, b, rcond=None)[0]
        rng = np.random.default_rng(13)
        for scale in (1e-8, 1e-3, 1.0):
            x = y0 + scale * rng.standard_normal(8)
            u = A.a @ x - b
            m = float(np.max(np.abs(u)))    # the candidate lp_dual_bound forms
            y = (np.abs(u) / m) ** (p - 1.0) * np.sign(u)
            y /= (pnorm(u, p) / m) ** (p - 1.0)
            counter = SolveCounter()
            lb = lp_dual_bound(A, b, x, p, counter)
            plain = weak_duality_bound(A, b, y, p / (p - 1.0), SolveCounter())
            assert 0.0 < lb <= plain
            assert lb <= pnorm(u, p) * (1.0 + 1e-15)
            assert counter.by_phase == {"certificate": 1}


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

        counter = SolveCounter()
        c, direction, nu = refinement_round(u, p, floor, nu_prev, propose,
                                            counter, "calls")
        f_u = float(np.sum(np.abs(u) ** p))
        start = f_u - floor if nu_prev is None else min(f_u - floor, 4 * nu_prev)
        assert len(seen) == k + 1
        assert counter.steps == {"calls": k + 1, "accepted_steps": 1}
        assert seen[0] == start and nu == start / 2 ** k
        assert np.array_equal(direction, -u)
        assert c == pytest.approx(1.0, abs=1e-9)

    def test_no_decrease_gives_up_after_the_retry_cap(self):
        u, p = self.U, self.P
        seen = []

        def propose(nu, g, R):
            seen.append(nu)
            return u, u                   # away from the minimizer

        counter = SolveCounter()
        assert refinement_round(u, p, 0.0, None, propose, counter,
                                "calls") is None
        assert len(seen) == ROUND_RETRIES == counter.steps["calls"]
        assert "accepted_steps" not in counter.steps
        assert all(b == a / 2 for a, b in zip(seen, seen[1:]))

    def test_underflowed_nu_ends_the_round(self):
        # f(u) - floor sits below the 1e-300 floor, so nu starts there and
        # reaches 0 within ROUND_RETRIES halvings; a proposal never sees it.
        u, p = self.U, self.P
        seen = []

        def propose(nu, g, R):
            seen.append(nu)
            raise InfeasibleError("nu too large")

        counter = SolveCounter()
        f_u = float(np.sum(np.abs(u) ** p))
        assert refinement_round(u, p, f_u, None, propose, counter,
                                "calls") is None
        assert seen[0] == 1e-300 and min(seen) > 0.0
        assert len(seen) == counter.steps["calls"] < ROUND_RETRIES


def mwu_solver(unit):
    return MwuGammaSolver(unit.A, unit.p, unit.counter)


class TestRefineToAccuracy:
    def test_consistent_system_is_exact(self):
        A = DenseMatrix(np.array([[1.0], [2.0]]))
        b = np.array([3.0, 6.0])
        inst = ProblemInstance(A, b, 4.0, eps=1e-6)
        x, rep = refine_to_accuracy(inst, mwu_solver)
        assert np.allclose(x, [3.0], atol=1e-10)
        assert rep.residual_lp <= 1e-10

    def test_symmetric_midpoint(self):
        A = DenseMatrix(np.array([[1.0], [1.0]]))
        b = np.array([0.0, 2.0])
        inst = ProblemInstance(A, b, 4.0, eps=1e-8)
        x, rep = refine_to_accuracy(inst, mwu_solver)
        assert x[0] == pytest.approx(1.0, abs=1e-6)
        assert rep.residual_lp == pytest.approx(2.0 ** 0.25, rel=1e-8)

    def test_zero_rhs_short_circuits(self):
        rng = np.random.default_rng(3)
        A = DenseMatrix(rng.standard_normal((10, 3)))
        inst = ProblemInstance(A, np.zeros(10), 4.0, eps=1e-6)
        x, rep = refine_to_accuracy(inst, mwu_solver)
        assert np.all(x == 0.0) and rep.residual_lp == 0.0

    def test_random_instance_certified_vs_oracle(self):
        rng = np.random.default_rng(4)
        A = DenseMatrix(rng.standard_normal((80, 5)))
        b = rng.standard_normal(80)
        inst = ProblemInstance(A, b, 4.0, eps=1e-6)
        x, rep = refine_to_accuracy(inst, mwu_solver)
        from lpreg.harness import oracle_opt
        opt = oracle_opt(inst, tol=1e-9)
        assert rep.residual_lp <= (1 + 1e-6) * opt
        assert rep.certified_gap <= 1e-6
        # The solver ticks the solve's counter, so the report holds its
        # progress solves beside the driver's start and certificates.
        counts = rep.phase_counts
        assert counts["progress"] > 0 and counts["gamma_calls"] > 0
        assert rep.gram_solves == (counts["init"] + counts["certificate"]
                                   + counts["progress"])

    def test_monotone_objective_and_budget_fields(self, monkeypatch):
        # monotonicity holds by construction of the accepting line search;
        # verify it on the objective each refinement round starts from.
        rng = np.random.default_rng(5)
        A = DenseMatrix(rng.standard_normal((30, 3)))
        b = rng.standard_normal(30)
        inst = ProblemInstance(A, b, 3.0, eps=1e-6)
        seen = []
        real_round = refine.refinement_round

        def spy(u, p, *args):
            seen.append(float(np.sum(np.abs(u) ** p)))
            return real_round(u, p, *args)

        monkeypatch.setattr(refine, "refinement_round", spy)
        x, rep = refine_to_accuracy(inst, mwu_solver)
        assert len(seen) > 1
        assert all(seen[i + 1] <= seen[i] * (1 + 1e-12) for i in range(len(seen) - 1))

    def test_broken_solver_raises_budget_error(self):
        rng = np.random.default_rng(8)
        A = DenseMatrix(rng.standard_normal((20, 3)))
        b = rng.standard_normal(20)
        inst = ProblemInstance(A, b, 4.0, eps=1e-6)

        def garbage(nu, g, R):
            return np.zeros(3)

        with pytest.raises(BudgetExceededError, match="after 1 rounds"):
            refine_to_accuracy(inst, lambda unit: garbage)


def stub_bound_steps(factor):
    """Steps whose lower bound is factor times the achieved objective."""
    def make_steps(unit):
        def lower_bound(z):
            return factor * pnorm(unit.A.a @ z - unit.b, unit.p)
        return BracketSteps(lower_bound, lambda z, lo, hi: None)
    return make_steps


class TestCertifiedSolveBounds:
    def instance(self):
        rng = np.random.default_rng(12)
        A = DenseMatrix(rng.standard_normal((40, 3)))
        return ProblemInstance(A, rng.standard_normal(40), 4.0, eps=1e-6)

    def test_bound_above_objective_raises(self):
        with pytest.raises(BoundAboveObjectiveError, match="round 1"):
            certified_solve(self.instance(), "stub", stub_bound_steps(1.01))

    def test_bound_equal_to_objective_certifies_with_gap_zero(self):
        _, rep = certified_solve(self.instance(), "stub", stub_bound_steps(1.0))
        assert rep.certified_gap == 0.0
        assert rep.phase_counts["rounds"] == 1


class TestCertifiedSolveRounds:
    def test_one_round_cap_for_every_method(self):
        # A zero bound and a step that returns its own point never certify;
        # the driver stops them after MAX_ROUNDS, whatever the method.
        rng = np.random.default_rng(14)
        A = DenseMatrix(rng.standard_normal((40, 3)))
        inst = ProblemInstance(A, rng.standard_normal(40), 4.0, eps=1e-6)

        def make_steps(unit):
            return BracketSteps(lambda z: 0.0, lambda z, lo, hi: z)

        with pytest.raises(BudgetExceededError,
                           match=f"after {refine.MAX_ROUNDS} rounds"):
            certified_solve(inst, "stub", make_steps)


class UnitCaptured(Exception):
    pass


def unit_problem_of(inst):
    """The UnitProblem that certified_solve hands to make_steps for inst."""
    def make_steps(unit):
        raise UnitCaptured(unit)

    with pytest.raises(UnitCaptured) as info:
        certified_solve(inst, "stub", make_steps)
    return info.value.args[0]


@pytest.mark.parametrize("family, scale, decades", [
    *[(family, scale, harness.ILL_COND_DECADES) for family in FAMILIES
      for scale in (1e-200, 1.0, 1e200)],
    ("ill_conditioned", 1.0, 12.0)])
def test_unit_problem_b_is_a_unit_vector_off_range_a(family, scale, decades,
                                                     monkeypatch):
    # lp_dual_bound and best_linf_bound rely on this: on the unit problem
    # ||Ax - b||_2 >= 1 - O(eps_mach) at every x, so no residual is zero.
    monkeypatch.setattr(harness, "ILL_COND_DECADES", decades)
    tol = 4.0 * np.finfo(float).eps
    for n, d in ((60, 4), (160, 8)):
        for seed in range(8):
            inst = gen_instance(family, n, d, seed, p=4.0)
            unit = unit_problem_of(ProblemInstance(
                DenseMatrix(scale * inst.A.a), scale * inst.b, 4.0))
            q, _ = unit.A.qr
            assert abs(np.linalg.norm(unit.b) - 1.0) <= tol
            assert np.max(np.abs(q.T @ unit.b)) <= tol


class TestCertifiedSolveAtP2:
    def test_least_squares_start_certifies_without_steps(self):
        # At p = 2 the driver brackets its own start; a solver's steps are
        # never built, and each solve reports only its own two solves.
        rng = np.random.default_rng(13)
        A = DenseMatrix(rng.standard_normal((40, 3)))
        b = rng.standard_normal(40)
        inst = ProblemInstance(A, b, 2.0, eps=1e-14)

        def make_steps(unit):
            raise AssertionError("steps built at p = 2")

        reports = [certified_solve(inst, "stub", make_steps)[1]
                   for _ in range(2)]
        x_ls = np.linalg.lstsq(A.a, b, rcond=None)[0]
        for rep in reports:
            assert rep.certified_gap <= 1e-14
            assert rep.residual_lp == pytest.approx(
                pnorm(A.a @ x_ls - b, 2.0), rel=1e-14)
            assert rep.gram_solves == 2
            assert rep.phase_counts == {"rounds": 1, "init": 1,
                                        "certificate": 1, "factorizations": 1}
