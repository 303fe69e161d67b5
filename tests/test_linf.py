import importlib
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

from lpreg.errors import InvalidInputError, NonFiniteError
from lpreg.harness import gen_instance, oracle_opt, solve
from lpreg.lewis import LewisOverestimate, lewis_overestimates
from lpreg.linalg import DenseMatrix, SolveCounter
from lpreg import linf
from lpreg.linf import _lse_slope, line_search_lse, linf_regress, lse_eval
from lpreg.problem import ProblemInstance
from lpreg.refine import convex_line_search, weak_duality_bound


def stacked(u, du):
    """The linf Newton step's search data: z = (u, -u), jd = (du, -du)."""
    u, du = np.asarray(u, dtype=float), np.asarray(du, dtype=float)
    return np.concatenate([u, -u]), np.concatenate([du, -du])


def random_line(seed=11, n=40):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    return stacked(u, -(u + 0.2 * rng.standard_normal(n)))


def tied_line(seed=12, n=40):
    # three entries share the maximum, with different slopes
    rng = np.random.default_rng(seed)
    u = 0.5 * rng.standard_normal(n)
    u[:3] = 2.5
    du = -(u + 0.2 * rng.standard_normal(n))
    du[:3] = [-3.0, -1.0, 0.5]
    return stacked(u, du)


def kink_at_zero_line(seed=13, n=40):
    # lines of slopes -3 and 1 tie at the top at c = 0, so the max envelope
    # is least at 0 while the soft maximum still falls there
    rng = np.random.default_rng(seed)
    u = 0.5 * rng.standard_normal(n)
    u[:2] = [2.0, -2.0]
    du = 0.1 * rng.standard_normal(n)
    du[:2] = [-3.0, -1.0]
    return stacked(u, du)


LINES = {"random": random_line, "tied": tied_line, "kink_at_zero": kink_at_zero_line}


def lse_quad_form(J: np.ndarray, pi: np.ndarray, t: float, v: np.ndarray) -> float:
    """v^T Hessian(lse_t o J) v = (1/t) (E_pi[(Jv)^2] - E_pi[Jv]^2)."""
    jv = J @ v
    mean = float(pi @ jv)
    return (float(pi @ (jv * jv)) - mean * mean) / t


def qsc_check(A: DenseMatrix, b: np.ndarray, w: LewisOverestimate,
              x: np.ndarray, t: float, directions: int = 100, seed=0):
    """Sampled smoothness and quasi-self-concordance in the weight metric.

    For random direction pairs (v, h) checks the Hessian quadratic form
    against (1/t) ||v||^2 and the finite-difference third derivative
    against (2/t) (v^T H v) ||h||, both measured in the A^T W A norm.
    Returns (worst smoothness ratio, worst third-order ratio).
    """
    J = np.vstack([A.a, -A.a])
    wv = np.asarray(w.weights, dtype=float)
    rng = np.random.default_rng(seed)

    def metric_norm(v):
        av = A.a @ v
        return math.sqrt(float(av @ (wv * av)))

    def quad_at(xp, v):
        u = A.a @ xp - b
        _, pi = lse_eval(np.concatenate([u, -u]), t)
        return lse_quad_form(J, pi, t, v)

    worst_smooth = 0.0
    worst_qsc = 0.0
    for _ in range(directions):
        v = rng.standard_normal(A.d)
        h = rng.standard_normal(A.d)
        hn = metric_norm(h)
        if hn == 0:
            continue
        h = h / hn
        quad = quad_at(x, v)
        bound = metric_norm(v) ** 2 / t
        if bound > 0:
            worst_smooth = max(worst_smooth, quad / bound)
        step = 3e-4 * t
        third = (quad_at(x + step * h, v) - quad_at(x - step * h, v)) / (2 * step)
        qsc_bound = (2.0 / t) * quad
        if qsc_bound > 0:
            worst_qsc = max(worst_qsc, abs(third) / qsc_bound)
    return worst_smooth, worst_qsc


class TestLseEval:
    def test_symmetric_pair(self):
        val, grad = lse_eval(np.array([0.0, 0.0]), 1.0)
        assert val == pytest.approx(math.log(2.0))
        assert np.allclose(grad, [0.5, 0.5])
        assert grad.sum() == pytest.approx(1.0)

    def test_shift_property(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(9)
        v0, _ = lse_eval(u, 0.7)
        v1, _ = lse_eval(u + 3.7, 0.7)
        assert v1 - v0 == pytest.approx(3.7, abs=1e-12)

    def test_half_temperature_value(self):
        val, _ = lse_eval(np.array([1.0, 0.0]), 0.5)
        assert val == pytest.approx(0.5 * math.log(math.e ** 2 + 1.0))

    def test_smoothing_sandwich(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            u = rng.standard_normal(int(rng.integers(2, 40))) * 10
            t = float(rng.uniform(0.01, 5.0))
            val, _ = lse_eval(u, t)
            assert np.max(u) - 1e-12 <= val <= np.max(u) + t * math.log(len(u)) + 1e-12

    def test_gradient_is_softmax(self):
        u = np.array([2.0, -1.0, 0.5])
        _, grad = lse_eval(u, 0.3)
        ref = np.exp(u / 0.3)
        assert np.allclose(grad, ref / ref.sum())


class TestHessianForms:
    def test_constant_direction_vanishes(self):
        # residual direction constant across rows: shift invariance kills it
        rng = np.random.default_rng(2)
        A = np.column_stack([np.ones(8), rng.standard_normal((8, 2))])
        x = rng.standard_normal(3)
        b = rng.standard_normal(8)
        _, pi = lse_eval(A @ x - b, 0.5)
        v = np.array([1.0, 0.0, 0.0])      # Av is the all-ones vector
        assert lse_quad_form(A, pi, 0.5, v) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_closed_form(self):
        # for two rows the quadratic form is pi1 pi2 (j1 - j2)^2 / t
        t = 0.4
        z = np.array([0.8, -0.3])
        e = np.exp(z / t)
        pi = e / e.sum()
        J = np.array([[2.0], [-1.0]])
        v = np.array([1.3])
        expect = pi[0] * pi[1] * (J[0, 0] * 1.3 - J[1, 0] * 1.3) ** 2 / t
        assert lse_quad_form(J, pi, t, v) == pytest.approx(expect)

    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_qsc_bounds_hold(self, t):
        rng = np.random.default_rng(3)
        A = DenseMatrix(rng.standard_normal((60, 4)))
        b = rng.standard_normal(60)
        w = lewis_overestimates(A, math.inf)
        x = rng.standard_normal(4)
        smooth, qsc = qsc_check(A, b, w, x, t, directions=100, seed=4)
        assert smooth <= 1.0 + 1e-8
        assert qsc <= 1.0 + 1e-6


class TestLinfDualBound:
    def test_weak_duality(self):
        # q = 1 bounds the minimax optimum, q = 4/3 the l4 optimum.
        rng = np.random.default_rng(5)
        A = DenseMatrix(rng.standard_normal((40, 4)))
        b = rng.standard_normal(40)
        cands = rng.standard_normal((40, 10))
        cands /= np.sum(np.abs(cands), axis=0)
        Y = np.hstack([cands, -cands])
        for q, p in ((1.0, math.inf), (4.0 / 3.0, 4.0)):
            opt = oracle_opt(ProblemInstance(A, b, p), tol=1e-9)
            singles = [weak_duality_bound(A, b, Y[:, k], q)
                       for k in range(Y.shape[1])]
            multi = weak_duality_bound(A, b, Y, q)
            assert multi == pytest.approx(max(singles), rel=1e-12)
            assert 0.0 < multi <= opt * (1 + 1e-9)
            assert all(lb <= opt * (1 + 1e-9) for lb in singles)

    @pytest.mark.parametrize("family", ["gaussian", "coherent_rows",
                                        "planted_residual"])
    @pytest.mark.parametrize("eps", [1e-3, 1e-4])
    def test_low_temperatures_never_win(self, family, eps, monkeypatch):
        # At every iterate a bench-like solve bounds, the softmax
        # candidates at temperatures below 0.1 times the max residual
        # never beat the bound best_linf_bound returns.
        calls = []
        bound = linf.best_linf_bound

        def recording(A, b, x, counter=None):
            value = bound(A, b, x, counter)
            calls.append((A, b, x, value))
            return value

        monkeypatch.setattr(linf, "best_linf_bound", recording)
        linf_regress(gen_instance(family, 160, 8, 0, p=math.inf, eps=eps))
        assert calls
        for A, b, x, value in calls:
            u = A.a @ x - b
            hi = float(np.max(np.abs(u)))
            stacked = np.concatenate([u, -u])
            dropped = []
            for scale in (0.03, 0.01, 3e-3, 1e-3, 3e-4, 1e-4, 1e-5):
                pi = lse_eval(stacked, scale * hi)[1]
                dropped.append(pi[:A.n] - pi[A.n:])
            assert weak_duality_bound(A, b, np.column_stack(dropped),
                                      1.0) <= value


class TestLinfRegress:
    def test_consistent_rhs(self):
        rng = np.random.default_rng(6)
        A = DenseMatrix(rng.standard_normal((20, 3)))
        x0 = rng.standard_normal(3)
        inst = ProblemInstance(A, A.a @ x0, math.inf, eps=1e-2)
        x, rep = linf_regress(inst, seed=0)
        assert rep.residual_lp <= 1e-10

    def test_chebyshev_midpoint(self):
        A = DenseMatrix(np.array([[1.0], [1.0]]))
        b = np.array([0.0, 2.0])
        inst = ProblemInstance(A, b, math.inf, eps=1e-2)
        x, rep = linf_regress(inst, seed=0)
        assert rep.residual_lp <= (1 + 1e-2) * 1.0
        assert x[0] == pytest.approx(1.0, abs=2e-2)

    @pytest.mark.parametrize("eps", [1e-1, 1e-2])
    def test_random_instances_vs_oracle(self, eps):
        rng = np.random.default_rng(7)
        for seed in range(4):
            A = DenseMatrix(rng.standard_normal((100, 5)))
            b = rng.standard_normal(100)
            inst = ProblemInstance(A, b, math.inf, eps=eps)
            x, rep = linf_regress(inst, seed=seed)
            opt = oracle_opt(inst, tol=1e-8)
            assert rep.residual_lp <= (1 + eps) * opt
            assert rep.certified_gap <= eps

    def test_distance_bound_near_optimum(self):
        # any 2-approximate point sits within 18 d opt^2 of the optimum in
        # the weighted metric
        rng = np.random.default_rng(8)
        A = DenseMatrix(rng.standard_normal((50, 4)))
        b = rng.standard_normal(50)
        inst = ProblemInstance(A, b, math.inf, eps=1e-4)
        x_star, rep = linf_regress(inst, seed=0)
        opt = oracle_opt(inst, tol=1e-9)
        w = lewis_overestimates(A, math.inf).weights
        found = 0
        for _ in range(200):
            x = x_star + 0.05 * rng.standard_normal(4)
            if np.max(np.abs(A.a @ x - b)) <= 2 * opt:
                step = A.a @ (x - x_star)
                assert float(step @ (w * step)) <= 18.0 * 4 * opt ** 2 * (1 + 1e-6)
                found += 1
        assert found > 0

    def test_report_fields(self):
        rng = np.random.default_rng(9)
        A = DenseMatrix(rng.standard_normal((30, 3)))
        b = rng.standard_normal(30)
        x, rep = linf_regress(ProblemInstance(A, b, math.inf, eps=0.1), seed=0)
        assert rep.method == "linf"
        assert rep.p == math.inf
        assert rep.phase_counts["newton_steps"] > 0
        assert rep.gram_solves > 0

    def test_finite_exponent_is_invalid_input(self):
        # rejected before any round runs, not left to stall
        inst = gen_instance("gaussian", 60, 4, 0, p=4.0)
        with pytest.raises(InvalidInputError, match="p = inf"):
            linf_regress(inst, seed=0)

    @pytest.mark.parametrize("family", ["gaussian", "ill_conditioned",
                                        "planted_residual", "coherent_rows"])
    def test_one_gram_solve_per_newton_step(self, family):
        inst = gen_instance(family, 60, 4, 0, p=math.inf, eps=1e-4)
        _, rep = linf_regress(inst, seed=0)
        assert rep.phase_counts["newton"] == rep.phase_counts["newton_steps"]

    @pytest.mark.parametrize("seed", range(5))
    def test_ill_conditioned_certifies_at_tight_eps(self, seed):
        inst = gen_instance("ill_conditioned", 60, 4, seed, p=math.inf,
                            eps=1e-8)
        _, rep = linf_regress(inst, seed=seed)
        assert rep.certified_gap <= 1e-8

    @pytest.mark.parametrize("n, d, seed", [(60, 4, 4), (160, 8, 2)])
    def test_ill_conditioned_certifies_at_eps_1e_minus_10(self, n, d, seed):
        # Both stalled in BudgetExceededError while the temperature was tied
        # to eps from the first round; it now follows the bracket's gap.
        inst = gen_instance("ill_conditioned", n, d, seed, p=math.inf,
                            eps=1e-10)
        _, rep = linf_regress(inst, seed=seed)
        assert rep.certified_gap <= 1e-10
        assert rep.residual_lp <= (1 + 1e-10) * oracle_opt(inst)


class TestLineSearch:
    @pytest.mark.parametrize("t", [1.0, 1e-3, 1e-6])
    @pytest.mark.parametrize("case", sorted(LINES))
    def test_matches_reference(self, case, t):
        z, jd = LINES[case]()

        def f(c):
            return lse_eval(z + c * jd, t)[0]

        ref = optimize.minimize_scalar(f, bounds=(0.0, 4.0), method="bounded",
                                       options={"xatol": 1e-14})
        counter = SolveCounter()
        c, val = line_search_lse(z, jd, t, lse_eval(z, t), counter)
        assert val == f(c)
        assert val <= ref.fun + 1e-14 * abs(ref.fun)
        # At t = 1e-6 the value cannot place the minimizer closer than 1e-5
        # relative; the root of the slope (brentq) can.
        assert c == pytest.approx(ref.x, rel=1e-5 if t > 1e-6 else 1e-3)
        assert c == pytest.approx(convex_line_search(_lse_slope, (z, jd, t)),
                                  rel=1e-9)
        assert 1 <= counter.steps["line_search_evals"] <= 12

    def test_two_tied_lines_give_the_softmax_root(self):
        # Far above every other line, lse of lines of slopes -3 and 1 tied
        # at 0 is least at t / 4 log 3, where the search starts.
        z, jd = kink_at_zero_line()
        top = z == z.max()
        z[~top] -= 100.0
        t = 1e-3
        c, _ = line_search_lse(z, jd, t, lse_eval(z, t))
        assert c == pytest.approx(t / 4.0 * math.log(3.0), rel=1e-12)

    @pytest.mark.parametrize("t", [1.0, 1e-3])
    @pytest.mark.parametrize("case", sorted(LINES))
    def test_fallback_is_convex_line_search(self, case, t, monkeypatch):
        # With Newton refused, bisection runs out of probes before it
        # resolves the root and refine.convex_line_search takes over.
        z, jd = LINES[case]()
        ref = convex_line_search(_lse_slope, (z, jd, t))
        calls = []
        monkeypatch.setattr(linf, "_newton_accepts", lambda *args: False)
        monkeypatch.setattr(
            linf, "convex_line_search",
            lambda *args: calls.append(1) or convex_line_search(*args))
        counter = SolveCounter()
        c, val = line_search_lse(z, jd, t, lse_eval(z, t), counter)
        assert calls == [1]
        assert c == pytest.approx(ref, rel=1e-14, abs=0.0)
        assert val == lse_eval(z + c * jd, t)[0]
        # the fallback's slope evaluations are counted too
        assert counter.steps["line_search_evals"] > linf.LINE_SEARCH_PROBES

    def test_ascent_direction_returns_zero(self):
        z, jd = random_line()
        at0 = lse_eval(z, 1e-3)
        assert line_search_lse(z, -jd, 1e-3, at0) == (0.0, at0[0])

    def test_zero_direction_returns_zero(self):
        z, jd = random_line()
        at0 = lse_eval(z, 1e-3)
        counter = SolveCounter()
        assert line_search_lse(z, 0.0 * jd, 1e-3, at0, counter) == (0.0, at0[0])
        assert counter.steps.get("line_search_evals", 0) == 0

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_slope_raises(self, bad):
        z, jd = random_line()
        jd[0] = bad
        with pytest.raises(NonFiniteError):
            line_search_lse(z, jd, 1e-3, lse_eval(z, 1e-3))

    def test_bench_instances_take_few_evaluations(self, monkeypatch):
        # The first 12 instances of the linf bench batch at seed 0, one per
        # class.  refine.convex_line_search, which linf used before, makes
        # about 27 slope evaluations per search on them.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        workloads = importlib.import_module("perfbench.workloads")
        cases = workloads.build_batch(workloads.WORKLOADS["linf"], 0)[:12]
        evals = searches = 0
        for case in cases:
            _, rep = solve(case.instance, "linf", seed=case.solve_seed)
            evals += rep.phase_counts["line_search_evals"]
            searches += rep.phase_counts["newton_steps"]
        assert searches > 0
        assert evals <= 10 * searches
