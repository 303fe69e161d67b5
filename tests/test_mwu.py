import math

import numpy as np
import pytest
from scipy.linalg import null_space

from lpreg import mwu
from lpreg.errors import (
    InfeasibleError,
    InvalidInputError,
    StepBoundError,
    ZeroGradientError,
)
from lpreg.harness import gen_instance, plant_residual_instance, solve
from lpreg.lewis import lewis_overestimates
from lpreg.linalg import DenseMatrix, SolveCounter
from lpreg.mwu import (
    AlphaSchedule,
    MwuGammaSolver,
    ResidualInstance,
    apply_boost,
    boost_selection,
    energy_solve,
    gamma_value,
    mwu_constants,
    new_state,
    progress_step,
    reduce_width,
    width_reduced_oracle,
    woodbury_energy,
)
from lpreg.problem import pnorm


class TestEnergySolve:
    def test_axis_gradient(self):
        z, val, _ = energy_solve(DenseMatrix(np.eye(2)), np.ones(2),
                              np.array([1.0, 0.0]))
        assert np.allclose(z, [-1.0, 0.0]) and val == pytest.approx(1.0)

    def test_diagonal_gradient(self):
        z, val, _ = energy_solve(DenseMatrix(np.eye(2)), np.ones(2),
                              np.array([1.0, 1.0]))
        assert np.allclose(z, [-0.5, -0.5]) and val == pytest.approx(0.5)

    def test_scaled_weights(self):
        z, val, _ = energy_solve(DenseMatrix(np.eye(2)),
                              np.array([2.0, 2.0]),
                              np.array([1.0, 0.0]))
        assert np.allclose(z, [-1.0, 0.0]) and val == pytest.approx(2.0)

    def test_constraint_and_optimality(self):
        rng = np.random.default_rng(0)
        A = DenseMatrix(rng.standard_normal((30, 4)))
        D = rng.uniform(0.5, 2.0, 30)
        g = rng.standard_normal(4)
        z, val, _ = energy_solve(A, D, g)
        assert abs(g @ z + 1.0) <= 1e-10
        az = A.a @ z
        assert val == pytest.approx(float(az @ (D * az)), rel=1e-9)
        # any other feasible point has larger quadratic value
        N = null_space(g[None, :])
        for _ in range(20):
            w = z + N @ rng.standard_normal(3)
            aw = A.a @ w
            assert float(aw @ (D * aw)) >= val - 1e-9

    def test_zero_gradient_rejected(self):
        with pytest.raises(ZeroGradientError):
            energy_solve(DenseMatrix(np.eye(2)), np.ones(2),
                         np.zeros(2))


class TestEnergyIncrease:
    @pytest.mark.parametrize("p", [3.0, 4.0, 8.0])
    def test_boosted_energy_gain(self, p):
        # adding diag(v) with unit dual norm raises the optimum by at least
        # half the weighted energy of the old minimizer
        for trial in range(50):
            rng = np.random.default_rng(1000 + trial)
            n, d = int(rng.integers(15, 50)), int(rng.integers(2, 6))
            A = DenseMatrix(rng.standard_normal((n, d)))
            w = lewis_overestimates(A, p).weights
            extra = rng.uniform(0.0, 1.0, n)
            D = w ** (1.0 - 2.0 / p) + extra
            g = rng.standard_normal(d)
            v = rng.uniform(0.0, 1.0, n)
            dual = float(np.sum(v ** (p / (p - 2.0)))) ** ((p - 2.0) / p)
            v *= rng.uniform(0.1, 1.0) / dual
            y, e_old, _ = energy_solve(A, D, g)
            _, e_new, _ = energy_solve(A, D + v, g)
            gain = 0.5 * float(v @ (A.a @ y) ** 2)
            assert e_new - e_old >= gain - 1e-9


class TestBoostFormula:
    def test_single_row_hand_arithmetic(self):
        # p = 4: increment to s^2 is tau^{1/2} |az|^2 / (4 ||az||_4^4)
        s = np.array([0.3])
        az = np.array([5.0])
        tau, kappa = 10.0, 4.0
        sel, v = boost_selection(s, az, 4.0, tau, kappa)
        assert sel[0]  # 0.3 <= 2^{-2} * 4 * 5
        assert v[0] == pytest.approx(math.sqrt(10.0) * 25.0 / (4.0 * 625.0))
        out = apply_boost(s, sel, v, 4.0)
        assert out[0] == pytest.approx(math.sqrt(0.09 + v[0]))

    def test_below_threshold_not_selected(self):
        s = np.array([10.0, 0.1])
        az = np.array([1.0, 1.0])
        sel, v = boost_selection(s, az, 4.0, 10.0, 4.0)
        assert not sel[0] and sel[1]
        assert v[0] == 0.0

    def test_empty_selection_is_noop(self):
        s = np.array([5.0, 7.0])
        az = np.array([0.1, 0.2])
        sel, v = boost_selection(s, az, 4.0, 10.0, 4.0)
        assert not np.any(sel)
        assert np.array_equal(apply_boost(s, sel, v, 4.0), s)


class TestProgressStep:
    def _state(self, p=4.0, n=12, d=3, seed=0):
        inst = plant_residual_instance(n, d, p, seed=seed)
        w = lewis_overestimates(inst.A, p)
        st = new_state(inst, w)
        st.refresh("progress")
        return st

    def test_zero_direction_is_noop(self):
        st = self._state()
        s0, y0, phi0 = st.s.copy(), st.y.copy(), st.potential()
        progress_step(st, np.zeros(3))
        assert np.array_equal(st.s, s0) and np.array_equal(st.y, y0)
        assert st.potential() == phi0

    def test_zero_alpha_override_is_noop(self):
        st = self._state()
        st.alpha = 0.0
        s0 = st.s.copy()
        progress_step(st, np.ones(3))
        assert np.array_equal(st.s, s0)

    def test_monotone_quantities(self):
        st = self._state()
        s0, e0 = st.s.copy(), st.energy
        progress_step(st, st.z)
        assert np.all(st.s >= s0)
        st.refresh("progress")
        assert st.energy >= e0 - 1e-12


class TestWoodburyConsistency:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_fresh_solve(self, seed):
        rng = np.random.default_rng(seed)
        n, d = 25, 4
        inst = plant_residual_instance(n, d, 4.0, seed=seed)
        st = new_state(inst, lewis_overestimates(inst.A, 4.0))
        st.refresh("progress")
        v = np.zeros(n)
        idx = rng.choice(n, size=6, replace=False)
        v[idx] = rng.uniform(0.0, 2.0, 6)
        predicted = woodbury_energy(st, v)
        _, fresh, _ = energy_solve(inst.A,
                                st.weights_diag() + v,
                                inst.g)
        assert predicted == pytest.approx(fresh, rel=1e-8)


class TestWidthReducedOracle:
    def test_identity_instance(self):
        inst = ResidualInstance(DenseMatrix(np.eye(2)), np.array([-1.0, 0.0]),
                                np.ones(2), 4.0,
                                witness=np.array([1.0, 0.0]))
        y, info = width_reduced_oracle(inst)
        assert abs(inst.g @ y + 1.0) <= 1e-9
        assert pnorm(inst.A.a @ y, 4.0) <= 320.0
        ay = inst.A.a @ y
        assert float(ay @ (inst.R * ay)) <= 4.0 * 80.0 ** 2

    @pytest.mark.parametrize("d", [2, 4])
    def test_identity_family(self, d):
        g = np.zeros(d)
        g[0] = -1.0
        inst = ResidualInstance(DenseMatrix(np.eye(d)), g,
                                np.ones(d), 4.0,
                                witness=-g)
        y, info = width_reduced_oracle(inst)
        assert abs(inst.g @ y + 1.0) <= 1e-9
        assert info["boost_steps"] == 0

    def test_planted_instance_postconditions(self):
        p = 4.0
        inst = plant_residual_instance(120, 8, p, seed=3)
        counter = SolveCounter()
        schedule = AlphaSchedule()
        start = mwu_constants(p, 8)[1] * schedule.ratio
        y, info = width_reduced_oracle(inst, counter=counter,
                                       schedule=schedule)
        assert schedule.halvings == 0
        assert info["progress_steps"] <= math.floor(8 ** (1 / p) / start) + 1
        assert abs(inst.g @ y + 1.0) <= 1e-9
        assert pnorm(inst.A.a @ y, p) <= 80.0 * p
        ay = inst.A.a @ y
        assert float(ay @ (inst.R * ay)) <= 4.0 * (20.0 * p) ** (p - 2.0)
        assert info["gram_solves"] == counter.gram_solves

    def test_energy_and_potential_bookkeeping(self):
        inst = plant_residual_instance(60, 5, 4.0, seed=9)
        y, info = width_reduced_oracle(inst)
        phi = info["final_potential"]
        assert info["final_energy"] <= 2.0 * phi ** 0.5 * (1 + 1e-9)
        _, _, tau = mwu_constants(4.0, 5)
        kappa = 4.0 * 5 ** 0.25
        assert phi <= 2.0 * (20 * kappa) ** 4

    def test_rejects_large_p(self):
        with pytest.raises(InvalidInputError):
            ResidualInstance(DenseMatrix(np.eye(2)), np.array([-1.0, 0.0]),
                             np.ones(2), 17.0)

    def test_rejects_bad_witness(self):
        inst = ResidualInstance(DenseMatrix(np.eye(2)), np.array([-1.0, 0.0]),
                                np.ones(2), 4.0,
                                witness=np.array([5.0, 0.0]))
        with pytest.raises(InvalidInputError):
            width_reduced_oracle(inst)

    def test_infeasible_instance_detected(self):
        # a tiny gradient forces any g^T x = -1 point to be huge, so the
        # quadratic bound of the existence assumption cannot hold
        rng = np.random.default_rng(4)
        A = DenseMatrix(rng.standard_normal((20, 3)))
        g = rng.standard_normal(3) * 1e-8
        inst = ResidualInstance(A, g, np.ones(20), 4.0)
        with pytest.raises(InfeasibleError):
            width_reduced_oracle(inst)


class TestAlphaSchedule:
    def test_starts_at_the_practical_step(self):
        _, floor, _ = mwu_constants(4.0, 8)
        start = floor * AlphaSchedule().ratio
        assert start == pytest.approx(
            8 ** (-(16 - 20 + 2) / (4 * 10)) / (mwu.ALPHA_BASE * 4.0))
        assert AlphaSchedule().ratio == mwu.PAPER_ALPHA_BASE / mwu.ALPHA_BASE

    def test_output_failure_halves_and_still_certifies(self, monkeypatch):
        # the first three oracle runs that reach the output check fail it
        real = mwu.output_bounds
        fails = iter(range(3))

        def flaky(inst, y):
            if next(fails, None) is not None:
                raise StepBoundError("output bounds failed (injected)")
            return real(inst, y)

        monkeypatch.setattr(mwu, "output_bounds", flaky)
        inst = gen_instance("gaussian", 60, 4, 0, p=4.0, eps=1e-6)
        x, rep = solve(inst, "mwu")
        assert rep.certified_gap <= 1e-6
        assert rep.phase_counts["alpha_halvings"] == 3
        assert rep.phase_counts["alpha_over_floor"] == pytest.approx(
            mwu.PAPER_ALPHA_BASE / mwu.ALPHA_BASE / 8)

    def test_alpha_never_drops_below_the_paper_value(self, monkeypatch):
        def failing(inst, y):
            raise StepBoundError("output bounds failed (injected)")

        alphas = []
        real_reduce = mwu.reduce_width

        def recording(state):
            alphas.append(state.alpha)
            return real_reduce(state)

        monkeypatch.setattr(mwu, "output_bounds", failing)
        monkeypatch.setattr(mwu, "reduce_width", recording)
        inst = plant_residual_instance(40, 4, 4.0, seed=1)
        schedule = AlphaSchedule()
        with pytest.raises(StepBoundError):
            width_reduced_oracle(inst, schedule=schedule)
        _, floor, _ = mwu_constants(4.0, 4)
        halvings = math.ceil(math.log2(mwu.PAPER_ALPHA_BASE / mwu.ALPHA_BASE))
        assert schedule.ratio == 1.0 and schedule.halvings == halvings
        assert len(alphas) == halvings + 1
        assert all(a > b for a, b in zip(alphas, alphas[1:]))
        assert alphas[-1] == pytest.approx(floor, rel=1e-12)
        assert min(alphas) >= floor * (1 - 1e-12)
        assert not schedule.halve()

    def test_first_refresh_infeasibility_is_not_retried(self):
        rng = np.random.default_rng(4)
        A = DenseMatrix(rng.standard_normal((20, 3)))
        inst = ResidualInstance(A, rng.standard_normal(3) * 1e-8,
                                np.ones(20), 4.0)
        counter, schedule = SolveCounter(), AlphaSchedule()
        with pytest.raises(InfeasibleError):
            width_reduced_oracle(inst, counter=counter, schedule=schedule)
        assert schedule.halvings == 0
        assert counter.gram_solves == 1

    def test_step_bound_failure_before_any_progress_is_not_retried(
            self, monkeypatch):
        runs = []

        def failing(state):
            runs.append(state.alpha)
            raise StepBoundError("potential too large (injected)")

        monkeypatch.setattr(mwu, "reduce_width", failing)
        schedule = AlphaSchedule()
        with pytest.raises(StepBoundError):
            width_reduced_oracle(plant_residual_instance(30, 3, 4.0, seed=0),
                                 schedule=schedule)
        assert len(runs) == 1 and schedule.halvings == 0

    def test_energy_cap_failure_after_progress_keeps_alpha(self, monkeypatch):
        # The energy cap holds at every alpha, so breaking it after some
        # progress steps (nu too large for this call) is not retried.
        real_reduce = mwu.reduce_width
        capped = []

        def recording(state):
            try:
                return real_reduce(state)
            except StepBoundError:
                raise
            except InfeasibleError:
                capped.append(state.progress_steps)
                raise

        monkeypatch.setattr(mwu, "reduce_width", recording)
        inst = gen_instance("coherent_rows", 30, 3, 0, p=12.0, eps=1e-8)
        x, rep = solve(inst, "mwu")
        assert max(capped) > 0
        assert rep.phase_counts["alpha_halvings"] == 0
        assert rep.certified_gap <= 1e-8

    def test_step_count_is_at_least_one(self):
        # an alpha above d^{1/p} would give floor(d^{1/p}/alpha) = 0 steps
        inst = plant_residual_instance(30, 3, 4.0, seed=2)
        st = new_state(inst, lewis_overestimates(inst.A, 4.0),
                       alpha_ratio=1e9)
        assert st.alpha > 3 ** 0.25
        y = reduce_width(st)
        assert st.progress_steps == 1
        assert np.all(np.isfinite(y))
        assert abs(float(inst.g @ y) + 1.0) <= 1e-9


def residual_opt_bruteforce(A, g_n, R, p, nu, seed=0):
    """Constrained residual optimum by damped second-order descent."""
    gd = A.a.T @ g_n
    base = -nu * gd / float(gd @ gd)
    N = null_space(gd[None, :])

    def value_grad_hess(xi):
        delta = base + N @ xi
        az = A.a @ delta
        quad = float(az @ (R * az))
        pn = float(np.sum(np.abs(az) ** p))
        grad_full = 2.0 * A.a.T @ (R * az) + p * A.a.T @ (np.abs(az) ** (p - 2) * az)
        hess_diag = 2.0 * R + p * (p - 1.0) * np.abs(az) ** (p - 2)
        H = (A.a * hess_diag[:, None]).T @ A.a
        return quad + pn, N.T @ grad_full, N.T @ H @ N

    xi = np.zeros(N.shape[1])
    val, grad, H = value_grad_hess(xi)
    lam = 1e-10
    for _ in range(200):
        if np.linalg.norm(grad) <= 1e-13 * max(val, 1e-30):
            break
        try:
            step = np.linalg.solve(H + lam * np.eye(H.shape[0]), -grad)
        except np.linalg.LinAlgError:
            lam *= 10
            continue
        v_new, g_new, H_new = value_grad_hess(xi + step)
        if v_new < val:
            xi, val, grad, H = xi + step, v_new, g_new, H_new
            lam = max(lam / 10, 1e-14)
        else:
            lam *= 10
    return val


class TestGammaContract:
    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_contract_inequalities(self, p):
        rng = np.random.default_rng(17)
        A = DenseMatrix(rng.standard_normal((40, 4)))
        u = rng.standard_normal(40)
        g_n = p * np.abs(u) ** (p - 2.0) * u
        R = np.abs(u) ** (p - 2.0)
        nu = 0.5
        solver = MwuGammaSolver(A, p)
        delta = solver(nu, g_n, R, x=None)
        assert abs(float(g_n @ (A.a @ delta)) + nu) <= 1e-8 * nu
        opt = residual_opt_bruteforce(A, g_n, R, p, nu)
        from lpreg.refine import GammaCertificate
        cert = GammaCertificate.evaluate(A, R, p, delta)
        assert cert.within(gamma_value(p), p, opt)
        assert cert.quad_value == pytest.approx(
            float((A.a @ delta) @ (R * (A.a @ delta))))
