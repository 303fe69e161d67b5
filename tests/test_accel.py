import math
import sys
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.linalg import eigh, solve_triangular
from scipy.optimize import brentq, minimize

import lpreg.accel as accel
from lpreg.accel import (
    MetricPencil,
    ProxProblem,
    _solve_inner_subproblem,
    halve_error,
    ms_accelerate,
    prox_solve,
    reg_coefficient,
    solve_pnorm_accel,
)
from lpreg.errors import (
    BisectionStallError,
    BudgetExceededError,
    InvalidInputError,
    LpregError,
    NonFiniteError,
    SingularGramError,
)
from lpreg.harness import FAMILIES, gen_instance, oracle_opt
from lpreg.lewis import lewis_overestimates
from lpreg.linalg import DenseMatrix, SolveCounter, gram_solve_multi
from lpreg.problem import ProblemInstance, pnorm

from diagnostics import (
    exact_residual_lp,
    hessian_stability_check,
    prox_f,
    prox_f_reg,
    prox_grad_f_reg,
    reference_log_gap,
    strong_convexity_check,
)


HALVING_DISTANCE_COEFF = 2.0 ** 1.5


def distance_bound(d, p, err):
    """Metric distance to the optimum implied by a function-error bound."""
    return HALVING_DISTANCE_COEFF * d ** (0.5 - 1.0 / p) * err ** (1.0 / p)


def make_problem(n, d, p, seed, center_seed=None):
    rng = np.random.default_rng(seed)
    A = DenseMatrix(rng.standard_normal((n, d)))
    b = rng.standard_normal(n)
    w = lewis_overestimates(A, p)
    y = np.random.default_rng(center_seed or seed + 1).standard_normal(d)
    return ProxProblem(A, b, p, w, y)


class TestHessianStability:
    def test_center_point_passes(self):
        prob = make_problem(30, 4, 4.0, 0)
        worst = hessian_stability_check(prob.center, prob.center, prob,
                                        samples=50, seed=1)
        assert worst <= 1.0 + 1e-8

    def test_quadratic_case_passes(self):
        prob = make_problem(30, 4, 2.0, 2)
        x = prob.center + np.random.default_rng(3).standard_normal(4)
        assert hessian_stability_check(prob.center, x, prob, samples=50,
                                       seed=4) <= 1.0 + 1e-8

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 8.0])
    def test_metric_distance_one(self, p):
        prob = make_problem(60, 5, p, 5)
        rng = np.random.default_rng(6)
        step = rng.standard_normal(5)
        x = prob.center + step / prob.m_norm(step)
        assert hessian_stability_check(prob.center, x, prob, samples=200,
                                       seed=7) <= 1.0 + 1e-8


class TestProxSolve:
    def test_center_already_optimal(self):
        rng = np.random.default_rng(8)
        A = DenseMatrix(rng.standard_normal((25, 3)))
        y = rng.standard_normal(3)
        w = lewis_overestimates(A, 4.0)
        prob = ProxProblem(A, A.a @ y, 4.0, w, y)
        cert = prox_solve(prob, y, 1e-12, SolveCounter())
        assert prob.m_norm(cert.x - y) <= 1e-3  # tol^{1/(p-1)} scale
        assert cert.satisfied

    def test_overflowing_center_residuals_raise(self):
        # |u|^{p-2} of residuals near 1e200 is far beyond the float range.
        prob = make_problem(40, 4, 14.0, 0)
        with pytest.raises(InvalidInputError, match="overflow the exponent"):
            ProxProblem(prob.A, prob.b, 14.0, prob.weights, np.full(4, 1e200))

    def test_certificate_and_independent_descent(self):
        prob = make_problem(50, 4, 4.0, 10)
        counter = SolveCounter()
        cert = prox_solve(prob, prob.center, 1e-10, counter)
        assert cert.residual <= cert.threshold
        res = minimize(partial(prox_f_reg, prob), prob.center,
                       jac=partial(prox_grad_f_reg, prob), method="L-BFGS-B",
                       options={"maxiter": 5000, "ftol": 1e-15, "gtol": 1e-12})
        assert prox_f_reg(prob, cert.x) <= res.fun + 1e-6 * (1 + abs(res.fun))
        assert counter.gram_solves > 0

    def test_tau_complementarity(self):
        prob = make_problem(40, 4, 4.0, 11)
        x0 = prob.center + 0.5 * np.random.default_rng(12).standard_normal(4)
        cert = prox_solve(prob, x0, 1e-12, SolveCounter())
        if cert.tau > 0 and cert.inner_iterations > 0:
            dist_sq = prob.m_norm(cert.x - prob.center) ** 2
            assert cert.tau ** (2.0 / (prob.p - 2.0)) == pytest.approx(
                dist_sq, rel=1e-8, abs=1e-30)

    def test_gradient_matches_finite_differences(self):
        prob = make_problem(25, 3, 4.0, 13)
        rng = np.random.default_rng(14)
        x = prob.center + 0.3 * rng.standard_normal(3)
        for fn, grad_fn in ((partial(prox_f, prob), prob.grad_f),
                            (partial(prox_f_reg, prob),
                             partial(prox_grad_f_reg, prob))):
            g = grad_fn(x)
            for i in range(3):
                e = np.zeros(3)
                e[i] = 1e-6 * max(1.0, abs(x[i]))
                fd = (fn(x + e) - fn(x - e)) / (2 * e[i])
                assert fd == pytest.approx(g[i], rel=1e-5, abs=1e-8)


def family_problem(family, p):
    """A 320x16 prox center at the least-squares point of a bench family."""
    inst = gen_instance(family, 320, 16, 0, p=p)
    A = inst.A
    center = np.linalg.lstsq(A.a, inst.b, rcond=None)[0]
    return ProxProblem(A, inst.b, p, lewis_overestimates(A, p), center)


def qr_tau_step(prob, glin, tau):
    """The tau-step from a QR factorization of diag(D)^{1/2} A."""
    diag = 8.0 * prob._hess_center + 4.0 * prob.p * prob.cp * tau * prob.m_diag
    _, r = np.linalg.qr(np.sqrt(diag)[:, None] * prob.A.a)
    return -solve_triangular(r, solve_triangular(r, glin, trans="T"))


class TestMetricPencil:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("p", [4.0, 8.0])
    def test_steps_match_qr_reference(self, family, p):
        # The returned step at the returned tau; scaling glin moves the
        # root tau across decades (about 1e-62 to 1e5 over these cases).
        prob = family_problem(family, p)
        glin = np.random.default_rng(1).standard_normal(16)
        for scale in (1e-6, 1.0, 1e6):
            step, tau = _solve_inner_subproblem(
                prob, prob.pencil().coords(scale * glin), 1.0, SolveCounter())
            ref = qr_tau_step(prob, scale * glin, tau)
            assert prob.m_norm(step - ref) <= 1e-8 * prob.m_norm(ref)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_m_inv_norm_matches_gram_solve(self, family):
        prob = family_problem(family, 4.0)
        v = np.random.default_rng(2).standard_normal(16)
        sol = gram_solve_multi(prob.A, prob.m_diag, v)
        scaled = np.sqrt(prob.m_diag)[:, None] * prob.A.a
        _, r = np.linalg.qr(scaled)
        ref = np.linalg.norm(solve_triangular(r, v, trans="T"))
        m_inv_norm = np.linalg.norm(
            prob.metric_coords(v, SolveCounter(), "metric"))
        assert m_inv_norm == pytest.approx(ref, rel=1e-10)
        assert math.sqrt(v @ sol) == pytest.approx(ref, rel=1e-10)

    def test_pencil_diagonalizes_both_gram_matrices(self):
        prob = family_problem("gaussian", 8.0)
        pencil = prob.pencil()
        a = prob.A.a
        gm = (a * prob.m_diag[:, None]).T @ a
        gh = (a * prob._hess_center[:, None]).T @ a
        assert np.allclose(pencil.t.T @ gm @ pencil.t, np.eye(16), atol=1e-9)
        hd = pencil.t.T @ gh @ pencil.t
        assert np.allclose(hd, np.diag(pencil.lam),
                           atol=1e-9 * max(pencil.lam.max(), 1.0))
        assert pencil.lam.min() >= 0.0

    def test_non_finite_glin_raises(self):
        # The gradients leave evaluate in pencil coordinates, checked there.
        prob = family_problem("gaussian", 4.0)
        s = np.ones(320)
        s[3] = np.nan
        with pytest.raises(NonFiniteError):
            prob.evaluate(s)

    def test_non_finite_weights_raise(self):
        prob = family_problem("gaussian", 4.0)
        prob.m_diag[0] = np.inf
        with pytest.raises(NonFiniteError):
            prob.metric_coords(np.ones(16), SolveCounter(), "metric")

    def test_non_finite_rhs_raises(self):
        pencil = family_problem("gaussian", 4.0).pencil()
        v = np.ones(16)
        v[5] = np.inf
        with pytest.raises(NonFiniteError):
            pencil.coords(v)

    def test_prox_ticks_once_per_distinct_tau(self, monkeypatch):
        # Each probe's log gap and the returned step's coordinates are
        # recorded by their tau.
        prob = family_problem("planted_residual", 8.0)
        glin = np.random.default_rng(3).standard_normal(16)
        probed = []
        scaled, log_gap = MetricPencil.scaled, accel._log_gap

        def recording(self, z, tau):
            probed.append(tau)
            return scaled(self, z, tau)

        def recording_gap(pencil, z_unit, z_exp, expo, tau):
            probed.append(tau)
            return log_gap(pencil, z_unit, z_exp, expo, tau)

        monkeypatch.setattr(MetricPencil, "scaled", recording)
        monkeypatch.setattr(accel, "_log_gap", recording_gap)
        counter = SolveCounter()
        _, tau = _solve_inner_subproblem(
            prob, prob.pencil().coords(glin), 1.0, counter)
        assert tau in probed
        assert len(probed) > len(set(probed))   # the root is probed again
        assert counter.by_phase == {"prox": len(set(probed))}
        assert counter.gram_solves == len(set(probed))
        assert counter.factorizations == 0      # prox_solve counts the pencil

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("p", [4.0, 8.0])
    def test_dsygvd_matches_eigh(self, family, p):
        # The direct LAPACK calls give scipy's eigh and solve_triangular bits.
        prob = family_problem(family, p)
        pencil = prob.pencil()
        q, r = prob.A.qr
        gh = q.T @ (prob._hess_center[:, None] * q)
        gm = q.T @ (prob.m_diag[:, None] * q)
        lam, w = eigh(gh, gm)
        assert pencil.lam.tobytes() == np.maximum(lam, 0.0).tobytes()
        assert pencil.t.tobytes() == solve_triangular(r, w).tobytes()
        assert pencil.at.tobytes() == (q @ w).tobytes()

    def test_indefinite_metric_is_a_singular_gram(self):
        prob = family_problem("gaussian", 4.0)
        with pytest.raises(SingularGramError, match="dsygvd") as info:
            MetricPencil.build(prob.A.qr, prob._hess_center, -prob.m_diag,
                               1.0)
        assert not isinstance(info.value, np.linalg.LinAlgError)

    def test_one_factorization_per_prox_center(self):
        prob = family_problem("coherent_rows", 4.0)
        counter = SolveCounter()
        cert = prox_solve(prob, prob.center, 1e-10, counter)
        assert cert.satisfied
        assert counter.factorizations == 1
        assert counter.by_phase["metric"] == cert.inner_iterations + 1
        assert counter.gram_solves > counter.by_phase["metric"]

    def test_non_finite_gap_is_a_stall(self, monkeypatch):
        prob = family_problem("gaussian", 4.0)
        monkeypatch.setattr(accel, "fpow", lambda base, expo: math.inf)
        with pytest.raises(BisectionStallError):
            _solve_inner_subproblem(prob, prob.pencil().coords(np.ones(16)),
                                    1.0, SolveCounter())


GLIN_SCALES = (1e-6, 1.0, 1e6)


def log_gap_at(prob, glin, tau, scale=1.0):
    """log(tau^{2/(p-2)} / S(tau)) for the linear term scale * glin.

    S is linear in scale^2, so a scale whose square underflows still
    gives the right sign and size.
    """
    pencil = prob.pencil()
    w = pencil.scaled(pencil.coords(glin), tau)
    return (2.0 / (prob.p - 2.0) * math.log(tau) - 2.0 * math.log(scale)
            - math.log(float(w @ w)))


def gap_ratio(prob, glin, tau):
    """|G(tau)| / tau^{2/(p-2)}, G the step-scale gap."""
    pencil = prob.pencil()
    w = pencil.scaled(pencil.coords(glin), tau)
    lhs = tau ** (2.0 / (prob.p - 2.0))
    return abs(lhs - float(w @ w)) / lhs


def probe_at(prob, glin, tau):
    """The search's probe at tau: log gap, slope and curvature in log tau."""
    pencil = prob.pencil()
    z = pencil.coords(glin)
    z_exp = math.frexp(float(abs(z).max()))[1]
    z_unit = np.ldexp(z, -z_exp)
    return accel._log_gap(pencil, z_unit, z_exp, 2.0 / (prob.p - 2.0), tau)


def bracket_brentq_probes(prob, glin, tau):
    """Distinct taus probed by the search the Newton one replaced.

    It bracketed the root by factors of 4 from the seed, then ran brentq
    on the gap G to the same relative tolerance.
    """
    pencil = prob.pencil()
    z = pencil.coords(glin)
    probed = set()

    def gap(t):
        probed.add(t)
        w = pencil.scaled(z, t)
        return t ** (2.0 / (prob.p - 2.0)) - float(w @ w)

    lo = hi = tau
    while gap(lo) > 0.0:
        lo /= 4.0
    while gap(hi) < 0.0:
        hi *= 4.0
    if lo != hi:
        brentq(gap, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=300)
    return len(probed)


class TestStepScaleSearch:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("p", [4.0, 8.0, 14.0])
    def test_gap_at_rounding_level(self, family, p):
        prob = family_problem(family, p)
        glin = np.random.default_rng(1).standard_normal(16)
        for scale in GLIN_SCALES:
            _, tau = _solve_inner_subproblem(
                prob, prob.pencil().coords(scale * glin), 1.0, SolveCounter())
            assert gap_ratio(prob, scale * glin, tau) <= 16 * np.finfo(float).eps

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("p", [4.0, 8.0, 14.0])
    def test_brentq_fallback_finds_the_same_root(self, family, p, monkeypatch):
        prob = family_problem(family, p)
        glin = np.random.default_rng(1).standard_normal(16)
        newton = [_solve_inner_subproblem(
            prob, prob.pencil().coords(scale * glin), 1.0, SolveCounter())[1]
            for scale in GLIN_SCALES]
        calls = []
        monkeypatch.setattr(accel, "_newton_accepts", lambda *args: False)
        monkeypatch.setattr(accel, "brentq",
                            lambda *args, **kw: calls.append(1) or brentq(*args, **kw))
        for scale, tau in zip(GLIN_SCALES, newton):
            _, tau_b = _solve_inner_subproblem(
                prob, prob.pencil().coords(scale * glin), 1.0, SolveCounter())
            assert tau_b == pytest.approx(tau, rel=1e-14, abs=0.0)
        assert len(calls) == len(GLIN_SCALES)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("p", [4.0, 8.0])
    def test_no_more_probes_than_bracket_and_brentq(self, family, p):
        prob = family_problem(family, p)
        glin = np.random.default_rng(1).standard_normal(16)
        for scale in GLIN_SCALES:
            counter = SolveCounter()
            _solve_inner_subproblem(
                prob, prob.pencil().coords(scale * glin), 1.0, counter)
            assert counter.by_phase["prox"] <= bracket_brentq_probes(
                prob, scale * glin, 1.0)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("p", [4.0, 8.0, 14.0])
    def test_curvature_matches_central_difference(self, family, p):
        # At the root, and where c tau meets the pencil's spectrum so that
        # the gap bends, the curvature is the slope's derivative in log tau.
        # A central difference resolves nothing below its rounding floor,
        # about 4 eps slope / h.
        prob = family_problem(family, p)
        pencil = prob.pencil()
        glin = np.random.default_rng(1).standard_normal(16)
        h = 1e-4
        spectrum = 8.0 * pencil.lam[[0, 8, 15]] / pencil.c
        for scale in GLIN_SCALES:
            _, root = _solve_inner_subproblem(
                prob, pencil.coords(scale * glin), 1.0, SolveCounter())
            for tau in (root, *spectrum[spectrum > 0.0]):
                _, slope, curv = probe_at(prob, scale * glin, tau)
                fd = (probe_at(prob, scale * glin, tau * math.exp(h))[1]
                      - probe_at(prob, scale * glin, tau * math.exp(-h))[1]
                      ) / (2.0 * h)
                floor = 4.0 * np.finfo(float).eps * slope / h
                assert abs(curv - fd) <= 1e-6 * abs(curv) + floor

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("p", [3.0, 4.0, 8.0, 14.0])
    def test_probe_matches_reference(self, family, p):
        # Bit for bit from TAU_MIN to the search's upper end: below
        # SQUARE_SAFE / c the coordinates are rescaled, and at p = 3, where
        # tau^expo = tau^2, the power underflows below about 1.5e-162.
        prob = family_problem(family, p)
        pencil = prob.pencil()
        glin = np.random.default_rng(1).standard_normal(16)
        expo = 2.0 / (p - 2.0)
        rescaled = underflowed = 0
        for scale in GLIN_SCALES:
            z = pencil.coords(scale * glin)
            z_exp = math.frexp(float(abs(z).max()))[1]
            z_unit = np.ldexp(z, -z_exp)
            _, root = _solve_inner_subproblem(prob, z, 1.0, SolveCounter())
            log_up = math.log(2.0) + (
                0.5 * math.log(float(z_unit @ z_unit)) + z_exp * math.log(2.0)
                - math.log(pencil.c)) / (1.0 + expo / 2.0)
            tau_up = max(math.exp(min(log_up, 690.0)), accel.TAU_MIN)
            taus = [*np.geomspace(accel.TAU_MIN, tau_up, 300), root]
            for tau in map(float, taus):
                ref = reference_log_gap(pencil, pencil.scaled(z_unit, tau),
                                        z_exp, expo, tau)
                new = accel._log_gap(pencil, z_unit, z_exp, expo, tau)
                assert [v.hex() for v in new] == [v.hex() for v in ref]
                rescaled += pencil.c * tau < accel.SQUARE_SAFE
                underflowed += accel.fpow(tau, expo) == 0.0
        assert rescaled > 0
        assert (underflowed > 0) == (p == 3.0)

    @pytest.mark.parametrize("k", [1e-100, 1e-150, 1e-200, 1e-300])
    def test_tiny_linear_term(self, k):
        # The root for 1e-100 and 1e-150 is a normal float far below the
        # seed; for 1e-200 and 1e-300 it lies below the smallest normal
        # float, whose step comes back.
        prob = family_problem("gaussian", 4.0)
        glin = np.ones(16)
        step, tau = _solve_inner_subproblem(
            prob, prob.pencil().coords(k * glin), 1.0, SolveCounter())
        ref = qr_tau_step(prob, glin, tau)          # the step is linear in glin
        assert prob.m_norm(step / k - ref) <= 1e-8 * prob.m_norm(ref)
        if tau > sys.float_info.min:
            assert abs(log_gap_at(prob, glin, tau, k)) <= 1e-12
        else:
            assert log_gap_at(prob, glin, tau, k) > 0.0

    def test_overflowing_probe_is_rescaled_without_warning(self):
        # At an exact-fit center every pencil eigenvalue is 0, so the probe
        # at the seed 1e-240 has coordinates near 1e236, whose squares
        # overflow.  The root of tau^{2/(p-2)} = ||z||^2 / (c tau)^2 is
        # (||z|| / c)^{(p-2)/(p-1)}.
        p = 4.0
        inst = gen_instance("gaussian", 320, 16, 0, p=p)
        y = np.random.default_rng(3).standard_normal(16)
        prob = ProxProblem(inst.A, inst.A.a @ y, p,
                           lewis_overestimates(inst.A, p), y)
        glin = np.random.default_rng(1).standard_normal(16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            step, tau = _solve_inner_subproblem(
                prob, prob.pencil().coords(glin), 1e-240, SolveCounter())
        pencil = prob.pencil()
        assert not pencil.lam.any()
        root = (np.linalg.norm(pencil.coords(glin)) / pencil.c) ** (
            (p - 2.0) / (p - 1.0))
        assert tau == pytest.approx(root, rel=1e-13)
        ref = qr_tau_step(prob, glin, tau)
        assert prob.m_norm(step - ref) <= 1e-12 * prob.m_norm(ref)

    @pytest.mark.parametrize("k", [1e-320, 5e-324])
    def test_underflowed_linear_term_is_a_zero_step_or_a_stall(self, k):
        prob = family_problem("gaussian", 4.0)
        try:
            step, _ = _solve_inner_subproblem(
                prob, prob.pencil().coords(k * np.ones(16)), 1.0,
                SolveCounter())
        except BisectionStallError:
            return
        assert not step.any()


class CountingMatrix(np.ndarray):
    """An array that tallies every matrix product it takes part in."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            CountingMatrix.products += 1
        inputs = tuple(np.asarray(v) if isinstance(v, CountingMatrix) else v
                       for v in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


# (p, L) cases; the theory's L = 4 keeps the plain p id.
GLIN_CASES = [pytest.param(p, L, id=f"{p}" if L == 4.0 else f"{p}-L{L:g}")
              for L in (1.0, 2.0, 4.0) for p in (4.0, 8.0)]


class TestInnerStep:
    @pytest.mark.parametrize("family", ["gaussian", "ill_conditioned"])
    @pytest.mark.parametrize("p", [4.0, 8.0])
    def test_one_product_with_a_per_inner_iteration(self, family, p):
        inst = gen_instance(family, 160, 8, 0, p=p)
        x0 = np.linalg.lstsq(inst.A.a, inst.b, rcond=None)[0]
        center = x0 + 0.1 * np.random.default_rng(4).standard_normal(8)
        prob = ProxProblem(inst.A, inst.b, p, lewis_overestimates(inst.A, p),
                           center)
        prob.A.a = prob.A.a.view(CountingMatrix)
        CountingMatrix.products = 0
        cert = prox_solve(prob, x0, 1e-14, SolveCounter())
        assert cert.inner_iterations >= 5
        assert CountingMatrix.products <= cert.inner_iterations + 4

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("p, L", GLIN_CASES)
    def test_glin_matches_separate_products(self, family, p, L):
        # glin(L) = grad f_reg - L grad phi, with phi the reference function
        # at the center: ||x - y||_{H_c}^2 + C_p ||x - y||_M^p.
        # Both are in the pencil's coordinates, T^T times the gradient.
        prob = family_problem(family, p)
        a = prob.A.a
        pencil = prob.pencil()
        x = prob.center + 1e-3 * np.random.default_rng(5).standard_normal(16)
        ev = prob.evaluate(a @ (x - prob.center))
        step = x - prob.center
        dist = prob.m_norm(step)
        grad_phi = (2.0 * pencil.at.T @ (prob._hess_center * (a @ step))
                    + p * prob.cp * dist ** (p - 2.0)
                    * (pencil.at.T @ (prob.m_diag * (a @ step))))
        ref = prox_grad_f_reg(prob, x, pencil.at) - L * grad_phi
        assert ev.dist == dist
        assert np.linalg.norm(ev.glin(L) - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("p", [4.0, 8.0, 14.0])
    def test_prox_solve_warns_nothing(self, family, p):
        prob = family_problem(family, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = prox_solve(prob, prob.center, 1e-12, SolveCounter())
        assert cert.inner_iterations > 0

    @pytest.mark.parametrize("p", [4.0, 8.0])
    def test_certificate_carries_its_distance(self, p):
        prob = make_problem(50, 4, p, 22)
        x0 = prob.center + np.random.default_rng(23).standard_normal(4)
        cert = prox_solve(prob, x0, 1e-12, SolveCounter())
        assert cert.dist == prob.m_norm(cert.x - prob.center)


def smoothness_excess(prob, s, s_new, L):
    """f_reg(x') - f_reg(x) - <grad f_reg(x), x' - x> - L D_phi(x', x).

    x and x' are recovered from their images s = A (x - y) by least
    squares, and every term is formed in x without ProxProblem.evaluate,
    with phi(x) = ||A (x - y)||_{H_c}^2 + C_p ||x - y||_M^p.  Returns the
    excess and f_reg(x).
    """
    a, y, p, cp = prob.A.a, prob.center, prob.p, prob.cp
    x, x_new = (y + np.linalg.lstsq(a, v, rcond=None)[0] for v in (s, s_new))

    def f_reg(v):
        return prox_f(prob, v) + cp * prob.m_norm(v - y) ** p

    def phi(v):
        av = a @ (v - y)
        return float(av @ (prob._hess_center * av)) + cp * prob.m_norm(v - y) ** p

    av = a @ (x - y)
    grad_phi = a.T @ (2.0 * prob._hess_center * av + p * cp
                      * prob.m_norm(x - y) ** (p - 2.0) * prob.m_diag * av)
    dx = x_new - x
    bregman = phi(x_new) - phi(x) - float(grad_phi @ dx)
    excess = (f_reg(x_new) - f_reg(x) - float(prox_grad_f_reg(prob, x) @ dx)
              - L * bregman)
    return excess, f_reg(x)


class TestBacktrackedConstant:
    # At this instance a trial step at L = 1 fails the smoothness
    # inequality, and the solve backtracks to L = 2 and certifies.
    BACKTRACKS = ("gaussian", 60, 4, 0)

    def test_accepted_steps_meet_the_inequality(self, monkeypatch):
        events = []
        real_solve, real_holds = accel.prox_solve, ProxProblem.model_holds
        real_glin = accel.ProxEval.glin

        def solve(prob, *args, **kwargs):
            events.append(("solve",))
            return real_solve(prob, *args, **kwargs)

        def holds(prob, ev, trial, L):
            verdict = real_holds(prob, ev, trial, L)
            events.append(("check", L, verdict, prob, ev.s, trial.s))
            return verdict

        def glin(ev, L):
            events.append(("trial", L))
            return real_glin(ev, L)

        monkeypatch.setattr(accel, "prox_solve", solve)
        monkeypatch.setattr(ProxProblem, "model_holds", holds)
        monkeypatch.setattr(accel.ProxEval, "glin", glin)
        inst = gen_instance(*self.BACKTRACKS, p=14.0, eps=1e-6)
        _, rep = solve_pnorm_accel(inst)
        L = None
        for event in events:
            if event[0] == "solve":
                L = None
            elif event[0] == "trial":
                # each solve starts at 1; L only moves after a rejection
                assert event[1] == (accel.PROX_L_START if L is None else L)
                L = event[1]
            else:
                _, L_check, verdict, prob, s, s_new = event
                assert L_check == L < accel.PROX_L_THEORY
                if verdict:
                    excess, f_reg = smoothness_excess(prob, s, s_new, L)
                    assert excess <= 1e-12 * abs(f_reg)
                else:
                    L *= 2.0
        checks = [e for e in events if e[0] == "check"]
        backtracks = sum(not e[2] for e in checks)
        assert backtracks == rep.phase_counts["prox_backtracks"] >= 1
        assert {e[1] for e in events if e[0] == "trial"} <= {1.0, 2.0, 4.0}

    def test_backtracking_instance_certifies(self):
        inst = gen_instance(*self.BACKTRACKS, p=14.0, eps=1e-6)
        x, rep = solve_pnorm_accel(inst)
        assert rep.phase_counts["prox_backtracks"] >= 1
        residual = exact_residual_lp(inst, x)
        error = residual / min(oracle_opt(inst), residual) - 1.0
        assert error <= rep.certified_gap <= 1e-6

    def test_rejected_trial_keeps_x_and_tau(self, monkeypatch):
        # A rejected trial is recomputed from the same point and step scale
        # at twice the constant; it counts as an inner iteration.
        calls = []
        real = accel._solve_inner_subproblem

        def recording(prob, z, tau_seed, counter):
            calls.append((z.copy(), tau_seed))
            return real(prob, z, tau_seed, counter)

        monkeypatch.setattr(accel, "_solve_inner_subproblem", recording)
        monkeypatch.setattr(ProxProblem, "model_holds",
                            lambda prob, ev, trial, L: L >= 2.0)
        prob = family_problem("gaussian", 8.0)
        counter = SolveCounter()
        cert = prox_solve(prob, prob.center, 1e-12, counter)
        (z1, tau1), (z2, tau2) = calls[:2]
        assert tau1 == tau2
        assert not np.array_equal(z1, z2)
        assert counter.steps["prox_backtracks"] == 1
        assert cert.satisfied and cert.inner_iterations == len(calls)


class TestBoundCache:
    INSTANCE = ("gaussian", 160, 8, 0)

    def test_no_iterate_is_bounded_twice(self, monkeypatch):
        points = []
        real = accel.lp_dual_bound

        def recording(A, b, x, p, counter):
            points.append(x.tobytes())
            return real(A, b, x, p, counter)

        monkeypatch.setattr(accel, "lp_dual_bound", recording)
        inst = gen_instance(*self.INSTANCE, p=4.0, eps=1e-6)
        _, rep = solve_pnorm_accel(inst)
        assert len(points) == len(set(points))
        assert rep.phase_counts["certificate"] == len(points) > 1

    def test_cached_bound_is_fresh_and_never_stale(self, monkeypatch):
        # The solve's own lower bound, called again after the solve.
        captured, calls = {}, []
        real_solve, real_bound = accel.certified_solve, accel.lp_dual_bound

        def capture(instance, method, make_steps):
            def steps_of(unit):
                captured["unit"], captured["steps"] = unit, make_steps(unit)
                return captured["steps"]
            return real_solve(instance, method, steps_of)

        def counting(*args, **kwargs):
            calls.append(1)
            return real_bound(*args, **kwargs)

        monkeypatch.setattr(accel, "certified_solve", capture)
        monkeypatch.setattr(accel, "lp_dual_bound", counting)
        solve_pnorm_accel(gen_instance(*self.INSTANCE, p=4.0, eps=1e-6))
        unit, lower_bound = captured["unit"], captured["steps"].lower_bound

        def fresh(z):
            return real_bound(unit.A, unit.b, z, unit.p, SolveCounter()).hex()

        z = 1e-3 * np.random.default_rng(2).standard_normal(8)
        before = len(calls)
        first = lower_bound(z).hex()
        assert lower_bound(z.copy()).hex() == first == fresh(z)
        assert len(calls) == before + 1
        z[0] += 1e-3                    # the caller's x, changed in place
        moved = lower_bound(z).hex()
        assert len(calls) == before + 2
        assert moved == fresh(z) != first


class TestStrongConvexity:
    def test_zero_step_equality(self):
        y = np.array([1.0, -2.0])
        assert strong_convexity_check(y, np.zeros(2), 4.0)

    def test_zero_center(self):
        assert strong_convexity_check(np.zeros(3), np.array([1.0, -1.0, 2.0]), 3.0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0, 8.0])
    def test_random_grid(self, p):
        rng = np.random.default_rng(15)
        for _ in range(200):
            y = rng.uniform(-3, 3, size=4)
            delta = rng.uniform(-3, 3, size=4)
            assert strong_convexity_check(y, delta, p)


class TestDistanceFromFunctionError:
    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_bound_holds_near_optimum(self, p):
        rng = np.random.default_rng(16)
        A = DenseMatrix(rng.standard_normal((50, 4)))
        b = rng.standard_normal(50)
        inst = ProblemInstance(A, b, p, eps=1e-10)
        x_star, _ = solve_pnorm_accel(inst)
        f_star = float(np.sum(np.abs(A.a @ x_star - b) ** p))
        w = lewis_overestimates(A, p)
        prob = ProxProblem(A, b, p, w, x_star)
        for trial in range(20):
            x = x_star + 0.3 * rng.standard_normal(4)
            err = float(np.sum(np.abs(A.a @ x - b) ** p)) - f_star
            dist = prob.m_norm(x - x_star)
            cap = distance_bound(4, p, max(err, 0.0) * (1 + 1e-6) + 1e-12)
            assert dist <= cap * (1 + 1e-6)


class TestAcceleration:
    def test_already_optimal_start(self):
        rng = np.random.default_rng(17)
        A = DenseMatrix(rng.standard_normal((30, 3)))
        x0 = rng.standard_normal(3)
        b = A.a @ x0
        w = lewis_overestimates(A, 4.0)
        counter = SolveCounter()
        x = ms_accelerate(A, b, 4.0, w, x0, eps=1e-8, counter=counter,
                          lower_bound_fn=lambda xc: 0.0)
        assert counter.steps.get("prox_calls", 0) == 0
        assert np.array_equal(x, x0)

    def test_error_decreases_below_eps_within_budget(self):
        rng = np.random.default_rng(18)
        A = DenseMatrix(rng.standard_normal((100, 6)))
        b = rng.standard_normal(100)
        p = 4.0
        inst = ProblemInstance(A, b, p, eps=1e-9)
        opt = oracle_opt(inst, tol=1e-10)
        f_star = opt ** p
        w = lewis_overestimates(A, p)
        x0 = np.linalg.lstsq(A.a, b, rcond=None)[0]
        err0 = float(np.sum(np.abs(A.a @ x0 - b) ** p)) - f_star
        eps_f = err0 / 2
        counter = SolveCounter()
        x = ms_accelerate(A, b, p, w, x0, eps=eps_f, counter=counter,
                          lower_bound_fn=lambda xc: f_star)
        assert float(np.sum(np.abs(A.a @ x - b) ** p)) - f_star <= eps_f
        k = math.ceil(8 * p ** (2.0 / 3.0) * 6 ** ((p - 2) / (3 * p - 2)))
        assert counter.steps["prox_calls"] <= 16 * k

    def test_halvings_certified_against_oracle(self):
        rng = np.random.default_rng(19)
        A = DenseMatrix(rng.standard_normal((60, 4)))
        b = rng.standard_normal(60)
        p = 4.0
        opt = oracle_opt(ProblemInstance(A, b, p), tol=1e-11)
        f_star = opt ** p
        w = lewis_overestimates(A, p)
        x = np.linalg.lstsq(A.a, b, rcond=None)[0]
        err = float(np.sum(np.abs(A.a @ x - b) ** p)) - f_star
        for _ in range(10):
            # no lower bound: each halving runs to its own stop rule
            x = halve_error(A, b, p, w, x, err, SolveCounter(),
                            lambda xc: -math.inf)
            achieved = float(np.sum(np.abs(A.a @ x - b) ** p)) - f_star
            assert achieved <= err / 2 + 1e-9 * max(f_star, 1.0)
            err /= 2

    @pytest.mark.parametrize("p", [2.0, 3.0, 8.0])
    def test_full_solve_certified(self, p):
        rng = np.random.default_rng(int(p * 7))
        A = DenseMatrix(rng.standard_normal((40, 4)))
        b = rng.standard_normal(40)
        inst = ProblemInstance(A, b, p, eps=1e-6)
        x, rep = solve_pnorm_accel(inst)
        opt = oracle_opt(inst, tol=1e-9)
        assert rep.residual_lp <= (1 + 1e-6) * opt
        assert rep.certified_gap <= 1e-6

    def test_exhausted_step_scale_search_keeps_its_last_response(
            self, monkeypatch):
        # One probe per step: the search runs out at every step after the
        # first, and its last response is used, not solved again.
        centers = []
        real = accel.prox_solve

        def recording(prob, *args, **kwargs):
            centers.append(prob.center.copy())
            return real(prob, *args, **kwargs)

        monkeypatch.setattr(accel, "MS_BISECTION_CAP", 1)
        monkeypatch.setattr(accel, "prox_solve", recording)
        inst = gen_instance("gaussian", 60, 4, 0, p=8.0, eps=1e-6)
        _, rep = solve_pnorm_accel(inst)
        assert rep.certified_gap <= 1e-6
        assert len(centers) == rep.phase_counts["prox_calls"]
        assert not any(np.array_equal(c0, c1)
                       for c0, c1 in zip(centers, centers[1:]))

    def test_underflowed_step_scale_is_a_solver_error(self):
        # Above MAX_ACCEL_P the step-scale power dist^(p-2) can underflow
        # to 0; that must surface as an LpregError, not ZeroDivisionError.
        inst = gen_instance("ill_conditioned", 60, 4, 0, p=32.0)
        with pytest.raises(LpregError):
            solve_pnorm_accel(inst)

    def test_pinned_center_reports_the_stalled_gap(self):
        # At p = 32 the dual bound stalls, the next proximal response pins
        # its center, and the bracket reports the gap it stalled at.
        inst = gen_instance("ill_conditioned", 60, 4, 0, p=32.0)
        with pytest.raises(BudgetExceededError, match="relative gap"):
            solve_pnorm_accel(inst)

    def test_l2_initial_error_scale(self):
        # the least-squares start is at most n^{(p-2)/2} times optimal in
        # p-th power units
        rng = np.random.default_rng(21)
        p = 4.0
        for _ in range(5):
            A = DenseMatrix(rng.standard_normal((30, 3)))
            b = rng.standard_normal(30)
            x2 = np.linalg.lstsq(A.a, b, rcond=None)[0]
            opt = oracle_opt(ProblemInstance(A, b, p), tol=1e-9)
            f2 = float(np.sum(np.abs(A.a @ x2 - b) ** p))
            assert f2 <= 30 ** ((p - 2) / 2) * opt ** p * (1 + 1e-9)

    def test_regularization_coefficient(self):
        assert reg_coefficient(4.0) == pytest.approx(math.e * 256.0)
