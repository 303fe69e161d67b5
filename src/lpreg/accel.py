"""Accelerated proximal scheme for lp regression in the reweighted metric.

The proximal subproblem adds an e p^p times p-th power of the distance in
the metric induced by the weight overestimates.  Hessian stability makes
that subproblem conditionally well-behaved: a relative-smoothness descent
loop solves it, with each inner step reduced to a scalar root-find over a
step scale tau.  Every system met at one proximal center lies in the fixed
pencil (A^T H_c A, A^T M A), so one generalized eigendecomposition per
center (:class:`MetricPencil`) turns each tau probe into O(d) work and
each inverse-metric product into O(d^2).  Costs are still charged in the
paper's unit: each distinct probed tau, each inverse-metric norm and each
momentum step counts as one Gram solve, and each pencil as one
factorization.  The outer loop is a standard accelerated proximal-point
iteration with a step-scale search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, solve_triangular
from scipy.optimize import brentq

from .errors import (
    BisectionStallError,
    InvalidInputError,
    NonFiniteError,
    SingularGramError,
)
from .lewis import WEIGHT_FLOOR, LewisOverestimate, lewis_overestimates
from .linalg import DenseMatrix, SolveCounter, gram_solve_multi
from .problem import ProblemInstance, pnorm
from .refine import BracketSteps, certified_solve, lp_dual_bound

PROX_ALPHA_SCALE = 1.0 / 128.0     # alpha = 1/(128 p^2)
INNER_RATE_CONSTANT = 64.0 * math.e ** 2
MS_BISECTION_CAP = 60
# Stationarity slack of every proximal solve.  The unit problem keeps the
# function error at most 1, so no error-scaled slack is ever larger.
PROX_TOL = 1e-14
MAX_HALVINGS = 300
# Largest supported exponent: C_p = e p^p and the step-scale powers leave
# the float range as p grows.  At 60x4 (four families, seeds 0-2) p = 14
# always solves.  p = 16 solves 11 of 12: on ill_conditioned seed 0 the
# dual bound stalls at gap 1.01e-6 (eps 1e-6), the next proximal response
# pins its center, and the solve ends in BudgetExceededError.  p = 32
# stalls the same way, at gap 1.45 there.  The cap stays until C_p and the
# step-scale power dist^(p-2) are carried in log form.
MAX_ACCEL_P = 14.0


def fpow(base: float, expo: float) -> float:
    """Float power that saturates to inf instead of raising."""
    with np.errstate(over="ignore"):
        return float(np.float64(base) ** np.float64(expo))


def reg_coefficient(p: float) -> float:
    """C_p = e p^p."""
    return math.e * p ** p


@dataclass(frozen=True)
class MetricPencil:
    """Generalized eigenbasis of the pencil (A^T H_c A, A^T M A).

    ``t`` is a d x d basis with T^T (A^T M A) T = I and T^T (A^T H_c A) T
    = diag(lam), ``lam`` clipped at 0.  So (8 A^T H_c A + c tau A^T M A)^{-1}
    is T diag(1 / (8 lam + c tau)) T^T, and M^{-1} = T T^T.
    """

    lam: np.ndarray
    t: np.ndarray
    c: float          # the metric's coefficient per unit tau, 4 p C_p

    @classmethod
    def build(cls, qr: tuple, h: np.ndarray, m: np.ndarray,
              c: float) -> "MetricPencil":
        """Eigendecompose in the QR basis of A = Q R, then map back by R^{-1}.

        Working with Q^T H Q and Q^T M Q keeps the conditioning of A out of
        the eigenproblem; only the triangular solve sees it.
        """
        q, r = qr
        gh = q.T @ (h[:, None] * q)
        gm = q.T @ (m[:, None] * q)
        if not (np.isfinite(gh).all() and np.isfinite(gm).all()):
            raise NonFiniteError("pencil Gram matrix not finite (weights or overflow)")
        try:
            lam, w = eigh(gh, gm, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SingularGramError("metric pencil eigendecomposition failed") from exc
        t = solve_triangular(r, w, check_finite=False)
        return cls(np.maximum(lam, 0.0), t, c)

    def coords(self, v: np.ndarray) -> np.ndarray:
        """T^T v, the right-hand side in the eigenbasis."""
        v = np.asarray(v, dtype=float)
        if not np.isfinite(v).all():
            raise NonFiniteError("right-hand side must be finite")
        return self.t.T @ v

    def scaled(self, z: np.ndarray, tau: float) -> np.ndarray:
        """Eigenbasis coordinates of the tau-step for rhs coordinates z."""
        return z / (8.0 * self.lam + self.c * tau)


@dataclass
class ProxProblem:
    """One proximal subproblem: f(x) + C_p ||x - center||_M^p.

    The metric M = A^T W^{1-2/p} A is held through (A, weights, p) and
    never materialized.  Solves against it, and against the surrogate
    Hessians 8 A^T H_c A + c tau M at the center, go through one
    :class:`MetricPencil`, built on first use.  ``qr`` is A's reduced QR
    factorization, which a caller that builds many centers on the same A
    computes once and passes in.
    """

    A: DenseMatrix
    b: np.ndarray
    p: float
    weights: LewisOverestimate
    center: np.ndarray
    qr: tuple | None = None

    def __post_init__(self):
        if self.p < 2:
            raise InvalidInputError("proximal scheme requires p >= 2")
        self.cp = reg_coefficient(self.p)
        self.m_diag = np.maximum(self.weights.weights, WEIGHT_FLOOR) ** (
            1.0 - 2.0 / self.p)
        self.center = np.asarray(self.center, dtype=float)
        with np.errstate(over="ignore"):
            self._hess_center = self.p * (self.p - 1.0) * np.abs(
                self.A.a @ self.center - self.b) ** (self.p - 2.0)
        if not np.all(np.isfinite(self._hess_center)):
            raise InvalidInputError("center residuals overflow the exponent")
        if self.qr is None:
            self.qr = np.linalg.qr(self.A.a)
        self._pencil = None

    def pencil(self, counter: SolveCounter | None = None) -> MetricPencil:
        """The center's pencil; building it counts as one factorization."""
        if self._pencil is None:
            self._pencil = MetricPencil.build(
                self.qr, self._hess_center, self.m_diag,
                4.0 * self.p * self.cp)
            if counter is not None:
                counter.factorizations += 1
        return self._pencil

    def metric_coords(self, v: np.ndarray, counter: SolveCounter | None = None,
                      phase: str = "metric") -> np.ndarray:
        """T^T v, whose norm is ||v||_{M^{-1}}; one Gram solve in ``phase``."""
        z = self.pencil(counter).coords(v)
        if counter is not None:
            counter.tick(1, phase)
        return z

    def f(self, x: np.ndarray) -> float:
        with np.errstate(over="ignore"):
            return float(np.sum(np.abs(self.A.a @ x - self.b) ** self.p))

    def grad_f(self, x: np.ndarray) -> np.ndarray:
        u = self.A.a @ x - self.b
        return self.p * (self.A.a.T @ (np.abs(u) ** (self.p - 2.0) * u))

    def m_norm(self, v: np.ndarray) -> float:
        av = self.A.a @ v
        return math.sqrt(float(av @ (self.m_diag * av)))

    def m_apply(self, v: np.ndarray) -> np.ndarray:
        return self.A.a.T @ (self.m_diag * (self.A.a @ v))

    def f_reg(self, x: np.ndarray) -> float:
        return self.f(x) + self.cp * fpow(self.m_norm(x - self.center), self.p)

    def grad_f_reg(self, x: np.ndarray) -> np.ndarray:
        step = x - self.center
        dist = self.m_norm(step)
        out = self.grad_f(x)
        if dist > 0:
            out = out + self.p * self.cp * dist ** (self.p - 2.0) * self.m_apply(step)
        return out

    def m_inv_norm(self, v: np.ndarray,
                   counter: SolveCounter | None = None) -> float:
        return float(np.linalg.norm(self.metric_coords(v, counter)))


@dataclass
class ProxCertificate:
    """Near-stationarity record for a proximal solve."""

    x: np.ndarray
    residual: float
    threshold: float
    alpha: float
    delta: float
    inner_iterations: int
    tau: float

    @property
    def satisfied(self) -> bool:
        return self.residual <= self.threshold


def _tau_step(prob: ProxProblem, glin: np.ndarray, tau: float,
              counter: SolveCounter | None = None) -> np.ndarray:
    """Minimizer s of <glin, s> + 4||s||_H^2 + 2 e p^{p+1} tau ||s||_M^2.

    One Gram solve against 8 A^T H_c A + 4 p C_p tau A^T M A.
    """
    pencil = prob.pencil(counter)
    if counter is not None:
        counter.tick(1, "prox")
    return -(pencil.t @ pencil.scaled(pencil.coords(glin), tau))


def _solve_inner_subproblem(prob: ProxProblem, glin: np.ndarray, tau_seed: float,
                            counter: SolveCounter | None):
    """Pick tau >= 0 so that tau^{2/(p-2)} = ||x(tau) - y||_M^2, then step.

    The left side grows and the step shrinks as tau increases, so the
    complementarity gap is monotone and a bracketed root-find applies.
    In the center's pencil basis the rhs coordinates z = T^T glin are
    formed once, and ||x(tau) - y||_M^2 = sum z_i^2 / (8 lam_i + c tau)^2
    costs O(d) per probe.  Each distinct probed tau counts as one Gram
    solve, as the direct solve it replaces would.
    """
    p = prob.p
    if p == 2.0:
        # tau merges into the quadratic
        return prob.center + _tau_step(prob, glin, 1.0, counter), 1.0
    if not np.any(glin):
        return prob.center.copy(), 0.0
    pencil = prob.pencil(counter)
    z = pencil.coords(glin)
    probed = set()

    def coords_at(tau):
        if counter is not None and tau not in probed:
            counter.tick(1, "prox")
        probed.add(tau)
        return pencil.scaled(z, tau)

    def gap(tau):
        w = coords_at(tau)
        value = fpow(tau, 2.0 / (p - 2.0)) - float(w @ w)
        if not math.isfinite(value):
            raise BisectionStallError(
                f"step-scale gap not finite at tau {tau:.3g}")
        return value

    lo = hi = max(tau_seed, 1e-30)
    glo = ghi = gap(lo)
    doubles = 0
    while glo > 0.0:
        lo /= 4.0
        glo = gap(lo)
        doubles += 1
        if doubles > 200 or lo < 1e-290:
            if abs(glo) <= 1e-20:
                break
            raise BisectionStallError("no lower bracket for the step scale")
    doubles = 0
    while ghi < 0.0:
        hi *= 4.0
        ghi = gap(hi)
        doubles += 1
        if doubles > 200:
            raise BisectionStallError("no upper bracket for the step scale")
    if lo == hi or glo == 0.0:
        tau = lo
    elif ghi == 0.0:
        tau = hi
    else:
        tau = brentq(gap, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=300)
    return prob.center - pencil.t @ coords_at(tau), tau


def prox_solve(prob: ProxProblem, x0: np.ndarray | None = None,
               tol: float = 1e-12,
               counter: SolveCounter | None = None) -> ProxCertificate:
    """Approximately minimize the proximal objective from x0.

    Runs relative-smoothness descent steps until the stationarity residual
    measured in the inverse metric drops below
    e alpha p^{p+1} ||x - y||_M^{p-1} + tol with alpha = 1/(128 p^2).
    """
    p, y = prob.p, prob.center
    alpha = PROX_ALPHA_SCALE / p ** 2
    if p == 2.0:
        # The regularized objective is itself a quadratic; minimize exactly.
        diag = np.ones(prob.A.n) + prob.cp * prob.m_diag
        rhs = prob.A.a.T @ prob.b + prob.cp * prob.m_apply(y)
        x = gram_solve_multi(prob.A, diag, rhs, counter=counter,
                             phase="prox")
        residual = prob.m_inv_norm(prob.grad_f_reg(x), counter=counter)
        thr = math.e * alpha * p ** (p + 1) * prob.m_norm(x - y) + tol
        return ProxCertificate(x=x, residual=residual, threshold=thr,
                               alpha=alpha, delta=tol, inner_iterations=1,
                               tau=1.0)
    x = y.copy() if x0 is None else np.asarray(x0, dtype=float).copy()
    best_x, best_val = x, prob.f_reg(x)
    tau = fpow(max(prob.m_norm(x - y), 1e-8), p - 2.0)
    if not math.isfinite(tau):
        x, tau = y.copy(), 1.0
        best_x, best_val = x, prob.f_reg(x)
    cap = int(INNER_RATE_CONSTANT * max(math.log(1.0 / min(tol, 0.5)), 1.0)) + 8
    stall = 0
    cert = None
    for it in range(cap):
        grad = prob.grad_f_reg(x)
        residual = prob.m_inv_norm(grad, counter=counter)
        threshold = (math.e * alpha * p ** (p + 1)
                     * prob.m_norm(x - y) ** (p - 1.0) + tol)
        cert = ProxCertificate(x=x, residual=residual, threshold=threshold,
                               alpha=alpha, delta=tol, inner_iterations=it,
                               tau=tau)
        if residual <= threshold:
            return cert
        step = x - y
        dist = prob.m_norm(step)
        grad_h = 2.0 * (prob.A.a.T @ (prob._hess_center * (prob.A.a @ step)))
        if dist > 0:
            grad_h = grad_h + p * prob.cp * dist ** (p - 2.0) * prob.m_apply(step)
        glin = grad - 4.0 * grad_h
        x_new, tau = _solve_inner_subproblem(prob, glin, max(tau, 1e-30), counter)
        val = prob.f_reg(x_new)
        if val < best_val * (1.0 + 1e-12) + 1e-300:
            if val < best_val:
                best_x, best_val = x_new, val
                stall = 0
            else:
                stall += 1
            x = x_new
        else:
            stall += 1
            x = best_x.copy()
        if stall >= 6:
            return cert
    return cert


def hessian_stability_check(y: np.ndarray, x: np.ndarray, prob: ProxProblem,
                            samples: int = 200, seed=0) -> float:
    """Worst violation of the factor-e sandwich between the two Hessians.

    Samples quadratic forms of the regularized objective's Hessian at x
    against the surrogate centered at y; returns the largest of
    q_f / (e q_h) and q_h / (e q_f), which must stay at most 1 + 1e-8.
    """
    p = prob.p
    A = prob.A.a
    rng = np.random.default_rng(seed)
    hess_x = p * (p - 1.0) * np.abs(A @ x - prob.b) ** (p - 2.0)
    hess_y = p * (p - 1.0) * np.abs(A @ y - prob.b) ** (p - 2.0)
    step = x - y
    dist = prob.m_norm(step)
    m_step = prob.m_apply(step) if dist > 0 else None
    worst = 0.0
    for _ in range(samples):
        z = rng.standard_normal(prob.A.d)
        az = A @ z
        q_reg = 0.0
        if dist > 0 and p > 2:
            q_reg = (p * prob.cp * dist ** (p - 2.0) * float(az @ (prob.m_diag * az))
                     + p * (p - 2.0) * prob.cp * dist ** (p - 4.0)
                     * float(m_step @ z) ** 2)
        elif p == 2:
            q_reg = 2.0 * prob.cp * float(az @ (prob.m_diag * az))
        q_f = float(az @ (hess_x * az)) + q_reg
        q_h = 2.0 * float(az @ (hess_y * az)) + q_reg
        if q_f <= 0 and q_h <= 0:
            continue
        worst = max(worst, q_f / (math.e * q_h), q_h / (math.e * q_f))
    return worst


def strong_convexity_check(y: np.ndarray, delta: np.ndarray, p: float) -> bool:
    """Uniform convexity of the p-th power norm along delta."""
    y = np.asarray(y, dtype=float)
    delta = np.asarray(delta, dtype=float)
    v = p * np.abs(y) ** (p - 1.0) * np.sign(y)
    lhs = (float(np.sum(np.abs(y) ** p)) + float(v @ delta)
           + (p - 1.0) / (p * 2.0 ** p) * float(np.sum(np.abs(delta) ** p)))
    rhs = float(np.sum(np.abs(y + delta) ** p))
    scale = abs(lhs) + abs(rhs) + 1.0
    return lhs <= rhs + 1e-9 * scale


def _pins_center(prob: ProxProblem, dist: float) -> bool:
    """Whether a proximal response at distance dist leaves the center put."""
    return dist <= 1e-15 * (1.0 + prob.m_norm(prob.center))


def ms_accelerate(A: DenseMatrix, b: np.ndarray, p: float,
                  weights: LewisOverestimate, x0: np.ndarray, eps: float,
                  counter: SolveCounter | None = None,
                  lower_bound_fn=None, stats: dict | None = None):
    """Accelerated proximal-point loop reducing f error below eps.

    Maintains the usual (step-weight, momentum-point) pair; each step
    searches for a scale lambda whose proximal response satisfies
    lambda p C_p ||y - x_tilde||_M^{p-2} in [1/2, 2], then mixes the
    gradient at the response into the momentum point through the inverse
    metric.  Stops early when ``lower_bound_fn`` certifies the target.
    """
    p = float(p)
    cp = reg_coefficient(p)
    d = A.d
    k_theory = math.ceil(8.0 * p ** (2.0 / 3.0) * d ** ((p - 2.0) / (3 * p - 2.0)))
    max_steps = min(int(k_theory * (6 + 60) ** 2), 10 ** 9)

    def f(x):
        with np.errstate(over="ignore"):
            return float(np.sum(np.abs(A.a @ x - b) ** p))

    qr = np.linalg.qr(A.a)      # shared by every prox center's pencil
    x = np.asarray(x0, dtype=float).copy()
    v = x.copy()
    acc_weight = 0.0
    lam = None
    prox_calls = 0
    inner_total = 0
    f_x = f(x)
    stall = 0
    for _ in range(max_steps):
        if lower_bound_fn is not None:
            gap = f_x - lower_bound_fn(x)
            if gap <= eps:
                break
        prob_center = None
        lam_try = lam
        dist = 0.0
        for _ in range(MS_BISECTION_CAP):
            if acc_weight == 0.0:
                x_tilde = v.copy()
            else:
                a_try = 0.5 * (lam_try + math.sqrt(lam_try ** 2
                                                   + 4 * lam_try * acc_weight))
                x_tilde = (acc_weight * x + a_try * v) / (acc_weight + a_try)
            if not np.all(np.isfinite(x_tilde)) or f(x_tilde) > 1e12 * (1 + f_x):
                # momentum overshoot: the step scale was far too large
                lam_try *= 0.25
                prob_center = None
                continue
            if prob_center is None or not np.array_equal(prob_center.center, x_tilde):
                prob_center = ProxProblem(A, b, p, weights, x_tilde, qr)
                cert = prox_solve(prob_center, x0=x, tol=PROX_TOL, counter=counter)
                prox_calls += 1
                inner_total += cert.inner_iterations
            dist = prob_center.m_norm(cert.x - x_tilde)
            if acc_weight == 0.0 or p == 2.0:
                # x_tilde has no lambda dependence; set the scale directly,
                # unless the response pins the center (handled below).
                if _pins_center(prob_center, dist):
                    break
                denom = p * cp * fpow(max(dist, 1e-30), p - 2.0)
                if not (math.isfinite(denom) and denom > 0.0):
                    raise BisectionStallError(
                        f"step scale left the float range: p C_p "
                        f"dist^(p-2) = {denom:.3g} at dist {dist:.3g}")
                lam_try = 1.0 / denom
                break
            measure = lam_try * p * cp * fpow(dist, p - 2.0)
            if 0.5 <= measure <= 2.0:
                break
            lam_try = lam_try * 2.0 if measure < 0.5 else lam_try * 0.5
            prob_center = None
        if prob_center is None:
            if not np.all(np.isfinite(x_tilde)):
                break
            prob_center = ProxProblem(A, b, p, weights, x_tilde, qr)
            cert = prox_solve(prob_center, x0=x, tol=PROX_TOL, counter=counter)
            prox_calls += 1
            inner_total += cert.inner_iterations
            dist = prob_center.m_norm(cert.x - x_tilde)
        if _pins_center(prob_center, dist):
            # The proximal response pins the center: x_tilde is stationary.
            if prob_center.f_reg(cert.x) <= f_x:
                x, f_x = cert.x, f(cert.x)
            break
        lam = lam_try
        a_new = 0.5 * (lam + math.sqrt(lam ** 2 + 4 * lam * acc_weight))
        y_new = cert.x
        grad = prob_center.grad_f(y_new)
        coords = prob_center.metric_coords(grad, counter, phase="ms")
        v_step = a_new * (prob_center.pencil().t @ coords)
        step_norm = prob_center.m_norm(v_step)
        guard = 1e3 * (1.0 + prob_center.m_norm(x) + prob_center.m_norm(v))
        if not math.isfinite(step_norm):
            # a degenerate metric direction: drop the momentum mix entirely
            v_step = np.zeros_like(v_step)
        elif step_norm > guard:
            v_step *= guard / step_norm
        v = v - v_step
        acc_weight += a_new
        f_y = f(y_new)
        if f_y < f_x:
            x, f_x = y_new, f_y
            stall = 0
        else:
            stall += 1
        if stall >= 20:
            break
    info = {"prox_calls": prox_calls, "inner_iterations": inner_total,
            "f_value": f_x}
    if stats is not None:
        stats["prox_calls"] = stats.get("prox_calls", 0) + prox_calls
        stats["inner_iterations"] = (stats.get("inner_iterations", 0)
                                     + inner_total)
    return x, info


def halve_error(A: DenseMatrix, b: np.ndarray, p: float,
                weights: LewisOverestimate, x0: np.ndarray, err: float,
                counter: SolveCounter | None = None, lower_bound_fn=None,
                stats: dict | None = None):
    """Given f(x0) - f* <= err, produce x' with f(x') - f* <= err/2."""
    x, _ = ms_accelerate(A, b, p, weights, x0, eps=err / 2.0,
                         counter=counter, lower_bound_fn=lower_bound_fn,
                         stats=stats)
    return x


def solve_pnorm_accel(instance: ProblemInstance, seed=0,
                      counter: SolveCounter | None = None):
    """Full accelerated solve: error halvings inside the certified bracket."""
    if instance.p < 2:
        raise InvalidInputError("acceleration path requires p >= 2")
    counter = counter if counter is not None else SolveCounter()

    def make_steps(unit):
        A, b, p = unit.A, unit.b, unit.p
        weights = lewis_overestimates(A, p)
        stats = {"prox_calls": 0, "inner_iterations": 0}

        def lower_bound(xc):
            return lp_dual_bound(A, b, xc, p, counter=counter)

        def step(x, lo, hi):
            x_new = halve_error(A, b, p, weights, x, max(hi ** p - lo ** p, 1e-300),
                                counter=counter,
                                lower_bound_fn=lambda xc: lower_bound(xc) ** p,
                                stats=stats)
            return x_new if pnorm(A.a @ x_new - b, p) < hi else None

        return BracketSteps(lower_bound, step, stats)

    return certified_solve(instance, "accel", make_steps, counter=counter,
                           seed=seed, max_rounds=MAX_HALVINGS)
