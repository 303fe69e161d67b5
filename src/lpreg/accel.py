"""Accelerated proximal scheme for lp regression in the reweighted metric.

The proximal subproblem adds an e p^p times p-th power of the distance in
the metric induced by the weight overestimates.  Hessian stability makes
that subproblem conditionally well-behaved: a relative-smoothness descent
loop solves it, with each inner step reduced to a scalar root-find over a
step scale tau, found by safeguarded Newton steps in log tau with brentq
as the fallback.  Every system met at one proximal center lies in the fixed
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
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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
# The step-scale root is held to brentq's relative tolerance in tau; the
# Newton search stops at a step this small in log tau.
TAU_RTOL = 8.9e-16
TAU_MIN = sys.float_info.min
MAX_NEWTON_STEPS = 100
LN2 = math.log(2.0)
# Entries up to 1 / SQUARE_SAFE = 2^500 have a sum of squares below the
# largest float for any d under 2^23.
SQUARE_SAFE = 2.0 ** -500
# Largest supported exponent: C_p = e p^p and the step-scale powers leave
# the float range as p grows.  At 60x4, eps 1e-6, four families and seeds
# 0-2, p = 16 certifies all 12 instances (gaps 6e-11 to 1.2e-7, 3,608 to
# 8,953 Gram solves, 28 to 95 factorizations).  At p = 32 all 8 of seeds
# 0-1 stall in BudgetExceededError at gaps from 7.6e-5 to 1.5, five of them
# in round 1, where the proximal response pins its center.  The cap stays
# until C_p and the step-scale power dist^(p-2) are carried in log form.
MAX_ACCEL_P = 14.0


def fpow(base: float, expo: float) -> float:
    """Power of a nonnegative float that saturates to inf instead of raising."""
    try:
        return math.pow(base, expo)
    except OverflowError:
        return math.inf


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

    @cached_property
    def _lam8(self) -> np.ndarray:
        return 8.0 * self.lam

    def scaled(self, z: np.ndarray, tau: float) -> np.ndarray:
        """Eigenbasis coordinates of the tau-step for rhs coordinates z."""
        return z / (self._lam8 + self.c * tau)


class ProxEval(NamedTuple):
    """The proximal objective at one point x, from its image A (x - center)."""

    f_reg: float
    dist: float             # ||x - center||_M
    grad: np.ndarray        # gradient of f_reg
    glin: np.ndarray        # grad minus 4 times the surrogate's gradient


@dataclass
class ProxProblem:
    """One proximal subproblem: f(x) + C_p ||x - center||_M^p.

    The metric M = A^T W^{1-2/p} A is held through (A, weights, p) and
    never materialized.  Solves against it, and against the surrogate
    Hessians 8 A^T H_c A + c tau M at the center, go through one
    :class:`MetricPencil`, built on first use.  ``qr`` is A's reduced QR
    factorization, which a caller that builds many centers on the same A
    computes once and passes in.  The center's image A y and its residual
    A y - b are formed once, so a point x enters only through A (x - y).
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
        self.a_center = self.A.a @ self.center
        self.u_center = self.a_center - self.b
        with np.errstate(over="ignore"):
            self._hess_center = self.p * (self.p - 1.0) * np.abs(
                self.u_center) ** (self.p - 2.0)
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

    def evaluate(self, s: np.ndarray) -> ProxEval:
        """The objective, distance and both gradients at x, from s = A (x - y).

        With u = A x - b, g_u = p |u|^{p-2} u and r = p C_p dist^{p-2}, one
        two-column product with A^T gives grad f_reg = A^T (g_u + r M s) and
        glin = grad f_reg - 4 (2 A^T H_c s + r A^T M s)
             = A^T (g_u - 8 H_c s - 3 r M s).
        """
        p = self.p
        u = self.u_center + s
        ms = self.m_diag * s
        dist = math.sqrt(float(s @ ms))
        r = p * self.cp * fpow(dist, p - 2.0)
        with np.errstate(over="ignore"):
            au = np.abs(u)
            f_val = float(np.sum(au ** p))
            g_u = p * au ** (p - 2.0) * u
            rows = np.stack([g_u + r * ms,
                             g_u - 8.0 * self._hess_center * s - 3.0 * r * ms])
        grads = rows @ self.A.a
        return ProxEval(f_val + self.cp * fpow(dist, p), dist,
                        grads[0], grads[1])

    def f(self, x: np.ndarray) -> float:
        with np.errstate(over="ignore"):
            return float(np.sum(np.abs(self.A.a @ x - self.b) ** self.p))

    def grad_f(self, x: np.ndarray) -> np.ndarray:
        u = self.A.a @ x - self.b
        return self.p * (self.A.a.T @ (np.abs(u) ** (self.p - 2.0) * u))

    def m_norm(self, v: np.ndarray) -> float:
        av = self.A.a @ v
        return math.sqrt(float(av @ (self.m_diag * av)))

    def f_reg(self, x: np.ndarray) -> float:
        return self.evaluate(self.A.a @ (x - self.center)).f_reg

    def grad_f_reg(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(self.A.a @ (x - self.center)).grad

    def m_inv_norm(self, v: np.ndarray,
                   counter: SolveCounter | None = None) -> float:
        return float(np.linalg.norm(self.metric_coords(v, counter)))


@dataclass
class ProxCertificate:
    """Near-stationarity record for a proximal solve at distance ``dist``."""

    x: np.ndarray
    residual: float
    threshold: float
    inner_iterations: int
    tau: float
    dist: float

    @property
    def satisfied(self) -> bool:
        return self.residual <= self.threshold


def _newton_accepts(tau_new: float, lo: float, hi: float, ds: float,
                    ds_prev: float) -> bool:
    """Whether the step-scale search takes a Newton step in log tau.

    The step must land strictly inside the bracket (lo, hi) that the gap's
    signs give, and once both ends are known it must be at most half the
    previous step; otherwise brentq takes over on the bracket.
    """
    if not lo < tau_new < hi:
        return False
    return lo == 0.0 or hi == math.inf or abs(ds) <= 0.5 * abs(ds_prev)


def _solve_inner_subproblem(prob: ProxProblem, glin: np.ndarray, tau_seed: float,
                            counter: SolveCounter | None):
    """Pick tau >= 0 so that tau^{2/(p-2)} = ||s(tau)||_M^2; return (s, tau).

    s(tau) minimizes <glin, s> + 4||s||_H^2 + 2 e p^{p+1} tau ||s||_M^2 for
    p > 2.  In the center's pencil basis the rhs coordinates z = T^T glin
    are formed once, and ||s(tau)||_M^2 = S(tau) = sum z_i^2 / (8 lam_i +
    c tau)^2 costs O(d) per probe.  The search runs Newton's method in
    log tau, from the seed, on the log gap h = log(tau^{2/(p-2)} / S(tau)).
    Its slope, 2/(p-2) + 2 c tau sum z_i^2 / (8 lam_i + c tau)^3 / S(tau),
    lies between 2/(p-2) and 2/(p-2) + 2 and comes from the same
    coordinates.  Powers of two scale z (and, when needed, the probe's
    coordinates), so a tiny or huge glin still has a root to find.  The
    probes' signs keep a bracket; a Newton step that leaves it, or does not
    halve once both ends are known, hands the bracket to brentq (see
    :func:`_newton_accepts`).  The root is the probe whose Newton step is
    at most ``TAU_RTOL``, brentq's relative tolerance.  Each distinct probed
    tau counts as one Gram solve, as the direct solve it replaces would.
    When the root lies below the smallest normal float, the step at that
    float is returned.
    """
    p = prob.p
    if not glin.any():
        return np.zeros_like(prob.center), 0.0
    pencil = prob.pencil(counter)
    z = pencil.coords(glin)
    z_max = float(abs(z).max())
    if z_max == 0.0:
        return np.zeros_like(prob.center), 0.0      # T^T glin underflowed
    z_exp = math.frexp(z_max)[1]
    z_unit = np.ldexp(z, -z_exp)                    # max |z_unit| in [1/2, 1)
    expo = 2.0 / (p - 2.0)
    c = pencil.c
    # S(tau) <= ||z||^2 / (c tau)^2, so the gap is positive from half of
    # tau_up on; the factor 2 keeps rounding from hiding that sign.
    log_up = LN2 + (0.5 * math.log(float(z_unit @ z_unit)) + z_exp * LN2
                    - math.log(c)) / (1.0 + expo / 2.0)
    tau_up = max(math.exp(min(log_up, 690.0)), TAU_MIN)
    probed = set()
    lo, hi = 0.0, math.inf          # probed taus with h < 0 and h >= 0

    def coords_at(tau, coords=z):
        if counter is not None and tau not in probed:
            counter.tick(1, "prox")
        probed.add(tau)
        return pencil.scaled(coords, tau)

    def log_gap(tau):
        """h(tau) and dh / dlog(tau); updates the bracket."""
        nonlocal lo, hi
        w = coords_at(tau, z_unit)
        # max|z_unit| < 1, so |w| <= 1 / (c tau): only a probe with c tau
        # below SQUARE_SAFE can square w past the float range.
        s_unit = float(w @ w) if c * tau >= SQUARE_SAFE else math.inf
        s_exp = z_exp                               # S(tau) = s_unit 4^s_exp
        if not 0.0 < s_unit < math.inf:
            # The squares leave the float range: rescale w by a power of two.
            w_exp = math.frexp(float(abs(w).max()))[1]
            w = np.ldexp(w, -w_exp)
            s_unit, s_exp = float(w @ w), z_exp + w_exp
        lhs = fpow(tau, expo)
        if not (math.isfinite(lhs) and 0.0 < s_unit < math.inf):
            raise BisectionStallError(
                f"step-scale gap not finite at tau {tau:.3g}")
        if lhs > 0.0:
            # The log of a ratio of mantissas is exact to rounding near the
            # root, where the binary exponents cancel.
            m_l, e_l = math.frexp(lhs)
            m_s, e_s = math.frexp(s_unit)
            value = math.log(m_l / m_s) + (e_l - e_s - 2 * s_exp) * LN2
        else:                                       # tau^{2/(p-2)} underflows
            value = expo * math.log(tau) - math.log(s_unit) - 2 * s_exp * LN2
        if value < 0.0:
            lo = tau
        else:
            hi = tau
        cubed = float(w @ pencil.scaled(w, tau))    # sum w^2 / (8 lam + c tau)
        return value, expo + 2.0 * c * tau * cubed / s_unit

    tau = min(max(tau_seed, TAU_MIN), tau_up)
    ds_prev = math.inf
    for _ in range(MAX_NEWTON_STEPS):
        value, slope = log_gap(tau)
        ds = -value / slope
        if abs(ds) <= TAU_RTOL:
            return -(pencil.t @ coords_at(tau)), tau
        tau_new = min(max(tau * math.exp(min(ds, 700.0)), TAU_MIN), tau_up)
        if not _newton_accepts(tau_new, lo, hi, ds, ds_prev):
            break
        tau, ds_prev = tau_new, ds
    while lo == 0.0:
        if hi == TAU_MIN:                           # the root underflows
            return -(pencil.t @ coords_at(hi)), hi
        log_gap(max(hi / 4.0, TAU_MIN))
    while hi == math.inf:
        if lo >= tau_up:
            raise BisectionStallError("no upper bracket for the step scale")
        log_gap(min(4.0 * lo, tau_up))
    tau = brentq(lambda t: log_gap(t)[0], lo, hi, xtol=1e-300, rtol=TAU_RTOL,
                 maxiter=300)
    return -(pencil.t @ coords_at(tau)), tau


def prox_solve(prob: ProxProblem, x0: np.ndarray | None = None,
               tol: float = 1e-12,
               counter: SolveCounter | None = None) -> ProxCertificate:
    """Approximately minimize the proximal objective from x0.

    Runs relative-smoothness descent steps until the stationarity residual
    measured in the inverse metric drops below
    e alpha p^{p+1} ||x - y||_M^{p-1} + tol with alpha = 1/(128 p^2).
    Each step forms the image A (x - y) of its new point once; the
    objective, the distance and both gradients come from it.
    """
    p, y, a = prob.p, prob.center, prob.A.a
    scale = math.e * PROX_ALPHA_SCALE * p ** (p - 1.0)     # e alpha p^{p+1}

    def certify(x, ev, it, tau):
        return ProxCertificate(x, prob.m_inv_norm(ev.grad, counter),
                               scale * ev.dist ** (p - 1.0) + tol, it, tau,
                               ev.dist)

    if p == 2.0:
        # The regularized objective is itself a quadratic; minimize exactly.
        diag = 1.0 + prob.cp * prob.m_diag
        rhs = a.T @ (prob.b + prob.cp * prob.m_diag * prob.a_center)
        x = gram_solve_multi(prob.A, diag, rhs, counter=counter,
                             phase="prox")
        return certify(x, prob.evaluate(a @ (x - y)), 1, 1.0)
    x = y.copy() if x0 is None else np.asarray(x0, dtype=float).copy()
    ev = prob.evaluate(a @ (x - y))
    tau = fpow(max(ev.dist, 1e-8), p - 2.0)
    if not math.isfinite(tau):
        x, tau = y.copy(), 1.0
        ev = prob.evaluate(a @ (x - y))
    best_x, best_ev = x, ev
    cap = int(INNER_RATE_CONSTANT * max(math.log(1.0 / min(tol, 0.5)), 1.0)) + 8
    stall = 0
    for it in range(cap):
        cert = certify(x, ev, it, tau)
        if cert.satisfied:
            return cert
        step, tau = _solve_inner_subproblem(prob, ev.glin, tau, counter)
        x_new = y + step
        ev_new = prob.evaluate(a @ (x_new - y))
        if ev_new.f_reg < best_ev.f_reg:
            best_x, best_ev, stall = x_new, ev_new, 0
        else:
            stall += 1
        near_best = ev_new.f_reg < best_ev.f_reg * (1.0 + 1e-12) + 1e-300
        x, ev = (x_new, ev_new) if near_best else (best_x, best_ev)
        if stall >= 6:
            return cert
    return cert


def _pins_center(prob: ProxProblem, dist: float) -> bool:
    """Whether a proximal response at distance dist leaves the center put."""
    ac = prob.a_center
    return dist <= 1e-15 * (1.0 + math.sqrt(float(ac @ (prob.m_diag * ac))))


def ms_accelerate(A: DenseMatrix, b: np.ndarray, p: float,
                  weights: LewisOverestimate, x0: np.ndarray, eps: float,
                  counter: SolveCounter | None = None,
                  lower_bound_fn=None) -> np.ndarray:
    """Accelerated proximal-point loop reducing f error below eps; returns x.

    Maintains the usual (step-weight, momentum-point) pair; each step
    searches for a scale lambda whose proximal response satisfies
    lambda p C_p ||y - x_tilde||_M^{p-2} in [1/2, 2], then mixes the
    gradient at the response into the momentum point through the inverse
    metric.  When the search runs out of probes, the last response is used
    with the lambda that built its center.  Stops early when
    ``lower_bound_fn`` certifies the target.  Each proximal response ticks
    ``prox_calls`` and its ``inner_iterations`` on the counter.
    """
    p = float(p)
    cp = reg_coefficient(p)
    counter = counter if counter is not None else SolveCounter()
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

    def respond(x_tilde):
        """The proximal response at center x_tilde, solved from x."""
        prob = ProxProblem(A, b, p, weights, x_tilde, qr)
        cert = prox_solve(prob, x0=x, tol=PROX_TOL, counter=counter)
        counter.step("prox_calls")
        counter.step("inner_iterations", cert.inner_iterations)
        return prob, cert

    f_x = f(x)
    stall = 0
    for _ in range(max_steps):
        if lower_bound_fn is not None:
            gap = f_x - lower_bound_fn(x)
            if gap <= eps:
                break
        prob_center = None
        lam_try = lam
        for _ in range(MS_BISECTION_CAP):
            lam_built = lam_try
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
            prob_center, cert = respond(x_tilde)
            if acc_weight == 0.0 or p == 2.0:
                # x_tilde has no lambda dependence; set the scale directly,
                # unless the response pins the center (handled below).
                if _pins_center(prob_center, cert.dist):
                    break
                denom = p * cp * fpow(max(cert.dist, 1e-30), p - 2.0)
                if not (math.isfinite(denom) and denom > 0.0):
                    raise BisectionStallError(
                        f"step scale left the float range: p C_p "
                        f"dist^(p-2) = {denom:.3g} at dist {cert.dist:.3g}")
                lam_try = 1.0 / denom
                break
            measure = lam_try * p * cp * fpow(cert.dist, p - 2.0)
            if 0.5 <= measure <= 2.0:
                break
            lam_try = lam_try * 2.0 if measure < 0.5 else lam_try * 0.5
        else:
            lam_try = lam_built
        if prob_center is None:
            if not np.all(np.isfinite(x_tilde)):
                break
            prob_center, cert = respond(x_tilde)
        if _pins_center(prob_center, cert.dist):
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
    return x


def halve_error(A: DenseMatrix, b: np.ndarray, p: float,
                weights: LewisOverestimate, x0: np.ndarray, err: float,
                counter: SolveCounter | None = None, lower_bound_fn=None):
    """Given f(x0) - f* <= err, produce x' with f(x') - f* <= err/2."""
    return ms_accelerate(A, b, p, weights, x0, eps=err / 2.0,
                         counter=counter, lower_bound_fn=lower_bound_fn)


def solve_pnorm_accel(instance: ProblemInstance, seed=0,
                      counter: SolveCounter | None = None):
    """Full accelerated solve: error halvings inside the certified bracket."""
    if instance.p < 2:
        raise InvalidInputError("acceleration path requires p >= 2")
    counter = counter if counter is not None else SolveCounter()

    def make_steps(unit):
        A, b, p = unit.A, unit.b, unit.p
        weights = lewis_overestimates(A, p)
        counter.step("prox_calls", 0)
        counter.step("inner_iterations", 0)

        def lower_bound(xc):
            return lp_dual_bound(A, b, xc, p, counter=counter)

        def step(x, lo, hi):
            x_new = halve_error(A, b, p, weights, x, max(hi ** p - lo ** p, 1e-300),
                                counter=counter,
                                lower_bound_fn=lambda xc: lower_bound(xc) ** p)
            return x_new if pnorm(A.a @ x_new - b, p) < hi else None

        return BracketSteps(lower_bound, step)

    return certified_solve(instance, "accel", make_steps, counter=counter,
                           seed=seed, max_rounds=MAX_HALVINGS)
