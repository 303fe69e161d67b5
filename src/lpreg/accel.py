"""Accelerated proximal scheme for lp regression in the reweighted metric.

The proximal subproblem adds an e p^p times p-th power of the distance in
the metric induced by the weight overestimates.  Hessian stability makes
that subproblem conditionally well-behaved: a relative-smoothness descent
loop solves it, relative to phi(s) = ||s||_{H_c}^2 + C_p ||s||_M^p with a
constant L that starts at ``PROX_L_START`` and doubles up to the theory's
``PROX_L_THEORY`` whenever a trial step fails the smoothness inequality
(a backtracked constant, as in Lu, Freund and Nesterov, SIAM J. Optim.
2018).  Each inner step reduces to a scalar root-find over a step scale
tau, found by safeguarded Halley steps in log tau with brentq as the
fallback.  Every system met at one proximal center lies in the fixed
pencil (A^T H_c A, A^T M A), so one generalized eigendecomposition per
center (:class:`MetricPencil`) serves every L and turns each tau probe
into O(d) work.  The inner steps stay in the pencil's coordinates: one
product with A T gives both gradients there, and an inverse-metric norm is
a coordinate vector's length.  Costs are still charged in the paper's
unit: each distinct probed tau, each inverse-metric norm and each momentum
step counts as one Gram solve, and each pencil as one factorization.  The outer loop is a standard
accelerated proximal-point iteration with a step-scale search.  The driver
answers p = 2 with its least-squares start, so every proximal problem of a
solve has p > 2.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg.lapack import dsygvd, dtrtrs
from scipy.optimize import brentq

from .errors import (
    BisectionStallError,
    InvalidInputError,
    NonFiniteError,
    SingularGramError,
)
from .lewis import LewisOverestimate, lewis_overestimates
from .linalg import DenseMatrix, SolveCounter
from .problem import ProblemInstance, pnorm
from .refine import BracketSteps, certified_solve, lp_dual_bound

PROX_ALPHA_SCALE = 1.0 / 128.0     # alpha = 1/(128 p^2)
# The relative-smoothness constant of the inner descent: each proximal solve
# starts at PROX_L_START and doubles it on every trial step that fails the
# smoothness inequality; at PROX_L_THEORY, which Hessian stability proves,
# steps are taken unchecked.
PROX_L_START = 1.0
PROX_L_THEORY = 4.0
# The inequality is checked with this share of |f_reg(x)| to spare, a few
# ulps, which covers the rounding of the two objective values it compares.
MODEL_SLACK = 4.0 * sys.float_info.epsilon
INNER_RATE_CONSTANT = 64.0 * math.e ** 2
MS_BISECTION_CAP = 60
# Stationarity slack of every proximal solve, absolute.  It does not follow
# the objective's scale, which the unit problem makes small at large p: at
# p 12 and eps 1e-10 (gaussian 160x8), f is 6.4e-9 and the last halving
# target 6.3e-17, so a proximal solve is satisfied at once and its response
# pins the center (ROADMAP item 1).
PROX_TOL = 1e-14
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
# 0-2, p = 16 certifies all 12 instances (gaps 8.6e-13 to 7.2e-7, 549 to
# 1,496 Gram solves, 12 to 38 factorizations).  At p = 32 all 8 of seeds
# 0-1 stall in BudgetExceededError at gaps from 4.6e-5 to 1.5, five of them
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
    = diag(lam), ``lam`` clipped at 0.  So for the descent constant L,
    (2 L A^T H_c A + (L c / 4) tau A^T M A)^{-1} is (4 / L) T diag(1 / (8 lam
    + c tau)) T^T: every L is served by :meth:`scaled` with its
    right-hand side scaled by 4 / L.  M^{-1} = T T^T.  ``at`` = A T maps a
    row vector g to T^T A^T g in one product.
    """

    lam: np.ndarray
    t: np.ndarray
    at: np.ndarray    # A T = Q W, formed without R^{-1}
    c: float          # the metric's coefficient per unit tau, 4 p C_p

    @classmethod
    def build(cls, qr: tuple, h: np.ndarray, m: np.ndarray,
              c: float) -> "MetricPencil":
        """Eigendecompose in the QR basis of A = Q R, then map back by R^{-1}.

        Working with Q^T H Q and Q^T M Q keeps the conditioning of A out of
        the eigenproblem; only the triangular solve sees it.  LAPACK is
        called directly, without scipy's wrappers and their checks: dsygvd
        is the driver ``scipy.linalg.eigh`` picks for a full generalized
        problem, and dtrtrs the one ``solve_triangular`` calls on R, which
        ``scipy.linalg.qr`` returns in Fortran order.
        """
        q, r = qr
        gh = q.T @ (h[:, None] * q)
        gm = q.T @ (m[:, None] * q)
        if not (np.isfinite(gh).all() and np.isfinite(gm).all()):
            raise NonFiniteError("pencil Gram matrix not finite (weights or overflow)")
        lam, w, info = dsygvd(gh, gm, uplo="L", jobz="V")
        if info != 0:
            raise SingularGramError(
                f"metric pencil eigendecomposition failed (dsygvd info {info})")
        t, info = dtrtrs(r, w)
        if info != 0:
            raise SingularGramError(f"R singular at column {info - 1}")
        return cls(np.maximum(lam, 0.0), t, q @ w, c)

    def coords(self, v: np.ndarray) -> np.ndarray:
        """T^T v, the right-hand side in the eigenbasis."""
        v = np.asarray(v, dtype=float)
        if not np.isfinite(v).all():
            raise NonFiniteError("right-hand side must be finite")
        return self.t.T @ v

    @cached_property
    def lam8(self) -> np.ndarray:
        return 8.0 * self.lam

    def scaled(self, z: np.ndarray, tau: float) -> np.ndarray:
        """Eigenbasis coordinates of the tau-step for rhs coordinates z."""
        return z / (self.lam8 + self.c * tau)


class ProxEval(NamedTuple):
    """The proximal objective at one point x, from its image A (x - center).

    ``s``, ``g_img`` and ``ms`` are n-vectors, so the smoothness inequality
    between two points needs no product with A; ``grad`` and ``grad_phi``
    are in the pencil's coordinates.
    """

    f_reg: float
    dist: float             # ||x - center||_M
    s: np.ndarray           # A (x - center)
    g_img: np.ndarray       # g_u + r M s, so grad f_reg = A^T g_img
    grad: np.ndarray        # T^T grad f_reg: pencil coordinates, M^{-1} norm
    grad_phi: np.ndarray    # T^T grad phi, phi = ||s||_{H_c}^2 + C_p ||s||_M^p
    ms: np.ndarray          # M s
    r: float                # p C_p dist^{p-2}

    def glin(self, L: float) -> np.ndarray:
        """T^T (grad f_reg - L grad phi), the linear term of the L-step."""
        return self.grad - L * self.grad_phi


@dataclass
class ProxProblem:
    """One proximal subproblem: f(x) + C_p ||x - center||_M^p.

    The metric M = A^T W^{1-2/p} A, for weights computed at this p, is held
    through A and the row weights ``weights.metric_diag``, formed once per
    set of weights, and never materialized.  Solves against it, and
    against the surrogate Hessians L (2 A^T H_c A + (c / 4) tau M) at the
    center, go through one :class:`MetricPencil`, built on first use from
    A's cached QR.  The center's image A y, its residual A y - b and the
    Hessian weights 2 H_c are formed once, so a point x enters only through
    A (x - y).  Callers of :meth:`evaluate` silence overflow, which it
    leaves to its checks.
    """

    A: DenseMatrix
    b: np.ndarray
    p: float
    weights: LewisOverestimate
    center: np.ndarray

    def __post_init__(self):
        self.cp = reg_coefficient(self.p)
        self.m_diag = self.weights.metric_diag
        self.center = np.asarray(self.center, dtype=float)
        self.a_center = self.A.a @ self.center
        self.u_center = self.a_center - self.b
        with np.errstate(over="ignore"):
            self._hess_center = self.p * (self.p - 1.0) * np.abs(
                self.u_center) ** (self.p - 2.0)
        if not np.all(np.isfinite(self._hess_center)):
            raise InvalidInputError("center residuals overflow the exponent")
        self._hess2 = 2.0 * self._hess_center
        self._pencil = None

    def pencil(self) -> MetricPencil:
        """The center's pencil, built on first use."""
        if self._pencil is None:
            self._pencil = MetricPencil.build(
                self.A.qr, self._hess_center, self.m_diag,
                4.0 * self.p * self.cp)
        return self._pencil

    def metric_coords(self, v: np.ndarray, counter: SolveCounter,
                      phase: str) -> np.ndarray:
        """T^T v, whose norm is ||v||_{M^{-1}}; one Gram solve in ``phase``."""
        z = self.pencil().coords(v)
        counter.tick(1, phase)
        return z

    def evaluate(self, s: np.ndarray) -> ProxEval:
        """The objective, distance and both gradients at x, from s = A (x - y).

        With u = A x - b, g_u = p |u|^{p-2} u and r = p C_p dist^{p-2}, the
        two rows g_u + r M s and 2 H_c s + r M s are written in place into
        one 2 x n buffer, whose one product with the pencil's A T gives
        T^T grad f_reg and T^T grad phi.  f = sum |u|^{p-2} u^2 reuses the
        one power.  The buffer is the evaluation's own: the smoothness check
        reads ``g_img``, ``ms`` and ``r`` after later evaluations.
        """
        p = self.p
        rows = np.empty((2, s.size))
        g, h = rows
        u = self.u_center + s
        ms = self.m_diag * s
        dist = math.sqrt(float(s.dot(ms)))
        r = p * self.cp * fpow(dist, p - 2.0)
        np.abs(u, out=g)
        np.power(g, p - 2.0, out=g)
        g *= u
        f_val = float(g.dot(u))
        g *= p
        np.multiply(ms, r, out=h)
        g += h
        np.multiply(self._hess2, s, out=u)
        h += u
        grads = rows @ (self._pencil or self.pencil()).at
        if not np.isfinite(grads).all():
            raise NonFiniteError("proximal gradient not finite (overflow)")
        return ProxEval(f_val + self.cp * fpow(dist, p), dist, s, g,
                        grads[0], grads[1], ms, r)

    def model_holds(self, ev: ProxEval, trial: ProxEval, L: float) -> bool:
        """Whether f_reg(x') <= f_reg(x) + <grad f_reg(x), x' - x> + L D_phi.

        ``ev`` is at x and ``trial`` at x'; D_phi(x', x) is the Bregman
        distance of phi.  With ds = s' - s every term is an n-vector
        product: <grad f_reg(x), x' - x> = <g_img, ds>, and D_phi is
        ||ds||_{H_c}^2 + C_p (dist'^p - dist^p) - r <M s, ds>, with r and
        M s as ``evaluate`` formed them at x.  No Gram solve; a non-finite
        side fails.
        """
        p, cp = self.p, self.cp
        ds = trial.s - ev.s
        d_phi = (float(ds.dot(self._hess_center * ds))
                 + cp * (fpow(trial.dist, p) - fpow(ev.dist, p))
                 - ev.r * float(ev.ms.dot(ds)))
        bound = ev.f_reg + float(ev.g_img.dot(ds)) + L * d_phi
        return trial.f_reg <= bound + MODEL_SLACK * abs(ev.f_reg)

    @cached_property
    def pin_threshold(self) -> float:
        """1e-15 (1 + ||y||_M): a response this close leaves the center put."""
        ac = self.a_center
        return 1e-15 * (1.0 + math.sqrt(float(ac @ (self.m_diag * ac))))

    def grad_f(self, x: np.ndarray) -> np.ndarray:
        u = self.A.a @ x - self.b
        return self.p * (self.A.a.T @ (np.abs(u) ** (self.p - 2.0) * u))

    def m_norm(self, v: np.ndarray) -> float:
        av = self.A.a @ v
        return math.sqrt(float(av @ (self.m_diag * av)))


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


def _log_gap(pencil: MetricPencil, z_unit: np.ndarray, z_exp: int,
             expo: float, tau: float):
    """h = log(tau^expo / S(tau)) and its slope and curvature in log tau.

    The probe's coordinates are w = z_unit / (8 lam + x), x = c tau, for z =
    2^z_exp z_unit with max|z_unit| < 1, so S(tau) = 4^z_exp (w.w); for
    the descent constant L, z carries the step's factor 4 / L (see
    :class:`MetricPencil`), so one denominator serves every L.
    With v = w x / (8 lam + x), so |v| <= |w|, and g = 2 (w.v) / (w.w), the
    slope is expo + g, between expo and expo + 2, and the curvature
    g - 6 (v.v) / (w.w) + g^2.
    """
    x = pencil.c * tau
    den = pencil.lam8 + x
    w = z_unit / den
    # |w| <= 1 / (c tau): only a probe with c tau below SQUARE_SAFE can
    # square w past the float range.
    s_unit = float(w.dot(w)) if x >= SQUARE_SAFE else math.inf
    s_exp = z_exp                                   # S(tau) = s_unit 4^s_exp
    if not 0.0 < s_unit < math.inf:
        # The squares leave the float range: rescale w by a power of two.
        w_exp = math.frexp(float(abs(w).max()))[1]
        w = np.ldexp(w, -w_exp)
        s_unit, s_exp = float(w.dot(w)), z_exp + w_exp
    lhs = fpow(tau, expo)
    if not (math.isfinite(lhs) and 0.0 < s_unit < math.inf):
        raise BisectionStallError(f"step-scale gap not finite at tau {tau:.3g}")
    if lhs > 0.0:
        # The log of a ratio of mantissas is exact to rounding near the
        # root, where the binary exponents cancel.
        m_l, e_l = math.frexp(lhs)
        m_s, e_s = math.frexp(s_unit)
        value = math.log(m_l / m_s) + (e_l - e_s - 2 * s_exp) * LN2
    else:                                           # tau^expo underflows
        value = expo * math.log(tau) - math.log(s_unit) - 2 * s_exp * LN2
    v = w * (x / den)
    g = 2.0 * float(w.dot(v)) / s_unit
    return value, expo + g, g - 6.0 * float(v.dot(v)) / s_unit + g * g


def _solve_inner_subproblem(prob: ProxProblem, z: np.ndarray, tau_seed: float,
                            counter: SolveCounter):
    """Pick tau >= 0 so that tau^{2/(p-2)} = ||s(tau)||_M^2; return (s, tau).

    s(tau) minimizes <glin_L, s> + L ||s||_H^2 + (L/2) p C_p tau ||s||_M^2
    for p > 2 and the descent constant L, so s(tau) = -T (z / (8 lam + c
    tau)) for the rhs z = (4 / L) T^T glin_L in the center's pencil
    coordinates (:meth:`ProxEval.glin`), and ||s(tau)||_M^2 = S(tau) = sum
    z_i^2 / (8 lam_i + c tau)^2 costs O(d) per probe.  The search runs Halley's
    method in log tau, from the seed, on the log gap h = log(tau^{2/(p-2)}
    / S(tau)) of :func:`_log_gap`: the Newton step ds becomes ds / (1 +
    ds h'' / (2 h')) while that denominator exceeds 1/2.  Powers of two
    scale z (and, when needed, the probe's coordinates), so a tiny or huge
    glin still has a root to find.  The probes' signs keep a bracket; a
    step that leaves it, or does not halve once both ends are known, hands
    the bracket to brentq (see :func:`_newton_accepts`).  The root is the
    probe whose step is at most ``TAU_RTOL``, brentq's relative tolerance.
    Each distinct probed tau counts as one Gram solve, as the direct solve
    it replaces would.  When the root lies below the smallest normal
    float, the step at that float is returned.
    """
    pencil = prob.pencil()
    z_max = float(abs(z).max())
    if z_max == 0.0:
        return np.zeros_like(prob.center), 0.0
    z_exp = math.frexp(z_max)[1]
    z_unit = np.ldexp(z, -z_exp)                    # max |z_unit| in [1/2, 1)
    expo = 2.0 / (prob.p - 2.0)
    # S(tau) <= ||z||^2 / (c tau)^2, so the gap is positive from half of
    # tau_up on; the factor 2 keeps rounding from hiding that sign.
    log_up = LN2 + (0.5 * math.log(float(z_unit.dot(z_unit))) + z_exp * LN2
                    - math.log(pencil.c)) / (1.0 + expo / 2.0)
    tau_up = max(math.exp(min(log_up, 690.0)), TAU_MIN)
    probed = set()
    lo, hi = 0.0, math.inf          # probed taus with h < 0 and h >= 0

    def log_gap(tau):
        """:func:`_log_gap` at tau; ticks a new tau, updates the bracket."""
        nonlocal lo, hi
        if tau not in probed:
            counter.tick(1, "prox")
            probed.add(tau)
        h = _log_gap(pencil, z_unit, z_exp, expo, tau)
        if h[0] < 0.0:
            lo = tau
        else:
            hi = tau
        return h

    def step_at(tau):
        """(s(tau), tau), ticking a tau no probe has counted."""
        if tau not in probed:
            counter.tick(1, "prox")
        return -(pencil.t @ pencil.scaled(z, tau)), tau

    tau = min(max(tau_seed, TAU_MIN), tau_up)
    ds_prev = math.inf
    for _ in range(MAX_NEWTON_STEPS):
        value, slope, curv = log_gap(tau)
        ds = -value / slope
        halley = 1.0 + ds * curv / (2.0 * slope)
        if halley > 0.5:
            ds /= halley
        if abs(ds) <= TAU_RTOL:
            return step_at(tau)
        tau_new = min(max(tau * math.exp(min(ds, 700.0)), TAU_MIN), tau_up)
        if not _newton_accepts(tau_new, lo, hi, ds, ds_prev):
            break
        tau, ds_prev = tau_new, ds
    while lo == 0.0:
        if hi == TAU_MIN:                           # the root underflows
            return step_at(hi)
        log_gap(max(hi / 4.0, TAU_MIN))
    while hi == math.inf:
        if lo >= tau_up:
            raise BisectionStallError("no upper bracket for the step scale")
        log_gap(min(4.0 * lo, tau_up))
    return step_at(brentq(lambda t: log_gap(t)[0], lo, hi, xtol=1e-300,
                          rtol=TAU_RTOL, maxiter=300))


@np.errstate(over="ignore")
def prox_solve(prob: ProxProblem, x0: np.ndarray, tol: float,
               counter: SolveCounter) -> ProxCertificate:
    """Approximately minimize the proximal objective from x0.

    Builds the center's pencil, counted as one factorization, then runs
    relative-smoothness descent steps until the stationarity residual
    ||T^T grad|| in the inverse metric (one ``metric`` Gram solve) drops
    below e alpha p^{p+1} ||x - y||_M^{p-1} + tol, alpha = 1/(128 p^2).
    Each trial step minimizes <grad f_reg, x' - x> + L D_phi(x', x) and
    forms the image A (x' - y) of its point once; the objective, the
    distance and both gradients come from it.  L starts at
    ``PROX_L_START``; a trial that fails :meth:`ProxProblem.model_holds`
    is dropped (one ``prox_backtracks`` step), L doubles, and the trial is
    recomputed from the same x and tau.  At ``PROX_L_THEORY`` steps are
    not checked.  Every trial counts as one inner iteration.  Overflow
    is silenced for the whole solve and left to the evaluator's checks.
    """
    p, y, a = prob.p, prob.center, prob.A.a
    scale = math.e * PROX_ALPHA_SCALE * p ** (p - 1.0)     # e alpha p^{p+1}
    prob.pencil()
    counter.factorizations += 1

    def certify(x, ev, it, tau):
        counter.tick(1, "metric")
        return ProxCertificate(x, math.sqrt(float(ev.grad.dot(ev.grad))),
                               scale * ev.dist ** (p - 1.0) + tol, it, tau,
                               ev.dist)

    x = x0.copy()
    tau = fpow(max(prob.m_norm(x - y), 1e-8), p - 2.0)
    if not math.isfinite(tau):
        x, tau = y.copy(), 1.0
    ev = prob.evaluate(a @ (x - y))
    best_x, best_ev = x, ev
    cap = int(INNER_RATE_CONSTANT * max(math.log(1.0 / min(tol, 0.5)), 1.0)) + 8
    stall = 0
    L = PROX_L_START
    cert = certify(x, ev, 0, tau)
    for it in range(cap):
        if cert.satisfied:
            return cert
        step, tau_new = _solve_inner_subproblem(
            prob, (PROX_L_THEORY / L) * ev.glin(L), tau, counter)
        x_new = y + step
        ev_new = prob.evaluate(a @ (x_new - y))
        if L < PROX_L_THEORY and not prob.model_holds(ev, ev_new, L):
            L *= 2.0
            counter.step("prox_backtracks")
            continue
        tau = tau_new
        if ev_new.f_reg < best_ev.f_reg:
            best_x, best_ev, stall = x_new, ev_new, 0
        else:
            stall += 1
        near_best = ev_new.f_reg < best_ev.f_reg * (1.0 + 1e-12) + 1e-300
        x, ev = (x_new, ev_new) if near_best else (best_x, best_ev)
        if stall >= 6:
            return cert
        cert = certify(x, ev, it + 1, tau)
    return cert


def ms_accelerate(A: DenseMatrix, b: np.ndarray, p: float,
                  weights: LewisOverestimate, x0: np.ndarray, eps: float,
                  counter: SolveCounter,
                  lower_bound_fn: Callable) -> np.ndarray:
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
    d = A.d
    k_theory = math.ceil(8.0 * p ** (2.0 / 3.0) * d ** ((p - 2.0) / (3 * p - 2.0)))
    max_steps = min(int(k_theory * (6 + 60) ** 2), 10 ** 9)

    def f(x):
        with np.errstate(over="ignore"):
            return float(np.sum(np.abs(A.a @ x - b) ** p))

    x = np.asarray(x0, dtype=float).copy()
    v = x.copy()
    acc_weight = 0.0
    lam = None

    def respond(x_tilde):
        """The proximal response at center x_tilde, solved from x."""
        prob = ProxProblem(A, b, p, weights, x_tilde)
        cert = prox_solve(prob, x0=x, tol=PROX_TOL, counter=counter)
        counter.step("prox_calls")
        counter.step("inner_iterations", cert.inner_iterations)
        return prob, cert

    f_x = f(x)
    stall = 0
    for _ in range(max_steps):
        if f_x - lower_bound_fn(x) <= eps:
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
            if acc_weight == 0.0:
                # x_tilde has no lambda dependence; set the scale directly,
                # unless the response pins the center (handled below).
                if cert.dist <= prob_center.pin_threshold:
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
        if cert.dist <= prob_center.pin_threshold:
            # The proximal response pins the center: x_tilde is stationary.
            with np.errstate(over="ignore"):
                f_reg = prob_center.evaluate(
                    A.a @ (cert.x - prob_center.center)).f_reg
            if f_reg <= f_x:
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
                counter: SolveCounter, lower_bound_fn: Callable):
    """Given f(x0) - f* <= err, produce x' with f(x') - f* <= err/2."""
    return ms_accelerate(A, b, p, weights, x0, eps=err / 2.0,
                         counter=counter, lower_bound_fn=lower_bound_fn)


def solve_pnorm_accel(instance: ProblemInstance):
    """Full accelerated solve: error halvings inside the certified bracket."""
    if not 2 <= instance.p < math.inf:
        raise InvalidInputError("acceleration path requires a finite p >= 2")

    def make_steps(unit):
        A, b, p, counter = unit.A, unit.b, unit.p, unit.counter
        weights = lewis_overestimates(A, p)
        counter.step("prox_calls", 0)
        counter.step("prox_backtracks", 0)
        counter.step("inner_iterations", 0)

        # The driver bounds each iterate; ms_accelerate's first check bounds
        # the same x, and the x it returns through a check is the driver's
        # next iterate.  A one-entry cache keyed on a copy of x's bytes, so
        # that an x changed in place misses, bounds each iterate once.
        last = [None, None]

        def lower_bound(xc):
            key = xc.tobytes()
            if key != last[0]:
                last[:] = key, lp_dual_bound(A, b, xc, p, counter=counter)
            return last[1]

        def step(x, lo, hi):
            x_new = halve_error(A, b, p, weights, x, max(hi ** p - lo ** p, 1e-300),
                                counter=counter,
                                lower_bound_fn=lambda xc: lower_bound(xc) ** p)
            return x_new if pnorm(A.a @ x_new - b, p) < hi else None

        return BracketSteps(lower_bound, step)

    return certified_solve(instance, "accel", make_steps)
