"""The certified bracket shared by every solver, and iterative refinement.

:func:`certified_solve` is the one place where a certificate is issued.
It rescales the data exactly, shifts out the least-squares fit, and then
brackets the optimum between the current residual and a weak-duality
lower bound supplied by the solver until the two agree to (1+eps).  A
solver contributes only its step and its lower bound (:class:`BracketSteps`).

Iterative refinement is one such step: it linearizes the p-th power
objective at the current residual, asks an approximate residual solver
for a direction with a prescribed linear progress nu, and accepts the
exact line-search point along it.  Rounds whose nu turns out infeasible
for the solver shrink nu and retry; progress is monotone throughout.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (
    BisectionStallError,
    BoostBudgetExceededError,
    BoundAboveObjectiveError,
    BudgetExceededError,
    InfeasibleError,
    InvalidInputError,
    NonFiniteError,
    ZeroGradientError,
)
from .linalg import DenseMatrix, SolveCounter
from .problem import ProblemInstance, pnorm
from .report import SolveReport

# Proposals per refinement round; nu halves after each failed one.
ROUND_RETRIES = 80
# Line search: relative tolerance on the root (about 16 ulps), resolution
# in ulps of the probed entries, and the probes that make a stall.
LINE_SEARCH_RTOL = 4.0 * 8.9e-16
LINE_SEARCH_ULPS = 4.0
LINE_SEARCH_PROBES = 200
# Below this fraction of ||b|| the least-squares residual is rounding error.
SHORT_CIRCUIT_RTOL = 1e-13
# Relative rounding of a p-norm, per entry: the driver allows 4 n eps_mach.
ROUNDING_PER_ENTRY = 4.0 * np.finfo(float).eps
MAX_ROUNDS = 500             # bracket rounds per solve, every method


def bregman_terms(x: np.ndarray, p: float):
    """Gradient and resistance of the p-th power penalty at x.

    g_i = p |x_i|^{p-2} x_i and r_i = |x_i|^{p-2}; at p = 2 the resistance
    is identically one.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    r = ax ** (p - 2.0)
    return p * r * x, r


def _newton_accepts(c_new: float, lo: float, hi: float, step: float,
                    step_prev: float) -> bool:
    """True for a step strictly inside (lo, hi), at most half the last."""
    return lo < c_new < hi and abs(step) <= 0.5 * abs(step_prev)


def newton_line_search(probe: Callable, c: float) -> float:
    """The minimizer over c >= 0 of a convex function with negative slope at 0.

    ``probe(c)`` returns the slope, the curvature and the resolution (the
    move below which the slope's sign is rounding noise) at c; c > 0 is
    the first probe.  The curvature is used only through the step
    -slope / curvature it implies, so a probe may return a corrected one
    (:func:`linf.line_search_lse` returns Halley's).  The probes' signs keep a bracket, which is bisected,
    or doubled while it has no upper end, unless :func:`_newton_accepts`
    the Newton step (a curvature of 0, inf or nan gives none).  Returns
    the probe where the bracket or the Newton step is at most
    ``LINE_SEARCH_RTOL * c`` plus the resolution.  A non-finite slope
    raises NonFiniteError, LINE_SEARCH_PROBES probes BisectionStallError.
    """
    lo, hi = 0.0, math.inf          # probes with slope < 0 and >= 0
    step_prev = math.inf
    for _ in range(LINE_SEARCH_PROBES):
        slope, curv, resolution = probe(c)
        if not math.isfinite(slope):
            raise NonFiniteError(f"line-search slope not finite at step {c:.3g}")
        if slope < 0.0:
            lo = c
        else:
            hi = c
        step = -slope / curv if 0.0 < curv < math.inf else math.inf
        if min(hi - lo, abs(step)) <= LINE_SEARCH_RTOL * c + resolution:
            return c
        if _newton_accepts(c + step, lo, hi, step, step_prev):
            c_new = c + step
        elif hi == math.inf:
            c_new = 2.0 * lo
        else:
            c_new = 0.5 * (lo + hi)
        c, step_prev = c_new, c_new - c
    raise BisectionStallError(
        f"line search unresolved after {LINE_SEARCH_PROBES} probes")


def line_search_lp(u: np.ndarray, w: np.ndarray, p: float):
    """Minimize sum |u + c w|^p over c >= 0; returns (c, value).

    :func:`newton_line_search` from c = 1, where every caller's w reaches
    its proposed point.  One power |v|^{p-1}, v = u + c w, gives a probe's
    slope and curvature; at an exact zero of v the curvature comes out nan
    (it is infinite for p < 2), so the search bisects.  The resolution
    shifts v by LINE_SEARCH_ULPS ulps of max|u| along max|w|.  The value
    is computed at the returned point only.
    """
    w2 = w * w

    def probe(c):
        v = u + c * w
        a = np.abs(v)
        pw = a ** (p - 1.0)
        return (p * float(np.copysign(pw, v) @ w),
                p * (p - 1.0) * float((pw / a) @ w2), resolution)

    with np.errstate(divide="ignore", invalid="ignore"):
        resolution = float(LINE_SEARCH_ULPS * np.finfo(float).eps
                           * np.max(np.abs(u)) / np.max(np.abs(w)))
        slope = probe(0.0)[0]
        if not math.isfinite(slope):
            raise NonFiniteError("line-search slope not finite at step 0")
        c = 0.0 if slope >= 0.0 else newton_line_search(probe, 1.0)
    return c, float(np.sum(np.abs(u + c * w) ** p))


def weak_duality_bound(A: DenseMatrix, b: np.ndarray, Y: np.ndarray, q: float,
                       counter: SolveCounter, residual: np.ndarray) -> float:
    """Best weak-duality lower bound on min ||Ax - b||_p, 1/p + 1/q = 1.

    Each candidate (a column of Y, or Y itself) is projected onto
    {y : A^T y = 0} by A's QR, one Gram solve each; for any such y,
    -b^T y / ||y||_q <= ||Ax - b||_p at every x.  Each value is capped by
    the drift-charged u^T y / ||y||_q at the ``residual`` u = Ax - b of
    the iterate: the same value when A^T y = 0 holds exactly, but it also
    charges the rounding drift x^T A^T y, and by Hoelder it never exceeds
    ||u||_p.  The best value over the candidates is returned, and 0 when
    none is positive.
    """
    Yhat = A.project_out(Y.reshape(A.n, -1))
    counter.tick(Yhat.shape[1], "certificate")
    best = 0.0
    for yhat in Yhat.T:
        denom = pnorm(yhat, q)
        if 0.0 < denom < math.inf:
            value = min(-float(b @ yhat), float(residual @ yhat))
            best = max(best, value / denom)
    return best


def lp_dual_bound(A: DenseMatrix, b: np.ndarray, x: np.ndarray, p: float,
                  counter: SolveCounter) -> float:
    """Certified lower bound on min ||Ax - b||_p from the iterate x.

    The candidate is the norm-dual vector of the residual at x; weak
    duality (:func:`weak_duality_bound`) makes the value a true lower
    bound no matter how rough the candidate is.  It is the smaller of
    -b^T yhat / ||yhat||_q and the drift-charged (Ax - b)^T yhat /
    ||yhat||_q for the one projected candidate yhat, so it is never above
    either.  The solvers call it on the unit problem, whose residual is
    never zero.
    """
    u = A.a @ x - b
    upn = pnorm(u, p)
    m = float(np.max(np.abs(u)))
    y = (np.abs(u) / m) ** (p - 1.0) * np.sign(u)
    y /= (upn / m) ** (p - 1.0)
    return weak_duality_bound(A, b, y, p / (p - 1.0), counter, u)


@dataclass
class UnitProblem:
    """The instance as :func:`certified_solve` hands it to a solver.

    A and b are rescaled by powers of two and b is shifted by its
    least-squares fit and normalized: a unit vector orthogonal to range(A),
    so the optimum is at least n^{-1/2}.  ``counter`` is the solve's one
    tally.
    """

    A: DenseMatrix
    b: np.ndarray
    p: float
    eps: float
    counter: SolveCounter


@dataclass
class BracketSteps:
    """A solver's part of a certified solve, built on the unit problem.

    ``lower_bound(x)`` is a certified lower bound on the optimum;
    ``step(x, lo, hi)`` returns the next iterate, or None when it can make
    no progress.  Step counts go to the unit problem's ``counter``.
    """

    lower_bound: Callable
    step: Callable


def _pow2_exponent(v: np.ndarray) -> int:
    """k such that max |2^k v| lies in [1/2, 1); 0 for a zero array."""
    return -math.frexp(float(np.max(np.abs(v), initial=0.0)))[1]


def certified_solve(instance: ProblemInstance, method: str,
                    make_steps: Callable[[UnitProblem], BracketSteps]):
    """The certification rule shared by every solver; returns (x, report).

    1. Normalize: A and b are rescaled by powers of two, which is exact.
    2. Start: one counted least-squares solve by A's QR (the solve's one
       init factorization) shifts b off range(A).  If what is left is
       below SHORT_CIRCUIT_RTOL relative to b, the least-squares point is
       returned with gap 0; else it is normalized (:class:`UnitProblem`).
    3. Bracket: hi = ||Ax - b||_p, lo = the best lower bound so far; stop
       once lo > 0 and hi <= (1 + eps) lo, else step.  A step that makes
       no progress, or MAX_ROUNDS rounds, raises BudgetExceededError.  A
       best bound above hi within the rounding of the p-norm evaluation
       (``ROUNDING_PER_ENTRY * n``, relative) is clipped to hi; one
       further above is false and raises BoundAboveObjectiveError.
       At p = 2 the start is the optimum: the bound is
       :func:`lp_dual_bound`, there is no step and no ``make_steps`` call.
    4. Report: x is mapped back and measured on the caller's data, with
       the counts of the :class:`SolveCounter` created here.  A mapped x
       that is not exact (it overflowed, or lost bits below float64's
       range) raises NonFiniteError.
    """
    t0 = time.perf_counter()
    counter = SolveCounter()
    A, b, p, eps = instance.A, instance.b, instance.p, instance.eps
    a_exp, b_exp = _pow2_exponent(A.a), _pow2_exponent(b)
    a_unit = DenseMatrix.trusted(np.ldexp(A.a, a_exp))
    b_scaled = np.ldexp(b, b_exp)
    q, r = a_unit.qr
    x0 = solve_triangular(r, q.T @ b_scaled, check_finite=False)
    b_eff = a_unit.project_out(b_scaled)
    counter.tick(1, "init")
    counter.factorizations += 1
    scale = float(np.linalg.norm(b_eff))
    z = np.zeros(A.d)
    rounds, gap = 0, 0.0
    if scale <= SHORT_CIRCUIT_RTOL * float(np.linalg.norm(b_scaled)):
        counter.step("short_circuit")
    else:
        unit = UnitProblem(a_unit, b_eff / scale, p, eps, counter)
        steps = make_steps(unit) if p != 2.0 else BracketSteps(
            lambda z: lp_dual_bound(a_unit, unit.b, z, p, counter),
            lambda z, lo, hi: None)
        lo, gap = 0.0, math.inf
        slack = ROUNDING_PER_ENTRY * A.n
        while rounds < MAX_ROUNDS:
            rounds += 1
            hi = pnorm(a_unit.a @ z - unit.b, p)
            lo = max(lo, steps.lower_bound(z))
            if lo > hi * (1.0 + slack):
                raise BoundAboveObjectiveError(
                    f"{method} lower bound {lo:.17g} exceeds the achieved "
                    f"objective {hi:.17g} in round {rounds}")
            lo = min(lo, hi)
            gap = hi / lo - 1.0 if lo > 0 else math.inf
            if gap <= eps:
                break
            z_next = steps.step(z, lo, hi)
            if z_next is None:
                break
            z = z_next
        if not gap <= eps:
            raise BudgetExceededError(
                f"{method} stalled at relative gap {gap:.3g} (target "
                f"{eps:.3g}) after {rounds} rounds")

    x_unit = x0 + scale * z
    with np.errstate(over="ignore"):
        x = np.ldexp(x_unit, a_exp - b_exp)
    if not np.array_equal(np.ldexp(x, b_exp - a_exp), x_unit):
        raise NonFiniteError(
            f"{method} minimizer lies outside float64's range")
    u = A.a @ x - b
    report = SolveReport(
        method=method, p=p, eps=eps, n=A.n, d=A.d,
        gram_solves=counter.gram_solves,
        phase_counts={"rounds": rounds, **counter.steps, **counter.by_phase,
                      "factorizations": counter.factorizations},
        residual_lp=pnorm(u, p), residual_l2=pnorm(u, 2.0),
        certified_gap=max(gap, 0.0), wall_time=time.perf_counter() - t0)
    return x, report


def refinement_round(u: np.ndarray, p: float, floor: float,
                     propose: Callable, counter: SolveCounter, calls_key: str):
    """One refinement round on sum |u|^p; returns (c, direction) or None.

    ``propose(nu, g, r)`` returns (direction, image): a step in the
    caller's coordinates and what it adds to u; g is the gradient and r
    the resistance array at u.  The callers' u (a unit residual, or
    ``dual``'s y with b^T y = 1) is never zero, so neither is g.  nu
    starts at the round's own gap f(u) - floor; it halves when the
    proposal is infeasible or gives no decrease, at most ROUND_RETRIES
    times, and the round gives up once nu underflows to 0.  The exact
    line-search point u + c image is accepted once it falls below
    f(u) (1 - 1e-15).  Proposals are ticked as ``calls_key`` and
    acceptances as ``"accepted_steps"`` on the counter's steps.
    """
    g, r = bregman_terms(u, p)
    f_cur = float(np.sum(np.abs(u) ** p))
    nu = max(f_cur - floor, 1e-300)
    for _ in range(ROUND_RETRIES):
        if not nu > 0.0:
            return None
        counter.step(calls_key)
        try:
            direction, image = propose(nu, g, r)
        except (InfeasibleError, BoostBudgetExceededError):
            nu /= 2.0
            continue
        except ZeroGradientError:
            return None
        c_star, f_new = line_search_lp(u, image, p)
        if f_new < f_cur * (1.0 - 1e-15):
            counter.step("accepted_steps")
            return c_star, direction
        nu /= 2.0
    return None


def refine_steps(unit: UnitProblem, solver: Callable) -> BracketSteps:
    """Iterative-refinement steps driven by a residual-step solver.

    Each step is one :func:`refinement_round` from the bracket's floor
    lo^p, whose proposals are the directions ``solver(nu, g, R)``, ticked
    as ``gamma_calls`` on the solve's counter; nothing carries from one
    round to the next.
    """
    A, b, p, counter = unit.A, unit.b, unit.p, unit.counter
    counter.step("gamma_calls", 0)
    counter.step("accepted_steps", 0)

    def lower_bound(x):
        return lp_dual_bound(A, b, x, p, counter)

    def step(x, lo, hi):
        def propose(nu, g, R):
            delta = solver(nu, g, R)
            return delta, A.a @ delta

        out = refinement_round(A.a @ x - b, p, lo ** p, propose, counter,
                               "gamma_calls")
        if out is None:
            return None
        c_star, delta = out
        return x + c_star * delta

    return BracketSteps(lower_bound, step)


def refine_to_accuracy(instance: ProblemInstance,
                       make_solver: Callable[[UnitProblem], Callable]):
    """Drive a caller-built residual solver until (1+eps)-accuracy is certified.

    The problem is unconstrained: min ||Ax - b||_p over all x, finite p >= 2.
    ``make_solver(unit)`` builds the solver on the :class:`UnitProblem`;
    ``solver(nu, g, R)`` returns a direction with g^T (unit.A @ direction)
    = -nu and ticks its Gram solves on ``unit.counter``, so the report
    counts them beside the solver's calls (``gamma_calls``).  Returns
    (x, report); raises BudgetExceededError if progress stalls before
    certification, which signals a broken solver.
    """
    if not 2 <= instance.p < math.inf:
        raise InvalidInputError("refinement drives finite p >= 2 objectives")
    return certified_solve(instance, "refine",
                           lambda unit: refine_steps(unit, make_solver(unit)))
