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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import optimize

from .errors import (
    BisectionStallError,
    BoostBudgetExceededError,
    BudgetExceededError,
    InfeasibleError,
    InvalidInputError,
    NonFiniteError,
    ZeroGradientError,
)
from .linalg import DenseMatrix, SolveCounter, gram_solve_multi
from .problem import ProblemInstance, pnorm
from .report import SolveReport

REFINE_CALL_CONSTANT = 64.0
# Proposals per refinement round; nu halves after each failed one.
ROUND_RETRIES = 80
LINE_SEARCH_DOUBLINGS = 200
# Below this fraction of ||b|| the least-squares residual is rounding error.
SHORT_CIRCUIT_RTOL = 1e-13


def bregman_terms(x: np.ndarray, p: float):
    """Gradient and resistance of the p-th power penalty at x.

    g_i = p |x_i|^{p-2} x_i and r_i = |x_i|^{p-2}; at p = 2 the resistance
    is identically one.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    r = ax ** (p - 2.0)
    return p * r * x, r


def scalar_refine_bounds(x: float, delta: float, p: float):
    """Sandwich for |x+d|^p - |x|^p - g d by quadratic-plus-p-power envelopes.

    Returns (lower, upper, actual); callers assert lower <= actual <= upper.
    """
    r = abs(x) ** (p - 2.0)
    g = p * r * x
    actual = abs(x + delta) ** p - abs(x) ** p - g * delta
    lower = (p / 8.0) * r * delta ** 2 + 2.0 ** (-p - 1) * abs(delta) ** p
    upper = 2.0 * p ** 2 * r * delta ** 2 + p ** p * abs(delta) ** p
    return lower, upper, actual


def _lp_slope(c: float, u: np.ndarray, w: np.ndarray, p: float) -> float:
    """d/dc sum |u + c w|^p; raises NonFiniteError if it is not finite."""
    v = u + c * w
    slope = float(p * (np.abs(v) ** (p - 1.0) * np.sign(v)) @ w)
    if not math.isfinite(slope):
        raise NonFiniteError(f"line-search slope not finite at step {c:.3g}")
    return slope


def line_search_lp(u: np.ndarray, w: np.ndarray, p: float):
    """Minimize sum |u + c w|^p over c >= 0; returns (c, value).

    The objective is convex in c, so its minimizer is the root of the
    slope.  The step 1 is doubled until the slope turns non-negative,
    and brentq finds the root on the last bracket [hi/2, hi] (or [0, 1]).
    """
    if _lp_slope(0.0, u, w, p) >= 0.0:
        return 0.0, float(np.sum(np.abs(u) ** p))
    hi = 1.0
    for _ in range(LINE_SEARCH_DOUBLINGS):
        if _lp_slope(hi, u, w, p) >= 0.0:
            break
        hi *= 2.0
    else:
        return hi, float(np.sum(np.abs(u + hi * w) ** p))
    lo = 0.0 if hi == 1.0 else 0.5 * hi
    try:
        # args=, not a closure: brentq's wrapper refers to itself, so a
        # closure would keep u and w alive until the cycle collector runs.
        c = optimize.brentq(_lp_slope, lo, hi, args=(u, w, p), xtol=1e-300,
                            rtol=8.9e-16, maxiter=300)
    except (RuntimeError, ValueError) as exc:
        raise BisectionStallError(f"line search failed: {exc}") from exc
    return c, float(np.sum(np.abs(u + c * w) ** p))


def weak_duality_bound(A: DenseMatrix, b: np.ndarray, Y: np.ndarray, q: float,
                       counter: SolveCounter | None = None) -> float:
    """Best weak-duality lower bound on min ||Ax - b||_p, 1/p + 1/q = 1.

    Each candidate (a column of Y, or Y itself) is projected onto
    {y : A^T y = 0} by one multi-column Gram solve; for any such y,
    -b^T y / ||y||_q <= ||Ax - b||_p at every x.  The best value over the
    candidates is returned, and 0 when none is positive.
    """
    sol = gram_solve_multi(A, np.ones(A.n), A.a.T @ Y,
                           counter=counter, phase="certificate")
    Y, sol = Y.reshape(A.n, -1), sol.reshape(A.d, -1)
    best = 0.0
    for k in range(Y.shape[1]):
        yhat = Y[:, k] - A.a @ sol[:, k]
        denom = float(np.sum(np.abs(yhat))) if q == 1.0 else pnorm(yhat, q)
        if 0.0 < denom < math.inf:
            best = max(best, -float(b @ yhat) / denom)
    return best


def lp_dual_bound(A: DenseMatrix, b: np.ndarray, x: np.ndarray, p: float,
                  counter: SolveCounter | None = None) -> float:
    """Certified lower bound on min ||Ax - b||_p from the iterate x.

    The candidate is the norm-dual vector of the residual at x; weak
    duality (:func:`weak_duality_bound`) makes the value a true lower
    bound no matter how rough the candidate is.
    """
    u = A.a @ x - b
    upn = pnorm(u, p)
    if upn == 0.0:
        return 0.0
    m = float(np.max(np.abs(u)))
    y = (np.abs(u) / m) ** (p - 1.0) * np.sign(u)
    y /= (upn / m) ** (p - 1.0)
    return weak_duality_bound(A, b, y, p / (p - 1.0), counter)


@dataclass
class GammaSolverContract:
    """An approximate residual-step solver together with its quality factor.

    ``callback(nu, g, R, x=...)`` must return a direction with
    g^T (A @ direction) = -nu whose quadratic form and p-th power norm are
    within gamma (resp. gamma^{p-1}) of the best achievable.
    """

    gamma: float
    callback: Callable


@dataclass
class GammaCertificate:
    """A candidate direction with the two quantities its contract bounds."""

    delta: np.ndarray
    quad_value: float
    pnorm_value: float

    @classmethod
    def evaluate(cls, A: DenseMatrix, R: np.ndarray, p: float,
                 delta: np.ndarray) -> "GammaCertificate":
        az = A.a @ np.asarray(delta, dtype=float)
        return cls(delta=np.asarray(delta, dtype=float),
                   quad_value=float(az @ (R * az)),
                   pnorm_value=float(np.sum(np.abs(az) ** p)))

    def within(self, gamma: float, p: float, opt_value: float,
               rtol: float = 1e-9) -> bool:
        if opt_value < 0:
            return False
        quad_ok = self.quad_value <= gamma * opt_value * (1 + rtol)
        pn = max(self.pnorm_value, 1e-300)
        pnorm_ok = (math.log(pn) <= (p - 1.0) * math.log(gamma)
                    + math.log(max(opt_value, 1e-300)) + rtol)
        return quad_ok and pnorm_ok


@dataclass
class UnitProblem:
    """The instance as :func:`certified_solve` hands it to a solver.

    A and b are rescaled by powers of two and b is shifted by its
    least-squares fit and normalized: a unit vector orthogonal to range(A),
    so the optimum is at least n^{-1/2}.  An iterate z is the caller's
    ``to_caller(z)``; a caller direction is this problem's
    ``np.ldexp(delta, -a_exp)``.
    """

    A: DenseMatrix
    b: np.ndarray
    p: float
    eps: float
    a_exp: int
    to_caller: Callable


@dataclass
class BracketSteps:
    """A solver's part of a certified solve, built on the unit problem.

    ``lower_bound(x)`` is a certified lower bound on the optimum;
    ``step(x, lo, hi)`` returns the next iterate, or None when it can make
    no progress.  ``counts`` holds the solver's counters for the report.
    """

    lower_bound: Callable
    step: Callable
    counts: dict = field(default_factory=dict)


def _pow2_exponent(v: np.ndarray) -> int:
    """k such that max |2^k v| lies in [1/2, 1); 0 for a zero array."""
    return -math.frexp(float(np.max(np.abs(v), initial=0.0)))[1]


def certified_solve(instance: ProblemInstance, method: str,
                    make_steps: Callable[[UnitProblem], BracketSteps],
                    counter: SolveCounter | None = None, seed=None,
                    max_rounds: int = 500):
    """The certification rule shared by every solver; returns (x, report).

    1. Normalize: A and b are rescaled by powers of two, which is exact.
    2. Start: one counted least-squares solve shifts b.  If what is left
       is below SHORT_CIRCUIT_RTOL relative to b, the least-squares point
       is returned with gap 0; otherwise it is normalized to unit norm
       (see :class:`UnitProblem`).
    3. Bracket: hi = ||Ax - b||_p, lo = the best lower bound so far; stop
       once lo > 0 and hi <= (1 + eps) lo, else step.  A step that makes
       no progress, or running out of rounds, raises BudgetExceededError.
    4. Report: x is mapped back and measured on the caller's data.
    """
    t0 = time.perf_counter()
    counter = counter if counter is not None else SolveCounter()
    A, b, p, eps = instance.A, instance.b, instance.p, instance.eps
    a_exp, b_exp = _pow2_exponent(A.a), _pow2_exponent(b)
    a_unit = DenseMatrix.trusted(np.ldexp(A.a, a_exp))
    b_scaled = np.ldexp(b, b_exp)
    x0 = gram_solve_multi(a_unit, np.ones(A.n), a_unit.a.T @ b_scaled,
                          counter=counter, phase="init")
    b_eff = b_scaled - a_unit.a @ x0
    scale = float(np.linalg.norm(b_eff))

    def to_caller(z):
        return np.ldexp(x0 + scale * z, a_exp - b_exp)

    z = np.zeros(A.d)
    rounds, gap = 0, 0.0
    if scale <= SHORT_CIRCUIT_RTOL * float(np.linalg.norm(b_scaled)):
        counts = {"short_circuit": 1}
    else:
        unit = UnitProblem(a_unit, b_eff / scale, p, eps, a_exp, to_caller)
        steps = make_steps(unit)
        counts = steps.counts
        lo, gap = 0.0, math.inf
        while rounds < max_rounds:
            rounds += 1
            hi = pnorm(a_unit.a @ z - unit.b, p)
            lo = min(max(lo, steps.lower_bound(z)), hi)
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

    x = to_caller(z)
    u = A.a @ x - b
    report = SolveReport(
        method=method, p=p, eps=eps, n=A.n, d=A.d, seed=seed,
        gram_solves=counter.gram_solves,
        phase_counts={"rounds": rounds, **counts, **counter.by_phase,
                      "factorizations": counter.factorizations},
        residual_lp=pnorm(u, p), residual_l2=pnorm(u, 2.0),
        certified_gap=max(gap, 0.0), wall_time=time.perf_counter() - t0)
    return x, report


def refinement_round(u: np.ndarray, p: float, floor: float, nu_prev,
                     propose: Callable, counts: dict, calls_key: str):
    """One refinement round on sum |u|^p; returns (c, direction, nu) or None.

    ``propose(nu, g, r)`` returns (direction, image): a step in the
    caller's coordinates and what it adds to u; r is the resistance
    array.  nu starts at min(f(u) - floor, 4 nu_prev); it halves when the
    proposal is infeasible or gives no decrease, at most ROUND_RETRIES
    times, and the round gives up once nu underflows to 0.  The
    exact line-search point u + c image is accepted once it falls below
    f(u) (1 - 1e-15).  Proposals are tallied in ``counts[calls_key]`` and
    acceptances in ``counts["accepted_steps"]``.
    """
    g, r = bregman_terms(u, p)
    if not np.any(g):
        return None
    f_cur = float(np.sum(np.abs(u) ** p))
    gap = max(f_cur - floor, 1e-300)
    nu = gap if nu_prev is None else min(gap, 4.0 * nu_prev)
    for _ in range(ROUND_RETRIES):
        if not nu > 0.0:
            return None
        counts[calls_key] += 1
        try:
            direction, image = propose(nu, g, r)
        except (InfeasibleError, BoostBudgetExceededError):
            nu /= 2.0
            continue
        except ZeroGradientError:
            return None
        c_star, f_new = line_search_lp(u, image, p)
        if f_new < f_cur * (1.0 - 1e-15):
            counts["accepted_steps"] += 1
            return c_star, direction, nu
        nu /= 2.0
    return None


def refine_steps(unit: UnitProblem, solver: GammaSolverContract,
                 counter: SolveCounter,
                 counts: dict | None = None) -> BracketSteps:
    """Iterative-refinement steps driven by a residual-step solver.

    Each step is one :func:`refinement_round` whose proposals are the
    solver's directions, charged against the contract's call budget.  The
    step counters are added to ``counts`` (the solver's own, if given).
    """
    A, b, p = unit.A, unit.b, unit.p
    counts = {} if counts is None else counts
    counts.update(gamma_calls=0, accepted_steps=0)
    budget = min(REFINE_CALL_CONSTANT * p ** 3.5 * solver.gamma
                 * math.log((A.n + A.d) / unit.eps), 1e18)
    nu_prev = None

    def lower_bound(x):
        return lp_dual_bound(A, b, x, p, counter=counter)

    def step(x, lo, hi):
        nonlocal nu_prev

        def propose(nu, g, R):
            if counts["gamma_calls"] > budget:
                raise BudgetExceededError(
                    f"{counts['gamma_calls']} residual-solver calls exceed "
                    f"the contract budget {budget:.3g}")
            delta = solver.callback(nu, g, R, x=x)
            return delta, A.a @ delta

        out = refinement_round(A.a @ x - b, p, lo ** p, nu_prev, propose,
                               counts, "gamma_calls")
        if out is None:
            return None
        c_star, delta, nu_prev = out
        return x + c_star * delta

    return BracketSteps(lower_bound, step, counts)


def refine_to_accuracy(instance: ProblemInstance, solver: GammaSolverContract,
                       counter: SolveCounter | None = None,
                       max_rounds: int = 500):
    """Drive a caller-built residual solver until (1+eps)-accuracy is certified.

    The problem is unconstrained: min ||Ax - b||_p over all x, p >= 2.
    ``solver.callback(nu, g, R, x=...)`` is bound to the caller's A: it
    receives iterates in the caller's coordinates and its directions are
    mapped back.  Returns (x, report).  Raises BudgetExceededError if the
    theoretical call budget is exhausted or progress stalls before
    certification, which signals a broken solver contract.
    """
    if instance.p < 2:
        raise InvalidInputError("refinement drives p >= 2 objectives")
    counter = counter if counter is not None else SolveCounter()

    def make_steps(unit):
        def callback(nu, g, R, x):
            delta = solver.callback(nu, g, R, x=unit.to_caller(x))
            return np.ldexp(delta, -unit.a_exp)
        return refine_steps(unit, GammaSolverContract(solver.gamma, callback),
                            counter)

    return certified_solve(instance, "refine", make_steps, counter=counter,
                           max_rounds=max_rounds)
