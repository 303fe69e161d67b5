"""Approximate minimax regression through softmax smoothing.

The max-residual objective is replaced by a temperature-t soft maximum of
the stacked vector (Ax-b, -(Ax-b)); the smoothed function is minimized by
Newton steps with an exact line search (:func:`line_search_lse`).  An
l1-dual projection certifies the upper/lower bracket, and the temperature
is retuned as the bracket shrinks.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import nnls

from .errors import InvalidInputError, NonFiniteError, PotentialViolationError
from .linalg import DenseMatrix, SolveCounter, gram_solve_multi
from .problem import ProblemInstance
from .refine import (
    BracketSteps,
    certified_solve,
    convex_line_search,
    weak_duality_bound,
)

SMOOTHING_DENOM = 20.0      # t = gap scale / (20 log m)
# Ridge on the Newton system; keeps it positive definite where the
# softmax weights underflow.
NEWTON_DAMPING = 1e-8
MAX_OUTER_ROUNDS = 200
MAX_NEWTON_STEPS = 400       # per outer round
# The line search stops where its root is resolved: four times brentq's
# relative tolerance in refine.convex_line_search, plus the move that shifts
# the softmax-weighted entries of z + c jd by four ulps of max|z|.
LINE_SEARCH_RTOL = 8.9e-16
LINE_SEARCH_ULPS = 4.0
# Newton and bisection probes before refine.convex_line_search takes over.
LINE_SEARCH_PROBES = 32


def lse_eval(u: np.ndarray, t: float):
    """Temperature-t soft maximum and its softmax gradient.

    Max-subtraction keeps the exponentials bounded; the gradient entries
    are the softmax probabilities and sum to one.  The smoothing sandwich
    max(u) <= value <= max(u) + t log(len(u)) is asserted on every call.
    """
    if t <= 0:
        raise InvalidInputError("temperature must be positive")
    u = np.asarray(u, dtype=float)
    m = float(np.max(u))
    e = np.exp((u - m) / t)
    s = float(np.sum(e))
    value = m + t * math.log(s)
    pi = e / s
    if not (m - 1e-12 <= value <= m + t * math.log(len(u)) + 1e-12):
        raise PotentialViolationError("smoothing sandwich failed")
    return value, pi


def _lse_slope(c: float, z: np.ndarray, jd: np.ndarray, t: float,
               counter: SolveCounter | None = None) -> float:
    """d/dc lse_t(z + c jd): the softmax-weighted mean of jd."""
    if counter is not None:
        counter.step("line_search_evals")
    _, pi = lse_eval(z + c * jd, t)
    return float(pi @ jd)


def _envelope_start(z: np.ndarray, jd: np.ndarray, t: float) -> float:
    """First probe of :func:`line_search_lse`, from the max envelope.

    The lines z_i + c jd_i are walked from argmax z (the steepest ascent
    among tied maxima) to the minimizer c_env of their upper envelope over
    c >= 0; each breakpoint costs O(len(z)).  Where lines of slopes a < 0 <
    b meet there, the soft maximum of those two alone has its minimum at
    c_env + t / (b - a) log(-a / b), which is returned when positive.
    Otherwise c_env is returned, or t / max|jd| when c_env is 0.
    """
    top = np.flatnonzero(z == np.max(z))
    i = top[np.argmax(jd[top])]
    c, a, b = 0.0, float(np.min(jd[top])), float(jd[i])
    while b < 0.0:
        # The next line to overtake line i; one with a larger slope exists,
        # since jd stacks a vector and its negative.
        faster = np.flatnonzero(jd > b)
        cross = (z[i] - z[faster]) / (jd[faster] - b)
        first = float(np.min(cross))
        tied = faster[cross == first]
        i = tied[np.argmax(jd[tied])]
        c, a, b = max(c, first), b, float(jd[i])
    if a < 0.0 < b:
        start = c + t / (b - a) * (math.log(-a) - math.log(b))
        if 0.0 < start < math.inf:
            return start
    return c if c > 0.0 else t / float(np.max(np.abs(jd)))


def _newton_accepts(c_new: float, lo: float, hi: float, step: float,
                    step_prev: float) -> bool:
    """Whether the line search takes a Newton step.

    The step must land strictly inside the bracket (lo, hi) that the
    slope's signs give and be at most half the previous step.
    """
    return lo < c_new < hi and abs(step) <= 0.5 * abs(step_prev)


def line_search_lse(z: np.ndarray, jd: np.ndarray, t: float, at0: tuple,
                    counter: SolveCounter | None = None):
    """Minimize lse_t(z + c jd) over c >= 0; returns (c, value at c).

    ``at0`` is lse_eval(z, t), whose softmax gives the slope at 0; 0 and
    its value come back when that slope is non-negative, so also when jd
    is 0.  The first probe is :func:`_envelope_start`, or the Newton step
    from 0 when that is shorter: near a smoothed optimum the step moves z
    by less than t and the quadratic model holds, while at a kink the
    curvature at 0 is 0 to rounding and that step is far too long.  Each
    probe is one :func:`lse_eval`, whose softmax pi gives the slope pi.jd
    and the curvature (pi.jd^2 - (pi.jd)^2) / t; the probes' signs keep a
    bracket.  A Newton step is taken when :func:`_newton_accepts` it;
    otherwise the bracket is bisected, or its lower end doubled while it
    has no upper end.  The search stops at the probe where the bracket or
    the Newton step is at most ``4 * LINE_SEARCH_RTOL * c`` plus
    ``LINE_SEARCH_ULPS * eps * max|z| / sqrt(pi.jd^2)``, the move that
    shifts the entries carrying the softmax weight by that many ulps of
    max|z|: below it the slope's sign is rounding noise.  After
    ``LINE_SEARCH_PROBES`` probes :func:`refine.convex_line_search` takes
    over.  Each slope evaluation ticks ``line_search_evals`` on the
    counter.  A non-finite slope raises NonFiniteError.
    """
    val, pi = at0
    jd2 = jd * jd
    slope = float(pi @ jd)
    if not math.isfinite(slope):
        raise NonFiniteError("line-search slope not finite at step 0")
    if slope >= 0.0:
        return 0.0, val
    resolution = LINE_SEARCH_ULPS * np.finfo(float).eps * float(np.abs(z).max())
    curv = (float(pi @ jd2) - slope * slope) / t
    c = _envelope_start(z, jd, t)
    if curv > 0.0:
        c = min(c, -slope / curv)
    lo, hi = 0.0, math.inf          # probes with slope < 0 and >= 0
    step_prev = math.inf
    for _ in range(LINE_SEARCH_PROBES):
        if counter is not None:
            counter.step("line_search_evals")
        val, pi = lse_eval(z + c * jd, t)
        slope = float(pi @ jd)
        if not math.isfinite(slope):
            raise NonFiniteError(f"line-search slope not finite at step {c:.3g}")
        if slope < 0.0:
            lo = c
        else:
            hi = c
        spread = float(pi @ jd2)
        curv = (spread - slope * slope) / t
        step = -slope / curv if curv > 0.0 else math.inf
        # spread is 0 only where jd^2 underflows: nothing is resolved there
        tol = 4.0 * LINE_SEARCH_RTOL * c + (
            resolution / math.sqrt(spread) if spread > 0.0 else math.inf)
        if min(hi - lo, abs(step)) <= tol:
            return c, val
        if _newton_accepts(c + step, lo, hi, step, step_prev):
            c_new = c + step
        elif hi == math.inf:
            c_new = 2.0 * lo
        else:
            c_new = 0.5 * (lo + hi)
        c, step_prev = c_new, c_new - c
    c = convex_line_search(_lse_slope, (z, jd, t, counter))
    return c, lse_eval(z + c * jd, t)[0]


def best_linf_bound(A: DenseMatrix, b: np.ndarray, x: np.ndarray,
                    counter: SolveCounter | None = None) -> float:
    """Strongest available minimax lower bound at the current iterate.

    Assembles dual candidates two ways: softmax weights of the stacked
    residuals at temperatures 0.3 and 0.1 times the max residual (lower
    ones never gave the best bound), and least-squares multipliers
    restricted to the top residual cluster (the near-active rows of an
    almost-optimal point).  :func:`weak_duality_bound` projects them all,
    so the value returned is a valid weak-duality bound.
    """
    u = A.a @ x - b
    hi = float(np.max(np.abs(u)))
    if hi == 0.0:
        return 0.0
    n = A.n
    stacked = np.concatenate([u, -u])
    candidates = []
    for scale in (0.3, 0.1):
        _, pi = lse_eval(stacked, scale * hi)
        candidates.append(pi[:n] - pi[n:])
    signs = np.sign(u)
    for theta in (0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 1e-4):
        idx = np.flatnonzero(np.abs(u) >= (1.0 - theta) * hi)
        if idx.size == 0:
            continue
        rows = (A.a[idx] * signs[idx][:, None]).T        # d x |I|
        weight = float(np.mean(np.linalg.norm(rows, axis=0))) + 1e-300
        system = np.vstack([rows, weight * np.ones((1, idx.size))])
        target = np.zeros(A.d + 1)
        target[-1] = weight
        try:
            mu, _ = nnls(system, target, maxiter=10 * (idx.size + A.d))
        except RuntimeError:
            continue
        total = float(np.sum(mu))
        if total <= 0:
            continue
        cand = np.zeros(n)
        cand[idx] = signs[idx] * mu / total
        candidates.append(cand)
    return weak_duality_bound(A, b, np.column_stack(candidates), 1.0, counter)


def linf_regress(instance: ProblemInstance, seed=0,
                 counter: SolveCounter | None = None):
    """Minimax regression to (1+eps) relative accuracy, certified.

    Each bracket round smooths at a temperature tied to the current gap,
    max(eps lo, (hi - lo) / 8), so early rounds are not solved to the
    final accuracy, and takes Newton steps, each one Gram solve against
    A^T diag(dtil + NEWTON_DAMPING) A followed by the exact line search
    :func:`line_search_lse`.  The exact Hessian's Sherman-Morrison step
    lies along the same direction, so the line search alone fixes the step
    length: it starts next to the kink of the max envelope along the step,
    finishes by safeguarded Newton at the root's rounding resolution, and
    falls back to refine.convex_line_search after LINE_SEARCH_PROBES
    probes.  The bracket [lower bound, max residual] comes from the
    softmax dual candidates and drives both the temperature schedule and
    termination; a round that does not lower the max residual sharpens the
    temperature.  An exponent other than inf is invalid input.
    """
    if instance.p != math.inf:
        raise InvalidInputError("linf requires p = inf")
    counter = counter if counter is not None else SolveCounter()

    def make_steps(unit):
        A, b, eps, n = unit.A, unit.b, unit.eps, unit.A.n
        counter.step("newton_steps", 0)
        counter.step("line_search_evals", 0)
        t_shrink = 1.0

        def lower_bound(x):
            return best_linf_bound(A, b, x, counter)

        def descend(x, lo, hi):
            """Newton steps on lse_t at this round's temperature.

            Each step is one Gram solve and one :func:`line_search_lse`,
            which reuses the softmax at x for the slope at 0 and returns
            the soft maximum at its point for the descent test.
            """
            nonlocal t_shrink
            t = (t_shrink * max(eps * lo, (hi - lo) / 8.0)
                 / (SMOOTHING_DENOM * math.log(2 * n)))
            u = A.a @ x - b
            for _ in range(MAX_NEWTON_STEPS):
                z = np.concatenate([u, -u])
                val, pi = lse_eval(z, t)
                grad = A.a.T @ (pi[:n] - pi[n:])
                if float(np.linalg.norm(grad)) <= 1e-15:
                    break
                # The Hessian is A^T diag((pi+ + pi-)/t) A - grad grad^T / t;
                # its Newton step is a multiple of this one.
                dtil = (pi[:n] + pi[n:]) / t
                step = -gram_solve_multi(A, dtil + NEWTON_DAMPING, grad,
                                         counter=counter, phase="newton")
                counter.step("newton_steps")
                a_step = A.a @ step
                jd = np.concatenate([a_step, -a_step])
                c, val_c = line_search_lse(z, jd, t, (val, pi), counter)
                if not val_c < val * (1.0 - 1e-15):
                    break
                x = x + c * step
                u = A.a @ x - b
                if float(np.max(np.abs(u))) <= (1.0 + eps / 4.0) * lo:
                    break
            if not float(np.max(np.abs(u))) < hi:
                # no lower max residual at this temperature: sharpen it
                # before giving up
                t_shrink *= 0.25
                if t_shrink < 1e-10:
                    return None
            return x

        return BracketSteps(lower_bound, descend)

    return certified_solve(instance, "linf", make_steps, counter=counter,
                           seed=seed, max_rounds=MAX_OUTER_ROUNDS)
