"""Approximate minimax regression through softmax smoothing.

The max-residual objective is replaced by a temperature-t soft maximum of
the stacked vector (Ax-b, -(Ax-b)); the smoothed function is minimized by
Newton steps with an exact line search (:func:`line_search_lse`), whose
probes take Halley's step on the slope and whose last probe's softmax
starts the next Newton step.  An l1-dual projection certifies the
upper/lower bracket, and the temperature is retuned as the bracket
shrinks.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import nnls

from .errors import InvalidInputError, NonFiniteError, PotentialViolationError
from .linalg import DenseMatrix, SolveCounter, gram_solve_multi
from .problem import ProblemInstance
from .refine import (
    LINE_SEARCH_ULPS,
    BracketSteps,
    certified_solve,
    newton_line_search,
    weak_duality_bound,
)

SMOOTHING_DENOM = 20.0      # t = gap scale / (20 log m)
# Ridge on the Newton system; keeps it positive definite where the
# softmax weights underflow.
NEWTON_DAMPING = 1e-8
MAX_NEWTON_STEPS = 400       # per outer round
MACHINE_EPS = float(np.finfo(float).eps)
# best_linf_bound's top clusters: rows within (1 - theta) of the max residual
CLUSTER_THETAS = (0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 1e-4)


def lse_eval(u: np.ndarray, t: float):
    """Temperature-t soft maximum and its softmax gradient.

    Max-subtraction keeps the exponentials bounded; the gradient entries
    are the softmax probabilities and sum to one.  The smoothing sandwich
    max(u) <= value <= max(u) + t log(len(u)) is asserted on every call.
    """
    u = np.asarray(u, dtype=float)
    m = float(u.max())
    pi = u - m          # a new buffer, then worked in place
    pi /= t
    np.exp(pi, out=pi)
    s = float(pi.sum())
    value = m + t * math.log(s)
    pi /= s
    if not (m - 1e-12 <= value <= m + t * math.log(len(u)) + 1e-12):
        raise PotentialViolationError("smoothing sandwich failed")
    return value, pi


def _envelope_start(z: np.ndarray, jd: np.ndarray, t: float) -> float:
    """First probe of :func:`line_search_lse`, from the max envelope.

    The lines z_i + c jd_i are walked from argmax z (the steepest ascent
    among tied maxima) to the minimizer c_env of their upper envelope over
    c >= 0; each breakpoint costs O(len(z)).  Where lines of slopes a < 0 <
    b meet there, the soft maximum of those two alone has its minimum at
    c_env + t / (b - a) log(-a / b), which is returned when positive.
    Otherwise c_env is returned, or t / max|jd| when c_env is 0.
    """
    top = (z == z.max()).nonzero()[0]
    slopes = jd[top]
    i = top[slopes.argmax()]
    c, a, b = 0.0, float(slopes.min()), float(jd[i])
    while b < 0.0:
        # The next line to overtake line i; one with a larger slope exists,
        # since jd stacks a vector and its negative.
        faster = (jd > b).nonzero()[0]
        cross = (z[i] - z[faster]) / (jd[faster] - b)
        first = float(cross.min())
        tied = faster[cross == first]
        i = tied[jd[tied].argmax()]
        c, a, b = max(c, first), b, float(jd[i])
    if a < 0.0 < b:
        start = c + t / (b - a) * (math.log(-a) - math.log(b))
        if 0.0 < start < math.inf:
            return start
    return c if c > 0.0 else t / float(np.abs(jd).max())


def line_search_lse(z: np.ndarray, jd: np.ndarray, t: float, at0: tuple,
                    counter: SolveCounter):
    """Minimize lse_t(z + c jd) over c >= 0; returns (c, lse_eval there).

    ``at0`` is lse_eval(z, t); (0, at0) comes back when the slope there is
    non-negative, so also when jd is 0.  Otherwise this is
    :func:`refine.newton_line_search` from :func:`_envelope_start`, or
    from the Newton step at 0 when that is shorter (near a smoothed
    optimum; at a kink the curvature at 0 is 0 to rounding), and the
    (value, softmax) pair returned is that of the last probe, at c.  Each
    probe is one :func:`lse_eval`, ticked as ``line_search_evals``, whose
    softmax pi gives the slope s = pi.jd, the curvature
    f'' = (pi.jd^2 - s^2) / t, the third derivative
    f''' = (pi.jd^3 - 3 s pi.jd^2 + 2 s^3) / t^2 and the resolution
    ``LINE_SEARCH_ULPS * eps * max|z| / sqrt(pi.jd^2)``, the move that
    shifts the entries carrying the softmax weight by that many ulps.  The
    probe reports the curvature f'' times Halley's factor
    1 - s f''' / (2 f''^2) while that factor is above 1/2, and f'' itself
    otherwise, so the search's Newton step on the slope is Halley's step
    and never more than twice Newton's.
    """
    pi = at0[1]
    jd2 = jd * jd
    slope = float(pi @ jd)
    if not math.isfinite(slope):
        raise NonFiniteError("line-search slope not finite at step 0")
    if slope >= 0.0:
        return 0.0, at0
    resolution = LINE_SEARCH_ULPS * MACHINE_EPS * float(np.abs(z).max())
    curv = (float(pi @ jd2) - slope * slope) / t
    c = min(_envelope_start(z, jd, t),
            -slope / curv if curv > 0.0 else math.inf)
    jd3 = jd2 * jd
    point = np.empty_like(z)
    at_c = at0

    def probe(c):
        nonlocal at_c
        counter.step("line_search_evals")
        np.add(z, np.multiply(jd, c, out=point), out=point)
        at_c = lse_eval(point, t)
        pi = at_c[1]
        slope, spread = float(pi @ jd), float(pi @ jd2)
        var = spread - slope * slope
        factor = 1.0
        if var > 0.0:
            # Halley's s f''' / (2 f''^2) is s k3 / (2 var^2): t cancels
            k3 = float(pi @ jd3) - 3.0 * slope * spread + 2.0 * slope ** 3
            halley = 1.0 - 0.5 * (slope / var) * (k3 / var)
            if halley > 0.5:
                factor = halley
        # spread is 0 only where jd^2 underflows: nothing is resolved there
        return slope, var / t * factor, (
            resolution / math.sqrt(spread) if spread > 0.0 else math.inf)

    c = newton_line_search(probe, c)
    return c, at_c


def best_linf_bound(A: DenseMatrix, b: np.ndarray, x: np.ndarray,
                    counter: SolveCounter) -> float:
    """Strongest available minimax lower bound at the current iterate.

    Assembles dual candidates two ways: softmax weights of the stacked
    residuals at temperatures 0.3 and 0.1 times the max residual (lower
    ones never gave the best bound), and least-squares multipliers
    restricted to the top residual cluster (the near-active rows of an
    almost-optimal point), by one nnls per distinct cluster: the clusters
    shrink as the threshold tightens, so one that drops no row is the
    previous one and adds no column.  :func:`weak_duality_bound` projects
    each candidate once and charges it at the residual u = Ax - b, so the
    value returned is a valid weak-duality bound.  The solver calls it on
    the unit problem, whose residual is never zero.
    """
    u = A.a @ x - b
    mag = np.abs(u)
    hi = float(mag.max())
    n = A.n
    stacked = np.concatenate([u, -u])
    candidates = []
    for scale in (0.3, 0.1):
        _, pi = lse_eval(stacked, scale * hi)
        candidates.append(pi[:n] - pi[n:])
    signs = np.sign(u)
    size = -1
    for theta in CLUSTER_THETAS:
        idx = np.flatnonzero(mag >= (1.0 - theta) * hi)
        if idx.size == size:
            # The clusters are nested, so the same size is the same set.
            continue
        size = idx.size
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
    return weak_duality_bound(A, b, np.column_stack(candidates), 1.0, counter,
                              u)


def linf_regress(instance: ProblemInstance):
    """Minimax regression to (1+eps) relative accuracy, certified.

    Each bracket round smooths at a temperature tied to the current gap,
    max(eps lo, (hi - lo) / 8), so early rounds are not solved to the
    final accuracy, and takes Newton steps, each one Gram solve against
    A^T diag(dtil + NEWTON_DAMPING) A followed by the exact line search
    :func:`line_search_lse`.  The exact Hessian's Sherman-Morrison step
    lies along the same direction, so the line search alone fixes the step
    length: it starts next to the kink of the max envelope along the step
    and finishes by refine's safeguarded Newton search, on Halley-corrected
    curvatures, at the root's rounding resolution.  The bracket [lower
    bound, max residual] comes from the softmax dual candidates and drives
    both the temperature schedule and termination; a round that does not
    lower the max residual sharpens the temperature.  An exponent other
    than inf is invalid input.
    """
    if instance.p != math.inf:
        raise InvalidInputError("linf requires p = inf")

    def make_steps(unit):
        A, b, eps, n, counter = unit.A, unit.b, unit.eps, unit.A.n, unit.counter
        counter.step("newton_steps", 0)
        counter.step("line_search_evals", 0)
        t_shrink = 1.0

        def lower_bound(x):
            return best_linf_bound(A, b, x, counter)

        def descend(x, lo, hi):
            """Newton steps on lse_t at this round's temperature.

            Each step is one Gram solve and one :func:`line_search_lse`,
            which reuses the softmax at x for the slope at 0 and returns
            the soft maximum and softmax of its last probe.  That value
            is the descent test's, and that softmax the next step's: the
            probe's point z + c jd differs from the next z, formed from
            the recomputed residual, only by rounding.  So lse_eval runs
            outside the line search once per call, at the x passed in.
            """
            nonlocal t_shrink
            t = (t_shrink * max(eps * lo, (hi - lo) / 8.0)
                 / (SMOOTHING_DENOM * math.log(2 * n)))
            u = A.a @ x - b
            # (u, -u) and (A step, -A step), rewritten in place each step
            z, jd = np.empty(2 * n), np.empty(2 * n)
            z[:n] = u
            np.negative(u, out=z[n:])
            val, pi = lse_eval(z, t)
            for _ in range(MAX_NEWTON_STEPS):
                grad = A.a.T @ (pi[:n] - pi[n:])
                # The Hessian is A^T diag((pi+ + pi-)/t) A - grad grad^T / t;
                # its Newton step is a multiple of this one.
                dtil = (pi[:n] + pi[n:]) / t
                step = -gram_solve_multi(A, dtil + NEWTON_DAMPING, grad,
                                         counter=counter, phase="newton")
                counter.step("newton_steps")
                jd[:n] = A.a @ step
                np.negative(jd[:n], out=jd[n:])
                c, (val_c, pi_c) = line_search_lse(z, jd, t, (val, pi),
                                                   counter)
                if not val_c < val * (1.0 - 1e-15):
                    break
                x = x + c * step
                u = A.a @ x - b
                if float(np.abs(u).max()) <= (1.0 + eps / 4.0) * lo:
                    break
                z[:n] = u
                np.negative(u, out=z[n:])
                val, pi = val_c, pi_c
            if not float(np.abs(u).max()) < hi:
                # no lower max residual at this temperature: sharpen it
                # before giving up
                t_shrink *= 0.25
                if t_shrink < 1e-10:
                    return None
            return x

        return BracketSteps(lower_bound, descend)

    return certified_solve(instance, "linf", make_steps)
