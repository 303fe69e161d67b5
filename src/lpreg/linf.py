"""Approximate minimax regression through softmax smoothing.

The max-residual objective is replaced by a temperature-t soft maximum of
the stacked vector (Ax-b, -(Ax-b)); the smoothed function is minimized by
Newton steps with an exact line search.  An l1-dual projection certifies
the upper/lower bracket, and the temperature is retuned as the bracket
shrinks.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import nnls

from .errors import InvalidInputError, PotentialViolationError
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


def _lse_slope(c: float, z: np.ndarray, jd: np.ndarray, t: float) -> float:
    """d/dc lse_t(z + c jd): the softmax-weighted mean of jd."""
    _, pi = lse_eval(z + c * jd, t)
    return float(pi @ jd)


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
    A^T diag(dtil + NEWTON_DAMPING) A followed by an exact line search.
    The exact Hessian's Sherman-Morrison step lies along the same
    direction, so the line search alone fixes the step length.  The
    bracket [lower bound, max residual] comes from the softmax dual
    candidates and drives both the temperature schedule and termination;
    a round that does not lower the max residual sharpens the temperature.
    An exponent other than inf is invalid input.
    """
    if instance.p != math.inf:
        raise InvalidInputError("linf requires p = inf")
    counter = counter if counter is not None else SolveCounter()

    def make_steps(unit):
        A, b, eps, n = unit.A, unit.b, unit.eps, unit.A.n
        counter.step("newton_steps", 0)
        t_shrink = 1.0

        def lower_bound(x):
            return best_linf_bound(A, b, x, counter)

        def descend(x, lo, hi):
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
                c = convex_line_search(_lse_slope, (z, jd, t))
                if not lse_eval(z + c * jd, t)[0] < val * (1.0 - 1e-15):
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
