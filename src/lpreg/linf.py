"""Approximate minimax regression through softmax smoothing.

The max-residual objective is replaced by a temperature-t soft maximum of
the stacked vector (Ax-b, -(Ax-b)); the smoothed function is minimized by
damped Newton steps measured in the weight-overestimate metric, whose
quasi-self-concordance keeps the Hessian trustworthy within a radius
proportional to t.  An l1-dual projection certifies the upper/lower
bracket, and the temperature is retuned as the bracket shrinks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, PotentialViolationError
from .lewis import LewisOverestimate, lewis_overestimates
from .linalg import DenseMatrix, SolveCounter, gram_solve_multi
from .problem import ProblemInstance
from .refine import BracketSteps, certified_solve, weak_duality_bound

SMOOTHING_DENOM = 20.0      # t = eps * opt_estimate / (20 log m)
TRUST_RADIUS_FRACTION = 0.5  # step radius r = t/2 in the weight metric
MAX_OUTER_ROUNDS = 200
MAX_NEWTON_STEPS = 400       # per outer round


@dataclass
class LseObjective:
    """Soft maximum of (Ax-b, -(Ax-b)) at temperature t."""

    A: DenseMatrix
    b: np.ndarray
    t: float

    def __post_init__(self):
        if self.t <= 0:
            raise InvalidInputError("temperature must be positive")
        self.b = np.asarray(self.b, dtype=float)

    def stacked(self, x: np.ndarray) -> np.ndarray:
        u = self.A.a @ x - self.b
        return np.concatenate([u, -u])

    def value_grad(self, x: np.ndarray):
        z = self.stacked(x)
        val, pi = lse_eval(z, self.t)
        n = self.A.n
        grad = self.A.a.T @ (pi[:n] - pi[n:])
        return val, grad, pi


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


def lse_quad_form(J: np.ndarray, pi: np.ndarray, t: float, v: np.ndarray) -> float:
    """v^T Hessian(lse_t o J) v = (1/t) (E_pi[(Jv)^2] - E_pi[Jv]^2)."""
    jv = J @ v
    mean = float(pi @ jv)
    return (float(pi @ (jv * jv)) - mean * mean) / t


def qsc_check(A: DenseMatrix, b: np.ndarray, w: LewisOverestimate,
              x: np.ndarray, t: float, directions: int = 100, seed=0):
    """Sampled smoothness and quasi-self-concordance in the weight metric.

    For random direction pairs (v, h) checks the Hessian quadratic form
    against (1/t) ||v||^2 and the finite-difference third derivative
    against (2/t) (v^T H v) ||h||, both measured in the A^T W A norm.
    Returns (worst smoothness ratio, worst third-order ratio).
    """
    obj = LseObjective(A, b, t)
    J = np.vstack([A.a, -A.a])
    wv = np.asarray(w.weights, dtype=float)
    rng = np.random.default_rng(seed)

    def metric_norm(v):
        av = A.a @ v
        return math.sqrt(float(av @ (wv * av)))

    def quad_at(xp, v):
        _, pi = lse_eval(obj.stacked(xp), t)
        return lse_quad_form(J, pi, t, v)

    worst_smooth = 0.0
    worst_qsc = 0.0
    for _ in range(directions):
        v = rng.standard_normal(A.d)
        h = rng.standard_normal(A.d)
        hn = metric_norm(h)
        if hn == 0:
            continue
        h = h / hn
        quad = quad_at(x, v)
        bound = metric_norm(v) ** 2 / t
        if bound > 0:
            worst_smooth = max(worst_smooth, quad / bound)
        step = 3e-4 * t
        third = (quad_at(x + step * h, v) - quad_at(x - step * h, v)) / (2 * step)
        qsc_bound = (2.0 / t) * quad
        if qsc_bound > 0:
            worst_qsc = max(worst_qsc, abs(third) / qsc_bound)
    return worst_smooth, worst_qsc


def best_linf_bound(A: DenseMatrix, b: np.ndarray, x: np.ndarray,
                    counter: SolveCounter | None = None) -> float:
    """Strongest available minimax lower bound at the current iterate.

    Assembles dual candidates two ways: softmax weights of the stacked
    residuals over a ladder of temperatures, and least-squares multipliers
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
    for scale in (0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4, 1e-4, 1e-5):
        _, pi = lse_eval(stacked, scale * hi)
        candidates.append(pi[:n] - pi[n:])
    signs = np.sign(u)
    from scipy.optimize import nnls
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

    Each bracket round smooths at a temperature tied to the current
    optimum estimate and runs metric-damped Newton steps with a trust
    radius of t/2.  The bracket [lower bound, max residual] comes from the
    softmax dual candidates and drives both the temperature schedule and
    termination; a round that cannot improve sharpens the temperature.
    """
    counter = counter if counter is not None else SolveCounter()

    def make_steps(unit):
        A, b, eps, n = unit.A, unit.b, unit.eps, unit.A.n
        wv = lewis_overestimates(A, math.inf).weights
        counts = {"newton_steps": 0}
        t_shrink = 1.0

        def metric_norm(v):
            av = A.a @ v
            return math.sqrt(float(av @ (wv * av)))

        def lower_bound(x):
            return best_linf_bound(A, b, x, counter)

        def descend(x, lo, hi):
            nonlocal t_shrink
            t = (t_shrink * eps * max(lo, hi / 2.0)
                 / (SMOOTHING_DENOM * math.log(2 * n)))
            obj = LseObjective(A, b, t)
            # Damping seeded so the first step lands near the stability
            # radius t/2; afterwards the Levenberg loop plus the line search
            # take over.
            lam = 1e-8
            improved = False
            for _ in range(MAX_NEWTON_STEPS):
                val, grad, pi = obj.value_grad(x)
                if float(np.linalg.norm(grad)) <= 1e-15:
                    break
                dtil = (pi[:n] + pi[n:]) / t
                step = None
                for _ in range(80):
                    # Hessian is A^T diag((pi+ + pi-)/t) A - grad grad^T / t;
                    # the rank-one part folds in by Sherman-Morrison.
                    sol = gram_solve_multi(A, dtil + lam * wv, grad,
                                           counter=counter, phase="newton")
                    denom = t - float(grad @ sol)
                    if denom <= 1e-14 * t:
                        lam *= 8.0
                        continue
                    cand = -sol * (t / denom)
                    radius = TRUST_RADIUS_FRACTION * t
                    if lam <= 1e-8 and metric_norm(cand) > 1e3 * radius:
                        # far outside the trust zone: damp before line-searching
                        lam = max(lam, 1e-6)
                        continue
                    step = cand
                    break
                if step is None:
                    break
                counts["newton_steps"] += 1
                new_val = obj.value_grad(x + step)[0]
                shrink = 0
                while new_val >= val and shrink < 50:
                    step *= 0.5
                    new_val = obj.value_grad(x + step)[0]
                    shrink += 1
                if new_val >= val:
                    if lam < 1e6:
                        lam *= 16.0
                        continue
                    break
                x = x + step
                lam = max(lam / 4.0, 1e-10)
                improved = True
                if float(np.max(np.abs(A.a @ x - b))) <= (1.0 + eps / 4.0) * lo:
                    break
            if not improved:
                # the smoothed problem is solved but the bracket is open:
                # sharpen the temperature before giving up
                t_shrink *= 0.25
                if t_shrink < 1e-10:
                    return None
            return x

        return BracketSteps(lower_bound, descend, counts)

    return certified_solve(instance, "linf", make_steps, counter=counter,
                           seed=seed, max_rounds=MAX_OUTER_ROUNDS)
