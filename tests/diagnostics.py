"""Numerical diagnostics that only the tests call.

Each one checks an inequality the solvers rely on (Hessian stability of
the proximal objective, uniform convexity of the p-th power, the scalar
refinement sandwich, the gamma-solver contract) from the outside, so the
solver modules carry no code that production never runs.
"""
import math
from dataclasses import dataclass

import numpy as np

from lpreg.linalg import DenseMatrix


def hessian_stability_check(y: np.ndarray, x: np.ndarray, prob,
                            samples: int = 200, seed=0) -> float:
    """Worst violation of the factor-e sandwich between the two Hessians.

    Samples quadratic forms of the regularized objective's Hessian at x
    against the surrogate centered at y; returns the largest of
    q_f / (e q_h) and q_h / (e q_f), which must stay at most 1 + 1e-8.
    ``prob`` is an ``accel.ProxProblem``.
    """
    p = prob.p
    A = prob.A.a
    rng = np.random.default_rng(seed)
    hess_x = p * (p - 1.0) * np.abs(A @ x - prob.b) ** (p - 2.0)
    hess_y = p * (p - 1.0) * np.abs(A @ y - prob.b) ** (p - 2.0)
    step = x - y
    dist = prob.m_norm(step)
    m_step = A.T @ (prob.m_diag * (A @ step)) if dist > 0 else None
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
