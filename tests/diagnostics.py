"""Numerical diagnostics and planted instances that only the tests use.

Each diagnostic checks an inequality the solvers rely on (Hessian
stability of the proximal objective and its gradient, uniform convexity of the p-th power,
the scalar refinement sandwich, the gamma-solver contract, the weighted
norm sandwich, the self-consistency of row weights) from the outside, so
the solver modules carry no code that production never runs.
:func:`reference_linf_bound` is ``best_linf_bound`` without its reuse of
equal clusters, the reference the reuse is checked against, and
:func:`reference_log_gap` is ``accel``'s step-scale probe as it was before
its denominator was shared, the reference the probe is checked against.  The
planted generators build oracle inputs around a known feasible point, and
:func:`solve_counters` shows a test the counter each solve creates.
"""
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import nnls

from lpreg import accel, refine
from lpreg.dual import DualInstance, stack_instance
from lpreg.errors import (
    BisectionStallError,
    InvalidInputError,
    NoConvergenceError,
)
from lpreg.lewis import (
    WEIGHT_FLOOR,
    LewisOverestimate,
    RegularizedLewisWeights,
    half_minus_inv,
    row_scale,
)
from lpreg.linalg import DenseMatrix, SolveCounter, leverage_scores
from lpreg.linf import CLUSTER_THETAS, lse_eval
from lpreg.mwu import ResidualInstance
from lpreg.problem import ProblemInstance, pnorm


def solve_counters(monkeypatch) -> list:
    """The SolveCounter of every certified solve run after this call."""
    made = []

    def make():
        made.append(SolveCounter())
        return made[-1]

    monkeypatch.setattr(refine, "SolveCounter", make)
    return made


def exact_residual_lp(inst: ProblemInstance, x: np.ndarray) -> float:
    """||A x - b||_p with each entry of A x - b exact, rounded once.

    Rows are summed in rationals, so a large ||x|| costs no cancellation;
    only the p-norm of the rounded entries is taken in float.
    """
    xs = [Fraction(v) for v in x]
    u = [float(sum(Fraction(a) * v for a, v in zip(row, xs)) - Fraction(bi))
         for row, bi in zip(inst.A.a, inst.b)]
    return pnorm(np.array(u), inst.p)


def exact_leverage_scores(a: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Leverage scores of diag(scale) a in rationals, each rounded once.

    The Gram matrix of the scaled rows is inverted by exact Gauss-Jordan
    elimination, so the reference carries no rounding of its own; it is
    meant for a handful of columns.
    """
    rows = [[Fraction(float(s)) * Fraction(float(v)) for v in row]
            for row, s in zip(a, scale)]
    d = len(rows[0])
    gram = [[sum(r[j] * r[k] for r in rows) for k in range(d)]
            for j in range(d)]
    inv = [[Fraction(int(j == k)) for k in range(d)] for j in range(d)]
    for c in range(d):
        piv = next(r for r in range(c, d) if gram[r][c] != 0)
        gram[c], gram[piv] = gram[piv], gram[c]
        inv[c], inv[piv] = inv[piv], inv[c]
        top = gram[c][c]
        gram[c] = [v / top for v in gram[c]]
        inv[c] = [v / top for v in inv[c]]
        for r in range(d):
            f = gram[r][c]
            if r != c and f != 0:
                gram[r] = [u - f * v for u, v in zip(gram[r], gram[c])]
                inv[r] = [u - f * v for u, v in zip(inv[r], inv[c])]
    return np.array([float(sum(r[j] * inv[j][k] * r[k]
                               for j in range(d) for k in range(d)))
                     for r in rows])


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


def prox_f(prob, x: np.ndarray) -> float:
    """f(x) = ||Ax - b||_p^p of an ``accel.ProxProblem``."""
    with np.errstate(over="ignore"):
        return float(np.sum(np.abs(prob.A.a @ x - prob.b) ** prob.p))


def prox_f_reg(prob, x: np.ndarray) -> float:
    """The proximal objective f(x) + C_p ||x - center||_M^p at x."""
    return prob.evaluate(prob.A.a @ (x - prob.center)).f_reg


def prox_grad_f_reg(prob, x: np.ndarray, basis=None) -> np.ndarray:
    """The gradient of :func:`prox_f_reg` at x, A^T (p |u|^{p-2} u + r M s).

    Here s = A (x - center), u = A x - b is formed as (A center - b) + s,
    as :meth:`ProxProblem.evaluate` forms it, and r = p C_p
    ||x - center||_M^{p-2}.  Given ``basis`` = A T, it returns T^T times
    the gradient instead.
    """
    a, p = prob.A.a, prob.p
    s = a @ (x - prob.center)
    u = prob.u_center + s
    ms = prob.m_diag * s
    r = p * prob.cp * prob.m_norm(x - prob.center) ** (p - 2.0)
    basis = a if basis is None else basis
    return basis.T @ (p * np.abs(u) ** (p - 2.0) * u + r * ms)


def reference_log_gap(pencil, w: np.ndarray, z_exp: int, expo: float,
                      tau: float):
    """``accel._log_gap`` from the coordinates w = z_unit / (8 lam + c tau).

    It forms 8 lam + c tau again, through ``pencil.scaled``, for the
    slope's v = w c tau / (8 lam + c tau), and c tau three times.
    """
    c = pencil.c
    s_unit = float(w @ w) if c * tau >= accel.SQUARE_SAFE else math.inf
    s_exp = z_exp
    if not 0.0 < s_unit < math.inf:
        w_exp = math.frexp(float(abs(w).max()))[1]
        w = np.ldexp(w, -w_exp)
        s_unit, s_exp = float(w @ w), z_exp + w_exp
    lhs = accel.fpow(tau, expo)
    if not (math.isfinite(lhs) and 0.0 < s_unit < math.inf):
        raise BisectionStallError(f"step-scale gap not finite at tau {tau:.3g}")
    if lhs > 0.0:
        m_l, e_l = math.frexp(lhs)
        m_s, e_s = math.frexp(s_unit)
        value = math.log(m_l / m_s) + (e_l - e_s - 2 * s_exp) * accel.LN2
    else:
        value = expo * math.log(tau) - math.log(s_unit) - 2 * s_exp * accel.LN2
    v = w * pencil.scaled(c * tau, tau)
    g = 2.0 * float(w @ v) / s_unit
    return value, expo + g, g - 6.0 * float(v @ v) / s_unit + g * g


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


def norm_sandwich_check(A: DenseMatrix, w: LewisOverestimate, x: np.ndarray):
    """Evaluate the three norms of the weighted sandwich at x.

    Returns (lp, weighted_l2, upper) where lp = ||Ax||_p, weighted_l2 is
    the W^{1/2-1/p}-reweighted Euclidean norm, and upper is the Holder
    bound mass^{1/2-1/p} ||Ax||_p.  The caller asserts
    lp <= weighted_l2 <= upper.
    """
    p = w.p
    ax = A.a @ np.asarray(x, dtype=float)
    if p == math.inf:
        lp = float(np.max(np.abs(ax)))
    else:
        lp = float(np.linalg.norm(ax, p))
    expo = half_minus_inv(p)
    wf = np.maximum(w.weights, WEIGHT_FLOOR)
    weighted = float(np.linalg.norm((wf ** expo) * ax))
    upper = float(w.mass ** expo * lp)
    return lp, weighted, upper


def reference_linf_bound(A: DenseMatrix, b: np.ndarray, x: np.ndarray,
                         counter: SolveCounter) -> float:
    """``linf.best_linf_bound`` with one nnls for every theta.

    The same softmax and cluster candidates, in the same order, with nnls
    run afresh on every cluster even where it repeats the previous one.
    """
    u = A.a @ x - b
    hi = float(np.max(np.abs(u)))
    n = A.n
    stacked = np.concatenate([u, -u])
    candidates = []
    for scale in (0.3, 0.1):
        _, pi = lse_eval(stacked, scale * hi)
        candidates.append(pi[:n] - pi[n:])
    signs = np.sign(u)
    for theta in CLUSTER_THETAS:
        idx = np.flatnonzero(np.abs(u) >= (1.0 - theta) * hi)
        rows = (A.a[idx] * signs[idx][:, None]).T
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
    return refine.weak_duality_bound(A, b, np.column_stack(candidates), 1.0,
                                     counter)


def reg_lewis_residual(A: DenseMatrix, rw: RegularizedLewisWeights):
    """Self-consistency of returned weights against the fixed-point map.

    Returns (max_rel_residual, ratio_lo, ratio_hi) where the residual is
    max_i |w_i - sigma_i| / (w_i + c_i) and the ratios compare
    sigma_i + c_i against w_i + c_i.
    """
    w, c, q = rw.weights, rw.regularizer, rw.q
    sig = leverage_scores(A, row_scale(c + w, 0.5 - 1.0 / q))
    denom = np.maximum(w + c, WEIGHT_FLOOR)
    rel = float(np.max(np.abs(w - sig) / denom))
    ratio = (sig + c) / denom
    return rel, float(np.min(ratio)), float(np.max(ratio))


def exact_lewis_oracle(A: DenseMatrix, p: float, tol: float = 1e-10,
                       max_iter: int = 10000) -> np.ndarray:
    """Fixed point of w_i = sigma(W^{1/2-1/p} A)_i, for 2 <= p < 4.

    Test-only oracle: iterates w <- (a_i^T (A^T W^{1-2/p} A)^{-1} a_i)^{p/2}
    until the self-consistency residual drops below tol.  The map is also
    contractive for p in (1, 2), which the q-side tests rely on.
    """
    if not 1 < p < 4:
        raise InvalidInputError("fixed-point oracle requires p in (1, 4)")
    n = A.n
    w = leverage_scores(A)
    for _ in range(max_iter):
        sig = leverage_scores(A, row_scale(w, half_minus_inv(p)))
        wf = np.maximum(w, WEIGHT_FLOOR)
        # sigma_i = w_i^{1-2/p} * quad_i, so quad_i^{p/2} = (sigma_i * w_i^{2/p-1})^{p/2}
        nxt = (sig * wf ** (2.0 / p - 1.0)) ** (p / 2.0)
        if float(np.max(np.abs(w - sig))) <= tol:
            return w
        w = nxt
    raise NoConvergenceError(f"no fixed point after {max_iter} iterations")


def lewis_residual(A: DenseMatrix, w: np.ndarray, p: float) -> float:
    """sup-norm self-consistency residual of w against the fixed-point map."""
    sig = leverage_scores(A, row_scale(w, half_minus_inv(p)))
    return float(np.max(np.abs(w - sig)))


def plant_residual_instance(n: int, d: int, p: float, seed: int,
                            r_scale: float = 1.0) -> ResidualInstance:
    """Scaled residual instance around a planted feasible point.

    The point x has g^T x = -1 and both ||Ax||_p and the quadratic
    x^T A^T R A x just below 1, so the instance meets the existence
    assumption of the width-reduction oracle.
    """
    rng = np.random.default_rng([91, n, d, int(seed)])
    A = DenseMatrix(rng.standard_normal((n, d)))
    r = r_scale * rng.uniform(0.0, 1.0, size=n)
    x = rng.standard_normal(d)
    ax = A.a @ x
    scale = max(pnorm(ax, p), math.sqrt(float(ax @ (r * ax))))
    x = x / (scale * 1.0000001)
    g = -x / float(x @ x)
    return ResidualInstance(A, g, r, p)


def plant_dual_instance(n: int, d: int, q: float, seed: int) -> DualInstance:
    """Stacked dual instance around a planted feasible point x.

    The b column leans toward x's norm-dual direction, which pins every
    feasible point's p-norm near one and keeps the instance in the
    unit-scaled regime the single-shot solver is analyzed in.
    """
    p = q / (q - 1.0)
    rng = np.random.default_rng([17, n, d, int(seed)])
    A = DenseMatrix(rng.standard_normal((n, d)))
    x = rng.standard_normal(n)
    x = x - A.a @ np.linalg.lstsq(A.a, x, rcond=None)[0]
    x = x / (pnorm(x, p) * 1.0000001)
    align = np.sign(x) * np.abs(x) ** (p - 1.0)
    noise = rng.standard_normal(n)
    b = align / max(pnorm(align, p / (p - 1.0)), 1e-300) \
        + 0.05 * noise / max(np.linalg.norm(noise), 1e-300)
    b = b / float(b @ x)
    g = rng.standard_normal(n)
    g = g - ((g @ x) + 1.0) / float(x @ x) * x
    r = rng.uniform(0.0, 1.0, size=n)
    quad = float(x @ (r * x))
    if quad > 0:
        r = r / (quad * 1.0000001)
    return stack_instance(A, b, g, r, p)


def gamma_value(p: float) -> float:
    """Approximation factor certified by the width-reduction solver."""
    return (80.0 * p) ** p


def dual_gamma_value(p: float, m: int) -> float:
    """Approximation factor of the stacked single-shot dual oracle."""
    return 4.0 * m ** ((p - 2.0) / (2.0 * p - 2.0))
