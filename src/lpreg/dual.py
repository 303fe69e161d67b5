"""lq regression for q in (1, 2] through the dual norm problem.

The primal optimum equals the reciprocal of the minimum dual-norm point
satisfying two linear constraints, so the solver refines a feasible dual
iterate with single-shot reweighted quadratic steps, recovers a primal
candidate by a least-squares projection, and stops when the primal-dual
product certifies (1+eps) accuracy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InvalidInputError, PotentialViolationError
from .lewis import WEIGHT_FLOOR, reg_lewis
from .linalg import DenseMatrix, SolveCounter, gram_solve_multi
from .problem import ProblemInstance, pnorm
from .refine import BracketSteps, certified_solve, line_search_lp, refinement_round

DUAL_QUAD_BOUND = 6.0              # proof value 3, slack 2
MAX_DUAL_ROUNDS = 400
RECOVER_POLISH_STEPS = 12          # reweighted least-squares polish steps


def dual_exponent(q: float) -> float:
    if not 1 < q <= 2:
        raise InvalidInputError("dual path requires q in (1, 2]")
    return q / (q - 1.0)


@dataclass
class DualInstance:
    """Constrained reweighted problem on the stacked matrix U = [A b g]."""

    U: DenseMatrix
    v: np.ndarray
    R: np.ndarray
    p: float
    witness: np.ndarray | None = None

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        if self.v.shape != (self.U.d,):
            raise InvalidInputError("v must match the stacked column count")
        if self.p < 2:
            raise InvalidInputError("stacked solver runs at p >= 2")


def stack_instance(A: DenseMatrix, b: np.ndarray, g: np.ndarray,
                   R: np.ndarray, p: float,
                   witness: np.ndarray | None = None) -> DualInstance:
    """Canonical stacking with right-hand side (0, ..., 0, 1, -1)."""
    U = DenseMatrix(np.column_stack([A.a, b, g]))
    v = np.zeros(U.d)
    v[-2], v[-1] = 1.0, -1.0
    return DualInstance(U, v, R, p, witness=witness)


def dual_reduce(A: DenseMatrix, b: np.ndarray, q: float):
    """Describe min ||y||_p over A^T y = 0, b^T y = 1 with p = q/(q-1).

    Returns (p, y0) where y0 is the minimum-Euclidean-norm feasible point,
    or raises InfeasibleError when b lies in the column space of A (the
    primal residual is then zero).  :func:`solve_lq` needs no such fit:
    it receives b already shifted (see :func:`certified_solve`).
    """
    p = dual_exponent(q)
    b = np.asarray(b, dtype=float)
    resid = b - A.a @ np.linalg.lstsq(A.a, b, rcond=None)[0]
    denom = float(b @ resid)
    if not denom > (1e-14 * float(np.linalg.norm(b))) ** 2:
        raise InfeasibleError("b lies in the column space of A")
    return p, resid / denom


def min_quadratic_on_affine(U: DenseMatrix, v: np.ndarray, diag: np.ndarray,
                            counter: SolveCounter | None = None,
                            phase: str | None = None) -> np.ndarray:
    """argmin x^T diag(d) x subject to U^T x = v.

    The normal matrix U^T D^{-1} U is never formed whole: its leading
    block is handled by Gram solves against the first d columns and the
    trailing two columns are folded in through a 2x2 Schur complement.
    """
    n, m = U.n, U.d
    w = 1.0 / np.maximum(diag, 1e-300)
    lead = DenseMatrix.trusted(U.a[:, :m - 2])
    tail = U.a[:, m - 2:]
    F = lead.a.T @ (w[:, None] * tail)                     # (m-2) x 2
    H = tail.T @ (w[:, None] * tail)                       # 2 x 2
    rhs = np.column_stack([F, v[:m - 2]])
    sol = gram_solve_multi(lead, w, rhs, counter=counter, phase=phase)
    GinvF, Ginv_vA = sol[:, :2], sol[:, 2]
    schur = H - F.T @ GinvF
    mu_tail = np.linalg.solve(schur, v[m - 2:] - F.T @ Ginv_vA)
    mu_lead = Ginv_vA - GinvF @ mu_tail
    mu = np.concatenate([mu_lead, mu_tail])
    x = w * (U.a @ mu)
    # Euclidean projection onto the constraint set kills fp drift without
    # touching the quadratic value beyond the solve error itself.
    gram_u = U.a.T @ U.a
    for _ in range(2):
        x = x + U.a @ np.linalg.solve(gram_u, v - U.a.T @ x)
    return x


def oracle_small(inst: DualInstance,
                 counter: SolveCounter | None = None) -> np.ndarray:
    """Single-shot feasible point with small reweighted quadratic and p-norm.

    Computes regularized weights for the stacked matrix and returns the
    minimizer of the corresponding quadratic over the constraints.  With a
    witness attached, the feasibility and size postconditions are asserted.
    """
    U, v, p = inst.U, inst.v, inst.p
    n, m = U.n, U.d
    r = inst.R
    if p == 2.0:
        # The weight block degenerates to the identity.
        diag = r + 1.0
    else:
        # Huge regularizers carry no information beyond "row is resistance
        # dominated"; cap them well inside the floating-point range.
        c = np.minimum(m * np.maximum(r, 0.0) ** (p / (p - 2.0)), 1e150)
        q = p / (p - 1.0)
        what = reg_lewis(U, c, q).weights
        diag = m ** (1.0 - 2.0 / p) * r + np.maximum(what, WEIGHT_FLOOR) ** (
            1.0 - 2.0 / p)
    y = min_quadratic_on_affine(U, v, diag, counter=counter, phase="oracle_small")

    feas = float(np.max(np.abs(U.a.T @ y - v)))
    if feas > 1e-9 * max(1.0, float(np.max(np.abs(v)))):
        raise PotentialViolationError(f"constraint residual {feas:.3g}")
    if inst.witness is not None:
        quad = float(y @ (r * y))
        pn = float(np.sum(np.abs(y) ** p))
        if quad > DUAL_QUAD_BOUND * (1 + 1e-9):
            raise PotentialViolationError(f"quadratic bound broken: {quad:.4g}")
        if pn > 2.0 * 4.0 ** p * m ** ((p - 2.0) / 2.0) * (1 + 1e-9):
            raise PotentialViolationError(f"norm bound broken: {pn:.4g}")
    return y


def dual_gamma_value(p: float, m: int) -> float:
    return 4.0 * m ** ((p - 2.0) / (2.0 * p - 2.0))


def primal_recover(A: DenseMatrix, b: np.ndarray, y_dual: np.ndarray,
                   p: float, counter: SolveCounter | None = None) -> np.ndarray:
    """Primal point from a near-optimal dual iterate.

    Shifts b along sign(y)|y|^{p-2} and least-squares projects, choosing
    the shift of either sign that minimizes the q-norm residual by
    :func:`line_search_lp`.  The result is then polished by a few
    reweighted least-squares steps, which squeezes out the first-order
    error the projection inherits from the dual iterate.
    """
    q = p / (p - 1.0)
    y = np.asarray(y_dual, dtype=float)
    s = np.sign(y) * np.abs(y) ** (p - 2.0)
    sol = gram_solve_multi(A, np.ones(A.n),
                           np.column_stack([A.a.T @ b, A.a.T @ s]),
                           counter=counter, phase="recover")
    e0 = A.a @ sol[:, 0] - b
    e1 = A.a @ sol[:, 1]

    lam = line_search_lp(e0, e1, q)[0]
    if lam == 0.0:
        lam = -line_search_lp(e0, -e1, q)[0]
    x_hat = sol[:, 0] + lam * sol[:, 1]

    for _ in range(RECOVER_POLISH_STEPS):
        u = A.a @ x_hat - b
        cur = pnorm(u, q)
        if cur == 0.0:
            break
        floor = 1e-12 * float(np.max(np.abs(u)))
        wts = np.maximum(np.abs(u), floor) ** (q - 2.0)
        x_ls = gram_solve_multi(A, wts, A.a.T @ (wts * b),
                                counter=counter, phase="recover")
        c_step, _ = line_search_lp(u, A.a @ (x_ls - x_hat), q)
        x_new = x_hat + c_step * (x_ls - x_hat)
        if pnorm(A.a @ x_new - b, q) >= cur * (1.0 - 1e-14):
            break
        x_hat = x_new
    return x_hat


class DualStepOracle:
    """Adapter running the stacked single-shot solver for refinement steps.

    Produces an absolute feasible point whose increment from the current
    iterate satisfies the residual-step contract; inputs are rescaled so
    the standard existence hypothesis can hold, and the progress column is
    orthogonalized against [A b] to keep the stack well conditioned.
    """

    def __init__(self, A: DenseMatrix, b: np.ndarray, p: float,
                 counter: SolveCounter | None = None):
        self.A, self.b, self.p = A, np.asarray(b, dtype=float), p
        self.counter = counter if counter is not None else SolveCounter()
        self.gamma = dual_gamma_value(p, A.d + 2)
        self._Mb = np.column_stack([A.a, self.b])
        self._gram_Mb = self._Mb.T @ self._Mb

    def orthogonalized_direction(self, g: np.ndarray):
        coef = np.linalg.solve(self._gram_Mb, self._Mb.T @ g)
        g_perp = g - self._Mb @ coef
        return g_perp, float(coef[-1])

    def __call__(self, nu: float, g: np.ndarray, R: np.ndarray,
                 y_cur: np.ndarray):
        if nu <= 0:
            raise InvalidInputError("nu must be positive")
        p = self.p
        g_perp, b_coef = self.orthogonalized_direction(g)
        beta = float(g @ y_cur) - nu
        beta_perp = beta - b_coef
        scale_g = np.linalg.norm(g_perp)
        if scale_g <= 1e-14 * max(np.linalg.norm(g), 1.0) or beta_perp == 0.0:
            raise InfeasibleError("progress constraint is degenerate here")
        sigma = 2.0 * max(pnorm(y_cur, p), 1e-300)
        ghat = -sigma * g_perp / beta_perp
        rhat = R * (p / (8.0 * nu)) * sigma ** 2
        inst = stack_instance(self.A, sigma * self.b, ghat, rhat, p)
        y_scaled = oracle_small(inst, counter=self.counter)
        return sigma * y_scaled


def solve_lq(instance: ProblemInstance, seed=0,
             counter: SolveCounter | None = None):
    """Full lq regression solve for q in (1, 2] with certified accuracy.

    The bracket's lower bound is 1/||y||_p at the dual iterate y; each step
    recovers a primal point from y and then advances y by one
    :func:`refinement_round` on ||y||_p^p, whose proposals are the
    reweighted oracle's points.
    """
    q = instance.p
    p = dual_exponent(q)
    counter = counter if counter is not None else SolveCounter()

    def make_steps(unit):
        A, b, d = unit.A, unit.b, unit.A.d
        counts = {"oracle_calls": 0, "accepted_steps": 0}
        # b is a unit vector orthogonal to range(A), so it is already the
        # minimum-norm point of A^T y = 0, b^T y = 1.
        y = b / float(b @ b)
        oracle = DualStepOracle(A, b, p, counter=counter)
        recovered, nu_prev = False, None

        def lower_bound(x):
            return 1.0 / pnorm(y, p)

        def advance(hi):
            nonlocal y, nu_prev

            def propose(nu, g, R):
                z = oracle(nu, g, R, y)
                return z - y, z - y

            out = refinement_round(y, p, hi ** -p, nu_prev, propose, counts,
                                   "oracle_calls")
            if out is None:
                return False
            c_star, direction, nu_prev = out
            y = y + c_star * direction
            # kill constraint drift
            coef = np.linalg.solve(
                oracle._gram_Mb,
                oracle._Mb.T @ y - np.append(np.zeros(d), 1.0))
            y = y - oracle._Mb @ coef
            return True

        def step(x, lo, hi):
            nonlocal recovered
            if recovered and not advance(hi):
                return None
            recovered = True
            x_hat = primal_recover(A, b, y, p, counter=counter)
            return x_hat if pnorm(A.a @ x_hat - b, q) < hi else x

        return BracketSteps(lower_bound, step, counts)

    return certified_solve(instance, "dual", make_steps, counter=counter,
                           seed=seed, max_rounds=MAX_DUAL_ROUNDS)
