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
from scipy.linalg import solve_triangular

from .errors import (InfeasibleError, InvalidInputError,
                     PotentialViolationError, SingularGramError)
from .lewis import WEIGHT_FLOOR, reg_lewis
from .linalg import DenseMatrix, SolveCounter, gram_solve_multi
from .problem import ProblemInstance, pnorm
from .refine import (ROUNDING_PER_ENTRY, BracketSteps, certified_solve,
                     line_search_lp, lp_dual_bound, refinement_round)

RECOVER_POLISH_STEPS = 12          # reweighted least-squares polish steps


def dual_exponent(q: float) -> float:
    if not 1 < q <= 2:
        raise InvalidInputError("dual path requires q in (1, 2]")
    return q / (q - 1.0)


@dataclass
class DualInstance:
    """Constrained reweighted problem on U = [A b g]; A's QR serves its solves."""

    A: DenseMatrix
    U: DenseMatrix
    v: np.ndarray
    R: np.ndarray
    p: float


def stack_instance(A: DenseMatrix, b: np.ndarray, g: np.ndarray,
                   R: np.ndarray, p: float) -> DualInstance:
    """Canonical stacking with right-hand side (0, ..., 0, 1, -1).

    The stack is trusted: its caller passes a b outside the range of A
    and a g outside the range of [A b]; a non-finite g surfaces as
    NonFiniteError from the first Gram solve.  U carries the basis
    [Q_A, b/||b||, g/||g||] of its range, so its leverage scores take no
    QR of U; the basis is orthonormal when b is orthogonal to range(A)
    and g to range([A b]), as :func:`dual_step` makes them.
    """
    basis = np.column_stack([A.basis, b / np.linalg.norm(b),
                             g / np.linalg.norm(g)])
    U = DenseMatrix.trusted(np.column_stack([A.a, b, g]), basis)
    v = np.zeros(U.d)
    v[-2], v[-1] = 1.0, -1.0
    return DualInstance(A, U, v, R, p)


def min_quadratic_on_affine(A: DenseMatrix, U: DenseMatrix, v: np.ndarray,
                            diag: np.ndarray, counter: SolveCounter,
                            phase: str) -> np.ndarray:
    """argmin x^T diag(d) x subject to U^T x = v, for U = [A, two columns].

    v is 0 on A's block, as :func:`stack_instance` builds it.  The normal
    matrix U^T D^{-1} U is never formed whole: its leading block is
    handled by Gram solves against A and the trailing two columns are
    folded in through a 2x2 Schur complement.  A singular Schur complement
    or U^T U, or multipliers that overflow, raise SingularGramError.
    """
    m = U.d
    w = 1.0 / np.maximum(diag, 1e-300)
    tail = U.a[:, m - 2:]
    F = A.a.T @ (w[:, None] * tail)                        # (m-2) x 2
    H = tail.T @ (w[:, None] * tail)                       # 2 x 2
    GinvF = gram_solve_multi(A, w, F, counter=counter, phase=phase)
    mu_tail = _solve_stacked(H - F.T @ GinvF, v[m - 2:])
    with np.errstate(over="ignore", invalid="ignore"):
        mu = np.concatenate([-(GinvF @ mu_tail), mu_tail])
    if not np.isfinite(mu).all():
        raise SingularGramError("stacked matrix is singular")
    x = w * (U.a @ mu)
    # Euclidean projection onto the constraint set kills fp drift without
    # touching the quadratic value beyond the solve error itself.
    gram_u = U.a.T @ U.a
    for _ in range(2):
        x = x + U.a @ _solve_stacked(gram_u, v - U.a.T @ x)
    return x


def _solve_stacked(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.solve, with a singular M raised as SingularGramError."""
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularGramError("stacked matrix is singular") from exc


def oracle_small(inst: DualInstance, counter: SolveCounter) -> np.ndarray:
    """Single-shot feasible point with small reweighted quadratic and p-norm.

    Computes regularized weights for the stacked matrix and returns the
    minimizer of the corresponding quadratic over the constraints, whose
    feasibility is asserted.
    """
    U, v, p, r = inst.U, inst.v, inst.p, inst.R
    m = U.d
    # Huge regularizers carry no information beyond "row is resistance
    # dominated"; cap them well inside the floating-point range.
    with np.errstate(over="ignore"):
        c = np.minimum(m * np.maximum(r, 0.0) ** (p / (p - 2.0)), 1e150)
    what = reg_lewis(U, c, p / (p - 1.0)).weights
    diag = m ** (1.0 - 2.0 / p) * r + np.maximum(what, WEIGHT_FLOOR) ** (
        1.0 - 2.0 / p)
    y = min_quadratic_on_affine(inst.A, U, v, diag, counter, "oracle_small")

    feas = float(np.max(np.abs(U.a.T @ y - v)))
    if feas > 1e-9 * max(1.0, float(np.max(np.abs(v)))):
        raise PotentialViolationError(f"constraint residual {feas:.3g}")
    return y


def primal_recover(A: DenseMatrix, b: np.ndarray, y_dual: np.ndarray,
                   p: float, counter: SolveCounter,
                   incumbent: tuple | None = None) -> np.ndarray:
    """Primal point from a near-optimal dual iterate.

    Shifts b along sign(y)|y|^{p-2} and least-squares projects by A's QR,
    choosing the shift of either sign that minimizes the q-norm residual by
    :func:`line_search_lp`.  That fit is then polished by a few reweighted
    least-squares steps, which squeeze out the first-order error the
    projection inherits from the dual iterate.  ``incumbent`` is an
    (x, ||Ax - b||_q) pair: when its residual is strictly below the fit's,
    the polish starts from x instead (one ``warm_recoveries`` step), so the
    result is never above the incumbent.  The solver calls it on the unit
    problem, whose residual is never zero.
    """
    q = p / (p - 1.0)
    y = np.asarray(y_dual, dtype=float)
    s = np.sign(y) * np.abs(y) ** (p - 2.0)
    Q, R = A.qr
    sol = solve_triangular(R, Q.T @ np.column_stack([b, s]), check_finite=False)
    counter.tick(2, "recover")
    e0 = A.a @ sol[:, 0] - b
    e1 = A.a @ sol[:, 1]

    lam = line_search_lp(e0, e1, q)[0]
    if lam == 0.0:
        lam = -line_search_lp(e0, -e1, q)[0]
    x_hat = sol[:, 0] + lam * sol[:, 1]
    u = A.a @ x_hat - b
    cur = pnorm(u, q)
    if incumbent is not None and incumbent[1] < cur:
        x_hat, cur = incumbent
        u = A.a @ x_hat - b
        counter.step("warm_recoveries")

    for _ in range(RECOVER_POLISH_STEPS):
        floor = 1e-12 * float(np.max(np.abs(u)))
        wts = np.maximum(np.abs(u), floor) ** (q - 2.0)
        x_ls = gram_solve_multi(A, wts, A.a.T @ (wts * b),
                                counter=counter, phase="recover")
        c_step, _ = line_search_lp(u, A.a @ (x_ls - x_hat), q)
        x_new = x_hat + c_step * (x_ls - x_hat)
        u_new = A.a @ x_new - b
        value = pnorm(u_new, q)
        if value >= cur * (1.0 - 1e-14):
            break
        x_hat, u, cur = x_new, u_new, value
    return x_hat


def dual_step(A: DenseMatrix, b: np.ndarray, p: float, y: np.ndarray,
              nu: float, g: np.ndarray, R: np.ndarray,
              counter: SolveCounter) -> np.ndarray:
    """The stacked single-shot solver's point for one refinement proposal.

    Returns an absolute feasible point whose increment from the current
    iterate y satisfies the residual-step contract; inputs are rescaled so
    the standard existence hypothesis can hold, and the progress column is
    orthogonalized against A and the unit b, which is orthogonal to range(A).
    """
    g_a = A.project_out(g)
    b_coef = float(b @ g_a)
    g_perp = g_a - b_coef * b
    beta = float(g @ y) - nu
    beta_perp = beta - b_coef
    scale_g = np.linalg.norm(g_perp)
    if scale_g <= 1e-14 * max(np.linalg.norm(g), 1.0) or beta_perp == 0.0:
        raise InfeasibleError("progress constraint is degenerate here")
    sigma = 2.0 * max(pnorm(y, p), 1e-300)
    ghat = -sigma * g_perp / beta_perp
    rhat = R * (p / (8.0 * nu)) * sigma ** 2
    inst = stack_instance(A, sigma * b, ghat, rhat, p)
    return sigma * oracle_small(inst, counter=counter)


def solve_lq(instance: ProblemInstance):
    """Full lq regression solve for q in (1, 2] with certified accuracy.

    The bracket's lower bound is weak duality at the dual iterate y and
    the incumbent x, -(Ax - b)^T y / ||y||_p: that is 1/||y||_p when
    A^T y = 0 and b^T y = 1 hold exactly, and it also charges the
    rounding drift x^T A^T y that 1/||y||_p leaves out, with the same
    rounded residual that ``hi`` is measured on.  The first step recovers
    a primal point from y; each later one advances y by one
    :func:`refinement_round` on ||y||_p^p down to hi^-p, with nu from that
    round's own gap, whose proposals are the reweighted oracle's points,
    and recovers again unless the incumbent is
    within eps/4 of its own weak-duality bound (:func:`lp_dual_bound`, one
    ``certificate`` solve; it never enters the bracket), when only y can
    close the gap.  The skip is off while eps/4 is within the driver's
    rounding allowance, ``ROUNDING_PER_ENTRY * n``.  Every recovery after
    the first but the cold ones below is handed the incumbent and ``hi``,
    so its polish starts from x when x is below the fit from y
    (``warm_recoveries``).  When the last recovery was such a warm one and
    returned no point below its ``hi``, and ``lo`` has risen by at most
    eps/4 (relative) since the previous round, the polish would stall at x
    again: the recovery runs cold from y instead (``stall_recoveries``).
    That rule reads only the bracket, not the bits of the Lewis weights
    behind y.  A round that finds no step hands the dual side to the
    incumbent instead: y becomes x's norm-dual residual vector, projected
    onto the constraints, when that is shorter (one ``recover`` solve).
    When it is not, one cold recovery from y runs (``stall_recoveries``),
    and the step gives up unless that point is below ``hi``.
    """
    q = instance.p
    p = dual_exponent(q)

    def make_steps(unit):
        A, b, counter = unit.A, unit.b, unit.counter
        counter.step("oracle_calls", 0)
        counter.step("accepted_steps", 0)
        counter.step("warm_recoveries", 0)
        counter.step("stall_recoveries", 0)
        counter.tick(0, "certificate")
        may_skip = unit.eps / 4.0 > ROUNDING_PER_ENTRY * A.n
        # b is a unit vector orthogonal to range(A), so it is already the
        # minimum-norm point of A^T y = 0, b^T y = 1.
        y = b / float(b @ b)
        recovered = False
        warm_stalled, lo_prev = False, 0.0

        def lower_bound(x):
            return -float((A.a @ x - b) @ y) / pnorm(y, p)

        def advance(hi):
            nonlocal y

            def propose(nu, g, R):
                z = dual_step(A, b, p, y, nu, g, R, counter)
                return z - y, z - y

            out = refinement_round(y, p, hi ** -p, propose, counter,
                                   "oracle_calls")
            if out is None:
                return False
            c_star, direction = out
            y = y + c_star * direction
            # kill constraint drift: A^T y = 0 and b^T y = 1 again
            y_a = A.project_out(y)
            y = y_a + (1.0 - float(b @ y_a)) * b
            return True

        def lift(x):
            # Once the oracle's steps fall below rounding, the incumbent's
            # dual vector can still be a shorter feasible y.
            nonlocal y
            u = A.a @ x - b
            m = float(np.max(np.abs(u)))
            cand = A.project_out(np.sign(u) * (np.abs(u) / m) ** (q - 1.0))
            counter.tick(1, "recover")
            beta = float(b @ cand)
            if beta == 0.0:
                return False
            cand = cand / beta
            if not pnorm(cand, p) < pnorm(y, p):
                return False
            y = cand
            return True

        def step(x, lo, hi):
            nonlocal recovered, warm_stalled, lo_prev
            incumbent, fallback = None, x
            lo_flat = lo <= (1.0 + unit.eps / 4.0) * lo_prev
            lo_prev = lo
            if recovered:
                if not advance(hi):
                    if lift(x):
                        return x
                    # The polish from x can sit at a fixed point above the
                    # best point; a cold one from the same y may go lower.
                    counter.step("stall_recoveries")
                    fallback = None
                elif may_skip and hi <= (1.0 + unit.eps / 4.0) * lp_dual_bound(
                        A, b, x, q, counter):
                    return x
                elif warm_stalled and lo_flat:
                    # The last warm polish stalled at x and lo has barely
                    # moved, so a warm one would stall there again.
                    counter.step("stall_recoveries")
                else:
                    incumbent = (x, hi)
            recovered = True
            x_hat = primal_recover(A, b, y, p, counter=counter,
                                   incumbent=incumbent)
            lower = pnorm(A.a @ x_hat - b, q) < hi
            warm_stalled = incumbent is not None and not lower
            return x_hat if lower else fallback

        return BracketSteps(lower_bound, step)

    return certified_solve(instance, "dual", make_steps)
