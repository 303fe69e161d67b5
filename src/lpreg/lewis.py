"""Row-weight computations that tie the lp geometry of A to an ellipse.

Two families are provided: overestimates for p >= 2 (averaged fixed-point
iterates, returned at the first round whose exact leverage recomputation
certifies them, with ceil(10 log n) rounds as the cap) and regularized
weights for q <= 2 (a contractive map, iterated until its log residual
falls below REG_LEWIS_TOL or the paper's step count runs out).  Each
reweighting hands its row scale to :func:`lpreg.linalg.leverage_scores`,
which reuses A's basis; no reweighted copy of A is made.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DominationFailure,
    InvalidInputError,
    NegativeWeightError,
    NonFiniteError,
)
from .linalg import DenseMatrix, approx_lev, leverage_scores

WEIGHT_FLOOR = 1e-14
DOMINATION_TOL = 1e-8
# reg_lewis stops once max_i |log((c_i + sigma_i) / (c_i + w_i))| is this
# small.  The map contracts by 1 - q/2 <= 1/2 in that metric, so c + w is
# then within a factor exp(2 * REG_LEWIS_TOL) of its exact fixed point.
REG_LEWIS_TOL = 1e-3


def half_minus_inv(p: float) -> float:
    """1/2 - 1/p, which is 1/2 at p = inf."""
    return 0.5 - 1.0 / p


def row_scale(w: np.ndarray, expo: float) -> np.ndarray:
    """Row scale w^expo, with the weight floor applied first."""
    return np.maximum(np.asarray(w, dtype=float), WEIGHT_FLOOR) ** expo


@dataclass
class LewisOverestimate:
    """Weights dominating their own reweighted leverage scores, mass in [d, 2d]."""

    weights: np.ndarray
    p: float

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))

    @cached_property
    def metric_diag(self) -> np.ndarray:
        """Row weights W^{1-2/p} of the metric A^T W^{1-2/p} A, formed once
        and shared, read-only, by every proximal problem on these weights."""
        return row_scale(self.weights, 1.0 - 2.0 / self.p)


@dataclass
class RegularizedLewisWeights:
    """Approximate fixed point of w_i = sigma((C+W)^{1/2-1/q} A)_i."""

    weights: np.ndarray
    regularizer: np.ndarray
    q: float


def lewis_overestimates(A: DenseMatrix, p: float) -> LewisOverestimate:
    """Compute lp weight overestimates for p >= 2 (p = inf allowed).

    Iterates leverage scores (:func:`approx_lev` at eps = 0.1, which is
    exact) of the reweighted matrix, starting from the uniform vector d/n.
    After round k the candidate is 3/(2k) times the sum of the k iterates,
    whose mass is 1.5 d.  Every round checks the certificate (mass in
    [d, 2d] and elementwise domination of the candidate's own reweighted
    leverage scores) with one exact leverage computation and returns the
    first candidate that passes.  T = ceil(10 log n) rounds is the cap; a
    candidate still failing at T raises DominationFailure.  The
    computation is deterministic, so a failure would repeat on any retry.
    """
    if not p >= 2:
        raise InvalidInputError("overestimates require p >= 2")
    n, d = A.n, A.d
    expo = half_minus_inv(p)
    T = int(math.ceil(10 * math.log(max(n, 2))))
    w = np.full(n, d / n)
    acc = np.zeros(n)
    for k in range(1, T + 1):
        w = approx_lev(A, 0.1, row_scale(w, expo))
        acc += w
        out = (3.0 / (2.0 * k)) * acc
        mass = float(np.sum(out))
        sig = leverage_scores(A, row_scale(out, expo))
        if d - 1e-9 <= mass <= 2 * d + 1e-9 and np.all(out + DOMINATION_TOL >= sig):
            return LewisOverestimate(out, p)
    raise DominationFailure(
        f"certificate failed after {T} rounds: mass={mass:.6g}, worst "
        f"margin={float(np.min(out - sig)):.3g}")


def reg_lewis_update(w: np.ndarray, c: np.ndarray, q: float,
                     sigma: np.ndarray) -> np.ndarray:
    """One step of the contractive map for c-regularized weights.

    ``sigma`` holds the leverage scores of the matrix reweighted by
    (c+w)^{1/2-1/q}.  The update is (c+w)^{1-q/2} (sigma+c)^{q/2} - c; for
    large c that subtraction cancels catastrophically, so it is evaluated
    through expm1/log1p, which also keeps the result nonnegative.
    """
    pos = c > 0
    nxt = np.empty(w.shape)
    with np.errstate(divide="ignore"):
        cpos = c[pos]
        t = ((1.0 - q / 2.0) * np.log1p(np.maximum(w[pos], 0.0) / cpos)
             + (q / 2.0) * np.log1p(sigma[pos] / cpos))
        nxt[pos] = cpos * np.expm1(t)
        free = ~pos
        nxt[free] = (np.maximum(w[free], WEIGHT_FLOOR) ** (1.0 - q / 2.0)
                     * sigma[free] ** (q / 2.0))
    low = float(np.min(nxt))
    if low < -1e-12:
        raise NegativeWeightError(f"update produced weight {low:.3g}")
    return np.maximum(nxt, 0.0)


def reg_lewis(A: DenseMatrix, c: np.ndarray, q: float) -> RegularizedLewisWeights:
    """Approximate c-regularized lq weights for q in (1, 2].

    Starts from the all-ones vector and applies the contraction step,
    each powered by leverage scores (:func:`approx_lev` at eps = 1/50,
    which is exact).  It stops at the first step whose scores sigma meet
    max_i |log((c_i + sigma_i) / (c_i + w_i))| <= REG_LEWIS_TOL, and at
    the latest after the paper's T = ceil(8 log log n) + 4 steps and one
    final leverage computation.  The returned vector is the leverage
    scores of the final reweighted matrix.  A non-finite regularizer or
    residual raises NonFiniteError.
    """
    if not 1 < q <= 2:
        raise InvalidInputError("q must lie in (1, 2]")
    c = np.asarray(c, dtype=float)
    if not np.all(np.isfinite(c)):
        raise NonFiniteError("regularizer must be finite")
    if np.any(c < 0):
        raise InvalidInputError("regularizer must be nonnegative")
    T = int(math.ceil(8 * math.log(math.log(max(A.n, 3))))) + 4
    w = np.ones(A.n)
    for step in range(T + 1):
        sig = approx_lev(A, 1.0 / 50.0, row_scale(c + w, 0.5 - 1.0 / q))
        gap = float(np.max(np.abs(np.log(np.maximum(c + sig, WEIGHT_FLOOR)
                                          / np.maximum(c + w, WEIGHT_FLOOR)))))
        if not math.isfinite(gap):
            raise NonFiniteError(f"fixed-point residual {gap} at step {step}")
        if gap <= REG_LEWIS_TOL or step == T:
            return RegularizedLewisWeights(sig, c, q)
        w = reg_lewis_update(w, c, q, sig)
