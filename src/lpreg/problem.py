"""Problem container shared by solvers, oracles, and the harness."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NonFiniteError
from .linalg import DenseMatrix

# The smallest accepted eps: a (1 + eps) gap much below float64 resolution
# cannot be certified, so such a target fails fast instead of stalling.
MIN_EPS = 1e-14


@dataclass
class ProblemInstance:
    """An lp regression instance min_x ||A x - b||_p at target accuracy eps.

    Exponents in (1, 2) select the lq path; math.inf selects minimax.
    """

    A: DenseMatrix
    b: np.ndarray
    p: float
    eps: float = 1e-6

    def __post_init__(self):
        if not isinstance(self.A, DenseMatrix):
            raise InvalidInputError("A must be a DenseMatrix")
        for name in ("p", "eps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise InvalidInputError(f"{name} must be a real number")
        try:
            self.b = np.asarray(self.b, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"b must be numeric: {exc}") from None
        if self.b.shape != (self.A.n,):
            raise InvalidInputError("b must have length n")
        if not np.all(np.isfinite(self.b)):
            raise NonFiniteError("b must be finite")
        if not self.p > 1:
            raise InvalidInputError("exponent must exceed 1")
        if not MIN_EPS <= self.eps < 1:
            raise InvalidInputError(f"eps must lie in [{MIN_EPS:g}, 1)")


def pnorm(u: np.ndarray, p: float) -> float:
    """Overflow-safe ||u||_p."""
    u = np.asarray(u, dtype=float)
    if p == math.inf:
        return float(np.max(np.abs(u))) if u.size else 0.0
    m = float(np.max(np.abs(u))) if u.size else 0.0
    if m == 0.0:
        return 0.0
    return m * float(np.sum((np.abs(u) / m) ** p)) ** (1.0 / p)
