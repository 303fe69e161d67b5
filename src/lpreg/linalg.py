"""Dense matrix storage, reweighted Gram solves, and leverage scores.

Every iterative solver in this package is charged in units of solves
against ``A^T D A`` for a positive diagonal ``D``.  The diagonal is a
plain float array of per-row weights.  :class:`SolveCounter` tallies the
solves, and :func:`gram_solve_multi` is the one place that checks and
floors weights.  All of it runs on A's one cached QR, A = Q R: Gram
solves factor ``Q^T D Q``, fits and projections use Q
(:meth:`DenseMatrix.project_out`), and leverage scores orthonormalize
``diag(s) A.basis`` by Cholesky QR, both by :func:`_cholesky`'s shifted
rule.  Not counted: dual's ``[A b g]`` solves.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri

from .errors import (
    InvalidInputError,
    NonFiniteError,
    RankDeficientError,
    SingularGramError,
)

# Smallest diagonal weight a Gram solve uses; zero weights are lifted to it.
WEIGHT_SOLVE_FLOOR = 1e-300
# Leverage scores are read off a basis once max|Z^T Z - I| is this small;
# the scores' relative error is then at most d * ORTHO_TOL.
ORTHO_TOL = 1e-13
# A shifted pass lifts the smallest singular value by about 1e7: 14 passes
# at a row-scale span of 1e150, beyond the span the weight floors allow.
MAX_CHOLQR_PASSES = 20


class DenseMatrix:
    """A tall full-rank matrix with n >= d, validated at construction."""

    def __init__(self, entries):
        try:
            a = np.asarray(entries, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(
                f"matrix entries must be numeric: {exc}") from None
        if a.ndim != 2:
            raise InvalidInputError("matrix must be two-dimensional")
        if not np.all(np.isfinite(a)):
            raise NonFiniteError("matrix entries must be finite")
        n, d = a.shape
        if n < d:
            raise InvalidInputError(f"matrix must be tall: got {n} x {d}")
        if d == 0:
            raise InvalidInputError("matrix needs at least one column")
        if np.linalg.matrix_rank(a) < d:
            raise RankDeficientError("matrix does not have full column rank")
        self.a = a

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def d(self) -> int:
        return self.a.shape[1]

    def __repr__(self):
        return f"DenseMatrix({self.n}x{self.d})"

    @cached_property
    def qr(self) -> tuple[np.ndarray, np.ndarray]:
        """Reduced QR factors (Q, R) of the matrix, computed on first use."""
        return scipy.linalg.qr(self.a, mode="economic", check_finite=False)

    def project_out(self, Y: np.ndarray) -> np.ndarray:
        """Y - Q (Q^T Y), twice: orthogonal to range(A) to working precision."""
        q = self.qr[0]
        for _ in range(2):
            Y = Y - q @ (q.T @ Y)
        return Y

    @cached_property
    def basis(self) -> np.ndarray:
        """A basis of range(A) for :func:`leverage_scores`; Q by default."""
        return self.qr[0]

    @classmethod
    def trusted(cls, entries: np.ndarray,
                basis: np.ndarray | None = None) -> "DenseMatrix":
        """Skip validation for a rank-preserving copy of a validated matrix.

        ``basis``, if given, spans the copy's range; it need not be
        orthonormal, only well enough conditioned for Cholesky QR.
        """
        obj = object.__new__(cls)
        obj.a = entries
        if basis is not None:
            obj.basis = basis
        return obj

    def scaled(self, c: float) -> "DenseMatrix":
        """The trusted copy c A, carrying the QR (Q, c R) read off A's."""
        q, r = self.qr
        obj = DenseMatrix.trusted(c * self.a)
        obj.qr = (q, c * r)
        return obj


@dataclass
class SolveCounter:
    """Monotone tally of Gram solves (in total and by phase) and of steps.

    ``factorizations`` counts the matrix factorizations behind the solves:
    one per :func:`gram_solve_multi` call, however many columns it solves,
    one per solve for the QR of its matrix, and one per eigendecomposition
    that later solves reuse (``lpreg.accel.MetricPencil``).  ``steps``
    holds the solvers' step counters, each ticked where its step happens.
    """

    gram_solves: int = 0
    by_phase: dict = field(default_factory=dict)
    factorizations: int = 0
    steps: dict = field(default_factory=dict)

    def tick(self, k: int = 1, phase: str | None = None):
        self.gram_solves += k
        if phase is not None:
            self.by_phase[phase] = self.by_phase.get(phase, 0) + k

    def step(self, key: str, k: int = 1):
        """Add k to ``steps[key]``; k = 0 declares a counter at zero."""
        self.steps[key] = self.steps.get(key, 0) + k


def _cholesky(G: np.ndarray, n: int) -> np.ndarray:
    """Lower Cholesky factor L, L L^T = G, of the m x m Gram of n rows.

    If G is not numerically positive definite, L is taken of G shifted by
    11 (n m + m (m + 1)) eps_mach trace(G), the shifted Cholesky QR rule
    (Fukaya et al., SISC 2020); if that fails too, SingularGramError.
    """
    L, info = dpotrf(G, lower=1, clean=1)
    if info != 0:
        m = G.shape[0]
        shift = (11.0 * (n * m + m * (m + 1)) * np.finfo(float).eps
                 * float(np.trace(G)))
        L, info = dpotrf(G + shift * np.eye(m), lower=1, clean=1)
        if info != 0:
            raise SingularGramError("shifted Cholesky factorization broke down")
    return L


def gram_solve_multi(A: DenseMatrix, w: np.ndarray, rhs: np.ndarray,
                     counter: SolveCounter | None = None,
                     phase: str | None = None) -> np.ndarray:
    """Solve (A^T diag(w) A) X = rhs for one or more right-hand sides.

    ``w`` holds nonnegative per-row weights, lifted to WEIGHT_SOLVE_FLOOR
    here; a negative weight is an InvalidInputError and a non-finite one
    surfaces as a NonFiniteError from the Gram check.  ``rhs`` is a vector
    of length d or a d-row matrix.  The system is solved in the basis of
    A's cached QR, A = Q R: G = Q^T diag(w) Q is factored as U^T U
    (:func:`_cholesky`), so cond(A) is never squared, and (U R)^T (U R) X
    = rhs is one pair of triangular solves.  One factorization is shared
    across columns; each column is counted as one Gram solve.
    """
    rhs = np.asarray(rhs, dtype=float)
    single = rhs.ndim == 1
    B = rhs[:, None] if single else rhs
    if B.ndim != 2 or B.shape[0] != A.d:
        raise InvalidInputError(f"rhs must have {A.d} rows")
    if not np.isfinite(B).all():
        raise NonFiniteError("right-hand side must be finite")
    w = np.asarray(w, dtype=float)
    if w.min() < 0:                 # False for nan, left to the Gram check
        raise InvalidInputError("weights must be nonnegative")
    q, r = A.qr
    gram = (q * np.maximum(w, WEIGHT_SOLVE_FLOOR)[:, None]).T @ q
    if not np.isfinite(gram).all():
        raise NonFiniteError("Gram matrix not finite (weights or overflow)")
    ur = _cholesky(gram, A.n).T @ r
    # LAPACK's dpotrs, which cho_solve wraps, without the wrapper's checks;
    # its info is nonzero only for an illegal argument.
    X, info = dpotrs(ur, B, lower=0)
    if info != 0:
        raise SingularGramError(f"dpotrs rejected argument {-info}")
    if counter is not None:
        counter.tick(B.shape[1], phase)
        counter.factorizations += 1
    return X[:, 0] if single else X


def _cholqr_pass(Z: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Z L^{-T} for the Cholesky factor L L^T = G = Z^T Z.

    A shifted factor (:func:`_cholesky`) lifts Z's small singular values
    instead of breaking down, and later passes finish the
    orthogonalization.
    """
    Linv, _ = dtrtri(_cholesky(G, Z.shape[0]), lower=1)
    return Z @ Linv.T


def leverage_scores(A: DenseMatrix,
                    scale: np.ndarray | None = None) -> np.ndarray:
    """Exact leverage scores sigma_i of diag(scale) A (of A without a scale).

    diag(scale) A and diag(scale) B share their range for any basis B of
    range(A), so the scores are the squared row norms of an orthonormal
    basis of diag(scale) B, with B = ``A.basis``: A's cached QR factor, or
    the basis a trusted copy was given.  That basis is orthonormalized by
    Cholesky QR (Yamamoto et al., ETNA 2015), two level-3 products per
    pass, and passes repeat until max|Z^T Z - I| <= ORTHO_TOL: one pass
    when diag(scale) B is well conditioned, more as its condition grows.
    A non-finite scale raises NonFiniteError, and a basis still not
    orthonormal after MAX_CHOLQR_PASSES passes SingularGramError.
    """
    Z = A.basis if scale is None else A.basis * scale[:, None]
    eye = np.eye(A.d)
    G = Z.T @ Z
    if not np.isfinite(G).all():
        raise NonFiniteError("scaled basis is not finite")
    for _ in range(MAX_CHOLQR_PASSES):
        if np.max(np.abs(G - eye)) <= ORTHO_TOL:
            return np.clip(np.einsum("ij,ij->i", Z, Z), 0.0, 1.0)
        Z = _cholqr_pass(Z, G)
        G = Z.T @ Z
    raise SingularGramError(
        f"leverage basis not orthonormal after {MAX_CHOLQR_PASSES} passes")


def approx_lev(A: DenseMatrix, eps: float,
               scale: np.ndarray | None = None) -> np.ndarray:
    """Leverage-score estimates of diag(scale) A within a (1 +- eps) factor.

    The exact scores of :func:`leverage_scores` meet that guarantee for
    every eps, so they are returned as is; they cost no Gram solves.
    """
    if not 0 < eps < 1:
        raise InvalidInputError("eps must lie in (0, 1)")
    return leverage_scores(A, scale)


def read_matrix(path) -> DenseMatrix:
    """Read the text format: first line "n d", then n rows of d reals."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise InvalidInputError(f"{path}: missing matrix header")
    try:
        n, d = int(tokens[0]), int(tokens[1])
        vals = [float(t) for t in tokens[2:]]
    except ValueError as exc:
        raise InvalidInputError(f"{path}: malformed matrix file") from exc
    if n < 1 or d < 1:
        raise InvalidInputError(f"{path}: matrix size {n} x {d} is not positive")
    if len(vals) != n * d:
        raise InvalidInputError(f"{path}: expected {n * d} entries, got {len(vals)}")
    return DenseMatrix(np.asarray(vals).reshape(n, d))


def write_matrix(path, A: DenseMatrix):
    with open(path, "w") as fh:
        fh.write(f"{A.n} {A.d}\n")
        for row in A.a:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def read_vector(path) -> np.ndarray:
    """Read a vector stored one value per line."""
    with open(path) as fh:
        tokens = fh.read().split()
    try:
        return np.asarray([float(t) for t in tokens])
    except ValueError as exc:
        raise InvalidInputError(f"{path}: malformed vector file") from exc


def write_vector(path, v: np.ndarray):
    with open(path, "w") as fh:
        for x in np.asarray(v, dtype=float):
            fh.write(repr(float(x)) + "\n")
