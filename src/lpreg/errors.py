"""Exception hierarchy shared by all solver modules."""


class LpregError(Exception):
    """Base class for all lpreg errors."""


class NonFiniteError(LpregError):
    """Input contains NaN or Inf."""


class RankDeficientError(LpregError):
    """Matrix does not have full column rank."""


class SingularGramError(LpregError):
    """A Gram system could not be factorized, even after regularization."""


class ZeroGradientError(LpregError):
    """An energy solve was requested with g = 0."""


class DominationFailure(LpregError):
    """Weight certificate failed (mass or domination); fatal, not retryable."""


class NegativeWeightError(LpregError):
    """A weight update produced a value below the clamping window."""


class NoConvergenceError(LpregError):
    """Fixed-point or descent iteration hit its cap without converging."""


class InfeasibleError(LpregError):
    """Constraints cannot be satisfied, or a residual instance violates
    its existence assumption."""


class StepBoundError(InfeasibleError):
    """A width-reduction bound that rests on a small enough progress step
    failed: infeasibility at the paper's step, possibly a too-large step
    above it."""


class BoundAboveObjectiveError(LpregError):
    """A lower bound exceeded an achieved objective by more than rounding,
    so the bound is false and no certificate can rest on it."""


class BudgetExceededError(LpregError):
    """Iteration or call budget exhausted; indicates a broken contract."""


class BoostBudgetExceededError(BudgetExceededError):
    """Width-reduction boost cap hit; a bug or an infeasible instance."""


class PotentialViolationError(LpregError):
    """A potential-function inequality failed at runtime (fatal bug)."""


class EnergyIncreaseViolationError(LpregError):
    """The guaranteed energy jump on a boost step did not materialize."""


class BisectionStallError(LpregError):
    """A scalar bisection bracket could not be established."""


class InvalidInputError(LpregError):
    """User-supplied configuration or file is malformed."""
