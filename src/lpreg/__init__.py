"""High-precision lp-norm regression solvers and benchmark tooling."""

from .errors import LpregError
from .linalg import (
    DenseMatrix,
    SolveCounter,
    approx_lev,
    gram_solve_multi,
    leverage_scores,
)
from .lewis import (
    LewisOverestimate,
    RegularizedLewisWeights,
    lewis_overestimates,
    reg_lewis,
)
from .problem import ProblemInstance
from .report import SolveReport

__all__ = [
    "ProblemInstance",
    "LpregError",
    "DenseMatrix",
    "SolveCounter",
    "approx_lev",
    "gram_solve_multi",
    "leverage_scores",
    "LewisOverestimate",
    "RegularizedLewisWeights",
    "lewis_overestimates",
    "reg_lewis",
    "SolveReport",
]

__version__ = "0.1.0"
