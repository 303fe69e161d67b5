"""Width-reduced multiplicative-weights solver for scaled residual problems.

Solves instances of the form: find y with g^T y = -1 whose reweighted
quadratic form and lp norm are both small, given that some feasible point
makes both at most 1.  The loop alternates cheap progress steps with rare
boosting steps that raise the weights of wide coordinates, paying for the
potential growth with a guaranteed energy jump.  Every inequality the
analysis relies on is asserted at runtime; breaking the energy cap that
the existence assumption implies is reported as infeasibility.

The progress step alpha follows a per-solve schedule
(:class:`AlphaSchedule`).  It starts at ``PAPER_ALPHA_BASE`` times the
paper's alpha.  It halves, for the rest of the solve, when an
oracle call fails in a way alpha can cause: a bound that assumes a small
step (:class:`~lpreg.errors.StepBoundError`) or the boost budget fails
after at least one progress step; before the first one nothing depends
on alpha.  The failed call is then rerun at the halved alpha.  The energy
cap is not such a bound: it holds for every weight vector, so breaking it
proves infeasibility at any alpha.  The paper's alpha is the floor, where
every failure propagates as the analysis prescribes.  The halvings form a
geometric sum, so one call costs at most twice what it costs at the floor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoostBudgetExceededError,
    EnergyIncreaseViolationError,
    InfeasibleError,
    InvalidInputError,
    PotentialViolationError,
    StepBoundError,
    ZeroGradientError,
)
from .lewis import LewisOverestimate, lewis_overestimates
from .linalg import DenseMatrix, SolveCounter, gram_solve_multi
from .problem import ProblemInstance
from .refine import certified_solve, refine_steps

MAX_MWU_P = 16.0

TAU_BASE = 40.0       # tau = 40^p * d^{(p-2)(p-1)/(3p-2)}
# The paper's alpha, d^{-(p^2-5p+2)/(p(3p-2))} / (1000 p), is the floor of
# the step schedule; the schedule starts PAPER_ALPHA_BASE times higher,
# at d^{-(p^2-5p+2)/(p(3p-2))} / p.
PAPER_ALPHA_BASE = 1000.0


def _tol(*vals) -> float:
    """Absolute assertion slack, inflated to sit above fp noise at scale."""
    return 1e-9 + 4e-12 * sum(abs(float(v)) for v in vals)


@dataclass
class ResidualInstance:
    """A scaled residual problem (A, g, R, p)."""

    A: DenseMatrix
    g: np.ndarray
    R: np.ndarray
    p: float


def mwu_constants(p: float, d: int) -> tuple[float, float, float]:
    """(kappa, alpha, tau) for dimension d; alpha is the paper's, the floor."""
    kappa = p * d ** (1.0 / p)
    alpha = (d ** (-(p * p - 5 * p + 2) / (p * (3 * p - 2)))
             / (PAPER_ALPHA_BASE * p))
    tau = TAU_BASE ** p * d ** ((p - 2) * (p - 1) / (3 * p - 2))
    return kappa, alpha, tau


@dataclass
class AlphaSchedule:
    """The progress step of one solve, as a multiple of the paper's alpha.

    ``ratio`` starts at PAPER_ALPHA_BASE and only ever halves, never
    below 1 (the paper's alpha).
    """

    ratio: float = PAPER_ALPHA_BASE

    def halve(self) -> bool:
        """Halve toward the floor; False when already at it."""
        if self.ratio <= 1.0:
            return False
        self.ratio = max(self.ratio / 2.0, 1.0)
        return True


def energy_solve(A: DenseMatrix, D: np.ndarray, g: np.ndarray,
                 counter: SolveCounter, phase: str):
    """Minimize x^T (A^T diag(D) A) x over g^T x = -1.

    Returns (z, value, err): the minimizer z = -(g^T B^{-1} g)^{-1} B^{-1} g,
    the optimal value (g^T B^{-1} g)^{-1}, and a first-order bound on the
    value's floating-point error, |x_hat . residual| scaled to the energy,
    with the residual g - A^T D A x_hat formed by products with A.
    """
    g = np.asarray(g, dtype=float)
    if not np.any(g):
        raise ZeroGradientError("energy solve needs g != 0")
    bg = gram_solve_multi(A, D, g, counter=counter, phase=phase)
    quad = float(g @ bg)
    if quad <= 0 or not math.isfinite(quad):
        raise InfeasibleError(f"gram quadratic form g^T B^-1 g = {quad:.3g}")
    value = 1.0 / quad
    residual = g - A.a.T @ (D * (A.a @ bg))
    # SPD: entries are bounded by the largest diagonal element
    gram_scale = A.d * float(np.max(D @ (A.a * A.a)))
    # first-order value error plus the fp floor of the residual itself
    quad_err = (abs(float(bg @ residual))
                + 2.3e-16 * gram_scale * float(bg @ bg)
                + 1e-15 * abs(quad))
    return -value * bg, value, value * (quad_err / quad)


@dataclass
class MwuState:
    """Mutable run state of the width-reduction loop."""

    inst: ResidualInstance
    s: np.ndarray
    y: np.ndarray
    kappa: float
    alpha: float
    tau: float
    base_r: np.ndarray          # d^{1-2/p} * R
    counter: SolveCounter
    z: np.ndarray | None = None
    az: np.ndarray | None = None
    energy: float | None = None
    energy_err: float = 0.0
    progress_steps: int = 0     # this run's; the alpha rule reads them
    boost_steps: int = 0
    _phi: float | None = None

    @property
    def p(self) -> float:
        return self.inst.p

    def potential(self) -> float:
        if self._phi is None:
            self._phi = float(np.sum(self.s ** self.p))
        return self._phi

    def set_s(self, s: np.ndarray):
        self.s = s
        self._phi = None

    def weights_diag(self) -> np.ndarray:
        return self.base_r + self.s ** (self.p - 2.0)

    def refresh(self, phase: str):
        """Re-solve the energy problem at the current diagonal.

        Checks that the energy never decreased and that it stays below the
        bound implied by the existence assumption; breaking the latter means
        the instance is infeasible.
        Assertion bands widen by the solve's own value-error estimate so
        conditioning cannot masquerade as a broken invariant.
        """
        z, e, err = energy_solve(self.inst.A, self.weights_diag(), self.inst.g,
                                 self.counter, phase)
        band = _tol(e, self.energy or 0.0) + 4.0 * (err + self.energy_err)
        if self.energy is not None and e < self.energy - band:
            raise PotentialViolationError(
                f"energy decreased: {self.energy:.6g} -> {e:.6g}")
        phi = self.potential()
        cap = 2.0 * phi ** (1.0 - 2.0 / self.p)
        if e > cap * (1 + 1e-9) + 1e-12 + 4.0 * err:
            raise InfeasibleError(
                f"energy {e:.6g} exceeds {cap:.6g}; no feasible point exists")
        self.z, self.energy, self.energy_err = z, e, err
        self.az = self.inst.A.a @ z


def new_state(inst: ResidualInstance, weights: LewisOverestimate,
              counter: SolveCounter, alpha_ratio: float) -> MwuState:
    """Fresh loop state; alpha is ``alpha_ratio`` times the paper's."""
    d = inst.A.d
    kappa, alpha, tau = mwu_constants(inst.p, d)
    base_r = d ** (1.0 - 2.0 / inst.p) * inst.R
    return MwuState(inst=inst, s=weights.weights ** (1.0 / inst.p),
                    y=np.zeros(d), kappa=kappa, alpha=alpha * alpha_ratio,
                    tau=tau, base_r=base_r, counter=counter)


def progress_step(state: MwuState, z: np.ndarray,
                  az: np.ndarray) -> MwuState:
    """y += alpha z, s += alpha |az| with az = A z; phi may only creep up."""
    p, alpha = state.p, state.alpha
    az = np.abs(az)
    phi_old = state.potential()
    state.y += alpha * z
    if alpha != 0.0 and az.any():
        state.set_s(state.s + alpha * az)
    phi_new = state.potential()
    cap = (5 * p * alpha * phi_old ** (1 - 1.0 / p)
           + 3 * p ** p * alpha ** p * state.tau)
    if phi_new - phi_old > cap + _tol(phi_new, phi_old, cap):
        raise PotentialViolationError(
            f"progress potential jump {phi_new - phi_old:.6g} > {cap:.6g}")
    state.progress_steps += 1
    state.counter.step("progress_steps")
    return state


def woodbury_energy(state: MwuState, v: np.ndarray) -> float:
    """Predicted energy after adding diag(v), via the low-rank identity.

    Cross-check only; the production path re-solves from scratch.
    """
    z, e = state.z, state.energy
    idx = np.flatnonzero(v > 0)
    if idx.size == 0:
        return e
    root = np.sqrt(v[idx])
    rows = state.inst.A.a[idx]
    sol = gram_solve_multi(state.inst.A, state.weights_diag(), rows.T,
                           counter=state.counter, phase="woodbury_check")
    cap_mat = np.eye(idx.size) + (root[:, None] * (rows @ sol)) * root[None, :]
    q = root * (state.inst.A.a[idx] @ z)
    drop = float(q @ np.linalg.solve(cap_mat, q)) / e ** 2
    return 1.0 / (1.0 / e - drop)


def boost_selection(s: np.ndarray, az: np.ndarray, p: float, tau: float,
                    kappa: float):
    """Wide coordinates and their additive increments to s^{p-2}.

    A coordinate is boosted when s_i <= 2^{-p/(p-2)} kappa |(Az)_i|; the
    increment is tau^{2/p} |(Az)_i|^{p-2} / (4 ||Az||_p^p).
    """
    pnorm_val = float(np.sum(np.abs(az) ** p))
    sel = s <= 2.0 ** (-p / (p - 2.0)) * kappa * np.abs(az)
    v = np.zeros(az.size)
    v[sel] = tau ** (2.0 / p) * np.abs(az[sel]) ** (p - 2.0) / (4.0 * pnorm_val)
    return sel, v


def apply_boost(s: np.ndarray, sel: np.ndarray, v: np.ndarray, p: float):
    out = s.copy()
    out[sel] = (s[sel] ** (p - 2.0) + v[sel]) ** (1.0 / (p - 2.0))
    return out


def boosting_step(state: MwuState) -> MwuState:
    """Raise weights on wide coordinates; the energy must jump by tau^{2/p}/16."""
    p, az = state.p, state.az
    phi_old = state.potential()
    hypo = 2.0 ** p * state.kappa ** (-(p - 2.0)) * phi_old ** (1 - 2.0 / p)
    if hypo > state.tau / 4 * (1 + 1e-9):
        raise StepBoundError("potential too large for a feasible instance")

    sel, v = boost_selection(state.s, az, p, state.tau, state.kappa)
    e_old, err_old = state.energy, state.energy_err
    predicted = woodbury_energy(state, v)
    if np.any(sel):
        state.set_s(apply_boost(state.s, sel, v, p))
    state.refresh("boost")
    e_new = state.energy
    fp_band = 4.0 * (err_old + state.energy_err)

    jump = state.tau ** (2.0 / p) / 16.0
    if np.any(sel) and e_new - e_old < jump - _tol(e_new, e_old, jump) - fp_band:
        raise EnergyIncreaseViolationError(
            f"boost energy gain {e_new - e_old:.6g} < {jump:.6g}")
    if abs(predicted - e_new) > 1e-8 * max(abs(e_new), 1.0) + fp_band:
        raise PotentialViolationError(
            f"low-rank energy update {predicted:.9g} disagrees with "
            f"fresh solve {e_new:.9g}")
    phi_new = state.potential()
    cap = 20.0 * state.kappa ** 2 * (e_new - e_old)
    if np.any(sel) and phi_new - phi_old > cap + _tol(phi_new, phi_old, cap) \
            + 20.0 * state.kappa ** 2 * fp_band:
        raise PotentialViolationError(
            f"boost potential jump {phi_new - phi_old:.6g} > {cap:.6g}")
    state.boost_steps += 1
    state.counter.step("boost_steps")
    return state


def reduce_width(state: MwuState) -> np.ndarray:
    """floor(d^{1/p} / alpha) progress steps, boosting while wide; returns y.

    At least one step is taken, so no alpha makes the averaged y undefined.
    """
    p, d = state.p, state.inst.A.d
    steps = max(1, int(math.floor(d ** (1.0 / p) / state.alpha)))
    boost_cap = int(math.ceil(
        2 * 16 * (20 * state.kappa) ** (p - 2.0) / state.tau ** (2.0 / p))) + 8
    for _ in range(steps):
        state.refresh("progress")
        while float(np.sum(np.abs(state.az) ** p)) >= state.tau:
            if state.boost_steps >= boost_cap:
                raise BoostBudgetExceededError(
                    f"more than {boost_cap} boost steps")
            boosting_step(state)
        progress_step(state, state.z, az=state.az)
    return state.y / (state.alpha * steps)


def output_bounds(inst: ResidualInstance, y: np.ndarray):
    """Check g^T y = -1, ||Ay||_p and y^T A^T R A y against the guarantee."""
    p = inst.p
    gerr = abs(float(inst.g @ y) + 1.0)
    if gerr > 1e-9:
        raise PotentialViolationError(f"returned g^T y = -1 off by {gerr:.3g}")
    ay = inst.A.a @ y
    pn = float(np.linalg.norm(ay, p))
    quad = float(ay @ (inst.R * ay))
    if pn > 80.0 * p * (1 + 1e-9) or quad > 4.0 * (20.0 * p) ** (p - 2.0) * (1 + 1e-9):
        raise StepBoundError(
            f"output bounds failed (lp={pn:.4g}, quad={quad:.4g}); "
            "instance looks infeasible")


def width_reduced_oracle(inst: ResidualInstance, counter: SolveCounter,
                         weights: LewisOverestimate,
                         schedule: AlphaSchedule) -> np.ndarray:
    """Run the width-reduction loop and return y.

    The returned y satisfies g^T y = -1 with ||Ay||_p <= 80 p and
    y^T A^T R A y <= 4 (20 p)^{p-2}; instances violating the existence
    assumption raise InfeasibleError as soon as the energy bookkeeping
    detects them.  The loop runs at ``schedule``'s alpha and reruns at a
    halved alpha after a failure alpha can cause (see the module
    docstring).  Every run ticks its steps on ``counter``, and each
    halving is recorded there too.
    """
    while True:
        state = new_state(inst, weights, counter, schedule.ratio)
        try:
            y = reduce_width(state)
            output_bounds(inst, y)
            return y
        except (StepBoundError, BoostBudgetExceededError):
            if state.progress_steps == 0 or not schedule.halve():
                raise
            counter.step("alpha_halvings")
            counter.steps["alpha_over_floor"] = schedule.ratio


class MwuGammaSolver:
    """Adapter exposing the width-reduction loop as a residual-step solver.

    Weight overestimates depend only on the design matrix, so they are
    computed once and reused across calls; leverage scores are invariant
    under the per-call uniform rescaling of A.  One :class:`AlphaSchedule`
    serves every call of a solve, and the counter's steps record it.
    """

    def __init__(self, A: DenseMatrix, p: float, counter: SolveCounter):
        self.p = float(p)
        self.counter = counter
        self.schedule = AlphaSchedule()
        for key in ("progress_steps", "boost_steps", "alpha_halvings"):
            self.counter.step(key, 0)
        self.counter.steps["alpha_over_floor"] = self.schedule.ratio
        self.A = A
        self.weights = lewis_overestimates(A, self.p)

    def __call__(self, nu: float, g: np.ndarray, R: np.ndarray):
        p = self.p
        g_eff = self.A.a.T @ np.asarray(g, dtype=float)
        scale_a = (2.0 ** (p + 1) * nu) ** (-1.0 / p)
        inst = ResidualInstance(
            A=self.A.scaled(scale_a),
            g=g_eff / nu,
            R=R * (p / (8.0 * nu)) / scale_a ** 2,
            p=p,
        )
        return width_reduced_oracle(inst, self.counter, self.weights,
                                    self.schedule)


def solve_mwu(instance: ProblemInstance):
    """Full solve: iterative refinement with width-reduced steps, certified."""
    if not 2 <= instance.p < math.inf:
        raise InvalidInputError("width reduction requires a finite p >= 2")

    def make_steps(unit):
        return refine_steps(unit, MwuGammaSolver(unit.A, unit.p, unit.counter))

    return certified_solve(instance, "mwu", make_steps)
