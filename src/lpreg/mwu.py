"""Width-reduced multiplicative-weights solver for scaled residual problems.

Solves instances of the form: find y with g^T y = -1 whose reweighted
quadratic form and lp norm are both small, given that some feasible point
makes both at most 1.  The loop alternates cheap progress steps with rare
boosting steps that raise the weights of wide coordinates, paying for the
potential growth with a guaranteed energy jump.  Every inequality the
analysis relies on is asserted at runtime; a failure of a witness-implied
inequality on a witnessless instance is reported as infeasibility rather
than as a bug.

The progress step alpha follows a per-solve schedule
(:class:`AlphaSchedule`).  It starts at ``PAPER_ALPHA_BASE / ALPHA_BASE``
times the paper's alpha.  It halves, for the rest of the solve, when an
oracle call fails in a way alpha can cause: a bound that assumes a small
step (:class:`~lpreg.errors.StepBoundError`) or the boost budget fails
after at least one progress step; before the first one nothing depends
on alpha.  The failed call is then rerun at the halved alpha.  The energy cap is not such a bound: it holds for every
weight vector, so breaking it proves infeasibility at any alpha.  The
paper's alpha is the floor, where every failure propagates as the analysis
prescribes.  The halvings form a geometric sum, so one call costs at most
twice what it costs at the floor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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
from .refine import GammaSolverContract, certified_solve, refine_steps

MAX_MWU_P = 16.0

TAU_BASE = 40.0       # tau = 40^p * d^{(p-2)(p-1)/(3p-2)}
# The paper's alpha, d^{-(p^2-5p+2)/(p(3p-2))} / (1000 p), is the floor of
# the step schedule; the schedule starts at the same formula with 1000
# replaced by ALPHA_BASE, i.e. 1000 times larger.
PAPER_ALPHA_BASE = 1000.0
ALPHA_BASE = 1.0
KAPPA_BASE = 1.0      # kappa = p * d^{1/p}


def _tol(*vals) -> float:
    """Absolute assertion slack, inflated to sit above fp noise at scale."""
    return 1e-9 + 4e-12 * sum(abs(float(v)) for v in vals)


@dataclass
class ResidualInstance:
    """A scaled residual problem (A, g, R, p), optionally with a witness."""

    A: DenseMatrix
    g: np.ndarray
    R: np.ndarray
    p: float
    witness: np.ndarray | None = None

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        if self.g.shape != (self.A.d,):
            raise InvalidInputError("gradient must have length d")
        if self.p < 2:
            raise InvalidInputError("residual solver requires p >= 2")
        if self.p > MAX_MWU_P:
            raise InvalidInputError(
                f"p = {self.p} exceeds the width-reduction cap {MAX_MWU_P}; "
                "use the acceleration path")

    def witness_slack(self) -> tuple[float, float, float] | None:
        """(g-constraint error, quad, lp norm) at the witness, if present."""
        if self.witness is None:
            return None
        ax = self.A.a @ self.witness
        quad = float(ax @ (self.R * ax))
        return (abs(float(self.g @ self.witness) + 1.0), quad,
                float(np.linalg.norm(ax, self.p)))


def mwu_constants(p: float, d: int) -> tuple[float, float, float]:
    """(kappa, alpha, tau) for dimension d; alpha is the paper's, the floor."""
    kappa = KAPPA_BASE * p * d ** (1.0 / p)
    alpha = (d ** (-(p * p - 5 * p + 2) / (p * (3 * p - 2)))
             / (PAPER_ALPHA_BASE * p))
    tau = TAU_BASE ** p * d ** ((p - 2) * (p - 1) / (3 * p - 2))
    return kappa, alpha, tau


@dataclass
class AlphaSchedule:
    """The progress step of one solve, as a multiple of the paper's alpha.

    ``ratio`` starts at PAPER_ALPHA_BASE / ALPHA_BASE and only ever halves,
    never below 1 (the paper's alpha); ``halvings`` counts the halvings.
    """

    ratio: float = PAPER_ALPHA_BASE / ALPHA_BASE
    halvings: int = 0

    def halve(self) -> bool:
        """Halve toward the floor; False when already at it."""
        if self.ratio <= 1.0:
            return False
        self.ratio = max(self.ratio / 2.0, 1.0)
        self.halvings += 1
        return True


def energy_solve(A: DenseMatrix, D: np.ndarray, g: np.ndarray,
                 counter: SolveCounter | None = None,
                 phase: str | None = None):
    """Minimize x^T (A^T diag(D) A) x over g^T x = -1.

    Returns (z, value, err): the minimizer z = -(g^T B^{-1} g)^{-1} B^{-1} g,
    the optimal value (g^T B^{-1} g)^{-1}, and a first-order bound on the
    value's floating-point error, |x_hat . residual| scaled to the energy;
    it is what conditioning leaves behind after iterative refinement.
    """
    g = np.asarray(g, dtype=float)
    if not np.any(g):
        raise ZeroGradientError("energy solve needs g != 0")
    quality = {}
    bg = gram_solve_multi(A, D, g, counter=counter, phase=phase,
                          quality=quality)
    quad = float(g @ bg)
    if quad <= 0 or not math.isfinite(quad):
        raise InfeasibleError(f"gram quadratic form g^T B^-1 g = {quad:.3g}")
    value = 1.0 / quad
    # first-order value error plus the fp floor of the residual itself
    quad_err = (abs(float(bg @ quality["residual"]))
                + 2.3e-16 * quality["gram_scale"] * float(bg @ bg)
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
    z: np.ndarray | None = None
    az: np.ndarray | None = None
    energy: float | None = None
    energy_err: float = 0.0
    progress_steps: int = 0
    boost_steps: int = 0
    dirty: bool = True
    counter: SolveCounter = field(default_factory=SolveCounter)
    _phi: float | None = None

    @property
    def p(self) -> float:
        return self.inst.p

    def potential(self) -> float:
        if self._phi is None:
            self._phi = float(np.sum(self.s ** self.p))
        return self._phi

    def set_s(self, s: np.ndarray, diag_changed: bool = True):
        self.s = s
        self._phi = None
        if diag_changed:
            self.dirty = True

    def weights_diag(self) -> np.ndarray:
        return self.base_r + self.s ** (self.p - 2.0)

    def refresh(self, phase: str):
        """Re-solve the energy problem if the diagonal changed.

        Checks that the energy never decreased and that it stays below the
        bound implied by the existence assumption; breaking the latter means
        the instance is infeasible (or, with a verified witness, a bug).
        Assertion bands widen by the solve's own value-error estimate so
        conditioning cannot masquerade as a broken invariant.
        """
        if not self.dirty and self.z is not None:
            return
        z, e, err = energy_solve(self.inst.A, self.weights_diag(), self.inst.g,
                                 counter=self.counter, phase=phase)
        band = _tol(e, self.energy or 0.0) + 4.0 * (err + self.energy_err)
        if self.energy is not None and e < self.energy - band:
            raise PotentialViolationError(
                f"energy decreased: {self.energy:.6g} -> {e:.6g}")
        phi = self.potential()
        cap = 2.0 * phi ** (1.0 - 2.0 / self.p)
        if e > cap * (1 + 1e-9) + 1e-12 + 4.0 * err:
            if self.inst.witness is not None:
                raise PotentialViolationError(
                    f"energy bound broken with witness: {e:.6g} > {cap:.6g}")
            raise InfeasibleError(
                f"energy {e:.6g} exceeds {cap:.6g}; no feasible point exists")
        self.z, self.energy, self.energy_err = z, e, err
        self.dirty = False
        self.az = self.inst.A.a @ z


def new_state(inst: ResidualInstance, weights: LewisOverestimate,
              counter: SolveCounter | None = None,
              alpha_ratio: float = 1.0) -> MwuState:
    """Fresh loop state; alpha is ``alpha_ratio`` times the paper's."""
    d = inst.A.d
    kappa, alpha, tau = mwu_constants(inst.p, d)
    base_r = d ** (1.0 - 2.0 / inst.p) * inst.R
    return MwuState(inst=inst, s=weights.weights ** (1.0 / inst.p),
                    y=np.zeros(d), kappa=kappa, alpha=alpha * alpha_ratio,
                    tau=tau, base_r=base_r, counter=counter or SolveCounter())


def progress_step(state: MwuState, z: np.ndarray,
                  az: np.ndarray | None = None) -> MwuState:
    """y += alpha z, s += alpha |Az|; the potential may only creep up."""
    p, alpha = state.p, state.alpha
    if az is None:
        az = state.inst.A.a @ z
    az = np.abs(az)
    phi_old = state.potential()
    state.y += alpha * z
    if alpha != 0.0 and az.any():
        # At p = 2 the solve diagonal is s-independent, so z stays valid.
        state.set_s(state.s + alpha * az, diag_changed=p > 2.0)
    phi_new = state.potential()
    cap = (5 * p * alpha * phi_old ** (1 - 1.0 / p)
           + 3 * p ** p * alpha ** p * state.tau)
    if phi_new - phi_old > cap + _tol(phi_new, phi_old, cap):
        raise PotentialViolationError(
            f"progress potential jump {phi_new - phi_old:.6g} > {cap:.6g}")
    state.progress_steps += 1
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


def boosting_step(state: MwuState, z: np.ndarray) -> MwuState:
    """Raise weights on wide coordinates; the energy must jump by tau^{2/p}/16."""
    p = state.p
    if p == 2.0:
        # s^{p-2} is identically 1, so boosting cannot change the energy.
        raise InfeasibleError("wide solution at p = 2 admits no boost")
    if state.az is not None and z is state.z:
        az = state.az
    else:
        az = state.inst.A.a @ z
    pnorm = float(np.sum(np.abs(az) ** p))
    if pnorm < state.tau:
        raise InvalidInputError("boost requires ||Az||_p^p >= tau")
    phi_old = state.potential()
    hypo = 2.0 ** p * state.kappa ** (-(p - 2.0)) * phi_old ** (1 - 2.0 / p)
    if hypo > state.tau / 4 * (1 + 1e-9):
        if state.inst.witness is not None:
            raise PotentialViolationError("boost hypothesis broken with witness")
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
            boosting_step(state, state.z)
        progress_step(state, state.z, az=state.az)
    return state.y / (state.alpha * steps)


def output_bounds(inst: ResidualInstance,
                  y: np.ndarray) -> tuple[float, float]:
    """(||Ay||_p, y^T A^T R A y), checked against the oracle's guarantee."""
    p = inst.p
    gerr = abs(float(inst.g @ y) + 1.0)
    if gerr > 1e-9:
        raise PotentialViolationError(f"returned g^T y = -1 off by {gerr:.3g}")
    ay = inst.A.a @ y
    pn = float(np.linalg.norm(ay, p))
    quad = float(ay @ (inst.R * ay))
    if pn > 80.0 * p * (1 + 1e-9) or quad > 4.0 * (20.0 * p) ** (p - 2.0) * (1 + 1e-9):
        if inst.witness is not None:
            raise PotentialViolationError(
                f"output bounds broken with witness: lp={pn:.4g}, quad={quad:.4g}")
        raise StepBoundError(
            f"output bounds failed (lp={pn:.4g}, quad={quad:.4g}); "
            "instance looks infeasible")
    return pn, quad


def width_reduced_oracle(inst: ResidualInstance,
                         counter: SolveCounter | None = None,
                         weights: LewisOverestimate | None = None,
                         schedule: AlphaSchedule | None = None):
    """Run the width-reduction loop and return (y, info).

    The returned y satisfies g^T y = -1 with ||Ay||_p <= 80 p and
    y^T A^T R A y <= 4 (20 p)^{p-2}; instances violating the existence
    assumption raise InfeasibleError as soon as the energy bookkeeping
    detects them.  The loop runs at ``schedule``'s alpha (a fresh
    :class:`AlphaSchedule` when None) and reruns at a halved alpha after a
    failure alpha can cause (see the module docstring); the step counts in
    ``info`` cover every run.
    """
    p = inst.p
    if weights is None:
        weights = lewis_overestimates(inst.A, p)
    counter = counter if counter is not None else SolveCounter()
    schedule = schedule if schedule is not None else AlphaSchedule()
    if inst.witness is not None:
        gerr, quad, pn = inst.witness_slack()
        if gerr > 1e-6 or quad > 1 + 1e-6 or pn > 1 + 1e-6:
            raise InvalidInputError(
                f"witness violates the instance contract: {gerr:.2g}, "
                f"{quad:.4g}, {pn:.4g}")

    progress_steps = boost_steps = 0
    while True:
        state = new_state(inst, weights, counter=counter,
                          alpha_ratio=schedule.ratio)
        try:
            y = reduce_width(state)
            pn, quad = output_bounds(inst, y)
            break
        except (StepBoundError, BoostBudgetExceededError):
            if state.progress_steps == 0 or not schedule.halve():
                raise
        finally:
            progress_steps += state.progress_steps
            boost_steps += state.boost_steps
    info = {
        "progress_steps": progress_steps,
        "boost_steps": boost_steps,
        "gram_solves": counter.gram_solves,
        "lp_norm": pn,
        "quad": quad,
        "final_potential": state.potential(),
        "final_energy": state.energy,
    }
    return y, info


def gamma_value(p: float) -> float:
    """Approximation factor certified by the width-reduction solver."""
    return (80.0 * p) ** p


class MwuGammaSolver:
    """Adapter exposing the width-reduction loop as a residual-step solver.

    Weight overestimates depend only on the design matrix, so they are
    computed once and reused across calls; leverage scores are invariant
    under the per-call uniform rescaling of A.  One :class:`AlphaSchedule`
    serves every call of a solve; ``counts`` records it.
    """

    def __init__(self, A: DenseMatrix, p: float,
                 counter: SolveCounter | None = None):
        self.p = float(p)
        self.gamma = gamma_value(self.p)
        self.counter = counter if counter is not None else SolveCounter()
        self.schedule = AlphaSchedule()
        self.counts = {"progress_steps": 0, "boost_steps": 0,
                       "alpha_halvings": 0,
                       "alpha_over_floor": self.schedule.ratio}
        self.A = A
        self.weights = lewis_overestimates(A, self.p)

    def __call__(self, nu: float, g: np.ndarray, R: np.ndarray,
                 x: np.ndarray | None = None):
        if nu <= 0:
            raise InvalidInputError("nu must be positive")
        p = self.p
        g_eff = self.A.a.T @ np.asarray(g, dtype=float)
        scale_a = (2.0 ** (p + 1) * nu) ** (-1.0 / p)
        inst = ResidualInstance(
            A=DenseMatrix.trusted(scale_a * self.A.a),
            g=g_eff / nu,
            R=R * (p / (8.0 * nu)) / scale_a ** 2,
            p=p,
        )
        try:
            y, info = width_reduced_oracle(inst, counter=self.counter,
                                           weights=self.weights,
                                           schedule=self.schedule)
        finally:
            self.counts.update(alpha_halvings=self.schedule.halvings,
                               alpha_over_floor=self.schedule.ratio)
        for key in ("progress_steps", "boost_steps"):
            self.counts[key] += info[key]
        return y


def solve_mwu(instance: ProblemInstance, seed=0,
              counter: SolveCounter | None = None):
    """Full solve: iterative refinement with width-reduced steps, certified."""
    counter = counter if counter is not None else SolveCounter()

    def make_steps(unit):
        solver = MwuGammaSolver(unit.A, unit.p, counter=counter)
        return refine_steps(unit, GammaSolverContract(solver.gamma, solver),
                            counter, counts=solver.counts)

    return certified_solve(instance, "mwu", make_steps, counter=counter,
                           seed=seed)
