"""Instance generators, independent optimum oracles, and experiment runner.

The oracle here is deliberately implemented against raw numpy routines and
shares nothing with the solver modules beyond matrix storage, so solver
accuracy claims are checked against genuinely independent ground truth.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .accel import MAX_ACCEL_P, solve_pnorm_accel
from .dual import solve_lq
from .errors import InvalidInputError, LpregError, NoConvergenceError
from .linalg import DenseMatrix
from .linf import linf_regress
from .mwu import MAX_MWU_P, solve_mwu
from .problem import MIN_EPS, ProblemInstance, pnorm
from .report import SolveReport

FAMILIES = ("gaussian", "ill_conditioned", "planted_residual", "coherent_rows")
METHODS = ("mwu", "accel", "dual", "linf", "refine")
MAX_N, MAX_D = 2000, 64
# oracle_opt's desk-scale caps, which a config with "oracle" must meet
ORACLE_MAX_N, ORACLE_MAX_D = 500, 20

ILL_COND_DECADES = 6.0


def _desk_scale(n: int, d: int) -> bool:
    return 1 <= d <= min(n, MAX_D) and n <= MAX_N


def _rng_for(family: str, n: int, d: int, seed: int) -> np.random.Generator:
    return np.random.default_rng(
        [FAMILIES.index(family), n, d, int(seed)])


def gen_instance(family: str, n: int, d: int, seed: int, p: float = 2.0,
                 eps: float = 1e-6) -> ProblemInstance:
    """Deterministic test instance; same arguments give the same bytes."""
    if family not in FAMILIES:
        raise InvalidInputError(f"unknown family {family!r}")
    if not _desk_scale(n, d):
        raise InvalidInputError(f"size {n} x {d} outside desk-scale caps")
    if seed < 0:
        raise InvalidInputError(f"seed {seed} is negative")
    rng = _rng_for(family, n, d, seed)
    if family == "gaussian":
        a = rng.standard_normal((n, d))
        b = rng.standard_normal(n)
    elif family == "ill_conditioned":
        qu, _ = np.linalg.qr(rng.standard_normal((n, d)))
        qv, _ = np.linalg.qr(rng.standard_normal((d, d)))
        sing = 10.0 ** (-ILL_COND_DECADES * np.arange(d) / max(d - 1, 1))
        a = qu @ (sing[:, None] * qv.T)
        b = rng.standard_normal(n)
    elif family == "planted_residual":
        a = rng.standard_normal((n, d))
        planted = rng.standard_normal(d)
        spikes = np.zeros(n)
        heavy = rng.choice(n, size=max(n // 10, 1), replace=False)
        spikes[heavy] = rng.standard_normal(heavy.size) * 2.0
        b = a @ planted + spikes + 0.01 * rng.standard_normal(n)
    else:  # coherent_rows
        a = rng.standard_normal((n, d))
        a[0] *= 50.0
        b = rng.standard_normal(n)
    return ProblemInstance(DenseMatrix(a), b, p, eps=eps)


def _newton_polish(a: np.ndarray, b: np.ndarray, x: np.ndarray, p: float,
                   tol: float, max_iter: int = 500) -> np.ndarray:
    """Second-order descent on sum |ax-b|^p, p >= 2, run to convergence.

    Each step searches the exact minimizer along the (lightly damped)
    Newton direction.  Where the objective behaves like a p-th power, a
    unit Newton step covers only 1/(p-1) of the way, so at large p a fixed
    step length stalls far from the optimum.  Stops once the gradient is
    below ``tol`` relative to f or a step no longer decreases f.
    """
    from scipy.optimize import brentq

    fx = float(np.sum(np.abs(a @ x - b) ** p))
    for _ in range(max_iter):
        u = a @ x - b
        w = np.abs(u) ** (p - 2.0)
        grad = p * (a.T @ (w * u))
        if float(np.linalg.norm(grad)) <= tol * max(fx, 1e-300):
            break
        hess = p * (p - 1.0) * (a * w[:, None]).T @ a
        lam = 1e-14 * max(float(np.trace(hess)), 1e-300)
        step = np.linalg.solve(hess + lam * np.eye(a.shape[1]), -grad)
        v = a @ step

        def slope(t):
            ut = u + t * v
            return float(np.sum(np.abs(ut) ** (p - 2.0) * ut * v))

        if not slope(0.0) < 0.0:
            break
        t_lo, t_hi = 0.0, 1.0
        while (s_hi := slope(t_hi)) < 0.0 and t_hi < 1e6:
            t_lo, t_hi = t_hi, 2.0 * t_hi
        t = brentq(slope, t_lo, t_hi, xtol=1e-300) if s_hi > 0.0 else t_hi
        f_new = float(np.sum(np.abs(u + t * v) ** p))
        if not f_new < fx:
            break
        x, fx = x + t * step, f_new
    return x


def _smoothed_small_q(a: np.ndarray, b: np.ndarray, q: float,
                      tol: float) -> np.ndarray:
    """Continuation on sum (u^2 + delta^2)^{q/2}, delta -> 0, for q < 2."""
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    u0 = a @ x - b
    delta = max(float(np.max(np.abs(u0))), 1.0) * 0.1
    floor = 1e-14 * max(float(np.max(np.abs(u0))), 1.0)
    while True:
        for _ in range(100):
            u = a @ x - b
            w = (u * u + delta * delta) ** (q / 2.0 - 1.0)
            grad = q * (a.T @ (w * u))
            curv = q * w * (1.0 + (q - 2.0) * u * u / (u * u + delta * delta))
            hess = (a * curv[:, None]).T @ a
            try:
                step = np.linalg.solve(hess + 1e-14 * np.eye(a.shape[1]), -grad)
            except np.linalg.LinAlgError:
                break
            f_cur = float(np.sum((u * u + delta * delta) ** (q / 2.0)))
            t_step = 1.0
            for _ in range(60):
                un = a @ (x + t_step * step) - b
                if float(np.sum((un * un + delta * delta) ** (q / 2.0))) < f_cur:
                    break
                t_step *= 0.5
            else:
                break
            x = x + t_step * step
            if np.linalg.norm(t_step * step) <= 1e-15 * (1 + np.linalg.norm(x)):
                break
        if delta <= floor:
            return x
        delta = max(delta * 0.03, floor * 0.99)


def _linf_linear_program(a: np.ndarray, b: np.ndarray) -> float:
    """Exact minimax optimum: minimize t over -t <= ax - b <= t."""
    from scipy.optimize import linprog

    n, d = a.shape
    cost = np.zeros(d + 1)
    cost[-1] = 1.0
    a_ub = np.block([[a, -np.ones((n, 1))], [-a, -np.ones((n, 1))]])
    b_ub = np.concatenate([b, -b])
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * (d + 1), method="highs")
    if res.status != 0:
        raise NoConvergenceError(f"minimax linear program: {res.message}")
    return float(res.fun)


def oracle_opt(instance: ProblemInstance, tol: float = 1e-9) -> float:
    """Independent high-accuracy optimum of min ||Ax - b||_p.

    Shares only matrix storage with the solver modules.  Smooth exponents
    use descent plus damped second-order polishing (with a smoothing
    continuation below 2); the minimax case is an exact linear program.
    """
    A, b, p = instance.A, instance.b, instance.p
    if A.n > ORACLE_MAX_N or A.d > ORACLE_MAX_D:
        raise InvalidInputError(f"oracle is desk-scale only (n <= {ORACLE_MAX_N}, "
                                f"d <= {ORACLE_MAX_D})")
    # Rescale A and b by powers of two (exact, so the optimum scales with b
    # alone), then shift out the least-squares fit and normalize: exact
    # symmetries that keep tiny, huge and nearly consistent data resolvable
    # in floating point.
    b_exp = -math.frexp(float(np.max(np.abs(b))))[1]
    a = np.ldexp(A.a, -math.frexp(float(np.max(np.abs(A.a))))[1])
    b = np.ldexp(b, b_exp)
    resid0 = b - a @ np.linalg.lstsq(a, b, rcond=None)[0]
    norm0 = float(np.linalg.norm(resid0))
    if not norm0 > 1e-14 * float(np.linalg.norm(b)):
        return 0.0
    scale = math.ldexp(norm0, -b_exp)
    b = resid0 / norm0
    x = np.zeros(A.d)
    if p == 2.0:
        return scale * float(np.linalg.norm(b))
    if p == math.inf:
        return scale * _linf_linear_program(a, b)
    if p > 2.0:
        # a few safeguarded first-order steps, then quadratic convergence
        fx = float(np.sum(np.abs(a @ x - b) ** p))
        for _ in range(20):
            u = a @ x - b
            grad = p * (a.T @ (np.abs(u) ** (p - 2.0) * u))
            t_step = 1.0 / max(float(np.linalg.norm(grad)), 1e-30)
            while t_step > 1e-30:
                f_new = float(np.sum(np.abs(a @ (x - t_step * grad) - b) ** p))
                if f_new <= fx - 1e-4 * t_step * float(grad @ grad):
                    x = x - t_step * grad
                    fx = f_new
                    break
                t_step *= 0.5
        x = _newton_polish(a, b, x, p, tol * 1e-3)
        return scale * pnorm(a @ x - b, p)
    x = _smoothed_small_q(a, b, p, tol)
    return scale * pnorm(a @ x - b, p)


def solve(instance: ProblemInstance, method: str, seed: int = 0):
    """Route the method, check its support cap, and dispatch.

    Returns (x, SolveReport), with ``seed`` recorded on the report.
    ``refine`` routes p = inf to linf, p < 2 to dual and every other p to
    mwu.  Only the caps MAX_MWU_P and MAX_ACCEL_P are checked here; each
    entry point rejects exponents outside its domain.  Every method runs
    inside :func:`lpreg.refine.certified_solve`, which rescales the data
    exactly and shifts out the least-squares fit, so results do not depend
    on the scale of the data.
    """
    if method not in METHODS:
        raise InvalidInputError(f"unknown method {method!r}")
    p = instance.p
    if method == "refine":
        method = "linf" if p == math.inf else "dual" if p < 2 else "mwu"
    if method == "mwu" and p > MAX_MWU_P:
        raise InvalidInputError(f"mwu requires p <= {MAX_MWU_P}")
    if method == "accel" and p > MAX_ACCEL_P:
        raise InvalidInputError(f"accel requires p <= {MAX_ACCEL_P}")
    entry = {"mwu": solve_mwu, "accel": solve_pnorm_accel, "dual": solve_lq,
             "linf": linf_regress}[method]
    x, report = entry(instance)
    report.seed = seed
    return x, report


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return _is_int(v) or isinstance(v, float)


@dataclass
class ExperimentConfig:
    """One benchmark sweep: a method on a family across sizes and seeds."""

    method: str
    p: float
    eps: float
    family: str
    sizes: list
    seeds: list
    output_dir: str
    oracle: bool = False
    oracle_tol: float = 1e-9

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidInputError(f"unknown method {self.method!r}")
        if self.family not in FAMILIES:
            raise InvalidInputError(f"unknown family {self.family!r}")
        if isinstance(self.p, str):
            try:
                self.p = float(self.p)
            except ValueError as exc:
                raise InvalidInputError(f"bad exponent {self.p!r}") from exc
        if not _is_real(self.p):
            raise InvalidInputError(f"bad exponent {self.p!r}")
        if not (_is_real(self.eps) and MIN_EPS <= self.eps < 1):
            raise InvalidInputError(
                f"eps {self.eps!r} is not a number in [{MIN_EPS:g}, 1)")
        if not isinstance(self.sizes, (list, tuple)):
            raise InvalidInputError(
                f"sizes {self.sizes!r} is not a list of [n, d] pairs")
        for size in self.sizes:
            if not (isinstance(size, (list, tuple)) and len(size) == 2
                    and all(map(_is_int, size))):
                raise InvalidInputError(f"size {size!r} is not an [n, d] pair")
            if not _desk_scale(*size):
                raise InvalidInputError(f"size {size} outside desk-scale caps")
        if not (isinstance(self.seeds, (list, tuple)) and self.seeds
                and all(_is_int(s) and s >= 0 for s in self.seeds)):
            raise InvalidInputError(
                "seeds must be a non-empty list of non-negative ints")
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise InvalidInputError(
                f"output_dir {self.output_dir!r} is not a path")
        if not isinstance(self.oracle, bool):
            raise InvalidInputError(f"oracle {self.oracle!r} is not a boolean")
        if not (_is_real(self.oracle_tol) and 0 < self.oracle_tol < math.inf):
            raise InvalidInputError(
                f"oracle_tol {self.oracle_tol!r} is not a positive number")
        if self.oracle and any(n > ORACLE_MAX_N or d > ORACLE_MAX_D
                               for n, d in self.sizes):
            raise InvalidInputError(
                f"the oracle is desk-scale only (n <= {ORACLE_MAX_N}, "
                f"d <= {ORACLE_MAX_D})")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise InvalidInputError("bad config: expected a JSON object")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise InvalidInputError(f"bad config: {exc}") from exc


def fit_loglog_slope(ds, counts) -> float:
    """Least-squares slope of log(count) against log(d)."""
    xs = np.log(np.asarray(ds, dtype=float))
    ys = np.log(np.asarray(counts, dtype=float))
    xs = xs - xs.mean()
    denom = float(xs @ xs)
    if denom == 0:
        return 0.0
    return float(xs @ (ys - ys.mean())) / denom


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the sweep; writes per-run JSON, an aggregate CSV, and a summary.

    Solver errors are recorded per row and the sweep continues.  Outputs
    are deterministic functions of the config (wall time is kept out of
    the CSV).  Each row carries the Gram solves (the paper's unit) and the
    factorizations next to them.  With two or more dimensions the summary
    holds, per d, the mean Gram solves, their log-log slope, the mean
    factorizations and, for solvers with a step schedule, the mean number
    of backoffs: alpha halvings (``mwu``) or rejected proximal trial steps
    (``accel``); for ``dual``, the mean warm-started and stall recoveries.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for n, d in config.sizes:
        for seed in config.seeds:
            instance = gen_instance(config.family, n, d, seed, p=config.p,
                                    eps=config.eps)
            tag = f"{config.method}_{config.family}_{n}x{d}_s{seed}"
            oracle_error = None
            try:
                x, report = solve(instance, config.method, seed=seed)
                if config.oracle:
                    opt = oracle_opt(instance, tol=config.oracle_tol)
                    if opt > 0:
                        oracle_error = report.residual_lp / opt - 1.0
            except LpregError as exc:
                report = SolveReport(method=config.method, p=config.p,
                                     eps=config.eps, n=n, d=d, seed=seed,
                                     error=f"{type(exc).__name__}: {exc}")
            (out / f"{tag}.json").write_text(report.to_json(indent=2))
            rows.append((report, oracle_error))
    csv_path = out / "results.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "d", "method", "p", "eps", "gram_solves",
                         "factorizations", "certified_gap", "oracle_error",
                         "error"])
        for r, oracle_error in rows:
            writer.writerow([
                r.n, r.d, r.method, "inf" if r.p == math.inf else repr(r.p),
                repr(r.eps), r.gram_solves,
                r.phase_counts.get("factorizations", 0),
                "" if r.certified_gap is None else repr(r.certified_gap),
                "" if oracle_error is None else repr(oracle_error),
                r.error or ""])
    ok = [r for r, _ in rows if r.error is None]
    summary = {"rows": len(rows), "failures": len(rows) - len(ok)}
    if ok:
        per_d = {}
        for r in ok:
            per_d.setdefault(r.d, []).append(r)
        if len(per_d) >= 2:
            ds = sorted(per_d)
            means = [float(np.mean([r.gram_solves for r in per_d[d]]))
                     for d in ds]
            summary["dims"] = ds
            summary["mean_gram_solves"] = means
            summary["loglog_slope"] = fit_loglog_slope(ds, means)
            summary["mean_factorizations"] = [
                float(np.mean([r.phase_counts["factorizations"]
                               for r in per_d[d]])) for d in ds]
            for key in ("alpha_halvings", "prox_backtracks",
                        "warm_recoveries", "stall_recoveries"):
                if any(key in r.phase_counts for r in ok):
                    summary[f"mean_{key}"] = [
                        float(np.mean([r.phase_counts.get(key, 0)
                                       for r in per_d[d]])) for d in ds]
    (out / "summary.json").write_text(json.dumps(summary, indent=2,
                                                 sort_keys=True))
    return summary
