"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them inline).
The expensive solver sweeps are shared between criteria through
module-scoped fixtures.
"""
import math
import time
from functools import partial

import numpy as np
import pytest

from lpreg.accel import ProxProblem
from lpreg.errors import (
    EnergyIncreaseViolationError,
    LpregError,
    PotentialViolationError,
)
from lpreg.harness import (
    ExperimentConfig,
    gen_instance,
    oracle_opt,
    run_experiment,
    solve,
)
from lpreg.lewis import (
    half_minus_inv,
    lewis_overestimates,
    reg_lewis,
    row_scale,
)
from lpreg.linalg import DenseMatrix, SolveCounter, leverage_scores
from lpreg.mwu import AlphaSchedule, energy_solve, width_reduced_oracle
from lpreg.problem import ProblemInstance, pnorm

from diagnostics import (
    exact_lewis_oracle,
    hessian_stability_check,
    norm_sandwich_check,
    plant_dual_instance,
    plant_residual_instance,
    prox_f,
    prox_f_reg,
    prox_grad_f_reg,
    reg_lewis_residual,
    strong_convexity_check,
)

FAMILIES = ("gaussian", "ill_conditioned", "planted_residual", "coherent_rows")
SIZE_BY_P = {2.0: (60, 5), 3.0: (50, 4), 4.0: (40, 4), 8.0: (30, 3)}
ASSERTION_ERRORS = (PotentialViolationError, EnergyIncreaseViolationError)


def conclude(name: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def pnorm_sweep():
    """Criterion-1 sweep: 20 instances per family, both high-p solvers."""
    rows = []
    started = time.perf_counter()
    for family in FAMILIES:
        for i in range(20):
            p = (2.0, 3.0, 4.0, 8.0)[i % 4]
            n0, d = SIZE_BY_P[p]
            inst = gen_instance(family, n0 + 2 * (i // 4), d, i, p=p, eps=1e-6)
            opt = oracle_opt(inst, tol=1e-9)
            for method in ("mwu", "accel"):
                entry = {"family": family, "p": p, "method": method,
                         "opt": opt, "residual": math.inf, "error": None}
                try:
                    x, rep = solve(inst, method, seed=i)
                    entry["residual"] = rep.residual_lp
                except LpregError as exc:
                    entry["error"] = exc
                rows.append(entry)
    return {"rows": rows, "elapsed": time.perf_counter() - started}


def test_criterion_01_high_p_accuracy(pnorm_sweep):
    bad = []
    for row in pnorm_sweep["rows"]:
        if row["error"] is not None:
            bad.append(f"{row['method']} {row['family']} p={row['p']}: "
                       f"{type(row['error']).__name__}")
        elif row["residual"] > (1 + 1e-6) * row["opt"] + 1e-300:
            bad.append(f"{row['method']} {row['family']} p={row['p']}: "
                       f"{row['residual']:.9g} vs {row['opt']:.9g}")
    conclude("criterion 1 (p>=2 accuracy, mwu+accel, 160 solves)",
             not bad,
             f"elapsed {pnorm_sweep['elapsed']:.0f}s" if not bad
             else "; ".join(bad[:4]))


def test_criterion_02_small_q_accuracy():
    started = time.perf_counter()
    bad = []
    for family in FAMILIES:
        for i in range(20):
            q = (1.25, 1.5, 2.0)[i % 3]
            inst = gen_instance(family, 50 + 2 * i, 4, 100 + i, p=q, eps=1e-6)
            opt = oracle_opt(inst, tol=1e-9)
            try:
                x, rep = solve(inst, "dual", seed=i)
                if rep.residual_lp > (1 + 1e-6) * opt + 1e-300:
                    bad.append(f"{family} q={q}: {rep.residual_lp:.9g} "
                               f"vs {opt:.9g}")
            except LpregError as exc:
                bad.append(f"{family} q={q}: {type(exc).__name__}")
    conclude("criterion 2 (q<=2 accuracy, dual, 80 solves)", not bad,
             f"elapsed {time.perf_counter() - started:.0f}s" if not bad
             else "; ".join(bad[:4]))


def test_criterion_03_minimax_accuracy():
    started = time.perf_counter()
    bad = []
    for i in range(20):
        family = FAMILIES[i % 4]
        inst_base = gen_instance(family, 60 + 3 * i, 4, 200 + i, p=math.inf)
        opt = oracle_opt(ProblemInstance(inst_base.A, inst_base.b, math.inf),
                         tol=1e-8)
        for eps in (1e-1, 1e-2):
            inst = ProblemInstance(inst_base.A, inst_base.b, math.inf, eps=eps)
            try:
                x, rep = solve(inst, "linf", seed=i)
                if rep.residual_lp > (1 + eps) * opt + 1e-300:
                    bad.append(f"{family} eps={eps}: {rep.residual_lp:.6g} "
                               f"vs {opt:.6g}")
            except LpregError as exc:
                bad.append(f"{family} eps={eps}: {type(exc).__name__}")
    conclude("criterion 3 (minimax accuracy, 40 solves)", not bad,
             f"elapsed {time.perf_counter() - started:.0f}s" if not bad
             else "; ".join(bad[:4]))


@pytest.fixture(scope="module")
def weight_certificates():
    cases = []
    for i in range(20):
        rng = np.random.default_rng(300 + i)
        n = int(rng.integers(25, 120))
        d = int(rng.integers(2, 9))
        A = DenseMatrix(rng.standard_normal((n, d)))
        for p in (2.0, 3.0, 4.0, 8.0, math.inf):
            cases.append((A, p, lewis_overestimates(A, p)))
    return cases


def test_criterion_04_weight_certificates(weight_certificates):
    bad = []
    for A, p, est in weight_certificates:
        mass_ok = A.d - 1e-9 <= est.mass <= 2 * A.d + 1e-9
        sig = leverage_scores(A, row_scale(est.weights, half_minus_inv(p)))
        dom_ok = bool(np.all(est.weights + 1e-8 >= sig))
        if not (mass_ok and dom_ok):
            bad.append(f"p={p}: mass={est.mass:.4g}, "
                       f"margin={float(np.min(est.weights - sig)):.3g}")
    conclude("criterion 4 (weight certificates, 100 cases)", not bad,
             "" if not bad else "; ".join(bad[:4]))


def test_criterion_05_norm_sandwich(weight_certificates):
    violations = 0
    for A, p, est in weight_certificates:
        rng = np.random.default_rng(hash((A.n, A.d, p)) % 2 ** 31)
        for _ in range(100):
            x = rng.standard_normal(A.d)
            lp, wl2, up = norm_sandwich_check(A, est, x)
            if lp > wl2 * (1 + 1e-10) or wl2 > up * (1 + 1e-10):
                violations += 1
    conclude("criterion 5 (norm sandwich, 10000 samples)", violations == 0,
             f"{violations} violations")


def test_criterion_06_energy_increase():
    failures = 0
    worst = math.inf
    for p in (3.0, 4.0, 8.0):
        for trial in range(50):
            rng = np.random.default_rng(5000 + trial)
            n, d = int(rng.integers(15, 60)), int(rng.integers(2, 7))
            A = DenseMatrix(rng.standard_normal((n, d)))
            w = lewis_overestimates(A, p).weights
            D = w ** (1.0 - 2.0 / p) + rng.uniform(0, 1, n)
            g = rng.standard_normal(d)
            v = rng.uniform(0.0, 1.0, n)
            v *= rng.uniform(0.05, 1.0) / float(
                np.sum(v ** (p / (p - 2.0)))) ** ((p - 2.0) / p)
            counter = SolveCounter()
            y, e_old, _ = energy_solve(A, D, g, counter, "progress")
            _, e_new, _ = energy_solve(A, D + v, g, counter, "progress")
            slack = e_new - e_old - 0.5 * float(v @ (A.a @ y) ** 2)
            worst = min(worst, slack)
            if slack < -1e-9:
                failures += 1
    conclude("criterion 6 (energy increase, 150 trials)", failures == 0,
             f"worst slack {worst:.3g}")


def test_criterion_07_potential_bookkeeping(pnorm_sweep):
    # the width-reduction loop asserts its potential inequalities inline,
    # so it suffices that no assertion-class error surfaced in the sweep
    fired = [row for row in pnorm_sweep["rows"]
             if isinstance(row["error"], ASSERTION_ERRORS)]
    # plus planted feasible instances, which must pass every inline check
    # at the starting alpha: a halving is the only way a failed step or
    # output bound could be absorbed instead of raised
    for seed in range(6):
        inst = plant_residual_instance(60, 5, 4.0, seed=seed)
        schedule = AlphaSchedule()
        width_reduced_oracle(inst, SolveCounter(),
                             lewis_overestimates(inst.A, 4.0), schedule)
        if schedule.ratio != AlphaSchedule().ratio:
            fired.append(f"planted seed {seed} halved alpha")
    conclude("criterion 7 (potential bookkeeping never fires)", not fired,
             "" if not fired else f"{len(fired)} assertion errors")


def test_criterion_08_hessian_stability():
    rng = np.random.default_rng(42)
    worst = 0.0
    pairs = 0
    for p in (2.0, 3.0, 4.0, 8.0):
        for k in range(20):
            rng_k = np.random.default_rng(900 + 31 * k + int(p))
            n, d = int(rng_k.integers(20, 60)), int(rng_k.integers(2, 6))
            A = DenseMatrix(rng_k.standard_normal((n, d)))
            b = rng_k.standard_normal(n)
            w = lewis_overestimates(A, p)
            y = rng_k.standard_normal(d)
            prob = ProxProblem(A, b, p, w, y)
            step = rng_k.standard_normal(d)
            x = y + step / max(prob.m_norm(step), 1e-12)
            worst = max(worst, hessian_stability_check(y, x, prob,
                                                       samples=200, seed=k))
            pairs += 1
    # finite-difference gradient agreement
    fd_ok = True
    A_fd = DenseMatrix(rng.standard_normal((20, 3)))
    prob = ProxProblem(A_fd, rng.standard_normal(20), 4.0,
                       lewis_overestimates(A_fd, 4.0),
                       rng.standard_normal(3))
    for fn, grad_fn in ((partial(prox_f, prob), prob.grad_f),
                        (partial(prox_f_reg, prob),
                         partial(prox_grad_f_reg, prob))):
        x = prob.center + 0.2 * rng.standard_normal(3)
        g = grad_fn(x)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1e-6
            fd = (fn(x + e) - fn(x - e)) / 2e-6
            if abs(fd - g[i]) > 1e-5 * max(abs(g[i]), 1e-6):
                fd_ok = False
    conclude("criterion 8 (hessian stability, 80 pairs x 200 dirs)",
             worst <= 1.0 + 1e-8 and fd_ok,
             f"worst ratio {worst:.12f}")


def test_criterion_09_scalar_grids():
    bad = []
    v3 = np.linspace(-3.0, 3.0, 601)
    x, d = np.meshgrid(v3, v3, indexing="ij")
    for p in (2.0, 2.5, 3.0, 4.0, 8.0):
        r = np.abs(x) ** (p - 2.0)
        actual = np.abs(x + d) ** p - np.abs(x) ** p - p * r * x * d
        lower = (p / 8.0) * r * d ** 2 + 2.0 ** (-p - 1) * np.abs(d) ** p
        upper = 2.0 * p ** 2 * r * d ** 2 + p ** p * np.abs(d) ** p
        tol = 1e-8 + 1e-12 * np.maximum(np.abs(actual), upper)
        if not (np.all(lower <= actual + tol) and np.all(actual <= upper + tol)):
            bad.append(f"refine sandwich p={p}")
    v5 = np.linspace(0.0, 5.0, 501)
    a, b = np.meshgrid(v5, v5, indexing="ij")
    for k in (2.0, 3.0, 4.0, 7.5, 10.0):
        lhs = (a + b) ** k - a ** k
        rhs = 3 * k * a ** (k - 1) * b + 3 * k ** k * b ** k
        if not np.all(lhs <= rhs + 1e-9 + 1e-12 * rhs):
            bad.append(f"linear-plus-power k={k}")
    for k in (1.0, 1.3, 2.0, 5.0):
        lhs = (a + b) ** k - a ** k
        rhs = 4.0 ** k * (a ** (k - 1) * b + b ** k)
        if not np.all(lhs <= rhs + 1e-9 + 1e-12 * rhs):
            bad.append(f"four-to-the-k k={k}")
    v4 = np.linspace(-4.0, 4.0, 801)
    x4, y4 = np.meshgrid(v4, v4, indexing="ij")
    for p in (2.5, 3.0, 4.0, 8.0):
        lhs = np.abs(x4 + y4) ** (p - 2)
        rhs = math.e * np.abs(x4) ** (p - 2) + p ** (p - 2) * np.abs(y4) ** (p - 2)
        if not np.all(lhs <= rhs + 1e-9 + 1e-12 * rhs):
            bad.append(f"shifted power p={p}")
    rng = np.random.default_rng(77)
    for p in (1.5, 2.0, 3.0, 4.0, 8.0):
        for _ in range(100):
            if not strong_convexity_check(rng.uniform(-3, 3, 4),
                                          rng.uniform(-3, 3, 4), p):
                bad.append(f"uniform convexity p={p}")
                break
    conclude("criterion 9 (scalar inequality grids)", not bad,
             "" if not bad else "; ".join(bad[:4]))


def test_criterion_10_iteration_scaling(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "acceptance_scaling"
    cfg = ExperimentConfig(
        method="mwu", p=4.0, eps=1e-3, family="gaussian",
        sizes=[[160, 8], [320, 16], [640, 32], [1280, 64]],
        seeds=[0, 1, 2], output_dir=str(out))
    summary = run_experiment(cfg)
    slope = summary.get("loglog_slope", math.inf)
    ok = summary["failures"] == 0 and slope <= 0.35
    conclude("criterion 10 (iteration scaling)", ok,
             f"slope {slope:.3f} (theory 0.2, cap 0.35), "
             f"means {summary.get('mean_gram_solves')}, "
             f"elapsed {time.perf_counter() - started:.0f}s, "
             f"table archived in {out}")


def test_criterion_11_dual_postconditions():
    bad = []
    for q in (1.25, 1.5):
        p = q / (q - 1.0)
        for seed in range(10):
            inst = plant_dual_instance(60, 4, q, seed)
            m = inst.U.d
            try:
                from lpreg.dual import oracle_small
                y = oracle_small(inst, SolveCounter())
            except LpregError as exc:
                bad.append(f"q={q} seed={seed}: {type(exc).__name__}")
                continue
            feas = float(np.max(np.abs(inst.U.a.T @ y - inst.v)))
            quad = float(y @ (inst.R * y))
            pn = float(np.sum(np.abs(y) ** p))
            if feas > 1e-9 or quad > 6.0 or \
                    pn > 2.0 * 4.0 ** p * m ** ((p - 2.0) / 2.0):
                bad.append(f"q={q} seed={seed}: feas={feas:.2g} "
                           f"quad={quad:.3g} pnorm={pn:.3g}")
    conclude("criterion 11 (dual postconditions, 20 planted)", not bad,
             "" if not bad else "; ".join(bad[:4]))


def test_criterion_12_regularized_weight_consistency():
    bad = []
    for i in range(20):
        rng = np.random.default_rng(1200 + i)
        n, d = int(rng.integers(25, 80)), int(rng.integers(2, 6))
        A = DenseMatrix(rng.standard_normal((n, d)))
        q = float(rng.choice([1.25, 1.5, 1.8]))
        c = rng.uniform(0.0, 0.5, n)
        rw = reg_lewis(A, c, q)
        _, lo, hi = reg_lewis_residual(A, rw)
        if not (0.85 <= lo and hi <= 1.18):
            bad.append(f"q={q}: ratios [{lo:.3f}, {hi:.3f}]")
    rng = np.random.default_rng(4321)
    A = DenseMatrix(rng.standard_normal((40, 5)))
    rw = reg_lewis(A, np.zeros(40), 2.0)
    exact = exact_lewis_oracle(A, 2.0)
    agree = float(np.max(np.abs(rw.weights - exact)))
    if agree > 1e-6:
        bad.append(f"q=2 oracle disagreement {agree:.2g}")
    conclude("criterion 12 (regularized weight consistency)", not bad,
             "" if not bad else "; ".join(bad[:4]))
