"""lpreg benchmark: certified-solve throughput, plus a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload mwu --seed 0 --seconds 12 --trace 0

One process, one client, closed loop: the workload's batch (see
``workloads.py``) is built from ``--seed`` and solved back to back through
``harness.solve``, in whole passes, until at least ``--seconds`` have
passed.  Every call is timed from outside and every returned certificate
is checked afterwards, outside the timed interval (``certify.py``).  A
solve that raises ``LpregError`` or returns a false certificate counts as
failed; its time still counts.

Times are reported at a fixed machine speed (see ``Ruler``), and
``solve_s_p50`` is a Harrell-Davis median (see ``hd_median``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` then solves one
more pass with every layer wrapped in spans (``tracing.py``) and prints
the per-layer metrics instead.  The last line of standard output is the
result object; the lines before it are the run record (environment,
instance mix, report counters, each failure and its instance) and a
summary.  ``correct`` is false when two passes over the batch disagree on
a solve's verdict or Gram count, since the counts must repeat exactly.
"""
import os

# Pinned before numpy is first imported, here and in the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("mwu", "accel", "dual_large", "linf")
# The run's own set-up is one sample; the rest come from fresh processes.
SETUP_SAMPLES = 5
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1]]
from perfbench import workloads
workloads.build_batch(workloads.WORKLOADS[sys.argv[2]], int(sys.argv[3]))
print(time.perf_counter() - t0)
"""
PROBE_TIMEOUT_S = 60
# Time metrics are reported at a fixed machine speed.  The speed of the
# shared machines this benchmark runs on drifts by 25% within minutes, which
# no affordable run length averages out, so the ruler kernel runs before and
# after every solve and each solve's time is scaled by RULER_S over the mean
# of those two readings.  RULER_S is the ruler's median time on a 2-vCPU Xeon
# VM with one BLAS thread, so on such a machine the values stay close to
# wall time.
RULER_S = 0.042
RULER_REPS = 1000

E2E_UNITS = {
    "solves_per_s": "1/s",
    "solve_s_p50": "s",
    "gram_solves_per_solve": "count",
    "failed_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
REPORT_COUNTS = ("progress_steps", "boost_steps", "newton_steps", "prox_calls",
                 "inner_iterations", "rounds")


def import_program():
    """Import lpreg from this checkout's ``src``; exit if it is not there."""
    if not (SRC / "lpreg" / "__init__.py").is_file():
        raise SystemExit(f"lpreg sources not found under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import lpreg
    if Path(lpreg.__file__).resolve().parent != SRC / "lpreg":
        raise SystemExit(f"lpreg imported from {lpreg.__file__}, not {SRC}")


class Ruler:
    """A fixed numpy/LAPACK kernel shaped like one solver step.

    It shares no code with lpreg, so a change to the program cannot move
    it; only the machine's speed can.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((160, 8))
        self.w = rng.random(160)
        self.g = rng.standard_normal(8)
        self.samples = []

    def measure(self) -> float:
        import numpy as np
        from scipy.linalg import cho_factor, cho_solve

        t0 = time.perf_counter()
        for _ in range(RULER_REPS):
            gram = (self.a * self.w[:, None]).T @ self.a
            z = cho_solve(cho_factor(gram, lower=True, check_finite=False),
                          self.g, check_finite=False)
            float(np.sum(np.abs(self.a @ z) ** 3.0))
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]


@dataclass
class Attempt:
    """One timed ``harness.solve`` call and what came of it."""

    case: int                 # index into the batch
    seconds: float
    speed: float = 1.0        # reference seconds per measured second
    x: object = None
    report: object = None
    error: str | None = None  # exception raised by the solve
    reason: str | None = None  # why it does not count; None when verified


def solve_pass(batch, method, ruler) -> list:
    """Solve every case once, timing each call; the ruler runs in between."""
    from lpreg import harness
    from lpreg.errors import LpregError

    attempts = []
    before = ruler.measure()
    for i, case in enumerate(batch):
        t0 = time.perf_counter()
        try:
            x, report = harness.solve(case.instance, method, seed=case.solve_seed)
            attempt = Attempt(i, 0.0, x=x, report=report)
        except LpregError as exc:
            attempt = Attempt(i, 0.0, error=f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # a raw exception is a defect; keep going
            traceback.print_exc(file=sys.stderr)
            attempt = Attempt(i, 0.0, error=f"uncaught {type(exc).__name__}: {exc}")
        attempt.seconds = time.perf_counter() - t0
        after = ruler.measure()
        attempt.speed = 2.0 * RULER_S / (before + after)
        before = after
        attempts.append(attempt)
    return attempts


def measure(batch, method, seconds, ruler):
    """Whole passes until ``seconds`` have elapsed; returns (passes, wall)."""
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(solve_pass(batch, method, ruler))
    return passes, time.perf_counter() - t0


def verify(batch, passes):
    """Set ``reason`` on every attempt; see certify.py for the checks."""
    from perfbench import certify

    opts = {i: certify.oracle_value(c) for i, c in enumerate(batch)
            if c.scale == 1.0}
    for attempts in passes:
        twin_resid = {}
        for a in attempts:
            if a.report is not None and batch[a.case].scale == 1.0:
                inst = batch[a.case].instance
                twin_resid[a.case] = certify.residual_norm(
                    inst.A.a, inst.b, a.x, inst.p)
        for a in attempts:
            case = batch[a.case]
            if a.error is not None:
                a.reason = a.error
                continue
            unit = a.case if case.twin is None else case.twin
            a.reason = certify.check(case, a.x, a.report, opts.get(unit),
                                     twin_resid.get(case.twin))


def deterministic(passes) -> bool:
    """Every pass reached the same verdict and Gram count on every case."""
    def key(a):
        return (a.reason is None,
                None if a.report is None else a.report.gram_solves)
    first = [key(a) for a in passes[0]]
    return all([key(a) for a in p] == first for p in passes[1:])


def setup_samples(workload, seed, own_s, ruler) -> list:
    """Set-up times at reference speed: this process's, then fresh ones'.

    Each probe is scaled by the ruler readings on either side of it; this
    process's own set-up only has the reading after it.
    """
    raw, readings = [own_s], [ruler.measure()]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(ROOT), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True)
        raw.append(float(out.stdout.strip().splitlines()[-1]))
        readings.append(ruler.measure())
    around = readings[:1] + [(a + b) / 2 for a, b in zip(readings, readings[1:])]
    return [t * RULER_S / r for t, r in zip(raw, around)]


def phase_totals(attempts) -> dict:
    """Sum of the report counters over every solve that returned a report."""
    keys = REPORT_COUNTS + ("gamma_calls", "oracle_calls", "accepted_steps")
    totals = dict.fromkeys(keys + ("sketch_applications",), 0)
    for a in attempts:
        if a.report is None:
            continue
        for k in keys:
            totals[k] += int(a.report.phase_counts.get(k, 0))
        totals["sketch_applications"] += a.report.sketch_applications
    return totals


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median.

    A mean of the order statistics weighted by a Beta((n+1)/2, (n+1)/2)
    kernel.  A batch mixes instance classes whose costs differ by 2x and
    more, so the middle order statistic of a run's 10 to 40 solves jumps
    from one class to the next between seeds; this estimate moves smoothly.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    a = (x.size + 1) / 2.0
    return float(np.diff(betainc(a, a, np.arange(x.size + 1) / x.size)) @ x)


def _ratio(num, den) -> float:
    """num / den, or 0.0 when the base is empty (the layer did not run)."""
    return num / den if den else 0.0


def layer_metrics(summary, counts, overhead_frac) -> dict:
    """Per-layer metric values from a tracer summary and report counts."""
    from perfbench.tracing import LAYERS, SPAN_NAMES

    calls, self_s = summary["calls"], summary["self_s"]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    for name in ("harness.solve", "lewis.lewis_overestimates"):
        out[f"{name}.failed"] = (summary["failed"][name], "count")
    out["linalg.gram_solve_multi.columns"] = (summary["columns"], "count")
    out["linalg.approx_lev.sketch_calls"] = (summary["sketch_calls"], "count")
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (
            sum(v for k, v in self_s.items() if k.startswith(layer + ".")), "s")
    out["linalg.columns_per_factorization"] = (
        _ratio(summary["columns"], calls["linalg.gram_solve_multi"]), "ratio")
    progress, boosts = calls["mwu.progress_step"], calls["mwu.boosting_step"]
    out["mwu.boost_frac"] = (_ratio(boosts, progress + boosts), "ratio")
    out["refine.accepted_frac"] = (_ratio(
        counts["accepted_steps"], counts["gamma_calls"] + counts["oracle_calls"]),
        "ratio")
    out["linf.lse_eval_per_newton_step"] = (
        _ratio(calls["linf.lse_eval"], counts["newton_steps"]), "ratio")
    for k in REPORT_COUNTS + ("sketch_applications",):
        out[f"report.{k}"] = (counts[k], "count")
    out["trace.solve_s"] = (summary["solve_s"], "s")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def run(workload, batch, seed: int, seconds: float, trace: bool,
        setup_s: list, ruler: Ruler) -> dict:
    """Measure one workload on its batch; print the record, then the result.

    ``setup_s`` holds the set-up samples already taken, at reference speed.
    The result object is printed as the last line and also returned.
    """
    from perfbench import workloads

    passes, wall = measure(batch, workload.method, seconds, ruler)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        from perfbench.tracing import Tracer

        tracer = Tracer()
        with tracer.installed():
            traced = solve_pass(batch, workload.method, ruler)
        passes.append(traced)

    verify(batch, passes)
    correct = deterministic(passes)
    measured = passes[:-1] if trace else passes
    attempts = [a for p in measured for a in p]
    verified = [a for a in attempts if a.reason is None]
    failed = len(attempts) - len(verified)
    busy = sum(a.seconds for a in attempts)
    busy_ref = sum(a.seconds * a.speed for a in attempts)

    record = {
        "workload": workload.name, "method": workload.method, "seed": seed,
        "seconds": seconds, "trace": int(trace), **environment(),
        "mix": workloads.mix_counts(batch),
        "passes": len(measured), "wall_s": wall, "solve_busy_s": busy,
        "solve_busy_ref_s": busy_ref, "ruler_samples_s": ruler.samples,
        "solve_samples": len(verified), "setup_samples_s": setup_s,
        "solve_s_first_pass": [a.seconds for a in passes[0]],
        "phase_counts_per_pass": phase_totals(passes[0]),
        "failures": [{"instance": batch[a.case].tag, "reason": a.reason}
                     for a in passes[0] if a.reason is not None],
    }
    print(json.dumps({"record": record}, default=str))
    print(f"{workload.name} seed {seed}: {len(attempts)} solves attempted in "
          f"{len(measured)} pass(es) over {wall:.3f} s, {failed} failed, "
          f"{len(verified)} verified (solve_s_p50 over {len(verified)} samples)")
    for f in record["failures"]:
        print(f"  failed {f['instance']}: {f['reason']}")

    if trace:
        summary = tracer.summary()
        traced_ref = sum(a.seconds * a.speed for a in traced)
        overhead = traced_ref / (busy_ref / len(measured)) - 1.0
        values = layer_metrics(summary, phase_totals(traced), overhead)
        layers = {k.split(".")[1]: v for k, (v, _) in values.items()
                  if k.startswith("layer.")}
        top = max(layers, key=layers.get)
        print(f"top self-time layer on {workload.name}: {top} "
              f"({layers[top]:.3f} s of {summary['solve_s']:.3f} s traced)")
    else:
        values = {
            "solves_per_s": len(verified) / busy_ref,
            "solve_s_p50": (hd_median([a.seconds * a.speed for a in verified])
                            if verified else 0.0),
            "gram_solves_per_solve": (
                statistics.fmean(a.report.gram_solves for a in verified)
                if verified else 0.0),
            "failed_frac": failed / len(attempts),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
        }
        values = {k: (v, E2E_UNITS[k]) for k, v in values.items()}
    result = {
        "correct": correct,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import_program()
    from perfbench import workloads

    workload = workloads.WORKLOADS[args.workload]
    batch = workloads.build_batch(workload, args.seed)
    own_setup_s = time.perf_counter() - t0
    ruler = Ruler()
    setup_s = setup_samples(args.workload, args.seed, own_setup_s, ruler)
    run(workload, batch, args.seed, args.seconds, bool(args.trace), setup_s,
        ruler)
    return 0


if __name__ == "__main__":
    sys.exit(main())
