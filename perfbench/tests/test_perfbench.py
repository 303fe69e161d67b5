"""Self-tests of the benchmark: metric names, repeatability, certificate check.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""
import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from lpreg import harness  # noqa: E402
from lpreg.linalg import DenseMatrix  # noqa: E402
from perfbench import certify, run, tracing, workloads  # noqa: E402

TINY = workloads.Workload(
    name="tiny", method="linf",
    classes=(workloads.InstanceClass("gaussian", 40, 3, math.inf, 1e-3),
             workloads.InstanceClass("coherent_rows", 40, 3, math.inf, 1e-3)),
    scaled=((0, 1e-20), (1, 1e20)))


def _run(trace, capsys, seed=3):
    batch = workloads.build_batch(TINY, seed)
    result = run.run(TINY, batch, seed, 0.0, trace, [0.5], run.Ruler())
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1]) == json.loads(json.dumps(result))
    return result, lines


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in _spec()[kind]}


def test_workload_names_agree():
    names = [w["name"] for w in _spec()["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, capsys, kind):
    result, _ = _run(trace, capsys)
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _declared(kind)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == 4


def test_traced_self_times_partition_solve_time(capsys):
    orig = harness.solve, DenseMatrix.__init__
    result, lines = _run(True, capsys)
    assert (harness.solve, DenseMatrix.__init__) == orig
    m = {k: v["value"] for k, v in result["metrics"].items()}
    layers = sum(m[f"layer.{name}.self_s"] for name in tracing.LAYERS)
    spans = sum(m[f"{name}.self_s"] for name in tracing.SPAN_NAMES)
    assert layers == pytest.approx(m["trace.solve_s"], rel=1e-9)
    assert spans == pytest.approx(m["trace.solve_s"], rel=1e-9)
    assert m["harness.solve.calls"] == 4
    assert any(line.startswith("top self-time layer on tiny: ") for line in lines)


def test_gram_solves_per_solve_repeats_exactly(capsys):
    first, _ = _run(False, capsys, seed=5)
    second, _ = _run(False, capsys, seed=5)
    for name in ("gram_solves_per_solve", "failed_frac"):
        assert first["metrics"][name] == second["metrics"][name]


def _solved(method="linf", p=math.inf, scale=1.0):
    """Solve the 60x4 Gaussian instance, or its copy at ``scale``."""
    inst = harness.gen_instance("gaussian", 60, 4, 0, p=p, eps=1e-3)
    case = workloads.Case("t", None, 1.0, inst, 0)
    if scale != 1.0:
        case = workloads.Case("t", None, scale,
                              workloads.scaled_copy(inst, scale), 0, twin=0)
    x, report = harness.solve(case.instance, method, seed=0)
    return case, x, report


def test_check_rejects_planted_false_certificate():
    case, x, report = _solved()
    opt = certify.oracle_value(case)
    assert certify.check(case, x, report, opt) is None

    planted = copy.copy(report)
    planted.certified_gap = 0.0
    x_bad = x + 0.05 * np.linalg.norm(x) * np.ones_like(x)
    assert "residual of the returned x" in certify.check(case, x_bad, planted, opt)

    inst = case.instance
    planted.residual_lp = certify.residual_norm(inst.A.a, inst.b, x_bad, inst.p)
    assert "against the oracle" in certify.check(case, x_bad, planted, opt)

    # Beyond the oracle's size limit only the unit twin's residual is left.
    twin_resid = certify.residual_norm(inst.A.a, inst.b, x, inst.p)
    scaled = workloads.Case("t", None, 1e-20,
                            workloads.scaled_copy(inst, 1e-20), 0, twin=0)
    planted_s = copy.copy(planted)
    planted_s.residual_lp = certify.residual_norm(
        scaled.instance.A.a, scaled.instance.b, x_bad, inst.p)
    assert "unit twin" in certify.check(scaled, x_bad, planted_s, None, twin_resid)


def test_least_squares_answer_with_zero_gap_is_rejected_at_1e_minus_20():
    """The pair check alone catches a zero-gap least-squares point."""
    inst = harness.gen_instance("gaussian", 60, 4, 0, p=4.0, eps=1e-6)
    scaled = workloads.Case("t", None, 1e-20,
                            workloads.scaled_copy(inst, 1e-20), 0, twin=0)
    x_ls = np.linalg.lstsq(inst.A.a, inst.b, rcond=None)[0]
    report = copy.copy(harness.solve(inst, "accel", seed=0)[1])
    twin_resid = report.residual_lp
    report.certified_gap = 0.0
    report.residual_lp = certify.residual_norm(
        scaled.instance.A.a, scaled.instance.b, x_ls, 4.0)
    assert "unit twin" in certify.check(scaled, x_ls, report, None, twin_resid)


@pytest.mark.parametrize("method,p", [("mwu", 4.0), ("accel", 4.0),
                                      ("dual", 1.5), ("linf", math.inf)])
def test_scaled_pair_verdict_matches_the_oracle(method, p):
    """At 1e-20 the check rejects exactly the certificates the oracle refutes.

    On the current solvers every method returns certified_gap 0 at this
    scale with a relative error of 1e-3 or more, so the rejecting branch
    runs; once the scale defect is fixed the accepting branch does.
    """
    twin, _, r1 = _solved(method, p=p)
    case, x, report = _solved(method, p=p, scale=1e-20)
    opt = certify.oracle_value(twin)
    true_err = report.residual_lp / (1e-20 * opt) - 1.0
    twin_resid = r1.residual_lp
    verdict_pair = certify.check(case, x, report, None, twin_resid)
    verdict_full = certify.check(case, x, report, opt, twin_resid)
    if true_err > report.certified_gap + 1e-6:
        assert verdict_full is not None
        if true_err > report.certified_gap + r1.certified_gap + 1e-6:
            assert verdict_pair is not None
    else:
        assert verdict_full is None and verdict_pair is None
