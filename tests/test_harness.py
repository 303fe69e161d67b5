import csv
import json
import math

import numpy as np
import pytest

from lpreg import harness
from lpreg.accel import solve_pnorm_accel
from lpreg.dual import solve_lq
from lpreg.errors import InvalidInputError
from lpreg.harness import (
    ExperimentConfig,
    fit_loglog_slope,
    gen_instance,
    oracle_opt,
    run_experiment,
    solve,
)
from lpreg.linalg import DenseMatrix, SolveCounter
from lpreg.linf import linf_regress
from lpreg.mwu import MwuGammaSolver, solve_mwu
from lpreg.problem import ProblemInstance
from lpreg.refine import refine_to_accuracy

from diagnostics import exact_residual_lp, solve_counters


def refine_with_mwu(inst):
    return refine_to_accuracy(
        inst, lambda unit: MwuGammaSolver(unit.A, unit.p, unit.counter))


ENTRIES = {"mwu": solve_mwu, "accel": solve_pnorm_accel, "dual": solve_lq,
           "linf": linf_regress, "refine_to_accuracy": refine_with_mwu}


class TestGenInstance:
    def test_deterministic(self):
        a = gen_instance("gaussian", 10, 2, 0)
        b = gen_instance("gaussian", 10, 2, 0)
        assert np.array_equal(a.A.a, b.A.a)
        assert np.array_equal(a.b, b.b)

    def test_families_distinct(self):
        mats = [gen_instance(f, 20, 3, 0).A.a for f in
                ("gaussian", "ill_conditioned", "planted_residual",
                 "coherent_rows")]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert not np.array_equal(mats[i], mats[j])

    def test_zero_noise_plant_recoverable(self):
        # b is A x* plus spikes on n/10 rows plus 0.01 noise, x* drawn
        # right after A from the instance's seed stream.
        n, d = 30, 3
        inst = gen_instance("planted_residual", n, d, 1)
        rng = harness._rng_for("planted_residual", n, d, 1)
        assert np.array_equal(rng.standard_normal((n, d)), inst.A.a)
        planted = rng.standard_normal(d)
        clean = ProblemInstance(inst.A, inst.A.a @ planted, 4.0)
        assert oracle_opt(clean) == 0.0
        assert np.sum(np.abs(inst.b - inst.A.a @ planted) > 0.1) <= n // 10

    def test_ill_conditioned_range(self):
        inst = gen_instance("ill_conditioned", 100, 8, 0)
        s = np.linalg.svd(inst.A.a, compute_uv=False)
        assert 1e5 <= s[0] / s[-1] <= 1e7

    def test_coherent_row_dominates(self):
        inst = gen_instance("coherent_rows", 40, 4, 2)
        norms = np.linalg.norm(inst.A.a, axis=1)
        assert norms[0] >= 5 * np.max(norms[1:])

    def test_bad_family_and_caps(self):
        with pytest.raises(InvalidInputError):
            gen_instance("cauchy", 10, 2, 0)
        with pytest.raises(InvalidInputError):
            gen_instance("gaussian", 10, 70, 0)

    def test_negative_seed_is_input_error(self):
        with pytest.raises(InvalidInputError, match="negative"):
            gen_instance("gaussian", 10, 2, -1)


MALFORMED = {
    "A_not_dense": lambda A: ProblemInstance(A.a, np.ones(3), 4.0),
    "p_str": lambda A: ProblemInstance(A, np.ones(3), "4"),
    "p_none": lambda A: ProblemInstance(A, np.ones(3), None),
    "p_bool": lambda A: ProblemInstance(A, np.ones(3), True),
    "eps_str": lambda A: ProblemInstance(A, np.ones(3), 4.0, eps="x"),
    "b_str": lambda A: ProblemInstance(A, "abc", 4.0),
    "matrix_str": lambda A: DenseMatrix("abc"),
    "matrix_ragged": lambda A: DenseMatrix([[1, 2], [3]]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_python_input_is_invalid_input(case):
    A = DenseMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        MALFORMED[case](A)


class TestOracleOpt:
    @pytest.mark.parametrize("p", [12.0, 14.0, 16.0])
    def test_not_above_a_certified_mwu_residual(self, p):
        # At large p a unit Newton step covers 1/(p-1) of the way along a
        # p-th power, so a fixed step count stopped 0.17% (p = 14) and
        # 0.83% (p = 16) above the optimum here.  The returned x has a norm
        # near 1.4e6, where a float evaluation of its residual is off by a
        # few 1e-12, so the comparand is evaluated exactly.
        inst = gen_instance("ill_conditioned", 60, 4, 0, p=p)
        x, _ = solve(inst, "mwu", seed=0)
        assert oracle_opt(inst) <= (1 + 1e-12) * exact_residual_lp(inst, x)

    def test_consistent_rhs(self):
        rng = np.random.default_rng(0)
        A = DenseMatrix(rng.standard_normal((12, 3)))
        b = A.a @ rng.standard_normal(3)
        assert oracle_opt(ProblemInstance(A, b, 4.0)) == 0.0

    def test_two_point_quartic(self):
        A = DenseMatrix(np.array([[1.0], [1.0]]))
        b = np.array([0.0, 2.0])
        assert oracle_opt(ProblemInstance(A, b, 4.0)) \
            == pytest.approx(2.0 ** 0.25, rel=1e-9)

    def test_two_point_chebyshev(self):
        A = DenseMatrix(np.array([[1.0], [1.0]]))
        b = np.array([0.0, 2.0])
        assert oracle_opt(ProblemInstance(A, b, math.inf)) \
            == pytest.approx(1.0, rel=1e-7)

    def test_two_point_small_q(self):
        A = DenseMatrix(np.array([[1.0], [1.0]]))
        b = np.array([0.0, 2.0])
        assert oracle_opt(ProblemInstance(A, b, 4.0 / 3.0)) \
            == pytest.approx(2.0 ** 0.75, rel=1e-9)

    def test_p2_closed_form(self):
        rng = np.random.default_rng(1)
        A = DenseMatrix(rng.standard_normal((20, 4)))
        b = rng.standard_normal(20)
        x = np.linalg.lstsq(A.a, b, rcond=None)[0]
        assert oracle_opt(ProblemInstance(A, b, 2.0)) \
            == pytest.approx(float(np.linalg.norm(A.a @ x - b)), rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 4.0, math.inf])
    @pytest.mark.parametrize("s", [1e-200, 1e-20, 1e20, 1e200])
    def test_scale_covariant(self, s, p):
        inst = gen_instance("gaussian", 30, 3, 4, p=p)
        scaled = ProblemInstance(DenseMatrix(s * inst.A.a), s * inst.b, p)
        assert oracle_opt(scaled) == pytest.approx(s * oracle_opt(inst),
                                                   rel=1e-9, abs=0.0)

    def test_rejects_large_sizes(self):
        rng = np.random.default_rng(2)
        A = DenseMatrix(rng.standard_normal((40, 22)))
        with pytest.raises(InvalidInputError):
            oracle_opt(ProblemInstance(A, rng.standard_normal(40), 4.0))


class TestSolveDispatch:
    def test_refine_routes_by_exponent(self):
        inst = gen_instance("gaussian", 20, 3, 0, p=1.5)
        x, rep = solve(inst, "refine", seed=0)
        assert rep.method == "dual"
        inst = gen_instance("gaussian", 20, 3, 0, p=math.inf, eps=1e-1)
        x, rep = solve(inst, "refine", seed=0)
        assert rep.method == "linf"

    def test_method_exponent_mismatch(self):
        inst = gen_instance("gaussian", 20, 3, 0, p=4.0)
        with pytest.raises(InvalidInputError):
            solve(inst, "dual")
        with pytest.raises(InvalidInputError):
            solve(inst, "linf")
        inst17 = gen_instance("gaussian", 20, 3, 0, p=17.0)
        with pytest.raises(InvalidInputError):
            solve(inst17, "mwu")

    def test_refine_above_the_cap_names_it(self):
        # refine sends every finite p >= 2 to mwu, so p above MAX_MWU_P
        # meets mwu's cap, not accel's lower one.
        inst = gen_instance("gaussian", 20, 3, 0, p=17.0)
        with pytest.raises(InvalidInputError, match="p <= 16"):
            solve(inst, "refine")

    @pytest.mark.parametrize("entry, p", [
        ("mwu", 1.5), ("mwu", math.inf),
        ("accel", 1.5), ("accel", math.inf),
        ("dual", 4.0), ("dual", math.inf),
        ("linf", 1.5), ("linf", 4.0),
        ("refine_to_accuracy", 1.5), ("refine_to_accuracy", math.inf)])
    def test_entry_point_rejects_its_domain_before_any_work(
            self, entry, p, monkeypatch):
        # harness.solve checks only the caps; every entry point checks its
        # own exponent domain before its first QR, Cholesky or counted
        # solve, each of which is recorded here.
        import scipy.linalg

        import lpreg.linalg as linalg
        inst = gen_instance("gaussian", 20, 3, 0, p=p)
        work = []

        def recorded(name, real):
            def call(*args, **kwargs):
                work.append(name)
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(scipy.linalg, "qr",
                            recorded("qr", scipy.linalg.qr))
        monkeypatch.setattr(linalg, "_cholesky",
                            recorded("cholesky", linalg._cholesky))
        monkeypatch.setattr(SolveCounter, "tick",
                            recorded("tick", SolveCounter.tick))
        with pytest.raises(InvalidInputError):
            ENTRIES[entry](inst)
        assert work == []

    def test_seed_recorded(self):
        inst = gen_instance("gaussian", 20, 3, 0, p=2.0)
        _, rep = solve(inst, "accel", seed=5)
        assert rep.seed == 5

    def test_mwu_report_phase_fields(self):
        inst = gen_instance("gaussian", 20, 3, 0, p=3.0)
        _, rep = solve(inst, "mwu", seed=0)
        assert rep.phase_counts["progress_steps"] > 0
        assert rep.phase_counts["boost_steps"] >= 0

    def test_accel_report_phase_fields(self):
        inst = gen_instance("gaussian", 30, 3, 1, p=4.0)
        _, rep = solve(inst, "accel", seed=0)
        assert rep.phase_counts["prox_calls"] > 0
        assert rep.phase_counts["inner_iterations"] > 0
        # every prox center is factored once and reused by its solves
        assert (rep.phase_counts["prox_calls"]
                < rep.phase_counts["factorizations"] < rep.gram_solves)

    @pytest.mark.parametrize("method", ["mwu", "dual", "linf"])
    def test_no_gram_solve_against_a_zero_column(self, method, monkeypatch):
        # A zero right-hand side has the solution 0; solving for it would
        # count a Gram solve that does no work.  dual's constraint vector
        # is 0 on A's block, so each oracle call solves for its two
        # stacked columns only.  (accel solves in its metric pencil.)
        import importlib

        import lpreg.linalg as linalg
        zero_columns = []
        real = linalg.gram_solve_multi

        def checked(A, w, rhs, *args, **kwargs):
            cols = np.asarray(rhs).reshape(A.d, -1)
            zero_columns.extend(np.flatnonzero(~cols.any(axis=0)))
            return real(A, w, rhs, *args, **kwargs)

        monkeypatch.setattr(importlib.import_module(f"lpreg.{method}"),
                            "gram_solve_multi", checked)
        p = {"mwu": 3.0, "dual": 1.5, "linf": math.inf}[method]
        eps = 1e-1 if p == math.inf else 1e-6
        inst = gen_instance("gaussian", 25, 3, 2, p=p, eps=eps)
        _, rep = solve(inst, method)
        assert zero_columns == []
        if method == "dual":
            assert rep.phase_counts["oracle_calls"] > 0
            assert (rep.phase_counts["oracle_small"]
                    == 2 * rep.phase_counts["oracle_calls"])

    @pytest.mark.parametrize("method", ["mwu", "dual", "linf"])
    def test_one_factorization_per_gram_call(self, method, monkeypatch):
        # Each gram_solve_multi call is one factorization, and so is the QR
        # of each matrix that projections run against: the solve's unit
        # matrix, whose QR the least-squares start and the certificates
        # share.  Leverage's Cholesky QR passes are not factorizations.
        import importlib

        import lpreg.linalg as linalg
        calls, projected = [], set()
        real = linalg.gram_solve_multi
        real_project_out = linalg.DenseMatrix.project_out

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        def project_out(self, Y):
            projected.add(id(self))
            return real_project_out(self, Y)

        monkeypatch.setattr(importlib.import_module(f"lpreg.{method}"),
                            "gram_solve_multi", counted)
        monkeypatch.setattr(linalg.DenseMatrix, "project_out", project_out)
        p = {"mwu": 3.0, "dual": 1.5, "linf": math.inf}[method]
        eps = 1e-1 if p == math.inf else 1e-6
        inst = gen_instance("gaussian", 25, 3, 2, p=p, eps=eps)
        _, rep = solve(inst, method, seed=0)
        assert len(projected) == 1
        assert (rep.phase_counts["factorizations"]
                == len(calls) + len(projected))

    @pytest.mark.parametrize("method", ["mwu", "accel", "dual", "linf",
                                        "refine_to_accuracy"])
    def test_phase_counts_cover_all_solves(self, method, monkeypatch):
        p = {"mwu": 3.0, "accel": 4.0, "dual": 1.5, "linf": math.inf,
             "refine_to_accuracy": 3.0}[method]
        eps = 1e-1 if p == math.inf else 1e-6
        inst = gen_instance("gaussian", 25, 3, 2, p=p, eps=eps)
        counters = solve_counters(monkeypatch)
        _, rep = ENTRIES[method](inst)
        [counter] = counters
        assert sum(counter.by_phase.values()) == counter.gram_solves
        assert rep.gram_solves == counter.gram_solves
        assert counter.by_phase.items() <= rep.phase_counts.items()

    @pytest.mark.parametrize("method, keys", [
        ("mwu", {"progress_steps", "boost_steps", "alpha_halvings",
                 "alpha_over_floor", "gamma_calls", "accepted_steps",
                 "certificate", "progress"}),
        ("accel", {"prox_calls", "prox_backtracks", "inner_iterations",
                   "certificate", "metric", "prox", "ms"}),
        ("dual", {"oracle_calls", "accepted_steps", "warm_recoveries",
                  "stall_recoveries", "recover", "oracle_small",
                  "certificate"}),
        ("linf", {"newton_steps", "line_search_evals", "certificate",
                  "newton"}),
    ])
    def test_phase_counts_keys(self, method, keys):
        # perfbench/run.py and run_experiment read these keys, zero or not.
        p = {"mwu": 3.0, "accel": 4.0, "dual": 1.5, "linf": math.inf}[method]
        eps = 1e-1 if p == math.inf else 1e-6
        inst = gen_instance("gaussian", 25, 3, 2, p=p, eps=eps)
        _, rep = solve(inst, method, seed=0)
        assert set(rep.phase_counts) == keys | {"rounds", "init",
                                                "factorizations"}
        if method == "mwu":
            assert rep.phase_counts["boost_steps"] == 0
            assert rep.phase_counts["alpha_halvings"] == 0
        # an exact fit short-circuits every method the same way
        exact = ProblemInstance(inst.A, inst.A.a @ np.ones(3), p, eps=eps)
        _, rep = solve(exact, method, seed=0)
        assert rep.phase_counts == {"rounds": 0, "short_circuit": 1,
                                    "init": 1, "factorizations": 1}

    @pytest.mark.parametrize("method", ["mwu", "accel", "dual", "linf"])
    def test_validation_at_boundary_and_seed_is_a_label(self, method,
                                                        monkeypatch):
        # Matrices are rank-checked where they enter; inside a solve only
        # dual's stacked [A b g] (one per oracle call) is checked again.
        # Leverage scores are exact, so the seed changes nothing but the
        # report's label.
        p = {"mwu": 4.0, "accel": 4.0, "dual": 1.5, "linf": math.inf}[method]
        inst = gen_instance("gaussian", 60, 4, 0, p=p)
        rank = np.linalg.matrix_rank
        calls = []

        def counted(*args, **kw):
            calls.append(1)
            return rank(*args, **kw)

        monkeypatch.setattr(np.linalg, "matrix_rank", counted)
        x0, rep0 = solve(inst, method, seed=0)
        checks = len(calls)
        x7, rep7 = solve(inst, method, seed=7)
        allowed = rep0.phase_counts["oracle_calls"] if method == "dual" else 0
        assert checks <= allowed
        assert np.array_equal(x0, x7)
        assert rep0.gram_solves == rep7.gram_solves
        assert (rep0.seed, rep7.seed) == (0, 7)

    @pytest.mark.parametrize("method", ["mwu", "accel"])
    def test_fractional_exponent(self, method):
        inst = gen_instance("gaussian", 30, 3, 3, p=2.5, eps=1e-6)
        _, rep = solve(inst, method, seed=0)
        opt = oracle_opt(inst, tol=1e-9)
        assert rep.residual_lp <= (1 + 1e-6) * opt


class TestRunExperiment:
    def _config(self, tmp_path, **kw):
        base = dict(method="accel", p=4.0, eps=1e-6, family="gaussian",
                    sizes=[[20, 3]], seeds=[0, 1],
                    output_dir=str(tmp_path / "out"))
        base.update(kw)
        return ExperimentConfig(**base)

    @pytest.mark.parametrize("sizes", [5, None])
    def test_sizes_that_are_not_a_list_are_input_errors(self, tmp_path,
                                                       sizes):
        with pytest.raises(InvalidInputError, match="not a list"):
            self._config(tmp_path, sizes=sizes)

    def test_empty_sizes_writes_header_only(self, tmp_path):
        cfg = self._config(tmp_path, sizes=[])
        summary = run_experiment(cfg)
        assert summary["rows"] == 0
        lines = (tmp_path / "out" / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("n,d,method")

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = self._config(tmp_path, oracle=True)
        run_experiment(cfg)
        first = (tmp_path / "out" / "results.csv").read_bytes()
        run_experiment(cfg)
        assert (tmp_path / "out" / "results.csv").read_bytes() == first

    def test_oracle_error_has_its_own_column(self, tmp_path):
        cfg = self._config(tmp_path, oracle=True)
        run_experiment(cfg)
        with open(tmp_path / "out" / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row, seed in zip(rows, cfg.seeds):
            report = json.loads((tmp_path / "out" /
                                 f"accel_gaussian_20x3_s{seed}.json").read_text())
            # the solver's certificate is written as issued
            assert float(row["certified_gap"]) == report["certified_gap"]
            assert 0.0 <= report["certified_gap"] <= cfg.eps
            assert abs(float(row["oracle_error"])) <= report["certified_gap"] + 1e-6

    def test_error_rows_recorded_and_run_continues(self, tmp_path):
        cfg = self._config(tmp_path, method="dual", p=4.0)
        summary = run_experiment(cfg)
        assert summary["failures"] == summary["rows"] == 2
        text = (tmp_path / "out" / "results.csv").read_text()
        assert "InvalidInputError" in text

    def test_slope_summary(self, tmp_path):
        cfg = self._config(tmp_path, sizes=[[16, 2], [32, 4], [64, 8]],
                           seeds=[0])
        summary = run_experiment(cfg)
        assert "loglog_slope" in summary
        assert len(summary["dims"]) == 3
        # Gram solves and factorizations side by side, per row and per d.
        with open(tmp_path / "out" / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        reports = [json.loads((tmp_path / "out" /
                               f"accel_gaussian_{n}x{d}_s0.json").read_text())
                   for n, d in cfg.sizes]
        factorizations = [r["phase_counts"]["factorizations"] for r in reports]
        assert [int(row["factorizations"]) for row in rows] == factorizations
        assert [int(row["gram_solves"]) for row in rows] == [
            r["gram_solves"] for r in reports]
        assert summary["mean_factorizations"] == [float(f) for f in factorizations]
        assert summary["mean_gram_solves"] == [
            float(r["gram_solves"]) for r in reports]
        assert all(0 < f < g for f, g in zip(summary["mean_factorizations"],
                                             summary["mean_gram_solves"]))

    def test_mwu_summary_reports_alpha_halvings(self, tmp_path):
        cfg = self._config(tmp_path, method="mwu",
                           sizes=[[16, 2], [32, 4]], seeds=[0])
        summary = run_experiment(cfg)
        assert summary["failures"] == 0
        reports = [json.loads(f.read_text())
                   for f in sorted((tmp_path / "out").glob("mwu_*.json"))]
        assert summary["mean_alpha_halvings"] == [
            float(r["phase_counts"]["alpha_halvings"]) for r in reports]

    def test_accel_summary_reports_prox_backtracks(self, tmp_path):
        cfg = self._config(tmp_path, sizes=[[16, 2], [32, 4]], seeds=[0])
        summary = run_experiment(cfg)
        assert summary["failures"] == 0
        reports = [json.loads(f.read_text())
                   for f in sorted((tmp_path / "out").glob("accel_*.json"))]
        assert summary["mean_prox_backtracks"] == [
            float(r["phase_counts"]["prox_backtracks"]) for r in reports]
        assert "mean_alpha_halvings" not in summary

    def test_dual_summary_reports_recoveries(self, tmp_path):
        cfg = self._config(tmp_path, method="dual", p=1.2, eps=1e-8,
                           family="ill_conditioned", sizes=[[60, 4], [160, 8]],
                           seeds=[0])
        summary = run_experiment(cfg)
        assert summary["failures"] == 0
        reports = [json.loads((tmp_path / "out" /
                               f"dual_ill_conditioned_{n}x{d}_s0.json"
                               ).read_text())
                   for n, d in cfg.sizes]
        for key in ("warm_recoveries", "stall_recoveries"):
            assert summary[f"mean_{key}"] == [
                float(r["phase_counts"][key]) for r in reports]
        assert summary["mean_warm_recoveries"][-1] >= 1
        assert "mean_prox_backtracks" not in summary

    def test_config_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "method": "accel", "p": 4.0, "eps": 1e-6, "family": "gaussian",
            "sizes": [[10, 2]], "seeds": [0],
            "output_dir": str(tmp_path / "o")}))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.method == "accel"
        path.write_text(json.dumps({"method": "accel"}))
        with pytest.raises(InvalidInputError):
            ExperimentConfig.from_json(path)

    def test_inf_exponent_in_config(self, tmp_path):
        cfg = self._config(tmp_path, method="linf", p="inf", eps=1e-1)
        summary = run_experiment(cfg)
        assert summary["failures"] == 0


class TestSlopeFit:
    def test_exact_power_law(self):
        ds = [8, 16, 32, 64]
        counts = [10 * d ** 0.35 for d in ds]
        assert fit_loglog_slope(ds, counts) == pytest.approx(0.35, abs=1e-12)

    def test_flat_counts(self):
        assert fit_loglog_slope([8, 16], [7, 7]) == 0.0
