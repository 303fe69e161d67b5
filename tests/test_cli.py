import json

import numpy as np

from lpreg.cli import main
from lpreg.harness import gen_instance
from lpreg.linalg import write_matrix, write_vector


def write_instance(tmp_path, n=20, d=3, seed=0):
    inst = gen_instance("gaussian", n, d, seed)
    mpath, vpath = tmp_path / "A.txt", tmp_path / "b.txt"
    write_matrix(mpath, inst.A)
    write_vector(vpath, inst.b)
    return inst, str(mpath), str(vpath)


class TestSolveCommand:
    def test_solve_writes_report(self, tmp_path, capsys):
        inst, mpath, vpath = write_instance(tmp_path)
        report = tmp_path / "rep.json"
        sol = tmp_path / "x.txt"
        code = main(["solve", "--matrix", mpath, "--rhs", vpath, "--p", "4",
                     "--eps", "1e-6", "--method", "accel", "--seed", "0",
                     "--report", str(report), "--solution", str(sol)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["method"] == "accel"
        assert payload["certified_gap"] <= 1e-6
        x = np.loadtxt(sol)
        assert x.shape == (3,)

    def test_solve_prints_json(self, tmp_path, capsys):
        inst, mpath, vpath = write_instance(tmp_path)
        code = main(["solve", "--matrix", mpath, "--rhs", vpath, "--p", "2",
                     "--method", "mwu"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 20 and payload["d"] == 3

    def test_inf_exponent(self, tmp_path, capsys):
        inst, mpath, vpath = write_instance(tmp_path)
        code = main(["solve", "--matrix", mpath, "--rhs", vpath, "--p", "inf",
                     "--eps", "0.1", "--method", "linf"])
        assert code == 0

    def test_invalid_input_exit_code(self, tmp_path, capsys):
        assert main(["solve", "--matrix", str(tmp_path / "missing.txt"),
                     "--rhs", str(tmp_path / "missing.txt"), "--p", "4"]) == 3
        # unreadable paths: a directory, a non-UTF-8 file, a report path
        # that is a directory (written after the solve)
        inst, mpath, vpath = write_instance(tmp_path)
        binary = tmp_path / "binary.txt"
        binary.write_bytes(b"\xff\xfe\x00 1.0\n")
        assert main(["solve", "--matrix", str(tmp_path), "--rhs", vpath,
                     "--p", "4"]) == 3
        assert main(["solve", "--matrix", str(binary), "--rhs", vpath,
                     "--p", "4"]) == 3
        assert main(["solve", "--matrix", mpath, "--rhs", vpath, "--p", "4",
                     "--report", str(tmp_path)]) == 3
        cfg = {"method": "accel", "p": 4.0, "eps": 1e-6, "family": "gaussian",
               "sizes": [[16, 2]], "seeds": [0], "output_dir": mpath}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.count("lpreg: invalid input") == 5

    def test_negative_matrix_size_is_input_error(self, tmp_path, capsys):
        # "-2 -3" and six entries: reshape would take the count and raise
        inst, _, vpath = write_instance(tmp_path, n=6, d=1)
        mpath = tmp_path / "negative.txt"
        mpath.write_text("-2 -3\n1 2 3\n4 5 6\n")
        assert main(["solve", "--matrix", str(mpath), "--rhs", vpath,
                     "--p", "4"]) == 3
        assert "is not positive" in capsys.readouterr().err

    def test_method_mismatch_is_input_error(self, tmp_path, capsys):
        inst, mpath, vpath = write_instance(tmp_path)
        assert main(["solve", "--matrix", mpath, "--rhs", vpath, "--p", "4",
                     "--method", "dual"]) == 3

    def test_nan_exponent_is_input_error(self, tmp_path, capsys):
        inst, mpath, vpath = write_instance(tmp_path)
        assert main(["solve", "--matrix", mpath, "--rhs", vpath,
                     "--p", "nan"]) == 3
        assert "exponent must exceed 1" in capsys.readouterr().err

    def test_eps_below_resolution_is_input_error(self, tmp_path, capsys):
        inst, mpath, vpath = write_instance(tmp_path)
        assert main(["solve", "--matrix", mpath, "--rhs", vpath, "--p", "4",
                     "--eps", "1e-16"]) == 3
        assert "eps must lie in" in capsys.readouterr().err

    def test_accel_exponent_cap_is_input_error(self, tmp_path, capsys):
        inst, mpath, vpath = write_instance(tmp_path)
        assert main(["solve", "--matrix", mpath, "--rhs", vpath,
                     "--p", "200", "--method", "accel"]) == 3
        assert "accel requires" in capsys.readouterr().err

    def test_solver_error_exit_code(self, tmp_path, capsys, monkeypatch):
        # Every LpregError subclass, however deep, maps to exit 3 (bad
        # input) or exit 2 (solver failure); none escapes as a traceback.
        from lpreg import cli
        from lpreg.errors import (
            BoostBudgetExceededError,
            InvalidInputError,
            LpregError,
            NonFiniteError,
            RankDeficientError,
        )

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        input_errors = {InvalidInputError, RankDeficientError, NonFiniteError}
        inst, mpath, vpath = write_instance(tmp_path)
        every = list(subclasses(LpregError))
        assert BoostBudgetExceededError in every    # a grandchild
        wrong = {}
        for err in every:
            def broken(instance, method, seed=0, err=err):
                raise err("raised by the test")

            monkeypatch.setattr(cli, "solve", broken)
            code = main(["solve", "--matrix", mpath, "--rhs", vpath,
                         "--p", "4"])
            if code != (3 if err in input_errors else 2):
                wrong[err.__name__] = code
        assert wrong == {}


class TestWeightsCommand:
    def test_weights_json(self, tmp_path, capsys):
        inst, mpath, _ = write_instance(tmp_path)
        code = main(["weights", "--matrix", mpath, "--p", "4"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["weights"]) == 20
        assert payload["certificate"]["domination_margin"] >= -1e-8
        assert 3.0 <= payload["mass"] <= 6.0

    def test_nan_exponent_is_input_error(self, tmp_path, capsys):
        _, mpath, _ = write_instance(tmp_path)
        assert main(["weights", "--matrix", mpath, "--p", "nan"]) == 3


class TestBenchCommand:
    def test_bench_runs_config(self, tmp_path, capsys):
        cfg = {"method": "accel", "p": 4.0, "eps": 1e-6, "family": "gaussian",
               "sizes": [[16, 2]], "seeds": [0], "oracle": True,
               "output_dir": str(tmp_path / "out")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "results.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        good = {"method": "accel", "p": 4.0, "eps": 1e-6, "family": "gaussian",
                "sizes": [[16, 2]], "seeds": [0],
                "output_dir": str(tmp_path / "out")}
        bad = {"empty": "{}",
               "list": json.dumps([good]),
               "exponent": json.dumps({**good, "p": "abc"}),
               "size": json.dumps({**good, "sizes": [[60]]}),
               "p_list": json.dumps({**good, "p": [4]}),
               "p_null": json.dumps({**good, "p": None}),
               "eps_text": json.dumps({**good, "eps": "1e-3"}),
               "eps_tiny": json.dumps({**good, "eps": 1e-16}),
               "sizes_int": json.dumps({**good, "sizes": 5}),
               "sizes_null": json.dumps({**good, "sizes": None}),
               "seeds_int": json.dumps({**good, "seeds": 5}),
               "seeds_text": json.dumps({**good, "seeds": ["x"]}),
               "size_float": json.dumps({**good, "sizes": [[30.5, 3]]}),
               "size_wide": json.dumps({**good, "sizes": [[16, 2], [3, 5]]}),
               "oracle_tol_text": json.dumps({**good, "oracle_tol": "x"}),
               "output_dir_int": json.dumps({**good, "output_dir": 5}),
               "oracle_text": json.dumps({**good, "oracle": "no"}),
               "schema_version": json.dumps({**good, "schema_version": 1})}
        for name, text in bad.items():
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            assert main(["bench", "--config", str(path)]) == 3, name
        assert not (tmp_path / "out").exists()

    def test_oracle_above_its_caps_is_input_error(self, tmp_path, capsys):
        # oracle_opt is desk-scale only; a config asking for it at a larger
        # size is rejected before any solve, not turned into failure rows.
        cfg = {"method": "mwu", "p": 4.0, "eps": 1e-6, "family": "gaussian",
               "sizes": [[600, 4]], "seeds": [0], "oracle": True,
               "output_dir": str(tmp_path / "out")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(path)]) == 3
        assert "desk-scale" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_is_input_error(self, tmp_path, capsys):
        cfg = {"method": "accel", "p": 4.0, "eps": 1e-6, "family": "gaussian",
               "sizes": [[16, 2]], "seeds": [0, -1],
               "output_dir": str(tmp_path / "out")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(path)]) == 3
        assert "non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
