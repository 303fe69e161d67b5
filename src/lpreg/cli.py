"""Command-line interface: solve, bench, and weights subcommands."""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import (
    InvalidInputError,
    LpregError,
    NonFiniteError,
    RankDeficientError,
)
from .harness import METHODS, ExperimentConfig, run_experiment, solve
from .lewis import half_minus_inv, lewis_overestimates, row_scale
from .linalg import leverage_scores, read_matrix, read_vector, write_vector
from .problem import ProblemInstance

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_INPUT = 3


def _parse_p(text: str) -> float:
    if text.lower() in ("inf", "infinity", "oo"):
        return math.inf
    try:
        return float(text)
    except ValueError as exc:
        raise InvalidInputError(f"bad exponent {text!r}") from exc


def _cmd_solve(args) -> int:
    A = read_matrix(args.matrix)
    b = read_vector(args.rhs)
    p = _parse_p(args.p)
    instance = ProblemInstance(A, b, p, eps=args.eps)
    x, report = solve(instance, args.method, seed=args.seed)
    if args.solution:
        write_vector(args.solution, x)
    payload = report.to_dict()
    payload["x"] = [float(v) for v in x]
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _cmd_bench(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    summary = run_experiment(config)
    print(json.dumps(summary, sort_keys=True, indent=2))
    return EXIT_OK


def _cmd_weights(args) -> int:
    A = read_matrix(args.matrix)
    p = _parse_p(args.p)
    est = lewis_overestimates(A, p)
    sig = leverage_scores(A, row_scale(est.weights, half_minus_inv(p)))
    payload = {
        "p": "inf" if p == math.inf else p,
        "n": A.n,
        "d": A.d,
        "weights": [float(w) for w in est.weights],
        "mass": est.mass,
        "certificate": {
            "mass_lower": float(A.d),
            "mass_upper": float(2 * A.d),
            "domination_margin": float(np.min(est.weights - sig)),
        },
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpreg",
        description="High-precision lp-norm regression solvers and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one regression instance")
    ps.add_argument("--matrix", required=True)
    ps.add_argument("--rhs", required=True)
    ps.add_argument("--p", required=True,
                    help="exponent; q in (1,2) for the dual path, 'inf' for minimax")
    ps.add_argument("--eps", type=float, default=1e-8)
    ps.add_argument("--method", default="refine", choices=METHODS)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--report", help="write the JSON report here")
    ps.add_argument("--solution", help="write the solution vector here")
    ps.set_defaults(func=_cmd_solve)

    pb = sub.add_parser("bench", help="run a benchmark sweep from a JSON config")
    pb.add_argument("--config", required=True)
    pb.set_defaults(func=_cmd_bench)

    pw = sub.add_parser("weights", help="emit weight overestimates as JSON")
    pw.add_argument("--matrix", required=True)
    pw.add_argument("--p", required=True)
    pw.add_argument("--out")
    pw.set_defaults(func=_cmd_weights)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, RankDeficientError, NonFiniteError,
            OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"lpreg: invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LpregError as exc:
        print(f"lpreg: solver error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
