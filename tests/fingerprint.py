"""Print one SHA-256 fingerprint per solve of a benchmark batch.

Run from the repository root:

    python3 tests/fingerprint.py --workload linf --seeds 0 1 2

Each line is ``<workload> <seed> <case index> <tag> <digest>``.  The
digest covers the returned ``x`` (its bytes), ``gram_solves``, the sorted
``phase_counts`` and ``certified_gap``; a solve that raises ``LpregError``
is hashed over the error's type and message instead.  Two checkouts whose
outputs are the same bits print the same lines, so ``diff`` of the two
outputs is the check.  The batches come from ``perfbench.workloads``,
which is only read.  OpenBLAS, OpenMP and MKL are pinned to one thread
so the bits do not depend on the machine's core count.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from lpreg import harness  # noqa: E402
from lpreg.errors import LpregError  # noqa: E402
from perfbench import workloads  # noqa: E402


def digest(x, report) -> str:
    """SHA-256 over x's bytes, the Gram count, phase counts and the gap."""
    h = hashlib.sha256()
    h.update(x.tobytes())
    h.update(repr(report.gram_solves).encode())
    h.update(repr(sorted(report.phase_counts.items())).encode())
    h.update(repr(report.certified_gap).encode())
    return h.hexdigest()


def fingerprints(name: str, seed: int):
    """Yield (case index, tag, digest) for every case of one batch."""
    workload = workloads.WORKLOADS[name]
    for i, case in enumerate(workloads.build_batch(workload, seed)):
        try:
            x, report = harness.solve(case.instance, workload.method,
                                      seed=case.solve_seed)
            value = digest(x, report)
        except LpregError as exc:
            value = hashlib.sha256(
                f"{type(exc).__name__}: {exc}".encode()).hexdigest()
        yield i, case.tag, value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    for seed in args.seeds:
        for i, tag, value in fingerprints(args.workload, seed):
            print(f"{args.workload} {seed} {i} {tag} {value}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
