"""Print two SHA-256 fingerprints per solve of a benchmark batch.

Run from the repository root:

    python3 tests/fingerprint.py --workload linf --seeds 0 1 2

Each line is ``<workload> <seed> <case index> <tag> <outputs> <counts>``.
The first digest covers what the solve returns: the bytes of ``x`` and
``certified_gap``.  The second covers what it cost: ``gram_solves`` and
the sorted ``phase_counts``.  A solve that raises ``LpregError`` is hashed
over the error's type and message instead, in both columns.  Two checkouts
whose outputs are the same bits print the same lines, so ``diff`` of the
two outputs is the check; a change that moves counts but not bits shows
as a difference in the last column only.  The batches come from
``perfbench.workloads``, which is only read.  OpenBLAS, OpenMP and MKL
are pinned to one thread so the bits do not depend on the machine's core
count.
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


def digests(x, report) -> tuple:
    """SHA-256 over x's bytes and the gap; SHA-256 over the counts."""
    outputs = hashlib.sha256(x.tobytes())
    outputs.update(repr(report.certified_gap).encode())
    counts = hashlib.sha256(repr(report.gram_solves).encode())
    counts.update(repr(sorted(report.phase_counts.items())).encode())
    return outputs.hexdigest(), counts.hexdigest()


def fingerprints(name: str, seed: int):
    """Yield (case index, tag, outputs digest, counts digest) per case."""
    workload = workloads.WORKLOADS[name]
    for i, case in enumerate(workloads.build_batch(workload, seed)):
        try:
            x, report = harness.solve(case.instance, workload.method,
                                      seed=case.solve_seed)
            values = digests(x, report)
        except LpregError as exc:
            values = (hashlib.sha256(
                f"{type(exc).__name__}: {exc}".encode()).hexdigest(),) * 2
        yield i, case.tag, *values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    for seed in args.seeds:
        for i, tag, outputs, counts in fingerprints(args.workload, seed):
            print(f"{args.workload} {seed} {i} {tag} {outputs} {counts}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
