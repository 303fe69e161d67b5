"""Workload mixes and the seeded batches the benchmark solves.

A workload is a fixed batch: a list of instance classes (family, size,
exponent, eps), one unit-scale instance per entry (a class listed twice
gives two instances), plus a minority of scaled copies of some of them.  Each scaled copy
multiplies A and b by 1e-20 or 1e20 and keeps a pointer to its unit-scale
twin, which the certificate check uses as a reference.  Everything is a
deterministic function of the workload seed.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from lpreg import harness
from lpreg.linalg import DenseMatrix
from lpreg.problem import ProblemInstance

# Instance seeds are seed * SEED_STRIDE + index, so workload seeds never
# share an instance as long as a batch holds fewer units than this.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class InstanceClass:
    family: str
    n: int
    d: int
    p: float
    eps: float


@dataclass(frozen=True)
class Workload:
    """A solver method, its instance classes and its scaled copies.

    ``scaled`` lists (unit index, scale) pairs: the unit instance at that
    position of the batch gets a copy at that scale.
    """

    name: str
    method: str
    classes: tuple
    scaled: tuple


@dataclass
class Case:
    """One instance of a batch and the data the certificate check needs."""

    tag: str
    cls: InstanceClass
    scale: float
    instance: ProblemInstance
    solve_seed: int
    twin: int | None = None     # batch index of the unit-scale twin


def _classes(families, sizes, exponents, epss):
    """Cross product of the four axes, in a fixed order."""
    return tuple(InstanceClass(f, n, d, p, e)
                 for f in families for (n, d) in sizes
                 for p in exponents for e in epss)


def _alternating(families, sizes, exponents, eps):
    """families x sizes, the exponent cycling with family and size index.

    Every family and every size meets each exponent, at a fraction of the
    instances of the full cross product.
    """
    return tuple(InstanceClass(f, n, d, exponents[(i + j) % len(exponents)], eps)
                 for i, f in enumerate(families)
                 for j, (n, d) in enumerate(sizes))


ALL_FAMILIES = ("gaussian", "ill_conditioned", "planted_residual",
                "coherent_rows")

_DUAL_CLASSES = {
    size: _classes(("gaussian", "coherent_rows"), (size,), (1.2, 1.5), (1e-8,))
    + _classes(("ill_conditioned",), (size,), (1.5,), (1e-8,))
    for size in ((1000, 32), (2000, 64))}

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="mwu", method="mwu",
        classes=_alternating(ALL_FAMILIES, ((60, 4), (160, 8)), (3.0, 4.0),
                             1e-6),
        scaled=((0, 1e-20), (4, 1e20)),
    ),
    Workload(
        name="accel", method="accel",
        classes=_alternating(ALL_FAMILIES, ((160, 8), (320, 16)),
                             (4.0, 8.0), 1e-6),
        scaled=((0, 1e-20), (4, 1e20)),
    ),
    # ill_conditioned runs at q = 1.5 only.  At q = 1.2 it fails on about
    # one seed in five at 1000x32 (PotentialViolationError or
    # RankDeficientError), and at 2000x64 its cost spans 128 to 2456 Gram
    # solves (2 s to 38 s) across seeds, so one instance would decide the
    # run's throughput and failure count.  Three 1000x32 instances per
    # 2000x64 one keep the batch near the run length.
    Workload(
        name="dual_large", method="dual",
        classes=(_DUAL_CLASSES[(1000, 32)] * 3 + _DUAL_CLASSES[(2000, 64)]),
        scaled=((0, 1e-20), (16, 1e20)),
    ),
    Workload(
        name="linf", method="linf",
        classes=_classes(("gaussian", "coherent_rows", "planted_residual"),
                         ((160, 8), (320, 16)), (math.inf,), (1e-3, 1e-4)) * 3,
        scaled=((0, 1e-20), (5, 1e20)),
    ),
)}


def scaled_copy(inst: ProblemInstance, scale: float) -> ProblemInstance:
    """The same problem with A and b multiplied by ``scale``, revalidated."""
    return ProblemInstance(DenseMatrix(scale * inst.A.a), scale * inst.b,
                           inst.p, eps=inst.eps)


def _p_label(p: float) -> str:
    return "inf" if p == math.inf else f"{p:g}"


def build_batch(workload: Workload, seed: int) -> list:
    """Generate and validate every instance of the workload for ``seed``.

    Units come first, class by class; each scaled copy follows directly
    after the unit list, in the order ``workload.scaled`` gives.
    """
    units = []
    for cls in workload.classes:
        inst_seed = seed * SEED_STRIDE + len(units)
        inst = harness.gen_instance(cls.family, cls.n, cls.d, inst_seed,
                                    p=cls.p, eps=cls.eps)
        tag = (f"{cls.family}_{cls.n}x{cls.d}_p{_p_label(cls.p)}"
               f"_eps{cls.eps:g}_s{inst_seed}")
        units.append(Case(tag, cls, 1.0, inst, inst_seed))
    batch = list(units)
    for idx, scale in workload.scaled:
        twin = units[idx]
        batch.append(Case(f"{twin.tag}_x{scale:g}", twin.cls, scale,
                          scaled_copy(twin.instance, scale), twin.solve_seed,
                          twin=idx))
    return batch


def mix_counts(batch: list) -> dict:
    """Instance counts by family x size x exponent x eps x scale."""
    keys = Counter(f"{c.cls.family}|{c.cls.n}x{c.cls.d}|p={_p_label(c.cls.p)}"
                   f"|eps={c.cls.eps:g}|scale={c.scale:g}" for c in batch)
    return dict(sorted(keys.items()))

