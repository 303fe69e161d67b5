"""Checks that a returned certificate is true, at any data scale and size.

A solve is verified only when all of these hold:

1. ``certified_gap <= eps``;
2. the residual recomputed from the returned ``x`` matches
   ``report.residual_lp``;
3. where ``harness.oracle_opt`` accepts the size, the residual is within
   ``(1 + certified_gap)`` of the oracle optimum.  The oracle runs on the
   unit-scale twin only: it shares the solvers' absolute floor
   ``max(||b||, 1)``, so at scale 1e-20 it would return 0 and could not
   refute a wrong answer.  At scale s the optimum is exactly s times the
   twin's;
4. for a scaled copy, the residual is within ``(1 + certified_gap)`` of s
   times the residual the twin's own solve reached.  That residual bounds
   the twin's optimum from above, so this never rejects a true certificate
   and needs no oracle, which makes it the check for sizes the oracle
   refuses.
"""
from __future__ import annotations

import math

import numpy as np

from lpreg import harness
from lpreg.errors import LpregError

ORACLE_MAX_N, ORACLE_MAX_D = 500, 20
# Recomputing ||Ax - b||_p in another order moves it by a few ulps.
RESIDUAL_RTOL = 1e-9
# s * A and s * b are rounded; the optimum moves by about 1e-16 times the
# condition number, which reaches 1e6 in the ill-conditioned family.
PAIR_RTOL = 1e-8
# The minimax oracle is a linear program solved to HiGHS's default primal
# feasibility tolerance of 1e-7 on unit-norm data.
ORACLE_RTOL = 1e-6


def residual_norm(a: np.ndarray, b: np.ndarray, x: np.ndarray, p: float) -> float:
    """||a x - b||_p, computed without the package's own norm routine."""
    u = np.abs(a @ x - b)
    m = float(np.max(u)) if u.size else 0.0
    if p == math.inf or m == 0.0:
        return m
    return m * float(np.sum((u / m) ** p)) ** (1.0 / p)


def oracle_value(case) -> float | None:
    """``oracle_opt`` of a unit-scale case, or None where it does not apply."""
    inst = case.instance
    if case.scale != 1.0 or inst.A.n > ORACLE_MAX_N or inst.A.d > ORACLE_MAX_D:
        return None
    try:
        return harness.oracle_opt(inst)
    except LpregError:
        return None


def check(case, x, report, unit_opt: float | None = None,
          twin_residual: float | None = None) -> str | None:
    """Why the certificate of this solve is false, or None if it holds.

    ``unit_opt`` is the oracle optimum of the case's unit-scale instance
    (its own, or its twin's for a scaled copy); ``twin_residual`` is the
    residual the twin's solve returned.  Either may be None.
    """
    eps = case.instance.eps
    gap = report.certified_gap
    if gap is None or not gap <= eps:
        return f"certified_gap {gap} exceeds eps {eps:g}"
    inst = case.instance
    resid = residual_norm(inst.A.a, inst.b, np.asarray(x, dtype=float), inst.p)
    if not math.isclose(resid, report.residual_lp, rel_tol=RESIDUAL_RTOL):
        return (f"residual of the returned x is {resid:.17g}, "
                f"report says {report.residual_lp:.17g}")
    if unit_opt:
        err = resid / (case.scale * unit_opt) - 1.0
        if err > gap + ORACLE_RTOL:
            return (f"relative error {err:.3g} against the oracle exceeds "
                    f"certified_gap {gap:.3g}")
    if case.scale != 1.0 and twin_residual:
        excess = resid / (case.scale * twin_residual) - 1.0
        if excess > gap + PAIR_RTOL:
            return (f"residual exceeds {case.scale:g} x the unit twin's by "
                    f"{excess:.3g}, above certified_gap {gap:.3g}")
    return None
