"""Certificates at the edges of the conditioning the API accepts.

Every lower bound a solver reports is a weak-duality bound over
{y : A^T y = 0}, so its truth rests on projecting onto that space in A's
own QR basis rather than through the normal equations, which square
cond(A).
"""
import math

import pytest

from lpreg import harness
from lpreg.errors import LpregError, NonFiniteError
from lpreg.harness import FAMILIES, gen_instance, oracle_opt, solve

from diagnostics import exact_residual_lp


@pytest.mark.parametrize("method", ["mwu", "accel", "dual"])
def test_p2_certifies_in_one_round(method):
    # At p = 2 the least-squares start is the optimum, and its own residual
    # is the dual certificate, so the driver closes the gap in the first
    # bracket round, even at eps 1e-14 and cond(A) 1e6, with two Gram
    # solves (the start and the certificate) and no solver step.
    for family in FAMILIES:
        for n, d in ((60, 4), (160, 8), (1000, 32), (2000, 64)):
            for seed in (0, 1):
                inst = gen_instance(family, n, d, seed, p=2.0, eps=1e-14)
                _, rep = solve(inst, method, seed=seed)
                assert rep.gram_solves == 2, (family, n, d, seed)
                assert rep.phase_counts == {
                    "rounds": 1, "init": 1, "certificate": 1,
                    "factorizations": 1}, (family, n, d, seed)


# (method, p, eps); the dual path's q = 1.5 and linf's minimax exponent
SLICE = [("mwu", 4.0, 1e-6), ("mwu", 8.0, 1e-6), ("accel", 4.0, 1e-6),
         ("dual", 1.5, 1e-6), ("linf", math.inf, 1e-4)]


@pytest.mark.parametrize("decades", [8.0, 10.0, 12.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_conditioning_slice_certifies_truly_or_raises(decades, seed,
                                                      monkeypatch):
    # 160x8 ill_conditioned matrices with cond(A) = 10^decades.  Any
    # achieved residual bounds the optimum from above, and oracle_opt is
    # not a safe referee this far out, so each run is judged against the
    # lowest of oracle_opt and every residual achieved at its exponent.
    # Residuals are evaluated exactly, since ||x|| grows with cond(A).
    monkeypatch.setattr(harness, "ILL_COND_DECADES", decades)
    achieved, certified = {}, []
    for method, p, eps in SLICE:
        inst = gen_instance("ill_conditioned", 160, 8, seed, p=p, eps=eps)
        achieved.setdefault(p, [oracle_opt(inst)])
        try:
            x, rep = solve(inst, method, seed=seed)
        except LpregError:
            continue
        residual = exact_residual_lp(inst, x)
        achieved[p].append(residual)
        certified.append((method, p, residual, rep.certified_gap))
    for method, p, residual, gap in certified:
        error = residual / min(achieved[p]) - 1.0
        assert gap >= error, (method, p, gap, error)


def test_accel_certifies_at_its_stationarity_floor():
    # accel's final x here is stationary enough that -b^T yhat / ||yhat||_q,
    # which leaves out the rounding drift x^T A^T yhat, lies 9.7e-13 above
    # the exactly evaluated residual, which raised BoundAboveObjectiveError;
    # the drift-charged bound of lp_dual_bound stays below it.
    inst = gen_instance("ill_conditioned", 160, 8, 0, p=8.0, eps=1e-6)
    x, rep = solve(inst, "accel", seed=0)
    residual = exact_residual_lp(inst, x)
    error = residual / min(oracle_opt(inst), residual) - 1.0
    assert error <= rep.certified_gap <= 1e-6


def test_dual_multiplier_overflow_is_a_solver_error(monkeypatch):
    # At cond(A) 1e10 and eps 1e-12 the multipliers of dual's constrained
    # quadratic overflow: a singular stacked system, which must surface as
    # a solver error, not as non-finite input (CLI exit 3).
    monkeypatch.setattr(harness, "ILL_COND_DECADES", 10.0)
    inst = gen_instance("ill_conditioned", 160, 8, 1, p=1.5, eps=1e-12)
    with pytest.raises(LpregError) as info:
        solve(inst, "dual", seed=1)
    assert not isinstance(info.value, NonFiniteError)
