"""Certificates hold at every data scale.

A property test over method, exponent, family, size and data scale
s = 10^k, k in [-200, 200]: whenever a solve returns a certificate, it
bounds the true relative error, measured against the independent oracle
on the unit-scale twin (the optimum at scale s is s times the twin's).
"""
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpreg.errors import NonFiniteError
from lpreg.harness import FAMILIES, gen_instance, oracle_opt, solve
from lpreg.linalg import DenseMatrix
from lpreg.problem import ProblemInstance

EXPONENTS = {"mwu": (3.0, 4.0), "accel": (4.0, 6.0), "dual": (1.25, 1.5),
             "linf": (math.inf,)}
SIZES = ((20, 2), (40, 3))


def scaled(inst: ProblemInstance, s: float) -> ProblemInstance:
    return ProblemInstance(DenseMatrix(s * inst.A.a), s * inst.b, inst.p,
                           eps=inst.eps)


def extreme_scales():
    """The scale pairs every method must pass: 1e+-20 and 1e+-200."""
    def add(fn):
        for method in EXPONENTS:
            for k in (-200, -20, 20, 200):
                fn = example(method=method, pick=0, family="gaussian",
                             size=(40, 3), seed=0, k=k)(fn)
        return fn
    return add


@settings(derandomize=True, deadline=None, max_examples=16,
          database=None)
@given(method=st.sampled_from(sorted(EXPONENTS)), pick=st.integers(0, 1),
       family=st.sampled_from(FAMILIES), size=st.sampled_from(SIZES),
       seed=st.integers(0, 999), k=st.integers(-200, 200))
@extreme_scales()
def test_certificate_bounds_true_error_at_any_scale(method, pick, family,
                                                    size, seed, k):
    exponents = EXPONENTS[method]
    p = exponents[pick % len(exponents)]
    twin = gen_instance(family, *size, seed, p=p, eps=1e-3)
    s = 10.0 ** k
    x, report = solve(scaled(twin, s), method, seed=seed)
    assert report.certified_gap is not None and report.certified_gap <= 1e-3
    true_err = report.residual_lp / (s * oracle_opt(twin)) - 1.0
    assert true_err <= report.certified_gap + 1e-6, (
        f"{method} p={p} {family} {size} seed {seed} at 1e{k}: true error "
        f"{true_err:.3g} above certified gap {report.certified_gap:.3g}")


@pytest.mark.parametrize("method,p", [("mwu", 4.0), ("accel", 4.0),
                                      ("dual", 1.5), ("linf", math.inf)])
@pytest.mark.parametrize("s", [1e-200, 1.0, 1e200])
def test_consistent_system_short_circuits_at_any_scale(method, p, s):
    twin = gen_instance("gaussian", 20, 3, 0, p=p)
    x_true = [1.0, -2.0, 0.5]
    inst = scaled(ProblemInstance(twin.A, twin.A.a @ x_true, p), s)
    x, report = solve(inst, method)
    assert report.phase_counts["short_circuit"] == 1
    assert report.certified_gap == 0.0 and report.gram_solves == 1
    assert x == pytest.approx(x_true, rel=1e-10)


@pytest.mark.parametrize("method,p", [("mwu", 4.0), ("accel", 4.0),
                                      ("dual", 1.5), ("linf", math.inf)])
@pytest.mark.parametrize("sa,sb", [(1e300, 1e-300), (1e-200, 1e200)])
def test_minimizer_outside_float64_raises(method, p, sa, sb):
    # The optimum's x scales as sb / sa: 1e-600 underflows to 0 and 1e400
    # overflows, so neither may come back with a certificate.
    twin = gen_instance("gaussian", 20, 3, 0, p=p, eps=1e-3)
    inst = ProblemInstance(DenseMatrix(sa * twin.A.a), sb * twin.b, p,
                           eps=twin.eps)
    with pytest.raises(NonFiniteError, match="outside float64's range"):
        solve(inst, method)
