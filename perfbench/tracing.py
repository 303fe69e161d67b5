"""Per-layer spans recorded around lpreg's public functions, from outside.

``Tracer.installed()`` replaces each traced function in every lpreg module
namespace that binds it (``gram_solve_multi``, for one, is imported by
five modules) and three methods on their classes, then restores the
originals.  Each call becomes a span: name, start, end, parent span and
solve id, held in flat arrays until the run ends.  A span's self time is
its duration minus the durations of its direct children; calls are
synchronous, so children never overlap and the self times of all spans of
a solve add up to that solve's ``harness.solve`` span.
"""
from __future__ import annotations

import contextlib
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, function): the span is named "<module>.<function>".
FUNCTIONS = (
    ("problem", "pnorm"),
    ("linalg", "gram_solve_multi"),
    ("linalg", "leverage_scores"),
    ("linalg", "approx_lev"),
    ("lewis", "lewis_overestimates"),
    ("lewis", "reg_lewis"),
    ("refine", "refine_to_accuracy"),
    ("refine", "lp_dual_bound"),
    ("refine", "line_search_lp"),
    ("mwu", "progress_step"),
    ("mwu", "boosting_step"),
    ("mwu", "energy_solve"),
    ("accel", "ms_accelerate"),
    ("accel", "prox_solve"),
    ("accel", "brentq"),
    ("accel", "halve_error"),
    ("dual", "oracle_small"),
    ("dual", "min_quadratic_on_affine"),
    ("dual", "primal_recover"),
    ("linf", "linf_regress"),
    ("linf", "lse_eval"),
    ("linf", "best_linf_bound"),
    ("harness", "solve"),
)
# (module, class, method): the span is named "<module>.<class>".
METHODS = (
    ("problem", "ProblemInstance", "__init__"),
    ("linalg", "DenseMatrix", "__init__"),
    ("mwu", "MwuGammaSolver", "__call__"),
)
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in FUNCTIONS) + tuple(
    f"{m}.{c}" for m, c, _ in METHODS)
GRAM = "linalg.gram_solve_multi"
LAYERS = ("problem", "linalg", "lewis", "refine", "mwu", "accel", "dual",
          "linf", "harness")


def _columns(args, kwargs) -> int:
    """Right-hand sides, i.e. Gram solves, of one gram_solve_multi call."""
    rhs = args[2] if len(args) > 2 else kwargs["rhs"]
    shape = np.shape(rhs)
    return shape[1] if len(shape) == 2 else 1


class Tracer:
    """Span recorder; see the module docstring."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.names = array("q")
        self.solves = array("q")
        self.failed = np.zeros(len(SPAN_NAMES), dtype=np.int64)
        self.columns = 0
        self._stack: list = []
        self._solve_id = -1

    def _wrap(self, name: str, fn):
        key = SPAN_NAMES.index(name)
        starts, ends, parents, names, solves = (
            self.starts, self.ends, self.parents, self.names, self.solves)
        stack, failed = self._stack, self.failed
        count_columns = name == GRAM

        def traced(*args, **kwargs):
            if count_columns:
                self.columns += _columns(args, kwargs)
            idx = len(starts)
            if stack:
                parents.append(stack[-1])
            else:
                parents.append(-1)
                self._solve_id += 1
            names.append(key)
            solves.append(self._solve_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[key] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every listed function and method inside the block."""
        saved = []
        try:
            for module, func in FUNCTIONS:
                orig = getattr(sys.modules[f"lpreg.{module}"], func)
                wrapper = self._wrap(f"{module}.{func}", orig)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("lpreg.") and getattr(mod, func, None) is orig:
                        saved.append((mod, func, orig))
                        setattr(mod, func, wrapper)
            for module, cls_name, meth in METHODS:
                cls = getattr(sys.modules[f"lpreg.{module}"], cls_name)
                orig = cls.__dict__[meth]
                saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(f"{module}.{cls_name}", orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def summary(self) -> dict:
        """Calls, self time and failures per span name, plus derived counts.

        Raises RuntimeError if the self times of a solve do not add up
        to its root span, which would mean the spans are not nested.
        """
        k = len(SPAN_NAMES)
        starts = np.frombuffer(self.starts, dtype=float)
        dur = np.frombuffer(self.ends, dtype=float) - starts
        parents = np.frombuffer(self.parents, dtype=np.int64)
        names = np.frombuffer(self.names, dtype=np.int64)
        solves = np.frombuffer(self.solves, dtype=np.int64)
        child = np.zeros(dur.size)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self_s = dur - child
        root = ~nested
        per_solve = np.bincount(solves, weights=self_s)
        root_s = np.bincount(solves[root], weights=dur[root],
                             minlength=per_solve.size)
        if not np.allclose(per_solve, root_s, rtol=1e-9, atol=1e-9):
            raise RuntimeError("span self times do not partition solve time")
        approx = SPAN_NAMES.index("linalg.approx_lev")
        gram_children = nested & (names == SPAN_NAMES.index(GRAM))
        sketched = parents[gram_children]
        sketch_calls = int(np.unique(sketched[names[sketched] == approx]).size)
        calls = np.bincount(names, minlength=k)
        self_by = np.bincount(names, weights=self_s, minlength=k)
        return {
            "calls": dict(zip(SPAN_NAMES, calls.tolist())),
            "self_s": dict(zip(SPAN_NAMES, self_by.tolist())),
            "failed": dict(zip(SPAN_NAMES, self.failed.tolist())),
            "columns": self.columns,
            "sketch_calls": sketch_calls,
            "solves": int(root.sum()),
            "solve_s": float(dur[root].sum()),
        }
