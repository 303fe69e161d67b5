"""Import hygiene: every import in src/lpreg is used, every module-level
UPPER_CASE constant is read somewhere in src/lpreg, every name the
package exports resolves, and so does every name the benchmark looks up
in the package.  InvalidInputError is raised only at the API boundary, a
QR is taken only by the cached factorization, only the driver and the
reference oracle single out p = 2, only the driver makes a SolveCounter,
which no layer below it takes by default, and no solver takes a round
budget or a seed.  Every allowlist entry names a function that exists,
and every allowed message a raise that exists.

No linter ships with the test environment, so this walks each module's
syntax tree with the standard ``ast`` module instead.  A name counts as
used when it is loaded anywhere in the module or listed in ``__all__``.
"""
import ast
import dataclasses
import importlib
import math
import re
import traceback
from pathlib import Path

import pytest
import scipy.linalg

import lpreg
from lpreg.harness import gen_instance, solve
from lpreg.report import SolveReport

SRC = Path(__file__).resolve().parents[1] / "src" / "lpreg"


def unused_imports(path: Path, nested: bool = False) -> list:
    """Imported names that nothing in the module loads.

    The imports checked are the module-level ones, or with ``nested`` those
    inside functions.  Names listed in ``__all__`` (the package's
    re-exports) count as used.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    top = {id(node) for node in tree.body}
    imports = ([node for node in ast.walk(tree) if id(node) not in top]
               if nested else tree.body)
    bound = {}
    for node in imports:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(f"{path.name}:{line} {name}"
                  for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import_inside_a_function(path):
    assert unused_imports(path, nested=True) == []


def unread_constants(paths) -> list:
    """Module-level UPPER_CASE assignments that no module in paths reads."""
    defined, read = {}, set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            for target in targets:
                name = getattr(target, "id", "")
                if re.fullmatch(r"[A-Z][A-Z0-9_]*", name):
                    defined[name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{where} {name}" for name, where in defined.items()
                  if name not in read)


def test_every_module_level_constant_is_read():
    assert unread_constants(sorted(SRC.glob("*.py"))) == []


def test_every_exported_name_resolves():
    missing = [name for name in lpreg.__all__ if not hasattr(lpreg, name)]
    assert missing == []


def test_every_name_the_benchmark_traces_resolves(monkeypatch):
    # perfbench/tracing.py wraps these by name and perfbench/run.py reads
    # the report field; dropping one changes the benchmark's own metrics,
    # so it may go only in a change that updates the benchmark with it.
    monkeypatch.syspath_prepend(str(SRC.parents[1]))
    tracing = importlib.import_module("perfbench.tracing")
    missing = [f"lpreg.{m}.{f}" for m, f in tracing.FUNCTIONS
               if not hasattr(importlib.import_module(f"lpreg.{m}"), f)]
    missing += [f"lpreg.{m}.{c}.{meth}" for m, c, meth in tracing.METHODS
                if meth not in vars(getattr(importlib.import_module(
                    f"lpreg.{m}"), c, object))]
    if "sketch_applications" not in {
            f.name for f in dataclasses.fields(SolveReport)}:
        missing.append("lpreg.report.SolveReport.sketch_applications")
    assert missing == [], (
        "the benchmark resolves these names; remove them only together "
        f"with the benchmark code that uses them: {missing}")


# Where InvalidInputError may be raised: the entry points, which check
# their exponent domain once before any work, and the public helpers and
# constructors that take outside input.  Nothing they call re-checks.
BOUNDARY = {
    "accel.solve_pnorm_accel", "dual.solve_lq", "dual.dual_exponent",
    "linf.linf_regress", "mwu.solve_mwu", "refine.refine_to_accuracy",
    "cli._parse_p", "harness.gen_instance", "harness.oracle_opt",
    "harness.ExperimentConfig.__post_init__",
    "harness.ExperimentConfig.from_json", "lewis.lewis_overestimates",
    "lewis.reg_lewis", "linalg.DenseMatrix.__init__",
    "linalg.gram_solve_multi", "linalg.approx_lev", "linalg.read_matrix",
    "linalg.read_vector", "problem.ProblemInstance.__post_init__",
}
# Functions allowed only the raises whose message source is listed:
# harness.solve routes and checks the two support caps, and one check
# inside a solve guards runtime state no entry point can see.
CHECKS_BY_MESSAGE = {
    "harness.solve": {"f'unknown method {method!r}'",
                      "f'mwu requires p <= {MAX_MWU_P}'",
                      "f'accel requires p <= {MAX_ACCEL_P}'"},
    "accel.ProxProblem.__post_init__": {
        "'center residuals overflow the exponent'"},
}


def invalid_input_raises(path: Path) -> list:
    """(qualified function, message source, file:line) per raise site."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            exc = getattr(child, "exc", None) if isinstance(
                child, ast.Raise) else None
            if (isinstance(exc, ast.Call)
                    and getattr(exc.func, "id", None) == "InvalidInputError"):
                message = ast.unparse(exc.args[0]) if exc.args else ""
                sites.append((".".join([path.stem] + scope), message,
                              f"{path.name}:{child.lineno}"))
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), [])
    return sites


def test_invalid_input_is_raised_only_at_the_boundary():
    stray = [f"{where} {func}: {message}"
             for path in sorted(SRC.glob("*.py"))
             for func, message, where in invalid_input_raises(path)
             if func not in BOUNDARY
             and message not in CHECKS_BY_MESSAGE.get(func, ())]
    assert stray == [], (
        "InvalidInputError raised below the boundary; check the domain once "
        f"in the entry point instead: {stray}")


# Where a QR routine may be called: the cached factorization of a matrix
# (each solve factors its own A once) and the generator that draws
# ill-conditioned instances.  Leverage scores reuse that factor.
QR_ROUTINES = {"qr", "dgeqrf"}
QR_ALLOWED = {"linalg.DenseMatrix.qr", "harness.gen_instance"}


def qr_calls(path: Path) -> list:
    """(qualified function, file:line) per call of a QR routine."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name in QR_ROUTINES:
                    sites.append((".".join([path.stem] + scope),
                                  f"{path.name}:{child.lineno}"))
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), [])
    return sites


def test_qr_routines_are_called_only_by_the_cached_factorization():
    stray = [f"{where} {func}" for path in sorted(SRC.glob("*.py"))
             for func, where in qr_calls(path) if func not in QR_ALLOWED]
    assert stray == [], f"QR routine called outside {QR_ALLOWED}: {stray}"


@pytest.mark.parametrize("method, p", [("mwu", 3.0), ("accel", 4.0),
                                       ("dual", 1.5), ("linf", math.inf)])
def test_a_solve_takes_one_qr(method, p, monkeypatch):
    # The solve's one QR is of its rescaled A; every leverage computation,
    # however reweighted, reuses it.  Any further QR names its caller.
    inst = gen_instance("gaussian", 60, 4, 0, p=p, eps=1e-6)
    callers = []
    real = scipy.linalg.qr

    def counted(*args, **kwargs):
        frames = [f"{Path(f.filename).stem}.{f.name}"
                  for f in traceback.extract_stack()
                  if Path(f.filename).parent == SRC]
        callers.append(" <- ".join(reversed(frames[:-1])))
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "qr", counted)
    solve(inst, method)
    assert len(callers) == 1, (
        f"{len(callers)} QRs in one {method} solve; the extra ones came "
        f"from: {sorted(set(callers[1:]))}")


# Where an exponent may be compared with 2: the driver, which answers
# p = 2 (and the dual path's q = 2) with its least-squares start before
# any solver step, and the independent reference optimum.
P2_ALLOWED = {"refine.certified_solve", "harness.oracle_opt"}


def p2_comparisons(path: Path) -> list:
    """(qualified function, file:line) per ==/!= of p, q or .p with 2."""
    def is_exponent(node):
        return (getattr(node, "id", None) in {"p", "q"}
                or getattr(node, "attr", None) == "p")

    def is_two(node):
        return isinstance(node, ast.Constant) and node.value == 2

    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Compare):
                operands = [child.left, *child.comparators]
                for op, left, right in zip(child.ops, operands, operands[1:]):
                    if (isinstance(op, (ast.Eq, ast.NotEq))
                            and (is_exponent(left) and is_two(right)
                                 or is_two(left) and is_exponent(right))):
                        sites.append((".".join([path.stem] + scope),
                                      f"{path.name}:{child.lineno}"))
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), [])
    return sites


def test_only_the_driver_singles_out_p2():
    stray = [f"{where} {func}" for path in sorted(SRC.glob("*.py"))
             for func, where in p2_comparisons(path)
             if func not in P2_ALLOWED]
    assert stray == [], (
        "p = 2 is the driver's case: its least-squares start is the "
        f"optimum, so no solver layer needs a branch for it: {stray}")


# Where a SolveCounter may be made: the driver, which creates each solve's
# one tally and hands it down.  The only parameter named ``counter`` with
# a default is the exported gram_solve_multi's; every layer below the
# driver takes the counter its caller passes.
COUNTER_MAKERS = {"refine.certified_solve"}
COUNTER_DEFAULT_ALLOWED = {"linalg.gram_solve_multi"}


def counter_sites(path: Path) -> tuple:
    """SolveCounter calls and defaulted ``counter`` parameters.

    Both are lists of (qualified function, file:line); a dataclass field
    counts as a parameter of its class.
    """
    made, defaulted = [], []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
                where = (".".join([path.stem] + inner),
                         f"{path.name}:{child.lineno}")
                if isinstance(child, ast.FunctionDef):
                    args = child.args
                    positional = args.posonlyargs + args.args
                    names = [a.arg for a in positional[
                        len(positional) - len(args.defaults):]]
                    names += [a.arg for a, d in zip(args.kwonlyargs,
                                                    args.kw_defaults)
                              if d is not None]
                    if "counter" in names:
                        defaulted.append(where)
                elif any(isinstance(item, ast.AnnAssign)
                         and getattr(item.target, "id", None) == "counter"
                         and item.value is not None for item in child.body):
                    defaulted.append(where)
                visit(child, inner)
                continue
            if (isinstance(child, ast.Call)
                    and getattr(child.func, "id", None) == "SolveCounter"):
                made.append((".".join([path.stem] + scope),
                             f"{path.name}:{child.lineno}"))
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), [])
    return made, defaulted


def test_only_the_driver_makes_a_solve_counter():
    sites = [counter_sites(path) for path in sorted(SRC.glob("*.py"))]
    stray = [f"{where} {func}" for made, _ in sites
             for func, where in made if func not in COUNTER_MAKERS]
    stray += [f"{where} {func}: counter has a default"
              for _, defaulted in sites for func, where in defaulted
              if func not in COUNTER_DEFAULT_ALLOWED]
    assert stray == [], (
        "each solve has one SolveCounter, made by the driver and passed "
        f"down; no layer below makes its own or defaults to none: {stray}")


# The driver owns the round budget (refine.MAX_ROUNDS) and harness.solve
# the seed label; no layer takes either as a parameter.  ``seed`` is a
# parameter only where instances are drawn and where solve records it.
SEED_PARAMETER_ALLOWED = {"harness.solve", "harness.gen_instance",
                          "harness._rng_for"}


def parameters_named(path: Path, name: str) -> list:
    """(qualified function, file:line) per function with a parameter ``name``."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
                args = getattr(child, "args", None)
                if args is not None and name in {
                        a.arg for a in args.posonlyargs + args.args
                        + args.kwonlyargs}:
                    sites.append((".".join([path.stem] + inner),
                                  f"{path.name}:{child.lineno}"))
                visit(child, inner)
                continue
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), [])
    return sites


def test_only_the_driver_budgets_rounds_and_only_solve_labels_seeds():
    paths = sorted(SRC.glob("*.py"))
    stray = [f"{where} {func}: max_rounds" for path in paths
             for func, where in parameters_named(path, "max_rounds")]
    stray += [f"{where} {func}: seed" for path in paths
              for func, where in parameters_named(path, "seed")
              if func not in SEED_PARAMETER_ALLOWED]
    assert stray == [], (
        "refine.MAX_ROUNDS is the one round budget and harness.solve "
        f"records the seed; no solver takes either: {stray}")


def defined_functions(path: Path) -> set:
    """Qualified names of the functions and methods defined in a module."""
    names = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
                if isinstance(child, ast.FunctionDef):
                    names.add(".".join([path.stem] + inner))
                visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), [])
    return names


ALLOWLISTS = {
    "BOUNDARY": BOUNDARY, "CHECKS_BY_MESSAGE": CHECKS_BY_MESSAGE,
    "QR_ALLOWED": QR_ALLOWED, "P2_ALLOWED": P2_ALLOWED,
    "COUNTER_MAKERS": COUNTER_MAKERS,
    "COUNTER_DEFAULT_ALLOWED": COUNTER_DEFAULT_ALLOWED,
    "SEED_PARAMETER_ALLOWED": SEED_PARAMETER_ALLOWED,
}


def test_no_allowlist_entry_is_stale():
    paths = sorted(SRC.glob("*.py"))
    defined = set().union(*map(defined_functions, paths))
    raised = {(func, message) for path in paths
              for func, message, _ in invalid_input_raises(path)}
    stale = [f"{name}: {func}" for name, entries in ALLOWLISTS.items()
             for func in entries if func not in defined]
    stale += [f"CHECKS_BY_MESSAGE: {func}: {message}"
              for func, messages in CHECKS_BY_MESSAGE.items()
              for message in messages if (func, message) not in raised]
    assert stale == [], (
        "these allowlist entries name no function or raise in src/lpreg; "
        f"drop them with the code they allowed: {stale}")
