"""The trust line: the checker imports no search.

The checker's module-level import closure is the reproduction's trusted
base (DESIGN.md §2, §4).  It is computed from the source by
:func:`repro.harness.effort.import_closure`, the same function the §6.5
table reads: it follows every ``import`` and ``from … import`` a module
runs at import time, but not those inside functions or under
``if TYPE_CHECKING:``.  These tests hold the line: the closure stays
inside a pinned allowlist, reaches no search or plumbing module, and
nothing in ``repro.prover`` hides an import of the checker or of the
search inside a function.  Two modules outside the line are held apart
from it too: the trace replay, the soundness oracle's reference, imports
no symbolic or prover module, and the obs core imports nothing at all.
The step the checker replays is built inside the line: the one module
outside it that could build a step, ``repro.symbolic.compile``, is a
dead name that nothing imports and no verification calls.
"""

import ast
from dataclasses import replace
from pathlib import Path

from repro.harness.effort import CHECKER, import_closure
from repro.prover import Verifier, invariants
from repro.prover.checker import validate_invariant
from repro.prover.derivation import CaseEstablished, CaseInfeasible
from repro.symbolic import compile as symcompile
from repro.symbolic.behabs import generic_step
from repro.systems import BENCHMARKS
from tests.conftest import build_ssh_program
from tests.prover.test_invariants import auth_invariant_spec

#: The checker's closure.  A module added here is trusted code: add one
#: only on purpose.
ALLOWED = frozenset({
    "repro.lang.ast",
    "repro.lang.errors",
    "repro.lang.types",
    "repro.lang.validate",
    "repro.lang.values",
    "repro.obs.core",
    "repro.props.patterns",
    "repro.props.spec",
    "repro.props.tracepreds",
    "repro.prover.checker",
    "repro.prover.derivation",
    "repro.prover.obligations",
    "repro.runtime.actions",
    "repro.runtime.trace",
    "repro.symbolic.behabs",
    "repro.symbolic.cache",
    "repro.symbolic.expr",
    "repro.symbolic.seval",
    "repro.symbolic.simplify",
    "repro.symbolic.solver",
    "repro.symbolic.templates",
    "repro.symbolic.unify",
})

#: The search, the pipeline's plumbing and presentation: untrusted.
SEARCH = frozenset(f"repro.prover.{name}" for name in (
    "trace_tactics", "invariants", "ni", "engine", "pipeline",
    "proofstore", "incremental", "counterexample", "explain",
))

#: A bound on the closure's size: its measured size once the trace
#: replay and the obs stack left it, rounded up to the next 100.
LINES_BEFORE = 7_000

#: The runtime modules the property language is stated over.
RUNTIME_KEPT = frozenset({"repro.runtime.actions", "repro.runtime.trace"})

SRC = Path(__file__).resolve().parents[2] / "src"
PROVER = SRC / "repro" / "prover"


def test_the_closure_stays_inside_the_allowlist():
    added = sorted(set(import_closure()) - ALLOWED)
    assert not added, f"the checker's closure grew: {added}"


def test_the_closure_holds_no_search_or_plumbing():
    closure = set(import_closure())
    assert CHECKER in closure
    assert not closure & SEARCH
    assert not {name for name in closure
                if name == "repro.serve" or name.startswith("repro.serve.")}
    assert not {name for name in closure
                if name.startswith("repro.runtime.")} - RUNTIME_KEPT
    assert not {name for name in closure
                if name == "repro.obs" or name.startswith("repro.obs.")} \
        - {"repro.obs.core"}


def test_the_closure_is_smaller_than_before_the_move():
    lines = sum(len(path.read_text().splitlines())
                for path in import_closure().values())
    assert lines < LINES_BEFORE


def test_the_replay_imports_no_prover_and_the_obs_core_nothing():
    # The trace replay is the reference the soundness oracle compares the
    # interpreter against: it must not lean on what the prover decides.
    assert not {name for name in import_closure("repro.runtime.replay")
                if name.startswith(("repro.symbolic.", "repro.prover."))}
    assert list(import_closure("repro.obs.core")) == ["repro.obs.core"]


def test_the_closure_rule():
    # ``from .. import obs`` adds the package; ``from ..lang import ast``
    # adds the submodule alone, not ``repro.lang``'s ``__init__``.
    closure = import_closure("repro.prover.engine")
    assert "repro.obs" in closure
    assert "repro.lang" not in closure
    # ``if TYPE_CHECKING:`` imports do not count.
    assert "repro.prover.ni" not in import_closure()


def _function_imports(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    yield inner


def _targets(node) -> set:
    """The modules an import statement inside ``repro.prover`` may
    name."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    anchor = ["repro", "prover"][:3 - node.level] if node.level else []
    base = ".".join(anchor + ([node.module] if node.module else []))
    return {base} | {f"{base}.{alias.name}" for alias in node.names}


def test_no_prover_module_imports_the_checker_or_the_search_lazily():
    lazy = [f"{path.name}:{node.lineno}"
            for path in sorted(PROVER.glob("*.py"))
            for node in _function_imports(ast.parse(path.read_text()))
            if _targets(node) & (SEARCH | {CHECKER})]
    assert not lazy, f"function-local imports of the prover: {lazy}"


def test_an_invariant_rejection_never_searches(monkeypatch):
    step = generic_step(build_ssh_program().build_validated())
    proof = invariants.prove_invariant(step, auth_invariant_spec(step))
    index, (key, path_index, _case) = next(
        (i, case) for i, case in enumerate(proof.cases)
        if isinstance(case[2], CaseEstablished))
    cases = list(proof.cases)
    cases[index] = (key, path_index, CaseInfeasible())
    tampered = replace(proof, cases=tuple(cases))

    def search(*args, **kwargs):
        raise AssertionError("validating an invariant ran its search")

    monkeypatch.setattr(invariants, "_prove_case", search)
    complaints = validate_invariant(step, tampered)
    ctype, msg = key
    assert any(f"{ctype}=>{msg} path {path_index}" in complaint
               for complaint in complaints), complaints


def _imported_modules(path: Path) -> set:
    """Every module an import statement of ``path`` names, at any scope,
    with relative imports resolved."""
    package = path.relative_to(SRC).parts[:-1]
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            anchor = list(package[:len(package) + 1 - node.level]) \
                if node.level else []
            base = ".".join(anchor + ([node.module] if node.module else []))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_nothing_in_the_package_imports_the_compile_stub():
    importers = sorted(
        str(path.relative_to(SRC))
        for path in (SRC / "repro").rglob("*.py")
        if "repro.symbolic.compile" in _imported_modules(path))
    assert not importers, f"modules importing the dead stub: {importers}"


def test_the_replayed_step_is_built_inside_the_closure(monkeypatch):
    def outside(*args, **kwargs):
        raise AssertionError("a step was built outside the closure")

    monkeypatch.setattr(symcompile.CompiledPlan, "step_for", outside)
    report = Verifier(BENCHMARKS["car"].load()).verify_all()
    assert report.results and report.all_proved
