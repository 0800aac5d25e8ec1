"""The §6.4 syntactic skips, decided from per-handler effect sets, must
decide exactly what a walk of the handler body decided.

The reference below is the walk the prover used before handlers carried
their :class:`~repro.lang.ast.Effects`: ``handler_may_emit`` scanning the
body for a matching send, spawn or call, ``assigned_vars`` collecting the
assigned globals, and the bounded skip's scan for a spawn of the bounded
type.  Every exchange of every program below is decided both ways

* for the trace skip, against every pattern of the program's
  properties, every pattern of an invariant its verification tried, and
  one pattern per message name, component type and called function —
  through the search (``syntactic_skip``) and the checker
  (``trace_exchange_complaints``);
* for the invariant skip, against every invariant spec its verification
  tried, plus an absence spec per pattern and a guard per global;
* for the bounded skip, against every bounded spec its verification
  tried, plus one per component type and global;

over the seven paper kernels and ``scale32`` (the benchmark's frozen
sources), every edit of the ``serve-edit`` catalogue, every mutant of
:mod:`repro.harness.mutation` and the generated kernels of
``test_prover_differential.py``.
"""

from collections import Counter

import pytest

from perfbench.edits import CATALOGUE
from perfbench.kernels import PAPER_KERNELS, SYNTHETIC, sources
from repro.frontend import parse_program
from repro.harness.mutation import mutants_of
from repro.lang import ast
from repro.props import TraceProperty, comp_pat, msg_pat, specify
from repro.props.patterns import (
    CallPat,
    RecvPat,
    SelectPat,
    SendPat,
    SpawnPat,
)
from repro.prover import Verifier, engine, invariants
from repro.prover.checker import trace_exchange_complaints
from repro.prover.derivation import BoundedSpec, InvariantSpec, SkippedExchange
from repro.prover.obligations import (
    InstPattern,
    Scheme,
    boundary_may_match,
    exchange_statically_silent,
)
from repro.prover.trace_tactics import TacticContext, syntactic_skip
from repro.systems import BENCHMARKS
from tests.integration.test_prover_differential import (
    generate_program,
    generate_properties,
)

# ---------------------------------------------------------------------------
# The reference: the walks the effect sets replace
# ---------------------------------------------------------------------------


def ref_handler_may_emit(pattern, body):
    if isinstance(pattern, SendPat):
        return any(isinstance(cmd, ast.SendCmd)
                   and cmd.msg == pattern.msg.name
                   for cmd in ast.sub_cmds(body))
    if isinstance(pattern, SpawnPat):
        return any(isinstance(cmd, ast.SpawnCmd)
                   and cmd.ctype == pattern.comp.ctype
                   for cmd in ast.sub_cmds(body))
    if isinstance(pattern, CallPat):
        return any(isinstance(cmd, ast.CallCmd) and cmd.func == pattern.func
                   for cmd in ast.sub_cmds(body))
    return False


def ref_assigned_vars(body):
    return frozenset(cmd.var for cmd in ast.sub_cmds(body)
                     if isinstance(cmd, ast.Assign))


def ref_calls(body):
    return {cmd.func for cmd in ast.sub_cmds(body)
            if isinstance(cmd, ast.CallCmd)}


def ref_body(ex):
    return ex.handler.body if ex.handler is not None else ast.Nop()


def ref_trace_silent(pattern, ex):
    return not (boundary_may_match(pattern, ex.ctype, ex.msg)
                or ref_handler_may_emit(pattern, ref_body(ex)))


def ref_invariant_skippable(spec, ex, guard_globals):
    body = ref_body(ex)
    if ref_assigned_vars(body) & guard_globals:
        return False
    return spec.kind != "absence" or ref_trace_silent(spec.inst.pattern, ex)


def ref_bounded_skippable(ctype, ex, bound_name):
    body = ref_body(ex)
    if bound_name in ref_assigned_vars(body):
        return False
    return not any(isinstance(cmd, ast.SpawnCmd) and cmd.ctype == ctype
                   for cmd in ast.sub_cmds(body))


# ---------------------------------------------------------------------------
# The programs
# ---------------------------------------------------------------------------


def kernel_specs():
    srcs = sources(PAPER_KERNELS + (SYNTHETIC,))
    return [(kernel, parse_program(src)) for kernel, src in srcs.items()]


def edit_specs():
    srcs = sources(PAPER_KERNELS)
    return [(f"{edit.kernel}/{edit.site}",
             parse_program(edit.apply(srcs[edit.kernel], 7)))
            for edit in CATALOGUE]


def mutant_specs():
    return [(mutant.label, mutant.spec)
            for benchmark in BENCHMARKS for mutant in mutants_of(benchmark)]


def generated_specs():
    out = []
    for seed in range(25):
        info = generate_program(seed).build_validated()
        props = []
        for prop in generate_properties(seed):
            try:
                specify(info, prop)
            except Exception:
                continue
            props.append(prop)
        out.append((f"fuzz{seed}", specify(info, *props)))
    return out


CORPORA = {
    "kernels": kernel_specs,
    "edits": edit_specs,
    "mutants": mutant_specs,
    "generated": generated_specs,
}


def verify_recording(spec, monkeypatch):
    """Verify ``spec``; return its verifier and every invariant and
    bounded spec the search tried to prove."""
    tried = {"invariant": [], "bounded": []}

    def recording(kind, prove):
        def wrapper(step, sub, *args, **kwargs):
            tried[kind].append(sub)
            return prove(step, sub, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(engine, "prove_invariant",
                        recording("invariant", invariants.prove_invariant))
    monkeypatch.setattr(engine, "prove_bounded",
                        recording("bounded", invariants.prove_bounded))
    verifier = Verifier(spec)
    verifier.verify_all()
    monkeypatch.undo()
    return verifier, tried["invariant"], tried["bounded"]


def patterns_of(spec, invariant_specs):
    """Every property pattern, every tried invariant's pattern, and one
    send, receive, select, spawn and call pattern per name the program
    uses (plus names it does not)."""
    program = spec.program
    ctypes = [c.name for c in program.components] + ["NoSuchType"]
    messages = [m.name for m in program.messages] + ["NoSuchMessage"]
    funcs = {func for handler in program.handlers
             for func in ref_calls(handler.body)} | {"no_such_function"}
    patterns = []
    for prop in spec.properties:
        if isinstance(prop, TraceProperty):
            patterns.extend((prop.a, prop.b))
    patterns.extend(inv.inst.pattern for inv in invariant_specs)
    for m in messages:
        patterns.append(SendPat(comp_pat(ctypes[0]), msg_pat(m)))
        patterns.append(RecvPat(comp_pat(ctypes[0]), msg_pat(m)))
    patterns.extend(SelectPat(comp_pat(c)) for c in ctypes)
    patterns.extend(SpawnPat(comp_pat(c)) for c in ctypes)
    patterns.extend(CallPat(f) for f in sorted(funcs))
    return patterns


# ---------------------------------------------------------------------------
# The differential
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_skip_decisions_equal_the_reference_walks(corpus, monkeypatch):
    outcomes = Counter()
    for label, spec in CORPORA[corpus]():
        verifier, tried_invariants, tried_bounded = verify_recording(
            spec, monkeypatch)
        step = verifier.generic_step()
        tc = TacticContext(step=step, invariant_prover=None,
                           bounded_prover=None, skips={})
        patterns = patterns_of(spec, tried_invariants)
        pre_env = step.pre_env_dict()
        for ex in step.exchanges:
            where = f"{label} {ex.ctype}=>{ex.msg}"
            for pattern in patterns:
                expected = ref_trace_silent(pattern, ex)
                outcomes["trace", expected] += 1
                scheme = Scheme(pattern, pattern, "before")
                forged = {(ex.key, None): SkippedExchange(ex.key, "forged")}
                assert exchange_statically_silent(pattern, ex) \
                    == expected, (where, pattern)
                assert (syntactic_skip(tc, scheme, ex) is not None) \
                    == expected, (where, pattern)
                assert (not trace_exchange_complaints(
                    step, scheme, ex, forged)) == expected, (where, pattern)

            for inv in tried_invariants:
                guard_globals = invariants._guard_globals(step, inv)
                expected = ref_invariant_skippable(inv, ex, guard_globals)
                outcomes["invariant", expected] += 1
                assert invariants._exchange_skippable(
                    step, inv, ex, guard_globals) == expected, (where, inv)
            for pattern in patterns:
                inv = InvariantSpec("absence", (), InstPattern(pattern, ()),
                                    ())
                expected = ref_invariant_skippable(inv, ex, frozenset())
                outcomes["invariant", expected] += 1
                assert invariants._exchange_skippable(
                    step, inv, ex, frozenset()) == expected, (where, inv)
            history = InvariantSpec("history", (),
                                    InstPattern(patterns[0], ()), ())
            for name in pre_env:
                expected = ref_invariant_skippable(history, ex,
                                                   frozenset({name}))
                outcomes["invariant", expected] += 1
                assert invariants._exchange_skippable(
                    step, history, ex, frozenset({name})) == expected, \
                    (where, name)

            for bounded in tried_bounded:
                bound_name = invariants._bound_var_name(step, bounded)
                expected = ref_bounded_skippable(bounded.ctype, ex,
                                                 bound_name)
                outcomes["bounded", expected] += 1
                assert invariants._bounded_skippable(
                    step, bounded, ex, bound_name) == expected, \
                    (where, bounded)
            for ctype in [c.name for c in spec.program.components] \
                    + ["NoSuchType"]:
                for name, term in pre_env.items():
                    bounded = BoundedSpec(ctype, 0, term)
                    expected = ref_bounded_skippable(ctype, ex, name)
                    outcomes["bounded", expected] += 1
                    assert invariants._bounded_skippable(
                        step, bounded, ex, name) == expected, \
                        (where, ctype, name)
    # Every kind of decision went both ways somewhere in the corpus.
    for kind in ("trace", "invariant", "bounded"):
        assert outcomes[kind, True] and outcomes[kind, False], outcomes


# ---------------------------------------------------------------------------
# Each handler is summarized once
# ---------------------------------------------------------------------------


def test_a_verify_walks_each_handler_body_at_most_once(monkeypatch):
    """Deciding a skip reads the handler's cached effect sets, so
    verifying ``scale32`` (96 handlers, 258 exchanges, 32 properties)
    walks each handler body at most once, where a walk per skip
    decision walks them 12 224 times."""
    spec = parse_program(sources([SYNTHETIC])[SYNTHETIC])
    handlers = spec.program.handlers
    bodies = {id(handler.body) for handler in handlers}
    walks = Counter()
    walk = ast.sub_cmds

    def counting(cmd):
        if id(cmd) in bodies:
            walks[id(cmd)] += 1
        return walk(cmd)

    monkeypatch.setattr(ast, "sub_cmds", counting)
    report = Verifier(spec).verify_all()
    assert report.all_proved
    assert len(handlers) == 96
    assert sum(walks.values()) <= len(handlers)
    assert max(walks.values(), default=0) <= 1
