"""The §6.4 syntactic skips, decided with one lookup in the program's
effect index, must decide exactly what a walk of the handler body
decided.

The reference below is the walk the prover used before handlers carried
their :class:`~repro.lang.ast.Effects`: a scan of the body for a
matching send, spawn or call, a collection of the assigned globals, the
bounded skip's scan for a spawn of the bounded type, and the exchange
boundary's own rule (a Select matches the exchanges of its component
type, a Recv the exchange of its type and message).  Every exchange of
every program below is decided both ways

* for the trace skip, against every pattern of the program's
  properties, every pattern of an invariant its verification tried, and
  one pattern per message name, component type and called function —
  through :func:`~repro.prover.obligations.live_exchanges`, the search
  (``syntactic_skips``) and the checker on both paths: the whole-proof
  check of a store-less verify (``trace_proof_complaints``), and with a
  store the batched skip check (``trace_skip_complaints``) and a stored
  fragment's check (``trace_exchange_complaints``);
* for the invariant skip, against every invariant spec its verification
  tried, plus an absence spec per pattern and a guard per global —
  through the live set the search and the checker share and the
  checker's verdict on a derivation that skips every exchange;
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
from repro.prover import Verifier, checker, engine, invariants
from repro.prover.checker import (
    trace_exchange_complaints,
    trace_proof_complaints,
    trace_skip_complaints,
)
from repro.prover.derivation import (
    BaseClean,
    BaseProof,
    BoundedProof,
    BoundedSpec,
    CaseSyntacticSkip,
    InvariantProof,
    InvariantSpec,
    SkippedExchange,
    TracePropertyProof,
)
from repro.prover.obligations import InstPattern, Scheme, live_exchanges
from repro.prover.trace_tactics import TacticContext, syntactic_skips
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


def ref_boundary_may_match(pattern, ex):
    if isinstance(pattern, SelectPat):
        return pattern.comp.ctype == ex.ctype
    if isinstance(pattern, RecvPat):
        return (pattern.comp.ctype, pattern.msg.name) == (ex.ctype, ex.msg)
    return False


def ref_trace_silent(pattern, ex):
    return not (ref_boundary_may_match(pattern, ex)
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


def skip_rejections(complaints, marker):
    """The exchanges ``complaints`` reject a skip of, by key."""
    return {tuple(complaint[len(marker):].split("=>"))
            for complaint in complaints if complaint.startswith(marker)}


def checker_trace_silent(step, pattern):
    """The exchanges whose forged trace skip the checker accepts, on
    each path: the whole-proof check of a derivation skipping every
    exchange, the batched skip check and each stored fragment's check."""
    keys = [ex.key for ex in step.exchanges]
    every = frozenset(keys)
    scheme = Scheme(pattern, pattern, "before")
    skips = tuple(SkippedExchange(key, "forged") for key in keys)
    proof = TracePropertyProof(
        TraceProperty("forged", "Enables", pattern, pattern), scheme,
        BaseProof(()), skips)
    marker = "invalid syntactic skip of "
    whole = every - skip_rejections(trace_proof_complaints(step, proof),
                                    marker)
    batched = every - skip_rejections(
        trace_skip_complaints(step, scheme, keys), marker)
    fragments = frozenset(
        skip.exchange_key for skip, ex in zip(skips, step.exchanges)
        if not trace_exchange_complaints(
            step, scheme, ex, {(ex.key, None): skip}))
    return {"whole proof": whole, "batched": batched,
            "fragment": fragments}


def checker_invariant_skippable(step, spec):
    """The exchanges whose forged invariant skip the checker accepts."""
    complaints = checker.validate_invariant(step, InvariantProof(
        spec, BaseClean(()),
        tuple((ex.key, -1, CaseSyntacticSkip()) for ex in step.exchanges)))
    return frozenset(ex.key for ex in step.exchanges) - skip_rejections(
        complaints, "invalid syntactic skip at ")


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_skip_decisions_equal_the_reference_walks(corpus, monkeypatch):
    outcomes = Counter()
    for label, spec in CORPORA[corpus]():
        verifier, tried_invariants, tried_bounded = verify_recording(
            spec, monkeypatch)
        step = verifier.generic_step()
        program = step.info.program
        tc = TacticContext(step=step, invariant_prover=None,
                           bounded_prover=None, skips={})
        patterns = patterns_of(spec, tried_invariants)
        pre_env = step.pre_env_dict()
        for pattern in patterns:
            expected = frozenset(ex.key for ex in step.exchanges
                                 if ref_trace_silent(pattern, ex))
            outcomes["trace", True] += len(expected)
            outcomes["trace", False] += len(step.exchanges) - len(expected)
            where = (label, pattern)
            live = live_exchanges(program, pattern)
            assert live <= {ex.key for ex in step.exchanges}, where
            assert {ex.key for ex in step.exchanges
                    if ex.key not in live} == expected, where
            scheme = Scheme(pattern, pattern, "before")
            assert set(syntactic_skips(tc, scheme)) == expected, where
            for path, accepted in checker_trace_silent(step,
                                                       pattern).items():
                assert accepted == expected, (path,) + where

        invariant_specs = list(tried_invariants)
        invariant_specs.extend(
            InvariantSpec("absence", (), InstPattern(pattern, ()), ())
            for pattern in patterns)
        for name, term in pre_env.items():
            invariant_specs.append(InvariantSpec(
                "history", (term,), InstPattern(patterns[0], ()), ()))
        for inv in invariant_specs:
            guard_globals = checker._guard_globals(step, inv)
            expected = frozenset(
                ex.key for ex in step.exchanges
                if ref_invariant_skippable(inv, ex, guard_globals))
            outcomes["invariant", True] += len(expected)
            outcomes["invariant", False] += \
                len(step.exchanges) - len(expected)
            live = checker.invariant_live(step, inv)
            assert {ex.key for ex in step.exchanges
                    if ex.key not in live} == expected, (label, inv)
            assert checker_invariant_skippable(step, inv) == expected, \
                (label, inv)

        bounded_specs = [(bounded, checker.bound_var_name(step, bounded))
                         for bounded in tried_bounded]
        for ctype in [c.name for c in program.components] + ["NoSuchType"]:
            for name, term in pre_env.items():
                bounded_specs.append((BoundedSpec(ctype, 0, term), name))
        for bounded, bound_name in bounded_specs:
            expected = frozenset(
                ex.key for ex in step.exchanges
                if ref_bounded_skippable(bounded.ctype, ex, bound_name))
            outcomes["bounded", True] += len(expected)
            outcomes["bounded", False] += \
                len(step.exchanges) - len(expected)
            live = checker.bounded_live(step, bounded, bound_name)
            assert {ex.key for ex in step.exchanges
                    if ex.key not in live} == expected, (label, bounded)
        for bounded in tried_bounded:
            complaints = checker.validate_bounded(step, BoundedProof(
                bounded, tuple((ex.key, -1, "skip")
                               for ex in step.exchanges)))
            bound_name = checker.bound_var_name(step, bounded)
            assert frozenset(ex.key for ex in step.exchanges) \
                - skip_rejections(complaints, "invalid bounded skip at ") \
                == {ex.key for ex in step.exchanges
                    if ref_bounded_skippable(bounded.ctype, ex,
                                             bound_name)}, (label, bounded)
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
