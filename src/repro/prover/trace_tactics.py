"""Proof automation for the five trace primitives (paper section 5.1).

The tactic performs induction over BehAbs: the base case covers the Init
trace, the inductive case covers every symbolic path of every exchange.
Within each case it enumerates *trigger occurrences* and justifies each one
(see :mod:`repro.prover.derivation` for the justification algebra), using
the solver for entailments, ``lookup`` facts bridged through the
component-set/Spawn correspondence, and secondary-induction invariants from
:mod:`repro.prover.invariants`.

This module only searches.  It builds its proposals with predicates it
imports from :mod:`repro.prover.checker` (the occurrence context, witness
matching, the lookup-missing cover, the sender-chain lemma), and the
checker alone decides whether a derivation is valid: it imports nothing
from here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from .. import obs
from ..lang import types as ty
from ..lang.errors import ProofSearchFailure
from ..props.patterns import SpawnPat
from ..props.spec import TraceProperty
from ..symbolic.behabs import Exchange, GenericStep
from ..symbolic.expr import SConst, SOp, SVar
from ..symbolic.seval import FoundFact, MissingFact
from ..symbolic.simplify import term_type
from ..symbolic.solver import Facts
from ..symbolic.unify import match_comp_term, match_template
from .checker import (
    OccurrenceContext,
    build_chain_lemma,
    entailed_required_match,
    instantiate,
    missing_fact_covers,
    spawn_pattern_field_terms,
)
from .counterexample import build_candidate
from .derivation import (
    AbsenceInvariant,
    BaseProof,
    BoundedBridge,
    BoundedProof,
    BoundedSpec,
    EarlierWitness,
    EmptyHistory,
    FoundBridge,
    HistoryInvariant,
    ImmWitness,
    InvariantProof,
    InvariantSpec,
    Justification,
    LaterWitness,
    MissingBridge,
    NoPriorMatch,
    OccurrenceProof,
    PathProof,
    SenderChain,
    SkippedExchange,
    StepProof,
    TracePropertyProof,
    Vacuous,
)
from .invariants import generalization_instantiation, generalize
from .obligations import (
    Occurrence,
    Scheme,
    live_exchanges,
    occurrences,
    scheme_of,
)

#: Supplied by the engine: proves (with caching) an invariant spec.
InvariantProver = Callable[[InvariantSpec], InvariantProof]
#: Supplied by the engine: proves (with caching) a bounded-counter spec.
BoundedProver = Callable[[BoundedSpec], BoundedProof]


@dataclass
class TacticContext:
    """The search's environment: the inductive step, the (cached) provers
    for auxiliary invariants, and a recursion budget for chained lemmas."""

    step: GenericStep
    invariant_prover: InvariantProver
    bounded_prover: BoundedProver
    #: each exchange's :class:`SkippedExchange` record by exchange key,
    #: built on its first skip and shared by every property of the
    #: verification
    skips: Dict[Tuple[str, str], SkippedExchange]
    syntactic_skip: bool = True
    lemma_depth: int = 2
    _depth: int = 0


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


def prove_trace_property(
    tc: TacticContext,
    prop: TraceProperty,
) -> TracePropertyProof:
    """Find a derivation for ``prop`` or raise :class:`ProofSearchFailure`."""
    scheme = scheme_of(prop)
    base = prove_trace_base(tc, prop, scheme)
    skips = syntactic_skips(tc, scheme)
    steps: List[StepProof] = []
    for ex in tc.step.exchanges:
        skip = skips.get(ex.key)
        if skip is not None:
            steps.append(skip)
        else:
            steps.extend(prove_trace_exchange(tc, prop, scheme, ex))
    return TracePropertyProof(
        property=prop, scheme=scheme, base=base, steps=tuple(steps),
    )


def prove_trace_base(tc: TacticContext, prop: TraceProperty,
                     scheme: Scheme) -> BaseProof:
    """The base case of the induction: justify every trigger occurrence
    of the Init trace (one storable derivation fragment)."""
    step = tc.step
    base_ctx = OccurrenceContext(
        step=step,
        scheme=scheme,
        actions=step.init.actions,
        cond=(),
        lookup_facts=(),
        has_history=False,
    )
    base_proofs = []
    for occ in occurrences(scheme.trigger, step.init.actions):
        try:
            base_proofs.append(OccurrenceProof(
                occ, _justify(tc, base_ctx, occ)
            ))
        except ProofSearchFailure as failure:
            candidate = failure.counterexample or build_candidate(
                exchange_name="Init",
                cond=(),
                match_constraints=occ.match.constraints,
                actions=step.init.actions,
                trigger_index=occ.index,
                reason=str(failure),
            )
            raise ProofSearchFailure(
                f"property {prop.name}: cannot justify {occ} in the Init "
                f"trace (base case): {failure}",
                residual=list(failure.residual),
                counterexample=candidate,
            ) from failure
    return BaseProof(tuple(base_proofs))


def syntactic_skips(tc: TacticContext, scheme: Scheme
                    ) -> Dict[Tuple[str, str], SkippedExchange]:
    """The §6.4 syntactic skips of a property's inductive cases: the
    :class:`SkippedExchange` record of every exchange whose boundary and
    handler cannot produce the trigger, by exchange key.  Decided with
    one lookup of the exchanges that can
    (:func:`~repro.prover.obligations.live_exchanges`) and counted once,
    as ``tactic.exchange.skipped``; decided from syntax alone, so the
    engine's store-backed search asks it before the store."""
    if not tc.syntactic_skip:
        return {}
    live = live_exchanges(tc.step.info.program, scheme.trigger)
    skips: Dict[Tuple[str, str], SkippedExchange] = {}
    for ex in tc.step.exchanges:
        key = ex.key
        if key not in live:
            skip = tc.skips.get(key)
            if skip is None:
                skip = tc.skips[key] = SkippedExchange(
                    key, "trigger cannot match anything this exchange emits"
                )
            skips[key] = skip
    if skips:
        obs.incr("tactic.exchange.skipped", len(skips))
    return skips


def prove_trace_exchange(tc: TacticContext, prop: TraceProperty,
                         scheme: Scheme,
                         ex: Exchange) -> List[StepProof]:
    """The inductive case for one exchange the syntactic skip leaves:
    one :class:`PathProof` per symbolic path (one storable fragment)."""
    step = tc.step
    obs.incr("tactic.exchange.expanded")
    steps: List[StepProof] = []
    for path_index, path in enumerate(ex.paths):
        obs.incr("tactic.path")
        ctx = OccurrenceContext(
            step=step,
            scheme=scheme,
            actions=path.actions,
            cond=path.cond,
            lookup_facts=path.lookup_facts,
            has_history=True,
            sender=ex.sender,
        )
        proofs = []
        for occ in occurrences(scheme.trigger, path.actions):
            try:
                proofs.append(OccurrenceProof(
                    occ, _justify(tc, ctx, occ)
                ))
            except ProofSearchFailure as failure:
                candidate = failure.counterexample or build_candidate(
                    exchange_name=f"{ex.ctype}=>{ex.msg}",
                    cond=path.cond,
                    match_constraints=occ.match.constraints,
                    actions=path.actions,
                    trigger_index=occ.index,
                    reason=str(failure),
                )
                raise ProofSearchFailure(
                    f"property {prop.name}: cannot justify {occ} in "
                    f"{ex.ctype}=>{ex.msg} path {path_index}: {failure}",
                    residual=[str(path)] + list(failure.residual),
                    counterexample=candidate,
                ) from failure
        steps.append(PathProof(ex.key, path_index, tuple(proofs)))
    return steps


def _justify(tc: TacticContext, ctx: OccurrenceContext,
             occ: Occurrence) -> Justification:
    facts = ctx.occurrence_facts(occ)
    if facts.inconsistent():
        return Vacuous("match condition contradicts path condition")
    mode = ctx.scheme.mode
    if mode == "imm_before":
        return _justify_imm(ctx, occ, facts, offset=-1)
    if mode == "imm_after":
        return _justify_imm(ctx, occ, facts, offset=+1)
    if mode == "before":
        return _justify_before(tc, ctx, occ, facts)
    if mode == "after":
        return _justify_after(ctx, occ, facts)
    return _justify_never_before(tc, ctx, occ, facts)


def _justify_imm(ctx: OccurrenceContext, occ: Occurrence, facts: Facts,
                 offset: int) -> Justification:
    where = occ.index + offset
    direction = "before" if offset < 0 else "after"
    if not 0 <= where < len(ctx.actions):
        if offset < 0 and ctx.has_history:
            raise ProofSearchFailure(
                "the action immediately before the trigger lies in the "
                "opaque pre-state trace"
            )
        raise ProofSearchFailure(
            f"no action immediately {direction} the trigger"
        )
    if entailed_required_match(ctx, occ, facts, where):
        return ImmWitness(where)
    raise ProofSearchFailure(
        f"action immediately {direction} the trigger "
        f"({ctx.actions[where]}) does not match {ctx.scheme.required}"
    )


def _justify_after(ctx: OccurrenceContext, occ: Occurrence,
                   facts: Facts) -> Justification:
    for j in range(occ.index + 1, len(ctx.actions)):
        if entailed_required_match(ctx, occ, facts, j):
            return LaterWitness(j)
    raise ProofSearchFailure(
        f"no action after the trigger matches {ctx.scheme.required} "
        f"(Ensures obligations must be met within the same handler, since "
        f"the property must hold at every reachable state)"
    )


def _justify_before(tc: TacticContext, ctx: OccurrenceContext,
                    occ: Occurrence, facts: Facts) -> Justification:
    for j in range(occ.index):
        if entailed_required_match(ctx, occ, facts, j):
            return EarlierWitness(j)

    required = ctx.scheme.required
    if isinstance(required, SpawnPat):
        for fact_index, fact in enumerate(ctx.lookup_facts):
            if not isinstance(fact, FoundFact):
                continue
            if fact.at_index > occ.index:
                continue
            m = match_comp_term(required.comp, fact.comp,
                                occ.match.binding_dict())
            if m is not None and all(facts.implies(c) for c in m.constraints):
                return FoundBridge(fact_index)

    if ctx.has_history:
        justification = _try_invariant(tc, ctx, occ, facts, kind="history")
        if justification is not None:
            return justification
        justification = _try_sender_chain(tc, ctx, occ, facts)
        if justification is not None:
            return justification
    raise ProofSearchFailure(
        f"no earlier action matches {required}, no lookup bridge applies, "
        f"and no guard-implies-history invariant could be inferred"
    )


def _justify_never_before(tc: TacticContext, ctx: OccurrenceContext,
                          occ: Occurrence, facts: Facts) -> Justification:
    required = ctx.scheme.required
    binding = occ.match.binding_dict()
    refuted: List[int] = []
    for j in range(occ.index):
        m = match_template(required, ctx.actions[j], binding)
        if m is None:
            continue
        probe = facts.copy()
        for c in m.constraints:
            probe.assert_term(c)
        if probe.inconsistent():
            refuted.append(j)
        else:
            raise ProofSearchFailure(
                f"action #{j} ({ctx.actions[j]}) earlier in the same "
                f"handler may match the forbidden pattern {required}"
            )

    if not ctx.has_history:
        return NoPriorMatch(tuple(refuted), EmptyHistory())

    if isinstance(required, SpawnPat):
        bridge = _find_missing_bridge(ctx, occ, facts)
        if bridge is not None:
            return NoPriorMatch(tuple(refuted), bridge)
        bounded = _find_bounded_bridge(tc, ctx, occ, facts)
        if bounded is not None:
            return NoPriorMatch(tuple(refuted), bounded)

    justification = _try_invariant(tc, ctx, occ, facts, kind="absence")
    if justification is not None:
        return NoPriorMatch(tuple(refuted), justification)
    raise ProofSearchFailure(
        f"cannot show the pre-state trace contains no action matching "
        f"{required}: no lookup-missing bridge, no bounded-counter bridge, "
        f"and no absence invariant"
    )


def _find_missing_bridge(ctx: OccurrenceContext, occ: Occurrence,
                         facts: Facts) -> Optional[MissingBridge]:
    for fact_index, fact in enumerate(ctx.lookup_facts):
        if not isinstance(fact, MissingFact):
            continue
        if missing_fact_covers(ctx, occ, facts, fact):
            return MissingBridge(fact_index)
    return None


def _try_invariant(tc: TacticContext, ctx: OccurrenceContext,
                   occ: Occurrence, facts: Facts, kind: str):
    cube = tuple(ctx.cond) + occ.match.constraints
    spec = generalize(ctx.scheme.required, occ.match.binding_dict(), cube,
                      kind)
    if spec is None:
        return None
    instantiation = generalization_instantiation(
        spec, occ.match.binding_dict(), cube
    )
    for candidate in _guard_variants(spec):
        try:
            proof = tc.invariant_prover(candidate)
        except ProofSearchFailure:
            continue
        # The weakened guard must still hold at the occurrence (weakening
        # can only help, but re-check to keep the search honest).
        applied = instantiate(candidate.guard, instantiation)
        if not all(facts.implies(g) for g in applied):
            continue
        if kind == "history":
            return HistoryInvariant(proof, instantiation)
        return AbsenceInvariant(proof, instantiation)
    return None


def _guard_variants(spec: InvariantSpec) -> List[InvariantSpec]:
    """The exact guard first, then the eq→le weakening of its numeric
    equalities.

    The weakening matters for counting properties: "no second attempt has
    been forwarded" is inductive as ``attempts <= 1``, not as
    ``attempts == 1`` (the handler that *establishes* ``attempts == 1`` is
    only covered by the weaker guard).
    """
    variants = [spec]
    weakened = []
    changed = False
    for literal in spec.guard:
        if (
            isinstance(literal, SOp) and literal.op == "eq"
            and isinstance(literal.args[1], SConst)
            and term_type(literal.args[0]) == ty.NUM
        ):
            weakened.append(SOp("le", literal.args))
            changed = True
        else:
            weakened.append(literal)
    if changed:
        variants.append(replace(spec, guard=tuple(weakened)))
    return variants


# ---------------------------------------------------------------------------
# Bounded-counter bridge
# ---------------------------------------------------------------------------


def _find_bounded_bridge(tc: TacticContext, ctx: OccurrenceContext,
                         occ: Occurrence,
                         facts: Facts) -> Optional[BoundedBridge]:
    required = ctx.scheme.required
    if not isinstance(required, SpawnPat):
        return None
    binding = occ.match.binding_dict()
    for k, term in spawn_pattern_field_terms(required, binding):
        if term_type(term) != ty.NUM:
            continue
        for _name, pre_term in ctx.step.pre_env:
            if not isinstance(pre_term, SVar) or pre_term.type != ty.NUM:
                continue
            if not facts.implies(SOp("le", (pre_term, term))):
                continue
            spec = BoundedSpec(required.comp.ctype, k, pre_term)
            try:
                proof = tc.bounded_prover(spec)
            except ProofSearchFailure:
                continue
            return BoundedBridge(proof, term)
    return None


# ---------------------------------------------------------------------------
# Sender-spawn chain
# ---------------------------------------------------------------------------


def _try_sender_chain(tc: TacticContext, ctx: OccurrenceContext,
                      occ: Occurrence,
                      facts: Facts) -> Optional[SenderChain]:
    if ctx.sender is None or tc._depth >= tc.lemma_depth:
        return None
    if any(c.ctype == ctx.sender.ctype for c in ctx.step.init.comps):
        return None  # an Init component of this type needs no spawn
    built = build_chain_lemma(ctx, occ.match.binding_dict())
    if built is None:
        return None
    lemma, field_map = built
    inner = TacticContext(
        step=tc.step,
        invariant_prover=tc.invariant_prover,
        bounded_prover=tc.bounded_prover,
        syntactic_skip=tc.syntactic_skip,
        skips=tc.skips,
        lemma_depth=tc.lemma_depth,
        _depth=tc._depth + 1,
    )
    try:
        lemma_proof = prove_trace_property(inner, lemma)
    except ProofSearchFailure:
        return None
    return SenderChain(lemma_proof, field_map)
