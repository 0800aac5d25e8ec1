"""Proof automation for the five trace primitives (paper section 5.1).

The tactic performs induction over BehAbs: the base case covers the Init
trace, the inductive case covers every symbolic path of every exchange.
Within each case it enumerates *trigger occurrences* and justifies each one
(see :mod:`repro.prover.derivation` for the justification algebra), using
the solver for entailments, ``lookup`` facts bridged through the
component-set/Spawn correspondence, and secondary-induction invariants from
:mod:`repro.prover.invariants`.

Both the search (:func:`prove_trace_property`) and the checker share
:func:`validate_justification`: the search proposes, validation decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..lang.errors import ProofSearchFailure
from ..props.patterns import SpawnPat
from ..props.spec import TraceProperty
from ..symbolic.behabs import Exchange, GenericStep
from ..symbolic.expr import FreshNames, SComp, Term
from ..symbolic.seval import FoundFact, MissingFact, SymPath, eval_sexpr
from ..symbolic.solver import Facts, extend_facts
from ..symbolic.templates import Template
from ..symbolic.unify import match_comp_term, match_template
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
from .invariants import generalization_instantiation, generalize, instantiate
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


@dataclass(frozen=True)
class OccurrenceContext:
    """Everything needed to justify or validate one occurrence."""

    step: GenericStep
    scheme: Scheme
    actions: Tuple[Template, ...]
    cond: Tuple[Term, ...]
    #: lookup facts of the surrounding path (empty at the base case)
    lookup_facts: Tuple[object, ...]
    #: False at the base case: there is no pre-state trace
    has_history: bool
    #: the exchange's sender component term (None at the base case)
    sender: Optional[SComp] = None

    def occurrence_facts(self, occ: Occurrence) -> Facts:
        """Solver facts: path condition plus the occurrence's match
        constraints.

        Paths sharing a condition prefix (the common case after ``dnf``)
        reuse the prefix-cached :class:`Facts` instead of re-asserting
        every literal from scratch.
        """
        return extend_facts(self.cond, occ.match.constraints)


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
            from .counterexample import build_candidate

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
                from .counterexample import build_candidate

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


def _entailed_required_match(ctx: OccurrenceContext, occ: Occurrence,
                             facts: Facts, index: int) -> bool:
    m = match_template(ctx.scheme.required, ctx.actions[index],
                       occ.match.binding_dict())
    if m is None:
        return False
    results = facts.implies_all(m.constraints, stop_on_failure=True)
    return len(results) == len(m.constraints) and all(results)


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
    if _entailed_required_match(ctx, occ, facts, where):
        return ImmWitness(where)
    raise ProofSearchFailure(
        f"action immediately {direction} the trigger "
        f"({ctx.actions[where]}) does not match {ctx.scheme.required}"
    )


def _justify_after(ctx: OccurrenceContext, occ: Occurrence,
                   facts: Facts) -> Justification:
    for j in range(occ.index + 1, len(ctx.actions)):
        if _entailed_required_match(ctx, occ, facts, j):
            return LaterWitness(j)
    raise ProofSearchFailure(
        f"no action after the trigger matches {ctx.scheme.required} "
        f"(Ensures obligations must be met within the same handler, since "
        f"the property must hold at every reachable state)"
    )


def _justify_before(tc: TacticContext, ctx: OccurrenceContext,
                    occ: Occurrence, facts: Facts) -> Justification:
    for j in range(occ.index):
        if _entailed_required_match(ctx, occ, facts, j):
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


def missing_fact_covers(ctx: OccurrenceContext, occ: Occurrence,
                        facts: Facts, fact: MissingFact) -> bool:
    """Does "no component of ``fact.ctype`` satisfies ``fact.pred``" rule
    out every component the forbidden spawn pattern could describe?

    We take an arbitrary candidate component of the type, assume it matches
    the (σ-instantiated) pattern, and require the lookup predicate to follow
    — then the missing fact excludes it from the component set, and the
    component-set/Spawn correspondence excludes the spawn from the trace.
    """
    required = ctx.scheme.required
    if not isinstance(required, SpawnPat):
        return False
    if fact.ctype != required.comp.ctype:
        return False
    decl = ctx.step.info.comp_table[fact.ctype]
    fresh = FreshNames()
    candidate = SComp(
        label="candidate",
        ctype=fact.ctype,
        config=tuple(
            fresh.var(f"cand_{f.name}", f.type, "config")
            for f in decl.config
        ),
        origin="lookup",
        seq=0,
    )
    m = match_comp_term(required.comp, candidate, occ.match.binding_dict())
    if m is None:
        return False
    probe = facts.copy()
    for c in m.constraints:
        probe.assert_term(c)
    pred_term = eval_sexpr(
        fact.pred, dict(fact.env), {fact.bind: candidate}, fact.sender,
        ctx.step.info,
    )
    return probe.implies(pred_term)


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
    from dataclasses import replace

    from ..lang import types as lang_types
    from ..symbolic.expr import SConst, SOp
    from ..symbolic.simplify import term_type

    variants = [spec]
    weakened = []
    changed = False
    for literal in spec.guard:
        if (
            isinstance(literal, SOp) and literal.op == "eq"
            and isinstance(literal.args[1], SConst)
            and term_type(literal.args[0]) == lang_types.NUM
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


def spawn_pattern_field_terms(required: SpawnPat, binding) -> List[tuple]:
    """(config index, pinned term) pairs of a spawn pattern under a
    binding: the positions the forbidden/required spawn constrains."""
    from ..props.patterns import PLit, PVar
    from ..symbolic.expr import lift_value

    if required.comp.config is None:
        return []
    pins: List[tuple] = []
    for k, fp in enumerate(required.comp.config):
        if isinstance(fp, PLit):
            pins.append((k, lift_value(fp.value)))
        elif isinstance(fp, PVar) and fp.name in binding:
            pins.append((k, binding[fp.name]))
    return pins


def _find_bounded_bridge(tc: TacticContext, ctx: OccurrenceContext,
                         occ: Occurrence,
                         facts: Facts) -> Optional[BoundedBridge]:
    from ..lang import types as lang_types
    from ..symbolic.expr import SOp, SVar
    from ..symbolic.simplify import term_type

    required = ctx.scheme.required
    if not isinstance(required, SpawnPat):
        return None
    binding = occ.match.binding_dict()
    for k, term in spawn_pattern_field_terms(required, binding):
        if term_type(term) != lang_types.NUM:
            continue
        for _name, pre_term in ctx.step.pre_env:
            if not isinstance(pre_term, SVar) \
                    or pre_term.type != lang_types.NUM:
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


def _chain_field_map(ctx: OccurrenceContext, binding) -> Optional[tuple]:
    """Split the trigger binding into (variable → sender config index) and
    (variable → constant); None when some variable is bound to anything
    else (chaining inapplicable)."""
    from ..symbolic.expr import SConst

    if ctx.sender is None:
        return None
    field_map: List[tuple] = []
    constants: List[tuple] = []
    used_indices = set()
    for var_name, term in sorted(binding.items()):
        if isinstance(term, SConst):
            constants.append((var_name, term))
            continue
        index = None
        for k, cfg in enumerate(ctx.sender.config):
            if cfg == term:
                index = k
                break
        if index is None or index in used_indices:
            return None
        used_indices.add(index)
        field_map.append((var_name, index))
    return tuple(field_map), tuple(constants)


def build_chain_lemma(ctx: OccurrenceContext, binding) -> Optional[tuple]:
    """Construct the auxiliary lemma ``[A'] Enables [Spawn(Sender(..))]``
    for the sender chain, or None when inapplicable.

    Returns ``(lemma_property, field_map)``.
    """
    from ..props.patterns import CompPat, PLit, PVar, PWild
    from ..props.spec import TraceProperty

    split = _chain_field_map(ctx, binding)
    if split is None:
        return None
    field_map, constants = split
    if not field_map:
        return None  # nothing links the trigger to the sender's identity
    const_map = {name: term for name, term in constants}
    rewritten = _pattern_with_constants(ctx.scheme.required, const_map)
    if rewritten is None:
        return None
    decl = ctx.step.info.comp_table[ctx.sender.ctype]
    by_index = {k: name for name, k in field_map}
    spawn_fields = tuple(
        PVar(by_index[k]) if k in by_index else PWild()
        for k in range(len(decl.config))
    )
    lemma = TraceProperty(
        name=f"__chain_{ctx.sender.ctype}",
        primitive="Enables",
        a=rewritten,
        b=SpawnPat(CompPat(ctx.sender.ctype, spawn_fields)),
        description="auxiliary sender-spawn chain lemma",
    )
    return lemma, field_map


def _pattern_with_constants(pattern, const_map):
    """Replace constant-bound variables in an action pattern by literals;
    None when a constant is not a plain value (tuples never occur in
    pattern fields)."""
    from ..props.patterns import (
        CallPat, CompPat, MsgPat, PLit, PVar, RecvPat, SelectPat, SendPat,
        SpawnPat,
    )
    from ..symbolic.expr import SConst

    def field(fp):
        if isinstance(fp, PVar) and fp.name in const_map:
            term = const_map[fp.name]
            if not isinstance(term, SConst):
                return None
            return PLit(term.value)
        return fp

    def fields(fps):
        out = []
        for fp in fps:
            rewritten = field(fp)
            if rewritten is None:
                return None
            out.append(rewritten)
        return tuple(out)

    def comp(cp: CompPat):
        if cp.config is None:
            return cp
        new = fields(cp.config)
        if new is None:
            return None
        return CompPat(cp.ctype, new)

    if isinstance(pattern, (SendPat, RecvPat)):
        new_comp = comp(pattern.comp)
        new_payload = fields(pattern.msg.payload)
        if new_comp is None or new_payload is None:
            return None
        return type(pattern)(new_comp,
                             MsgPat(pattern.msg.name, new_payload))
    if isinstance(pattern, (SpawnPat, SelectPat)):
        new_comp = comp(pattern.comp)
        if new_comp is None:
            return None
        return type(pattern)(new_comp)
    if isinstance(pattern, CallPat):
        new_args = fields(pattern.args)
        new_result = field(pattern.result)
        if new_args is None or new_result is None:
            return None
        return CallPat(pattern.func, new_args, new_result)
    return None


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


# ---------------------------------------------------------------------------
# Validation (shared with the checker)
# ---------------------------------------------------------------------------


def validate_justification(ctx: OccurrenceContext, occ: Occurrence,
                           justification: Justification) -> List[str]:
    """Re-check one occurrence proof; returns complaints (empty = valid)."""
    from .invariants import validate_invariant

    facts = ctx.occurrence_facts(occ)
    if isinstance(justification, Vacuous):
        if not facts.inconsistent():
            return ["claimed vacuous but the occurrence is feasible"]
        return []
    if facts.inconsistent():
        return []  # any justification is acceptable for an infeasible case

    mode = ctx.scheme.mode
    if isinstance(justification, ImmWitness):
        expected = occ.index + (-1 if mode == "imm_before" else +1)
        if mode not in ("imm_before", "imm_after"):
            return [f"ImmWitness used for mode {mode}"]
        if justification.witness_index != expected:
            return ["ImmWitness must point at the adjacent action"]
        if not _entailed_required_match(ctx, occ, facts, expected):
            return ["adjacent action does not match the required pattern"]
        return []
    if isinstance(justification, EarlierWitness):
        j = justification.witness_index
        if mode != "before" or not 0 <= j < occ.index:
            return ["EarlierWitness index out of range or wrong mode"]
        if not _entailed_required_match(ctx, occ, facts, j):
            return ["claimed earlier witness does not match"]
        return []
    if isinstance(justification, LaterWitness):
        j = justification.witness_index
        if mode != "after" or not occ.index < j < len(ctx.actions):
            return ["LaterWitness index out of range or wrong mode"]
        if not _entailed_required_match(ctx, occ, facts, j):
            return ["claimed later witness does not match"]
        return []
    if isinstance(justification, FoundBridge):
        return _validate_found_bridge(ctx, occ, facts, justification)
    if isinstance(justification, HistoryInvariant):
        if mode != "before":
            return ["HistoryInvariant used for wrong mode"]
        return _validate_invariant_use(ctx, occ, facts, justification.proof,
                                       justification.instantiation,
                                       "history")
    if isinstance(justification, SenderChain):
        return _validate_sender_chain(ctx, occ, facts, justification)
    if isinstance(justification, NoPriorMatch):
        return _validate_no_prior(ctx, occ, facts, justification)
    return [f"unknown justification {justification!r}"]


def _validate_sender_chain(ctx, occ, facts, justification) -> List[str]:
    from .checker import trace_proof_complaints

    if ctx.scheme.mode != "before":
        return ["SenderChain used for wrong mode"]
    if ctx.sender is None:
        return ["SenderChain used at the base case"]
    if any(c.ctype == ctx.sender.ctype for c in ctx.step.init.comps):
        return ["SenderChain invalid: an Init component has the sender's "
                "type, so membership does not imply a spawn in the trace"]
    built = build_chain_lemma(ctx, occ.match.binding_dict())
    if built is None:
        return ["SenderChain inapplicable: the trigger binding does not "
                "route through the sender's configuration"]
    expected_lemma, expected_map = built
    lemma_prop = justification.lemma.property
    if (lemma_prop.primitive, lemma_prop.a, lemma_prop.b) != (
        expected_lemma.primitive, expected_lemma.a, expected_lemma.b
    ):
        return ["SenderChain lemma does not match the occurrence"]
    if tuple(justification.field_map) != tuple(expected_map):
        return ["SenderChain field map does not match the occurrence"]
    return [
        f"chained lemma: {c}"
        for c in trace_proof_complaints(ctx.step, justification.lemma)
    ]


def _validate_bounded_bridge(ctx, occ, facts, history) -> List[str]:
    from ..lang import types as lang_types
    from ..symbolic.expr import SOp
    from ..symbolic.simplify import term_type
    from .invariants import validate_bounded

    required = ctx.scheme.required
    if not isinstance(required, SpawnPat):
        return ["BoundedBridge only applies to spawn patterns"]
    spec = history.proof.spec
    if spec.ctype != required.comp.ctype:
        return ["BoundedBridge invariant is about a different type"]
    pins = dict(spawn_pattern_field_terms(required,
                                          occ.match.binding_dict()))
    term = pins.get(spec.config_index)
    if term is None:
        return ["BoundedBridge: the forbidden pattern does not pin the "
                "counted configuration field"]
    if term_type(term) != lang_types.NUM:
        return ["BoundedBridge: counted field is not numeric"]
    if not facts.implies(SOp("le", (spec.bound_var, term))):
        return ["BoundedBridge: the pinned field is not provably at or "
                "above the current bound"]
    return validate_bounded(ctx.step, history.proof)


def _validate_found_bridge(ctx, occ, facts, justification) -> List[str]:
    required = ctx.scheme.required
    if ctx.scheme.mode != "before" or not isinstance(required, SpawnPat):
        return ["FoundBridge only discharges Enables of a Spawn pattern"]
    if not 0 <= justification.fact_index < len(ctx.lookup_facts):
        return ["FoundBridge fact index out of range"]
    fact = ctx.lookup_facts[justification.fact_index]
    if not isinstance(fact, FoundFact):
        return ["FoundBridge does not point at a found-fact"]
    if fact.at_index > occ.index:
        return ["lookup ran after the trigger"]
    m = match_comp_term(required.comp, fact.comp, occ.match.binding_dict())
    if m is None or not all(facts.implies(c) for c in m.constraints):
        return ["found component does not provably match the pattern"]
    return []


def _validate_no_prior(ctx, occ, facts, justification) -> List[str]:
    if ctx.scheme.mode != "never_before":
        return ["NoPriorMatch used for wrong mode"]
    required = ctx.scheme.required
    binding = occ.match.binding_dict()
    complaints: List[str] = []
    refuted = set(justification.refuted_indices)
    for j in range(occ.index):
        m = match_template(required, ctx.actions[j], binding)
        if m is None:
            continue
        probe = facts.copy()
        for c in m.constraints:
            probe.assert_term(c)
        if not probe.inconsistent():
            complaints.append(
                f"earlier action #{j} may match and was not refuted"
            )
        elif j not in refuted:
            # Acceptable: the proof did not record it, but it is refuted.
            pass
    history = justification.history
    if isinstance(history, EmptyHistory):
        if ctx.has_history:
            complaints.append("EmptyHistory used in an inductive case")
        return complaints
    if isinstance(history, MissingBridge):
        if not 0 <= history.fact_index < len(ctx.lookup_facts):
            return complaints + ["MissingBridge fact index out of range"]
        fact = ctx.lookup_facts[history.fact_index]
        if not isinstance(fact, MissingFact):
            return complaints + ["MissingBridge does not point at a "
                                 "missing-fact"]
        if not missing_fact_covers(ctx, occ, facts, fact):
            complaints.append("missing-fact does not cover the forbidden "
                              "pattern")
        return complaints
    if isinstance(history, AbsenceInvariant):
        return complaints + _validate_invariant_use(
            ctx, occ, facts, history.proof, history.instantiation, "absence"
        )
    if isinstance(history, BoundedBridge):
        return complaints + _validate_bounded_bridge(ctx, occ, facts,
                                                     history)
    return complaints + [f"unknown history justification {history!r}"]


def _validate_invariant_use(ctx, occ, facts, proof: InvariantProof,
                            instantiation, kind: str) -> List[str]:
    from ..symbolic.expr import SOp
    from .invariants import validate_invariant

    complaints = validate_invariant(ctx.step, proof)
    spec = proof.spec
    if spec.kind != kind:
        complaints.append(f"invariant kind {spec.kind} used as {kind}")
    # The instantiated guard must hold at the occurrence.
    for g in instantiate(spec.guard, instantiation):
        if not facts.implies(g):
            complaints.append(
                f"instantiated invariant guard {g} does not hold at the "
                f"occurrence"
            )
    # The instantiated pattern binding must agree with the trigger binding.
    sigma = occ.match.binding_dict()
    spec_binding = dict(spec.inst.binding)
    for name in sigma:
        if name not in spec_binding:
            complaints.append(
                f"invariant does not constrain property variable {name}"
            )
            continue
        inst_terms = instantiate([spec_binding[name]], instantiation)
        if not facts.implies(SOp("eq", (inst_terms[0], sigma[name]))):
            complaints.append(
                f"invariant instantiates {name} to {inst_terms[0]}, trigger "
                f"binds it to {sigma[name]}"
            )
    return complaints
