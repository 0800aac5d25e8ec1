"""The independent proof checker.

The proof *search* is allowed to be arbitrarily buggy; the checker decides.
Given a program and a derivation it re-validates, without consulting the
search:

* **structure** — the derivation's scheme matches the property, and there
  is an occurrence proof for every trigger occurrence of the Init trace and
  of every symbolic path of every exchange (omissions are rejected);
* **skips** — syntactically skipped exchanges really are statically silent;
* **justifications** — every entailment, witness index, lookup bridge and
  invariant use re-checks against the solver, including the full secondary
  induction of every invariant and bounded-counter proof.

For non-interference records (where search and check coincide by
construction) the validation pass re-derives the base condition and the
*coverage* of the recorded verdicts — see :func:`ni_proof_complaints`.

This module is the one place that decides what a valid derivation is.  It
holds every validator and every predicate a validator calls: the
occurrence context, the justification, invariant and bounded-counter
validators, and the NI labeling, base condition and case split.  The
search (:mod:`~repro.prover.trace_tactics`,
:mod:`~repro.prover.invariants`, :mod:`~repro.prover.ni`) imports these
predicates to propose derivations; nothing here imports the search, the
engine, the proof store or an exporter.

The trusted base of the reproduction is therefore this module's
module-level import closure: the symbolic evaluator (shared between search
and checker — the analog of Coq's evaluation rules), the solver, the
matcher, the derivation classes, and this module.
``tests/prover/test_trust_line.py`` pins that closure, and
:func:`repro.harness.effort.import_closure` computes it for the §6.5
table.  The search — the analog of the paper's 1,768 lines of Ltac — is
untrusted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..lang import types as ty
from ..lang.errors import (
    ProofCheckFailure,
    ProofSearchFailure,
    ValidationError,
)
from ..props.patterns import (
    CallPat,
    CompPat,
    MsgPat,
    PLit,
    PVar,
    PWild,
    RecvPat,
    SelectPat,
    SendPat,
    SpawnPat,
)
from ..props.spec import NonInterference, TraceProperty
from ..symbolic.behabs import Exchange, GenericStep
from ..symbolic.expr import (
    S_FALSE,
    FreshNames,
    SComp,
    SConst,
    SOp,
    SVar,
    Term,
    free_vars,
    lift_value,
    sand,
    snot,
    sor,
    substitute,
)
from ..symbolic.seval import FoundFact, MissingFact, eval_sexpr
from ..symbolic.simplify import dnf, simplify, term_type
from ..symbolic.solver import Facts, extend_facts, facts_for
from ..symbolic.templates import Template, TSpawn
from ..symbolic.unify import match_comp_term, match_template
from .derivation import (
    AbsenceInvariant,
    BaseClean,
    BaseProof,
    BaseVacuous,
    BaseWitness,
    BoundedBridge,
    BoundedProof,
    CaseEstablished,
    CaseInfeasible,
    CasePreserved,
    CaseSyntacticSkip,
    EarlierWitness,
    EmptyHistory,
    FoundBridge,
    HistoryInvariant,
    ImmWitness,
    InvariantCase,
    InvariantProof,
    InvariantSpec,
    Justification,
    LaterWitness,
    MissingBridge,
    NoPriorMatch,
    PathProof,
    SenderChain,
    SkippedExchange,
    TracePropertyProof,
    Vacuous,
)
from .obligations import (
    InstPattern,
    Occurrence,
    Scheme,
    live_exchanges,
    occurrences,
    scheme_of,
)

if TYPE_CHECKING:
    from .ni import NIProof


# ---------------------------------------------------------------------------
# Trace derivations
# ---------------------------------------------------------------------------


def check_trace_proof(step: GenericStep,
                      proof: TracePropertyProof) -> None:
    """Raise :class:`ProofCheckFailure` unless the derivation is valid."""
    complaints = trace_proof_complaints(step, proof)
    if complaints:
        raise ProofCheckFailure(
            f"derivation for {proof.property.name} rejected: "
            + "; ".join(complaints)
        )


def trace_proof_complaints(step: GenericStep,
                           proof: TracePropertyProof) -> List[str]:
    """All reasons the derivation fails to validate (empty = valid)."""
    scheme = scheme_of(proof.property)
    if proof.scheme != scheme:
        return ["derivation scheme does not match the property"]
    # Base case coverage + justification validity.
    complaints = trace_base_complaints(step, scheme, proof.base)
    # Inductive coverage: every skip with one lookup, then the rest.
    recorded = record_step_proofs(proof.steps, complaints)
    complaints.extend(trace_skip_complaints(
        step, scheme, [key for key, index in recorded if index is None]))
    for ex in step.exchanges:
        if (ex.key, None) not in recorded:
            complaints.extend(
                trace_exchange_complaints(step, scheme, ex, recorded))
    return complaints


def trace_base_complaints(step: GenericStep, scheme,
                          base: BaseProof) -> List[str]:
    """Validate the base case of a trace derivation in isolation.

    Shared between :func:`trace_proof_complaints` and the engine's
    fragment-grained proof reuse, which revalidates stored base-case
    fragments before accepting them."""
    base_ctx = OccurrenceContext(
        step=step,
        scheme=scheme,
        actions=step.init.actions,
        cond=(),
        lookup_facts=(),
        has_history=False,
    )
    return _check_occurrence_list(
        base_ctx, base.occurrence_proofs, "base case"
    )


def record_step_proofs(steps, complaints: List[str]) -> dict:
    """Index step proofs by ``(exchange_key, path_index-or-None)``,
    appending a complaint for records of unknown shape."""
    recorded: dict = {}
    for sp in steps:
        if isinstance(sp, SkippedExchange):
            recorded[(sp.exchange_key, None)] = sp
        elif isinstance(sp, PathProof):
            recorded[(sp.exchange_key, sp.path_index)] = sp
        else:
            complaints.append(f"unknown step proof {sp!r}")
    return recorded


def trace_skip_complaints(step: GenericStep, scheme, keys) -> List[str]:
    """Validate the syntactic skips of the exchanges ``keys`` with one
    lookup: none of them may produce the trigger."""
    live = live_exchanges(step.info.program, scheme.trigger)
    if live.isdisjoint(keys):
        return []
    return [f"invalid syntactic skip of {ctype}=>{msg}"
            for ctype, msg in keys if (ctype, msg) in live]


def trace_exchange_complaints(step: GenericStep, scheme, ex,
                              recorded: dict) -> List[str]:
    """Validate one exchange's inductive case in isolation.

    ``recorded`` maps ``(exchange_key, path_index-or-None)`` to the
    step proofs on offer (see :func:`record_step_proofs`).  Shared
    between the whole-proof checker and the engine's fragment reuse."""
    if isinstance(recorded.get((ex.key, None)), SkippedExchange):
        return trace_skip_complaints(step, scheme, (ex.key,))
    complaints: List[str] = []
    for path_index, path in enumerate(ex.paths):
        path_proof = recorded.get((ex.key, path_index))
        if not isinstance(path_proof, PathProof):
            complaints.append(
                f"missing case for {ex.ctype}=>{ex.msg} "
                f"path {path_index}"
            )
            continue
        ctx = OccurrenceContext(
            step=step,
            scheme=scheme,
            actions=path.actions,
            cond=path.cond,
            lookup_facts=path.lookup_facts,
            has_history=True,
            sender=ex.sender,
        )
        complaints.extend(_check_occurrence_list(
            ctx, path_proof.occurrence_proofs,
            f"{ex.ctype}=>{ex.msg} path {path_index}",
        ))
    return complaints


def _check_occurrence_list(ctx: OccurrenceContext, occurrence_proofs,
                           where: str) -> List[str]:
    complaints: List[str] = []
    expected = {occ.index: occ
                for occ in occurrences(ctx.scheme.trigger, ctx.actions)}
    proved = {op.occurrence.index: op for op in occurrence_proofs}
    for index in sorted(expected.keys() | proved.keys()):
        occ, op = expected.get(index), proved.get(index)
        if occ is None:
            complaints.append(f"{where}: justification for action #{index}, "
                              f"which is not a trigger occurrence")
        elif op is None:
            complaints.append(f"{where}: trigger occurrence at action "
                              f"#{index} has no justification")
        elif op.occurrence != occ:
            complaints.append(f"{where}: recorded occurrence at #{index} "
                              f"differs from the actual match")
        else:
            complaints.extend(f"{where} action #{index}: {complaint}"
                              for complaint in validate_justification(
                                  ctx, occ, op.justification))
    return complaints


# ---------------------------------------------------------------------------
# Occurrence justifications
# ---------------------------------------------------------------------------


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


def validate_justification(ctx: OccurrenceContext, occ: Occurrence,
                           justification: Justification) -> List[str]:
    """Re-check one occurrence proof; returns complaints (empty = valid)."""
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
        if not entailed_required_match(ctx, occ, facts, expected):
            return ["adjacent action does not match the required pattern"]
        return []
    if isinstance(justification, EarlierWitness):
        j = justification.witness_index
        if mode != "before" or not 0 <= j < occ.index:
            return ["EarlierWitness index out of range or wrong mode"]
        if not entailed_required_match(ctx, occ, facts, j):
            return ["claimed earlier witness does not match"]
        return []
    if isinstance(justification, LaterWitness):
        j = justification.witness_index
        if mode != "after" or not occ.index < j < len(ctx.actions):
            return ["LaterWitness index out of range or wrong mode"]
        if not entailed_required_match(ctx, occ, facts, j):
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


def entailed_required_match(ctx: OccurrenceContext, occ: Occurrence,
                            facts: Facts, index: int) -> bool:
    """Does action ``index`` provably match the scheme's required
    pattern under the trigger's binding?"""
    m = match_template(ctx.scheme.required, ctx.actions[index],
                       occ.match.binding_dict())
    if m is None:
        return False
    results = facts.implies_all(m.constraints, stop_on_failure=True)
    return len(results) == len(m.constraints) and all(results)


def _validate_sender_chain(ctx, occ, facts, justification) -> List[str]:
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
    if term_type(term) != ty.NUM:
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


def spawn_pattern_field_terms(required: SpawnPat, binding) -> List[tuple]:
    """(config index, pinned term) pairs of a spawn pattern under a
    binding: the positions the forbidden/required spawn constrains."""
    if required.comp.config is None:
        return []
    pins: List[tuple] = []
    for k, fp in enumerate(required.comp.config):
        if isinstance(fp, PLit):
            pins.append((k, lift_value(fp.value)))
        elif isinstance(fp, PVar) and fp.name in binding:
            pins.append((k, binding[fp.name]))
    return pins


def _chain_field_map(ctx: OccurrenceContext, binding) -> Optional[tuple]:
    """Split the trigger binding into (variable → sender config index) and
    (variable → constant); None when some variable is bound to anything
    else (chaining inapplicable)."""
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


# ---------------------------------------------------------------------------
# Invariant proofs (the secondary induction)
# ---------------------------------------------------------------------------


def instantiate(terms: Sequence[Term],
                instantiation: Sequence[Tuple[SVar, Term]]) -> List[Term]:
    """Substitute an instantiation into invariant terms."""
    mapping: Dict[Term, Term] = {p: t for p, t in instantiation}
    return [simplify(substitute(t, mapping)) for t in terms]


def _guard_globals(step: GenericStep, spec: InvariantSpec) -> frozenset:
    """The global variables the guard reads."""
    guard_vars = set()
    for g in spec.guard:
        guard_vars |= set(free_vars(g))
    return frozenset(
        name for name, term in step.pre_env_dict().items()
        if isinstance(term, SVar) and term in guard_vars
    )


def init_substitution(step: GenericStep) -> Dict[Term, Term]:
    """Pre-state variable → Init value, for evaluating guards at the base
    case."""
    init_env = step.init.env_dict()
    subst: Dict[Term, Term] = {}
    for name, term in step.pre_env_dict().items():
        if isinstance(term, SVar):
            subst[term] = init_env[name]
    return subst


def post_substitution(step: GenericStep,
                      path_env: Dict[str, Term]) -> Dict[Term, Term]:
    """Pre-state variable → post-exchange value, for one symbolic path."""
    subst: Dict[Term, Term] = {}
    for name, term in step.pre_env_dict().items():
        if isinstance(term, SVar):
            subst[term] = path_env[name]
    return subst


def guard_facts(cond: Sequence[Term], guard_terms: Sequence[Term]) -> Facts:
    """Solver facts for a path condition plus substituted guard literals."""
    # Paths of one exchange share their condition prefix; build on the
    # prefix-cached Facts rather than re-asserting from scratch.
    return extend_facts(cond, guard_terms)


def entailed_match(facts: Facts, inst: InstPattern,
                   template: Template) -> bool:
    """Does ``template`` provably match the instantiated pattern?"""
    m = inst.match(template)
    if m is None:
        return False
    results = facts.implies_all(m.constraints, stop_on_failure=True)
    return len(results) == len(m.constraints) and all(results)


def refute_matches(facts: Facts, inst: InstPattern,
                   templates: Sequence[Template]) -> Optional[Tuple[int, ...]]:
    """For absence: every potential match must be refuted; returns the
    indices that needed the solver, or ``None`` if some match survives."""
    refuted: List[int] = []
    for i, template in enumerate(templates):
        m = inst.match(template)
        if m is None:
            continue
        probe = facts.copy()
        for c in m.constraints:
            probe.assert_term(c)
        if probe.inconsistent():
            refuted.append(i)
        else:
            return None
    return tuple(refuted)


def invariant_live(step: GenericStep, spec: InvariantSpec) -> frozenset:
    """The exchanges the syntactic skip leaves to the induction: those
    that can assign a global the guard reads and, for absence, those
    that can emit a matching action."""
    program = step.info.program
    assigns = program.effect_index.assigns
    live = [assigns.get(name, frozenset())
            for name in _guard_globals(step, spec)]
    if spec.kind == "absence":
        live.append(live_exchanges(program, spec.inst.pattern))
    return frozenset().union(*live)


def validate_invariant(step: GenericStep, proof: InvariantProof) -> List[str]:
    """Re-validate an invariant proof; returns a list of complaints (empty
    means the proof checks)."""
    complaints: List[str] = []
    spec = proof.spec

    # Base case.
    subst = init_substitution(step)
    guard0 = [simplify(substitute(g, subst)) for g in spec.guard]
    facts = guard_facts((), guard0)
    if isinstance(proof.base, BaseVacuous):
        if not facts.inconsistent():
            complaints.append("base claimed vacuous but guard is "
                              "satisfiable at Init")
    elif isinstance(proof.base, BaseWitness):
        if spec.kind != "history" or proof.base.action_index >= len(
                step.init.actions):
            complaints.append("base witness out of range")
        elif not entailed_match(
                facts, spec.inst,
                step.init.actions[proof.base.action_index]):
            complaints.append("base witness does not match")
    elif isinstance(proof.base, BaseClean):
        if spec.kind != "absence":
            complaints.append("BaseClean only applies to absence invariants")
        elif refute_matches(facts, spec.inst, step.init.actions) is None:
            complaints.append("base claimed clean but Init may emit a "
                              "forbidden action")
    else:
        complaints.append(f"unknown base case {proof.base!r}")

    # Coverage: every exchange/path must have a case.
    recorded = {}
    for key, path_index, case in proof.cases:
        recorded[(key, path_index)] = case
    live = invariant_live(step, spec)
    for ex in step.exchanges:
        whole = recorded.get((ex.key, -1))
        if isinstance(whole, CaseSyntacticSkip):
            if ex.key in live:
                complaints.append(
                    f"invalid syntactic skip at {ex.ctype}=>{ex.msg}"
                )
            continue
        for path_index, path in enumerate(ex.paths):
            case = recorded.get((ex.key, path_index))
            if case is None:
                complaints.append(
                    f"missing inductive case {ex.ctype}=>{ex.msg} "
                    f"path {path_index}"
                )
                continue
            if not _case_acceptable(step, spec, ex, path, case):
                complaints.append(
                    f"invalid case {case!r} at {ex.ctype}=>{ex.msg} "
                    f"path {path_index}"
                )
    return complaints


def _case_acceptable(step: GenericStep, spec: InvariantSpec, ex: Exchange,
                     path, case: InvariantCase) -> bool:
    subst = post_substitution(step, path.env_dict())
    guard_post = [simplify(substitute(g, subst)) for g in spec.guard]
    facts = guard_facts(path.cond, guard_post)
    if isinstance(case, CaseInfeasible):
        return facts.inconsistent()
    if isinstance(case, CaseEstablished):
        return (
            spec.kind == "history"
            and 0 <= case.action_index < len(path.actions)
            and entailed_match(facts, spec.inst,
                               path.actions[case.action_index])
        )
    if isinstance(case, CasePreserved):
        if not all(facts.implies(g) for g in spec.guard):
            return False
        if spec.kind == "absence":
            return refute_matches(facts, spec.inst, path.actions) is not None
        return True
    return False


# ---------------------------------------------------------------------------
# Bounded-counter proofs
# ---------------------------------------------------------------------------


def bound_var_name(step: GenericStep, spec) -> str:
    """The global whose pre-state term is the spec's bound, or raise
    :class:`ProofSearchFailure`."""
    for name, term in step.pre_env_dict().items():
        if term == spec.bound_var:
            return name
    raise ProofSearchFailure(
        f"bounded invariant: {spec.bound_var} is not a state variable"
    )


def check_bounded_base(step: GenericStep, spec) -> None:
    """Every Init spawn of the bounded type sits below the initial bound,
    or raise :class:`ProofSearchFailure`."""
    init_env = step.init.env_dict()
    bound0 = init_env[bound_var_name(step, spec)]
    facts = Facts()
    for template in step.init.actions:
        if isinstance(template, TSpawn) and template.comp.ctype == spec.ctype:
            below = SOp("lt", (template.comp.config[spec.config_index],
                               bound0))
            if not facts.implies(below):
                raise ProofSearchFailure(
                    f"bounded invariant {spec}: Init spawn {template} is "
                    f"not below the initial bound {bound0}"
                )


def bounded_live(step: GenericStep, spec, bound_name: str) -> frozenset:
    """The exchanges the syntactic skip leaves to the bounded induction:
    those that can assign the bound or spawn a component of the bounded
    type."""
    index = step.info.program.effect_index
    return (index.assigns.get(bound_name, frozenset())
            | index.spawns.get(spec.ctype, frozenset()))


def bounded_case_ok(step: GenericStep, spec, path) -> bool:
    """One path keeps the bound monotone and spawns of the bounded type
    strictly below the post-state bound."""
    facts = facts_for(path.cond)
    if facts.inconsistent():
        return True
    post_bound = path.env_dict()[bound_var_name(step, spec)]
    # Monotonicity: the bound never decreases.
    if not facts.implies(SOp("le", (spec.bound_var, post_bound))):
        return False
    # Every new spawn of the type sits strictly below the *post* bound.
    for template in path.actions:
        if isinstance(template, TSpawn) and template.comp.ctype == spec.ctype:
            below = SOp("lt", (template.comp.config[spec.config_index],
                               post_bound))
            if not facts.implies(below):
                return False
    return True


def validate_bounded(step: GenericStep, proof: BoundedProof) -> List[str]:
    """Re-validate a bounded-invariant proof."""
    complaints: List[str] = []
    spec = proof.spec
    try:
        check_bounded_base(step, spec)
        live = bounded_live(step, spec, bound_var_name(step, spec))
    except ProofSearchFailure as failure:
        return [str(failure)]
    recorded = {(key, idx): tag for key, idx, tag in proof.cases}
    for ex in step.exchanges:
        if recorded.get((ex.key, -1)) == "skip":
            if ex.key in live:
                complaints.append(
                    f"invalid bounded skip at {ex.ctype}=>{ex.msg}"
                )
            continue
        for path_index, path in enumerate(ex.paths):
            if recorded.get((ex.key, path_index)) != "ok":
                complaints.append(
                    f"missing bounded case {ex.ctype}=>{ex.msg} "
                    f"path {path_index}"
                )
            elif not bounded_case_ok(step, spec, path):
                complaints.append(
                    f"bounded case fails at {ex.ctype}=>{ex.msg} "
                    f"path {path_index}"
                )
    return complaints


# ---------------------------------------------------------------------------
# Non-interference records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Labeling:
    """θc / θv made executable over terms."""

    prop: NonInterference
    params: Tuple[Tuple[str, SVar], ...]

    def param_map(self) -> Dict[str, Term]:
        return dict(self.params)

    def high_condition(self, comp: SComp) -> Term:
        """A boolean term: the component is labeled high."""
        cases: List[Term] = []
        binding = self.param_map()
        for pattern in self.prop.high_patterns:
            m = match_comp_term(pattern, comp, binding)
            if m is None:
                continue
            cases.append(sand(*m.constraints))
        return simplify(sor(*cases)) if cases else S_FALSE

    def is_high_var(self, name: str) -> bool:
        return name in self.prop.high_vars


def build_labeling(step: GenericStep, prop: NonInterference) -> Labeling:
    """Materialize the labeling parameters with their inferred types."""
    param_types: Dict[str, ty.Type] = {}
    for pattern in prop.high_patterns:
        decl = step.info.comp_table[pattern.ctype]
        if pattern.config is None:
            continue
        for fp, cf in zip(pattern.config, decl.config):
            if isinstance(fp, PVar):
                prior = param_types.get(fp.name)
                if prior is not None and prior != cf.type:
                    raise ValidationError(
                        f"labeling parameter {fp.name} used at types "
                        f"{prior} and {cf.type}"
                    )
                param_types[fp.name] = cf.type
    params = tuple(
        (name, SVar(f"ni:{name}", param_types.get(name, ty.STR), "param"))
        for name in prop.params
    )
    return Labeling(prop, params)


def check_ni_base(step: GenericStep, labeling: Labeling) -> List[str]:
    """Init must determine high variables and high spawns."""
    notes: List[str] = []
    init_env = step.init.env_dict()
    for name in sorted(labeling.prop.high_vars):
        term = init_env[name]
        nondet = [v for v in free_vars(term) if v.origin == "init_call"]
        if nondet:
            raise ProofSearchFailure(
                f"{labeling.prop.name}: high variable {name} is initialized "
                f"from non-deterministic call result(s) "
                f"{[str(v) for v in nondet]}"
            )
        notes.append(f"high var {name} deterministic at Init")
    for comp in step.init.comps:
        cond = labeling.high_condition(comp)
        if cond == S_FALSE:
            continue
        nondet = [v for v in free_vars(comp) if v.origin == "init_call"]
        if nondet:
            raise ProofSearchFailure(
                f"{labeling.prop.name}: possibly-high Init component "
                f"{comp} has non-deterministic configuration"
            )
        notes.append(f"init component {comp.label} deterministic")
    return notes


def ni_case_cubes(labeling: Labeling,
                  ex: Exchange) -> List[Tuple[str, Tuple[Term, ...]]]:
    """The sender-label case split of one exchange: ``(case, cube)``
    pairs, low cases first, in the canonical order shared by the search
    (:func:`repro.prover.ni.check_ni_exchange`) and the coverage
    validation (:func:`ni_proof_complaints`)."""
    high_cond = labeling.high_condition(ex.sender)
    low_cond = simplify(snot(high_cond))
    cases: List[Tuple[str, Tuple[Term, ...]]] = []
    for case, condition in (("low", low_cond), ("high", high_cond)):
        for cube in dnf(condition):
            cases.append((case, cube))
    return cases


def feasible_ni_triples(labeling: Labeling,
                        ex: Exchange) -> List[Tuple[Tuple[str, str],
                                                    int, str]]:
    """Every ``(exchange key, path index, case)`` triple of ``ex`` whose
    path condition is consistent with its sender-label cube — exactly the
    triples :func:`repro.prover.ni.check_ni_exchange` emits verdicts for,
    in the same order."""
    triples: List[Tuple[Tuple[str, str], int, str]] = []
    for case, cube in ni_case_cubes(labeling, ex):
        for path_index, path in enumerate(ex.paths):
            facts = extend_facts(path.cond, cube)
            if facts.inconsistent():
                continue
            triples.append((ex.key, path_index, case))
    return triples


def check_ni_proof(step: GenericStep, proof: NIProof) -> None:
    """Raise :class:`ProofCheckFailure` unless the NI record is valid."""
    complaints = ni_proof_complaints(step, proof)
    if complaints:
        raise ProofCheckFailure(
            f"NI record for {proof.prop.name} rejected: "
            + "; ".join(complaints)
        )


def ni_proof_complaints(step: GenericStep, proof: NIProof) -> List[str]:
    """All reasons the NI record fails to validate (empty = valid).

    For non-interference the conditions are established *directly* during
    search — "proof" and "check" coincide (module docstring of
    :mod:`repro.prover.ni`) — so re-running the search as a validation
    pass would buy no independence at twice the cost.  What an
    independent pass *can* establish cheaply is **coverage**: the base
    condition is re-derived outright (it is a syntactic scan of the Init
    state), and the record must carry exactly one verdict for every
    feasible ``(exchange, path, sender-label case)`` triple of the
    current abstraction, in the canonical order — no triple silently
    dropped, no verdict for a case that does not exist.  This is the
    pipeline's check stage for NI obligations, including ones loaded
    from the persistent proof store.
    """
    complaints: List[str] = []
    labeling = build_labeling(step, proof.prop)

    # Base condition: cheap enough to re-establish in full.
    try:
        expected_base = tuple(check_ni_base(step, labeling))
    except ProofSearchFailure as failure:
        return [f"base condition fails: {failure}"]
    if expected_base != proof.base_notes:
        complaints.append(
            "recorded base notes differ from the Init determinism check"
        )

    # Coverage: the exact feasible triples, in the canonical order.
    expected: List[tuple] = []
    for ex in step.exchanges:
        expected.extend(feasible_ni_triples(labeling, ex))
    recorded = [
        (v.exchange_key, v.path_index, v.case) for v in proof.verdicts
    ]
    if expected != recorded:
        expected_counts = Counter(expected)
        recorded_counts = Counter(recorded)
        for triple, count in expected_counts.items():
            if recorded_counts.get(triple, 0) < count:
                (ctype, msg), path_index, case = triple
                complaints.append(
                    f"missing NI verdict for {ctype}=>{msg} "
                    f"path {path_index} ({case} sender)"
                )
        for triple, count in recorded_counts.items():
            if expected_counts.get(triple, 0) < count:
                (ctype, msg), path_index, case = triple
                complaints.append(
                    f"NI verdict for {ctype}=>{msg} path {path_index} "
                    f"({case} sender) does not correspond to a feasible "
                    f"case"
                )
        if not complaints:
            complaints.append(
                "NI verdicts recorded out of canonical order"
            )
    return complaints
