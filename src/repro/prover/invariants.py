"""Inductive-invariant inference and proof (paper section 5.1).

When a trigger occurrence needs an action from the *pre-state trace* —
``Enables`` needs a past witness, ``Disables`` needs a clean past — the
tactic cannot look at the opaque trace directly.  Instead it:

1. **generalizes** the branch conditions at the occurrence into a candidate
   invariant: "whenever guard ``G`` holds of the state, the trace contains
   (history) / does not contain (absence) an action matching ``A'``", where
   the occurrence's message-payload data has been replaced by universally
   quantified parameters — this is exactly the paper's "prove that the
   relevant branch conditions cannot be satisfied without also satisfying
   the obligations required by the given property";
2. **proves** the candidate by a secondary induction over BehAbs, where
   every exchange falls into the paper's three cases: (A) the handler
   itself emits the required action, (B) the handler preserves the guard so
   the induction hypothesis applies, or (C) the branch conditions
   contradict the post-state guard.

Soundness note: guard literals are (substituted copies of) literals of the
occurrence's own path condition, so the instantiated guard holds at the
occurrence by construction; the checker re-verifies this entailment rather
than trusting it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..lang.errors import ProofSearchFailure
from ..props.patterns import ActionPattern
from ..symbolic.behabs import Exchange, GenericStep
from ..symbolic.expr import (
    SComp,
    SVar,
    Term,
    free_vars,
    comps_in,
    substitute,
)
from ..symbolic.simplify import simplify
from ..symbolic.solver import Facts, extend_facts, facts_for
from ..symbolic.templates import Template
from ..symbolic.unify import SymBinding
from .derivation import (
    BaseClean,
    BaseVacuous,
    BaseWitness,
    CaseEstablished,
    CaseInfeasible,
    CasePreserved,
    CaseSyntacticSkip,
    InvariantCase,
    InvariantProof,
    InvariantSpec,
)
from .obligations import InstPattern, live_exchanges

#: SVar origins that persist across exchanges and may appear in invariants.
PERSISTENT_ORIGINS = frozenset({"state", "init_call", "param"})


def _is_persistent_term(t: Term) -> bool:
    """A term may appear in an invariant iff all its variables persist
    across exchanges and all its components are Init components."""
    if any(v.origin not in PERSISTENT_ORIGINS for v in free_vars(t)):
        return False
    return all(c.origin == "init" for c in comps_in(t))


def _step_local_vars(t: Term) -> frozenset:
    return frozenset(
        v for v in free_vars(t) if v.origin not in PERSISTENT_ORIGINS
    )


# ---------------------------------------------------------------------------
# Generalization
# ---------------------------------------------------------------------------


def generalize(required: ActionPattern, sigma: SymBinding,
               cube: Sequence[Term], kind: str) -> Optional[InvariantSpec]:
    """Build a candidate invariant from an occurrence.

    ``sigma`` is the trigger's binding of property variables to terms;
    ``cube`` is the path condition plus the trigger's match constraints.
    Returns ``None`` when the occurrence's data cannot be generalized (e.g.
    a bound term mentions a handler-local component identity).
    """
    sigma_terms = list(sigma.values())
    if any(
        any(c.origin != "init" for c in comps_in(t)) for t in sigma_terms
    ):
        return None

    relevant: set = set()
    for t in sigma_terms:
        relevant |= _step_local_vars(t)

    # Deterministic parameter names make equal specs structurally equal,
    # which is what the engine's subproof cache keys on (section 6.4's
    # "saving subproofs at key cut points").
    rho: Dict[Term, Term] = {
        v: SVar(f"p:{v.name}", v.type, "param")
        for v in sorted(relevant, key=lambda v: v.name)
    }

    guard: List[Term] = []
    for literal in cube:
        locals_ = _step_local_vars(literal)
        if not locals_.issubset(relevant):
            continue
        if any(c.origin != "init" for c in comps_in(literal)):
            continue
        generalized = simplify(substitute(literal, rho))
        if generalized not in guard:
            guard.append(generalized)

    inst_binding = tuple(sorted(
        (name, simplify(substitute(t, rho))) for name, t in sigma.items()
    ))
    return InvariantSpec(
        kind=kind,
        guard=tuple(sorted(guard, key=repr)),
        inst=InstPattern(required, inst_binding),
        params=tuple(rho[v] for v in sorted(relevant, key=lambda v: v.name)),
    )


def generalization_instantiation(
    spec: InvariantSpec, sigma: SymBinding, cube: Sequence[Term]
) -> Tuple[Tuple[SVar, Term], ...]:
    """The param → occurrence-term map matching :func:`generalize`'s
    construction (params are named ``p:<original variable name>``)."""
    by_name: Dict[str, Term] = {}
    for t in list(sigma.values()) + list(cube):
        for v in _step_local_vars(t):
            by_name[f"p:{v.name}"] = v
    return tuple(
        (param, by_name[param.name])
        for param in spec.params
        if param.name in by_name
    )


def instantiate(terms: Sequence[Term],
                instantiation: Sequence[Tuple[SVar, Term]]) -> List[Term]:
    """Substitute an instantiation into invariant terms."""
    mapping: Dict[Term, Term] = {p: t for p, t in instantiation}
    return [simplify(substitute(t, mapping)) for t in terms]


# ---------------------------------------------------------------------------
# Proof of an invariant by secondary induction
# ---------------------------------------------------------------------------


def _state_var_map(step: GenericStep) -> Dict[str, Term]:
    """Global name → its pre-state term (the shared SVar / Init comp)."""
    return step.pre_env_dict()


def _guard_globals(step: GenericStep, spec: InvariantSpec) -> frozenset:
    """The global variables the guard reads."""
    pre = _state_var_map(step)
    guard_vars = set()
    for g in spec.guard:
        guard_vars |= set(free_vars(g))
    return frozenset(
        name for name, term in pre.items()
        if isinstance(term, SVar) and term in guard_vars
    )


def _init_substitution(step: GenericStep) -> Dict[Term, Term]:
    """Pre-state variable → Init value, for evaluating guards at the base
    case."""
    init_env = step.init.env_dict()
    subst: Dict[Term, Term] = {}
    for name, term in step.pre_env_dict().items():
        if isinstance(term, SVar):
            subst[term] = init_env[name]
    return subst


def _post_substitution(step: GenericStep,
                       path_env: Dict[str, Term]) -> Dict[Term, Term]:
    """Pre-state variable → post-exchange value, for one symbolic path."""
    subst: Dict[Term, Term] = {}
    for name, term in step.pre_env_dict().items():
        if isinstance(term, SVar):
            subst[term] = path_env[name]
    return subst


def _guard_facts(cond: Sequence[Term], guard_terms: Sequence[Term]) -> Facts:
    # Paths of one exchange share their condition prefix; build on the
    # prefix-cached Facts rather than re-asserting from scratch.
    return extend_facts(cond, guard_terms)


def _entailed_match(facts: Facts, inst: InstPattern,
                    template: Template) -> bool:
    m = inst.match(template)
    if m is None:
        return False
    results = facts.implies_all(m.constraints, stop_on_failure=True)
    return len(results) == len(m.constraints) and all(results)


def _refute_matches(facts: Facts, inst: InstPattern,
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


def prove_invariant(step: GenericStep, spec: InvariantSpec,
                    syntactic_skip: bool = True) -> InvariantProof:
    """Prove ``spec`` by induction over BehAbs, or raise
    :class:`ProofSearchFailure`."""
    base = _prove_base(step, spec)
    cases: List[Tuple[Tuple[str, str], int, InvariantCase]] = []
    live = _invariant_live(step, spec) if syntactic_skip else None
    skip = CaseSyntacticSkip()
    skipped = 0
    for ex in step.exchanges:
        key = ex.key
        if live is not None and key not in live:
            skipped += 1
            cases.append((key, -1, skip))
            continue
        for path_index, path in enumerate(ex.paths):
            obs.incr("invariant.case")
            case = _prove_case(step, spec, ex, path)
            if case is None:
                raise ProofSearchFailure(
                    f"invariant {spec} not inductive at "
                    f"{ex.ctype}=>{ex.msg} path {path_index}",
                    residual=[str(path)],
                )
            cases.append((ex.key, path_index, case))
    if skipped:
        obs.incr("invariant.exchange.skipped", skipped)
    return InvariantProof(spec=spec, base=base, cases=tuple(cases))


def _prove_base(step: GenericStep, spec: InvariantSpec):
    subst = _init_substitution(step)
    guard0 = [simplify(substitute(g, subst)) for g in spec.guard]
    facts = _guard_facts((), guard0)
    if facts.inconsistent():
        return BaseVacuous()
    if spec.kind == "history":
        for i, template in enumerate(step.init.actions):
            if _entailed_match(facts, spec.inst, template):
                return BaseWitness(i)
        raise ProofSearchFailure(
            f"invariant {spec}: guard satisfiable at Init but Init emits "
            f"no matching action"
        )
    refuted = _refute_matches(facts, spec.inst, step.init.actions)
    if refuted is None:
        raise ProofSearchFailure(
            f"invariant {spec}: Init may already emit a forbidden action"
        )
    return BaseClean(refuted)


def _invariant_live(step: GenericStep, spec: InvariantSpec) -> frozenset:
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


def _prove_case(step: GenericStep, spec: InvariantSpec, ex: Exchange,
                path) -> Optional[InvariantCase]:
    subst = _post_substitution(step, path.env_dict())
    guard_post = [simplify(substitute(g, subst)) for g in spec.guard]
    facts = _guard_facts(path.cond, guard_post)
    if facts.inconsistent():
        return CaseInfeasible()
    if spec.kind == "history":
        for i, template in enumerate(path.actions):
            if _entailed_match(facts, spec.inst, template):
                return CaseEstablished(i)
        if all(facts.implies(g) for g in spec.guard):
            return CasePreserved()
        return None
    # absence: the guard must have held before, and nothing new may match.
    if not all(facts.implies(g) for g in spec.guard):
        return None
    refuted = _refute_matches(facts, spec.inst, path.actions)
    if refuted is None:
        return None
    return CasePreserved(refuted)


# ---------------------------------------------------------------------------
# Bounded-counter invariants
# ---------------------------------------------------------------------------


def prove_bounded(step: GenericStep, spec) -> "BoundedProof":
    """Prove a :class:`~repro.prover.derivation.BoundedSpec` by induction,
    or raise :class:`ProofSearchFailure`."""
    from ..symbolic.expr import SOp
    from ..symbolic.templates import TSpawn
    from .derivation import BoundedProof

    _check_bounded_base(step, spec)
    live = _bounded_live(step, spec, _bound_var_name(step, spec))
    cases: List[Tuple[Tuple[str, str], int, str]] = []
    for ex in step.exchanges:
        if ex.key not in live:
            cases.append((ex.key, -1, "skip"))
            continue
        for path_index, path in enumerate(ex.paths):
            if not _bounded_case_ok(step, spec, path):
                raise ProofSearchFailure(
                    f"bounded invariant {spec} fails at "
                    f"{ex.ctype}=>{ex.msg} path {path_index}"
                )
            cases.append((ex.key, path_index, "ok"))
    return BoundedProof(spec=spec, cases=tuple(cases))


def _bound_var_name(step: GenericStep, spec) -> str:
    for name, term in step.pre_env_dict().items():
        if term == spec.bound_var:
            return name
    raise ProofSearchFailure(
        f"bounded invariant: {spec.bound_var} is not a state variable"
    )


def _check_bounded_base(step: GenericStep, spec) -> None:
    from ..symbolic.expr import SOp
    from ..symbolic.templates import TSpawn

    init_env = step.init.env_dict()
    bound0 = init_env[_bound_var_name(step, spec)]
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


def _bounded_live(step: GenericStep, spec, bound_name: str) -> frozenset:
    """The exchanges the syntactic skip leaves to the bounded induction:
    those that can assign the bound or spawn a component of the bounded
    type."""
    index = step.info.program.effect_index
    return (index.assigns.get(bound_name, frozenset())
            | index.spawns.get(spec.ctype, frozenset()))


def _bounded_case_ok(step: GenericStep, spec, path) -> bool:
    from ..symbolic.expr import SOp
    from ..symbolic.templates import TSpawn

    facts = facts_for(path.cond)
    if facts.inconsistent():
        return True
    post_bound = path.env_dict()[_bound_var_name(step, spec)]
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


def validate_bounded(step: GenericStep, proof) -> List[str]:
    """Re-validate a bounded-invariant proof."""
    complaints: List[str] = []
    spec = proof.spec
    try:
        _check_bounded_base(step, spec)
        live = _bounded_live(step, spec, _bound_var_name(step, spec))
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
            elif not _bounded_case_ok(step, spec, path):
                complaints.append(
                    f"bounded case fails at {ex.ctype}=>{ex.msg} "
                    f"path {path_index}"
                )
    return complaints


# ---------------------------------------------------------------------------
# Validation (used by the checker)
# ---------------------------------------------------------------------------


def validate_invariant(step: GenericStep, proof: InvariantProof) -> List[str]:
    """Re-validate an invariant proof; returns a list of complaints (empty
    means the proof checks)."""
    complaints: List[str] = []
    spec = proof.spec

    # Base case.
    subst = _init_substitution(step)
    guard0 = [simplify(substitute(g, subst)) for g in spec.guard]
    facts = _guard_facts((), guard0)
    if isinstance(proof.base, BaseVacuous):
        if not facts.inconsistent():
            complaints.append("base claimed vacuous but guard is "
                              "satisfiable at Init")
    elif isinstance(proof.base, BaseWitness):
        if spec.kind != "history" or proof.base.action_index >= len(
                step.init.actions):
            complaints.append("base witness out of range")
        elif not _entailed_match(
                facts, spec.inst,
                step.init.actions[proof.base.action_index]):
            complaints.append("base witness does not match")
    elif isinstance(proof.base, BaseClean):
        if spec.kind != "absence":
            complaints.append("BaseClean only applies to absence invariants")
        elif _refute_matches(facts, spec.inst, step.init.actions) is None:
            complaints.append("base claimed clean but Init may emit a "
                              "forbidden action")
    else:
        complaints.append(f"unknown base case {proof.base!r}")

    # Coverage: every exchange/path must have a case.
    recorded = {}
    for key, path_index, case in proof.cases:
        recorded[(key, path_index)] = case
    live = _invariant_live(step, spec)
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
                expected = _prove_case(step, spec, ex, path)
                complaints.append(
                    f"invalid case {case!r} at {ex.ctype}=>{ex.msg} "
                    f"path {path_index} (expected like {expected!r})"
                )
    return complaints


def _case_acceptable(step: GenericStep, spec: InvariantSpec, ex: Exchange,
                     path, case: InvariantCase) -> bool:
    subst = _post_substitution(step, path.env_dict())
    guard_post = [simplify(substitute(g, subst)) for g in spec.guard]
    facts = _guard_facts(path.cond, guard_post)
    if isinstance(case, CaseInfeasible):
        return facts.inconsistent()
    if isinstance(case, CaseEstablished):
        return (
            spec.kind == "history"
            and 0 <= case.action_index < len(path.actions)
            and _entailed_match(facts, spec.inst,
                                path.actions[case.action_index])
        )
    if isinstance(case, CasePreserved):
        if not all(facts.implies(g) for g in spec.guard):
            return False
        if spec.kind == "absence":
            return _refute_matches(facts, spec.inst, path.actions) is not None
        return True
    return False
