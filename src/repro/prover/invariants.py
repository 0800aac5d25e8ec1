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

The validators (:func:`~repro.prover.checker.validate_invariant`,
:func:`~repro.prover.checker.validate_bounded`) and every predicate they
share with this search — the guard substitutions, the witness and
refutation matches, the skip live sets, the bounded-counter conditions —
live in :mod:`repro.prover.checker`; this module imports them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..lang.errors import ProofSearchFailure
from ..props.patterns import ActionPattern
from ..symbolic.behabs import Exchange, GenericStep
from ..symbolic.expr import SVar, Term, comps_in, free_vars, substitute
from ..symbolic.simplify import simplify
from ..symbolic.unify import SymBinding
from .checker import (
    bound_var_name,
    bounded_case_ok,
    bounded_live,
    check_bounded_base,
    entailed_match,
    guard_facts,
    init_substitution,
    invariant_live,
    post_substitution,
    refute_matches,
)
from .derivation import (
    BaseClean,
    BaseVacuous,
    BaseWitness,
    BoundedProof,
    BoundedSpec,
    CaseEstablished,
    CaseInfeasible,
    CasePreserved,
    CaseSyntacticSkip,
    InvariantCase,
    InvariantProof,
    InvariantSpec,
)
from .obligations import InstPattern

#: SVar origins that persist across exchanges and may appear in invariants.
PERSISTENT_ORIGINS = frozenset({"state", "init_call", "param"})


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


# ---------------------------------------------------------------------------
# Proof of an invariant by secondary induction
# ---------------------------------------------------------------------------


def prove_invariant(step: GenericStep, spec: InvariantSpec,
                    syntactic_skip: bool = True) -> InvariantProof:
    """Prove ``spec`` by induction over BehAbs, or raise
    :class:`ProofSearchFailure`."""
    base = _prove_base(step, spec)
    cases: List[Tuple[Tuple[str, str], int, InvariantCase]] = []
    live = invariant_live(step, spec) if syntactic_skip else None
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
    subst = init_substitution(step)
    guard0 = [simplify(substitute(g, subst)) for g in spec.guard]
    facts = guard_facts((), guard0)
    if facts.inconsistent():
        return BaseVacuous()
    if spec.kind == "history":
        for i, template in enumerate(step.init.actions):
            if entailed_match(facts, spec.inst, template):
                return BaseWitness(i)
        raise ProofSearchFailure(
            f"invariant {spec}: guard satisfiable at Init but Init emits "
            f"no matching action"
        )
    refuted = refute_matches(facts, spec.inst, step.init.actions)
    if refuted is None:
        raise ProofSearchFailure(
            f"invariant {spec}: Init may already emit a forbidden action"
        )
    return BaseClean(refuted)


def _prove_case(step: GenericStep, spec: InvariantSpec, ex: Exchange,
                path) -> Optional[InvariantCase]:
    subst = post_substitution(step, path.env_dict())
    guard_post = [simplify(substitute(g, subst)) for g in spec.guard]
    facts = guard_facts(path.cond, guard_post)
    if facts.inconsistent():
        return CaseInfeasible()
    if spec.kind == "history":
        for i, template in enumerate(path.actions):
            if entailed_match(facts, spec.inst, template):
                return CaseEstablished(i)
        if all(facts.implies(g) for g in spec.guard):
            return CasePreserved()
        return None
    # absence: the guard must have held before, and nothing new may match.
    if not all(facts.implies(g) for g in spec.guard):
        return None
    refuted = refute_matches(facts, spec.inst, path.actions)
    if refuted is None:
        return None
    return CasePreserved(refuted)


# ---------------------------------------------------------------------------
# Bounded-counter invariants
# ---------------------------------------------------------------------------


def prove_bounded(step: GenericStep, spec: BoundedSpec) -> BoundedProof:
    """Prove a :class:`~repro.prover.derivation.BoundedSpec` by induction,
    or raise :class:`ProofSearchFailure`."""
    check_bounded_base(step, spec)
    live = bounded_live(step, spec, bound_var_name(step, spec))
    cases: List[Tuple[Tuple[str, str], int, str]] = []
    for ex in step.exchanges:
        if ex.key not in live:
            cases.append((ex.key, -1, "skip"))
            continue
        for path_index, path in enumerate(ex.paths):
            if not bounded_case_ok(step, spec, path):
                raise ProofSearchFailure(
                    f"bounded invariant {spec} fails at "
                    f"{ex.ctype}=>{ex.msg} path {path_index}"
                )
            cases.append((ex.key, path_index, "ok"))
    return BoundedProof(spec=spec, cases=tuple(cases))
