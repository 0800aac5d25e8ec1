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
  induction of every invariant proof.

For non-interference records (where search and check coincide by
construction) the validation pass re-derives the base condition and the
*coverage* of the recorded verdicts — see :func:`ni_proof_complaints`.

The trusted base of the reproduction is therefore: the symbolic evaluator
(shared between search and checker — the analog of Coq's evaluation rules),
the solver, the matcher, and this module.  The search — the analog of the
paper's 1,768 lines of Ltac — is untrusted.
"""

from __future__ import annotations

from collections import Counter
from typing import List

from ..lang.errors import ProofCheckFailure, ProofSearchFailure
from ..symbolic.behabs import GenericStep
from .derivation import (
    BaseProof,
    PathProof,
    SkippedExchange,
    TracePropertyProof,
)
from .ni import NIProof, build_labeling, check_ni_base, feasible_ni_triples
from .obligations import live_exchanges, occurrences, scheme_of
from .trace_tactics import OccurrenceContext, validate_justification


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
