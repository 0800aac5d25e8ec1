"""Human-readable proof explanations.

A derivation is precise but dense; this module renders it as the argument
a colleague would give at a whiteboard: which exchanges matter, why each
trigger occurrence is fine, and — for the interesting cases — which
inductive invariant carries the history reasoning.  Exposed through the
CLI as ``repro verify --explain``.

The explainer is *presentation only*: it reads a checked derivation and
never influences verification.
"""

from __future__ import annotations

from typing import List

from .derivation import (
    AbsenceInvariant,
    BoundedBridge,
    EarlierWitness,
    EmptyHistory,
    FoundBridge,
    HistoryInvariant,
    ImmWitness,
    InvariantProof,
    LaterWitness,
    MissingBridge,
    NoPriorMatch,
    PathProof,
    SenderChain,
    SkippedExchange,
    TracePropertyProof,
    Vacuous,
)
from .engine import PropertyResult, VerificationReport
from .ni import NIProof

_MODE_STORY = {
    "imm_before": "every occurrence must be immediately preceded by",
    "imm_after": "every occurrence must be immediately followed by",
    "before": "every occurrence must be preceded (somewhere earlier) by",
    "after": "every occurrence must be followed (within the same handler) "
             "by",
    "never_before": "no occurrence may be preceded by",
}


def explain_trace_proof(proof: TracePropertyProof) -> str:
    """Render one trace-property derivation as prose."""
    prop = proof.property
    lines = [
        f"{prop.name}: [{prop.a}] {prop.primitive} [{prop.b}]",
        f"  trigger {proof.scheme.trigger}; "
        f"{_MODE_STORY[proof.scheme.mode]} {proof.scheme.required}.",
    ]
    if proof.base.occurrence_proofs:
        lines.append("  base case (the Init trace):")
        for op in proof.base.occurrence_proofs:
            lines.append(
                f"    action #{op.occurrence.index}: "
                f"{_justification_story(op.justification)}"
            )
    else:
        lines.append("  base case: Init emits no trigger — nothing to "
                     "show.")

    skipped = [s for s in proof.steps if isinstance(s, SkippedExchange)]
    detailed = [s for s in proof.steps if isinstance(s, PathProof)]
    if skipped:
        keys = sorted({s.exchange_key for s in skipped})
        shown = ", ".join(f"{c}=>{m}" for c, m in keys[:6])
        if len(keys) > 6:
            shown += f", ... and {len(keys) - 6} more"
        lines.append(
            f"  {len(skipped)} exchange(s) discharged syntactically (they "
            f"cannot emit the trigger): {shown}."
        )
    interesting = [
        s for s in detailed if any(
            not isinstance(op.justification, Vacuous)
            for op in s.occurrence_proofs
        )
    ]
    boring = len(detailed) - len(interesting)
    if boring:
        lines.append(f"  {boring} analyzed path(s) have no feasible "
                     f"trigger occurrence.")
    for step in interesting:
        ctype, msg = step.exchange_key
        lines.append(f"  in {ctype}=>{msg} (path {step.path_index}):")
        for op in step.occurrence_proofs:
            lines.append(
                f"    trigger at action #{op.occurrence.index}: "
                f"{_justification_story(op.justification)}"
            )
    return "\n".join(lines)


def _justification_story(justification) -> str:
    if isinstance(justification, Vacuous):
        return "infeasible — the match contradicts the branch conditions."
    if isinstance(justification, ImmWitness):
        return (f"the adjacent action (#{justification.witness_index}) is "
                f"the required one.")
    if isinstance(justification, EarlierWitness):
        return (f"the handler already emitted the required action at "
                f"#{justification.witness_index}.")
    if isinstance(justification, LaterWitness):
        return (f"the handler goes on to emit the required action at "
                f"#{justification.witness_index}.")
    if isinstance(justification, FoundBridge):
        return ("the target was found by lookup, so its spawn — which "
                "matches the required pattern — already happened.")
    if isinstance(justification, HistoryInvariant):
        return ("by the inductive invariant: "
                + _invariant_story(justification.proof) + ".")
    if isinstance(justification, SenderChain):
        lemma = justification.lemma.property
        return ("by chaining through the sender's own creation: the "
                f"sender is in the component set, so it was spawned, and "
                f"the lemma [{lemma.a}] Enables [{lemma.b}] puts the "
                f"required action before that spawn's consequences.")
    if isinstance(justification, NoPriorMatch):
        return _no_prior_story(justification)
    return str(justification)


def _no_prior_story(justification: NoPriorMatch) -> str:
    parts: List[str] = []
    if justification.refuted_indices:
        parts.append(
            f"earlier same-handler candidates at "
            f"{list(justification.refuted_indices)} are refuted by the "
            f"branch conditions"
        )
    history = justification.history
    if isinstance(history, EmptyHistory):
        parts.append("and there is no earlier trace at the base case")
    elif isinstance(history, MissingBridge):
        parts.append(
            "and the lookup observed no matching component, so no "
            "matching spawn can be anywhere in the trace"
        )
    elif isinstance(history, BoundedBridge):
        spec = history.proof.spec
        parts.append(
            f"and every earlier Spawn({spec.ctype}) sits strictly below "
            f"the monotone counter {spec.bound_var}, which the new value "
            f"meets"
        )
    elif isinstance(history, AbsenceInvariant):
        parts.append("by the inductive invariant: "
                     + _invariant_story(history.proof))
    if not parts:
        return "trivially."
    return "; ".join(parts) + "."


def _invariant_story(proof: InvariantProof) -> str:
    spec = proof.spec
    guard = " and ".join(str(g) for g in spec.guard) or "always"
    what = ("the trace already contains an action matching"
            if spec.kind == "history"
            else "the trace contains no action matching")
    cases = {}
    for _key, _idx, case in proof.cases:
        cases[type(case).__name__] = cases.get(type(case).__name__, 0) + 1
    case_summary = ", ".join(
        f"{count}× {name.replace('Case', '').lower()}"
        for name, count in sorted(cases.items())
    )
    return (
        f"whenever [{guard}], {what} {spec.inst} — "
        f"proved by a secondary induction ({case_summary})"
    )


def explain_ni_proof(proof: NIProof) -> str:
    """Render a non-interference check as prose."""
    prop = proof.prop
    pats = ", ".join(str(p) for p in prop.high_patterns)
    quant = (f"for every {', '.join(prop.params)}: "
             if prop.params else "")
    lines = [
        f"{prop.name}: {quant}components matching [{pats}] are isolated "
        f"from everything else"
        + (f" (high variables: {sorted(prop.high_vars)})"
           if prop.high_vars else ""),
        "  Init gives every high variable and high component a "
        "deterministic value.",
    ]
    lows = [v for v in proof.verdicts if v.case == "low"]
    highs = [v for v in proof.verdicts if v.case == "high"]
    lines.append(
        f"  NIlo: across {len(lows)} low path case(s), no send or spawn "
        f"can target a high component and no high variable changes."
    )
    lines.append(
        f"  NIhi: across {len(highs)} high path case(s), every branch "
        f"decision and every high-visible output is built from shared "
        f"data (payloads, the sender, high state, call results)."
    )
    noted = sorted({
        note for v in proof.verdicts for note in v.notes
        if "high-only" in note
    })
    for note in noted:
        lines.append(f"    - {note}")
    return "\n".join(lines)


def explain_result(result: PropertyResult) -> str:
    """Explain one verification result (proved or failed)."""
    if not result.proved:
        lines = [f"{result.property.name}: NOT PROVED — {result.error}"]
        if result.counterexample is not None:
            lines.append(str(result.counterexample))
        return "\n".join(lines)
    if isinstance(result.proof, TracePropertyProof):
        return explain_trace_proof(result.proof)
    if isinstance(result.proof, NIProof):
        return explain_ni_proof(result.proof)
    return str(result)


def explain_report(report: VerificationReport) -> str:
    """Explain every result of a report."""
    chunks = [f"=== {report.program_name} ==="]
    chunks.extend(explain_result(r) for r in report.results)
    return "\n\n".join(chunks)
