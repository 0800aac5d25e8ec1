"""Unproved residue: the structured leftovers of a failed verification.

The Reflex VC-proving draft (see PAPERS.md) motivates an API that
returns what *remains to be shown* for interactive discharge, rather
than a bare pass/fail verdict.  This module renders the engine's failed
:class:`~repro.prover.engine.PropertyResult` objects into that payload:
one JSON-ready entry per unproved property carrying the stuck goal, a
prose explanation (via :mod:`repro.prover.explain`), and a concrete
candidate counterexample when the model finder produced one.

Presentation only — nothing here influences verification.
"""

from __future__ import annotations

from typing import List

from ..props.spec import NonInterference, TraceProperty
from .protocol import MAX_FRAME_BYTES

#: Ceiling on one rendered text field; residue rides inside a protocol
#: frame, so a pathological explanation must not blow the frame budget.
_TEXT_LIMIT = min(65536, MAX_FRAME_BYTES // 16)


def _clip(text: str) -> str:
    """Bound one rendered text field to the frame-safe ceiling."""
    if len(text) <= _TEXT_LIMIT:
        return text
    return text[:_TEXT_LIMIT] + f"... [{len(text) - _TEXT_LIMIT} more]"


def _property_kind(prop: object) -> str:
    """The residue's property-kind tag."""
    if isinstance(prop, TraceProperty):
        return "trace"
    if isinstance(prop, NonInterference):
        return "non-interference"
    return type(prop).__name__


def residue_entry(result) -> dict:
    """One unproved property's residue: the goal left standing.

    ``goal`` is the engine's diagnostic (which obligation got stuck and
    why — the paper's section 6.3 story), ``explanation`` the prose
    rendering, ``counterexample`` a concrete candidate instantiation of
    the stuck goal when the model finder succeeded, else ``None``.

    ``status`` distinguishes *why* the property is unproved:
    ``"unproved"`` means the search genuinely got stuck, ``"deadline"``
    means the submission's time budget ran out before this proof
    completed — retrying with a larger ``deadline_ms`` may well succeed.
    """
    from ..prover.engine import DEADLINE_MESSAGE
    from ..prover.explain import explain_result

    prop = result.property
    counterexample = result.counterexample
    error = result.error or "proof search failed"
    status = "deadline" if DEADLINE_MESSAGE in error else "unproved"
    return {
        "property": prop.name,
        "kind": _property_kind(prop),
        "status": status,
        "goal": _clip(error),
        "explanation": _clip(explain_result(result)),
        "counterexample": (None if counterexample is None
                           else _clip(str(counterexample))),
        "seconds": round(result.seconds, 6),
    }


def residue_for(report) -> List[dict]:
    """The unproved residue of one verification report: an entry per
    failed property, in specification order (empty when all proved)."""
    return [residue_entry(result) for result in report.results
            if not result.proved]


def degraded_residue(spec, reason: str) -> List[dict]:
    """Residue-only answers when no verification ran at all.

    Used by the circuit breaker: with the prover backend down, a parsed
    but unverified submission still gets one structured entry per
    property — status ``"degraded"``, no goal or counterexample — so an
    editor can render *what remains to be shown* instead of an opaque
    failure while the backend heals.
    """
    return [
        {
            "property": prop.name,
            "kind": _property_kind(prop),
            "status": "degraded",
            "goal": _clip(reason),
            "explanation": _clip(
                f"{prop.name} was not attempted: {reason}"
            ),
            "counterexample": None,
            "seconds": 0.0,
        }
        for prop in spec.properties
    ]
