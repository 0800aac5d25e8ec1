"""The REFLEX proof automation: obligations, tactics, invariants,
non-interference checks, the staged verification pipeline (plan → search
→ check), the persistent proof store, and the independent proof checker.
"""

from .checker import (
    Labeling,
    build_labeling,
    check_ni_base,
    check_ni_proof,
    check_trace_proof,
    ni_proof_complaints,
    trace_proof_complaints,
    validate_invariant,
    validate_justification,
)
from .counterexample import CandidateCounterexample, find_model
from .derivation import (
    BoundedSpec,
    InvariantProof,
    InvariantSpec,
    TracePropertyProof,
)
from .engine import (
    DEADLINE_MESSAGE,
    PropertyResult,
    ProverOptions,
    VerificationReport,
    Verifier,
    prove,
    verify,
)
from .incremental import InvalidationMap, changed_parts, fragment_digests
from .invariants import generalize, prove_invariant
from .ni import (
    NIProof,
    PathVerdict,
    check_ni_exchange,
    prove_noninterference,
)
from .obligations import InstPattern, Occurrence, Scheme, scheme_of
from .pipeline import Obligation, plan_property
from .proofstore import (
    ProofStore,
    StoreEntry,
    derivation_key,
    fingerprint,
    obligation_key,
)
from .trace_tactics import prove_trace_property

__all__ = [
    "check_ni_proof",
    "check_trace_proof",
    "ni_proof_complaints",
    "trace_proof_complaints",
    "CandidateCounterexample",
    "find_model",
    "BoundedSpec",
    "InvalidationMap",
    "changed_parts",
    "fragment_digests",
    "InvariantProof",
    "InvariantSpec",
    "TracePropertyProof",
    "DEADLINE_MESSAGE",
    "PropertyResult",
    "ProverOptions",
    "VerificationReport",
    "Verifier",
    "prove",
    "verify",
    "generalize",
    "prove_invariant",
    "validate_invariant",
    "Labeling",
    "NIProof",
    "PathVerdict",
    "build_labeling",
    "check_ni_base",
    "check_ni_exchange",
    "prove_noninterference",
    "InstPattern",
    "Occurrence",
    "Scheme",
    "scheme_of",
    "Obligation",
    "plan_property",
    "ProofStore",
    "StoreEntry",
    "derivation_key",
    "fingerprint",
    "obligation_key",
    "prove_trace_property",
    "validate_justification",
]
