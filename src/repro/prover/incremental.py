"""Incremental re-verification (the future work of paper section 6.4:
"Future work can explore incremental verification in order to further
reduce the time required for re-verification").

The paper's headline workflow edits a kernel and simply re-runs the
automation.  This module makes the re-run cheap, soundly:

* **identical program** → cached results are returned outright;
* **edited program** → derivations from the previous round are *replayed
  through the independent checker* against the freshly built behavioral
  abstraction.  Because the abstraction's terms are named locally per
  exchange (see :func:`repro.symbolic.behabs.generic_step`), a derivation
  that never touched the edited handler validates byte-for-byte and is
  reused — no proof search.  Only derivations the checker rejects (they
  genuinely depended on edited code) are searched for again.

Soundness is free: reuse happens only when the trusted checker accepts
the old derivation against the *new* program's abstraction.  The search
is skipped, never the check.  Non-interference results are re-checked
directly (for NI, checking *is* the proof), so NI reuse only applies to
byte-identical programs.

Revalidation is exactly the pipeline's *check* stage
(:meth:`repro.prover.engine.Verifier.check_trace_derivation`); when the
options carry a ``proof_store`` the engine additionally consults the
persistent cache, so incremental rounds reuse checked subproofs across
processes too.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .. import obs
from ..props.spec import Property, SpecifiedProgram, TraceProperty
from .derivation import TracePropertyProof
from .engine import KeyTable, Part, PropertyResult, ProverOptions, Verifier


def fragment_digests(program: object) -> Dict[Part, str]:
    """The dependency digest of every fragment slice of ``program``.

    One entry for the base slice (``None`` → declarations + Init) plus
    one per exchange of the kernel.  Two submissions that differ in one
    handler differ exactly in that handler's entry, which is what lets a
    session — or the serve daemon — decide *what changed* without
    verifying anything.  A verifier already holds these in its key
    table (``verifier.keys.slice_digests()``); this computes them for a
    bare program, the same way.
    """
    return KeyTable(program, None).slice_digests()


def changed_parts(old: Dict[Part, str],
                  new: Dict[Part, str]) -> List[Part]:
    """The fragment slices of ``new`` whose dependency digest differs
    from (or is absent in) ``old``, plus slices ``old`` had that ``new``
    dropped — in ``new``'s planning order, dropped slices last."""
    changed: List[Part] = [
        part for part, digest_ in new.items() if old.get(part) != digest_
    ]
    changed.extend(part for part in old if part not in new)
    return changed


def _env_cap(name: str, default: int) -> int:
    """An integer cap from the environment, tolerant of nonsense."""
    try:
        return max(1, int(os.environ.get(name, default)))
    except ValueError:
        return default


#: Default ceiling on tracked fragment digests.  One kernel contributes
#: one digest per fragment slice (a handful to a few dozen), so the
#: default comfortably covers hundreds of live kernel versions while
#: bounding a daemon that churns through thousands of unrelated ones.
DEFAULT_MAX_TRACKED_DIGESTS = _env_cap("REPRO_INCREMENTAL_MAX_DIGESTS",
                                       4096)


class InvalidationMap:
    """The dependency-tracked invalidation index, shared across sessions.

    Maps each fragment's dependency digest to the content-addressed
    obligation/fragment keys that were filed under it (see
    :meth:`Verifier.fragment_keys`): when a submission changes a
    handler, the digests that disappeared name exactly the stored keys
    the edit superseded — everything else is servable as-is.  The serve
    daemon keeps one instance for all its sessions; access is
    thread-safe.

    The index is *bounded*: digests evict least-recently-recorded once
    ``max_digests`` is exceeded (a re-recorded digest — any live
    kernel's — moves back to the young end), so a long-lived daemon
    verifying unboundedly many distinct kernels holds a bounded index.
    Eviction only ever forgets *bookkeeping*: a later
    :meth:`invalidated_keys` reports fewer superseded store keys, but
    soundness never depended on this map — reuse is always gated by the
    checker and the content-addressed store keys themselves.
    """

    def __init__(self,
                 max_digests: int = DEFAULT_MAX_TRACKED_DIGESTS) -> None:
        self._lock = threading.Lock()
        #: slice digest → the keys filed under it, packed: each key's raw
        #: SHA-256 bytes, concatenated in filing order.  A daemon files a
        #: few keys under each of thousands of digests; packed, they cost
        #: under a third of a set of hex strings.
        self._keys: "OrderedDict[str, bytes]" = OrderedDict()
        self.max_digests = max(1, int(max_digests))
        self.evicted = 0

    def record(self, fragment_digest: str, obligation_key: str) -> None:
        """File ``obligation_key`` (a SHA-256 hex key) under the fragment
        slice digest it depends on (refreshing that digest's eviction
        age)."""
        self._file(fragment_digest, (obligation_key,))

    def _file(self, fragment_digest: str, keys: Iterable[str]) -> None:
        """Add ``keys`` under one digest and make it the youngest;
        evict the oldest digests past the bound."""
        packed = [bytes.fromhex(key) for key in keys]
        with self._lock:
            filed = self._keys.pop(fragment_digest, b"")
            known = set(_unpack(filed))
            for raw in packed:
                if raw not in known:
                    known.add(raw)
                    filed += raw
            self._keys[fragment_digest] = filed
            while len(self._keys) > self.max_digests:
                self._keys.popitem(last=False)
                self.evicted += 1

    def discard(self, fragment_digest: str) -> None:
        """Drop one digest's entries outright (a caller that *knows* a
        digest is superseded everywhere need not wait for LRU aging)."""
        with self._lock:
            self._keys.pop(fragment_digest, None)

    def record_program(self, verifier: Verifier) -> None:
        """File every trace-property fragment key of ``verifier``'s
        program under its slice digest (one call per submission; both
        come from the verifier's key table, so keys the verification
        already computed are not computed again)."""
        props = verifier.spec.trace_properties()
        if not props:
            return
        table = verifier.keys
        for part, digest_ in table.slice_digests().items():
            self._file(digest_, [table.fragment_key(prop, part)
                                 for prop in props])

    def keys_for(self, fragment_digest: str) -> FrozenSet[str]:
        """The obligation keys filed under one slice digest."""
        with self._lock:
            filed = self._keys.get(fragment_digest, b"")
        return frozenset(raw.hex() for raw in _unpack(filed))

    def invalidated_keys(self, old: Dict[Part, str],
                         new: Dict[Part, str]) -> FrozenSet[str]:
        """The obligation keys superseded by moving from ``old`` digests
        to ``new``: everything filed under a changed slice's *old*
        digest.  (Their store entries are dead weight for the new
        program — its fragments re-key — so this is also the eviction
        candidate set.)"""
        out: set = set()
        for part in changed_parts(old, new):
            digest_ = old.get(part)
            if digest_ is not None:
                out.update(self.keys_for(digest_))
        return frozenset(out)

    def digests(self) -> FrozenSet[str]:
        """Every slice digest currently indexed."""
        with self._lock:
            return frozenset(self._keys)

    def stats(self) -> dict:
        """JSON-ready index counters (for serve ``stats`` responses)."""
        with self._lock:
            return {
                "digests": len(self._keys),
                "keys": self._count(),
                "max_digests": self.max_digests,
                "evicted": self.evicted,
            }

    def _count(self) -> int:
        return sum(len(filed) for filed in self._keys.values()) \
            // _KEY_BYTES

    def __len__(self) -> int:
        with self._lock:
            return self._count()


#: Bytes of one packed key (see :class:`InvalidationMap`).
_KEY_BYTES = 32


def _unpack(filed: bytes) -> List[bytes]:
    """The raw keys of one packed :class:`InvalidationMap` entry."""
    return [filed[at:at + _KEY_BYTES]
            for at in range(0, len(filed), _KEY_BYTES)]


@dataclass
class IncrementalResult:
    """A property result plus how it was obtained this round."""

    result: PropertyResult
    #: "cached" (identical program), "revalidated" (old derivation checked
    #: against the new abstraction), or "searched" (full proof search)
    how: str

    @property
    def proved(self) -> bool:
        return self.result.proved


@dataclass
class IncrementalReport:
    """Results of one incremental round, tagged by how each was obtained."""

    program_name: str
    rounds: int
    entries: List[IncrementalResult] = field(default_factory=list)
    #: fragment slices whose dependency digest changed since the
    #: previous round (``None`` on the first round: everything is new)
    changed: Optional[List[Part]] = None

    @property
    def all_proved(self) -> bool:
        return all(e.proved for e in self.entries)

    def counts(self) -> Dict[str, int]:
        """How many results were cached / revalidated / searched."""
        out = {"cached": 0, "revalidated": 0, "searched": 0}
        for e in self.entries:
            out[e.how] += 1
        return out

    def __str__(self) -> str:
        counts = self.counts()
        lines = [
            f"incremental verification of {self.program_name} "
            f"(round {self.rounds}): {counts['cached']} cached, "
            f"{counts['revalidated']} revalidated without search, "
            f"{counts['searched']} searched"
        ]
        lines.extend(f"  [{e.how}] {e.result}" for e in self.entries)
        return "\n".join(lines)


def _program_fingerprint(spec: SpecifiedProgram) -> Tuple:
    """Structural identity of the program (properties excluded: a changed
    property is always freshly proved)."""
    return (spec.program,)


class IncrementalVerifier:
    """Verifies successive versions of a program, reusing work."""

    def __init__(self, options: Optional[ProverOptions] = None,
                 invalidation: Optional[InvalidationMap] = None) -> None:
        self.options = options or ProverOptions()
        self._rounds = 0
        self._fingerprint: Optional[Tuple] = None
        #: property name → (property, result) from the previous round
        self._previous: Dict[str, Tuple[Property, PropertyResult]] = {}
        #: fragment slice → dependency digest from the previous round
        self._digests: Dict[Part, str] = {}
        #: optional shared (cross-session) invalidation index
        self.invalidation = invalidation

    def previous_digests(self) -> Dict[Part, str]:
        """The previous round's fragment digests (empty before round 1)."""
        return dict(self._digests)

    def verify(self, spec: SpecifiedProgram) -> IncrementalReport:
        """Verify this round's program, reusing previous derivations."""
        self._rounds += 1
        verifier = Verifier(spec, self.options)
        fingerprint = _program_fingerprint(spec)
        unchanged_program = fingerprint == self._fingerprint
        report = IncrementalReport(spec.name, self._rounds)
        digests = verifier.keys.slice_digests()
        if self._rounds > 1:
            report.changed = changed_parts(self._digests, digests)
            obs.incr("incremental.parts.changed", len(report.changed))

        for prop in spec.properties:
            entry = self._verify_one(verifier, prop, unchanged_program)
            report.entries.append(entry)

        if self.invalidation is not None:
            self.invalidation.record_program(verifier)
        self._digests = digests
        self._fingerprint = fingerprint
        self._previous = {
            e.result.property.name: (e.result.property, e.result)
            for e in report.entries
        }
        return report

    # -- per-property strategy -------------------------------------------------

    def _verify_one(self, verifier: Verifier, prop: Property,
                    unchanged_program: bool) -> IncrementalResult:
        cached = self._previous.get(prop.name)
        if cached is not None:
            old_prop, old_result = cached
            if unchanged_program and old_prop == prop:
                return IncrementalResult(old_result, "cached")
            if (
                isinstance(prop, TraceProperty)
                and old_prop == prop
                and old_result.proved
                and isinstance(old_result.proof, TracePropertyProof)
            ):
                revalidated = self._try_revalidate(verifier, prop,
                                                   old_result)
                if revalidated is not None:
                    return IncrementalResult(revalidated, "revalidated")
        return IncrementalResult(verifier.prove_property(prop), "searched")

    def _try_revalidate(self, verifier: Verifier, prop: TraceProperty,
                        old_result: PropertyResult
                        ) -> Optional[PropertyResult]:
        """Replay the old derivation through the pipeline's check stage
        against the new abstraction; None when it no longer validates."""
        start = time.perf_counter()
        with obs.span("check", property=prop.name, reuse="incremental"):
            complaints = verifier.check_trace_derivation(old_result.proof)
        if complaints:
            obs.incr("incremental.revalidation.rejected")
            return None
        obs.incr("incremental.revalidated")
        # File the revalidated derivation (whole proof + per-exchange
        # fragments) under the *new* program's keys: the next round — or a
        # fresh process sharing the proof store — serves it without
        # re-entering this replay path, and an edit that dodges revalidation
        # still reuses every fragment whose dependency key is unchanged.
        verifier.adopt_trace_proof(prop, old_result.proof, checked=True)
        return PropertyResult(
            property=prop,
            status="proved",
            seconds=time.perf_counter() - start,
            proof=old_result.proof,
            checked=True,
            source="revalidated",
        )
