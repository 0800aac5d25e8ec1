"""What an edit changed, for incremental re-verification (the future
work of paper section 6.4: "Future work can explore incremental
verification in order to further reduce the time required for
re-verification").

Re-verification after an edit runs through the content-addressed proof
store (:mod:`repro.prover.proofstore`): ``repro verify --store`` and
``repro serve --store`` search a trace property fragment by fragment,
and each fragment and NI obligation is keyed by the dependency digest
of its *slice* (the declarations and Init block, plus one handler for an
exchange).  Editing one handler re-keys only that handler's fragments;
every other fragment is found in the store and revalidated through the
independent checker before reuse (see
:meth:`repro.prover.engine.Verifier._search_trace`).  The search is
skipped, never the check.

This module computes what an edit changed without verifying anything:

* :func:`fragment_digests` — every slice digest of a program;
* :func:`changed_parts` — the slices whose digest an edit changed;
* :class:`InvalidationMap` — the store keys filed under each slice
  digest, so the daemon can name the keys an edit superseded.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, List

from .engine import KeyTable, Part, Verifier


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


#: Default ceiling on tracked fragment digests.  One kernel contributes
#: one digest per fragment slice (a handful to a few dozen), so the
#: default comfortably covers hundreds of live kernel versions while
#: bounding a daemon that churns through thousands of unrelated ones.
DEFAULT_MAX_TRACKED_DIGESTS = 4096


class InvalidationMap:
    """The dependency-tracked invalidation index, shared across sessions.

    Maps each fragment's dependency digest to the content-addressed
    obligation/fragment keys that were filed under it (see
    :meth:`record_program`): when a submission changes a handler, the
    digests that disappeared name exactly the stored keys the edit
    superseded — everything else is servable as-is.  The serve
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

    def record_program(self, verifier: Verifier) -> None:
        """File the slice-scoped keys ``verifier`` used with its proof
        store under their slice digests (one call per submission): the
        trace fragments it looked up — a syntactic skip never is — and
        its NI obligations.  They come from the verifier's key table,
        so filing computes no key.  Without a store nothing is filed."""
        if not verifier.options.proof_store:
            return
        table = verifier.keys
        digests = table.slice_digests()
        for part, keys in table.scoped_keys().items():
            self._file(digests[part], keys)

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

