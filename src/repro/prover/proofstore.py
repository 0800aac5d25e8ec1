"""Persistent, content-addressed storage of checked derivations.

Every proof obligation of the pipeline carries a stable key: the SHA-256
of a canonical rendering of (scope digest, property, derivation-relevant
:class:`~repro.prover.engine.ProverOptions`, obligation part).  The scope
is the whole program for a whole trace derivation, and one *slice* of
it (:func:`dependency_digest`) for a trace-proof fragment or an NI
obligation.  The store is a directory of pickled :class:`StoreEntry`
files, one per key, so repeated ``verify``/``bench``/``serve`` runs —
and re-verification after an edit — reuse checked subproofs across
processes.

Canonicalization matters: ``repr`` of a ``frozenset`` (e.g. an NI
property's ``high_vars``) depends on ``PYTHONHASHSEED``, so
:func:`fingerprint` renders sets and dict keys in sorted order.  Two
processes therefore always agree on the key of the same obligation.

Trust story (see DESIGN.md): the store is *outside* the trusted base.
Trace derivations loaded from the store are replayed through the
independent checker against the current abstraction before they are
accepted.  NI records (whose search *is* the check) carry the checker
approval in-band (``StoreEntry.checked``) and are re-validated only for
coverage by :func:`repro.prover.checker.ni_proof_complaints`, so their
reuse rests on the key: an NI entry is served only for a byte-identical
slice (see :func:`dependency_digest`).  A corrupt or truncated entry is
treated as a miss and re-proved, never trusted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .. import obs

#: Bump to invalidate every stored entry on a format change.
FORMAT_VERSION = 2

#: The ``part`` markers of the slice-scoped keys (see :func:`scoped_part`).
TRACE_FRAGMENT = "trace-frag"
NI_OBLIGATION = "ni"


# ---------------------------------------------------------------------------
# Canonical fingerprints
# ---------------------------------------------------------------------------


class Rendered(str):
    """A value :func:`fingerprint` has already rendered.

    It renders as itself, so a composite built around pre-rendered parts
    fingerprints exactly like the composite of the original values: the
    key table (:class:`repro.prover.engine.KeyTable`) renders a shared
    slice or a property once and reuses the text in every key that
    contains it.  No stored value is ever a ``Rendered``, so no existing
    key moves.
    """

    __slots__ = ()


def fingerprint(value: object) -> str:
    """A canonical, process-stable rendering of a value tree.

    Dataclasses render as ``Name(field=...)`` over their declared fields;
    dict items and set/frozenset members are emitted in sorted order so
    the result never depends on ``PYTHONHASHSEED`` or insertion order.
    """
    parts: List[str] = []
    _render(value, parts.append)
    return "".join(parts)


#: How a type renders, one marker per non-dataclass branch of
#: :func:`_render`; a dataclass renders through its :class:`_Fields`.
_LEAF, _RENDERED, _DICT, _SET, _TUPLE, _LIST = (object() for _ in range(6))


@dataclasses.dataclass(frozen=True)
class _Fields:
    """A dataclass type's rendering: ``Name(`` and its field names."""

    opener: str
    names: Tuple[str, ...]


#: Each type's rendering, learned the first time a value of the type is
#: rendered, so :func:`_render` does one dict lookup per node instead of
#: asking :mod:`dataclasses` (``is_dataclass`` + ``fields``) at every one.
_SHAPES: Dict[type, object] = {}


def _shape_of(cls: type) -> object:
    """The branch of :func:`_render` every value of type ``cls`` takes."""
    if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        return _Fields(
            cls.__name__ + "(",
            tuple(field_.name for field_ in dataclasses.fields(cls)),
        )
    if issubclass(cls, Rendered):
        return _RENDERED
    if issubclass(cls, dict):
        return _DICT
    if issubclass(cls, (set, frozenset)):
        return _SET
    if issubclass(cls, tuple):
        return _TUPLE
    if issubclass(cls, list):
        return _LIST
    return _LEAF


def _render(value: object, emit: Callable[[str], None]) -> None:
    cls = type(value)
    shape = _SHAPES.get(cls)
    if shape is None:
        shape = _SHAPES[cls] = _shape_of(cls)
    if shape is _LEAF:
        emit(repr(value))
    elif shape is _TUPLE:
        emit("(")
        for item in value:
            _render(item, emit)
            emit(",")
        emit(")")
    elif shape is _RENDERED:
        emit(value)
    elif shape is _DICT:
        emit("{")
        for key in sorted(value, key=fingerprint):
            _render(key, emit)
            emit(":")
            _render(value[key], emit)
            emit(",")
        emit("}")
    elif shape is _SET:
        emit("{")
        for item in sorted(fingerprint(member) for member in value):
            emit(item)
            emit(",")
        emit("}")
    elif shape is _LIST:
        emit("[")
        for item in value:
            _render(item, emit)
            emit(",")
        emit("]")
    else:
        emit(shape.opener)
        for name in shape.names:
            emit(name)
            emit("=")
            _render(getattr(value, name), emit)
            emit(",")
        emit(")")


def fingerprint_with(value: object, given: Dict[str, str]) -> str:
    """:func:`fingerprint` of the dataclass ``value``, taking each field
    named in ``given`` as already rendered to that text (the key table
    renders a program's declarations and handlers once, and builds the
    program digest and every slice digest from them)."""
    shape = _shape_of(type(value))
    parts = [shape.opener]
    for name in shape.names:
        parts.append(name)
        parts.append("=")
        text = given.get(name)
        if text is None:
            _render(getattr(value, name), parts.append)
        else:
            parts.append(text)
        parts.append(",")
    parts.append(")")
    return "".join(parts)


def digest(value: object) -> str:
    """SHA-256 hex digest of :func:`fingerprint` of ``value``."""
    return hashlib.sha256(fingerprint(value).encode("utf-8")).hexdigest()


def obligation_key(scope_digest: str, prop: object, options: object,
                   part: object = None) -> str:
    """The content address of one proof obligation.

    ``scope_digest`` is :func:`digest` of the program AST for a whole
    trace derivation, and the :func:`dependency_digest` of one slice for
    a slice-scoped key (a trace-proof fragment or an NI obligation,
    whose ``part`` is a :func:`scoped_part`).  Only the
    derivation-relevant options (``syntactic_skip``, which changes the
    shape of the emitted proof) participate.
    """
    material = "\x1f".join([
        f"reflex-obligation-v{FORMAT_VERSION}",
        scope_digest,
        fingerprint(prop),
        f"syntactic_skip={getattr(options, 'syntactic_skip', True)}",
        f"part={part!r}",
    ])
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def scoped_part(marker: str,
                part: Optional[Tuple[str, str]]) -> Tuple[str, ...]:
    """The ``part`` of a slice-scoped key: its kind's ``marker``
    (:data:`TRACE_FRAGMENT` or :data:`NI_OBLIGATION`), then the exchange
    key for an exchange's slice (nothing more for the base slice).  The
    marker keeps it distinct from every whole-program key."""
    return (marker,) if part is None else (marker,) + tuple(part)


def dependency_digest(program: object, part: Optional[Tuple[str, str]]) -> str:
    """Digest of one slice of the program: what one trace-proof
    *fragment* or one NI obligation depends on.

    The base slice (``part=None``) is the declarations and the Init
    block; an exchange's slice is those plus its own handler.  Fragment
    keys and NI obligation keys (see
    :class:`~repro.prover.engine.KeyTable`) substitute this for the
    whole-program digest, so editing one handler only re-keys the
    entries whose slice actually changed.

    What the slice *means* differs by key kind:

    * for a trace fragment it is an *invalidation heuristic*, not a
      soundness boundary — a fragment may also lean on other handlers
      through secondary-induction invariants, which is why every
      fragment loaded from the store is replayed through the independent
      checker against the current abstraction before it is accepted
      (and re-proved when rejected);
    * for an NI obligation it *is* a soundness boundary: the checker
      re-validates only the coverage of NI verdicts, never their
      content.  It holds because ``check_ni_base`` and
      ``check_ni_exchange`` read only the slice (component and message
      declarations, global types, the pre-state and Init, and the one
      handler), the property and the options, and because
      :func:`~repro.symbolic.behabs.generic_step` names each exchange's
      terms from its own supply: an unchanged slice yields byte-identical
      terms and therefore the same verdicts.
    """
    components = getattr(program, "components", ())
    messages = getattr(program, "messages", ())
    init = getattr(program, "init", None)
    name = getattr(program, "name", "")
    if part is None:
        scope: Tuple[object, ...] = (
            "scope", "base", name, components, messages, init,
        )
    else:
        ctype, msg = part
        scope = (
            "scope", ctype, msg, name, components, messages, init,
            program.handler_for(ctype, msg),
        )
    return digest(scope)


def derivation_key(proof: object) -> str:
    """The content address of a derivation (any proof object).

    Bitwise-identical derivations — across cold/warm-store and
    compiled/interpreted runs — have identical keys; the differential
    tests assert exactly that.
    """
    return digest(proof)


# ---------------------------------------------------------------------------
# The on-disk store
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StoreEntry:
    """One stored derivation: the keyed payload plus in-band approval.

    ``checked`` records whether the independent checker approved the
    payload when it was produced; loaders that skip re-validation (e.g.
    ``check_proofs=False``) only accept approved entries.
    """

    key: str
    kind: str  # "trace" | "ni-base" | "ni-exchange" | "trace-base" | "trace-step"
    payload: object
    checked: bool


class ProofStore:
    """A directory of pickled :class:`StoreEntry` files, one per key.

    Corruption tolerant: an unreadable, truncated or mismatched entry is
    counted (``store.corrupt``), unlinked best-effort, and reported as a
    miss — the obligation is simply re-proved.  Writes are atomic
    (temp file + ``os.replace``) so concurrent workers never observe a
    partial entry.
    """

    def __init__(self, root: object) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: keys this process has already persisted *checked* — repeat
        #: puts (a fragment filed again with its whole derivation, a
        #: daemon re-verifying a source) are idempotent no-ops instead
        #: of redundant temp-file churn
        self._seen: set = set()

    def path_for(self, key: str) -> Path:
        """The file backing ``key``."""
        return self.root / f"{key}.proof"

    def get(self, key: str) -> Optional[StoreEntry]:
        """Load the entry for ``key``; ``None`` on miss or corruption."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                stat = os.fstat(handle.fileno())
                raw = handle.read()
        except OSError:
            obs.incr("store.miss")
            return None
        try:
            entry = pickle.loads(raw)
            if not isinstance(entry, StoreEntry) or entry.key != key:
                raise ValueError("store entry does not match its key")
        except Exception:
            obs.incr("store.corrupt")
            self._unlink_if_same(path, stat)
            return None
        obs.incr("store.hit")
        return entry

    @staticmethod
    def _unlink_if_same(path: Path, stat: os.stat_result) -> None:
        """Remove ``path`` only while it is still the very file object we
        just read (matched by device + inode).

        A blind ``unlink`` here races with concurrent writers: between
        reading a truncated entry and removing it, another worker may
        have atomically replaced the file with a fresh *good* entry — a
        blind unlink would then destroy that worker's write and every
        later reader re-proves an obligation the store already held.
        """
        try:
            current = os.stat(path)
            if (current.st_dev, current.st_ino) == (stat.st_dev,
                                                    stat.st_ino):
                path.unlink()
        except OSError:
            pass

    def put(self, entry: StoreEntry) -> None:
        """Atomically persist ``entry``, idempotently under concurrency.

        Best effort: a full disk, permission error or unpicklable
        payload never fails the proof that produced it — the failed
        write is counted as ``store.write_error`` and the run continues
        without the cache entry.  The temp file and its descriptor are
        reclaimed on every failure path.

        Multi-writer discipline: a key this process already persisted
        checked is skipped outright, and an *unchecked* entry never
        lands on a key that already has a file — replacing a checked
        entry with an unchecked one would downgrade what
        ``check_proofs=False`` loaders may trust.  Both skips count as
        ``store.put_skipped``.
        """
        if entry.key in self._seen:
            obs.incr("store.put_skipped")
            return
        if not entry.checked and self.path_for(entry.key).exists():
            obs.incr("store.put_skipped")
            return
        try:
            if os.environ.get("REPRO_CHAOS_STORE_FULL"):
                # Chaos instrumentation (harness/chaos_serve.py): behave
                # exactly as a full disk would at the first write.
                raise OSError(28, "No space left on device (injected)")
            handle, tmp = tempfile.mkstemp(
                dir=str(self.root), suffix=".tmp"
            )
        except OSError:
            obs.incr("store.write_error")
            return
        try:
            stream = os.fdopen(handle, "wb")
        except Exception:  # noqa: BLE001 - the raw fd must not leak
            os.close(handle)
            obs.incr("store.write_error")
            self._discard(tmp)
            return
        try:
            with stream:
                pickle.dump(entry, stream)
            os.replace(tmp, self.path_for(entry.key))
        except Exception:  # noqa: BLE001 - pickle errors are not OSErrors
            obs.incr("store.write_error")
            self._discard(tmp)
            return
        obs.incr("store.put")
        if entry.checked:
            self._seen.add(entry.key)

    @staticmethod
    def _discard(tmp: str) -> None:
        """Best-effort removal of a failed write's temp file."""
        try:
            os.unlink(tmp)
        except OSError:
            pass

    def sweep_temps(self, older_than: float = 0.0) -> int:
        """Reclaim ``*.tmp`` files a crashed writer left behind.

        ``put`` discards its temp file on every failure path, but a
        process killed mid-write (SIGKILL, OOM, power loss) cannot —
        over a daemon's lifetime orphans would accumulate forever.
        Removes temp files last modified more than ``older_than``
        seconds ago; returns how many.  Deleting a *live* writer's temp
        is harmless (its ``os.replace`` fails and is counted as a
        ``store.write_error``; the proof itself is unaffected), so the
        default sweeps everything.
        """
        cutoff = time.time() - older_than
        swept = 0
        for path in self.root.glob("*.tmp"):
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    swept += 1
            except OSError:
                pass
        if swept:
            obs.incr("store.temp_swept", swept)
        return swept

    def clear(self) -> None:
        """Remove every entry (and any orphaned temp files)."""
        for pattern in ("*.proof", "*.tmp"):
            for path in self.root.glob(pattern):
                try:
                    path.unlink()
                except OSError:
                    pass
        self._seen.clear()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.proof"))
