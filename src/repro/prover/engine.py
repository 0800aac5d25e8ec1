"""The verification engine: REFLEX's pushbutton entry point.

``Verifier(spec).verify_all()`` is the reproduction of the paper's headline
workflow: the user writes a program and its properties, presses the button,
and every property is either *proved* (with a machine-checked derivation)
or *rejected* with a diagnostic explaining which obligation got stuck —
the paper's section 6.3 recounts how exactly these diagnostics exposed two
false web-server policies.

Verification runs as a staged pipeline (see :mod:`repro.prover.pipeline`):

* **plan** — enumerate an NI property's obligations, each with a stable
  content-addressed key (a trace property is one obligation, the
  property itself, and is not planned: nothing reads its key);
* **search** — discharge each obligation (consulting the persistent
  :mod:`proof store <repro.prover.proofstore>` first when one is
  configured), emitting a derivation;
* **check** — validate the derivation through the independent
  :mod:`checker <repro.prover.checker>`.  With a store, a trace
  derivation is searched and stored fragment by fragment, and each
  fragment is checked once, as it is read or searched; only the
  fragments are filed, each under the key of its own slice.

``verify_all()`` runs the properties one after another in the calling
thread, with ``ProverOptions.deadline`` checked before every property
and before every obligation the engine discharges one at a time (see
:meth:`Verifier.verify_all`).  Every stage reports counters and spans to
:mod:`repro.obs` when a telemetry sink is installed.

The engine also hosts the optimizations of paper section 6.4, each behind a
:class:`ProverOptions` switch so that the ablation benchmark can measure
their effect:

* ``memoize_step`` — compute the symbolic :class:`GenericStep` once per
  program instead of once per property;
* ``syntactic_skip`` — discharge exchanges/invariant cases by the cheap
  syntactic check where possible;
* ``cache_subproofs`` — reuse invariant proofs across occurrences and
  properties (the paper's "saving subproofs at key cut points").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .. import obs
from ..lang.errors import ProofCheckFailure, ProofSearchFailure
from ..props.spec import (
    NonInterference,
    Property,
    SpecifiedProgram,
    TraceProperty,
)
from ..symbolic import cache as symcache
from ..symbolic import compile as symcompile
from ..symbolic import solver as symsolver
from ..symbolic.behabs import GenericStep, generic_step
from .checker import (
    check_ni_proof,
    check_trace_proof,
    record_step_proofs,
    trace_base_complaints,
    trace_exchange_complaints,
    trace_skip_complaints,
)
from .derivation import (
    BaseProof,
    BoundedProof,
    BoundedSpec,
    InvariantProof,
    InvariantSpec,
    SkippedExchange,
    StepProof,
    TracePropertyProof,
)
from .invariants import prove_bounded, prove_invariant
from .ni import (
    Labeling,
    NIProof,
    PathVerdict,
    build_labeling,
    check_ni_base,
    check_ni_exchange,
)
from .obligations import scheme_of
from .pipeline import Obligation, plan_property
from .proofstore import (
    NI_OBLIGATION,
    TRACE_FRAGMENT,
    ProofStore,
    Rendered,
    StoreEntry,
    derivation_key,
    digest,
    fingerprint,
    fingerprint_with,
    obligation_key,
    scoped_part,
)
from .trace_tactics import (
    TacticContext,
    prove_trace_base,
    prove_trace_exchange,
    prove_trace_property,
    syntactic_skips,
)

# Unused here: perfbench/layers.py (TARGETS) wraps both by their names
# in this module.
from .checker import trace_proof_complaints  # noqa: F401
from .proofstore import dependency_digest  # noqa: F401


@dataclass
class ProverOptions:
    """Switches for the section-6.4 optimizations plus proof checking.

    ``proof_store`` names a directory for the persistent content-addressed
    proof cache; ``None`` (the default) disables it.
    """

    syntactic_skip: bool = True
    memoize_step: bool = True
    cache_subproofs: bool = True
    check_proofs: bool = True
    #: consult the process-wide symbolic caches (interned-term simplify
    #: memo, DNF memo, solver query cache — see docs/performance.md);
    #: semantically invisible, so it does not shape obligation keys
    term_cache: bool = True
    #: build the symbolic step with the closure-compiled executor of
    #: :mod:`repro.symbolic.compile` and batch solver queries that share
    #: an asserted prefix.  Semantically invisible — verdicts,
    #: derivations and obligation keys are bit-for-bit identical with
    #: it off (``--no-compile`` on the CLI, asserted by the compile
    #: differential tests) — so it does not shape obligation keys.
    #: (The per-verification key table is not an optimisation switch:
    #: it runs either way.)
    compile_plans: bool = True
    proof_store: Optional[str] = None
    #: absolute ``time.monotonic()`` deadline for the whole run, checked
    #: before every property, every NI obligation and every store-backed
    #: trace fragment; a property not finished by then becomes a
    #: diagnostic failure verdict carrying :data:`DEADLINE_MESSAGE`, so
    #: callers get a *partial* report — whatever was proved inside the
    #: budget — instead of a late one.  A search call already running
    #: is not interrupted.  ``None`` (the default) disables the budget.
    #: Execution policy only: it never shapes obligation keys or
    #: derivations.
    deadline: Optional[float] = None


#: Diagnostic error of a property failed by ``ProverOptions.deadline``
#: (the serve layer's residue rendering keys off it).
DEADLINE_MESSAGE = "deadline expired before this proof completed"


@dataclass
class PropertyResult:
    """The outcome of verifying one property."""

    property: Property
    status: str  # "proved" | "failed"
    seconds: float
    proof: Optional[Union[TracePropertyProof, NIProof]] = None
    error: Optional[str] = None
    checked: bool = False
    #: for failed trace properties: an instantiation of the stuck goal
    #: (see :mod:`repro.prover.counterexample`), when the model finder
    #: succeeds
    counterexample: Optional[object] = None
    #: where the derivation came from: "store" when the persistent proof
    #: store (or, for a fragment, the syntactic skip) answered every
    #: obligation and nothing was searched, "searched" otherwise
    source: str = "searched"
    #: :meth:`derivation_key`'s last answer, with the proof it rendered
    _derivation: Optional[Tuple[object, str]] = field(
        default=None, init=False, repr=False, compare=False,
    )

    @property
    def proved(self) -> bool:
        return self.status == "proved"

    def derivation_key(self) -> Optional[str]:
        """Content address of the derivation (``None`` for failures).

        Identical across cold/warm-store and compiled/interpreted runs —
        the differential tests assert exactly that.  Rendered once per
        proof: a daemon verdict asks for it once per waiter and once
        more for the degraded-answer cache.
        """
        if self.proof is None:
            return None
        memo = self._derivation
        if memo is None or memo[0] is not self.proof:
            memo = self._derivation = (self.proof,
                                       derivation_key(self.proof))
        return memo[1]

    def to_dict(self) -> dict:
        """JSON-ready form of the result."""
        return {
            "property": self.property.name,
            "status": self.status,
            "seconds": round(self.seconds, 6),
            "checked": self.checked,
            "source": self.source,
            "derivation_key": self.derivation_key(),
            "error": self.error,
        }

    def __str__(self) -> str:
        mark = "✓" if self.proved else "✗"
        extra = "" if self.proved else f" — {self.error}"
        return f"{mark} {self.property.name} ({self.seconds:.3f}s){extra}"


@dataclass
class VerificationReport:
    """Results for every property of one program.

    ``total_seconds`` sums the per-property times; ``wall_seconds`` is
    the report-level elapsed time.
    """

    program_name: str
    results: List[PropertyResult] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def all_proved(self) -> bool:
        return all(r.proved for r in self.results)

    @property
    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.results)

    def result_named(self, name: str) -> PropertyResult:
        """The result for property ``name``; raises :class:`KeyError`
        naming the available properties otherwise."""
        for r in self.results:
            if r.property.name == name:
                return r
        available = ", ".join(
            sorted(r.property.name for r in self.results)
        ) or "(none)"
        raise KeyError(
            f"no result for property {name!r}; available: {available}"
        )

    def to_dict(self) -> dict:
        """JSON-ready form of the report."""
        return {
            "program": self.program_name,
            "all_proved": self.all_proved,
            "wall_seconds": round(self.wall_seconds, 6),
            "total_seconds": round(self.total_seconds, 6),
            "results": [r.to_dict() for r in self.results],
        }

    def __str__(self) -> str:
        lines = [f"verification report for {self.program_name}:"]
        lines.extend(f"  {r}" for r in self.results)
        verdict = "all proved" if self.all_proved else "FAILURES PRESENT"
        lines.append(
            f"  {len(self.results)} properties, {verdict}, "
            f"{self.total_seconds:.3f}s total"
        )
        return "\n".join(lines)


#: A slice: ``None`` for the base case (declarations + Init), an
#: exchange key ``(ctype, msg)`` for one handler's inductive case.
Part = Optional[Tuple[str, str]]


class KeyTable:
    """Every content address one verification uses, each computed once.

    A :class:`Verifier` owns one table, so the table lives and dies with
    one verification — one daemon submission.  A store-backed
    verification needs slice-scoped keys — trace fragments in the
    fragment search, NI obligations in the plan, and the same keys
    again for the invalidation index (:meth:`scoped_keys`) — and each
    slice shares the declarations + Init text, so rendering per key
    would make hashing the bulk of a daemon submit.  Here:

    * the declarations, the Init block and each handler are rendered
      once, and the program digest and every slice digest are built
      from those texts (:func:`dependency_digest` stays the reference
      definition of a slice digest: the same scope tuples, rendered
      around :class:`~repro.prover.proofstore.Rendered` parts);
    * each property is rendered once, however many keys name it;
    * each obligation key and fragment key is computed once.

    Every key is byte-identical to the uncached computation, so proof
    stores written without the table stay valid.  Properties are
    memoized by identity and kept alive by the table, so an ``id`` can
    never be reused while it is in the table.
    """

    def __init__(self, program: object, options: object) -> None:
        self.program = program
        self.options = options
        #: the program's fields rendered once, by field name, and each
        #: handler's rendering (filled on first use)
        self._fields: Dict[str, Rendered] = {}
        self._handlers: Tuple[Rendered, ...] = ()
        self._program_digest: Optional[str] = None
        self._slices: Optional[Dict[Part, str]] = None
        #: id(property) → (property, its rendering)
        self._props: Dict[int, Tuple[Property, Rendered]] = {}
        #: (id(property), part, slice marker or None) → key
        self._keys: Dict[Tuple[int, Part, Optional[str]], str] = {}

    def _rendered_fields(self) -> Dict[str, Rendered]:
        """The program's declarations, Init block and handlers, each
        rendered once."""
        if not self._fields:
            program = self.program
            self._handlers = tuple(Rendered(fingerprint(handler))
                                   for handler in program.handlers)
            self._fields = {
                "components": Rendered(fingerprint(program.components)),
                "messages": Rendered(fingerprint(program.messages)),
                "init": Rendered(fingerprint(program.init)),
                "handlers": Rendered(fingerprint(self._handlers)),
            }
        return self._fields

    def program_digest(self) -> str:
        """Content digest of the whole program AST (``digest(program)``,
        built from the rendered fields)."""
        if self._program_digest is None:
            self._program_digest = digest(Rendered(fingerprint_with(
                self.program, self._rendered_fields(),
            )))
        return self._program_digest

    def slice_digests(self) -> Dict[Part, str]:
        """The dependency digest of every slice: the base slice under
        ``None``, then one entry per exchange of the kernel."""
        if self._slices is None:
            program = self.program
            fields = self._rendered_fields()
            shared = (program.name, fields["components"],
                      fields["messages"], fields["init"])
            handlers: Dict[Tuple[str, str], Rendered] = {}
            for handler, text in zip(program.handlers, self._handlers):
                handlers.setdefault(handler.key, text)  # handler_for's pick
            slices: Dict[Part, str] = {
                None: digest(("scope", "base") + shared),
            }
            for part in program.exchange_keys():
                slices[part] = digest(("scope",) + part + shared
                                      + (handlers.get(part),))
            self._slices = slices
        return self._slices

    def _rendered(self, prop: Property) -> Rendered:
        hit = self._props.get(id(prop))
        if hit is None:
            hit = self._props[id(prop)] = (prop, Rendered(fingerprint(prop)))
        return hit[1]

    def obligation_key(self, prop: Property, part: Part) -> str:
        """The content address of one pipeline obligation of ``prop``:
        a trace property keyed by the program digest (it names the
        obligation; only its fragments are filed), an NI obligation
        keyed by its slice (see
        :func:`~repro.prover.proofstore.obligation_key`)."""
        if isinstance(prop, NonInterference):
            return self._scoped_key(prop, part, NI_OBLIGATION)
        memo = (id(prop), part, None)
        key = self._keys.get(memo)
        if key is None:
            key = self._keys[memo] = obligation_key(
                self.program_digest(), self._rendered(prop), self.options,
                part,
            )
        return key

    def fragment_key(self, prop: TraceProperty, part: Part) -> str:
        """The content address of one trace-proof *fragment* (the base
        case for ``part=None``, one exchange's inductive case
        otherwise), keyed by its slice, so editing one handler only
        re-keys the fragments that syntactically depend on it."""
        return self._scoped_key(prop, part, TRACE_FRAGMENT)

    def _scoped_key(self, prop: Property, part: Part, marker: str) -> str:
        """``prop``'s key for the slice ``part``: the slice digest
        instead of the program digest, and a ``part`` tag that starts
        with ``marker`` (see :func:`~repro.prover.proofstore.scoped_part`)."""
        memo = (id(prop), part, marker)
        key = self._keys.get(memo)
        if key is None:
            key = self._keys[memo] = obligation_key(
                self.slice_digests()[part], self._rendered(prop),
                self.options, scoped_part(marker, part),
            )
        return key

    def scoped_keys(self) -> Dict[Part, List[str]]:
        """The slice-scoped keys computed so far, by the slice of this
        kernel they depend on, in computation order.  A store-backed
        search computes a fragment key only to look it up, so these are
        the fragments it consulted the store for — never a syntactic
        skip's — plus every NI obligation its plans named."""
        slices = self.slice_digests()
        out: Dict[Part, List[str]] = {}
        for (_, part, marker), key in self._keys.items():
            if marker is not None and part in slices:
                out.setdefault(part, []).append(key)
        return out


class Verifier:
    """Verifies the properties of one specified program."""

    def __init__(self, spec: SpecifiedProgram,
                 options: Optional[ProverOptions] = None) -> None:
        self.spec = spec
        self.options = options or ProverOptions()
        self._step_cache: Optional[GenericStep] = None
        self._invariant_cache: Dict[InvariantSpec, InvariantProof] = {}
        self._bounded_cache: Dict[BoundedSpec, BoundedProof] = {}
        self._labeling_cache: Dict[str, Labeling] = {}
        #: the §6.4 skip record of each exchange (see TacticContext)
        self._skips: Dict[Tuple[str, str], SkippedExchange] = {}
        #: every content address this verification uses
        self.keys = KeyTable(spec.program, self.options)
        self._store: Optional[ProofStore] = (
            ProofStore(self.options.proof_store)
            if self.options.proof_store else None
        )

    # -- building blocks -------------------------------------------------------

    def generic_step(self) -> GenericStep:
        """The symbolic inductive step (memoized per section 6.4): built
        once per ``Verifier`` under the ``step.build`` span, by the
        compiled executor with ``compile_plans``."""
        if self.options.memoize_step:
            if self._step_cache is None:
                with obs.span("step.build", program=self.spec.name):
                    self._step_cache = self._build_step()
            return self._step_cache
        return self._build_step()

    def _build_step(self) -> GenericStep:
        if self.options.compile_plans:
            return symcompile.CompiledPlan().step_for(self.spec.info)
        return generic_step(self.spec.info)

    def program_digest(self) -> str:
        """Content digest of the program AST (computed once, shared by
        every obligation key)."""
        return self.keys.program_digest()

    def _invariant_prover(self, spec: InvariantSpec) -> InvariantProof:
        if self.options.cache_subproofs:
            cached = self._invariant_cache.get(spec)
            if cached is not None:
                obs.incr("subproof.invariant.hit")
                return cached
        obs.incr("subproof.invariant.miss")
        proof = prove_invariant(
            self.generic_step(), spec,
            syntactic_skip=self.options.syntactic_skip,
        )
        if self.options.cache_subproofs:
            self._invariant_cache[spec] = proof
        return proof

    def _bounded_prover(self, spec: BoundedSpec) -> BoundedProof:
        if self.options.cache_subproofs:
            cached = self._bounded_cache.get(spec)
            if cached is not None:
                obs.incr("subproof.bounded.hit")
                return cached
        obs.incr("subproof.bounded.miss")
        proof = prove_bounded(self.generic_step(), spec)
        if self.options.cache_subproofs:
            self._bounded_cache[spec] = proof
        return proof

    def _tactic_context(self) -> TacticContext:
        return TacticContext(
            step=self.generic_step(),
            invariant_prover=self._invariant_prover,
            bounded_prover=self._bounded_prover,
            skips=self._skips,
            syntactic_skip=self.options.syntactic_skip,
        )

    # -- pipeline: plan --------------------------------------------------------

    def plan(self, prop: Property) -> Tuple[Obligation, ...]:
        """Pipeline stage one: the obligations of ``prop``, each with its
        content-addressed key."""
        return plan_property(
            self.spec.program, prop, self.options,
            key_for=lambda part: self.keys.obligation_key(prop, part),
        )

    def ni_labeling(self, prop: NonInterference) -> Labeling:
        """The (memoized) executable labeling θc/θv for ``prop``."""
        cached = self._labeling_cache.get(prop.name)
        if cached is None:
            cached = build_labeling(self.generic_step(), prop)
            self._labeling_cache[prop.name] = cached
        return cached

    # -- pipeline: search ------------------------------------------------------

    def ni_part(self, prop: NonInterference,
                part: Optional[Tuple[str, str]]
                ) -> Tuple[object, bool]:
        """Discharge one NI obligation (the base condition when ``part``
        is ``None``, one exchange otherwise), consulting the proof store
        first.  Returns ``(payload, from_store)``; raises
        :class:`ProofSearchFailure` on violation."""
        kind = "ni-base" if part is None else "ni-exchange"
        where = "base" if part is None else f"{part[0]}=>{part[1]}"
        obs.event("obligation.start", property=prop.name,
                  obligation=kind, part=where)
        registry = obs.metrics_active()
        started = time.perf_counter() if registry is not None else 0.0
        with obs.span("obligation", property=prop.name, kind=kind,
                      part=where):
            try:
                payload, from_store = self._ni_part_inner(
                    prop, part, kind, where
                )
            except ProofSearchFailure:
                obs.event("obligation.finish", property=prop.name,
                          obligation=kind, part=where, verdict="failed",
                          store_hit=False)
                raise
        if registry is not None:
            registry.observe("obligation.seconds",
                             time.perf_counter() - started)
        obs.event("obligation.finish", property=prop.name,
                  obligation=kind, part=where, verdict="ok",
                  store_hit=from_store)
        return payload, from_store

    def _ni_part_inner(self, prop: NonInterference,
                       part: Optional[Tuple[str, str]], kind: str,
                       where: str) -> Tuple[object, bool]:
        """The uninstrumented body of :meth:`ni_part`."""
        key = self.keys.obligation_key(prop, part)
        if self._store is not None:
            entry = self._store.get(key)
            if entry is not None and entry.kind == kind:
                return entry.payload, True
        labeling = self.ni_labeling(prop)
        step = self.generic_step()
        with obs.span("search", property=prop.name, part=where):
            if part is None:
                payload: object = tuple(check_ni_base(step, labeling))
            else:
                payload = tuple(check_ni_exchange(
                    step, labeling, step.exchange(*part)
                ))
        if self._store is not None:
            # NI search *is* the check (see repro.prover.ni); the key
            # carries the soundness argument for its reuse.
            self._store.put(StoreEntry(key, kind, payload))
        return payload, False

    # -- per-property verification ----------------------------------------------

    def _prove_trace(self, prop: TraceProperty
                     ) -> Tuple[TracePropertyProof, bool, str]:
        """Search (store first) and check one trace property (the
        property's single pipeline obligation, instrumented as such)."""
        obs.event("obligation.start", property=prop.name,
                  obligation="trace")
        registry = obs.metrics_active()
        started = time.perf_counter() if registry is not None else 0.0
        with obs.span("obligation", property=prop.name, kind="trace"):
            try:
                proof, checked, source = self._prove_trace_inner(prop)
            except (ProofSearchFailure, ProofCheckFailure):
                obs.event("obligation.finish", property=prop.name,
                          obligation="trace", verdict="failed",
                          store_hit=False)
                raise
        if registry is not None:
            registry.observe("obligation.seconds",
                             time.perf_counter() - started)
        obs.event("obligation.finish", property=prop.name,
                  obligation="trace", verdict="ok",
                  store_hit=(source == "store"))
        return proof, checked, source

    def _prove_trace_inner(self, prop: TraceProperty
                           ) -> Tuple[TracePropertyProof, bool, str]:
        """The uninstrumented body of :meth:`_prove_trace`.  It plans
        nothing: a trace property's one obligation is the property
        itself, and only its fragments' keys are ever read."""
        if self._store is not None:
            # Every fragment was checked as it was read or searched, and
            # the derivation is exactly their union.
            proof, searched = self._search_fragments(prop)
            return (proof, self.options.check_proofs,
                    "searched" if searched else "store")
        with obs.span("search", property=prop.name):
            proof = prove_trace_property(self._tactic_context(), prop)
        checked = False
        if self.options.check_proofs:
            with obs.span("check", property=prop.name):
                check_trace_proof(self.generic_step(), proof)
            checked = True
        return proof, checked, "searched"

    # -- fragment-grained trace search -----------------------------------------

    def _search_fragments(self, prop: TraceProperty
                          ) -> Tuple[TracePropertyProof, bool]:
        """Search and check a trace property *fragment by fragment*
        through the proof store (base case + one fragment per exchange):
        the derivation, and whether any fragment of it was searched.

        The exchanges the §6.4 syntactic skip settles are decided first,
        from syntax alone, with one lookup; they are not fragments and
        never touch the store.  With ``check_proofs`` the checker then
        validates all of them in one call, so a rejected skip fails the
        property before any fragment is read or filed.  Every other
        fragment is looked up under its dependency-scoped key and
        revalidated through the independent checker before reuse — so an
        incremental edit to one handler re-proves only the fragments
        whose dependency slice changed (or whose revalidation fails, e.g.
        a stale secondary-induction invariant).  With ``check_proofs`` a
        searched fragment is checked too, and filed only once the
        checker accepts it; a rejection fails the property with
        :class:`ProofCheckFailure`.  The run's deadline is checked
        before each fragment, so the search stops between fragments."""
        scheme = scheme_of(prop)
        step = self.generic_step()
        tc = self._tactic_context()
        with obs.span("search", property=prop.name):
            self._check_deadline(prop)
            skips = syntactic_skips(tc, scheme)
            if self.options.check_proofs:
                _reject(prop, trace_skip_complaints(step, scheme, skips))
            base, searched = self._fragment_base(tc, prop, scheme, step)
            steps: List[StepProof] = []
            for ex in step.exchanges:
                skip = skips.get(ex.key)
                if skip is not None:
                    steps.append(skip)
                    continue
                self._check_deadline(prop)
                part, fresh = self._fragment_exchange(tc, prop, scheme,
                                                      step, ex)
                steps.extend(part)
                searched = searched or fresh
        return TracePropertyProof(
            property=prop, scheme=scheme, base=base, steps=tuple(steps),
        ), searched

    def _fragment_base(self, tc, prop: TraceProperty, scheme,
                       step: GenericStep) -> Tuple[BaseProof, bool]:
        key = self.keys.fragment_key(prop, None)
        entry = self._store.get(key)
        if (entry is not None and entry.kind == "trace-base"
                and isinstance(entry.payload, BaseProof)):
            if not trace_base_complaints(step, scheme, entry.payload):
                obs.incr("trace.fragment.hit")
                return entry.payload, False
            obs.incr("trace.fragment.invalid")
        obs.incr("trace.fragment.searched")
        base = prove_trace_base(tc, prop, scheme)
        if self.options.check_proofs:
            _reject(prop, trace_base_complaints(step, scheme, base))
        self._store.put(StoreEntry(key, "trace-base", base))
        return base, True

    def _fragment_exchange(self, tc, prop: TraceProperty, scheme,
                           step: GenericStep, ex
                           ) -> Tuple[List[StepProof], bool]:
        key = self.keys.fragment_key(prop, ex.key)
        entry = self._store.get(key)
        if (entry is not None and entry.kind == "trace-step"
                and isinstance(entry.payload, tuple)):
            if not _exchange_complaints(step, scheme, ex, entry.payload):
                obs.incr("trace.fragment.hit")
                return list(entry.payload), False
            obs.incr("trace.fragment.invalid")
        obs.incr("trace.fragment.searched")
        part = prove_trace_exchange(tc, prop, scheme, ex)
        if self.options.check_proofs:
            _reject(prop, _exchange_complaints(step, scheme, ex, part))
        self._store.put(StoreEntry(key, "trace-step", tuple(part)))
        return part, True

    def _prove_ni(self, prop: NonInterference
                  ) -> Tuple[NIProof, bool, str]:
        """Plan, search (store first) and check one NI property.

        The check stage validates the *recorded* conditions (base
        re-derivation + verdict coverage) through the checker rather than
        re-running the whole NI search, halving the cost of the slowest
        property class.
        """
        with obs.span("plan", property=prop.name):
            obligations = self.plan(prop)
        all_from_store = True
        base_notes: Tuple[str, ...] = ()
        verdicts: List[PathVerdict] = []
        for ob in obligations:
            self._check_deadline(prop)
            payload, from_store = self.ni_part(prop, ob.part)
            all_from_store = all_from_store and from_store
            if ob.part is None:
                base_notes = tuple(payload)
            else:
                verdicts.extend(payload)
        proof = NIProof(prop, base_notes, tuple(verdicts))
        checked = False
        if self.options.check_proofs:
            with obs.span("check", property=prop.name):
                check_ni_proof(self.generic_step(), proof)
            checked = True
        return proof, checked, "store" if all_from_store else "searched"

    def prove_property(self, prop: Property) -> PropertyResult:
        """Prove (and check) one property, timing the whole pipeline.

        Runs under the symbolic-cache scope selected by
        ``ProverOptions.term_cache``; caching never changes the verdict,
        the derivation, or its key (asserted by the differential tests).
        """
        with symcache.scope(self.options.term_cache), \
                symsolver.prefix_scope(self.options.compile_plans):
            with obs.span("property", property=prop.name):
                result = self._prove_property_inner(prop)
        registry = obs.metrics_active()
        if registry is not None:
            registry.observe("property.seconds", result.seconds)
        return result

    def _prove_property_inner(self, prop: Property) -> PropertyResult:
        start = time.perf_counter()
        try:
            if isinstance(prop, TraceProperty):
                proof, checked, source = self._prove_trace(prop)
            elif isinstance(prop, NonInterference):
                proof, checked, source = self._prove_ni(prop)
            else:
                raise ProofSearchFailure(f"unknown property form {prop!r}")
        except ProofSearchFailure as failure:
            return PropertyResult(
                property=prop,
                status="failed",
                seconds=time.perf_counter() - start,
                error=str(failure),
                counterexample=failure.counterexample,
            )
        except ProofCheckFailure as failure:
            return PropertyResult(
                property=prop,
                status="failed",
                seconds=time.perf_counter() - start,
                error=f"proof checker rejected the derivation: {failure}",
            )
        return PropertyResult(
            property=prop,
            status="proved",
            seconds=time.perf_counter() - start,
            proof=proof,
            checked=checked,
            source=source,
        )

    def _deadline_expired(self) -> bool:
        deadline = self.options.deadline
        return deadline is not None and time.monotonic() >= deadline

    def _check_deadline(self, prop: Property) -> None:
        """Fail ``prop`` with :data:`DEADLINE_MESSAGE` once the run's
        deadline has passed (checked before each obligation the engine
        discharges one at a time)."""
        if self._deadline_expired():
            obs.incr("prover.deadline_interrupted")
            obs.event("property.deadline", property=prop.name)
            raise ProofSearchFailure(DEADLINE_MESSAGE)

    def _deadline_result(self, prop: Property) -> PropertyResult:
        obs.incr("prover.deadline_skipped")
        obs.event("property.deadline", property=prop.name)
        return PropertyResult(
            property=prop,
            status="failed",
            seconds=0.0,
            error=DEADLINE_MESSAGE,
        )

    def verify_all(self) -> VerificationReport:
        """Verify every property of the program, in specification order.

        ``ProverOptions.deadline`` is checked before each property,
        before each NI obligation, and — with a proof store — before the
        base fragment and each exchange fragment of a trace search.  A
        property the deadline catches fails with
        :data:`DEADLINE_MESSAGE`; everything proved before it stays
        proved, and fragments searched before it stay in the store.
        """
        start = time.perf_counter()
        report = VerificationReport(self.spec.name)
        with obs.span("verify", program=self.spec.name):
            for prop in self.spec.properties:
                if self._deadline_expired():
                    report.results.append(self._deadline_result(prop))
                    continue
                report.results.append(self.prove_property(prop))
        report.wall_seconds = time.perf_counter() - start
        return report


def _exchange_complaints(step: GenericStep, scheme, ex,
                         steps) -> List[str]:
    """The checker's complaints about one exchange's fragment, after a
    complaint for each step proof it holds for another exchange: a
    fragment answers for its own exchange only, so a derivation
    assembled from checked fragments is exactly their union."""
    complaints = [
        f"{ex.ctype}=>{ex.msg} fragment holds a step proof for "
        f"exchange {sp.exchange_key!r}"
        for sp in steps
        if getattr(sp, "exchange_key", ex.key) != ex.key
    ]
    recorded = record_step_proofs(steps, complaints)
    if complaints:
        return complaints
    return trace_exchange_complaints(step, scheme, ex, recorded)


def _reject(prop: TraceProperty, complaints: List[str]) -> None:
    """Fail ``prop`` as :func:`check_trace_proof` would when a fragment
    of its derivation draws ``complaints``."""
    if complaints:
        raise ProofCheckFailure(f"derivation for {prop.name} rejected: "
                                + "; ".join(complaints))


def verify(spec: SpecifiedProgram,
           options: Optional[ProverOptions] = None) -> VerificationReport:
    """One-shot convenience: verify all properties of ``spec``."""
    return Verifier(spec, options).verify_all()


def prove(spec: SpecifiedProgram, property_name: str,
          options: Optional[ProverOptions] = None) -> PropertyResult:
    """One-shot convenience: verify a single named property."""
    verifier = Verifier(spec, options)
    return verifier.prove_property(spec.property_named(property_name))
