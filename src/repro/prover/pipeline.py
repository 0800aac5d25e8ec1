"""The staged obligation pipeline: plan → search → check.

Verifying a property decomposes into three stages, each observable and
separately cacheable:

* **plan** — enumerate the property's :class:`Obligation` list against
  the program.  Planning is *syntactic*: a trace property is one
  obligation; an NI property is a base obligation plus one obligation per
  ``(component type, message)`` exchange of the kernel (read off
  ``Program.exchange_keys()`` — no symbolic step needed).
* **search** — discharge one obligation, emitting a derivation fragment
  (a :class:`~repro.prover.derivation.TracePropertyProof`, the NI base
  notes, or one exchange's :class:`~repro.prover.ni.PathVerdict` group).
* **check** — validate the assembled derivation through
  :mod:`repro.prover.checker`, independently of how it was found (with
  a proof store, a trace derivation is checked fragment by fragment as
  it is searched instead).

Every obligation carries a stable content-addressed ``key`` (scope digest
+ property + derivation-relevant options + part, see
:mod:`repro.prover.proofstore`).  An NI obligation's key is the identity
under which the persistent proof store files its result, and its scope
is its slice — the declarations, the Init block and, for an exchange,
that one handler — so an edit to one handler re-keys only that
handler's NI obligation.  A trace obligation's key, scoped by the whole
program, names it, but only its fragments are filed, each under a key
of its own slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .. import obs
from ..lang.errors import ProofSearchFailure
from ..props.spec import NonInterference, Property, TraceProperty
from .proofstore import (
    NI_OBLIGATION,
    dependency_digest,
    digest,
    obligation_key,
    scoped_part,
)

#: Obligation kinds, in the order they are planned.
TRACE = "trace"
NI_BASE = "ni-base"
NI_EXCHANGE = "ni-exchange"


@dataclass(frozen=True)
class Obligation:
    """One independently dischargeable unit of proof work.

    ``part`` is ``None`` for whole-property obligations (a trace property,
    the NI base condition) and an exchange key ``(ctype, msg)`` for one
    NI exchange.  ``key`` is the obligation's content address.
    """

    kind: str  # TRACE | NI_BASE | NI_EXCHANGE
    property_name: str
    key: str
    part: Optional[Tuple[str, str]] = None

    def __str__(self) -> str:
        where = f" {self.part[0]}=>{self.part[1]}" if self.part else ""
        return f"{self.kind}:{self.property_name}{where} [{self.key[:12]}]"


def plan_property(program: object, prop: Property, options: object,
                  key_for: Optional[
                      Callable[[Optional[Tuple[str, str]]], str]
                  ] = None) -> Tuple[Obligation, ...]:
    """Enumerate the obligations of ``prop`` against ``program``.

    ``key_for`` may supply a memoized obligation-key computation (the
    verifier's :class:`~repro.prover.engine.KeyTable`); it must return
    exactly what the reference definitions below would.  Without it a
    trace key is computed from the program's digest and an NI key from
    its slice's :func:`~repro.prover.proofstore.dependency_digest`.
    """
    if key_for is None and isinstance(prop, NonInterference):
        def key_for(part: Optional[Tuple[str, str]]) -> str:
            return obligation_key(dependency_digest(program, part), prop,
                                  options, scoped_part(NI_OBLIGATION, part))
    elif key_for is None:
        pd = digest(program)

        def key_for(part: Optional[Tuple[str, str]]) -> str:
            return obligation_key(pd, prop, options, part)

    if isinstance(prop, TraceProperty):
        obs.incr("plan.obligations")
        return (Obligation(TRACE, prop.name, key_for(None)),)
    if isinstance(prop, NonInterference):
        planned = [Obligation(NI_BASE, prop.name, key_for(None))]
        for part in program.exchange_keys():
            planned.append(Obligation(
                NI_EXCHANGE, prop.name, key_for(part), part,
            ))
        obs.incr("plan.obligations", len(planned))
        return tuple(planned)
    raise ProofSearchFailure(f"unknown property form {prop!r}")
