"""Trace actions: the observable events of a REFLEX kernel.

A *trace* records all observable interactions between the kernel and the
outside world (paper section 2).  Each interaction is an *action*; the five
action kinds below correspond exactly to the effectful primitives of the
paper's interpreter (Figure 4): selecting a ready component, receiving a
message, sending a message, spawning a component, and invoking an external
function.

Actions are immutable and hashable; property patterns
(:mod:`repro.props.patterns`) match over them, and the symbolic evaluator
produces *templates* of them (:mod:`repro.symbolic.seval`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from ..lang.values import ComponentInstance, Value


@dataclass(frozen=True)
class ASelect:
    """The kernel selected ``comp`` as the next ready component."""

    comp: ComponentInstance

    def __str__(self) -> str:
        return f"Select({self.comp})"


@dataclass(frozen=True)
class ARecv:
    """The kernel received message ``msg(payload...)`` from ``comp``."""

    comp: ComponentInstance
    msg: str
    payload: Tuple[Value, ...]

    def __str__(self) -> str:
        args = ", ".join(str(v) for v in self.payload)
        return f"Recv({self.comp}, {self.msg}({args}))"


@dataclass(frozen=True)
class ASend:
    """The kernel sent message ``msg(payload...)`` to ``comp``."""

    comp: ComponentInstance
    msg: str
    payload: Tuple[Value, ...]

    def __str__(self) -> str:
        args = ", ".join(str(v) for v in self.payload)
        return f"Send({self.comp}, {self.msg}({args}))"


@dataclass(frozen=True)
class ASpawn:
    """The kernel spawned the new component instance ``comp``."""

    comp: ComponentInstance

    def __str__(self) -> str:
        return f"Spawn({self.comp})"


@dataclass(frozen=True)
class ACall:
    """The kernel invoked external function ``func`` with string arguments
    ``args`` and the outside world answered ``result``.

    Call results are the non-deterministic inputs factored into ghost
    context trees by the non-interference definition (paper section 4.2).
    """

    func: str
    args: Tuple[Value, ...]
    result: Value

    def __str__(self) -> str:
        args = ", ".join(str(v) for v in self.args)
        return f"Call({self.func}({args}) = {self.result})"


@dataclass(frozen=True)
class ACrash:
    """The kernel observed component ``comp`` fail.

    ``reason`` is ``"fault"`` when the process died (crash injection or a
    real exit) and ``"protocol"`` when the kernel's message parser
    rejected garbage on the channel and dropped the connection.  Crash
    events are observable so online monitors keep checking across
    component failure, but no property pattern matches them — the
    verified guarantees quantify over the paper's five primitives only,
    which is exactly why they survive component failure.
    """

    comp: ComponentInstance
    reason: str

    def __str__(self) -> str:
        return f"Crash({self.comp}, {self.reason})"


@dataclass(frozen=True)
class ARestart:
    """A kernel-side supervisor restarted the dead component ``comp``.

    The replacement process inherits the component's identity and channel
    descriptor, so this is *not* a ``Spawn``: uniqueness properties such
    as the browser's ``UniqueTabIds`` are unaffected by supervision.
    """

    comp: ComponentInstance

    def __str__(self) -> str:
        return f"Restart({self.comp})"


Action = Union[ASelect, ARecv, ASend, ASpawn, ACall, ACrash, ARestart]

#: Action kind tags, used by patterns and the pretty-printer.
KIND_OF = {
    ASelect: "Select",
    ARecv: "Recv",
    ASend: "Send",
    ASpawn: "Spawn",
    ACall: "Call",
    ACrash: "Crash",
    ARestart: "Restart",
}


def kind(action: Action) -> str:
    """The kind tag ("Select", "Recv", ...) of an action."""
    return KIND_OF[type(action)]
