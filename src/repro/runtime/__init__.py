"""The REFLEX runtime: actions, traces, the effect world, the interpreter.

This is the executable half of Figure 1: given a validated program, the
:class:`~repro.runtime.interpreter.Interpreter` runs its event loop against
a :class:`~repro.runtime.world.World` of simulated components and threads a
ghost :class:`~repro.runtime.trace.Trace` of every observable action.  The
:class:`~repro.runtime.replay.AbstractionChecker` is the figure's "sats"
arrow: it replays a trace and accepts iff the abstraction predicts it.
"""

from .actions import (
    ACall,
    ACrash,
    ARecv,
    ARestart,
    ASelect,
    ASend,
    ASpawn,
    Action,
    kind,
)
from .components import (
    ComponentBehavior,
    ComponentPort,
    EchoBehavior,
    InertBehavior,
    RecordingBehavior,
    ScriptedBehavior,
)
from .faults import (
    DeadLetterRing,
    FaultPlan,
    FaultRecord,
    FaultSpec,
    FaultyWorld,
)
from .interpreter import Interpreter, KernelState, run_program
from .monitor import (
    MonitoredInterpreter,
    MonitorViolation,
    SampledMonitor,
    SamplingPolicy,
    TraceMonitor,
)
from .render import render_sequence
from .replay import AbstractionChecker, RejectedTrace
from .scheduler import KernelInstance, SoakScheduler
from .supervisor import RestartPolicy, SupervisedInterpreter, Supervisor
from .trace import Trace
from .world import World, make_call_table

__all__ = [
    "ACall",
    "ACrash",
    "ARecv",
    "ARestart",
    "ASelect",
    "ASend",
    "ASpawn",
    "Action",
    "kind",
    "DeadLetterRing",
    "FaultPlan",
    "FaultRecord",
    "FaultSpec",
    "FaultyWorld",
    "RestartPolicy",
    "SupervisedInterpreter",
    "Supervisor",
    "ComponentBehavior",
    "ComponentPort",
    "EchoBehavior",
    "InertBehavior",
    "RecordingBehavior",
    "ScriptedBehavior",
    "Interpreter",
    "KernelState",
    "run_program",
    "MonitoredInterpreter",
    "MonitorViolation",
    "SampledMonitor",
    "SamplingPolicy",
    "TraceMonitor",
    "render_sequence",
    "AbstractionChecker",
    "RejectedTrace",
    "KernelInstance",
    "SoakScheduler",
    "Trace",
    "World",
    "make_call_table",
]
