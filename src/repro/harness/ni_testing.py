"""Empirical (runtime) non-interference testing.

The prover establishes non-interference over the behavioral abstraction;
this harness cross-checks it *dynamically* on concrete executions, the way
section 4.2 defines it: two executions receiving the same high inputs (and
the same non-deterministic context — guaranteed by sharing the world seed)
must produce the same high outputs.

``paired_run`` drives two worlds with the same high stimuli but different
low stimuli and compares the high projections πi/πo of their traces.  For
a verified kernel the projections must agree on every pairing; for the
buggy browser of :mod:`repro.harness.utility` the harness finds concrete
divergences — the dynamic witness of the interference the prover rejects
statically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..lang.values import ComponentInstance
from ..props.patterns import Binding
from ..props.spec import NonInterference, SpecifiedProgram
from ..runtime.actions import ARecv, ASend, ASpawn
from ..runtime.interpreter import Interpreter, KernelState
from ..runtime.trace import Trace
from ..runtime.world import World

#: One injected stimulus: (component index in spawn order, message name,
#: payload of plain Python values).
Stimulus = Tuple[int, str, Tuple[object, ...]]


def concrete_labeling(prop: NonInterference,
                      params: Dict[str, object]) -> Callable:
    """θc instantiated at concrete parameter values: component → is-high?"""
    from ..lang.values import from_python

    binding: Binding = {name: from_python(v) for name, v in params.items()}

    def is_high(comp: ComponentInstance) -> bool:
        return any(
            pattern.match(comp, dict(binding)) is not None
            for pattern in prop.high_patterns
        )

    return is_high


def high_projection(trace: Trace, is_high: Callable) -> List[str]:
    """πi + πo: the high-visible actions of a trace, in order.

    Receives from high components are the high inputs; sends to and spawns
    of high components are the high outputs (section 4.2).
    """
    def describe(comp: ComponentInstance) -> str:
        config = ", ".join(str(c) for c in comp.config)
        return f"{comp.ctype}({config})"

    projected: List[str] = []
    for action in trace.chronological():
        if isinstance(action, ARecv) and is_high(action.comp):
            payload = ", ".join(str(p) for p in action.payload)
            projected.append(
                f"in  {describe(action.comp)} {action.msg}({payload})"
            )
        elif isinstance(action, ASend) and is_high(action.comp):
            payload = ", ".join(str(p) for p in action.payload)
            projected.append(
                f"out {describe(action.comp)} {action.msg}({payload})"
            )
        elif isinstance(action, ASpawn) and is_high(action.comp):
            projected.append(f"spawn {describe(action.comp)}")
    return projected


def output_projection(trace: Trace, is_high: Callable) -> List[str]:
    """πo only: sends to and spawns of high components."""
    return [
        line for line in high_projection(trace, is_high)
        if not line.startswith("in ")
    ]


def input_projection(trace: Trace, is_high: Callable) -> List[str]:
    """πi only: receives from high components."""
    return [
        line for line in high_projection(trace, is_high)
        if line.startswith("in ")
    ]


@dataclass
class PairedRun:
    """Two executions agreeing on high inputs."""

    first: KernelState
    second: KernelState
    high_inputs_agree: bool
    high_outputs_agree: bool

    @property
    def interference_witnessed(self) -> bool:
        return self.high_inputs_agree and not self.high_outputs_agree


def drive(spec: SpecifiedProgram, register: Callable[[World], None],
          stimuli: Sequence[Stimulus], seed: int = 0) -> KernelState:
    """Run one execution: init, then each stimulus to quiescence."""
    world = World(seed=seed, select_policy="fifo")
    register(world)
    interpreter = Interpreter(spec.info, world)
    state = interpreter.run_init()
    for comp_index, msg, payload in stimuli:
        comps = world.components()
        if comp_index >= len(comps):
            continue
        world.stimulate(comps[comp_index], msg, *payload)
        interpreter.run(state, max_steps=200)
    return state


def paired_run(
    spec: SpecifiedProgram,
    register: Callable[[World], None],
    prop: NonInterference,
    params: Dict[str, object],
    shared_stimuli: Sequence[Stimulus],
    low_only_first: Sequence[Stimulus],
    low_only_second: Sequence[Stimulus],
    seed: int = 0,
) -> PairedRun:
    """Run the pair: both executions get ``shared_stimuli`` interleaved
    with their own low-only stimuli (callers must ensure low-only stimuli
    never make a *high* component speak — that would desynchronize πi)."""
    first = drive(spec, register,
                  _interleave(shared_stimuli, low_only_first), seed)
    second = drive(spec, register,
                   _interleave(shared_stimuli, low_only_second), seed)
    is_high = concrete_labeling(prop, params)
    return PairedRun(
        first=first,
        second=second,
        high_inputs_agree=(
            input_projection(first.trace, is_high)
            == input_projection(second.trace, is_high)
        ),
        high_outputs_agree=(
            output_projection(first.trace, is_high)
            == output_projection(second.trace, is_high)
        ),
    )


def _interleave(shared: Sequence[Stimulus],
                low: Sequence[Stimulus]) -> List[Stimulus]:
    """Shared stimuli in order, with the low-only stimuli slotted between
    them round-robin (so low traffic genuinely interleaves)."""
    out: List[Stimulus] = []
    low_iter = iter(low)
    for stimulus in shared:
        out.append(stimulus)
        nxt = next(low_iter, None)
        if nxt is not None:
            out.append(nxt)
    out.extend(low_iter)
    return out
