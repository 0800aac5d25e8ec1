"""Figure 1's "sats" arrow, made executable.

The paper proves once and for all in Coq that every trace the interpreter
produces is included in the program's behavioral abstraction, and that
therefore a property proved of the abstraction holds of every run.  The
reproduction cannot have that proof; it has this module instead: a
randomized differential oracle that

1. drives each benchmark kernel in the real interpreter under a fuzzing
   driver (random well-typed messages from random components, random
   scheduling),
2. checks the produced trace is accepted by the
   :class:`~repro.runtime.replay.AbstractionChecker` (interpreter ⊆
   abstraction), a concrete replay that imports nothing from the
   symbolic layer or the prover it stands behind, and
3. checks every *proved* trace property holds on the produced trace (the
   end-to-end guarantee), using the independent concrete-trace semantics
   of :mod:`repro.props.tracepreds`.

Any discrepancy is a soundness bug in the reproduction.  The test suite
and the Figure-1 benchmark both run this harness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..lang import types as ty
from ..lang.values import VFd, VTuple, Value, vbool, vnum, vstr
from ..props.spec import SpecifiedProgram
from ..runtime.interpreter import Interpreter, KernelState
from ..runtime.replay import AbstractionChecker, RejectedTrace
from ..runtime.world import World
from ..systems import BENCHMARKS

#: Value pools for fuzzed payloads — small on purpose so collisions (same
#: user twice, same domain twice) actually happen and exercise the lookup
#: and counter paths.
STRING_POOL = (
    "alice", "bob", "mallory", "wonderland", "hunter2",
    "mail.example", "shop.example", "static.example", "evil.example",
    "/reports/q1.txt", "/shared/readme.md", "open", "lock", "unlock",
    "",
)


def random_value(t: ty.Type, rng: random.Random) -> Value:
    """A random well-typed payload value."""
    if isinstance(t, ty.StrType):
        return vstr(rng.choice(STRING_POOL))
    if isinstance(t, ty.NumType):
        return vnum(rng.randrange(6))
    if isinstance(t, ty.BoolType):
        return vbool(rng.random() < 0.5)
    if isinstance(t, ty.FdType):
        return VFd(rng.randrange(100, 200))
    if isinstance(t, ty.TupleType):
        return VTuple(tuple(random_value(e, rng) for e in t.elems))
    raise TypeError(f"cannot fuzz type {t}")


@dataclass
class FuzzSession:
    """One randomized run of a benchmark kernel."""

    spec: SpecifiedProgram
    world: World
    interpreter: Interpreter
    state: KernelState


def fuzz_session(benchmark: str, seed: int,
                 events: int = 40) -> FuzzSession:
    """Drive one benchmark with ``events`` random component messages.

    Between stimuli the interpreter runs to quiescence, so scripted
    component responses interleave with fuzzed traffic.
    """
    module = BENCHMARKS[benchmark]
    spec = module.load()
    rng = random.Random(seed)
    world = World(seed=seed, select_policy="random")
    module.register_components(world)
    interpreter = Interpreter(spec.info, world)
    state = interpreter.run_init()
    messages = list(spec.info.msg_table.values())
    for _ in range(events):
        comps = world.components()
        if not comps:
            break
        comp = rng.choice(comps)
        msg = rng.choice(messages)
        payload = tuple(random_value(t, rng) for t in msg.payload)
        world.stimulate(comp, msg.name, *payload)
        interpreter.run(state, max_steps=50)
    interpreter.run(state, max_steps=500)
    return FuzzSession(spec, world, interpreter, state)


@dataclass
class SoundnessVerdict:
    """The oracle's verdict on one fuzzed session."""

    benchmark: str
    seed: int
    trace_length: int
    accepted_by_abstraction: bool
    rejection_reason: str
    violated_properties: Tuple[str, ...]

    @property
    def sound(self) -> bool:
        return self.accepted_by_abstraction and not self.violated_properties


def check_session(session: FuzzSession, benchmark: str,
                  seed: int) -> SoundnessVerdict:
    """Run both halves of the oracle on a finished session."""
    checker = AbstractionChecker(session.spec.info)
    accepted, reason = True, ""
    try:
        checker.check(session.state.trace)
    except RejectedTrace as rejection:
        accepted, reason = False, str(rejection)
    violated = tuple(
        prop.name
        for prop in session.spec.trace_properties()
        if not prop.holds_on(session.state.trace)
    )
    return SoundnessVerdict(
        benchmark=benchmark,
        seed=seed,
        trace_length=len(session.state.trace),
        accepted_by_abstraction=accepted,
        rejection_reason=reason,
        violated_properties=violated,
    )


def run_soundness(seeds: Optional[range] = None,
                  events: int = 40) -> List[SoundnessVerdict]:
    """The full sweep: every benchmark × every seed."""
    seeds = range(10) if seeds is None else seeds
    verdicts: List[SoundnessVerdict] = []
    for benchmark in BENCHMARKS:
        for seed in seeds:
            session = fuzz_session(benchmark, seed, events)
            verdicts.append(check_session(session, benchmark, seed))
    return verdicts


def render_soundness(verdicts: List[SoundnessVerdict]) -> str:
    """Render the per-benchmark soundness sweep."""
    out = ["Figure 1 'sats' arrow — randomized soundness oracle"]
    by_benchmark: dict = {}
    for v in verdicts:
        by_benchmark.setdefault(v.benchmark, []).append(v)
    for benchmark, vs in by_benchmark.items():
        sound = sum(1 for v in vs if v.sound)
        actions = sum(v.trace_length for v in vs)
        out.append(
            f"  {benchmark:10s} {sound}/{len(vs)} runs sound, "
            f"{actions} trace actions checked"
        )
        for v in vs:
            if not v.sound:
                out.append(f"    UNSOUND seed={v.seed}: "
                           f"{v.rejection_reason or v.violated_properties}")
    all_sound = all(v.sound for v in verdicts)
    out.append(
        f"[shape] interpreter traces ⊆ abstraction and proved properties "
        f"hold on every run: {'PASS' if all_sound else 'FAIL'}"
    )
    return "\n".join(out)


def main() -> None:  # pragma: no cover - CLI convenience
    print(render_soundness(run_soundness()))


if __name__ == "__main__":  # pragma: no cover
    main()
