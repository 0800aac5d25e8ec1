"""Differential testing of the *prover*: on randomly generated kernels
and randomly generated properties, a property the prover claims to have
proved must hold on every fuzzed concrete run.

This is the strongest soundness net in the suite: it exercises the whole
pipeline (validation → symbolic evaluation → tactics → checker →
interpreter → trace oracle) on programs nobody hand-crafted.  The prover
is allowed to *fail* on true properties (it is incomplete); it is never
allowed to prove a property some run violates.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lang import STR
from repro.lang.builder import (
    ProgramBuilder, add, assign, call, cfg, eq, ite, le, lit, lookup,
    name, send, sender, spawn, block,
)
from repro.lang.values import VNum, VStr
from repro.props import (
    TraceProperty, comp_pat, msg_pat, recv_pat, send_pat, spawn_pat,
    specify,
)
from repro.prover import Verifier
from repro.runtime import Interpreter, ScriptedBehavior, World

# ---------------------------------------------------------------------------
# Random program generation
# ---------------------------------------------------------------------------

STRINGS = ("a", "b", "")


def _expr_pool(rng: random.Random, params, str_globals):
    """A random string-typed expression usable in a handler."""
    choices = []
    if params:
        choices.append(lambda: name(rng.choice(params)))
    if str_globals:
        choices.append(lambda: name(rng.choice(str_globals)))
    choices.append(lambda: lit(rng.choice(STRINGS)))
    return rng.choice(choices)()


def generate_program(seed: int) -> "ProgramBuilder":
    """A random kernel over a fixed small signature.

    Signature: components Hub (no config) and Cell (key: string);
    messages Ping(string), Pong(string), Mk(string).  Handlers are random
    compositions of guarded sends, assignments, counter bumps and
    lookup-guarded spawns — the idioms the tactics understand, plus junk.
    """
    rng = random.Random(seed)
    b = ProgramBuilder(f"fuzz{seed}")
    b.component("Hub", "hub.py")
    b.component("Cell", "cell.py", key=STR)
    b.message("Ping", STR)
    b.message("Pong", STR)
    b.message("Mk", STR)
    b.init(
        assign("mark", lit(rng.choice(STRINGS))),
        assign("count", lit(0)),
        spawn("H", "Hub"),
    )

    handler_keys = [("Hub", "Ping"), ("Hub", "Mk"), ("Cell", "Pong"),
                    ("Hub", "Pong"), ("Cell", "Ping")]
    rng.shuffle(handler_keys)
    for ctype, msg in handler_keys[: rng.randint(2, 4)]:
        params = ["x"]
        body = _random_body(rng, ctype, params)
        b.handler(ctype, msg, params, body)
    return b


def _random_body(rng: random.Random, ctype: str, params):
    cmds = []
    str_globals = ["mark"]
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(6)
        if kind == 5:
            bind = f"r{len(cmds)}"
            cmds.append(call(bind, "oracle",
                             _expr_pool(rng, params, str_globals)))
            if rng.random() < 0.5:
                cmds.append(ite(eq(name(bind), lit("yes")),
                                send(name("H"), "Pong", name(bind))))
            continue
        if kind == 0:
            cmds.append(assign("mark", _expr_pool(rng, params, str_globals)))
        elif kind == 1:
            cmds.append(assign("count", add(name("count"), lit(1))))
        elif kind == 2:
            target = name("H")
            payload = _expr_pool(rng, params, str_globals)
            msg = rng.choice(["Ping", "Pong", "Mk"])
            stmt = send(target, msg, payload)
            if rng.random() < 0.6:
                guard = rng.choice([
                    eq(name("mark"), lit(rng.choice(STRINGS))),
                    le(name("count"), lit(rng.randrange(3))),
                    eq(name("x"), lit(rng.choice(STRINGS))),
                ])
                stmt = ite(guard, stmt)
            cmds.append(stmt)
        elif kind == 3:
            key = _expr_pool(rng, params, str_globals)
            cmds.append(lookup(
                f"c{len(cmds)}", "Cell",
                eq(cfg(name(f"c{len(cmds)}"), "key"), key),
                send(name(f"c{len(cmds)}"), "Pong",
                     _expr_pool(rng, params, str_globals)),
                spawn(None, "Cell", key),
            ))
        else:
            if ctype == "Cell":
                cmds.append(send(sender(), "Ping",
                                 _expr_pool(rng, params, str_globals)))
            else:
                cmds.append(assign("mark", lit(rng.choice(STRINGS))))
    return block(*cmds)


def generate_properties(seed: int):
    """Random properties over the fixed signature — some true, some false,
    some beyond the automation; the differential check does not care."""
    rng = random.Random(seed * 7919 + 13)
    hub = comp_pat("Hub")
    cell_any = comp_pat("Cell", "_")
    cell_var = comp_pat("Cell", "?k")

    def rand_action():
        return rng.choice([
            lambda: send_pat(hub, msg_pat(rng.choice(
                ["Ping", "Pong", "Mk"]), "?v")),
            lambda: send_pat(cell_any, msg_pat(rng.choice(
                ["Ping", "Pong"]), "?v")),
            lambda: recv_pat(hub, msg_pat(rng.choice(
                ["Ping", "Pong", "Mk"]), "?v")),
            lambda: recv_pat(cell_any, msg_pat(rng.choice(
                ["Ping", "Pong"]), "?v")),
        ])()

    props = []
    for i in range(3):
        primitive = rng.choice(
            ["Enables", "Disables", "Ensures", "ImmAfter", "ImmBefore"]
        )
        a, b = rand_action(), rand_action()
        try:
            props.append(TraceProperty(f"p{i}_{primitive}", primitive, a, b))
        except Exception:
            continue
    props.append(TraceProperty(
        "unique_cells", "Disables",
        spawn_pat(cell_var), spawn_pat(cell_var),
    ))
    return props


# ---------------------------------------------------------------------------
# Fuzzed execution
# ---------------------------------------------------------------------------


class _Bouncy(ScriptedBehavior):
    """A component that sometimes answers, creating feedback traffic."""

    def on_message(self, port, msg, payload):
        if msg == "Ping" and payload and payload[0] == VStr("a"):
            port.emit("Pong", payload[0].s)


def fuzz_traces(info, seeds, events=20):
    messages = list(info.msg_table.values())
    for seed in seeds:
        rng = random.Random(seed)
        world = World(seed=seed, select_policy="random")
        world.register_executable("hub.py", _Bouncy)
        world.register_executable("cell.py", _Bouncy)
        interp = Interpreter(info, world)
        state = interp.run_init()
        for _ in range(events):
            comps = world.components()
            comp = rng.choice(comps)
            msg = rng.choice(messages)
            payload = tuple(
                VStr(rng.choice(STRINGS)) if str(t) == "string"
                else VNum(rng.randrange(4))
                for t in msg.payload
            )
            world.stimulate(comp, msg.name, *payload)
            interp.run(state, max_steps=60)
        interp.run(state, max_steps=300)
        yield state.trace


# ---------------------------------------------------------------------------
# The differential law
# ---------------------------------------------------------------------------


def check_one_seed(seed: int) -> dict:
    info = generate_program(seed).build_validated()
    candidates = []
    for prop in generate_properties(seed):
        try:
            specify(info, prop)
        except Exception:
            continue
        candidates.append(prop)
    spec = specify(info, *candidates)
    report = Verifier(spec).verify_all()
    proved = [r.property for r in report.results if r.proved]

    stats = {"proved": len(proved), "total": len(candidates),
             "violations": []}
    for trace in fuzz_traces(info, seeds=range(seed * 31, seed * 31 + 4)):
        for prop in proved:
            if not prop.holds_on(trace):
                stats["violations"].append((prop.name, str(trace)))
    return stats


@pytest.mark.parametrize("seed", range(25))
def test_proved_properties_hold_on_fuzzed_runs(seed):
    stats = check_one_seed(seed)
    assert not stats["violations"], (
        f"SOUNDNESS BUG: prover proved properties violated by concrete "
        f"runs: {stats['violations'][:1]}"
    )


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=1000, max_value=100_000))
def test_differential_hypothesis_sweep(seed):
    stats = check_one_seed(seed)
    assert not stats["violations"]


def test_generator_produces_provable_properties():
    """Sanity: across the fixed seeds the prover does prove a nontrivial
    fraction of generated properties (the differential test is not
    vacuous)."""
    proved = total = 0
    for seed in range(25):
        stats = check_one_seed(seed)
        proved += stats["proved"]
        total += stats["total"]
    assert total > 0
    assert proved >= total // 6, f"only {proved}/{total} proved"
