"""Unit tests for the interpreter: Init, dispatch, commands, effects."""

import pytest

from repro.lang import STR, WorldError
from repro.lang.builder import (
    ProgramBuilder, assign, call, cfg, eq, ite, lit, name, proj,
    send, sender, spawn,
)
from repro.lang.values import VBool, VComp, VNum, VStr
from repro.runtime import (
    ACall, ARecv, ASend, ASpawn,
    Interpreter, RecordingBehavior, ScriptedBehavior, World,
)
from tests.conftest import build_registry_program, build_ssh_program


def setup_ssh():
    info = build_ssh_program().build_validated()
    world = World(seed=0)

    def password():
        def check(port, payload):
            if payload[1].s == "sesame":
                port.emit("Auth", payload[0].s)
        return ScriptedBehavior({"ReqAuth": check})

    world.register_executable("user-auth.c", password)
    world.register_executable("client.py", RecordingBehavior)
    world.register_executable("pty-alloc.c", RecordingBehavior)
    interp = Interpreter(info, world)
    return info, world, interp


class TestInit:
    def test_init_spawns_and_assigns(self):
        info, world, interp = setup_ssh()
        state = interp.run_init()
        assert [c.ctype for c in state.comps] == [
            "Connection", "Password", "Terminal",
        ]
        assert state.env["authorized"].elems == (VStr(""), VBool(False))
        assert isinstance(state.env["C"], VComp)

    def test_init_trace_records_spawns(self):
        _, _, interp = setup_ssh()
        state = interp.run_init()
        spawns = state.trace.filter(lambda a: isinstance(a, ASpawn))
        assert len(spawns) == 3

    def test_init_call_records_action_and_binds(self):
        b = ProgramBuilder("withcall")
        b.component("A", "a.py")
        b.message("M", STR)
        b.init(spawn("X", "A"), call("nonce", "gen", lit("seed")))
        info = b.build_validated()
        world = World(seed=1)
        world.register_call("gen", lambda args, rng: f"nonce-{args[0]}")
        state = Interpreter(info, world).run_init()
        assert state.env["nonce"] == VStr("nonce-seed")
        calls = state.trace.filter(lambda a: isinstance(a, ACall))
        assert len(calls) == 1 and calls[0].func == "gen"


class TestStep:
    def test_step_returns_false_when_idle(self):
        _, _, interp = setup_ssh()
        state = interp.run_init()
        assert interp.step(state) is False

    def test_exchange_records_select_recv(self):
        _, world, interp = setup_ssh()
        state = interp.run_init()
        world.stimulate(state.comps[0], "ReqAuth", "u", "p")
        assert interp.step(state) is True
        kinds = [type(a).__name__ for a in state.trace.chronological()[-3:]]
        assert kinds == ["ASelect", "ARecv", "ASend"]

    def test_unhandled_message_recorded_but_ignored(self):
        _, world, interp = setup_ssh()
        state = interp.run_init()
        # Terminal never sends ReqAuth in the protocol; the kernel has no
        # handler for it and must simply move on.
        world.stimulate(state.comps[2], "ReqAuth", "u", "p")
        env_before = dict(state.env)
        assert interp.step(state) is True
        assert state.env == env_before
        assert isinstance(state.trace.chronological()[-1], ARecv)

    def test_malformed_message_rejected(self):
        _, world, interp = setup_ssh()
        state = interp.run_init()
        world.stimulate(state.comps[0], "ReqAuth", "only-one-arg")
        with pytest.raises(WorldError, match="payload"):
            interp.step(state)

    def test_undeclared_message_rejected(self):
        _, world, interp = setup_ssh()
        state = interp.run_init()
        world.stimulate(state.comps[0], "Bogus")
        with pytest.raises(WorldError, match="undeclared"):
            interp.step(state)

    def test_negative_number_payload_rejected(self):
        from repro.lang import NUM

        b = ProgramBuilder("nat")
        b.component("A", "a.py")
        b.message("N", NUM)
        b.init(spawn("X", "A"))
        info = b.build_validated()
        world = World()
        state = Interpreter(info, world).run_init()
        from repro.lang.values import VNum

        world.stimulate(state.comps[0], "N", VNum(-4))
        with pytest.raises(WorldError, match="negative"):
            Interpreter(info, world).step(state)


class TestHandlers:
    def test_assignment_updates_global(self):
        _, world, interp = setup_ssh()
        state = interp.run_init()
        world.stimulate(state.comps[1], "Auth", "alice")
        interp.run(state)
        assert state.env["authorized"].elems == (VStr("alice"),
                                                 VBool(True))

    def test_branch_guards_send(self):
        _, world, interp = setup_ssh()
        state = interp.run_init()
        # Not authorized: ReqTerm produces no Send.
        world.stimulate(state.comps[0], "ReqTerm", "alice")
        interp.run(state)
        sends = state.trace.filter(
            lambda a: isinstance(a, ASend) and a.msg == "ReqTerm"
        )
        assert sends == ()
        # Authorize, then the same request goes through.
        world.stimulate(state.comps[1], "Auth", "alice")
        world.stimulate(state.comps[0], "ReqTerm", "alice")
        interp.run(state)
        sends = state.trace.filter(
            lambda a: isinstance(a, ASend) and a.msg == "ReqTerm"
        )
        assert len(sends) == 1

    def test_full_auth_round_trip(self):
        _, world, interp = setup_ssh()
        state = interp.run_init()
        conn = state.comps[0]
        world.stimulate(conn, "ReqAuth", "alice", "sesame")
        interp.run(state)
        assert state.env["authorized"].elems[0] == VStr("alice")


class TestLookup:
    def test_lookup_found_vs_missing(self):
        info = build_registry_program().build_validated()
        world = World()
        world.register_executable("cell.py", RecordingBehavior)
        interp = Interpreter(info, world)
        state = interp.run_init()
        front = state.comps[0]

        world.stimulate(front, "Ensure", "k1")
        interp.run(state)
        cells = [c for c in state.comps if c.ctype == "Cell"]
        assert len(cells) == 1  # missing branch spawned one

        world.stimulate(front, "Ensure", "k1")
        interp.run(state)
        cells = [c for c in state.comps if c.ctype == "Cell"]
        assert len(cells) == 1  # found branch reused it

        world.stimulate(front, "Ensure", "k2")
        interp.run(state)
        cells = [c for c in state.comps if c.ctype == "Cell"]
        assert len(cells) == 2

    def test_lookup_prefers_spawn_order(self):
        info = build_registry_program().build_validated()
        world = World()
        world.register_executable("cell.py", RecordingBehavior)
        interp = Interpreter(info, world)
        state = interp.run_init()
        front = state.comps[0]
        for _ in range(2):
            world.stimulate(front, "Ensure", "same")
            interp.run(state)
        cell = next(c for c in state.comps if c.ctype == "Cell")
        pings = world.behavior_of(cell).received
        assert len(pings) == 2  # both Pings reached the first (only) cell


class TestExpressions:
    def test_projection_and_tuples(self):
        b = ProgramBuilder("proj")
        b.component("A", "a.py")
        b.message("M", STR)
        b.init(spawn("X", "A"), assign("pair", lit(("v", True))),
               assign("out", lit("")))
        b.handler("A", "M", ["x"],
                  ite(eq(proj(name("pair"), 1), lit(True)),
                      assign("out", proj(name("pair"), 0))))
        info = b.build_validated()
        world = World()
        interp = Interpreter(info, world)
        state = interp.run_init()
        world.stimulate(state.comps[0], "M", "go")
        interp.run(state)
        assert state.env["out"] == VStr("v")

    def test_sender_config_access(self):
        b = ProgramBuilder("cfg")
        b.component("Tab", "t.py", domain=STR)
        b.message("Echo", STR)
        b.message("Out", STR)
        b.init(spawn("T0", "Tab", lit("mail")), assign("seen", lit("")))
        b.handler("Tab", "Echo", ["x"],
                  assign("seen", cfg(sender(), "domain")))
        info = b.build_validated()
        world = World()
        interp = Interpreter(info, world)
        state = interp.run_init()
        world.stimulate(state.comps[0], "Echo", "hi")
        interp.run(state)
        assert state.env["seen"] == VStr("mail")

    def test_short_circuit_semantics(self):
        # (false && anything) and (true || anything) evaluate fully even
        # symbolically; concretely they must yield the boolean algebra.
        b = ProgramBuilder("bools")
        b.component("A", "a.py")
        b.message("M", STR)
        b.init(spawn("X", "A"), assign("r", lit(False)))
        from repro.lang.builder import band, bnot, bor

        b.handler("A", "M", ["x"],
                  assign("r", bor(band(eq(name("x"), lit("a")),
                                       lit(True)),
                                  bnot(eq(name("x"), name("x"))))))
        info = b.build_validated()
        world = World()
        interp = Interpreter(info, world)
        state = interp.run_init()
        world.stimulate(state.comps[0], "M", "a")
        interp.run(state)
        assert state.env["r"] == VBool(True)


class TestRunLoop:
    def test_run_respects_max_steps(self):
        b = ProgramBuilder("pingpong")
        b.component("A", "a.py")
        b.message("Ping", STR)
        b.init(spawn("X", "A"))
        b.handler("A", "Ping", ["x"], send(name("X"), "Ping", name("x")))
        from repro.runtime import EchoBehavior

        info = b.build_validated()
        world = World()
        world.register_executable("a.py", EchoBehavior)
        interp = Interpreter(info, world)
        state = interp.run_init()
        world.stimulate(state.comps[0], "Ping", "go")
        steps = interp.run(state, max_steps=25)
        assert steps == 25  # the echo loop never quiesces on its own
