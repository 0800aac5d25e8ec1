"""Tests for the behavioral abstraction: init summary, generic step, and
the trace-acceptance checker (the executable "sats" arrow)."""

import random

import pytest

from repro.harness.soundness import fuzz_session, random_value
from repro.lang import STR
from repro.lang import types as ty
from repro.lang.builder import (
    ProgramBuilder, call, lit, spawn,
)
from repro.lang.values import VBool, VNum, VStr
from repro.runtime import Interpreter, ScriptedBehavior, Trace, World
from repro.runtime.actions import ACall, ARecv, ASelect, ASend
from repro.runtime.replay import AbstractionChecker, RejectedTrace
from repro.symbolic.behabs import generic_step, init_summary
from repro.symbolic.expr import FreshNames, SComp, SConst, STuple, SVar
from repro.symbolic.templates import TCall, TSpawn
from repro.systems import BENCHMARKS
from tests.conftest import build_ssh_program


class TestInitSummary:
    def test_concrete_values(self, ssh_info):
        summary = init_summary(ssh_info, FreshNames())
        env = summary.env_dict()
        assert env["authorized"] == STuple(
            (SConst(VStr("")), SConst(VBool(False)))
        )
        assert isinstance(env["C"], SComp)
        assert env["C"].origin == "init"

    def test_init_actions_are_spawn_templates(self, ssh_info):
        summary = init_summary(ssh_info, FreshNames())
        assert len(summary.actions) == 3
        assert all(isinstance(t, TSpawn) for t in summary.actions)
        assert summary.comps == tuple(t.comp for t in summary.actions)

    def test_init_calls_become_symbolic(self):
        b = ProgramBuilder("c")
        b.component("A", "a.py")
        b.message("M", STR)
        b.init(spawn("X", "A"), call("tok", "gen", lit("s")))
        summary = init_summary(b.build_validated(), FreshNames())
        env = summary.env_dict()
        assert isinstance(env["tok"], SVar)
        assert env["tok"].origin == "init_call"
        assert isinstance(summary.actions[-1], TCall)


class TestGenericStep:
    def test_exchanges_cover_all_pairs(self, ssh_info):
        step = generic_step(ssh_info)
        assert len(step.exchanges) == 3 * 4
        assert {ex.key for ex in step.exchanges} == set(
            ssh_info.program.exchange_keys()
        )

    def test_comp_globals_pinned_to_init(self, ssh_info):
        step = generic_step(ssh_info)
        pre = step.pre_env_dict()
        assert pre["P"].origin == "init"
        assert isinstance(pre["authorized"], SVar)
        assert pre["authorized"].origin == "state"

    def test_deterministic(self, ssh_info):
        assert generic_step(ssh_info) == generic_step(ssh_info)

    def test_exchange_lookup(self, ssh_info):
        step = generic_step(ssh_info)
        assert step.exchange("Password", "Auth").handler is not None
        with pytest.raises(KeyError):
            step.exchange("Password", "Nope")


class TestAbstractionChecker:
    def drive(self, seed=0):
        info = build_ssh_program().build_validated()
        world = World(seed=seed, select_policy="random")

        def password():
            def check(port, payload):
                if payload[1].s == "pw":
                    port.emit("Auth", payload[0].s)
            return ScriptedBehavior({"ReqAuth": check})

        world.register_executable("user-auth.c", password)
        interp = Interpreter(info, world)
        state = interp.run_init()
        conn = state.comps[0]
        world.stimulate(conn, "ReqAuth", "u", "pw")
        world.stimulate(conn, "ReqTerm", "u")
        interp.run(state)
        return info, state

    def test_accepts_real_traces(self):
        info, state = self.drive()
        assert AbstractionChecker(info).accepts(state.trace)

    def test_rejects_reordered_trace(self):
        info, state = self.drive()
        actions = list(state.trace.chronological())
        actions[0], actions[1] = actions[1], actions[0]
        assert not AbstractionChecker(info).accepts(Trace(actions))

    def test_rejects_forged_send(self):
        info, state = self.drive()
        actions = list(state.trace.chronological())
        terminal = state.comps[2]
        forged = actions + [
            ASelect(state.comps[0]),
            ARecv(state.comps[0], "ReqTerm", (VStr("intruder"),)),
            ASend(terminal, "ReqTerm", (VStr("intruder"),)),
        ]
        checker = AbstractionChecker(info)
        with pytest.raises(RejectedTrace):
            checker.check(Trace(forged))

    def test_rejects_dropped_mandatory_send(self):
        info, state = self.drive()
        actions = [
            a for a in state.trace.chronological()
            if not (isinstance(a, ASend) and a.msg == "ReqAuth")
        ]
        assert not AbstractionChecker(info).accepts(Trace(actions))

    def test_rejects_truncated_exchange(self):
        info, state = self.drive()
        actions = list(state.trace.chronological())
        # chop in the middle of an exchange (after a Select)
        cut = next(
            i for i, a in enumerate(actions) if isinstance(a, ASelect)
        )
        assert not AbstractionChecker(info).accepts(Trace(actions[:cut + 1]))

    def test_rejects_select_of_unknown_component(self):
        info, state = self.drive()
        from repro.lang.values import ComponentInstance

        ghost = ComponentInstance(99, "Connection", (), 77)
        actions = list(state.trace.chronological()) + [ASelect(ghost)]
        assert not AbstractionChecker(info).accepts(Trace(actions))

    def test_empty_trace_rejected_when_init_spawns(self):
        info, _ = self.drive()
        assert not AbstractionChecker(info).accepts(Trace())

    def test_rejects_a_call_result_that_is_not_a_string(self):
        b = ProgramBuilder("c")
        b.component("A", "a.py")
        b.message("M", STR)
        b.init(spawn("X", "A"), call("tok", "gen", lit("s")))
        info = b.build_validated()
        actions = list(Interpreter(info, World()).run_init()
                       .trace.chronological())
        assert AbstractionChecker(info).accepts(Trace(actions))
        made = actions[-1]
        actions[-1] = ACall(made.func, made.args, VNum(5))
        with pytest.raises(RejectedTrace, match="Call result of type num"):
            AbstractionChecker(info).check(Trace(actions))

    @pytest.mark.parametrize("kernel", sorted(BENCHMARKS))
    def test_rejects_every_ill_shaped_slot_of_a_handled_message(
            self, kernel):
        """One forged exchange per handled (component, message, slot) of a
        fuzzed run: a wrong-typed value, and -1 in a ``num`` slot."""
        session = fuzz_session(kernel, seed=0, events=5)
        info = session.spec.info
        checker = AbstractionChecker(info)
        actions = list(session.state.trace.chronological())
        assert checker.accepts(Trace(actions))
        rng = random.Random(0)
        forged = 0
        for handler in info.program.handlers:
            comp = next((c for c in session.state.comps
                         if c.ctype == handler.ctype), None)
            if comp is None:
                continue
            types = info.msg_table[handler.msg].payload
            for slot, t in enumerate(types):
                if isinstance(t, ty.NumType):
                    bad = {VStr("x"): f"slot {slot} has type str",
                           VNum(-1): f"slot {slot} holds a negative number"}
                else:
                    bad = {VNum(1): f"slot {slot} has type num"}
                for value, reason in bad.items():
                    payload = [random_value(u, rng) for u in types]
                    payload[slot] = value
                    exchange = [ASelect(comp),
                                ARecv(comp, handler.msg, tuple(payload))]
                    with pytest.raises(RejectedTrace,
                                       match=f"malformed message.*{reason}"):
                        checker.check(Trace(actions + exchange))
                    forged += 1
        assert forged
