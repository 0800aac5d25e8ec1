"""Tests for obligation schemes, occurrence enumeration, and the
syntactic skip check."""

import pytest

from repro.lang import STR, ValidationError
from repro.lang.builder import (
    ProgramBuilder, block, call, lit, name, send, spawn,
)
from repro.props import TraceProperty, comp_pat, msg_pat, recv_pat, send_pat
from repro.props.patterns import CallPat, PWild, SpawnPat, SelectPat
from repro.prover.obligations import live_exchanges, occurrences, scheme_of
from repro.symbolic.behabs import generic_step


def prop(primitive):
    return TraceProperty(
        "p", primitive,
        recv_pat(comp_pat("Password"), msg_pat("Auth", "?u")),
        send_pat(comp_pat("Terminal"), msg_pat("ReqTerm", "?u")),
    )


class TestSchemes:
    def test_trigger_required_assignment(self):
        assert scheme_of(prop("Enables")).mode == "before"
        assert scheme_of(prop("Enables")).trigger == prop("Enables").b
        assert scheme_of(prop("Ensures")).mode == "after"
        assert scheme_of(prop("Ensures")).trigger == prop("Ensures").a
        assert scheme_of(prop("ImmBefore")).mode == "imm_before"
        assert scheme_of(prop("ImmBefore")).trigger == prop("ImmBefore").b
        assert scheme_of(prop("ImmAfter")).mode == "imm_after"
        assert scheme_of(prop("ImmAfter")).trigger == prop("ImmAfter").a
        assert scheme_of(prop("Disables")).mode == "never_before"

    def test_unknown_primitive(self):
        bad = TraceProperty.__new__(TraceProperty)
        object.__setattr__(bad, "primitive", "Sometime")
        object.__setattr__(bad, "a", prop("Enables").a)
        object.__setattr__(bad, "b", prop("Enables").b)
        with pytest.raises(ValidationError):
            scheme_of(bad)


class TestOccurrences:
    def test_enumeration_over_paths(self, ssh_info):
        step = generic_step(ssh_info)
        ex = step.exchange("Connection", "ReqTerm")
        trigger = send_pat(comp_pat("Terminal"), msg_pat("ReqTerm", "?u"))
        per_path = [occurrences(trigger, p.actions) for p in ex.paths]
        # exactly one path sends ReqTerm, with one occurrence at index 2
        counted = [len(o) for o in per_path]
        assert sorted(counted) == [0, 0, 1]
        occ = next(o for o in per_path if o)[0]
        assert occ.index == 2

    def test_boundary_occurrences(self, ssh_info):
        step = generic_step(ssh_info)
        ex = step.exchange("Password", "Auth")
        trigger = recv_pat(comp_pat("Password"), msg_pat("Auth", "?u"))
        occs = occurrences(trigger, ex.paths[0].actions)
        assert [o.index for o in occs] == [1]


def one_handler(body):
    """An unvalidated program whose one handler, ``Hub => Go``, runs
    ``body``; it has the exchanges (``Hub``|``Cell``, ``Go``|``Auth``)."""
    b = ProgramBuilder("k")
    b.component("Hub", "hub.py")
    b.component("Cell", "cell.py")
    b.message("Go", STR)
    b.message("Auth", STR)
    b.handler("Hub", "Go", ["x"], body)
    return b.build()


class TestStaticChecks:
    """The syntactic skip's lookup: :func:`live_exchanges` names the
    exchanges that can produce what a pattern matches."""

    GO = frozenset({("Hub", "Go")})

    def test_handler_may_emit_send(self):
        program = one_handler(block(send(name("P"), "ReqTerm", lit("u"))))
        assert live_exchanges(
            program, send_pat(comp_pat("Terminal"), msg_pat("ReqTerm", "_"))
        ) == self.GO
        assert not live_exchanges(
            program, send_pat(comp_pat("Terminal"), msg_pat("Auth", "_"))
        )

    def test_handler_may_emit_spawn(self):
        program = one_handler(block(spawn("c", "Cell", lit("k"))))
        assert live_exchanges(program, SpawnPat(comp_pat("Cell", "_"))) \
            == self.GO
        assert not live_exchanges(program, SpawnPat(comp_pat("Tab", "_")))

    def test_handler_may_emit_call(self):
        program = one_handler(block(call("r", "policy", lit("h"))))
        assert live_exchanges(program, CallPat("policy", (PWild(),))) \
            == self.GO
        assert not live_exchanges(program, CallPat("other", (PWild(),)))

    def test_recv_patterns_never_emitted_by_handlers(self):
        # The handler sends Auth; a Recv of Auth is only ever produced
        # by the boundary of the (Cell, Auth) exchange.
        program = one_handler(block(send(name("P"), "Auth", lit("u"))))
        assert live_exchanges(
            program, recv_pat(comp_pat("Cell"), msg_pat("Auth", "_"))
        ) == {("Cell", "Auth")}
        assert not live_exchanges(
            program, recv_pat(comp_pat("Password"), msg_pat("Auth", "_"))
        )

    def test_boundary_matching(self, ssh_info):
        program = ssh_info.program
        recv = recv_pat(comp_pat("Password"), msg_pat("Auth", "_"))
        live = live_exchanges(program, recv)
        assert ("Password", "Auth") in live
        assert ("Password", "ReqAuth") not in live
        assert ("Terminal", "Auth") not in live
        select = SelectPat(comp_pat("Password"))
        assert live_exchanges(program, select) == {
            ("Password", m.name) for m in program.messages
        }

    def test_exchange_statically_silent(self, ssh_info):
        step = generic_step(ssh_info)
        program = ssh_info.program
        trigger = send_pat(comp_pat("Terminal"), msg_pat("ReqTerm", "?u"))
        live = live_exchanges(program, trigger)
        assert step.exchange("Connection", "ReqTerm").key in live
        assert step.exchange("Connection", "ReqAuth").key not in live
        # Nop exchanges are silent unless the boundary matches.
        nop = step.exchange("Terminal", "Auth")
        assert nop.handler is None
        assert nop.key not in live
        recv_trigger = recv_pat(comp_pat("Terminal"), msg_pat("Auth", "?u"))
        assert nop.key in live_exchanges(program, recv_trigger)

    def test_index_maps_each_exchange_to_its_handler_and_step_position(
            self, ssh_info):
        program = ssh_info.program
        step = generic_step(ssh_info)
        index = program.effect_index
        assert list(index.positions) == list(program.exchange_keys())
        for ex in step.exchanges:
            assert step.exchanges[index.positions[ex.key]] is ex
            assert step.exchange(*ex.key) is ex
            assert program.handler_for(*ex.key) is ex.handler
        assert {h.key: h for h in program.handlers} == index.handlers
        with pytest.raises(KeyError):
            step.exchange("Password", "Nope")
