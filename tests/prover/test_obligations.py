"""Tests for obligation schemes, occurrence enumeration, and the
syntactic skip check."""

import pytest

from repro.lang import ValidationError, ast
from repro.lang.builder import lit, name, send, spawn, block, call
from repro.props import TraceProperty, comp_pat, msg_pat, recv_pat, send_pat
from repro.props.patterns import CallPat, PWild, SpawnPat, SelectPat
from repro.prover.obligations import (
    boundary_may_match,
    exchange_statically_silent,
    handler_may_emit,
    occurrences,
    scheme_of,
)
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


class TestStaticChecks:
    def test_handler_may_emit_send(self):
        body = ast.effects_of(block(send(name("P"), "ReqTerm", lit("u"))))
        assert handler_may_emit(
            send_pat(comp_pat("Terminal"), msg_pat("ReqTerm", "_")), body
        )
        assert not handler_may_emit(
            send_pat(comp_pat("Terminal"), msg_pat("Auth", "_")), body
        )

    def test_handler_may_emit_spawn(self):
        body = ast.effects_of(block(spawn("c", "Cell", lit("k"))))
        assert handler_may_emit(SpawnPat(comp_pat("Cell", "_")), body)
        assert not handler_may_emit(SpawnPat(comp_pat("Tab", "_")), body)

    def test_handler_may_emit_call(self):
        body = ast.effects_of(block(call("r", "policy", lit("h"))))
        assert handler_may_emit(CallPat("policy", (PWild(),)), body)
        assert not handler_may_emit(CallPat("other", (PWild(),)), body)

    def test_recv_patterns_never_emitted_by_handlers(self):
        body = ast.effects_of(block(send(name("P"), "Auth", lit("u"))))
        assert not handler_may_emit(
            recv_pat(comp_pat("Password"), msg_pat("Auth", "_")), body
        )

    def test_boundary_matching(self):
        recv = recv_pat(comp_pat("Password"), msg_pat("Auth", "_"))
        assert boundary_may_match(recv, "Password", "Auth")
        assert not boundary_may_match(recv, "Password", "ReqAuth")
        assert not boundary_may_match(recv, "Terminal", "Auth")
        select = SelectPat(comp_pat("Password"))
        assert boundary_may_match(select, "Password", "Anything")

    def test_exchange_statically_silent(self, ssh_info):
        step = generic_step(ssh_info)
        trigger = send_pat(comp_pat("Terminal"), msg_pat("ReqTerm", "?u"))
        assert not exchange_statically_silent(
            trigger, step.exchange("Connection", "ReqTerm")
        )
        assert exchange_statically_silent(
            trigger, step.exchange("Connection", "ReqAuth")
        )
        # Nop exchanges are silent unless the boundary matches.
        nop = step.exchange("Terminal", "Auth")
        assert nop.handler is None
        assert exchange_statically_silent(trigger, nop)
        recv_trigger = recv_pat(comp_pat("Terminal"), msg_pat("Auth", "?u"))
        assert not exchange_statically_silent(recv_trigger, nop)
