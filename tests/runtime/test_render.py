"""Tests for the text sequence-diagram renderer."""

from repro.lang.values import ComponentInstance, vstr
from repro.runtime.actions import ACall, ARecv, ASelect, ASend, ASpawn
from repro.runtime.render import render_sequence
from repro.runtime.trace import Trace

CONN = ComponentInstance(0, "Connection", (), 3)
PASS = ComponentInstance(1, "Password", (), 4)
TAB = ComponentInstance(2, "Tab", (vstr("mail"),), 5)


def sample_trace():
    return Trace([
        ASpawn(CONN),
        ASpawn(PASS),
        ASelect(CONN),
        ARecv(CONN, "ReqAuth", (vstr("u"), vstr("p"))),
        ASend(PASS, "CheckAuth", (vstr("u"),)),
        ACall("policy", (vstr("u"),), vstr("ok")),
    ])


class TestRenderSequence:
    def test_header_names_all_participants(self):
        text = render_sequence(sample_trace())
        assert "KERNEL" in text
        assert "Connection#0" in text
        assert "Password#1" in text

    def test_config_shown_in_lane_label(self):
        text = render_sequence(Trace([ASpawn(TAB)]))
        assert "Tab#2('mail')" in text

    def test_arrows_have_directions(self):
        text = render_sequence(sample_trace())
        lines = text.splitlines()
        recv_line = next(line for line in lines if "ReqAuth" in line)
        send_line = next(line for line in lines if "CheckAuth" in line)
        assert "<--" in recv_line    # component -> kernel
        assert "-->" in send_line or "->" in send_line

    def test_selects_skippable(self):
        with_selects = render_sequence(sample_trace(), skip_selects=False)
        without = render_sequence(sample_trace())
        assert "(selected)" in with_selects
        assert "(selected)" not in without

    def test_calls_rendered_as_notes(self):
        text = render_sequence(sample_trace())
        assert "policy" in text

    def test_truncation(self):
        actions = [ASend(PASS, "M", ()) for _ in range(20)]
        # Messages named M with empty payload need a message declaration
        # nowhere — the renderer is declaration-agnostic.
        text = render_sequence(Trace(actions), max_actions=5)
        assert "truncated" in text
        assert text.count("M()") == 5

    def test_empty_trace(self):
        text = render_sequence(Trace())
        assert text.strip() == "KERNEL"

    def test_one_row_per_rendered_action(self):
        trace = sample_trace()
        text = render_sequence(trace, skip_selects=True)
        # header + 5 non-select actions
        assert len(text.splitlines()) == 6
