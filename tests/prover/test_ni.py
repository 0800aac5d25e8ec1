"""Tests for the non-interference prover: labelings, NIlo, NIhi, base
conditions, and high-only lookup reasoning."""

from repro.lang import STR
from repro.lang.builder import (
    ProgramBuilder, assign, call, cfg, eq, ite, lit, lookup, name, send,
    sender, spawn,
)
from repro.props import NonInterference, comp_pat, specify
from repro.prover import Verifier, build_labeling, prove_noninterference
from repro.symbolic.behabs import generic_step
from repro.symbolic.expr import S_FALSE
from repro.symbolic.simplify import simplify


def verify_ni(builder, ni):
    info = builder.build_validated()
    spec = specify(info, ni)
    return Verifier(spec).prove_property(ni)


def two_level_kernel():
    """High: Ctrl; low: Gui.  Handlers parameterized by the tests."""
    b = ProgramBuilder("two")
    b.component("Ctrl", "ctrl.py")
    b.component("Gui", "gui.py")
    b.message("Cmd", STR)
    b.message("Evt", STR)
    b.message("Out", STR)
    b.init(assign("mode", lit("")), assign("log", lit("")),
           spawn("ctrl", "Ctrl"), spawn("gui", "Gui"))
    return b


HIGH_CTRL = NonInterference(
    "NI", high_patterns=(comp_pat("Ctrl"),),
    high_vars=frozenset({"mode"}),
)


class TestLabeling:
    def test_high_condition_by_type(self, ssh_info):
        step = generic_step(ssh_info)
        ni = NonInterference("NI", high_patterns=(comp_pat("Password"),))
        labeling = build_labeling(step, ni)
        password = step.init.comps[1]
        connection = step.init.comps[0]
        assert simplify(labeling.high_condition(password)) != S_FALSE
        assert labeling.high_condition(connection) == S_FALSE

    def test_parameterized_labeling_types_inferred(self):
        from repro.lang import types as ty

        b = ProgramBuilder("p")
        b.component("Tab", "t.py", domain=STR)
        b.message("M", STR)
        b.init(assign("x", lit(0)))
        info = b.build_validated()
        ni = NonInterference("NI", high_patterns=(comp_pat("Tab", "?d"),),
                             params=("d",))
        labeling = build_labeling(generic_step(info), ni)
        assert dict(labeling.params)["d"].type == ty.STR


class TestNIlo:
    def test_low_send_to_high_rejected(self):
        b = two_level_kernel()
        b.handler("Gui", "Evt", ["e"], send(name("ctrl"), "Cmd", name("e")))
        result = verify_ni(b, HIGH_CTRL)
        assert not result.proved
        assert "NIlo" in result.error and "send" in result.error

    def test_low_write_to_high_var_rejected(self):
        b = two_level_kernel()
        b.handler("Gui", "Evt", ["e"], assign("mode", name("e")))
        result = verify_ni(b, HIGH_CTRL)
        assert not result.proved
        assert "high variable mode" in result.error

    def test_low_writing_low_and_messaging_low_is_fine(self):
        b = two_level_kernel()
        b.handler("Gui", "Evt", ["e"],
                  assign("log", name("e")),
                  send(name("gui"), "Out", name("e")))
        assert verify_ni(b, HIGH_CTRL).proved

    def test_low_reading_high_var_is_fine(self):
        # NIlo constrains writes and outputs, not reads.
        b = two_level_kernel()
        b.handler("Gui", "Evt", ["e"],
                  ite(eq(name("mode"), lit("on")),
                      send(name("gui"), "Out", name("e"))))
        assert verify_ni(b, HIGH_CTRL).proved


class TestNIhi:
    def test_high_branch_on_low_var_rejected(self):
        b = two_level_kernel()
        b.handler("Ctrl", "Cmd", ["c"],
                  ite(eq(name("log"), lit("x")),
                      send(name("ctrl"), "Out", name("c"))))
        result = verify_ni(b, HIGH_CTRL)
        assert not result.proved
        assert "NIhi" in result.error and "low data" in result.error

    def test_high_output_from_low_var_rejected(self):
        b = two_level_kernel()
        b.handler("Ctrl", "Cmd", ["c"],
                  send(name("ctrl"), "Out", name("log")))
        result = verify_ni(b, HIGH_CTRL)
        assert not result.proved
        assert "low data" in result.error

    def test_high_var_update_from_low_rejected(self):
        b = two_level_kernel()
        b.handler("Ctrl", "Cmd", ["c"], assign("mode", name("log")))
        result = verify_ni(b, HIGH_CTRL)
        assert not result.proved

    def test_high_handler_with_shared_data_passes(self):
        b = two_level_kernel()
        b.handler("Ctrl", "Cmd", ["c"],
                  assign("mode", name("c")),
                  ite(eq(name("c"), lit("report")),
                      send(name("ctrl"), "Out", name("mode"))))
        assert verify_ni(b, HIGH_CTRL).proved

    def test_call_results_count_as_shared(self):
        b = two_level_kernel()
        b.handler("Ctrl", "Cmd", ["c"],
                  call("r", "oracle", name("c")),
                  send(name("ctrl"), "Out", name("r")))
        assert verify_ni(b, HIGH_CTRL).proved

    def test_low_output_from_tainted_data_is_fine(self):
        b = two_level_kernel()
        b.handler("Ctrl", "Cmd", ["c"],
                  send(name("gui"), "Out", name("log")))
        assert verify_ni(b, HIGH_CTRL).proved


class TestLookupInHighHandlers:
    def browser_like(self):
        b = ProgramBuilder("b")
        b.component("Tab", "t.py", domain=STR)
        b.component("Store", "s.py", domain=STR)
        b.message("Put", STR)
        b.message("Upd", STR)
        b.init(assign("x", lit(0)))
        return b

    def ni(self):
        return NonInterference(
            "NI",
            high_patterns=(comp_pat("Tab", "?d"), comp_pat("Store", "?d")),
            params=("d",),
        )

    def test_domain_restricted_lookup_passes(self):
        b = self.browser_like()
        b.handler("Tab", "Put", ["v"],
                  lookup("s", "Store",
                         eq(cfg(name("s"), "domain"),
                            cfg(sender(), "domain")),
                         send(name("s"), "Upd", name("v")),
                         spawn(None, "Store", cfg(sender(), "domain"))))
        assert verify_ni(b, self.ni()).proved

    def test_unrestricted_lookup_rejected(self):
        b = self.browser_like()
        b.handler("Tab", "Put", ["v"],
                  lookup("s", "Store", lit(True),
                         send(name("s"), "Upd", name("v"))))
        result = verify_ni(b, self.ni())
        assert not result.proved
        # rejected in the *low* case first: an unrestricted lookup lets a
        # low tab's write reach a possibly-high store
        assert "high component" in result.error or "lookup" in result.error

    def test_cross_domain_send_rejected(self):
        b = self.browser_like()
        # Route to a FIXED domain's store: mail tabs write into the evil
        # store — the classic confinement bug.
        b.handler("Tab", "Put", ["v"],
                  lookup("s", "Store",
                         eq(cfg(name("s"), "domain"), lit("evil")),
                         send(name("s"), "Upd", name("v"))))
        result = verify_ni(b, self.ni())
        assert not result.proved


class TestBaseCondition:
    def test_nondeterministic_high_init_rejected(self):
        b = ProgramBuilder("nd")
        b.component("Ctrl", "c.py")
        b.message("M", STR)
        b.init(call("secret", "gen"), spawn("ctrl", "Ctrl"))
        ni = NonInterference("NI", high_patterns=(comp_pat("Ctrl"),),
                             high_vars=frozenset({"secret"}))
        result = verify_ni(b, ni)
        assert not result.proved
        assert "non-deterministic" in result.error

    def test_deterministic_init_passes(self):
        b = ProgramBuilder("d")
        b.component("Ctrl", "c.py")
        b.message("M", STR)
        b.init(assign("secret", lit("fixed")), spawn("ctrl", "Ctrl"))
        ni = NonInterference("NI", high_patterns=(comp_pat("Ctrl"),),
                             high_vars=frozenset({"secret"}))
        result = verify_ni(b, ni)
        assert result.proved
        assert result.proof.summary()


class TestProofObject:
    def test_verdicts_cover_cases(self):
        b = two_level_kernel()
        b.handler("Ctrl", "Cmd", ["c"], assign("mode", name("c")))
        b.handler("Gui", "Evt", ["e"], assign("log", name("e")))
        info = b.build_validated()
        proof = prove_noninterference(generic_step(info), HIGH_CTRL)
        cases = {v.case for v in proof.verdicts}
        assert cases == {"low", "high"}
        assert "NI" in proof.summary()
