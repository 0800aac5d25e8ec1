"""End-to-end tests of the trace-property tactics: every primitive, every
justification family, positive and negative cases."""

from repro.lang import NUM, STR
from repro.lang.builder import (
    ProgramBuilder, add, assign, block, call, cfg, eq, ite, lit,
    lookup, name, send, sender, spawn,
)
from repro.props import (
    TraceProperty, comp_pat, msg_pat, recv_pat, send_pat, spawn_pat,
    specify,
)
from repro.props.patterns import CallPat, PLit, PVar
from repro.prover import Verifier
from repro.prover.derivation import (
    EarlierWitness,
    FoundBridge,
    HistoryInvariant,
    ImmWitness,
    LaterWitness,
    MissingBridge,
    NoPriorMatch,
    PathProof,
    SenderChain,
    SkippedExchange,
    BoundedBridge,
)
from tests.conftest import build_ssh_program


def verify_one(info, prop):
    return Verifier(specify(info, prop)).prove_property(prop)


def justifications_of(proof, kind):
    """All justifications of the given class in a derivation."""
    found = []
    for sp in proof.steps:
        if isinstance(sp, PathProof):
            for op in sp.occurrence_proofs:
                j = op.justification
                if isinstance(j, kind):
                    found.append(j)
                elif isinstance(j, NoPriorMatch) and isinstance(
                        j.history, kind):
                    found.append(j.history)
    return found


class TestEnables:
    def test_proved_via_history_invariant(self, ssh_info):
        prop = TraceProperty(
            "AuthBeforeTerm", "Enables",
            recv_pat(comp_pat("Password"), msg_pat("Auth", "?u")),
            send_pat(comp_pat("Terminal"), msg_pat("ReqTerm", "?u")),
        )
        result = verify_one(ssh_info, prop)
        assert result.proved and result.checked
        assert justifications_of(result.proof, HistoryInvariant)

    def test_proved_via_local_witness(self, ssh_info):
        prop = TraceProperty(
            "ForwardedFromRequest", "Enables",
            recv_pat(comp_pat("Connection"), msg_pat("ReqAuth", "?u", "?p")),
            send_pat(comp_pat("Password"), msg_pat("ReqAuth", "?u", "?p")),
        )
        result = verify_one(ssh_info, prop)
        assert result.proved
        assert justifications_of(result.proof, EarlierWitness)

    def test_false_property_fails_with_diagnostic(self, ssh_info):
        prop = TraceProperty(
            "Backwards", "Enables",
            send_pat(comp_pat("Terminal"), msg_pat("ReqTerm", "?u")),
            recv_pat(comp_pat("Password"), msg_pat("Auth", "?u")),
        )
        result = verify_one(ssh_info, prop)
        assert not result.proved
        assert "Password=>Auth" in result.error

    def test_guard_must_actually_protect(self):
        # Like the SSH kernel but the ReqTerm handler forgets the check:
        b = build_ssh_program()
        broken = b.build()
        handlers = tuple(
            h if h.key != ("Connection", "ReqTerm") else
            type(h)(h.ctype, h.msg, h.params,
                    send(name("T"), "ReqTerm", name("user")))
            for h in broken.handlers
        )
        from dataclasses import replace

        from repro.lang.validate import validate

        info = validate(replace(broken, handlers=handlers))
        prop = TraceProperty(
            "AuthBeforeTerm", "Enables",
            recv_pat(comp_pat("Password"), msg_pat("Auth", "?u")),
            send_pat(comp_pat("Terminal"), msg_pat("ReqTerm", "?u")),
        )
        assert not verify_one(info, prop).proved


class TestImmediates:
    def build_car(self):
        b = ProgramBuilder("c")
        b.component("E", "e.c")
        b.component("A", "a.c")
        b.message("Crash")
        b.message("Deploy")
        b.init(spawn("e0", "E"), spawn("a0", "A"))
        b.handler("E", "Crash", [], send(name("a0"), "Deploy"))
        return b.build_validated()

    def test_immafter_proved(self):
        prop = TraceProperty(
            "DeployImmediately", "ImmAfter",
            recv_pat(comp_pat("E"), msg_pat("Crash")),
            send_pat(comp_pat("A"), msg_pat("Deploy")),
        )
        result = verify_one(self.build_car(), prop)
        assert result.proved
        assert justifications_of(result.proof, ImmWitness)

    def test_immbefore_proved(self):
        prop = TraceProperty(
            "DeployOnlyRightAfterCrash", "ImmBefore",
            recv_pat(comp_pat("E"), msg_pat("Crash")),
            send_pat(comp_pat("A"), msg_pat("Deploy")),
        )
        assert verify_one(self.build_car(), prop).proved

    def test_immafter_fails_with_interleaved_action(self):
        b = ProgramBuilder("c2")
        b.component("E", "e.c")
        b.component("A", "a.c")
        b.message("Crash")
        b.message("Deploy")
        b.message("Log", STR)
        b.init(spawn("e0", "E"), spawn("a0", "A"))
        b.handler("E", "Crash", [],
                  send(name("a0"), "Log", lit("crash")),
                  send(name("a0"), "Deploy"))
        prop = TraceProperty(
            "DeployImmediately", "ImmAfter",
            recv_pat(comp_pat("E"), msg_pat("Crash")),
            send_pat(comp_pat("A"), msg_pat("Deploy")),
        )
        result = verify_one(b.build_validated(), prop)
        assert not result.proved
        assert "immediately" in result.error

    def test_immbefore_fails_at_exchange_boundary(self):
        # The required action would have to be the last action of the
        # previous exchange — unknowable, so the proof must fail.
        b = ProgramBuilder("c3")
        b.component("E", "e.c")
        b.message("Crash")
        b.init(spawn("e0", "E"))
        prop = TraceProperty(
            "SelectBeforeCrash", "ImmBefore",
            send_pat(comp_pat("E"), msg_pat("Crash")),
            recv_pat(comp_pat("E"), msg_pat("Crash")),
        )
        result = verify_one(b.build_validated(), prop)
        assert not result.proved


class TestEnsures:
    def test_later_witness(self, ssh_info):
        prop = TraceProperty(
            "RequestForwarded", "Ensures",
            recv_pat(comp_pat("Connection"), msg_pat("ReqAuth", "?u", "?p")),
            send_pat(comp_pat("Password"), msg_pat("ReqAuth", "?u", "?p")),
        )
        result = verify_one(ssh_info, prop)
        assert result.proved
        assert justifications_of(result.proof, LaterWitness)

    def test_ensures_fails_when_conditional(self, ssh_info):
        # ReqTerm only conditionally produces the send; Ensures must fail.
        prop = TraceProperty(
            "TermAlwaysGranted", "Ensures",
            recv_pat(comp_pat("Connection"), msg_pat("ReqTerm", "?u")),
            send_pat(comp_pat("Terminal"), msg_pat("ReqTerm", "?u")),
        )
        assert not verify_one(ssh_info, prop).proved


class TestDisables:
    def make_latch(self):
        b = ProgramBuilder("latch")
        b.component("E", "e.c")
        b.component("D", "d.c")
        b.message("Crash")
        b.message("Lock")
        b.message("DoLock")
        b.init(assign("crashed", lit(False)), spawn("e0", "E"),
               spawn("d0", "D"))
        b.handler("E", "Crash", [], assign("crashed", lit(True)))
        b.handler("D", "Lock", [],
                  ite(eq(name("crashed"), False),
                      send(name("d0"), "DoLock")))
        return b.build_validated()

    def test_absence_invariant(self):
        prop = TraceProperty(
            "NoLockAfterCrash", "Disables",
            recv_pat(comp_pat("E"), msg_pat("Crash")),
            send_pat(comp_pat("D"), msg_pat("DoLock")),
        )
        result = verify_one(self.make_latch(), prop)
        assert result.proved
        from repro.prover.derivation import AbsenceInvariant

        assert justifications_of(result.proof, AbsenceInvariant)

    def test_fails_without_latch(self):
        b = ProgramBuilder("nolatch")
        b.component("E", "e.c")
        b.component("D", "d.c")
        b.message("Crash")
        b.message("Lock")
        b.message("DoLock")
        b.init(spawn("e0", "E"), spawn("d0", "D"))
        b.handler("D", "Lock", [], send(name("d0"), "DoLock"))
        prop = TraceProperty(
            "NoLockAfterCrash", "Disables",
            recv_pat(comp_pat("E"), msg_pat("Crash")),
            send_pat(comp_pat("D"), msg_pat("DoLock")),
        )
        assert not verify_one(b.build_validated(), prop).proved

    def test_missing_bridge(self, registry_info):
        prop = TraceProperty(
            "UniqueCells", "Disables",
            spawn_pat(comp_pat("Cell", "?k")),
            spawn_pat(comp_pat("Cell", "?k")),
        )
        result = verify_one(registry_info, prop)
        assert result.proved
        assert justifications_of(result.proof, MissingBridge)

    def test_unguarded_spawn_not_unique(self):
        b = ProgramBuilder("dup")
        b.component("F", "f.py")
        b.component("Cell", "c.py", key=STR)
        b.message("Mk", STR)
        b.init(spawn("f0", "F"))
        b.handler("F", "Mk", ["k"], spawn(None, "Cell", name("k")))
        prop = TraceProperty(
            "UniqueCells", "Disables",
            spawn_pat(comp_pat("Cell", "?k")),
            spawn_pat(comp_pat("Cell", "?k")),
        )
        assert not verify_one(b.build_validated(), prop).proved


class TestBoundedBridge:
    def make_counter_spawner(self):
        b = ProgramBuilder("ids")
        b.component("UI", "ui.py")
        b.component("Tab", "tab.py", domain=STR, ident=NUM)
        b.message("New", STR)
        b.init(assign("nextid", lit(0)), spawn("u0", "UI"))
        b.handler("UI", "New", ["d"],
                  spawn(None, "Tab", name("d"), name("nextid")),
                  assign("nextid", add(name("nextid"), lit(1))))
        return b.build_validated()

    def test_unique_ids_via_bounded_bridge(self):
        prop = TraceProperty(
            "UniqueIds", "Disables",
            spawn_pat(comp_pat("Tab", "_", "?i")),
            spawn_pat(comp_pat("Tab", "_", "?i")),
        )
        result = verify_one(self.make_counter_spawner(), prop)
        assert result.proved
        assert justifications_of(result.proof, BoundedBridge)

    def test_non_monotone_counter_fails(self):
        b = ProgramBuilder("reset")
        b.component("UI", "ui.py")
        b.component("Tab", "tab.py", domain=STR, ident=NUM)
        b.message("New", STR)
        b.message("Reset")
        b.init(assign("nextid", lit(0)), spawn("u0", "UI"))
        b.handler("UI", "New", ["d"],
                  spawn(None, "Tab", name("d"), name("nextid")),
                  assign("nextid", add(name("nextid"), lit(1))))
        b.handler("UI", "Reset", [], assign("nextid", lit(0)))
        prop = TraceProperty(
            "UniqueIds", "Disables",
            spawn_pat(comp_pat("Tab", "_", "?i")),
            spawn_pat(comp_pat("Tab", "_", "?i")),
        )
        assert not verify_one(b.build_validated(), prop).proved


class TestFoundBridgeAndCallPatterns:
    def test_found_bridge(self, registry_info):
        prop = TraceProperty(
            "PingsOnlyToSpawned", "Enables",
            spawn_pat(comp_pat("Cell", "?k")),
            send_pat(comp_pat("Cell", "?k"), msg_pat("Ping", "_")),
        )
        result = verify_one(registry_info, prop)
        assert result.proved
        assert justifications_of(result.proof, FoundBridge)

    def test_call_approval_pattern(self):
        b = ProgramBuilder("policy")
        b.component("Tab", "tab.py", domain=STR)
        b.message("Open", STR)
        b.message("Granted", STR)
        b.init(assign("dummy", lit(0)))
        b.handler("Tab", "Open", ["h"],
                  call("ok", "check", name("h"), cfg(sender(), "domain")),
                  ite(eq(name("ok"), lit("grant")),
                      send(sender(), "Granted", name("h"))))
        prop = TraceProperty(
            "GrantsAreChecked", "Enables",
            CallPat("check", (PVar("h"), PVar("d")), PLit(
                __import__("repro.lang.values",
                           fromlist=["VStr"]).VStr("grant"))),
            send_pat(comp_pat("Tab", "?d"), msg_pat("Granted", "?h")),
        )
        result = verify_one(b.build_validated(), prop)
        assert result.proved


class TestSenderChain:
    def make_gatekeeper(self):
        b = ProgramBuilder("gate")
        b.component("Door", "door.py")
        b.component("Guest", "guest.py", badge=STR)
        b.message("Admit", STR)
        b.message("Act", STR)
        b.message("Audit", STR, STR)
        b.init(spawn("d0", "Door"))
        b.handler("Door", "Admit", ["badge"],
                  lookup("g", "Guest", eq(cfg(name("g"), "badge"),
                                          name("badge")),
                         block(),
                         spawn(None, "Guest", name("badge"))))
        b.handler("Guest", "Act", ["what"],
                  send(name("d0"), "Audit", cfg(sender(), "badge"),
                       name("what")))
        return b.build_validated()

    def test_actions_need_admission(self):
        prop = TraceProperty(
            "ActionsNeedAdmission", "Enables",
            recv_pat(comp_pat("Door"), msg_pat("Admit", "?b")),
            send_pat(comp_pat("Door"), msg_pat("Audit", "?b", "_")),
        )
        result = verify_one(self.make_gatekeeper(), prop)
        assert result.proved
        chains = justifications_of(result.proof, SenderChain)
        assert chains
        assert chains[0].lemma.property.primitive == "Enables"

    def test_chain_refused_with_init_component_of_type(self):
        # If an anonymous Guest exists from Init, membership no longer
        # implies a spawn and the chain is unsound — the prover must fail.
        b = ProgramBuilder("gate2")
        b.component("Door", "door.py")
        b.component("Guest", "guest.py", badge=STR)
        b.message("Admit", STR)
        b.message("Act", STR)
        b.message("Audit", STR, STR)
        b.init(spawn("d0", "Door"), spawn("g0", "Guest", lit("root")))
        b.handler("Door", "Admit", ["badge"],
                  lookup("g", "Guest", eq(cfg(name("g"), "badge"),
                                          name("badge")),
                         block(),
                         spawn(None, "Guest", name("badge"))))
        b.handler("Guest", "Act", ["what"],
                  send(name("d0"), "Audit", cfg(sender(), "badge"),
                       name("what")))
        prop = TraceProperty(
            "ActionsNeedAdmission", "Enables",
            recv_pat(comp_pat("Door"), msg_pat("Admit", "?b")),
            send_pat(comp_pat("Door"), msg_pat("Audit", "?b", "_")),
        )
        assert not verify_one(b.build_validated(), prop).proved


class TestSkips:
    def test_irrelevant_exchanges_skipped(self, ssh_info):
        prop = TraceProperty(
            "AuthBeforeTerm", "Enables",
            recv_pat(comp_pat("Password"), msg_pat("Auth", "?u")),
            send_pat(comp_pat("Terminal"), msg_pat("ReqTerm", "?u")),
        )
        result = verify_one(ssh_info, prop)
        skipped = [s for s in result.proof.steps
                   if isinstance(s, SkippedExchange)]
        assert len(skipped) == 11  # 12 exchanges, one relevant

    def test_skipless_mode_proves_the_same(self, ssh_info):
        from repro.prover import ProverOptions

        prop = TraceProperty(
            "AuthBeforeTerm", "Enables",
            recv_pat(comp_pat("Password"), msg_pat("Auth", "?u")),
            send_pat(comp_pat("Terminal"), msg_pat("ReqTerm", "?u")),
        )
        spec = specify(ssh_info, prop)
        options = ProverOptions(syntactic_skip=False)
        result = Verifier(spec, options).prove_property(prop)
        assert result.proved
        assert not any(isinstance(s, SkippedExchange)
                       for s in result.proof.steps)
