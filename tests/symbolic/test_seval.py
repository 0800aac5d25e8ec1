"""Tests for symbolic evaluation of handlers."""

from repro.lang import STR
from repro.lang.builder import (
    ProgramBuilder, assign, call, cfg, eq, ite, lit, lookup, name,
    send, spawn, block,
)
from repro.symbolic.behabs import generic_step
from repro.symbolic.expr import SVar
from repro.symbolic.seval import FoundFact, MissingFact
from repro.symbolic.templates import TCall, TSend, TSpawn
from tests.conftest import build_registry_program


def exchange(info, ctype, msg):
    return generic_step(info).exchange(ctype, msg)


class TestPathEnumeration:
    def test_straightline_handler_has_one_path(self, ssh_info):
        ex = exchange(ssh_info, "Connection", "ReqAuth")
        assert len(ex.paths) == 1
        path = ex.paths[0]
        assert [type(t).__name__ for t in path.actions] == [
            "TSelect", "TRecv", "TSend",
        ]

    def test_branching_handler_paths(self, ssh_info):
        ex = exchange(ssh_info, "Connection", "ReqTerm")
        # then-branch (one cube) + two else-cubes from the negated
        # tuple-equality
        assert len(ex.paths) == 3
        sending = [p for p in ex.paths
                   if any(isinstance(t, TSend) for t in p.actions)]
        assert len(sending) == 1
        assert sending[0].cond  # guarded by the branch condition

    def test_unhandled_exchange_is_boundary_only(self, ssh_info):
        ex = exchange(ssh_info, "Terminal", "ReqAuth")
        assert ex.handler is None
        assert len(ex.paths) == 1
        assert len(ex.paths[0].actions) == 2

    def test_infeasible_paths_pruned(self):
        b = ProgramBuilder("prune")
        b.component("A", "a.py")
        b.message("M", STR)
        b.init(spawn("X", "A"), assign("flag", lit(True)))
        b.handler("A", "M", ["x"],
                  ite(eq(lit(True), lit(False)),  # statically false
                      send(name("X"), "M", name("x"))))
        info = b.build_validated()
        ex = exchange(info, "A", "M")
        assert len(ex.paths) == 1  # the impossible branch never appears
        assert not any(isinstance(t, TSend) for t in ex.paths[0].actions)

    def test_nested_branches_multiply(self):
        b = ProgramBuilder("nested")
        b.component("A", "a.py")
        b.message("M", STR, STR)
        b.init(spawn("X", "A"), assign("s", lit("")))
        b.handler("A", "M", ["x", "y"],
                  ite(eq(name("x"), lit("a")),
                      ite(eq(name("y"), lit("b")),
                          assign("s", lit("ab")),
                          assign("s", lit("a?"))),
                      assign("s", lit("?"))))
        info = b.build_validated()
        ex = exchange(info, "A", "M")
        assert len(ex.paths) == 3
        finals = {dict(p.env)["s"] for p in ex.paths}
        assert len(finals) == 3


class TestEnvironmentUpdates:
    def test_assignment_reflected_in_env(self, ssh_info):
        ex = exchange(ssh_info, "Password", "Auth")
        env = ex.paths[0].env_dict()
        auth = env["authorized"]
        # the new value is the tuple (payload-user, true)
        assert "Auth_user" in str(auth)

    def test_untouched_globals_keep_pre_terms(self, ssh_info):
        step = generic_step(ssh_info)
        pre = step.pre_env_dict()
        ex = step.exchange("Connection", "ReqAuth")
        env = ex.paths[0].env_dict()
        assert env["authorized"] == pre["authorized"]


class TestEffects:
    def test_send_targets_init_component(self, ssh_info):
        ex = exchange(ssh_info, "Connection", "ReqAuth")
        send_t = ex.paths[0].actions[2]
        assert isinstance(send_t, TSend)
        assert send_t.comp.origin == "init"
        assert send_t.comp.ctype == "Password"

    def test_call_allocates_fresh_result(self):
        b = ProgramBuilder("callr")
        b.component("A", "a.py")
        b.message("M", STR)
        b.init(spawn("X", "A"))
        b.handler("A", "M", ["x"],
                  call("r", "f", name("x")),
                  send(name("X"), "M", name("r")))
        info = b.build_validated()
        ex = exchange(info, "A", "M")
        path = ex.paths[0]
        call_t = path.actions[2]
        assert isinstance(call_t, TCall)
        assert call_t.result.origin == "call"
        send_t = path.actions[3]
        assert send_t.payload == (call_t.result,)

    def test_spawn_adds_fresh_component(self, registry_info):
        ex = exchange(registry_info, "Front", "Ensure")
        missing_paths = [
            p for p in ex.paths
            if any(isinstance(f, MissingFact) for f in p.lookup_facts)
        ]
        assert len(missing_paths) == 1
        path = missing_paths[0]
        assert len(path.new_comps) == 1
        fresh = path.new_comps[0]
        assert fresh.origin == "fresh" and fresh.ctype == "Cell"
        assert any(
            isinstance(t, TSpawn) and t.comp == fresh for t in path.actions
        )


class TestLookupFacts:
    def test_found_branch_records_fact_and_pred(self, registry_info):
        ex = exchange(registry_info, "Front", "Ensure")
        found_paths = [
            p for p in ex.paths
            if any(isinstance(f, FoundFact) for f in p.lookup_facts)
        ]
        assert len(found_paths) == 1
        fact = found_paths[0].lookup_facts[0]
        assert fact.ctype == "Cell"
        assert fact.comp.origin == "lookup"
        # The predicate constrains the candidate's key to the payload.
        assert found_paths[0].cond

    def test_fact_positions_recorded(self, registry_info):
        ex = exchange(registry_info, "Front", "Ensure")
        for path in ex.paths:
            for fact in path.lookup_facts:
                assert fact.at_index == 2  # right after Select/Recv

    def test_missing_branch_excludes_known_components(self):
        # When an init component of the looked-up type exists, the missing
        # branch must carry the negated predicate for it.
        b = ProgramBuilder("known")
        b.component("F", "f.py")
        b.component("Cell", "c.py", key=STR)
        b.message("Go", STR)
        b.init(spawn("F0", "F"), spawn("C0", "Cell", lit("fixed")))
        b.handler("F", "Go", ["k"],
                  lookup("c", "Cell", eq(cfg(name("c"), "key"), name("k")),
                         block(),
                         spawn(None, "Cell", name("k"))))
        info = b.build_validated()
        ex = exchange(info, "F", "Go")
        missing = [
            p for p in ex.paths
            if any(isinstance(f, MissingFact) for f in p.lookup_facts)
        ][0]
        # the path condition records that C0's key ("fixed") differs from k
        assert any("fixed" in str(c) for c in missing.cond)


class TestSenderModel:
    def test_sender_is_arbitrary_of_type(self, ssh_info):
        ex = exchange(ssh_info, "Connection", "ReqTerm")
        assert ex.sender.origin == "sender"
        assert ex.sender.ctype == "Connection"

    def test_sender_config_vars_fresh(self):
        info = build_registry_program().build_validated()
        ex = exchange(info, "Cell", "Pong")
        assert all(
            isinstance(c, SVar) and c.origin == "config"
            for c in ex.sender.config
        )
