"""Unit tests for AST structure and traversal helpers."""

from repro.lang import ast
from repro.lang.builder import (
    assign, band, bnot, cfg, eq, ite, lit, lookup, name, send, sender,
    spawn, tup, block,
)
from tests.conftest import build_ssh_program


class TestSmartSequence:
    def test_flattens_nested_sequences(self):
        inner = ast.seq(assign("x", lit(1)), assign("y", lit(2)))
        outer = ast.seq(inner, assign("z", lit(3)))
        assert isinstance(outer, ast.Seq)
        assert len(outer.cmds) == 3

    def test_drops_nops(self):
        assert ast.seq(ast.Nop(), ast.Nop()) == ast.Nop()
        assert ast.seq(ast.Nop(), assign("x", lit(1))) == assign("x", lit(1))

    def test_single_command_unwrapped(self):
        cmd = assign("x", lit(1))
        assert ast.seq(cmd) is cmd


class TestTraversal:
    def test_sub_exprs_visits_all(self):
        e = band(eq(name("a"), lit(1)), bnot(eq(cfg(sender(), "d"),
                                                lit("x"))))
        kinds = {type(x).__name__ for x in ast.sub_exprs(e)}
        assert {"BinOp", "Not", "Name", "Lit", "Field", "Sender"} <= kinds

    def test_sub_cmds_enters_branches_and_lookup(self):
        cmd = ite(eq(name("a"), lit(1)),
                  lookup("c", "Cell", lit(True),
                         assign("x", lit(1)),
                         assign("y", lit(2))),
                  assign("z", lit(3)))
        assigns = [c for c in ast.sub_cmds(cmd) if isinstance(c, ast.Assign)]
        assert {a.var for a in assigns} == {"x", "y", "z"}

    def test_cmd_exprs_direct_only(self):
        cmd = ite(eq(name("a"), lit(1)), assign("x", name("b")))
        direct = list(ast.cmd_exprs(cmd))
        assert len(direct) == 1  # only the condition, not the branch body

    def test_assigned_vars(self):
        body = block(
            assign("a", lit(1)),
            ite(lit(True), assign("b", lit(2))),
        )
        assert ast.effects_of(body).assigns == {"a", "b"}

    def test_sends_and_spawns(self):
        body = block(
            send(name("P"), "M"),
            ite(lit(True), spawn("x", "Cell", lit("k"))),
        )
        effects = ast.effects_of(body)
        assert (effects.sends, effects.spawns) == ({"M"}, {"Cell"})


class TestProgramQueries:
    def test_component_and_message_lookup(self):
        program = build_ssh_program().build()
        assert program.component("Password").executable == "user-auth.c"
        assert program.message("ReqAuth").arity == 2

    def test_handler_dispatch(self):
        program = build_ssh_program().build()
        handler = program.handler_for("Connection", "ReqAuth")
        assert handler is not None
        assert handler.params == ("user", "password")
        assert program.handler_for("Password", "ReqTerm") is None

    def test_exchange_keys_cover_all_pairs(self):
        program = build_ssh_program().build()
        keys = program.exchange_keys()
        assert len(keys) == 3 * 4  # 3 component types x 4 message types
        assert ("Terminal", "Auth") in keys  # unhandled pairs included

    def test_handler_key(self):
        program = build_ssh_program().build()
        handler = program.handler_for("Password", "Auth")
        assert handler.key == ("Password", "Auth")


class TestRendering:
    def test_expressions_render(self):
        e = eq(tup(name("u"), lit(True)), name("authorized"))
        assert str(e) == "((u, true) == authorized)"

    def test_commands_render(self):
        cmd = send(name("P"), "ReqAuth", name("u"), lit("pw"))
        assert str(cmd) == "send(P, ReqAuth(u, 'pw'))"
