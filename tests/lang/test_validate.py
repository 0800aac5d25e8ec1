"""Unit tests for program validation — the dependent-types stand-in."""

import pytest

from repro.lang import BOOL, STR, CompType, TypeMismatch, ValidationError
from repro.lang import tuple_of
from repro.lang.builder import (
    ProgramBuilder,
    add,
    assign,
    call,
    cfg,
    eq,
    ite,
    lit,
    lookup,
    name,
    send,
    sender,
    spawn,
)
from tests.conftest import build_ssh_program


def minimal() -> ProgramBuilder:
    b = ProgramBuilder("mini")
    b.component("A", "a.py")
    b.message("M", STR)
    b.init(spawn("X", "A"))
    return b


class TestDeclarations:
    def test_valid_program_passes(self, ssh_info):
        assert set(ssh_info.comp_table) == {
            "Connection", "Password", "Terminal"
        }

    def test_requires_a_component(self):
        b = ProgramBuilder("empty")
        with pytest.raises(ValidationError, match="no component"):
            b.build()

    def test_duplicate_component_rejected(self):
        b = minimal()
        b.component("A", "other.py")
        with pytest.raises(ValidationError, match="duplicate"):
            b.build_validated()

    def test_component_message_name_clash_rejected(self):
        b = minimal()
        b.component("M", "m.py")
        with pytest.raises(ValidationError, match="both component and"):
            b.build_validated()

    def test_component_config_must_be_base(self):
        b = ProgramBuilder("bad")
        b.component("A", "a.py", friend=CompType("A"))
        b.init(spawn("X", "A", name("X")))
        with pytest.raises(ValidationError, match="base type"):
            b.build_validated()


class TestInit:
    def test_global_types_inferred_in_order(self, ssh_info):
        assert list(ssh_info.global_types) == ["authorized", "C", "P", "T"]
        assert ssh_info.global_types["authorized"] == tuple_of(STR, BOOL)
        assert ssh_info.global_types["C"] == CompType("Connection")

    def test_branching_in_init_rejected(self):
        b = minimal()
        b.init(ite(lit(True), assign("x", lit(1))))
        with pytest.raises(ValidationError, match="flat"):
            b.build_validated()

    def test_spawn_requires_binding(self):
        b = minimal()
        b.init(spawn(None, "A"))
        with pytest.raises(ValidationError, match="bind"):
            b.build_validated()

    def test_comp_vars_only_via_spawn(self):
        b = minimal()
        b.init(assign("Y", name("X")))
        with pytest.raises(ValidationError, match="spawn"):
            b.build_validated()

    def test_init_call_binds_string_global(self):
        b = minimal()
        b.init(call("token", "gen_token", lit("seed")))
        info = b.build_validated()
        assert info.global_types["token"] == STR

    def test_duplicate_spawn_binding_rejected(self):
        b = minimal()
        b.init(spawn("X", "A"))
        with pytest.raises(ValidationError, match="duplicate"):
            b.build_validated()

    def test_negative_literals_rejected(self):
        b = minimal()
        b.init(assign("n", lit(-1)))
        with pytest.raises(ValidationError, match="natural"):
            b.build_validated()


class TestHandlers:
    def test_handler_for_unknown_component(self):
        b = minimal()
        b.handler("Nope", "M", ["x"])
        with pytest.raises(ValidationError, match="undeclared component"):
            b.build_validated()

    def test_handler_for_unknown_message(self):
        b = minimal()
        b.handler("A", "Nope", ["x"])
        with pytest.raises(ValidationError, match="undeclared message"):
            b.build_validated()

    def test_duplicate_handler_rejected(self):
        b = minimal()
        b.handler("A", "M", ["x"])
        b.handler("A", "M", ["y"])
        with pytest.raises(ValidationError, match="duplicate handler"):
            b.build_validated()

    def test_param_arity_must_match(self):
        b = minimal()
        b.handler("A", "M", ["x", "y"])
        with pytest.raises(ValidationError, match="payload slots"):
            b.build_validated()

    def test_duplicate_params_rejected(self):
        b = minimal()
        b.message("M2", STR, STR)
        b.handler("A", "M2", ["x", "x"])
        with pytest.raises(ValidationError, match="duplicate parameter"):
            b.build_validated()

    def test_assign_to_undeclared_global(self):
        b = minimal()
        b.handler("A", "M", ["x"], assign("ghost", lit(1)))
        with pytest.raises(ValidationError, match="undeclared global"):
            b.build_validated()

    def test_assign_type_mismatch(self):
        b = minimal()
        b.init(assign("flag", lit(True)))
        b.handler("A", "M", ["x"], assign("flag", lit("no")))
        with pytest.raises(TypeMismatch):
            b.build_validated()

    def test_assign_to_component_global_rejected(self):
        # LAC restriction: component globals are immutable after Init.
        b = build_ssh_program()
        b.message("Evil", STR)
        b.handler("Connection", "Evil", ["x"],
                  lookup("c2", "Connection", lit(True),
                         assign("C", name("c2"))))
        with pytest.raises(ValidationError, match="component-reference"):
            b.build_validated()

    def test_send_target_must_be_component(self):
        b = minimal()
        b.init(assign("s", lit("x")))
        b.handler("A", "M", ["x"], send(name("s"), "M", name("x")))
        with pytest.raises(TypeMismatch):
            b.build_validated()

    def test_send_payload_typed(self):
        b = minimal()
        b.handler("A", "M", ["x"], send(name("X"), "M", lit(3)))
        with pytest.raises(TypeMismatch):
            b.build_validated()

    def test_send_arity_checked(self):
        b = minimal()
        b.handler("A", "M", ["x"], send(name("X"), "M"))
        with pytest.raises(ValidationError, match="expected 1 argument"):
            b.build_validated()

    def test_sender_outside_handler_rejected(self):
        b = minimal()
        b.init(assign("d", cfg(sender(), "nope")))
        with pytest.raises(ValidationError, match="outside a handler"):
            b.build_validated()

    def test_local_shadowing_global_rejected(self):
        b = minimal()
        b.init(assign("x", lit(1)))
        b.handler("A", "M", ["p"], spawn("x", "A"))
        with pytest.raises(ValidationError, match="shadows"):
            b.build_validated()

    def test_sequence_scope_threading(self):
        # A spawn binding is visible to later commands in the sequence.
        b = minimal()
        b.handler("A", "M", ["p"],
                  spawn("fresh", "A"),
                  send(name("fresh"), "M", name("p")))
        b.build_validated()

    def test_lookup_binding_scoped_to_found_branch(self):
        b = minimal()
        b.handler("A", "M", ["p"],
                  lookup("c", "A", lit(True),
                         send(name("c"), "M", name("p"))),
                  send(name("c"), "M", name("p")))  # out of scope here
        with pytest.raises(ValidationError, match="undeclared global"):
            b.build_validated()

    def test_lookup_predicate_must_be_bool(self):
        b = minimal()
        b.handler("A", "M", ["p"],
                  lookup("c", "A", lit("yes"), send(name("c"), "M",
                                                    name("p"))))
        with pytest.raises(TypeMismatch):
            b.build_validated()


class TestExpressions:
    def test_config_field_access(self):
        b = ProgramBuilder("cfg")
        b.component("Tab", "t.py", domain=STR)
        b.message("Go", STR)
        b.init(spawn("T0", "Tab", lit("d")))
        b.handler("Tab", "Go", ["x"],
                  ite(eq(cfg(sender(), "domain"), name("x")),
                      send(sender(), "Go", name("x"))))
        b.build_validated()

    def test_unknown_config_field(self):
        b = ProgramBuilder("cfg")
        b.component("Tab", "t.py", domain=STR)
        b.message("Go", STR)
        b.init(spawn("T0", "Tab", lit("d")))
        b.handler("Tab", "Go", ["x"],
                  ite(eq(cfg(sender(), "nope"), name("x")), send(
                      sender(), "Go", name("x"))))
        with pytest.raises(ValidationError, match="no config field"):
            b.build_validated()

    def test_eq_requires_same_types(self):
        b = minimal()
        b.handler("A", "M", ["x"], ite(eq(name("x"), lit(1)), send(
            name("X"), "M", name("x"))))
        with pytest.raises(TypeMismatch):
            b.build_validated()

    def test_arithmetic_is_numeric(self):
        b = minimal()
        b.init(assign("n", lit(0)))
        b.handler("A", "M", ["x"], assign("n", add(name("n"), lit(1))))
        b.build_validated()

    def test_arithmetic_rejects_strings(self):
        b = minimal()
        b.init(assign("n", lit(0)))
        b.handler("A", "M", ["x"], assign("n", add(name("x"), lit(1))))
        with pytest.raises(TypeMismatch):
            b.build_validated()

    def test_projection_bounds_checked(self):
        from repro.lang.builder import proj

        b = minimal()
        b.init(assign("pair", lit(("a", True))))
        b.handler("A", "M", ["x"],
                  ite(eq(proj(name("pair"), 5), lit(True)), send(
                      name("X"), "M", name("x"))))
        with pytest.raises(ValidationError, match="out of range"):
            b.build_validated()

    def test_spawn_config_typed(self, registry_info):
        # registry fixture already validates spawn with config; a wrong
        # config type must fail:
        b = ProgramBuilder("bad_spawn")
        b.component("Cell", "c.py", key=STR)
        b.message("Go", STR)
        b.init(spawn("C0", "Cell", lit(5)))
        with pytest.raises(TypeMismatch):
            b.build_validated()
