"""Unit tests for the symbolic term language."""

import pytest

from repro.lang import types as ty
from repro.lang.errors import SymbolicError
from repro.lang.values import VTuple, vnum, vstr
from repro.symbolic.expr import (
    FreshNames,
    SComp,
    SConst,
    SOp,
    SProj,
    STuple,
    SVar,
    comps_in,
    free_vars,
    lift_value,
    sand,
    seq_,
    snot,
    sor,
    sub_terms,
    substitute,
)

X = SVar("x", ty.STR, "state")
Y = SVar("y", ty.NUM, "payload")
COMP = SComp("c", "Tab", (X,), "sender")


class TestStructure:
    def test_free_vars_includes_config(self):
        term = seq_(COMP, COMP)
        assert X in free_vars(term)

    def test_comps_in(self):
        assert comps_in(seq_(COMP, SConst(vstr("x")))) == {COMP}

    def test_sub_terms_preorder(self):
        term = SOp("and", (seq_(X, SConst(vstr("a"))), snot(seq_(Y,
                   SConst(vnum(1))))))
        listed = list(sub_terms(term))
        assert listed[0] is term
        assert X in listed and Y in listed

    def test_sand_sor_units(self):
        from repro.symbolic.expr import S_FALSE, S_TRUE

        assert sand() == S_TRUE
        assert sor() == S_FALSE
        assert sand(X) is X
        assert sor(Y) is Y


class TestSubstitute:
    def test_replaces_whole_subterms(self):
        term = SOp("add", (Y, SConst(vnum(1))))
        replaced = substitute(term, {Y: SConst(vnum(5))})
        assert replaced == SOp("add", (SConst(vnum(5)), SConst(vnum(1))))

    def test_descends_into_components(self):
        replaced = substitute(COMP, {X: SConst(vstr("mail"))})
        assert replaced.config == (SConst(vstr("mail")),)

    def test_descends_into_tuples_and_projections(self):
        term = SProj(STuple((X, Y)), 1)
        replaced = substitute(term, {Y: SConst(vnum(2))})
        assert replaced == SProj(STuple((X, SConst(vnum(2)))), 1)

    def test_identity_when_no_hit(self):
        term = SOp("eq", (X, SConst(vstr("a"))))
        assert substitute(term, {Y: SConst(vnum(0))}) == term


class TestFreshNames:
    def test_vars_are_unique(self):
        fresh = FreshNames()
        a = fresh.var("x", ty.STR, "payload")
        b = fresh.var("x", ty.STR, "payload")
        assert a != b and a.name != b.name

    def test_unknown_origin_rejected(self):
        with pytest.raises(SymbolicError):
            FreshNames().var("x", ty.STR, "cosmic")

    def test_comp_labels_and_seq(self):
        fresh = FreshNames()
        assert fresh.comp_label("t") != fresh.comp_label("t")
        assert fresh.seq() < fresh.seq()


class TestLiftValue:
    def test_tuples_are_exposed(self):
        lifted = lift_value(VTuple((vstr("u"), vnum(1))))
        assert isinstance(lifted, STuple)
        assert lifted.elems == (SConst(vstr("u")), SConst(vnum(1)))

    def test_scalars_become_constants(self):
        assert lift_value(vstr("x")) == SConst(vstr("x"))

    def test_nested_tuples(self):
        lifted = lift_value(VTuple((VTuple((vnum(1),)), vstr("a"))))
        assert isinstance(lifted.elems[0], STuple)
