"""Unit and property tests for the simplifier and DNF."""

from hypothesis import given
from hypothesis import strategies as st

from repro.lang import types as ty
from repro.lang.values import VBool, vstr
from repro.symbolic.expr import (
    S_FALSE,
    S_TRUE,
    SComp,
    SConst,
    SOp,
    SProj,
    STuple,
    SVar,
    sadd,
    sand,
    seq_,
    snot,
    snum,
    sor,
    sstr,
)
from repro.symbolic.simplify import dnf, linearize, simplify, term_type
from tests.symbolic.helpers import eval_term, valuations

SX = SVar("sx", ty.STR, "state")
NX = SVar("nx", ty.NUM, "state")
NY = SVar("ny", ty.NUM, "payload")
BX = SVar("bx", ty.BOOL, "state")
PAIR = SVar("pair", ty.tuple_of(ty.STR, ty.BOOL), "state")

#: Random boolean terms over a tiny fixed variable set.
bool_terms = st.recursive(
    st.one_of(
        st.just(BX),
        st.builds(lambda c: seq_(SX, sstr(c)), st.sampled_from(["", "a"])),
        st.builds(lambda n: seq_(NX, snum(n)), st.integers(0, 3)),
        st.builds(lambda n: SOp("le", (NY, snum(n))), st.integers(0, 3)),
        st.just(seq_(SProj(PAIR, 1), S_TRUE)),
    ),
    lambda inner: st.one_of(
        st.builds(snot, inner),
        st.builds(lambda a, b: sand(a, b), inner, inner),
        st.builds(lambda a, b: sor(a, b), inner, inner),
    ),
    max_leaves=8,
)


class TestConstantFolding:
    def test_eq_of_constants(self):
        assert simplify(seq_(sstr("a"), sstr("a"))) == S_TRUE
        assert simplify(seq_(sstr("a"), sstr("b"))) == S_FALSE

    def test_reflexive_eq(self):
        assert simplify(seq_(SX, SX)) == S_TRUE

    def test_not_folding(self):
        assert simplify(snot(S_TRUE)) == S_FALSE
        assert simplify(snot(snot(BX))) == BX

    def test_bool_eq_unwrapping(self):
        assert simplify(seq_(BX, S_TRUE)) == BX
        assert simplify(seq_(BX, S_FALSE)) == snot(BX)
        assert simplify(seq_(S_TRUE, BX)) == BX

    def test_and_or_absorption(self):
        assert simplify(sand(BX, S_FALSE)) == S_FALSE
        assert simplify(sor(BX, S_TRUE)) == S_TRUE
        assert simplify(sand(BX, S_TRUE)) == BX
        assert simplify(sand(BX, snot(BX))) == S_FALSE
        assert simplify(sor(BX, snot(BX))) == S_TRUE

    def test_concat_folding_and_unit(self):
        assert simplify(SOp("concat", (sstr("a"), sstr("b")))) == sstr("ab")
        assert simplify(SOp("concat", (sstr(""), SX))) == SX
        assert simplify(SOp("concat", (SX, sstr("")))) == SX


class TestTupleDecomposition:
    def test_tuple_eq_decomposes(self):
        lhs = STuple((SConst(vstr("u")), S_TRUE))
        result = simplify(seq_(lhs, PAIR))
        # decomposed into projections of the tuple variable
        assert isinstance(result, SOp) and result.op == "and"

    def test_tuple_eq_against_var_uses_projections(self):
        result = simplify(seq_(PAIR, STuple((SX, S_TRUE))))
        rendered = str(result)
        assert "pair.0" in rendered and "pair.1" in rendered

    def test_proj_of_tuple_reduces(self):
        assert simplify(SProj(STuple((SX, BX)), 0)) == SX

    def test_const_tuples_exposed(self):
        from repro.lang.values import VTuple

        const = SConst(VTuple((vstr("u"), VBool(True))))
        assert simplify(SProj(const, 0)) == SConst(vstr("u"))


class TestLinearArithmetic:
    def test_linearize_collects_coefficients(self):
        const, items = linearize(sadd(sadd(NX, snum(2)), NX))
        assert const == 2
        assert items == ((NX, 2),)

    def test_numeric_eq_canonicalization(self):
        # nx + 1 == 2  simplifies to  nx == 1
        result = simplify(seq_(sadd(NX, snum(1)), snum(2)))
        assert result == SOp("eq", (NX, snum(1)))

    def test_numeric_eq_decided(self):
        assert simplify(seq_(sadd(NX, snum(1)), sadd(NX, snum(1)))) == S_TRUE
        assert simplify(seq_(sadd(NX, snum(1)), NX)) == S_FALSE

    def test_comparison_decided_on_constants(self):
        assert simplify(SOp("lt", (snum(1), snum(2)))) == S_TRUE
        assert simplify(SOp("le", (NX, NX))) == S_TRUE
        assert simplify(SOp("lt", (NX, NX))) == S_FALSE


class TestComponentIdentity:
    def test_init_components_distinct(self):
        a = SComp("a", "T", (), "init")
        b = SComp("b", "T", (), "init")
        assert simplify(seq_(a, b)) == S_FALSE
        assert simplify(seq_(a, a)) == S_TRUE

    def test_cross_type_distinct(self):
        a = SComp("a", "T", (), "sender")
        b = SComp("b", "U", (), "init")
        assert simplify(seq_(a, b)) == S_FALSE

    def test_fresh_distinct_from_everything(self):
        fresh = SComp("f", "T", (), "fresh", seq=1)
        sender = SComp("s", "T", (), "sender")
        assert simplify(seq_(fresh, sender)) == S_FALSE

    def test_sender_may_alias_init(self):
        sender = SComp("s", "T", (), "sender")
        init = SComp("i", "T", (), "init")
        result = simplify(seq_(sender, init))
        assert result not in (S_TRUE, S_FALSE)


class TestSemanticPreservation:
    @given(bool_terms)
    def test_simplify_preserves_meaning(self, term):
        simplified = simplify(term)
        for valuation in valuations([term, simplified]):
            assert eval_term(term, valuation) == eval_term(
                simplified, valuation
            )

    @given(bool_terms)
    def test_simplify_is_idempotent(self, term):
        once = simplify(term)
        assert simplify(once) == once

    @given(bool_terms)
    def test_dnf_equivalent_to_term(self, term):
        cubes = dnf(term)
        for valuation in valuations(
            [term] + [lit for cube in cubes for lit in cube]
        ):
            expected = eval_term(term, valuation) == VBool(True)
            got = any(
                all(eval_term(lit, valuation) == VBool(True)
                    for lit in cube)
                for cube in cubes
            )
            assert got == expected


class TestTermType:
    def test_types_reconstructed(self):
        assert term_type(SX) == ty.STR
        assert term_type(sadd(NX, snum(1))) == ty.NUM
        assert term_type(seq_(SX, sstr("a"))) == ty.BOOL
        assert term_type(SProj(PAIR, 1)) == ty.BOOL
        assert term_type(SComp("c", "T", (), "init")) == ty.CompType("T")
