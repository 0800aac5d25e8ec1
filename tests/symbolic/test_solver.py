"""Solver tests: targeted units plus hypothesis soundness vs brute force.

The contract under test (see the solver's module docstring): whenever
``Facts`` reports inconsistency or entailment, a brute-force enumeration of
small-domain models must agree.  The converse (completeness) is *not*
required and not tested — the solver may say "don't know".
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import types as ty
from repro.symbolic.expr import (
    S_TRUE,
    SComp,
    SOp,
    SProj,
    SVar,
    sadd,
    seq_,
    snot,
    snum,
    sstr,
)
from repro.symbolic.simplify import simplify
from repro.symbolic.solver import Facts, cube_implies, cube_inconsistent
from tests.symbolic.helpers import cube_forces, cube_satisfiable

SX = SVar("sx", ty.STR, "state")
SY = SVar("sy", ty.STR, "payload")
NX = SVar("nx", ty.NUM, "state")
NY = SVar("ny", ty.NUM, "payload")
BX = SVar("bx", ty.BOOL, "state")
PAIR = SVar("pair", ty.tuple_of(ty.STR, ty.BOOL), "state")

literals = st.one_of(
    st.builds(lambda c: seq_(SX, sstr(c)), st.sampled_from(["", "a", "b"])),
    st.builds(lambda c: snot(seq_(SX, sstr(c))),
              st.sampled_from(["", "a", "b"])),
    st.just(seq_(SX, SY)),
    st.just(snot(seq_(SX, SY))),
    st.builds(lambda n: seq_(NX, snum(n)), st.integers(0, 3)),
    st.builds(lambda n: seq_(sadd(NX, snum(1)), snum(n)), st.integers(0, 3)),
    st.builds(lambda n: SOp("le", (NX, snum(n))), st.integers(0, 3)),
    st.builds(lambda n: SOp("lt", (snum(n), NX)), st.integers(0, 3)),
    st.just(seq_(NX, NY)),
    st.just(snot(seq_(NX, NY))),
    st.just(BX),
    st.just(snot(BX)),
    st.just(seq_(SProj(PAIR, 0), SX)),
    st.just(SProj(PAIR, 1)),
    st.just(snot(SProj(PAIR, 1))),
)

cubes = st.lists(literals, min_size=0, max_size=5).map(tuple)


class TestSoundness:
    @settings(max_examples=200, deadline=None)
    @given(cubes)
    def test_inconsistent_implies_unsat(self, cube):
        if cube_inconsistent(cube):
            assert not cube_satisfiable(cube), (
                f"solver called satisfiable cube inconsistent: {cube}"
            )

    @settings(max_examples=200, deadline=None)
    @given(cubes, literals)
    def test_implies_is_sound(self, cube, conclusion):
        if cube_implies(cube, conclusion):
            assert cube_forces(cube, conclusion), (
                f"solver claimed {cube} entails {conclusion} but a model "
                f"disagrees"
            )


class TestEqualityReasoning:
    def test_transitive_equality(self):
        facts = Facts()
        facts.assert_term(seq_(SX, SY))
        facts.assert_term(seq_(SY, sstr("a")))
        assert facts.implies(seq_(SX, sstr("a")))

    def test_distinct_constants_conflict(self):
        facts = Facts()
        facts.assert_term(seq_(SX, sstr("a")))
        facts.assert_term(seq_(SX, sstr("b")))
        assert facts.inconsistent()

    def test_disequality_then_equality_conflict(self):
        facts = Facts()
        facts.assert_term(snot(seq_(SX, SY)))
        facts.assert_term(seq_(SX, SY))
        assert facts.inconsistent()

    def test_tuple_projection_reasoning(self):
        from repro.symbolic.expr import STuple

        facts = Facts()
        facts.assert_term(seq_(SProj(PAIR, 0), sstr("u")))
        facts.assert_term(SProj(PAIR, 1))
        assert facts.implies(
            simplify(seq_(PAIR, STuple((sstr("u"), S_TRUE))))
        )


class TestNaturalArithmetic:
    def test_increment_reasoning(self):
        facts = Facts()
        facts.assert_term(seq_(NX, snum(0)))
        assert facts.implies(seq_(sadd(NX, snum(1)), snum(1)))
        assert facts.implies(snot(seq_(sadd(NX, snum(1)), snum(0))))

    def test_naturals_cannot_go_negative(self):
        facts = Facts()
        facts.assert_term(seq_(sadd(NX, snum(1)), snum(0)))  # nx = -1
        assert facts.inconsistent()

    def test_le_chains(self):
        facts = Facts()
        facts.assert_term(SOp("le", (NX, snum(1))))
        assert facts.implies(SOp("le", (NX, snum(2))))
        assert not facts.implies(SOp("le", (NX, snum(0))))

    def test_le_and_eq_conflict(self):
        facts = Facts()
        facts.assert_term(SOp("le", (NX, snum(1))))
        facts.assert_term(seq_(NX, snum(3)))
        assert facts.inconsistent()

    def test_lt_is_strict_over_integers(self):
        facts = Facts()
        facts.assert_term(SOp("lt", (NX, snum(1))))
        assert facts.implies(seq_(NX, snum(0)))


class TestComponentReasoning:
    def test_sender_aliasing_propagates_config(self):
        sender = SComp("s", "Tab", (SX,), "sender")
        init = SComp("i", "Tab", (sstr("mail"),), "init")
        facts = Facts()
        facts.assert_term(seq_(sender, init))
        assert facts.implies(seq_(SX, sstr("mail")))

    def test_config_mismatch_refutes_aliasing(self):
        sender = SComp("s", "Tab", (sstr("shop"),), "sender")
        init = SComp("i", "Tab", (sstr("mail"),), "init")
        facts = Facts()
        facts.assert_term(seq_(sender, init))
        assert facts.inconsistent()

    def test_distinct_init_components(self):
        a = SComp("a", "Tab", (), "init")
        b = SComp("b", "Tab", (), "init")
        facts = Facts()
        facts.assert_term(seq_(a, b))
        assert facts.inconsistent()


class TestImpliesStructure:
    def test_implies_conjunction(self):
        facts = Facts()
        facts.assert_term(seq_(SX, sstr("a")))
        facts.assert_term(BX)
        assert facts.implies(SOp("and", (seq_(SX, sstr("a")), BX)))

    def test_implies_disjunction(self):
        facts = Facts()
        facts.assert_term(seq_(SX, sstr("a")))
        disj = SOp("or", (seq_(SX, sstr("a")), seq_(SX, sstr("b"))))
        assert facts.implies(disj)

    def test_inconsistent_facts_imply_anything(self):
        facts = Facts()
        facts.assert_term(seq_(SX, sstr("a")))
        facts.assert_term(seq_(SX, sstr("b")))
        assert facts.implies(seq_(NX, snum(7)))

    def test_copy_isolates(self):
        facts = Facts()
        facts.assert_term(seq_(SX, sstr("a")))
        probe = facts.copy()
        probe.assert_term(seq_(SX, sstr("b")))
        assert probe.inconsistent()
        assert not facts.inconsistent()
