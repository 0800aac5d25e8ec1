"""Regression tests for lookup-missing path conditions.

The negation of a conjunctive lookup predicate is a disjunction; the
missing branch must not strengthen it into a conjunction of negated
literals (that would exclude real executions from the inductive case
analysis — an unsoundness, not an incompleteness).
"""

from repro.lang import STR
from repro.lang.builder import (
    ProgramBuilder, band, cfg, eq, lit, lookup, name, send, spawn,
)
from repro.props import (
    TraceProperty, comp_pat, msg_pat, recv_pat, send_pat, specify,
)
from repro.prover import Verifier
from repro.runtime import Interpreter, World
from repro.symbolic.behabs import generic_step
from repro.symbolic.seval import MissingFact


def conjunctive_lookup_program():
    """An init-spawned Cell plus a lookup with a conjunctive predicate:
    the missing branch must stay reachable for (matched, unmatched)
    half-and-half candidates."""
    b = ProgramBuilder("conj")
    b.component("F", "f.py")
    b.component("Cell", "c.py", key=STR, tag=STR)
    b.message("Go", STR, STR)
    b.message("Hit", STR)
    b.message("Miss", STR)
    b.init(spawn("F0", "F"), spawn("C0", "Cell", lit("k0"), lit("t0")))
    b.handler("F", "Go", ["k", "t"],
              lookup("c", "Cell",
                     band(eq(cfg(name("c"), "key"), name("k")),
                          eq(cfg(name("c"), "tag"), name("t"))),
                     send(name("F0"), "Hit", name("k")),
                     send(name("F0"), "Miss", name("k"))))
    return b.build_validated()


class TestMissingBranchCondition:
    def test_conjunctive_negation_not_strengthened(self):
        info = conjunctive_lookup_program()
        step = generic_step(info)
        ex = step.exchange("F", "Go")
        missing = next(
            p for p in ex.paths
            if any(isinstance(f, MissingFact) for f in p.lookup_facts)
        )
        # The missing path must be compatible with k == "k0" (as long as
        # t differs): exactly the execution a naive ¬k0 ∧ ¬t0 encoding
        # would exclude.
        from repro.symbolic.expr import SOp, sstr

        facts = missing.facts()
        k_var = next(v for v in ex.payload if "Go_k" in v.name)
        facts.assert_term(SOp("eq", (k_var, sstr("k0"))))
        assert not facts.inconsistent(), (
            "the missing branch wrongly excludes key-matching, "
            "tag-mismatching executions"
        )

    def test_half_match_takes_missing_branch_and_is_accepted(self):
        """Concrete confirmation plus the trace-inclusion oracle."""
        from repro.runtime.replay import AbstractionChecker

        info = conjunctive_lookup_program()
        world = World()
        interp = Interpreter(info, world)
        state = interp.run_init()
        front = state.comps[0]
        world.stimulate(front, "Go", "k0", "WRONG-TAG")  # half-match
        interp.run(state)
        from repro.runtime.actions import ASend

        misses = state.trace.filter(
            lambda a: isinstance(a, ASend) and a.msg == "Miss"
        )
        assert len(misses) == 1
        assert AbstractionChecker(info).accepts(state.trace)

    def test_prover_does_not_exploit_phantom_facts(self):
        """A property that would be provable only under the unsound
        strengthened condition must fail: 'every Miss has a key different
        from k0' is false (the half-match Miss has key k0)."""
        info = conjunctive_lookup_program()
        prop = TraceProperty(
            "MissNeverK0", "Disables",
            recv_pat(comp_pat("F"), msg_pat("Go", "k0", "_")),
            send_pat(comp_pat("F"), msg_pat("Miss", "k0")),
        )
        result = Verifier(specify(info, prop)).prove_property(prop)
        assert not result.proved

    def test_single_literal_negations_still_recorded(self):
        """The precise (single-equality) case keeps its negative fact —
        the uniqueness proofs depend on it."""
        from tests.conftest import build_registry_program

        b = build_registry_program()
        info = b.build_validated()
        # (covered in depth by test_seval; here: the behavior is intact
        # after the soundness fix)
        from repro.props import spawn_pat

        prop = TraceProperty(
            "UniqueCells", "Disables",
            spawn_pat(comp_pat("Cell", "?k")),
            spawn_pat(comp_pat("Cell", "?k")),
        )
        assert Verifier(specify(info, prop)).prove_property(prop).proved
