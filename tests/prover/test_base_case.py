"""Tests for the base case of the induction: trigger occurrences inside
the Init trace itself."""

from repro.lang import STR
from repro.lang.builder import (
    ProgramBuilder, call, lit, spawn,
)
from repro.props import (
    TraceProperty, comp_pat, spawn_pat,
    specify,
)
from repro.props.patterns import CallPat, PWild
from repro.prover import Verifier


def two_spawner():
    b = ProgramBuilder("base")
    b.component("A", "a.py", key=STR)
    b.component("B", "b.py")
    b.message("M", STR)
    b.init(
        spawn("a1", "A", lit("first")),
        spawn("a2", "A", lit("second")),
        spawn("b1", "B"),
    )
    return b.build_validated()


class TestInitTriggers:
    def test_distinct_init_spawns_satisfy_uniqueness(self):
        prop = TraceProperty(
            "UniqueKeys", "Disables",
            spawn_pat(comp_pat("A", "?k")), spawn_pat(comp_pat("A", "?k")),
        )
        result = Verifier(specify(two_spawner(), prop)).prove_property(prop)
        # the two Init spawns have different literal keys: refutable
        assert result.proved

    def test_duplicate_init_spawns_fail_uniqueness(self):
        b = ProgramBuilder("dup")
        b.component("A", "a.py", key=STR)
        b.message("M", STR)
        b.init(spawn("a1", "A", lit("same")), spawn("a2", "A", lit("same")))
        prop = TraceProperty(
            "UniqueKeys", "Disables",
            spawn_pat(comp_pat("A", "?k")), spawn_pat(comp_pat("A", "?k")),
        )
        info = b.build_validated()
        result = Verifier(specify(info, prop)).prove_property(prop)
        assert not result.proved
        # ... and the oracle agrees on the actual Init trace:
        from repro.runtime import Interpreter, World

        state = Interpreter(info, World()).run_init()
        assert not prop.holds_on(state.trace)

    def test_enables_between_init_actions(self):
        prop = TraceProperty(
            "SecondAfterFirst", "Enables",
            spawn_pat(comp_pat("A", "first")),
            spawn_pat(comp_pat("A", "second")),
        )
        result = Verifier(specify(two_spawner(), prop)).prove_property(prop)
        assert result.proved  # first is spawned before second in Init

    def test_enables_violated_by_init_order(self):
        prop = TraceProperty(
            "FirstAfterSecond", "Enables",
            spawn_pat(comp_pat("A", "second")),
            spawn_pat(comp_pat("A", "first")),
        )
        result = Verifier(specify(two_spawner(), prop)).prove_property(prop)
        assert not result.proved
        assert "base case" in result.error

    def test_init_call_matches_call_pattern(self):
        b = ProgramBuilder("withcall")
        b.component("A", "a.py")
        b.message("M", STR)
        b.init(
            call("tok", "keygen", lit("seed")),
            spawn("a1", "A"),
        )
        prop = TraceProperty(
            "SpawnAfterKeygen", "Enables",
            CallPat("keygen", (PWild(),)),
            spawn_pat(comp_pat("A")),
        )
        info = b.build_validated()
        result = Verifier(specify(info, prop)).prove_property(prop)
        assert result.proved


class TestImmediateAtInit:
    def test_immafter_within_init(self):
        prop = TraceProperty(
            "SecondImmediately", "ImmAfter",
            spawn_pat(comp_pat("A", "first")),
            spawn_pat(comp_pat("A", "second")),
        )
        result = Verifier(specify(two_spawner(), prop)).prove_property(prop)
        assert result.proved

    def test_immafter_fails_for_trailing_trigger(self):
        # b1 is the LAST Init action: nothing follows it at the post-Init
        # state, so an ImmAfter trigger on it must fail.
        prop = TraceProperty(
            "SomethingAfterB", "ImmAfter",
            spawn_pat(comp_pat("B")),
            spawn_pat(comp_pat("A", "_")),
        )
        result = Verifier(specify(two_spawner(), prop)).prove_property(prop)
        assert not result.proved

    def test_immbefore_fails_for_leading_trigger(self):
        prop = TraceProperty(
            "SomethingBeforeFirst", "ImmBefore",
            spawn_pat(comp_pat("B")),
            spawn_pat(comp_pat("A", "first")),
        )
        result = Verifier(specify(two_spawner(), prop)).prove_property(prop)
        assert not result.proved
