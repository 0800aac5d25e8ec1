"""AbstractionChecker coverage for the trickier command forms: lookup
determinism, call results, and handler-local bindings."""

from repro.lang.values import VStr, vstr
from repro.runtime import Interpreter, RecordingBehavior, Trace, World
from repro.runtime.actions import ACall, ASend
from repro.runtime.replay import AbstractionChecker
from tests.conftest import build_registry_program


def registry_run(keys, seed=0):
    info = build_registry_program().build_validated()
    world = World(seed=seed)
    world.register_executable("cell.py", RecordingBehavior)
    interp = Interpreter(info, world)
    state = interp.run_init()
    front = state.comps[0]
    for key in keys:
        world.stimulate(front, "Ensure", key)
        interp.run(state)
    return info, state


class TestLookupReplay:
    def test_lookup_heavy_trace_accepted(self):
        info, state = registry_run(["a", "b", "a", "c", "b"])
        assert AbstractionChecker(info).accepts(state.trace)

    def test_wrong_lookup_choice_rejected(self):
        """If the trace claims a Ping went to a *different* cell than the
        deterministic first-match lookup would pick, it is rejected."""
        info, state = registry_run(["a", "b", "a"])
        cells = [c for c in state.comps if c.ctype == "Cell"]
        assert len(cells) == 2
        cell_a, cell_b = cells
        actions = list(state.trace.chronological())
        # The final Ensure("a") produced a Ping to cell_a; retarget it.
        for i in range(len(actions) - 1, -1, -1):
            action = actions[i]
            if isinstance(action, ASend) and action.msg == "Ping" \
                    and action.comp == cell_a:
                actions[i] = ASend(cell_b, "Ping", action.payload)
                break
        assert not AbstractionChecker(info).accepts(Trace(actions))

    def test_missing_spawn_in_lookup_miss_rejected(self):
        info, state = registry_run(["fresh-key"])
        actions = [
            a for a in state.trace.chronological()
            if not (hasattr(a, "comp") and a.comp.ctype == "Cell"
                    and type(a).__name__ == "ASpawn")
        ]
        assert not AbstractionChecker(info).accepts(Trace(actions))


class TestCallReplay:
    def make_call_program(self):
        from repro.lang import STR
        from repro.lang.builder import (
            ProgramBuilder, call, eq, ite, lit, name, send, spawn,
        )

        b = ProgramBuilder("caller")
        b.component("A", "a.py")
        b.message("Go", STR)
        b.message("Out", STR)
        b.init(spawn("X", "A"))
        b.handler("A", "Go", ["x"],
                  call("r", "lookup_dns", name("x")),
                  ite(eq(name("r"), lit("ok")),
                      send(name("X"), "Out", name("r"))))
        return b.build_validated()

    def run_with_result(self, result):
        info = self.make_call_program()
        world = World()
        world.register_call("lookup_dns", lambda args, rng: result)
        interp = Interpreter(info, world)
        state = interp.run_init()
        world.stimulate(state.comps[0], "Go", "host")
        interp.run(state)
        return info, state

    def test_both_branch_outcomes_accepted(self):
        for result in ("ok", "nope"):
            info, state = self.run_with_result(result)
            assert AbstractionChecker(info).accepts(state.trace)

    def test_result_branch_consistency_enforced(self):
        """A trace claiming result "nope" but still showing the guarded
        send is not a behavior of the program."""
        info, state = self.run_with_result("ok")
        actions = list(state.trace.chronological())
        for i, action in enumerate(actions):
            if isinstance(action, ACall):
                actions[i] = ACall(action.func, action.args, VStr("nope"))
        assert not AbstractionChecker(info).accepts(Trace(actions))

    def test_call_args_checked(self):
        info, state = self.run_with_result("ok")
        actions = list(state.trace.chronological())
        for i, action in enumerate(actions):
            if isinstance(action, ACall):
                actions[i] = ACall(action.func, (vstr("forged"),),
                                   action.result)
        assert not AbstractionChecker(info).accepts(Trace(actions))
