"""Online-monitor overhead: incremental checking vs. re-scanning.

The :class:`~repro.runtime.monitor.TraceMonitor` does O(1) amortized work
per action per property; the naive alternative re-runs the offline oracle
on the whole trace at every boundary (O(n²) overall).  This benchmark
shows the gap on a long SSH session and measures the monitored
interpreter's overhead over a bare one.
"""

from repro.props import holds
from repro.runtime import (
    Interpreter, MonitoredInterpreter, World,
)
from repro.systems import ssh


def drive(interp_factory, events=120):
    spec = ssh.load()
    world = World(seed=9)
    ssh.register_components(world)
    driver = interp_factory(spec, world)
    state = driver.run_init()
    conn = state.comps[0]
    for i in range(events):
        if i % 3 == 0:
            world.stimulate(conn, "ReqAuth", "alice",
                            ssh.PASSWORD_DB["alice"])
        else:
            world.stimulate(conn, "ReqTerm", "alice")
        driver.run(state)
    return driver, state


def test_bare_interpreter(benchmark):
    def run():
        class Bare:
            def __init__(self, spec, world):
                self.inner = Interpreter(spec.info, world)

            def run_init(self):
                return self.inner.run_init()

            def run(self, state):
                return self.inner.run(state)

        return drive(Bare)

    _driver, state = benchmark(run)
    assert len(state.trace) > 200


def test_monitored_interpreter(benchmark):
    def run():
        return drive(MonitoredInterpreter)

    driver, state = benchmark(run)
    assert driver.monitor.ok


def test_rescan_at_every_boundary(benchmark):
    """The naive O(n²) alternative the monitor replaces."""
    spec = ssh.load()
    props = spec.trace_properties()

    def run():
        class Rescanning:
            def __init__(self, spec, world):
                self.inner = Interpreter(spec.info, world)

            def run_init(self):
                state = self.inner.run_init()
                self._rescan(state)
                return state

            def run(self, state):
                while self.inner.step(state):
                    self._rescan(state)

            def _rescan(self, state):
                for prop in props:
                    assert holds(prop.primitive, prop.a, prop.b,
                                 state.trace)

        return drive(Rescanning)

    benchmark.pedantic(run, rounds=3, iterations=1)
