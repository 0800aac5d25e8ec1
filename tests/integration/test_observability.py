"""End-to-end observability: traces out of `verify`, reports out of
`repro report`, and the flight recorder's causal order under chaos.

A traced verify run must produce a well-formed span tree and a
Perfetto-loadable trace, the report must name the slowest obligation,
and a violating chaos run must leave a JSONL log whose events read
injected fault → supervisor action → monitor violation, in that order.
"""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.frontend import parse_program
from repro.harness.utility import buggy_car_source
from repro.obs.export import validate_trace_tree
from repro.runtime.faults import FaultPlan, FaultSpec, FaultyWorld
from repro.runtime.monitor import MonitoredInterpreter
from repro.runtime.supervisor import SupervisedInterpreter, Supervisor
from repro.runtime.world import World
from repro.systems import car


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One `verify ssh2` run with every output enabled, shared by the
    assertions below."""
    out = tmp_path_factory.mktemp("obs-run")
    run_json = out / "run.json"
    trace_json = out / "trace.json"
    events_jsonl = out / "events.jsonl"
    import contextlib
    import io

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = main([
            "verify", "ssh2",
            "--trace-out", str(trace_json),
            "--events-out", str(events_jsonl),
            "--json",
        ])
    run_json.write_text(stdout.getvalue())
    return {
        "status": status,
        "run_json": str(run_json),
        "trace_json": str(trace_json),
        "events_jsonl": str(events_jsonl),
        "payload": json.loads(stdout.getvalue()),
    }


class TestVerifyTrace:
    """`verify ssh2 --trace-out --events-out` — the tracing acceptance."""

    def test_run_succeeds_and_embeds_telemetry(self, traced_run):
        assert traced_run["status"] == 0
        payload = traced_run["payload"]
        assert payload["all_proved"] is True
        assert "trace" in payload["telemetry"]

    def test_span_tree_nests_correctly(self, traced_run):
        trace = traced_run["payload"]["telemetry"]["trace"]
        assert validate_trace_tree(trace) == []
        names = {span["name"] for span in trace["spans"]}
        assert {"verify", "property", "obligation", "search",
                "check"} <= names

    def test_chrome_trace_file_is_perfetto_loadable(self, traced_run):
        with open(traced_run["trace_json"], encoding="utf-8") as handle:
            chrome = json.load(handle)
        events = chrome["traceEvents"]
        assert any(e["ph"] == "X" and e["name"] == "obligation"
                   for e in events)
        tracks = {e["args"]["name"] for e in events
                  if e["ph"] == "M" and e["name"] == "thread_name"}
        assert tracks == {"main"}

    def test_events_jsonl_records_obligation_lifecycles(self, traced_run):
        records = obs.read_jsonl(traced_run["events_jsonl"])
        kinds = {record["kind"] for record in records}
        assert "obligation.start" in kinds
        assert "obligation.finish" in kinds
        finishes = [r for r in records if r["kind"] == "obligation.finish"]
        assert all(r["verdict"] == "ok" for r in finishes)
        assert [r["seq"] for r in records] == list(range(len(records)))


class TestReportCommand:
    """`repro report <run.json>` — the reporting acceptance."""

    def test_report_names_slowest_obligation(self, traced_run, capsys):
        assert main(["report", traced_run["run_json"]]) == 0
        out = capsys.readouterr().out
        telemetry = traced_run["payload"]["telemetry"]
        slowest = max(
            (span for span in telemetry["trace"]["spans"]
             if span["name"] == "obligation"),
            key=lambda span: span["seconds"],
        )
        assert slowest["attrs"]["property"] in out
        assert "slowest obligations" in out

    def test_report_rejects_a_payload_without_telemetry(
            self, tmp_path, capsys):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"program": "ssh2"}))
        assert main(["report", str(path)]) == 2
        assert "no telemetry" in capsys.readouterr().err

    def test_report_flags_a_malformed_trace_tree(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({
            "telemetry": {
                "counters": {},
                "trace": {
                    "run_id": "x",
                    "spans": [{
                        "name": "orphan", "span_id": "2",
                        "parent_id": "404", "start": 0.0,
                        "seconds": 0.1, "attrs": {},
                    }],
                },
            },
        }))
        assert main(["report", str(path)]) == 1
        assert "unknown parent" in capsys.readouterr().err


class TestChaosFlightRecorder:
    """A violating chaos run leaves a causally ordered JSONL log."""

    def test_fault_supervisor_violation_in_causal_order(self, tmp_path):
        """Drive the buggy car kernel to its NoLockAfterCrash violation
        under an injected crash: the flight recorder must show
        fault.injected → supervisor.crash → monitor.violation in
        emission (seq) order."""
        source, _ = buggy_car_source()
        spec = parse_program(source)
        prop = spec.property_named("NoLockAfterCrash")
        path = str(tmp_path / "chaos.jsonl")
        sink = obs.Telemetry(events=True)
        sink.events.bind(path)
        # One scheduled crash against slot 1 (Brakes), firing on the
        # first interpreter step — before the violating exchange.
        plan = FaultPlan([FaultSpec(step=0, kind="crash", target=1)],
                         seed=0)
        with obs.use(sink):
            world = FaultyWorld(World(seed=0), plan)
            car.register_components(world)
            supervisor = Supervisor(world)
            interp = SupervisedInterpreter(spec.info, world,
                                           supervisor=supervisor)
            monitored = MonitoredInterpreter(spec, world,
                                             interpreter=interp,
                                             properties=[prop])
            state = monitored.run_init()
            comps = {c.ctype: c for c in world.components()}
            # The buggy kernel forgets `crashed = true`, so a LockReq
            # after the crash still locks the doors: the violation.
            world.stimulate(comps["Engine"], "Crash")
            monitored.run(state, max_steps=50)
            world.stimulate(comps["Radio"], "LockReq")
            monitored.run(state, max_steps=50)
            obs.flush_events()
        assert monitored.monitor.violations, \
            "the buggy kernel should violate NoLockAfterCrash"
        records = obs.read_jsonl(path)
        firsts = {}
        for record in records:
            firsts.setdefault(record["kind"], record["seq"])
        for kind in ("fault.injected", "supervisor.crash",
                     "monitor.violation"):
            assert kind in firsts, f"missing {kind} in {sorted(firsts)}"
        assert firsts["fault.injected"] < firsts["supervisor.crash"] \
            < firsts["monitor.violation"]
        injected = next(r for r in records
                        if r["kind"] == "fault.injected")
        crashed = next(r for r in records
                       if r["kind"] == "supervisor.crash")
        assert injected["fault"] == "crash"
        assert crashed["comp"] == injected["comp"]
        violation = next(r for r in records
                         if r["kind"] == "monitor.violation")
        assert violation["property"] == "NoLockAfterCrash"

    def test_chaos_cli_writes_the_flight_recorder(self, tmp_path, capsys):
        path = str(tmp_path / "chaos.jsonl")
        status = main([
            "chaos", "--kernel", "car", "--schedules", "2",
            "--rounds", "4", "--faults", "3", "--max-steps", "60",
            "--events-out", path,
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "flight recorder written" in out
        records = obs.read_jsonl(path)
        kinds = {record["kind"] for record in records}
        assert "chaos.episode.start" in kinds
        assert "chaos.episode.end" in kinds
        assert "fault.injected" in kinds
