"""The ``repro`` command-line interface.

The pushbutton workflow of the paper as a tool::

    python -m repro verify kernel.rfx          # prove every property
    python -m repro verify kernel.rfx -p Name  # one property
    python -m repro verify car                 # builtin kernel by name
    python -m repro verify car --profile --json  # spans + counters, JSON
    python -m repro verify ssh2 --trace-out t.json  # Perfetto trace
    python -m repro check kernel.rfx           # parse + validate only
    python -m repro fmt kernel.rfx             # canonical formatting
    python -m repro bench --figure6            # regenerate Figure 6
    python -m repro chaos --kernel car         # fault-inject + monitor
    python -m repro chaos --events-out c.jsonl  # + flight-recorder log
    python -m repro soak --kernel car --instances 1000 \\
        --messages 1000000                     # production-scale soak
    python -m repro serve --store proofs/      # warm verification daemon
    python -m repro chaos-serve --seed 0       # fault-inject the daemon
    python -m repro report run.json            # post-mortem text report

Exit status: 0 on success (all requested properties proved / the file is
well-formed), 1 on verification failure, 2 on syntax or validation errors
— suitable for CI gating, which is exactly how the paper's authors used
the automation (re-run on every modification, section 6.3/6.4).  The
``soak`` command additionally distinguishes a resource-watchdog trip
(exit 3) from a property violation (exit 1), so CI can tell a leak from
a soundness failure; ``serve`` likewise reserves exit 3 for a failure to
bind its address, distinct from anything verification-related.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import List, Optional

from . import obs
from .frontend import parse_program, pretty
from .lang.errors import ReflexError
from .obs import export
from .prover import ProverOptions, VerificationReport, Verifier


def _load(path: str):
    """Parse a kernel file; a bare builtin benchmark name (``car``,
    ``browser``, ...) loads the corresponding builtin system."""
    if not os.path.exists(path) and os.sep not in path \
            and not path.endswith(".rfx"):
        from .systems import BENCHMARKS

        module = BENCHMARKS.get(path)
        if module is not None:
            return module.load()
    with open(path, "r", encoding="utf-8") as handle:
        return parse_program(handle.read())


def _cmd_check(args: argparse.Namespace) -> int:
    spec = _load(args.file)
    program = spec.program
    print(
        f"{spec.name}: ok — {len(program.components)} component types, "
        f"{len(program.messages)} message types, "
        f"{len(program.handlers)} handlers, "
        f"{len(spec.properties)} properties"
    )
    return 0


def _cmd_fmt(args: argparse.Namespace) -> int:
    spec = _load(args.file)
    formatted = pretty(spec)
    if args.in_place:
        with open(args.file, "w", encoding="utf-8") as handle:
            handle.write(formatted)
        print(f"formatted {args.file}")
    else:
        sys.stdout.write(formatted)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = _load(args.file)
    options = ProverOptions(
        syntactic_skip=not args.no_skip,
        check_proofs=not args.no_check,
        term_cache=not args.no_term_cache,
        proof_store=args.store,
    )
    verifier = Verifier(spec, options)
    instrumented = args.profile or args.trace_out or args.events_out
    telemetry = obs.Telemetry(
        trace=bool(args.trace_out),
        metrics=True,
        events=bool(args.events_out),
    ) if instrumented else None
    scope = obs.use(telemetry) if telemetry is not None \
        else contextlib.nullcontext()
    with scope:
        if args.property:
            try:
                prop = spec.property_named(args.property)
            except KeyError:
                available = ", ".join(
                    sorted(p.name for p in spec.properties)
                ) or "(none)"
                print(
                    f"error: no property {args.property!r} in "
                    f"{spec.name}; available: {available}",
                    file=sys.stderr,
                )
                return 2
            start = time.perf_counter()
            report = VerificationReport(spec.name, [
                verifier.prove_property(prop)
            ])
            report.wall_seconds = time.perf_counter() - start
        else:
            report = verifier.verify_all()
    if telemetry is not None:
        from .symbolic import cache as symcache

        # End-of-run cache occupancy, reported next to the hit/miss
        # counters (sizes are gauges).
        for name, size in symcache.sizes().items():
            telemetry.incr(name, size)
        if telemetry.metrics is not None:
            for name, ratio in symcache.hit_ratios(
                    telemetry.counters).items():
                telemetry.metrics.gauge(name, ratio)
        notes = sys.stderr if args.json else sys.stdout
        if args.trace_out:
            export.write_chrome_trace(args.trace_out, telemetry.to_dict())
            print(f"trace written to {args.trace_out} "
                  f"(load it at ui.perfetto.dev)", file=notes)
        if args.events_out:
            telemetry.events.write_jsonl(args.events_out)
            print(f"flight recorder written to {args.events_out}",
                  file=notes)
    if args.json:
        payload = report.to_dict()
        if telemetry is not None:
            payload["telemetry"] = telemetry.to_dict()
        print(json.dumps(payload, indent=2))
        return 0 if report.all_proved else 1
    failed = 0
    for result in report.results:
        if args.explain:
            from .prover.explain import explain_result

            print(explain_result(result))
            print()
            if not result.proved:
                failed += 1
            continue
        print(result)
        if not result.proved:
            failed += 1
            if result.counterexample is not None and args.counterexample:
                print(result.counterexample)
    total = len(report.results)
    print(f"{total - failed}/{total} properties proved")
    if telemetry is not None and args.profile:
        print(telemetry.render())
    return 0 if failed == 0 else 1


def _validate_ranges(*checks: tuple) -> Optional[str]:
    """Range-check CLI integers/floats; each check is ``(flag, value,
    low, high)`` with ``None`` bounds open.  Returns the first complaint
    (for exit status 2) or ``None``."""
    for flag, value, low, high in checks:
        if low is not None and value < low:
            return f"{flag} must be >= {low}, got {value}"
        if high is not None and value > high:
            return f"{flag} must be <= {high}, got {value}"
    return None


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .harness import chaos

    try:
        chaos.chaos_kernel_names(args.kernel)
    except KeyError:
        from .systems import BENCHMARKS

        print(
            f"error: unknown kernel {args.kernel!r}; choose one of "
            f"{', '.join(BENCHMARKS)} or 'all'",
            file=sys.stderr,
        )
        return 2
    complaint = _validate_ranges(
        ("--schedules", args.schedules, 1, None),
        ("--rounds", args.rounds, 1, None),
        ("--faults", args.faults, 0, None),
        ("--max-steps", args.max_steps, 1, None),
    )
    if complaint is not None:
        print(f"error: {complaint}", file=sys.stderr)
        return 2
    telemetry = obs.Telemetry(
        metrics=bool(args.profile),
        events=bool(args.events_out),
    ) if (args.profile or args.events_out) else None
    if telemetry is not None and args.events_out:
        # Bind before the run: the harness flushes once per episode, so
        # a crash mid-sweep still leaves a post-mortem log on disk.
        telemetry.events.bind(args.events_out)
    scope = obs.use(telemetry) if telemetry is not None \
        else contextlib.nullcontext()
    with scope:
        reports = chaos.run_chaos(
            kernel=args.kernel,
            schedules=args.schedules,
            seed=args.seed,
            rounds=args.rounds,
            faults=args.faults,
            max_steps=args.max_steps,
        )
    if telemetry is not None and args.events_out:
        telemetry.events.flush()
        print(f"flight recorder written to {args.events_out}",
              file=sys.stderr if args.json else sys.stdout)
    if args.json:
        payload = {"reports": [r.to_dict() for r in reports]}
        if telemetry is not None:
            payload["telemetry"] = telemetry.to_dict()
        print(json.dumps(payload, indent=2))
    else:
        print(chaos.render_chaos(reports))
        if telemetry is not None and args.profile:
            print(telemetry.render())
    return 0 if all(r.ok for r in reports) else 1


def _cmd_soak(args: argparse.Namespace) -> int:
    from .harness import soak
    from .systems import BENCHMARKS

    if args.kernel not in BENCHMARKS:
        print(
            f"error: unknown kernel {args.kernel!r}; choose one of "
            f"{', '.join(BENCHMARKS)}",
            file=sys.stderr,
        )
        return 2
    complaint = _validate_ranges(
        ("--instances", args.instances, 1, None),
        ("--messages", args.messages, 1, None),
        ("--sample-rate", args.sample_rate, 0.0, 1.0),
        ("--escalation-window", args.escalation_window, 1, None),
        ("--trace-capacity", args.trace_capacity, 1, None),
        ("--quantum", args.quantum, 1, None),
    )
    if complaint is None and args.max_rss_mb is not None:
        complaint = _validate_ranges(
            ("--max-rss-mb", args.max_rss_mb, 1, None),
        )
    if complaint is not None:
        print(f"error: {complaint}", file=sys.stderr)
        return 2
    telemetry = obs.Telemetry(
        metrics=bool(args.profile),
        events=bool(args.events_out),
    ) if (args.profile or args.events_out) else None
    if telemetry is not None and args.events_out:
        # Bind before the run: the harness flushes and compacts once
        # per round, so a crash mid-soak still leaves a log on disk.
        telemetry.events.bind(args.events_out)
    scope = obs.use(telemetry) if telemetry is not None \
        else contextlib.nullcontext()
    with scope:
        report = soak.run_soak(
            kernel=args.kernel,
            instances=args.instances,
            messages=args.messages,
            seed=args.seed,
            sample_rate=args.sample_rate,
            escalation_window=args.escalation_window,
            trace_capacity=args.trace_capacity,
            quantum=args.quantum,
            max_rss_mb=args.max_rss_mb,
            snapshot_out=args.snapshot_out,
        )
    if telemetry is not None and args.events_out:
        telemetry.events.flush()
        print(f"flight recorder written to {args.events_out}",
              file=sys.stderr if args.json else sys.stdout)
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.report_out}",
              file=sys.stderr if args.json else sys.stdout)
    if args.json:
        payload = report.to_dict()
        if telemetry is not None and args.profile:
            payload["telemetry"] = telemetry.to_dict()
        print(json.dumps(payload, indent=2))
    else:
        print(soak.render_soak(report))
        if telemetry is not None and args.profile:
            print(telemetry.render())
    return soak.exit_code(report)


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .serve import ServeOptions, VerificationServer

    complaint = _validate_ranges(
        ("--port", args.port, 0, 65535),
        ("--max-intern-terms", args.max_intern_terms, 1, None),
        ("--max-queued", args.max_queued, 1, None),
        ("--session-inflight", args.session_inflight, 1, None),
        ("--breaker-threshold", args.breaker_threshold, 1, None),
    )
    if complaint is None and args.breaker_cooldown <= 0:
        complaint = (f"--breaker-cooldown must be > 0, "
                     f"got {args.breaker_cooldown}")
    if complaint is None and args.sample_interval <= 0:
        complaint = (f"--sample-interval must be > 0, "
                     f"got {args.sample_interval}")
    if complaint is None and (args.slo_p99_ms is not None
                              and args.slo_p99_ms <= 0):
        complaint = f"--slo-p99-ms must be > 0, got {args.slo_p99_ms}"
    if complaint is not None:
        print(f"error: {complaint}", file=sys.stderr)
        return 2
    options = ServeOptions(
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        store=args.store,
        max_intern_terms=args.max_intern_terms,
        stats_out=args.stats_out,
        events_out=args.events_out,
        max_queued=args.max_queued,
        session_inflight=args.session_inflight,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        sample_interval=args.sample_interval,
        slo_p99_ms=args.slo_p99_ms,
    )
    server = VerificationServer(options)
    try:
        server.start()
    except OSError as error:
        # Distinct from a verification failure (1) and from bad usage
        # (2): CI tells "the port was taken" apart from "a proof broke".
        print(f"error: cannot bind {args.socket or args.host}: {error}",
              file=sys.stderr)
        return 3
    # SIGTERM (systemd stop, container runtime, CI cleanup) drains
    # gracefully: stop accepting, finish the batch in flight, shed the
    # rest with terminal frames, flush artifacts, exit 0.  shutdown()
    # is signal-safe here — it only sets events and closes the listener.
    signal.signal(signal.SIGTERM, lambda signum, frame: server.shutdown())
    address = server.address_str
    if args.port_file:
        # Written atomically so a watcher never reads a half-written
        # address (the CI smoke job polls this file for the bound port).
        tmp = f"{args.port_file}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(address + "\n")
        os.replace(tmp, args.port_file)
    print(f"serving on {address}", flush=True)
    try:
        server.wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    print("daemon stopped", flush=True)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from .serve.top import run_top

    if args.interval <= 0:
        print(f"error: --interval must be > 0, got {args.interval}",
              file=sys.stderr)
        return 2
    if args.iterations is not None and args.iterations < 1:
        print(f"error: --iterations must be >= 1, got {args.iterations}",
              file=sys.stderr)
        return 2
    if args.window is not None and args.window <= 0:
        print(f"error: --window must be > 0, got {args.window}",
              file=sys.stderr)
        return 2
    return run_top(args.connect, interval=args.interval,
                   iterations=args.iterations, window=args.window)


def _cmd_chaos_serve(args: argparse.Namespace) -> int:
    from .harness import chaos_serve

    if args.list:
        for name in chaos_serve.SCENARIO_NAMES:
            print(name)
        return 0
    names = (None if args.scenarios == "all"
             else [name.strip() for name in args.scenarios.split(",")
                   if name.strip()])
    try:
        report = chaos_serve.run_chaos_serve(names, seed=args.seed)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.report_out}",
              file=sys.stderr if args.json else sys.stdout)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(chaos_serve.render_chaos_serve(report))
    return 0 if report.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    payload = export.load_run(args.run)
    telemetry = payload.get("telemetry", payload)
    if not isinstance(telemetry, dict) or not any(
            key in telemetry for key in ("counters", "spans", "trace")):
        print(
            f"error: {args.run} carries no telemetry; produce it with "
            f"'repro verify --json' plus --profile, --trace-out or "
            f"--events-out",
            file=sys.stderr,
        )
        return 2
    print(export.render_report(payload))
    trace = telemetry.get("trace")
    if trace:
        complaints = export.validate_trace_tree(trace)
        if complaints:
            print(f"\ntrace tree malformed "
                  f"({len(complaints)} complaint(s)):", file=sys.stderr)
            for complaint in complaints:
                print(f"  {complaint}", file=sys.stderr)
            return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .harness import (
        ablation, effort, figure6, mutation, soundness, table1, utility,
    )

    ran = False
    if args.mutation or args.all:
        print(mutation.render_mutation(mutation.run_mutation()))
        ran = True
    if args.figure6 or args.all:
        if args.profile:
            rows, profiles = figure6.run_figure6_profiled()
            print(figure6.render_figure6(rows))
            print(figure6.render_profiles(profiles))
        else:
            print(figure6.render_figure6(figure6.run_figure6()))
        ran = True
    if args.table1 or args.all:
        print(table1.render_table1(table1.run_table1()))
        ran = True
    if args.utility or args.all:
        print(utility.render_utility(utility.run_utility()))
        ran = True
    if args.ablation or args.all:
        print(ablation.render_ablation(ablation.run_ablation()))
        ran = True
    if args.runtime or args.all:
        print(ablation.render_runtime_ablation(
            ablation.run_runtime_ablation()))
        ran = True
    if args.effort or args.all:
        print(effort.render_effort(effort.run_effort()))
        ran = True
    if args.soundness or args.all:
        print(soundness.render_soundness(soundness.run_soundness()))
        ran = True
    if not ran:
        print("nothing selected; see --help", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the `repro` tool."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="REFLEX reproduction: verify reactive-system kernels "
                    "with zero manual proof effort",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and validate a kernel")
    check.add_argument("file")
    check.set_defaults(func=_cmd_check)

    fmt = sub.add_parser("fmt", help="pretty-print a kernel canonically")
    fmt.add_argument("file")
    fmt.add_argument("-i", "--in-place", action="store_true")
    fmt.set_defaults(func=_cmd_fmt)

    verify = sub.add_parser("verify", help="prove a kernel's properties")
    verify.add_argument("file",
                        help="a kernel file or builtin benchmark name")
    verify.add_argument("-p", "--property", help="verify one property")
    verify.add_argument("--no-check", action="store_true",
                        help="skip re-validation of derivations")
    verify.add_argument("--no-skip", action="store_true",
                        help="disable the syntactic skip optimization")
    verify.add_argument("--no-term-cache", action="store_true",
                        help="disable the simplify and DNF memos and the "
                             "solver query and prefix caches (terms are "
                             "still interned)")
    verify.add_argument("-c", "--counterexample", action="store_true",
                        help="print candidate counterexamples on failure")
    verify.add_argument("-e", "--explain", action="store_true",
                        help="narrate each proof (or failure) in prose")
    verify.add_argument("--profile", action="store_true",
                        help="collect and report spans and counters")
    verify.add_argument("--trace-out", metavar="FILE",
                        help="write a Chrome trace-event JSON of the run "
                             "(hierarchical spans; load at "
                             "ui.perfetto.dev)")
    verify.add_argument("--events-out", metavar="FILE",
                        help="write the flight-recorder event log as "
                             "JSON Lines")
    verify.add_argument("--json", action="store_true",
                        help="emit the report (and profile) as JSON")
    verify.add_argument("--store", metavar="DIR",
                        help="persistent proof store directory")
    verify.set_defaults(func=_cmd_verify)

    chaos = sub.add_parser(
        "chaos",
        help="fault-inject the kernels and check verified properties hold",
    )
    chaos.add_argument("--kernel", default="all",
                       help="a builtin benchmark name, or 'all'")
    chaos.add_argument("--schedules", type=int, default=25,
                       help="seeded fault schedules per kernel")
    chaos.add_argument("--seed", type=int, default=0,
                       help="master seed; fixes every schedule and report")
    chaos.add_argument("--rounds", type=int, default=10,
                       help="stimulus rounds per schedule")
    chaos.add_argument("--faults", type=int, default=6,
                       help="injected fault events per schedule")
    chaos.add_argument("--max-steps", type=int, default=300,
                       help="exchange cap per stimulus round")
    chaos.add_argument("--profile", action="store_true",
                       help="collect and report fault-coverage counters")
    chaos.add_argument("--events-out", metavar="FILE",
                       help="write the flight-recorder event log (fault "
                            "injections, supervisor actions, monitor "
                            "violations) as JSON Lines, flushed once "
                            "per episode")
    chaos.add_argument("--json", action="store_true",
                       help="emit the reports (and profile) as JSON")
    chaos.set_defaults(func=_cmd_chaos)

    soak = sub.add_parser(
        "soak",
        help="soak a fleet of multiplexed kernel instances under phased "
             "fault storms with sampled monitoring",
    )
    soak.add_argument("--kernel", default="car",
                      help="a builtin benchmark name")
    soak.add_argument("--instances", type=int, default=100,
                      help="kernel instances multiplexed in-process")
    soak.add_argument("--messages", type=int, default=10_000,
                      help="total exchanges to soak through")
    soak.add_argument("--seed", type=int, default=0,
                      help="master seed; fixes the whole fleet and the "
                           "report bit for bit")
    soak.add_argument("--sample-rate", type=float, default=0.05,
                      help="fraction of instances under full online "
                           "monitoring (others escalate on suspicion)")
    soak.add_argument("--escalation-window", type=int, default=256,
                      help="boundaries an escalated instance stays fully "
                           "checked after its last suspicion signal")
    soak.add_argument("--trace-capacity", type=int, default=256,
                      help="ghost-trace ring capacity per instance")
    soak.add_argument("--quantum", type=int, default=8,
                      help="fair-share exchange quantum per turn")
    soak.add_argument("--max-rss-mb", type=int, default=None,
                      help="watchdog ceiling on peak process RSS (MiB)")
    soak.add_argument("--events-out", metavar="FILE",
                      help="write the flight-recorder event log as JSON "
                           "Lines, flushed and compacted once per round")
    soak.add_argument("--report-out", metavar="FILE",
                      help="write the canonical JSON report (bit-for-bit "
                           "reproducible for a fixed seed)")
    soak.add_argument("--snapshot-out", metavar="FILE",
                      help="write a forensic JSON snapshot on the first "
                           "violation or watchdog trip")
    soak.add_argument("--profile", action="store_true",
                      help="collect and report fleet counters")
    soak.add_argument("--json", action="store_true",
                      help="emit the report (and profile) as JSON")
    soak.set_defaults(func=_cmd_soak)

    from .serve import housekeeping as serve_defaults

    serve = sub.add_parser(
        "serve",
        help="run the warm verification daemon (verification as a "
             "service; see docs/serve.md)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind host (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP bind port (default 0 = ephemeral; the "
                            "bound port is printed and --port-file'd)")
    serve.add_argument("--socket", metavar="PATH", default=None,
                       help="serve on a UNIX socket instead of TCP")
    serve.add_argument("--store", metavar="DIR", default=None,
                       help="persistent proof store directory shared by "
                            "every session")
    serve.add_argument("--max-intern-terms", type=int,
                       default=serve_defaults.DEFAULT_MAX_INTERN_TERMS,
                       help="intern-table budget before a cache "
                            "generation is collected")
    serve.add_argument("--stats-out", metavar="FILE", default=None,
                       help="write the aggregated run payload here after "
                            "every batch (readable by 'repro report')")
    serve.add_argument("--events-out", metavar="FILE", default=None,
                       help="bind the daemon flight recorder to this "
                            "JSON Lines file")
    serve.add_argument("--port-file", metavar="FILE", default=None,
                       help="write the bound address here once listening "
                            "(for scripts using an ephemeral port)")
    from .serve import admission as serve_admission
    from .serve import breaker as serve_breaker

    serve.add_argument("--max-queued", type=int,
                       default=serve_admission.DEFAULT_MAX_QUEUED,
                       help="daemon-wide cap on admitted, unanswered "
                            "submissions; past it submits are shed with "
                            "an 'overloaded' frame")
    serve.add_argument("--session-inflight", type=int,
                       default=serve_admission.DEFAULT_SESSION_INFLIGHT,
                       help="per-session in-flight submission cap")
    serve.add_argument("--breaker-threshold", type=int,
                       default=serve_breaker.DEFAULT_THRESHOLD,
                       help="consecutive backend failures before the "
                            "circuit breaker opens")
    serve.add_argument("--breaker-cooldown", type=float,
                       default=serve_breaker.DEFAULT_COOLDOWN,
                       help="seconds an open breaker waits before its "
                            "half-open trial verification")
    serve.add_argument("--sample-interval", type=float, default=1.0,
                       help="rolling time-series sampling interval in "
                            "seconds (default 1.0)")
    serve.add_argument("--slo-p99-ms", type=float, default=None,
                       help="p99 verify-latency objective in ms for the "
                            "health verdict (default: no SLO)")
    serve.set_defaults(func=_cmd_serve)

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over a running serve daemon "
             "(rolling rates, latency quantiles, health checks)",
    )
    top.add_argument("connect", metavar="ADDR",
                     help="daemon address (host:port or socket path)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between polls (default 2.0)")
    top.add_argument("--iterations", type=int, default=None,
                     help="stop after this many polls (default: run "
                          "until interrupted); with 1 this is a "
                          "human-friendly health probe")
    top.add_argument("--window", type=float, default=None,
                     help="rolling-window horizon in seconds the "
                          "daemon reports over (default: everything "
                          "retained)")
    top.set_defaults(func=_cmd_top)

    chaos_serve = sub.add_parser(
        "chaos-serve",
        help="fault-inject a live serve daemon (deadline overrun, "
             "disk-full, disconnects, malformed frames, floods)",
    )
    chaos_serve.add_argument("--scenarios", default="all",
                             help="comma-separated scenario names, or "
                                  "'all' (see --list)")
    chaos_serve.add_argument("--list", action="store_true",
                             help="print the scenario names and exit")
    chaos_serve.add_argument("--seed", type=int, default=0,
                             help="master seed (reports are bit-for-bit "
                                  "reproducible per seed)")
    chaos_serve.add_argument("--report-out", metavar="FILE", default=None,
                             help="write the sweep report JSON here")
    chaos_serve.add_argument("--json", action="store_true",
                             help="print the report as JSON instead of "
                                  "the table")
    chaos_serve.set_defaults(func=_cmd_chaos_serve)

    report = sub.add_parser(
        "report",
        help="render the post-mortem text report for a saved run",
    )
    report.add_argument("run",
                        help="a 'repro verify --json' payload (or bare "
                             "telemetry dict) saved to disk")
    report.set_defaults(func=_cmd_report)

    bench = sub.add_parser("bench",
                           help="regenerate the paper's tables/figures")
    for flag in ("figure6", "table1", "utility", "ablation", "runtime",
                 "effort", "soundness", "mutation", "all"):
        bench.add_argument(f"--{flag}", action="store_true")
    bench.add_argument("--profile", action="store_true",
                       help="add per-benchmark pipeline breakdowns")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReflexError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
