#!/usr/bin/env python3
"""The repository benchmark: cold and warm ``verify``, a daemon edit
loop, and a traced per-layer split.

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  It prints one line per metric,
then, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  It exits 1 when a check fails, and 2, without a
result, on bad usage or where the program's source is missing.  See
``perfbench/README.md``.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify-cold", "verify-warm", "serve-edit")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="run one workload of the repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run traced and report the "
                             "per-layer metrics")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'repro'}; run from "
              f"the root of a checkout of the repository", file=sys.stderr)
        return 2
    # The program comes from this checkout's src/, the benchmark is the
    # perfbench package; this script's own directory leaves the path.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "serve-edit":
        from perfbench import serve_edit as workload
    else:
        from perfbench import verify as workload
    wanted = json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    )["per_layer" if args.trace else "end_to_end"]
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = workload.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for metric in wanted:
        value = outcome.metrics[metric["name"]]
        print(f"  {metric['name']:<30} {value:>14.6g} {metric['unit']}")
    for line in outcome.details:
        print(f"  {line}")
    print(f"  {outcome.attempted} operations attempted, {outcome.failed} "
          f"failed (error rate {outcome.failed / outcome.attempted:g})")
    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            metric["name"]: {"value": outcome.metrics[metric["name"]],
                             "unit": metric["unit"]}
            for metric in wanted
        },
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
