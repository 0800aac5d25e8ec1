#!/usr/bin/env python3
"""The benchmark's launcher for ``repro serve``.

    python3 perfbench/daemon.py --store DIR --port-file FILE [--trace-out FILE]

Runs ``repro serve --store DIR --port-file FILE`` in this process, on an
ephemeral localhost port.  With ``--trace-out`` it first installs the
layer wrappers of :mod:`perfbench.layers`, and writes what they recorded
to that file once the daemon has shut down.  The timed and the traced
runs both start the daemon through this launcher, so the wrappers are
the only difference between them.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="start repro serve for the benchmark")
    parser.add_argument("--store", required=True,
                        help="proof store directory")
    parser.add_argument("--port-file", required=True,
                        help="where the daemon writes its address")
    parser.add_argument("--trace-out", default=None,
                        help="trace the layers and write the spans here "
                             "at shutdown")
    args = parser.parse_args(argv)
    # The program comes from this checkout's src/, the wrappers from the
    # perfbench package; this script's own directory leaves the path.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    tracer = None
    if args.trace_out is not None:
        from perfbench.layers import Tracer

        tracer = Tracer()
        tracer.install()
    from repro.cli import main as repro_main

    status = repro_main(["serve", "--port", "0", "--store", args.store,
                         "--port-file", args.port_file])
    if tracer is not None:
        tracer.uninstall()
        tracer.write(Path(args.trace_out))
    return status


if __name__ == "__main__":
    sys.exit(main())
