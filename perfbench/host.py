"""How fast the host runs plain Python at the moment: the yardstick the
timed metrics are scaled by.

The benchmark runs on a few virtual cores of a shared host.  Other
tenants slow a run down by 20-40%, for stretches longer than a run, and
no statistic over the run's own operations removes that: the whole run
is slow.  So the workloads interleave a fixed probe with their
operations and report each time scaled to a host on which the probe
takes ``REFERENCE_S``::

    scaled = measured * REFERENCE_S / probe time around the measurement

A change to the program moves the measured time and not the probe, so
it moves the scaled time by the same share; a slower host moves both.
The probe is code of the benchmark's own, not of the program, and works
the way the prover does: it hash-conses a random term DAG into a dict,
sizes it through a memo and sorts a slice of it.  It leaves no cyclic
garbage, so it does not shift the collector's work onto the program.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict, List, Sequence, Tuple

#: What one probe takes on the machine the benchmark was written on
#: (a quiet two-vCPU Xeon VM); scaled times read in seconds on it.
REFERENCE_S = 0.010
#: Probes a yardstick takes and drops first, while caches fill.
_WARMUP = 5
_NODES = 700
_LEAVES = 24
_OPS = ("+", "*", "&", "|", "=>")

Node = Tuple[object, ...]


def _node(table: Dict[Node, Node], op: str, left: Node,
          right: Node) -> Node:
    key = (op, left, right)
    found = table.get(key)
    if found is None:
        found = table[key] = key
    return found


def _size(node: Node, memo: Dict[Node, int]) -> int:
    if node[0] == "var":
        return 1
    found = memo.get(node)
    if found is None:
        found = memo[node] = (1 + _size(node[1], memo)
                              + _size(node[2], memo))
    return found


def probe() -> float:
    """The wall time of one fixed piece of term work, in seconds."""
    started = time.perf_counter()
    rng = random.Random(_NODES)
    table: Dict[Node, Node] = {}
    nodes: List[Node] = [("var", f"x{i}", None) for i in range(_LEAVES)]
    for _ in range(_NODES):
        nodes.append(_node(table, rng.choice(_OPS),
                           nodes[rng.randrange(len(nodes))],
                           nodes[rng.randrange(len(nodes))]))
    memo: Dict[Node, int] = {}
    sizes = [_size(node, memo) for node in nodes]
    sorted(nodes[-_NODES // 2:], key=lambda n: (n[0], memo.get(n, 1)))
    if sum(sizes) <= 0:
        raise AssertionError("the probe sized an empty DAG")
    return time.perf_counter() - started


class Yardstick:
    """Probes taken around a run's measurements, and the times those
    measurements scale to."""

    def __init__(self) -> None:
        for _ in range(_WARMUP):
            probe()
        self.probes: List[float] = []

    def mark(self) -> float:
        """Take one probe between two measurements; its time."""
        self.probes.append(probe())
        return self.probes[-1]

    def scale(self, seconds: float, around: Sequence[float]) -> float:
        """``seconds`` measured between the probes ``around``, as it
        reads on the reference host."""
        return seconds * REFERENCE_S / statistics.fmean(around)

    def detail(self) -> str:
        """The probes, as a line of supporting detail."""
        quartiles = statistics.quantiles(self.probes, n=4)
        return (f"host probe: {len(self.probes)} probes, median "
                f"{1000.0 * statistics.median(self.probes):.3f} ms "
                f"(quartiles {1000.0 * quartiles[0]:.3f}-"
                f"{1000.0 * quartiles[2]:.3f}), reference "
                f"{1000.0 * REFERENCE_S:.3f} ms")
