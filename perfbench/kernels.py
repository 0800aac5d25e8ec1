"""The kernels the benchmark verifies.

Every kernel is a frozen source file (``kernels/*.rfx``), so a later
change to a builtin kernel, to a kernel construction or to the pretty-printer
cannot quietly change what is measured.  The seven paper kernels are
copies of the ``repro.systems`` sources as they stood when the
benchmark was defined.  The synthetic kernel ``scale32`` is the
``benchmarks/test_scalability.py`` construction at 32 handler groups,
rendered once with ``repro.frontend.pretty``; it goes through the
parser like the others.  At 32 groups it carries about half of a cold
pass, so a gain that shows only at scale moves ``verify_s``, and so does
a gain that shows only on small kernels.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Mapping, Optional

#: The paper kernels, in Figure 6 order.
PAPER_KERNELS = (
    "car", "browser", "browser2", "browser3", "ssh", "ssh2", "webserver",
)
#: Figure 6 proves 41 properties across the seven kernels.
PAPER_PROPERTIES = 41
SYNTHETIC_GROUPS = 32
SYNTHETIC = f"scale{SYNTHETIC_GROUPS}"

_FILES = Path(__file__).resolve().parent / "kernels"


def sources(names: Iterable[str]) -> Dict[str, str]:
    """The concrete source of each named kernel."""
    return {kernel: (_FILES / f"{kernel}.rfx").read_text(encoding="utf-8")
            for kernel in names}


def known_answer_problem(
        verified: Mapping[str, Mapping[str, object]]) -> Optional[str]:
    """Whether the verified kernels carry the known property sets: 41
    across the paper kernels, ``AuthFirst0`` to ``AuthFirst31`` on the
    synthetic kernel.  ``verified`` maps a kernel to its results by
    property name."""
    if all(kernel in verified for kernel in PAPER_KERNELS):
        count = sum(len(verified[kernel]) for kernel in PAPER_KERNELS)
        if count != PAPER_PROPERTIES:
            return (f"the paper kernels carry {count} properties, "
                    f"not {PAPER_PROPERTIES}")
    if SYNTHETIC in verified:
        wanted = {f"AuthFirst{g}" for g in range(SYNTHETIC_GROUPS)}
        if set(verified[SYNTHETIC]) != wanted:
            return (f"{SYNTHETIC} does not carry exactly AuthFirst0 to "
                    f"AuthFirst{SYNTHETIC_GROUPS - 1}")
    return None
