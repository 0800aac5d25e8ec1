"""Scalability of the prover in kernel size.

Not a paper figure, but the natural follow-up question to Figure 6: how
does pushbutton verification scale as kernels grow?  Synthetic kernels
with n request/response handler groups (each group: a guarded forward, a
state latch, and a gated response — the SSH idiom; see
``repro.systems.synthetic``) are verified with a representative property
per group size.
"""

import pytest

from repro.prover import Verifier
from repro.systems.synthetic import synthetic_kernel


@pytest.mark.parametrize("groups", [1, 2, 4, 8, 16])
def test_scaling_in_handler_count(benchmark, groups):
    spec = synthetic_kernel(groups)

    def run():
        return Verifier(spec).verify_all()

    report = benchmark(run)
    assert report.all_proved
    benchmark.extra_info["handlers"] = groups * 3
    benchmark.extra_info["properties"] = groups


def test_scaling_is_subquadratic_per_property(benchmark, record_table):
    """With the syntactic skip on, per-property cost should grow mildly
    with unrelated-handler count (most exchanges are skipped), keeping
    total cost roughly quadratic-at-worst in kernel size."""
    import time

    def sweep():
        out = []
        for groups in (2, 4, 8, 16):
            spec = synthetic_kernel(groups)
            start = time.perf_counter()
            report = Verifier(spec).verify_all()
            elapsed = time.perf_counter() - start
            assert report.all_proved
            out.append((groups, elapsed, elapsed / groups))
        return out

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = ["prover scaling (synthetic auth kernels)",
             f"{'groups':>7s} {'total s':>9s} {'s/property':>11s}"]
    for groups, total, per in rows:
        table.append(f"{groups:7d} {total:9.4f} {per:11.5f}")
    # Doubling the kernel should not blow up per-property cost by more
    # than ~the size factor (i.e. total stays ~quadratic or better).
    first_per, last_per = rows[0][2], rows[-1][2]
    assert last_per < first_per * 16
    record_table("scalability", "\n".join(table))
