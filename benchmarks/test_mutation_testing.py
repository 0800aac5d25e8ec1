"""Mutation-testing benchmark: the cost of re-verifying every
single-point mutant of every benchmark kernel, and the resulting kill
table (an extension of the paper's §6.3 utility claim)."""

from repro.harness import mutation


def test_full_mutation_sweep(benchmark, record_table):
    outcomes = benchmark.pedantic(mutation.run_mutation, rounds=1,
                                  iterations=1)
    assert len(outcomes) > 50
    killed = sum(1 for o in outcomes if o.killed)
    # shape: guard/assign mutations dominate the kills; at least a third
    # of all mutants are caught by the pushbutton re-run
    assert killed / len(outcomes) > 0.3
    record_table("mutation", mutation.render_mutation(outcomes))


def test_single_benchmark_mutation(benchmark):
    """Per-kernel mutation cost (ssh: richest property suite)."""

    def run():
        return mutation.score_mutants(mutation.mutants_of("ssh"))

    outcomes = benchmark.pedantic(run, rounds=3, iterations=1)
    assert any(o.killed for o in outcomes)
