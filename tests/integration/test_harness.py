"""The evaluation harness must regenerate every table/figure with the
paper's shape claims intact (the quantitative reproduction contract)."""

import time
from dataclasses import replace

import pytest

from repro.harness import ablation, effort, figure6, table1, utility
from repro.prover import ProverOptions, Verifier


class TestFigure6:
    @pytest.fixture(scope="class")
    def rows(self):
        """Each row with its best time over three runs, so one host
        stall cannot make a sub-millisecond trace row outlast an NI
        row."""
        runs = [figure6.run_figure6(ProverOptions(check_proofs=False))
                for _ in range(3)]
        best = []
        for same in zip(*runs):
            assert len({(r.benchmark, r.property_name, r.proved)
                        for r in same}) == 1
            best.append(replace(
                same[0], our_seconds=min(r.our_seconds for r in same)))
        return best

    def test_41_rows(self, rows):
        assert len(rows) == 41

    def test_all_proved(self, rows):
        assert all(r.proved for r in rows)

    def test_paper_names_all_resolved(self, rows):
        assert {r.benchmark for r in rows} == {
            "car", "browser", "browser2", "browser3", "ssh", "ssh2",
            "webserver",
        }

    def test_shape_checks_pass(self, rows):
        for line in figure6.shape_checks(rows):
            assert "FAIL" not in line, line

    def test_render(self, rows):
        rendered = figure6.render_figure6(rows)
        assert "41/41" in rendered
        assert "Succesful login enables pseudo-terminal creation" in rendered

    def test_rows_exclude_the_step_build(self, monkeypatch):
        """No row pays for building its benchmark's symbolic step."""
        delay = 0.3
        build = Verifier._build_step

        def slow_build(verifier):
            time.sleep(delay)
            return build(verifier)

        monkeypatch.setattr(Verifier, "_build_step", slow_build)
        rows = figure6.run_figure6(ProverOptions(check_proofs=False))
        slowest = max(rows, key=lambda row: row.our_seconds)
        assert slowest.our_seconds < delay, (
            f"{slowest.benchmark}/{slowest.property_name} took "
            f"{slowest.our_seconds:.3f}s"
        )


class TestTable1:
    def test_rows_cover_benchmarks(self):
        rows = table1.run_table1()
        assert len(rows) == 7

    def test_kernels_are_small(self):
        for row in table1.run_table1():
            assert row.kernel_loc < 100, (
                f"{row.benchmark}: REFLEX kernels are tens of lines"
            )
            assert row.properties_loc < 50

    def test_split_source_partitions(self):
        from repro.systems import ssh

        parts = table1.split_source(ssh.SOURCE)
        assert "handlers" in parts["kernel"]
        assert "AuthBeforeTerm" in parts["properties"]
        assert "AuthBeforeTerm" not in parts["kernel"]

    def test_render(self):
        rendered = table1.render_table1(table1.run_table1())
        assert "970,240" in rendered  # the paper's browser component size


class TestUtility:
    def test_all_scenarios_reproduced(self):
        outcomes = utility.run_utility()
        assert all(o.reproduced for o in outcomes)
        rendered = utility.render_utility(outcomes)
        assert "PASS" in rendered


class TestEffort:
    def test_roles_counted(self):
        rows = effort.run_effort()
        assert {r.role for r in rows} == set(effort.PAPER_EFFORT)
        assert all(r.our_loc > 0 for r in rows)

    def test_tactics_are_untrusted_bulk(self):
        rows = {r.role: r for r in effort.run_effort()}
        # sanity of the architecture claim: the tactics analog is a
        # substantial body of code, comparable to the paper's 1768 loc
        assert rows["proof-automation tactics"].our_loc > 800


class TestAblation:
    def test_configurations_all_prove(self):
        # run_ablation raises if any configuration changes a verdict
        rows = ablation.run_ablation()
        assert len(rows) == 7
        rendered = ablation.render_ablation(rows)
        assert "speedup" in rendered
