"""The headline reproduction test: every benchmark kernel parses,
validates, and has ALL of its Figure-6 properties proved fully
automatically — 41 properties total, zero manual proof input."""

import pytest

from repro.props import TraceProperty
from repro.prover import Verifier
from repro.systems import BENCHMARKS, load_all, total_property_count

EXPECTED_COUNTS = {
    "car": 8,
    "browser": 6,
    "browser2": 7,
    "browser3": 7,
    "ssh": 5,
    "ssh2": 2,
    "webserver": 6,
}


class TestInventory:
    def test_benchmark_set_matches_figure6(self):
        assert set(BENCHMARKS) == set(EXPECTED_COUNTS)

    @pytest.mark.parametrize("bench_name", sorted(BENCHMARKS))
    def test_property_counts(self, bench_name):
        spec = BENCHMARKS[bench_name].load()
        assert len(spec.properties) == EXPECTED_COUNTS[bench_name]

    def test_total_is_41(self):
        assert total_property_count() == 41

    @pytest.mark.parametrize("bench_name", sorted(BENCHMARKS))
    def test_every_primitive_family_used_somewhere(self, bench_name):
        spec = BENCHMARKS[bench_name].load()
        assert spec.properties  # no empty benchmarks

    def test_primitive_coverage_across_suite(self):
        """Figure 6: 'These properties span every policy primitive.'"""
        used = set()
        for spec in load_all().values():
            for prop in spec.properties:
                if isinstance(prop, TraceProperty):
                    used.add(prop.primitive)
                else:
                    used.add("NoInterference")
        assert used == {
            "Enables", "Ensures", "Disables", "ImmBefore", "ImmAfter",
            "NoInterference",
        }


@pytest.mark.parametrize("bench_name", sorted(BENCHMARKS))
class TestPushbuttonVerification:
    def test_all_properties_proved(self, bench_name):
        spec = BENCHMARKS[bench_name].load()
        report = Verifier(spec).verify_all()
        failures = [r for r in report.results if not r.proved]
        assert not failures, "\n".join(str(r) for r in failures)

    def test_proofs_are_checked(self, bench_name):
        spec = BENCHMARKS[bench_name].load()
        report = Verifier(spec).verify_all()
        assert all(r.checked for r in report.results)

    def test_ni_benchmarks_have_labelings(self, bench_name):
        spec = BENCHMARKS[bench_name].load()
        nis = spec.ni_properties()
        if bench_name in ("car", "browser", "browser2", "browser3"):
            assert nis, f"{bench_name} must carry a NoInterference property"
