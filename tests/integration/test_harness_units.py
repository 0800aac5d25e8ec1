"""Unit tests for the harness plumbing itself (the code that regenerates
the paper's tables must be as trustworthy as the results it reports)."""

import random

import pytest

from repro.harness import figure6, ni_testing, soundness, table1
from repro.lang import types as ty
from repro.systems import BENCHMARKS, browser


class TestFigure6Table:
    def test_paper_rows_reference_existing_properties(self):
        for benchmark, prop_name, _desc, seconds in figure6.PAPER_FIGURE6:
            spec = BENCHMARKS[benchmark].load()
            spec.property_named(prop_name)  # KeyError = bad table
            assert seconds > 0

    def test_rows_are_exactly_the_benchmark_properties(self):
        """Every benchmark property appears in Figure 6 exactly once."""
        from collections import Counter

        figure_rows = Counter(
            (benchmark, name)
            for benchmark, name, _d, _s in figure6.PAPER_FIGURE6
        )
        ours = Counter(
            (benchmark, prop.name)
            for benchmark, module in BENCHMARKS.items()
            for prop in module.load().properties
        )
        assert figure_rows == ours

    def test_paper_total_seconds(self):
        # sanity against the transcription: the paper's slowest is 532s
        times = [s for *_rest, s in figure6.PAPER_FIGURE6]
        assert max(times) == 532
        assert len(times) == 41


class TestSoundnessFuzzers:
    @pytest.mark.parametrize("t", [
        ty.STR, ty.NUM, ty.BOOL, ty.FD, ty.tuple_of(ty.STR, ty.NUM),
    ])
    def test_random_values_are_well_typed(self, t):
        from repro.lang.values import type_of

        rng = random.Random(0)
        for _ in range(20):
            assert type_of(soundness.random_value(t, rng)) == t

    def test_random_nums_are_natural(self):
        rng = random.Random(1)
        for _ in range(50):
            value = soundness.random_value(ty.NUM, rng)
            assert value.n >= 0

    def test_fuzz_session_is_seed_deterministic(self):
        a = soundness.fuzz_session("car", seed=3, events=10)
        b = soundness.fuzz_session("car", seed=3, events=10)
        assert a.state.trace == b.state.trace

    def test_fuzz_session_differs_across_seeds(self):
        a = soundness.fuzz_session("car", seed=3, events=10)
        b = soundness.fuzz_session("car", seed=4, events=10)
        assert a.state.trace != b.state.trace


class TestNiTestingHelpers:
    def labeling(self):
        ni = browser.load().property_named("DomainsNoInterfere")
        return ni_testing.concrete_labeling(ni, {"d": "mail.example"})

    def test_concrete_labeling(self):
        from repro.lang.values import ComponentInstance, vnum, vstr

        is_high = self.labeling()
        mail_tab = ComponentInstance(1, "Tab", (vstr("mail.example"),
                                                vnum(0)), 4)
        shop_tab = ComponentInstance(2, "Tab", (vstr("shop.example"),
                                                vnum(1)), 5)
        ui = ComponentInstance(0, "UI", (), 3)
        assert is_high(mail_tab)
        assert not is_high(shop_tab)
        assert is_high(ui)  # the UI pattern has no parameters

    def test_interleave_preserves_shared_order(self):
        shared = [(0, "A", ()), (0, "B", ()), (0, "C", ())]
        low = [(1, "x", ()), (1, "y", ())]
        merged = ni_testing._interleave(shared, low)
        shared_only = [s for s in merged if s in shared]
        assert shared_only == shared
        assert len(merged) == 5

    def test_interleave_appends_leftover_lows(self):
        merged = ni_testing._interleave([(0, "A", ())],
                                        [(1, "x", ()), (1, "y", ())])
        assert merged == [(0, "A", ()), (1, "x", ()), (1, "y", ())]


class TestTable1Accounting:
    def test_counts_skip_comments_and_blanks(self):
        text = "a\n\n# comment\n// note\nb\n"
        assert table1._count_nonblank(text) == 2

    def test_component_loc_positive_for_all(self):
        for module in BENCHMARKS.values():
            assert table1.component_loc(module) > 0

    def test_paper_row_mapping_total(self):
        # all 7 of our benchmarks map onto the paper's 3 sized rows + car
        mapped = [v for v in table1.PAPER_ROW_OF.values() if v]
        assert set(mapped) == set(table1.PAPER_TABLE1)
