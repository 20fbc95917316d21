"""scripts/bench_pairs.py's summary and claim verdict, on hand-made runs;
no benchmark is started."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DECLARED = {"train_tok_s": {"unit": "tok/s", "better": "higher", "bound": 0.25},
            "pipeline_s": {"unit": "s", "better": "lower", "bound": 0.25}}
# Ten pairs; the parent's runs have an interquartile range of 0.075.
PARENT = [1.0, 1.05, 0.95, 1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0]


def entry(failed_parent=0, failed_change=0, all_correct=True):
    return {"all_correct": all_correct,
            "failed": {"parent": failed_parent, "change": failed_change}}


def verdict(metric, change, at_least=None, **runs):
    row = bench_pairs.summarise(metric, DECLARED, PARENT, change)
    return bench_pairs.claim("lifecycle-cold", 1, metric, row, at_least, entry(**runs))


class TestSummarise:
    def test_higher_better_metric(self):
        row = bench_pairs.summarise("train_tok_s", DECLARED, PARENT, [x * 1.25 for x in PARENT])
        assert row["parent_median"] == 1.0 and row["change_median"] == 1.25
        assert row["change_over_parent_median"] == 1.25
        assert row["parent_iqr"] == pytest.approx(0.075)
        assert row["change_better_pairs"] == 10
        assert row["within_bound"]

    def test_lower_better_metric(self):
        row = bench_pairs.summarise("pipeline_s", DECLARED, PARENT, [x * 0.8 for x in PARENT])
        assert row["change_over_parent_median"] == 0.8
        assert row["change_better_pairs"] == 10
        assert row["within_bound"]
        worse = bench_pairs.summarise("pipeline_s", DECLARED, PARENT, [x * 1.3 for x in PARENT])
        assert worse["change_better_pairs"] == 0
        assert not worse["within_bound"]

    def test_ties_count_for_neither_side(self):
        row = bench_pairs.summarise("train_tok_s", DECLARED, PARENT, list(PARENT))
        assert row["change_better_pairs"] == 0


class TestClaim:
    @pytest.mark.parametrize("metric, factor", [("train_tok_s", 1.25), ("pipeline_s", 0.8)])
    def test_at_least_reads_the_gain_in_the_better_direction(self, metric, factor):
        change = [x * factor for x in PARENT]
        met = verdict(metric, change, at_least=1.2)
        assert met["gain_factor"] == 1.25 and met["met"]
        assert not verdict(metric, change, at_least=1.3)["met"]
        assert verdict(metric, change)["met"]

    @pytest.mark.parametrize("metric, factor", [("train_tok_s", 0.8), ("pipeline_s", 1.25)])
    def test_a_worse_change_meets_no_claim(self, metric, factor):
        result = verdict(metric, [x * factor for x in PARENT], at_least=0.8)
        assert result["gain_factor"] == 0.8
        assert result["change_wins"] == 0 and not result["met"]

    def test_gain_within_the_parents_spread_is_not_met(self):
        # The change wins every pair, by less than the parent's IQR of 0.075.
        result = verdict("train_tok_s", [x + 0.05 for x in PARENT])
        assert result["change_wins"] == 10 and result["median_gain"] < result["parent_iqr"]
        assert not result["met"]

    def test_fewer_than_nine_wins_in_ten_is_not_met(self):
        change = [x * 1.5 for x in PARENT[:8]] + [x * 0.5 for x in PARENT[8:]]
        result = verdict("train_tok_s", change)
        assert result["change_wins"] == 8 and not result["met"]

    @pytest.mark.parametrize("runs", [{"all_correct": False}, {"failed_change": 1},
                                      {"failed_parent": 2, "failed_change": 3}])
    def test_an_incorrect_run_or_more_failures_is_not_met(self, runs):
        result = verdict("train_tok_s", [x * 1.25 for x in PARENT], at_least=1.2, **runs)
        assert not result["met"]
        assert result["all_correct"] is runs.get("all_correct", True)

    def test_failures_no_higher_than_the_parents_may_be_met(self):
        result = verdict("train_tok_s", [x * 1.25 for x in PARENT], at_least=1.2,
                         failed_parent=2, failed_change=2)
        assert result["failed"] == {"parent": 2, "change": 2} and result["met"]
