"""scripts/bench_pairs.py: summary arithmetic and run order on canned results."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"items_per_s": "higher", "latency_p50_ms": "lower"}
END_TO_END = {"items_per_s": 0.15, "latency_p50_ms": 0.15}  # metric -> bound


def result(items, latency, layer=None, correct=True, failed=0, attempted=100):
    metrics = {
        "items_per_s": {"value": items, "unit": "1/s"},
        "latency_p50_ms": {"value": latency, "unit": "ms"},
    }
    if layer is not None:
        metrics["probe.wall_us"] = {"value": layer, "unit": "us"}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def canned():
    return {
        "parent": [result(10.0, 5.0, 1.0), result(12.0, 6.0, 2.0), result(11.0, 7.0, 3.0)],
        "change": [result(13.0, 5.0, 1.5), result(11.0, 4.0, None, failed=2), result(14.0, 8.0, 2.5)],
    }


class TestSummary:
    def test_medians_quartiles_and_pair_wins(self):
        summary = bench_pairs.summarize(canned(), BETTER, END_TO_END)
        items = summary["end_to_end"]["items_per_s"]
        assert items["parent_runs"] == [10.0, 12.0, 11.0]
        assert items["change_runs"] == [13.0, 11.0, 14.0]
        assert items["parent_median"] == 11.0 and items["change_median"] == 13.0
        # Inclusive quartiles of three values sit halfway to the median.
        assert items["parent_quartiles"] == [10.5, 11.5]
        assert items["change_quartiles"] == [12.0, 13.5]
        assert items["parent_interquartile_range"] == 1.0
        assert items["change_pct"] == 18.18
        assert items["change_better_pairs"] == 2

    def test_lower_is_better_and_ties_do_not_count(self):
        latency = bench_pairs.summarize(canned(), BETTER, END_TO_END)["end_to_end"]["latency_p50_ms"]
        assert latency["change_better_pairs"] == 1  # 4 < 6 wins, 5 = 5 and 8 > 7 do not
        assert latency["change_pct"] == -16.67

    def test_a_missing_value_leaves_its_pair_out(self):
        layer = bench_pairs.summarize(canned(), BETTER, END_TO_END)["per_layer"]["probe.wall_us"]
        assert layer["change_runs"] == [1.5, None, 2.5]
        assert layer["change_median"] == 2.0 and layer["parent_median"] == 2.0
        assert "change_better_pairs" not in layer  # no direction known for it

    def test_counts_and_correctness(self):
        runs = canned()
        summary = bench_pairs.summarize(runs, BETTER, END_TO_END)
        assert summary["pairs"] == 3 and summary["correct_all_runs"]
        assert summary["failed_total"] == {"parent": 0, "change": 2}
        assert summary["attempted_total"] == {"parent": 300, "change": 300}
        runs["parent"][1]["correct"] = False
        assert not bench_pairs.summarize(runs, BETTER, END_TO_END)["correct_all_runs"]

    def test_uneven_sides_are_rejected(self):
        runs = canned()
        runs["change"].pop()
        with pytest.raises(ValueError, match="one result per pair"):
            bench_pairs.summarize(runs, BETTER, END_TO_END)

    def test_directions_come_from_the_benchmark_file(self):
        benchmark = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())
        better = bench_pairs.directions(benchmark)
        assert better["items_per_s"] == "higher" and better["latency_p50_ms"] == "lower"
        assert better["mechanisms.em_sample.wall_us_p50"] == "lower"


class TestVerdict:
    @pytest.mark.parametrize(
        "parent, change, better, expected",
        [
            # The change's median is 20% worse, past the 15% bound.
            ([10.0, 10.0, 10.0], [12.0, 12.0, 12.0], "lower", "worse"),
            ([100.0, 100.0, 100.0], [80.0, 80.0, 80.0], "higher", "worse"),
            # Worse by 5% or 14%, and the parent spreads at most 4.8% of its median.
            ([10.0, 10.5, 11.0], [11.0, 11.0, 11.0], "lower", "no worse"),
            ([10.0, 10.0, 10.0], [8.6, 8.6, 8.6], "higher", "no worse"),
            # The parent spreads 20% of its median: too wide to tell ...
            ([8.0, 10.0, 12.0], [10.0, 10.0, 10.0], "lower", "unresolved"),
            ([8.0, 10.0, 12.0], [7.0, 9.0, 13.0], "higher", "unresolved"),
            # ... unless every change run beats every parent run ...
            ([8.0, 10.0, 12.0], [7.0, 7.5, 7.9], "lower", "no worse"),
            ([8.0, 10.0, 12.0], [12.1, 13.0, 15.0], "higher", "no worse"),
            # ... and a median past the bound is worse however wide the spread.
            ([8.0, 10.0, 12.0], [13.0, 13.0, 13.0], "lower", "worse"),
        ],
    )
    def test_verdict_against_a_bound_of_fifteen_percent(self, parent, change, better, expected):
        assert bench_pairs.verdict(parent, change, better, 0.15) == expected

    def test_only_end_to_end_metrics_get_a_verdict(self):
        summary = bench_pairs.summarize(canned(), BETTER, END_TO_END)
        # items_per_s: medians 11 -> 13, the parent's spread 1.0 on 11.
        assert summary["end_to_end"]["items_per_s"]["verdict"] == "no worse"
        # latency_p50_ms: medians 6 -> 5, but the parent spreads 1.0 on 6 (17%)
        # and the change's 8 loses to every parent run.
        assert summary["end_to_end"]["latency_p50_ms"]["verdict"] == "unresolved"
        assert "verdict" not in summary["per_layer"]["probe.wall_us"]

    def test_the_verdict_reads_each_bound_from_the_benchmark_file(self, monkeypatch, capsys):
        # Both metrics get 12% worse: within latency_p50_ms's bound of 0.15,
        # past peak_rss_mb's bound of 0.1.
        def fake_run(checkout, args):
            scale = 1.12 if checkout == bench_pairs.ROOT else 1.0
            metrics = {"latency_p50_ms": {"value": 5.0 * scale}, "peak_rss_mb": {"value": 100.0 * scale}}
            return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}

        monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
        monkeypatch.setattr(bench_pairs, "run_once", fake_run)
        argv = ["--parent", "HEAD", "--workload", "sanitize-mock", "--seed", "1", "--seconds", "1", "--pairs", "2"]
        assert bench_pairs.main(argv) == 0
        end_to_end = json.loads(capsys.readouterr().out)["end_to_end"]
        assert end_to_end["latency_p50_ms"]["verdict"] == "no worse"
        assert end_to_end["peak_rss_mb"]["verdict"] == "worse"


def test_the_parent_runs_first_in_odd_pairs(monkeypatch, capsys):
    order = []
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)

    def fake_run(checkout, args):
        order.append("change" if checkout == bench_pairs.ROOT else "parent")
        return result(10.0 + len(order), 5.0)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    argv = ["--parent", "HEAD", "--workload", "whitebox-decode", "--seed", "1", "--seconds", "1", "--pairs", "3"]
    assert bench_pairs.main(argv) == 0
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    summary = json.loads(capsys.readouterr().out)
    assert summary["end_to_end"]["items_per_s"]["parent_runs"] == [11.0, 14.0, 15.0]
    assert summary["end_to_end"]["items_per_s"]["change_runs"] == [12.0, 13.0, 16.0]
    assert summary["end_to_end"]["items_per_s"]["change_better_pairs"] == 2
