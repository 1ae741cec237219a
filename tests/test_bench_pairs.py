"""The summary of scripts/bench_pairs.py, on canned run records (no subprocess)."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
]


def run(pair, side, rate, ms, workload="train", correct=True, failed=0):
    metrics = {"items_per_s": {"value": rate, "unit": "1/s"}, "op_ms_p50": {"value": ms, "unit": "ms"}}
    result = {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}
    return {"pair": pair, "side": side, "workload": workload, "result": result}


def canned():
    # the change is faster in pairs 0 and 2 and slower in pair 1; pair 3 lacks its change run
    return [
        run(0, "parent", 100.0, 10.0), run(0, "change", 110.0, 9.0),
        run(1, "change", 90.0, 11.0), run(1, "parent", 95.0, 10.5),
        run(2, "parent", 102.0, 9.8), run(2, "change", 120.0, 8.0),
        run(3, "parent", 1.0, 1000.0),
    ]


def test_each_side_gets_median_and_quartiles_of_the_complete_pairs():
    summary = bench_pairs.summarize(canned(), END_TO_END)
    train = summary["train"]
    assert train["pairs"] == 3 and train["all_correct"] is True
    rate = train["metrics"]["items_per_s"]
    assert rate["values"] == {"parent": [100.0, 95.0, 102.0], "change": [110.0, 90.0, 120.0]}
    assert rate["parent"] == {"median": 100.0, "q1": 97.5, "q3": 101.0}
    assert rate["change"] == {"median": 110.0, "q1": 100.0, "q3": 115.0}
    assert rate["better"] == "higher" and rate["bound"] == 0.25


def test_wins_follow_the_metric_direction_and_ratios_are_change_over_parent():
    metrics = bench_pairs.summarize(canned(), END_TO_END)["train"]["metrics"]
    assert metrics["items_per_s"]["change_wins"] == 2
    assert metrics["op_ms_p50"]["change_wins"] == 2  # lower is better: 9 < 10, 11 > 10.5, 8 < 9.8
    assert metrics["items_per_s"]["ratios"] == pytest.approx([1.1, 90 / 95, 120 / 102])
    assert metrics["op_ms_p50"]["ratios"] == pytest.approx([0.9, 11 / 10.5, 8 / 9.8])


def test_a_tie_is_no_win():
    runs = [run(0, "parent", 100.0, 10.0), run(0, "change", 100.0, 10.0)]
    metrics = bench_pairs.summarize(runs, END_TO_END)["train"]["metrics"]
    assert metrics["items_per_s"]["change_wins"] == metrics["op_ms_p50"]["change_wins"] == 0
    assert metrics["items_per_s"]["parent"] == {"median": 100.0, "q1": 100.0, "q3": 100.0}


def test_workloads_are_kept_apart_and_a_failed_run_marks_its_workload():
    runs = canned() + [
        run(0, "parent", 5.0, 200.0, workload="demo"),
        run(0, "change", 6.0, 190.0, workload="demo", correct=False, failed=1),
    ]
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert list(summary) == ["train", "demo"]
    assert summary["train"]["all_correct"] is True
    assert summary["demo"]["all_correct"] is False
    assert summary["demo"]["pairs"] == 1
    assert summary["demo"]["metrics"]["items_per_s"]["values"] == {"parent": [5.0], "change": [6.0]}
