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


def ten_pairs(parent_rates, change_rates, parent_ms=None, change_ms=None):
    """The train metrics of one pair per entry; op_ms_p50 is 10 ms on both sides unless given."""
    parent_ms = parent_ms or [10.0] * len(parent_rates)
    change_ms = change_ms or [10.0] * len(change_rates)
    runs = []
    for k, (p_rate, c_rate, p_ms, c_ms) in enumerate(zip(parent_rates, change_rates, parent_ms, change_ms)):
        runs += [run(k, "parent", p_rate, p_ms), run(k, "change", c_rate, c_ms)]
    return bench_pairs.summarize(runs, END_TO_END)["train"]["metrics"]


PARENT = [100.0, 101.0, 99.0, 102.0, 98.0, 100.0, 103.0, 97.0, 100.0, 101.0]  # median 100, IQR 1.75


def test_a_gain_needs_nine_wins_in_ten_and_a_shift_beyond_the_parents_interquartile_range():
    faster = [rate * 1.2 for rate in PARENT]
    faster[3] = 90.0  # the change loses pair 3 and wins the other 9
    rate = ten_pairs(PARENT, faster)["items_per_s"]
    assert rate["change_wins"] == 9 and rate["gain"] is True and rate["regression"] is False


def test_eight_wins_in_ten_are_no_gain_however_large_the_shift():
    faster = [rate * 1.2 for rate in PARENT]
    faster[3] = faster[7] = 90.0
    rate = ten_pairs(PARENT, faster)["items_per_s"]
    assert rate["change_wins"] == 8 and rate["gain"] is False


def test_winning_every_pair_by_less_than_the_parents_interquartile_range_is_no_gain():
    nudged = [rate + 0.5 for rate in PARENT]  # medians 100.0 -> 100.5
    rate = ten_pairs(PARENT, nudged)["items_per_s"]
    assert rate["change_wins"] == 10 and rate["gain"] is False and rate["regression"] is False


@pytest.mark.parametrize("factor, regression", [(0.76, False), (0.74, True)])
def test_a_regression_is_a_median_worse_by_more_than_the_bound_when_higher_is_better(factor, regression):
    rate = ten_pairs(PARENT, [r * factor for r in PARENT])["items_per_s"]
    assert rate["regression"] is regression and rate["gain"] is False


@pytest.mark.parametrize("factor, regression", [(1.24, False), (1.26, True)])
def test_a_regression_is_a_median_worse_by_more_than_the_bound_when_lower_is_better(factor, regression):
    ms = [r / 10 for r in PARENT]
    op = ten_pairs(PARENT, PARENT, ms, [m * factor for m in ms])["op_ms_p50"]
    assert op["regression"] is regression and op["gain"] is False and op["change_wins"] == 0


def test_a_faster_lower_is_better_metric_is_a_gain_not_a_regression():
    ms = [r / 10 for r in PARENT]
    op = ten_pairs(PARENT, PARENT, ms, [m * 0.8 for m in ms])["op_ms_p50"]
    assert op["change_wins"] == 10 and op["gain"] is True and op["regression"] is False
