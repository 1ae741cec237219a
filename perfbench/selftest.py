#!/usr/bin/env python3
"""Self-test of the benchmark.

Shows that every correctness check rejects a corrupted output, runs each
workload end to end at tiny size in both modes, and checks that the
benchmark refuses to run without the package sources. Run from the root of
a checkout:

    python3 perfbench/selftest.py

Exits 0 when every case passes.
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import run  # pins BLAS threads before numpy loads

run.import_package()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(label: str, problems: list, want_problems: bool) -> None:
    ok = bool(problems) == want_problems
    if not ok:
        FAILURES.append(label)
    detail = problems[0] if problems else "no problems"
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")


def corrupted_outputs(work) -> None:
    ingest = workloads.Ingest(3, work / "ingest", tiny=True)
    ingest.setup()
    result = ingest.op(0)
    expect("ingest output passes its checks", ingest.check(result, deep=True)[0], False)
    reloaded = workloads.pooling.load_pooled(result.path)
    fine, coarse, _ = result.pooled
    fine.per_layer[0].data[3, 1] += 1e-6  # one changed pooled value
    expect("changed pooled value fails the reload check",
           checks.pooled_reload_problems(result.pooled, reloaded), True)
    expect("changed pooled value fails the rescan oracle",
           checks.rescan_problems(result.pyramid, result.mask, ingest.hierarchy, fine, coarse), True)
    expect("changed pooled value fails the union check",
           checks.union_problems(ingest.hierarchy, fine, coarse), True)

    infer = workloads.Infer(3, work / "infer", tiny=True)
    infer.setup()
    result = infer.op(0)
    expect("infer output passes its checks", infer.check(result, deep=True)[0], False)
    bad = copy.deepcopy(result.export)
    bad.tokens[2, 0] = np.nan  # a NaN token
    expect("NaN token fails the token check", checks.token_problems(infer.graph, bad, bad), True)
    alphas = copy.deepcopy(result.fwd.activation.alphas)
    record = next(iter(alphas["coarse"].values()))
    record["alpha"][0] = record["alpha"][0] * 1.01  # a row that no longer sums to 1
    expect("unnormalized attention row fails the attention check",
           checks.attention_problems(alphas), True)
    activation = result.fwd.activation
    activation.h_coarse_updated.data[0, 0] += 1e-6
    expect("changed stage-1 output fails the loop oracle",
           checks.attention_oracle_problems(infer.graph, activation, infer.model,
                                            result.fine.valid, result.coarse.valid), True)

    good = [{"loss": 0.8}, {"loss": 0.7}]
    expect("falling losses pass the loss check", checks.loss_problems(good, 2), False)
    expect("NaN loss fails the loss check",
           checks.loss_problems([{"loss": 0.8}, {"loss": math.nan}], 2), True)
    expect("rising loss fails the loss check",
           checks.loss_problems([{"loss": 0.7}, {"loss": 0.8}], 2), True)

    demo = workloads.Demo(3, work / "demo", tiny=True)
    demo.setup()  # makes the reference run of config 0
    result = demo.op(0)
    summary_path = result.out_dir / "summary.json"
    with open(summary_path, "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    summary["metrics"]["gat_f1"] += 0.125  # a changed summary metric
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    expect("changed summary metric fails the demo check",
           checks.demo_problems(result.code, result.out_dir, demo.references[0])[0], True)
    (result.out_dir / "STALE").write_text("{}")
    expect("STALE marker fails the demo check",
           checks.demo_problems(0, result.out_dir, None)[0], True)
    expect("non-zero exit code fails the demo check",
           checks.demo_problems(1, demo.runs_dir / "missing", None)[0], True)


def tiny_end_to_end() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    for name in run.NAMES:
        for trace in (False, True):
            record = run.run_workload(name, seed=5, seconds=1.0, trace=trace, tiny=True)
            result = record["result"]
            problems = list(record["problems"])
            if set(result["metrics"]) != wanted[trace]:
                problems.append(f"metric names differ: {set(result['metrics']) ^ wanted[trace]}")
            if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
                problems.append("a metric is not finite")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"result {result['correct']} over {result['attempted']} ops")
            expect(f"tiny {name} trace={int(trace)} runs clean", problems, False)


def refuses_without_sources(work) -> None:
    bare = work / "bare"
    shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
    problems = [] if proc.returncode != 0 and not printed_result else [
        f"exit code {proc.returncode} with stdout {proc.stdout[-200:]!r}"
    ]
    expect("run without package sources exits non-zero and prints no result", problems, False)


def main() -> int:
    work = run.WORK_DIR / f"selftest-{os.getpid()}"
    try:
        corrupted_outputs(work)
        tiny_end_to_end()
        refuses_without_sources(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"selftest: {len(FAILURES)} failed" + (f": {FAILURES}" if FAILURES else ""))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
