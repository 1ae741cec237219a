#!/usr/bin/env python3
"""Run perfbench on a parent commit and on the working tree in alternating pairs.

Each pair runs every named workload once per side, untraced
(`perfbench/run.py --trace 0`), the parent first in even pairs and the working
tree first in odd ones, so slow drift of a shared machine falls on both sides.
The parent side is a detached `git worktree` of the parent commit in a
temporary directory, removed on exit or failure; the other side is this
checkout, uncommitted changes included. Both run their own perfbench/ and src/.

The JSON report holds, per workload and end-to-end metric of BENCHMARK.json,
both sides' median and quartiles, the working tree's wins out of the pairs
(per the metric's `better`), the per-pair ratios, every run's value and two
verdicts. `gain`: the working tree wins at least 9 in 10 pairs and its median
is better than the parent's by more than the parent's interquartile range.
`regression`: its median is worse than the parent's by more than the metric's
`bound`, a fraction of the parent's median. It also records both commit ids,
whether the working tree had uncommitted changes, the machine facts of
perfbench's `env` line, and whether every run was correct.

Usage: python scripts/bench_pairs.py --parent 96afc31 --pairs 10 --seconds 20 --out BENCH_34.json
"""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
MACHINE_KEYS = ("nproc", "affinity_cpus", "python", "numpy", "blas", "blas_threads")


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in checkout: its `env` line and its result line, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {workload} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    return {"env": env, "result": json.loads(lines[-1])}


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(runs: list, end_to_end: list) -> dict:
    """Per workload and metric: both sides' quartiles, the change's wins and ratios, every value,
    and the `gain` and `regression` verdicts.

    runs holds one record per run: {"pair", "side" ("parent" or "change"),
    "workload", "result"}; end_to_end is BENCHMARK.json's metric list, each with
    its name and whether "higher" or "lower" is better.
    """
    summary: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
        complete = [pairs[k] for k in sorted(pairs) if set(pairs[k]) == set(SIDES)]
        metrics = {}
        for spec in end_to_end:
            values = {side: [p[side]["metrics"][spec["name"]]["value"] for p in complete] for side in SIDES}
            better = np.greater if spec["better"] == "higher" else np.less
            parent, change = quartiles(values["parent"]), quartiles(values["change"])
            wins = int(better(values["change"], values["parent"]).sum())
            worse_by = (change["median"] - parent["median"]) * (-1 if spec["better"] == "higher" else 1)
            metrics[spec["name"]] = {
                "better": spec["better"],
                "bound": spec["bound"],
                "parent": parent,
                "change": change,
                "change_wins": wins,
                "gain": 10 * wins >= 9 * len(complete) and -worse_by > parent["q3"] - parent["q1"],
                "regression": worse_by > spec["bound"] * abs(parent["median"]),
                "ratios": [c / p if p else None for p, c in zip(values["parent"], values["change"])],
                "values": values,
            }
        summary[workload] = {
            "pairs": len(complete),
            "all_correct": all(p[side]["correct"] and p[side]["failed"] == 0 for p in complete for side in SIDES),
            "metrics": metrics,
        }
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="commit the working tree is compared against")
    parser.add_argument("--pairs", type=int, default=5, help="alternating pairs per workload")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured seconds per run")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=None, help="default: every BENCHMARK.json workload")
    parser.add_argument("--out", required=True, help="JSON report to write, e.g. BENCH_33.json")
    args = parser.parse_args()
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be >= 1 and --seconds positive")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    commits = {
        "parent": git("rev-parse", args.parent),
        "change_head": git("rev-parse", "HEAD"),
        "change_uncommitted": bool(git("status", "--porcelain", "--untracked-files=no")),
    }

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    worktree = tmp / "parent"
    runs, envs = [], {}
    try:
        git("worktree", "add", "--detach", str(worktree), commits["parent"])
        checkouts = {"parent": worktree, "change": ROOT}
        for k in range(args.pairs):
            for workload in workloads:
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    record = run_once(checkouts[side], workload, args.seed, args.seconds)
                    envs[side] = {key: record["env"][key] for key in MACHINE_KEYS}
                    runs.append({"pair": k, "side": side, "workload": workload, "result": record["result"]})
                    value = record["result"]["metrics"]["items_per_s"]["value"]
                    print(f"pair {k} {workload} {side}: items_per_s {value:.4g}", flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(worktree)], cwd=ROOT, capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)

    report = {
        "commits": commits,
        "machine": envs,  # each side's facts from perfbench's env line
        "settings": {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed, "trace": 0,
                     "order": "parent first in even pairs, working tree first in odd pairs"},
        "workloads": summarize(runs, benchmark["end_to_end"]),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
