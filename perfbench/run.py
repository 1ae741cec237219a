#!/usr/bin/env python3
"""ctgraph benchmark: closed-loop workloads over the package's public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

``--trace 0`` sets up the workload three times (``setup_s`` is the median),
warms up with one operation, then runs operations back to back for
``--seconds`` with tracing off. ``--trace 1`` sets up once, traces every
second operation for ``--seconds``, and reports per-layer self times and
counts plus the tracing overhead. Each operation's outputs are checked
outside its timed interval. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. perfbench/README.md defines
every metric.
"""

import os
import sys

# BLAS reads its thread count when numpy loads, so the pin must come before
# any import that pulls numpy in. One thread (at most nproc) keeps runs
# steady on a shared machine; the package's own kernels are single-threaded.
BLAS_THREADS = min(1, os.cpu_count() or 1)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / "results"
SETUP_REPEATS = 3
NAMES = ("ingest", "train", "infer", "demo")


def import_package():
    """Import ctgraph from this checkout's src/, never from anywhere else."""
    if not (SRC / "ctgraph" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ctgraph sources at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import ctgraph

    if Path(ctgraph.__file__).resolve().parent != (SRC / "ctgraph").resolve():
        raise SystemExit(f"perfbench: ctgraph was imported from {ctgraph.__file__}, not {SRC}")


@dataclass
class Phase:
    """Operations of one closed-loop phase."""

    attempted: int = 0
    failed: int = 0
    durations: list = field(default_factory=list)
    items: int = 0
    problems: list = field(default_factory=list)
    facts: Counter = field(default_factory=Counter)
    cpu: float = 0.0  # process CPU seconds inside the timed intervals

    def mean_op(self) -> float:
        return sum(self.durations) / len(self.durations)


def measure(workload, seconds: float, first_index: int, tracer=None) -> tuple[Phase, Phase]:
    """Run operations back to back until ``seconds`` have passed.

    Only the operation itself is timed; its check runs after. The first
    operation also runs the slow oracles. With a tracer, every second
    operation is traced, so the untraced and traced phases returned see the
    same machine conditions; without one the traced phase stays empty.
    """
    plain, traced = Phase(), Phase()
    deadline = time.perf_counter() + seconds
    i = first_index
    while i < first_index + (2 if tracer else 1) or time.perf_counter() < deadline:
        use_tracer = tracer is not None and (i - first_index) % 2 == 1
        phase = traced if use_tracer else plain
        phase.attempted += 1
        try:
            with tracer.operation(i) if use_tracer else nullcontext():
                cpu0, t0 = time.process_time(), time.perf_counter()
                result = workload.op(i)
                elapsed = time.perf_counter() - t0
                cpu = time.process_time() - cpu0
            problems, facts = workload.check(result, deep=(i == first_index))
        except Exception as exc:  # a failed operation is counted, not fatal
            problems, facts = [f"{type(exc).__name__}: {exc}"], {}
            elapsed = None
        if elapsed is not None:
            phase.durations.append(elapsed)
            phase.cpu += cpu
            phase.items += workload.items(result)
        if problems:
            phase.failed += 1
            phase.problems.append(f"op {i}: " + "; ".join(problems))
        phase.facts.update(facts)
        i += 1
    return plain, traced


def tail(durations: list) -> tuple:
    """Highest whole percentile with at least ten operations beyond it."""
    n = len(durations)
    if n < 11:
        return None, None
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted(durations)[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(args) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # numpy before 1.25 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def e2e_report(workload, phase: Phase, setup_times: list) -> tuple[dict, list]:
    """End-to-end metrics plus the workload-named lines they stand for."""
    p50 = statistics.median(phase.durations)
    rate = phase.items / sum(phase.durations)
    metrics = {
        "items_per_s": {"value": rate, "unit": "1/s"},
        "op_ms_p50": {"value": p50 * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    prefix = f"{workload.name}_{workload.op_name}"
    lines = [
        f"{workload.name}_{workload.item}_per_s {rate:.6f} 1/s",
        f"{prefix}_ms_p50 {p50 * 1e3:.4f} ms",
    ]
    if workload.name == "demo":
        lines.append(f"demo_run_s {p50:.6f} s")
    ops = len(phase.durations)
    pct, value = tail(phase.durations)
    if pct is None:
        lines.append(f"{prefix}_ms_tail n/a ms (fewer than 11 of {ops} ops)")
    else:
        lines.append(f"{prefix}_ms_tail {value * 1e3:.4f} ms (p{pct} of {ops} ops)")
    lines.append(f"setup_s {metrics['setup_s']['value']:.6f} s (median of {len(setup_times)})")
    lines.append(f"peak_rss_mb {metrics['peak_rss_mb']['value']:.3f} MB")
    return metrics, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, measure and check one workload; returns the result record."""
    import tracing
    from workloads import WORKLOADS

    work = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    workload = WORKLOADS[name](seed, work, tiny=tiny)
    try:
        if not trace:
            setup_times = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - t0)
            warm, _ = measure(workload, 0, first_index=0)
            phase, _ = measure(workload, seconds, first_index=1)
            if not phase.durations:
                raise SystemExit(f"perfbench: every {name} operation failed: {phase.problems[:3]}")
            metrics, lines = e2e_report(workload, phase, setup_times)
            phases = [warm, phase]
            spans = None
        else:
            workload.setup()
            warm, _ = measure(workload, 0, first_index=0)
            tracer = tracing.Tracer()
            plain, traced = measure(workload, seconds, first_index=1, tracer=tracer)
            if not plain.durations or not traced.durations:
                raise SystemExit(f"perfbench: every {name} operation failed")
            values = tracer.layer_metrics(len(traced.durations), traced.facts)
            values["proc.cpu_s"] = plain.cpu / len(plain.durations)
            values["proc.cpu_per_wall"] = plain.cpu / sum(plain.durations)
            values["trace.overhead_pct"] = 100 * (traced.mean_op() / plain.mean_op() - 1)
            units = {m["name"]: m["unit"] for m in per_layer_spec()}
            metrics = {key: {"value": values[key], "unit": units[key]} for key in units}
            gap = abs(values["trace.self_sum_s"] - values["trace.op_wall_s"])
            lines = [f"{key} {v['value']:.6g} {v['unit']}" for key, v in metrics.items()]
            lines.append(
                f"self times sum to {values['trace.self_sum_s']:.6f} s per op against "
                f"{values['trace.op_wall_s']:.6f} s traced wall (gap {gap:.2e} s)"
            )
            if gap > 1e-6 * max(1.0, values["trace.op_wall_s"]):
                traced.failed += 1
                traced.problems.append(f"self times miss the traced wall by {gap:.3g} s")
            phases = [warm, plain, traced]
            spans = tracer
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    lines.append(f"error_rate {failed / attempted:.6f} ({failed} of {attempted} ops, warm-up included)")
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
        "lines": lines,
        "problems": [msg for p in phases for msg in p.problems],
        "ops": [len(p.durations) for p in phases],
        "spans": spans,
    }


def per_layer_spec() -> list:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)["per_layer"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description="ctgraph benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    env = {**environment(args), "ops_per_phase": record["ops"]}
    print("env " + json.dumps(env))
    for line in record["lines"]:
        print(line)
    for problem in record["problems"]:
        print(f"problem {problem}")
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, **record["result"], "problems": record["problems"]}, fh, indent=2)
    if record["spans"] is not None:
        record["spans"].write(RESULTS_DIR / f"{stem}-spans.jsonl")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
