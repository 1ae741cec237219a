"""Spans at the package's layer boundaries, recorded from the benchmark's side.

``Tracer.operation()`` wraps the public functions listed in ``TRACED`` in
every loaded ``ctgraph`` module that refers to them (so ``heads`` calling
``gat_forward`` is caught too) for the duration of one operation, and
restores them after it. Nothing under ``src/`` is edited. Set-up,
correctness checks and untraced operations run the package unwrapped.

A span's self time is its duration minus the durations of its direct
children. Every span of an operation descends from the operation's root
span (layer ``bench``), so the self times of one operation add up to its
traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = (
    "volume", "encoder", "pooling", "container", "graph", "gat",
    "tensor", "heads", "metrics", "pipeline", "cli",
)

# layer -> public functions (Class.method for methods) that open a span
TRACED = {
    "volume": (
        "generate_phantom", "resize_mask_nearest", "load_volume", "load_mask",
        "save_volume", "save_mask",
    ),
    "encoder": ("synth_encode", "export_pyramid"),
    "pooling": (
        "pool_all", "mask_pool_layer", "adaptive_avg_pool_global", "save_pooled", "load_pooled",
    ),
    "container": ("read_record", "write_record"),
    "graph": (
        "default_hierarchy", "build_graph", "build_hierarchical", "build_random",
        "save_graph", "save_hierarchy", "load_graph", "load_hierarchy",
    ),
    "gat": (
        "forward", "embed_nodes", "attend_fine_to_coarse", "attend_coarse_to_global",
        "GatModel.init", "GatModel.load", "GatModel.save",
    ),
    "tensor": ("Tensor.backward", "AdamW.step"),
    "heads": (
        "train_gat_classifier", "train_probe", "init_gat_classifier", "build_probe_features",
        "GatClassifier.logits", "GatClassifier.predict", "GatClassifier.save",
        "export_tokens", "save_token_export", "load_token_export",
    ),
    "metrics": ("macro_prf1",),
    "pipeline": ("run_pipeline", "PipelineConfig.load"),
    "cli": ("main",),
}

STAGES = ("synth", "encode", "pool", "graph", "train", "infer", "eval")


def _pyramid_bytes(args, kwargs, result):
    return {"encoder.pyramid_bytes": sum(layer.data.data.nbytes for layer in result.layers)}


def _pooled_feature_bytes(args, kwargs, result):
    layer = args[0] if args else kwargs["layer"]
    return {"pooling.feature_bytes": layer.data.nbytes}


def _read_bytes(args, kwargs, result):
    return {"container.read_bytes": result[1].nbytes if result is not None else 0}


def _write_bytes(args, kwargs, result):
    array = args[1] if len(args) > 1 else kwargs["array"]
    return {"container.write_bytes": np.asarray(array).nbytes}


# byte counts come from array sizes, never from the file system
COUNTERS = {
    "encoder.synth_encode": _pyramid_bytes,
    "pooling.mask_pool_layer": _pooled_feature_bytes,
    "container.read_record": _read_bytes,
    "container.write_record": _write_bytes,
}


class Tracer:
    """In-memory spans and counters of the traced operations of one run."""

    def __init__(self):
        # span: [name, layer, start, end, parent index, operation id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id: int | None = None
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self._seen_errors: set = set()
        self._bindings: list | None = None

    # recording -----------------------------------------------------------

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Install the wrappers and open the root span of one operation."""
        plan = self._plan()
        for owner, attr, _, wrapper in plan:
            setattr(owner, attr, wrapper)
        self.op_id = op_id
        self._open("bench.op", "bench")
        try:
            yield
        finally:
            self._close()
            self.op_id = None
            for owner, attr, original, _ in reversed(plan):
                setattr(owner, attr, original)

    def _open(self, name: str, layer: str) -> list:
        span = [name, layer, 0.0, 0.0, self.stack[-1] if self.stack else None, self.op_id]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        return span

    def _close(self) -> None:
        end = time.perf_counter()
        self.spans[self.stack.pop()][3] = end

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                key = (id(exc), layer)
                if key not in tracer._seen_errors:
                    tracer._seen_errors.add(key)
                    tracer.errors[layer] += 1
                raise
            finally:
                tracer._close()
            if count is not None:
                tracer.counters.update(count(args, kwargs, result))
            return result

        return traced

    def _count_tape(self, from_op):
        tracer = self

        @functools.wraps(from_op)
        def counted(data, parents, backward):
            out = from_op(data, parents, backward)
            if out._backward is not None:
                tracer.counters["tensor.tape_nodes"] += 1
            return out

        return counted

    def _plan(self) -> list:
        """(owner, attribute, original, wrapper) for every reference to wrap, built once."""
        if self._bindings is not None:
            return self._bindings
        plan = []
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("ctgraph.")]

        def rebind(original, wrapper):
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        plan.append((module, attr, original, wrapper))

        for layer, names in TRACED.items():
            module = importlib.import_module(f"ctgraph.{layer}")
            for dotted in names:
                span_name = f"{layer}.{dotted}"
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(layer, span_name, raw.__func__))
                    else:
                        wrapped = self._wrap(layer, span_name, raw)
                    plan.append((cls, attr, raw, wrapped))
                else:
                    original = getattr(module, dotted)
                    rebind(original, self._wrap(layer, span_name, original))
        from_op = importlib.import_module("ctgraph.tensor").from_op
        rebind(from_op, self._count_tape(from_op))
        self._bindings = plan
        return plan

    # reporting -----------------------------------------------------------

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for name, layer, start, end, parent, op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [s[3] - s[2] - c for s, c in zip(self.spans, covered)]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, layer, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "layer": layer, "start": start,
                    "end": end, "parent": parent, "op": op,
                }) + "\n")

    def layer_metrics(self, ops: int, facts: Counter) -> dict[str, float]:
        """Per-operation layer metrics; ``facts`` carries sums the workload read."""
        selfs = self.self_times()
        self_by_name: dict[str, float] = defaultdict(float)
        wall_by_name: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        self_by_layer: dict[str, float] = defaultdict(float)
        val_predict = 0.0
        for index, ((name, layer, start, end, parent, op), own) in enumerate(zip(self.spans, selfs)):
            self_by_name[name] += own
            wall_by_name[name] += end - start
            calls[name] += 1
            self_by_layer[layer] += own
            if name == "heads.GatClassifier.predict" and self._inside(index, "heads.train_gat_classifier"):
                val_predict += end - start
        c = self.counters

        def per_op(value):
            return value / ops

        def ratio(num, den):
            return num / den if den else 0.0

        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = per_op(self_by_layer[layer])
            m[f"{layer}.errors"] = per_op(self.errors[layer])
        m["bench.self_s"] = per_op(self_by_layer["bench"])

        m["volume.resize_calls"] = per_op(calls["volume.resize_mask_nearest"])
        m["volume.resize_s"] = per_op(self_by_name["volume.resize_mask_nearest"])
        m["encoder.encode_s"] = per_op(self_by_name["encoder.synth_encode"])
        m["encoder.pyramid_mb"] = per_op(c["encoder.pyramid_bytes"] / 1e6)
        m["pooling.pool_all_s"] = per_op(self_by_name["pooling.pool_all"])
        m["pooling.mask_pool_calls"] = per_op(calls["pooling.mask_pool_layer"])
        m["pooling.mask_pool_s"] = per_op(self_by_name["pooling.mask_pool_layer"])
        m["pooling.global_pool_s"] = per_op(self_by_name["pooling.adaptive_avg_pool_global"])
        m["pooling.feature_mb_per_s"] = ratio(
            c["pooling.feature_bytes"] / 1e6, self_by_name["pooling.mask_pool_layer"]
        )
        m["container.read_s"] = per_op(self_by_name["container.read_record"])
        m["container.write_s"] = per_op(self_by_name["container.write_record"])
        m["container.read_mb"] = per_op(c["container.read_bytes"] / 1e6)
        m["container.write_mb"] = per_op(c["container.write_bytes"] / 1e6)
        m["graph.build_s"] = per_op(
            sum(self_by_name[f"graph.{n}"] for n in ("build_graph", "build_hierarchical", "build_random"))
        )
        m["gat.forward_calls"] = per_op(calls["gat.forward"])
        m["gat.forward_s"] = per_op(self_by_name["gat.forward"])
        m["gat.embed_s"] = per_op(self_by_name["gat.embed_nodes"])
        m["gat.stage1_s"] = per_op(self_by_name["gat.attend_fine_to_coarse"])
        m["gat.stage2_s"] = per_op(self_by_name["gat.attend_coarse_to_global"])
        m["tensor.tape_nodes_per_sample"] = ratio(c["tensor.tape_nodes"], calls["gat.forward"])
        m["tensor.tape_nodes_per_op"] = per_op(c["tensor.tape_nodes"])
        m["tensor.backward_s"] = per_op(self_by_name["tensor.Tensor.backward"])
        m["tensor.adamw_s"] = per_op(self_by_name["tensor.AdamW.step"])
        m["heads.fit_s"] = per_op(self_by_name["heads.train_gat_classifier"])
        m["heads.batches"] = per_op(calls["tensor.AdamW.step"])
        m["heads.val_predict_wall_s"] = per_op(val_predict)
        m["heads.probe_fit_s"] = per_op(self_by_name["heads.train_probe"])
        m["heads.export_s"] = per_op(
            self_by_name["heads.export_tokens"] + self_by_name["heads.save_token_export"]
        )
        m["metrics.calls"] = per_op(calls["metrics.macro_prf1"])
        m["metrics.macro_prf1_s"] = per_op(self_by_name["metrics.macro_prf1"])
        staged = 0.0
        for stage in STAGES:
            m[f"pipeline.{stage}_s"] = per_op(facts[f"pipeline.{stage}_s"])
            staged += facts[f"pipeline.{stage}_s"]
        run_wall = wall_by_name["pipeline.run_pipeline"]
        m["pipeline.unstaged_s"] = per_op(run_wall - staged) if run_wall else 0.0
        m["cli.overhead_s"] = per_op(wall_by_name["cli.main"] - run_wall) if calls["cli.main"] else 0.0
        m["trace.op_wall_s"] = per_op(wall_by_name["bench.op"])
        m["trace.self_sum_s"] = per_op(sum(selfs))
        m["trace.spans_per_op"] = per_op(len(self.spans))
        return m

    def _inside(self, index: int, ancestor: str) -> bool:
        parent = self.spans[index][4]
        while parent is not None:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][4]
        return False
