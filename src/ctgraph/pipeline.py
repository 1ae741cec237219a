"""End-to-end pipeline: synth -> encode -> pool -> graph -> train -> infer.

`run_pipeline` and the `ct-graph` subcommands call the same functions: the stage
functions here and, for encode, the encoder's `synth_encode` and `export_pyramid`.
The per-sample ones take one sample. `run_pipeline` makes one pass over its
samples: it synthesizes, encodes and pools sample i, keeps only its pooled triple
and target, and frees its volume and pyramid before sample i + 1 is made. Its train
stage stacks the triples once (`check_training_data`, as `ct-graph train` does) and
drops their list: probe, fit and infer read that stack. The fit scores its held-out
samples (`gat_f1`); `eval_stage` (`ct-graph eval`) re-scores them from files.
`stage()` times a stage and logs its `start` and its `done` or `failed` event as JSON
lines; the per-sample events carry the sample index, and `summary.json` sums each
stage's seconds over the samples. A failed run re-raises its exception unchanged,
after leaving a STALE marker that names the failed stage and sample and lists the
stages whose outputs may be partial. Reruns with the same config and seed, at one
BLAS thread count, reproduce the same summary metrics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field
from numbers import Integral
from pathlib import Path

import numpy as np

from . import demo as demo_mod
from .container import check_keys, check_values, ensure_dir, read_json, remove_output, write_json
from .encoder import export_pyramid, get_preset, synth_encode
from .errors import ConfigError, ValidationError
from .gat import GatConfig, check_region_ids, forward as gat_forward
from .graph import (
    TOPOLOGIES,
    AnatomyHierarchy,
    build_graph,
    default_hierarchy,
    load_hierarchy,
    save_graph,
    save_hierarchy,
)
from .heads import (
    GRANULARITIES,
    TrainConfig,
    build_probe_features,
    export_tokens,
    save_token_export,
    train_gat_classifier,
    train_probe,
    write_manifest,
)
from .metrics import bleu_n, macro_prf1, rouge_l, tokenize
from .pooling import check_grid_extents, pool_all, save_pooled, stack_pooled, take_pooled
from .volume import generate_phantom, load_phantom_spec, save_mask, save_volume


def log_event(stage: str, event: str, **extra) -> None:
    record = {"ts": round(time.time(), 3), "stage": stage, "event": event}
    record.update(extra)
    print(json.dumps(record), file=sys.stderr)


@contextlib.contextmanager
def stage(name: str, seconds: dict | None = None, sample: int | None = None, **fields):
    """Log `start` with fields, run the body, then log `done` with its seconds,
    or `failed` with the cause when the body raises; a sample index goes into
    all three events.

    The body may add `done` fields to the yielded dict. A `seconds` dict gets
    the stage's name when it starts, and the body's duration is added to that
    entry when it ends, so a stage run once per sample sums over the samples.
    """
    where = {} if sample is None else {"sample": sample}
    log_event(name, "start", **where, **fields)
    done: dict = {}
    if seconds is not None:
        seconds.setdefault(name, 0.0)
    t0 = time.perf_counter()
    try:
        yield done
    except Exception as exc:
        log_event(name, "failed", **where, cause=str(exc))
        raise
    elapsed = time.perf_counter() - t0
    if seconds is not None:
        seconds[name] += elapsed
    log_event(name, "done", **where, seconds=round(elapsed, 3), **done)


def check_gat_doc(doc: dict) -> dict:
    """doc, valid GatConfig fields except the input widths, which come from the data."""
    GatConfig.from_json(doc, c_total=1, c_last=1)
    return doc


def hierarchy_from(path) -> AnatomyHierarchy:
    """The hierarchy stored at path, or the built-in table when path is None."""
    return default_hierarchy() if path is None else load_hierarchy(path)


# stages ----------------------------------------------------------------------


def synth_stage(spec, seed: int, out: Path, i: int):
    """Phantom i, of seed seed+i, written under out; returns (volume, mask, target)."""
    volume, mask, target = generate_phantom(spec.with_seed(seed + i))
    save_volume(out / f"vol_{i:03d}.bin", volume)
    save_mask(out / f"mask_{i:03d}.bin", mask)
    return volume, mask, target


def write_samples(out: Path, targets) -> None:
    """samples.jsonl under out: the files and labels of the phantoms synth_stage wrote."""
    write_manifest(out / "samples.jsonl", [
        {"id": i, "volume": f"vol_{i:03d}.bin", "mask": f"mask_{i:03d}.bin", "labels": target.tolist()}
        for i, target in enumerate(targets)
    ])


def pool_stage(pyramid, mask, hierarchy: AnatomyHierarchy, path):
    """Pool one pyramid over its mask and write its container; returns the pooled triple."""
    sample = pool_all(pyramid, mask, hierarchy)
    save_pooled(path, *sample)
    return sample


def graph_stage(hierarchy: AnatomyHierarchy, topology: str, seed: int, path):
    graph = build_graph(hierarchy, topology, seed=seed)
    save_graph(path, graph)
    return graph


def check_training_data(pooled, targets):
    """The one stack of a run's pooled samples, which both training stages take: a ValidationError
    when targets have no label column, else `stack_pooled`, naming a sample unlike sample 0."""
    if not targets.shape[1]:  # a phantom spec without pathologies, or manifest labels []
        raise ValidationError("the samples carry no labels to train on")
    return stack_pooled(pooled)


def train_probe_stage(stacked, targets, granularity: str, cfg: TrainConfig, out):
    """Fit the linear probe on the stack of `check_training_data`; writes probe.bin and trace.json."""
    features = build_probe_features(*stacked, granularity=granularity)
    if not features.shape[1]:
        raise ConfigError(f"probe granularity '{granularity}' gives no features: no {granularity} nodes")
    out = ensure_dir(out)
    model, trace, info = train_probe(features, targets, cfg)
    model.save(out / "probe.bin")
    write_json(out / "trace.json", {"trace": trace, "info": info})
    return trace, info


def train_gat_stage(stacked, targets, graph, gat_doc: dict, cfg: TrainConfig, out):
    """Fit the graph classifier on a `check_training_data` stack; writes its checkpoint and trace.json.

    gat_doc holds GatConfig fields as JSON; input widths come from the data.
    """
    fine_set, coarse_set, grid = stacked
    check_region_ids(graph, fine_set, coarse_set)  # before --out exists
    gat_config = GatConfig.from_json(gat_doc, c_total=fine_set.fused.shape[-1], c_last=grid.channels)
    ensure_dir(out)
    clf, trace, info = train_gat_classifier(stacked, targets, graph, gat_config, cfg)
    write_json(clf.save(out) / "trace.json", {"trace": trace, "info": info})
    return clf, trace, info


def infer_stage(graph, sample, model, path):
    """Forward one pooled sample and write its node tokens."""
    fwd = gat_forward(graph, *sample, model)
    save_token_export(path, export_tokens(fwd))
    return fwd


EVAL_METRICS = ("ce", "nlg")


def eval_stage(preds: list[dict], refs: list[dict], metrics, path) -> dict:
    """Score aligned prediction/reference records; writes the report to path.

    "ce" compares the records' label vectors (macro P/R/F1); "nlg" compares
    their texts (BLEU-1..4, ROUGE-L).
    """
    if not metrics or not set(metrics) <= set(EVAL_METRICS):
        raise ConfigError(f"metrics must be one or more of {list(EVAL_METRICS)}, got {list(metrics)}")
    report: dict = {}
    if "ce" in metrics:
        if not all("labels" in record for record in preds + refs):
            raise ValidationError("ce metrics need 'labels' in every shared record")
        for pred, ref in zip(preds, refs):
            if len(pred["labels"]) != len(ref["labels"]):
                raise ValidationError(
                    f"record id {pred.get('id')!r}: {len(pred['labels'])} predicted labels "
                    f"but {len(ref['labels'])} reference labels"
                )
        scores = macro_prf1(
            np.array([p["labels"] for p in preds]), np.array([r["labels"] for r in refs])
        )
        report["ce"] = {
            "precision": scores.precision,
            "recall": scores.recall,
            "f1": scores.f1,
        }
    if "nlg" in metrics:
        if not all("text" in record for record in preds + refs):
            raise ValidationError("nlg metrics need 'text' in every shared record")
        cands = [tokenize(p["text"]) for p in preds]
        golds = [tokenize(r["text"]) for r in refs]
        bleu = bleu_n(cands, golds)
        report["nlg"] = {
            **{f"bleu_{k}": b for k, b in enumerate(bleu, 1)},
            "rouge_l": rouge_l(cands, golds),
        }
    write_json(path, report)
    return report


# full run --------------------------------------------------------------------


@dataclass
class PipelineConfig:
    """A `ct-graph run` config, checked when built; `train_configs` holds the parsed
    (probe, gat_train) sections, seeded by `seed` unless they set their own.
    """

    seed: int = 7
    out_dir: str = "pipeline_out"
    preset: str = "demo"
    hierarchy: str | None = None
    topology: str = "hierarchical"
    phantom_spec: str | None = None
    num_samples: int = 16
    probe: dict = field(default_factory=dict)
    gat_train: dict = field(default_factory=dict)
    gat: dict = field(default_factory=dict)
    probe_granularity: str = "fine"

    def __post_init__(self):
        check_values(self, "pipeline config", {
            "seed": (Integral, "an integer >= 0", lambda v: v >= 0),
            "num_samples": (Integral, "an integer >= 1", lambda v: v >= 1),
            "out_dir": (str, "a non-empty string", bool),
            "preset": (str, "a string", None),
            **dict.fromkeys(
                ("hierarchy", "phantom_spec"), ((str, type(None)), "a path or null", lambda v: v != "")
            ),
            "topology": (str, f"one of {TOPOLOGIES}", lambda v: v in TOPOLOGIES),
            "probe_granularity": (str, f"one of {GRANULARITIES}", lambda v: v in GRANULARITIES),
        })
        check_gat_doc(self.gat)
        self.train_configs = (
            TrainConfig.from_json(self.probe, seed=self.seed),
            TrainConfig.from_json(self.gat_train, head="gat", seed=self.seed),
        )

    @classmethod
    def from_json(cls, doc: dict) -> "PipelineConfig":
        return cls(**check_keys(doc, cls.__dataclass_fields__, "pipeline config"))

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        """The config at path, whose relative phantom_spec and hierarchy name files
        relative to path's directory."""
        cfg = read_json(path, "pipeline config", cls.from_json)
        for key in ("phantom_spec", "hierarchy"):
            if getattr(cfg, key) is not None:
                setattr(cfg, key, str(Path(path).parent / getattr(cfg, key)))
        return cfg


def run_pipeline(cfg: PipelineConfig, out_dir=None) -> dict:
    """Run every stage; returns the summary dict (also written as summary.json)."""
    out = Path(cfg.out_dir if out_dir is None else out_dir)
    summary: dict = {"config": dataclasses.asdict(cfg), "stages": {}, "metrics": {}}
    seconds: dict = {}
    metrics = summary["metrics"]
    stale_path = out / "STALE"
    running: dict = {}  # the stage that runs, and its sample, for the STALE marker

    def timed(name: str, sample: int | None = None, **fields):
        running.update(stage=name, sample=sample)
        return stage(name, seconds, sample, **fields)

    t_total = time.perf_counter()
    try:
        hierarchy = hierarchy_from(cfg.hierarchy)
        spec = (
            demo_mod.demo_phantom_spec(hierarchy)
            if cfg.phantom_spec is None
            else load_phantom_spec(cfg.phantom_spec)
        )
        preset = get_preset(cfg.preset)
        last = preset.layer_extents(spec.shape)[-1]
        check_grid_extents(last, f"phantom {tuple(spec.shape)} under preset '{preset.name}': last layer")
        ensure_dir(out)
        remove_output(out / "summary.json")  # it exists only after a run that completed

        synth_dir, pool_dir = out / "synth", out / "pool"
        pooled, targets = [], []
        for i in range(cfg.num_samples):
            with timed("synth", i):
                volume, mask, target = synth_stage(spec, cfg.seed, ensure_dir(synth_dir), i)
            with timed("encode", i, preset=preset.name):
                pyramid = synth_encode(volume, preset, seed=cfg.seed)
                if i == 0:  # only sample 0's pyramid is exported
                    export_pyramid(pyramid, out / "encode" / "sample_000")
            with timed("pool", i):
                path = ensure_dir(pool_dir) / f"feats_{i:03d}.bin"
                pooled.append(pool_stage(pyramid, mask, hierarchy, path))
            targets.append(target)
            del volume, mask, pyramid  # freed before sample i + 1 is made
        with timed("synth", samples=cfg.num_samples):  # the manifest, once every phantom is written
            write_samples(synth_dir, targets)
            targets = np.stack(targets)
        with timed("graph", topology=cfg.topology):
            graph = graph_stage(hierarchy, cfg.topology, cfg.seed, out / "graph.json")
            save_hierarchy(out / "anatomy.json", hierarchy)
        with timed("train"):
            stacked = check_training_data(pooled, targets)
            del pooled  # the stack holds every sample from here on
            probe_cfg, gat_cfg = cfg.train_configs
            probe_trace, probe_info = train_probe_stage(
                stacked, targets, cfg.probe_granularity, probe_cfg, out / "probe"
            )
            clf, gat_trace, gat_info = train_gat_stage(
                stacked, targets, graph, cfg.gat, gat_cfg, out / "ckpt"
            )
            metrics["probe_f1"] = probe_trace[-1]["f1"] if probe_trace else None
            metrics["gat_f1"] = gat_trace[-1]["f1"] if gat_trace else None
            metrics["probe_info"] = probe_info
            metrics["gat_info"] = gat_info
        with timed("infer"):
            infer_stage(graph, take_pooled(stacked, [0]), clf.gat, out / "tokens.bin")
    except Exception as exc:
        if running:  # the failed stage has logged its own `failed` event
            write_json(stale_path, {
                "failed_stage": running["stage"], "sample": running["sample"],
                "cause": str(exc), "stages_started": list(seconds),
            })
        else:  # a failed setup has written nothing
            log_event("setup", "failed", cause=str(exc))
        raise

    remove_output(stale_path)
    summary["stages"] = {name: round(total, 3) for name, total in seconds.items()}
    summary["total_seconds"] = round(time.perf_counter() - t_total, 3)
    write_json(out / "summary.json", summary)
    log_event("run", "done", total_seconds=summary["total_seconds"])
    return summary
