"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup``, runs
one timed operation in ``op`` and checks that operation's outputs, outside
the timed interval, in ``check``. Calls into the package go through module
attributes (``pooling.pool_all``, not an imported name) so that the traced
run can wrap them.

``tiny=True`` shrinks every workload to a size that runs in well under a
second per operation; the self-test uses it.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

from ctgraph import cli, container, demo, encoder, gat, graph, heads, pooling, volume

import checks
from tracing import STAGES

ENCODER_SEED = 7


def scaled_demo_spec(hierarchy, scale: int, **overrides):
    """The demo phantom layout blown up ``scale`` times along every axis."""
    base = demo.demo_phantom_spec(hierarchy, **overrides)
    if scale == 1:
        return base
    shift = (scale - 1) / 2  # keeps each region centred on the same voxels

    def center(c):
        return tuple(scale * x + shift for x in c)

    return replace(
        base,
        shape=tuple(scale * s for s in base.shape),
        regions=tuple(
            replace(r, center=center(r.center), radii=tuple(scale * x for x in r.radii))
            for r in base.regions
        ),
        pathologies=tuple(replace(p, radius=scale * p.radius) for p in base.pathologies),
    )


class Workload:
    name = ""
    op_name = ""  # what one operation is: scan, fit or run
    item = ""  # what items_per_s counts: scans, samples or runs

    def __init__(self, seed: int, work: Path, tiny: bool = False):
        self.seed = seed
        self.work = work
        self.tiny = tiny

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def items(self, result) -> int:
        """Units of work one operation completed (scans, sample passes, runs)."""
        return 1

    def check(self, result, deep: bool) -> tuple[list[str], dict]:
        """(problems, facts); ``deep`` also runs the slow oracles."""
        raise NotImplementedError


@dataclass
class IngestResult:
    pyramid: object
    mask: object
    pooled: tuple
    path: Path


class Ingest(Workload):
    """One scan: read volume and mask, encode, pool, write the pooled container."""

    name = "ingest"
    op_name = "scan"
    item = "scans"

    def setup(self):
        scale, preset, n_scans = (1, "demo", 2) if self.tiny else (4, "swinunetr-style", 4)
        self.hierarchy = graph.default_hierarchy()
        self.preset = encoder.get_preset(preset)
        spec = scaled_demo_spec(self.hierarchy, scale)
        scan_dir = container.ensure_dir(self.work / "scans")
        self.scans = []
        for k in range(n_scans):
            vol, mask, _ = volume.generate_phantom(spec.with_seed(1000 * self.seed + k))
            paths = (scan_dir / f"vol_{k}.bin", scan_dir / f"mask_{k}.bin")
            volume.save_volume(paths[0], vol)
            volume.save_mask(paths[1], mask)
            self.scans.append(paths)
        self.out_dir = container.ensure_dir(self.work / "pooled")

    def op(self, i):
        k = i % len(self.scans)
        vol = volume.load_volume(self.scans[k][0])
        mask = volume.load_mask(self.scans[k][1])
        pyramid = encoder.synth_encode(vol, self.preset, seed=ENCODER_SEED)
        pooled = pooling.pool_all(pyramid, mask, self.hierarchy)
        path = self.out_dir / f"pooled_{k}.bin"
        pooling.save_pooled(path, *pooled)
        return IngestResult(pyramid, mask, pooled, path)

    def check(self, result, deep):
        fine, coarse, _ = result.pooled
        problems = checks.pooled_reload_problems(result.pooled, pooling.load_pooled(result.path))
        problems += checks.union_problems(self.hierarchy, fine, coarse)
        if deep:
            problems += checks.rescan_problems(
                result.pyramid, result.mask, self.hierarchy, fine, coarse
            )
        return problems, {}


@dataclass
class TrainResult:
    trace: list
    info: dict


class Train(Workload):
    """One graph-classifier fit at the trend benchmark's settings."""

    name = "train"
    op_name = "fit"
    item = "samples"

    def setup(self):
        n_samples, self.epochs = (16, 3) if self.tiny else (48, 5)
        hierarchy = graph.default_hierarchy()
        spec = demo.demo_phantom_spec(hierarchy, noise_sigma=0.2, intensity_jitter=0.3)
        self.samples, self.targets = demo.build_pooled_dataset(
            spec, hierarchy, "demo", n_samples, base_seed=1000 * self.seed,
            encoder_seed=ENCODER_SEED,
        )
        # fits alternate the two topologies the trend criterion compares
        self.graphs = (
            graph.build_hierarchical(hierarchy),
            graph.build_random(hierarchy, seed=self.seed),
        )
        preset = encoder.get_preset("demo")
        self.gat_config = gat.GatConfig(
            c_total=preset.c_total, c_last=preset.channels[-1], d_h=16, n_heads=2, export_dim=16
        )

    def op(self, i):
        cfg = heads.TrainConfig.for_gat(
            epochs=self.epochs, lr=3e-3, batch_size=16, seed=100 * self.seed + i
        )
        _, trace, info = heads.train_gat_classifier(
            self.samples, self.targets, self.graphs[i % 2], self.gat_config, cfg
        )
        return TrainResult(trace, info)

    def items(self, result):
        return result.info["train_size"] * self.epochs

    def check(self, result, deep):
        return checks.loss_problems(result.trace, self.epochs), {}


@dataclass
class InferResult:
    fine: object
    coarse: object
    fwd: object
    export: object
    path: Path


class Infer(Workload):
    """One scan: read pooled features, paper-width GAT forward, export tokens."""

    name = "infer"
    op_name = "scan"
    item = "scans"

    def setup(self):
        if self.tiny:
            scale, preset_name, d_h, n_heads, export_dim = 1, "demo", 16, 2, 16
        else:
            scale, preset_name, d_h, n_heads, export_dim = 4, "swinunetr-style", 256, 4, 64
        hierarchy = graph.default_hierarchy()
        self.graph = graph.build_hierarchical(hierarchy)
        preset = encoder.get_preset(preset_name)
        spec = scaled_demo_spec(hierarchy, scale)
        pooled_dir = container.ensure_dir(self.work / "pooled")
        self.scans = []
        for k in range(2):
            vol, mask, _ = volume.generate_phantom(spec.with_seed(1000 * self.seed + 500 + k))
            pyramid = encoder.synth_encode(vol, preset, seed=ENCODER_SEED)
            path = pooled_dir / f"pooled_{k}.bin"
            pooling.save_pooled(path, *pooling.pool_all(pyramid, mask, hierarchy))
            self.scans.append(path)
        cfg = gat.GatConfig(
            c_total=preset.c_total,
            c_last=preset.channels[-1],
            d_h=d_h,
            n_heads=n_heads,
            export_dim=export_dim,
        )
        ckpt = gat.GatModel.init(cfg, seed=self.seed).save(self.work / "ckpt")
        self.model = gat.GatModel.load(ckpt)
        self.out_dir = container.ensure_dir(self.work / "tokens")

    def op(self, i):
        k = i % len(self.scans)
        fine, coarse, grid = pooling.load_pooled(self.scans[k])
        fwd = gat.forward(self.graph, fine, coarse, grid, self.model)
        export = heads.export_tokens(fwd)
        path = self.out_dir / f"tokens_{k}.bin"
        heads.save_token_export(path, export)
        return InferResult(fine, coarse, fwd, export, path)

    def check(self, result, deep):
        problems = checks.token_problems(
            self.graph, result.export, heads.load_token_export(result.path)
        )
        problems += checks.attention_problems(result.fwd.activation.alphas)
        if deep:
            problems += checks.attention_oracle_problems(
                self.graph, result.fwd.activation, self.model,
                result.fine.valid, result.coarse.valid,
            )
        return problems, {}


@dataclass
class DemoResult:
    config: int
    code: int
    out_dir: Path


class Demo(Workload):
    """One in-process ``ct-graph run`` of the bundled demo config."""

    name = "demo"
    op_name = "run"
    item = "runs"

    def __init__(self, seed, work, tiny=False):
        super().__init__(seed, work, tiny)
        self.references = {}  # config index -> summary metrics of its first run

    def setup(self):
        config_dir = container.ensure_dir(self.work / "configs")
        self.runs_dir = self.work / "runs"
        self.configs = []
        # two run seeds alternate; every run is compared with the first of its seed
        for k, run_seed in enumerate((self.seed, self.seed + 1)):
            doc = demo.demo_pipeline_config(out_dir=str(self.runs_dir / "unused"))
            doc["seed"] = run_seed
            if self.tiny:
                doc["num_samples"] = 4
                doc["probe"]["epochs"] = 2
                doc["gat_train"]["epochs"] = 2
            path = config_dir / f"demo_{k}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
            self.configs.append(path)
        # the reference run of the first seed; later set-ups must reproduce it
        problems, _ = self.check(self._run(0, self.runs_dir / "reference"), deep=True)
        if problems:
            raise RuntimeError(f"demo reference run failed: {problems}")

    def op(self, i):
        return self._run(i % len(self.configs), self.runs_dir / f"run_{i}")

    def _run(self, k, out_dir):
        # stage logs go to stderr; keep them out of the benchmark's own output
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["run", "--config", str(self.configs[k]), "--out", str(out_dir)])
        return DemoResult(k, code, out_dir)

    def check(self, result, deep):
        problems, summary = checks.demo_problems(
            result.code, result.out_dir, self.references.get(result.config)
        )
        facts = {}
        if summary is not None:
            if not problems:
                self.references.setdefault(result.config, summary["metrics"])
            facts = {
                f"pipeline.{stage}_s": float(summary["stages"].get(stage, 0.0))
                for stage in STAGES
            }
        shutil.rmtree(result.out_dir, ignore_errors=True)
        return problems, facts


WORKLOADS = {w.name: w for w in (Ingest, Train, Infer, Demo)}
