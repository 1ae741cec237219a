"""Desk-scale trend benchmark on the bundled phantom set.

Three paired comparisons over fixed seeds: probe F1 by pooling granularity
(fine vs global), layer fusion vs the best single layer, and hierarchical
vs random graph topology for the graph classifier. Probe features are
standardized per dimension before training so the probe converges within
its epoch budget at desk scale.

Only the sample count is a setting. Fixed here: phantoms with noise sigma
0.2 and intensity jitter 0.3, the demo encoder preset, probes at lr 2e-3,
and graph classifiers (d_h 16, 2 heads, export width 16) trained 40 epochs
at lr 3e-3 in batches of 16.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .demo import build_pooled_dataset, demo_phantom_spec
from .encoder import get_preset
from .gat import GatConfig
from .graph import build_hierarchical, build_random, default_hierarchy
from .heads import TrainConfig, build_probe_features, train_gat_classifier, train_probe

BENCH_SEEDS = (0, 1, 2)
PRESET = "demo"


@dataclass(frozen=True)
class BenchSettings:
    """The trend benchmark's one setting; the module docstring lists the fixed ones."""

    n_samples: int = 120


def standardize(features: np.ndarray) -> np.ndarray:
    mu = features.mean(axis=0)
    sd = features.std(axis=0) + 1e-8
    return (features - mu) / sd


@functools.lru_cache(maxsize=len(BENCH_SEEDS))  # both trends read each seed's one dataset
def bench_dataset(settings: BenchSettings, seed: int):
    hierarchy = default_hierarchy()
    spec = demo_phantom_spec(hierarchy, noise_sigma=0.2, intensity_jitter=0.3)
    return build_pooled_dataset(
        spec, hierarchy, PRESET, settings.n_samples, base_seed=1000 * seed, encoder_seed=7
    )


def probe_f1(stacked, targets, seed: int, granularity: str, layer=None) -> float:
    features = build_probe_features(*stacked, granularity=granularity, layer=layer)
    _, trace, _ = train_probe(standardize(features), targets, TrainConfig(seed=seed, lr=2e-3))
    return trace[-1]["f1"]


def run_probe_trend(settings: BenchSettings = BenchSettings(), seeds=BENCH_SEEDS) -> dict:
    """Granularity and layer-fusion comparisons; means over paired seeds."""
    n_layers = get_preset(PRESET).num_layers
    arms: dict[str, list[float]] = {
        "fine": [], "global": [], "fused": [],
        **{f"layer{l}": [] for l in range(n_layers)},
    }
    for seed in seeds:
        stacked, targets = bench_dataset(settings, seed)
        for arm in ("fine", "global", "fused"):
            arms[arm].append(probe_f1(stacked, targets, seed, arm))
        for l in range(n_layers):
            arms[f"layer{l}"].append(probe_f1(stacked, targets, seed, "fused", layer=l))
    means = {arm: float(np.mean(v)) for arm, v in arms.items()}
    best_single = max(means[f"layer{l}"] for l in range(n_layers))
    return {
        "per_seed": arms,
        "means": means,
        "best_single_layer": best_single,
        "fine_ge_global": means["fine"] >= means["global"],
        "fused_ge_best_single": means["fused"] >= best_single,
    }


def run_topology_trend(settings: BenchSettings = BenchSettings(), seeds=BENCH_SEEDS) -> dict:
    """Hierarchical vs random-parent topology for the graph classifier."""
    hierarchy = default_hierarchy()
    preset = get_preset(PRESET)
    gat_config = GatConfig(
        c_total=preset.c_total, c_last=preset.channels[-1], d_h=16, n_heads=2, export_dim=16
    )
    arms: dict[str, list[float]] = {"hierarchical": [], "random": []}
    for seed in seeds:
        stacked, targets = bench_dataset(settings, seed)
        cfg = TrainConfig.for_gat(epochs=40, lr=3e-3, batch_size=16, seed=seed)
        for arm, graph in (
            ("hierarchical", build_hierarchical(hierarchy)),
            ("random", build_random(hierarchy, seed=seed)),
        ):
            _, trace, _ = train_gat_classifier(stacked, targets, graph, gat_config, cfg)
            arms[arm].append(trace[-1]["f1"])
    means = {arm: float(np.mean(v)) for arm, v in arms.items()}
    return {
        "per_seed": arms,
        "means": means,
        "hierarchical_ge_random": means["hierarchical"] >= means["random"],
    }
