"""Multi-resolution feature pyramids from files or a synthetic encoder.

The synthetic encoder box-averages the volume down to each layer's
resolution and lifts the scalar into C_l channels through a fixed seeded
affine map. It is deterministic, locality preserving, and cheap: a stand-in
that produces enough signal for probe-ordering experiments. Channel presets
are named after well-known encoder families but the weights are never
theirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import ensure_dir, load_tensor, read_json, save_tensor, write_json
from .errors import ValidationError, malformed
from .tensor import Tensor
from .volume import Volume3D


@dataclass(frozen=True)
class EncoderPreset:
    name: str
    channels: tuple[int, ...]
    factors: tuple[int, ...]

    def __post_init__(self):
        if len(self.channels) != len(self.factors):
            raise ValidationError(
                f"preset '{self.name}': channels ({len(self.channels)}) and "
                f"factors ({len(self.factors)}) must have equal length"
            )
        if any(c < 1 for c in self.channels) or any(f < 1 for f in self.factors):
            raise ValidationError(f"preset '{self.name}': channels and factors must be >= 1")

    @property
    def num_layers(self) -> int:
        return len(self.channels)

    @property
    def c_total(self) -> int:
        return sum(self.channels)

    def cumulative_factors(self) -> tuple[int, ...]:
        out, acc = [], 1
        for f in self.factors:
            acc *= f
            out.append(acc)
        return tuple(out)


PRESETS: dict[str, EncoderPreset] = {
    p.name: p
    for p in (
        EncoderPreset("demo", (8, 16, 32), (2, 2, 2)),
        EncoderPreset("swinunetr-style", (48, 96, 192, 384, 768), (2, 2, 2, 2, 2)),
        EncoderPreset("voco-style", (48, 96, 192, 384, 768), (2, 2, 2, 2, 2)),
        EncoderPreset("vox2vec-style", (16, 32, 64, 128, 256, 512), (2, 2, 2, 2, 2, 2)),
        EncoderPreset("transvw-style", (64, 128, 256, 512), (2, 2, 2, 2)),
        EncoderPreset("ct-fm-style", (32, 64, 128, 256, 512), (2, 2, 2, 2, 2)),
    )
}


def get_preset(name: str, registry_path=None) -> EncoderPreset:
    registry = dict(PRESETS)
    if registry_path is not None:
        registry.update(load_preset_registry(registry_path))
    if name not in registry:
        known = ", ".join(sorted(registry))
        raise ValidationError(f"unknown encoder preset '{name}' (known: {known})")
    return registry[name]


def load_preset_registry(path) -> dict[str, EncoderPreset]:
    return read_json(path, "preset registry", _presets_from_json)


def _presets_from_json(doc: dict) -> dict[str, EncoderPreset]:
    with malformed("preset registry"):
        presets = [
            EncoderPreset(
                str(p["name"]), tuple(map(int, p["channels"])), tuple(map(int, p["factors"]))
            )
            for p in doc.get("presets", [])
        ]
    return {preset.name: preset for preset in presets}


@dataclass
class PyramidLayer:
    """One resolution level; features stored channel-last (H, W, D, C)."""

    data: Tensor

    @property
    def extents(self) -> tuple[int, int, int]:
        return self.data.shape[:3]

    @property
    def channels(self) -> int:
        return self.data.shape[3]


@dataclass
class FeaturePyramid:
    layers: list[PyramidLayer]

    def __post_init__(self):
        if len(self.layers) < 1:
            raise ValidationError("a feature pyramid needs at least one layer")
        for layer in self.layers:
            if layer.data.ndim != 4:
                raise ValidationError(
                    f"pyramid layers must be 4-d (H, W, D, C), got shape {layer.data.shape}"
                )
        prev = self.layers[0].extents
        for i, layer in enumerate(self.layers[1:], start=1):
            cur = layer.extents
            if any(c > p for c, p in zip(cur, prev)):
                raise ValidationError(
                    f"layer extents must be non-increasing with depth: "
                    f"layer {i} has {cur} after {prev}"
                )
            prev = cur

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def channels(self) -> tuple[int, ...]:
        return tuple(layer.channels for layer in self.layers)

    @property
    def c_total(self) -> int:
        return sum(self.channels)


def synth_encode(volume: Volume3D, preset: EncoderPreset, seed: int) -> FeaturePyramid:
    """Box-average downsampling plus a seeded per-channel affine lift."""
    h, w, d = volume.shape
    layers = []
    for li, (c_l, factor) in enumerate(zip(preset.channels, preset.cumulative_factors())):
        if h % factor or w % factor or d % factor:
            raise ValidationError(
                f"volume extents {volume.shape} must be divisible by the cumulative "
                f"downsample factor {factor} of preset '{preset.name}' layer {li}"
            )
        box = volume.voxels.reshape(
            h // factor, factor, w // factor, factor, d // factor, factor
        ).mean(axis=(1, 3, 5))
        rng = np.random.default_rng([seed, li])
        scale = rng.standard_normal(c_l)
        offset = 0.1 * rng.standard_normal(c_l)
        feats = box[..., None] * scale
        feats += offset
        layers.append(PyramidLayer(Tensor(feats)))
    return FeaturePyramid(layers)


_INDEX_FILE = "pyramid.json"


def export_pyramid(pyramid: FeaturePyramid, out_dir) -> Path:
    """Write one container per layer (channel-first) plus an index file."""
    out = ensure_dir(out_dir)
    names = []
    for i, layer in enumerate(pyramid.layers):
        name = f"layer_{i:02d}.bin"
        channel_first = np.moveaxis(layer.data.data, 3, 0)
        save_tensor(out / name, channel_first, name=f"layer_{i}")
        names.append(name)
    write_json(out / _INDEX_FILE, {"layers": names, "channels": list(pyramid.channels)})
    return out


def import_pyramid(paths) -> FeaturePyramid:
    """Assemble a pyramid from ordered (C, H, W, D) containers, fine to coarse."""
    layers = []
    for path in paths:
        array, _ = load_tensor(path)
        if array.ndim != 4:
            raise ValidationError(
                f"{path}: pyramid layer containers must be 4-d (C, H, W, D), "
                f"got shape {array.shape}"
            )
        layers.append(PyramidLayer(Tensor(np.moveaxis(array, 0, 3))))
    return FeaturePyramid(layers)


def load_pyramid(directory) -> FeaturePyramid:
    directory = Path(directory)
    names = read_json(directory / _INDEX_FILE, "pyramid index", _layer_names)
    return import_pyramid([directory / name for name in names])


def _layer_names(index: dict) -> list[str]:
    with malformed("pyramid index"):
        return [str(name) for name in index["layers"]]
