"""Multi-resolution feature pyramids from files or a synthetic encoder.

The synthetic encoder box-averages the volume down to each layer's
resolution and lifts the scalar into C_l channels through a fixed seeded
affine map. It is deterministic, locality preserving, and cheap: a stand-in
that produces enough signal for probe-ordering experiments. Channel presets
are named after well-known encoder families but the weights are never
theirs.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import ensure_dir, load_tensor, read_json, save_tensor, write_json
from .errors import ValidationError, integer, malformed, string
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

    def check_extents(self, extents) -> None:
        """Raise a ValidationError naming the first cumulative factor that does not divide
        every one of the (H, W, D) extents, which the encoder cannot downsample."""
        for li, factor in enumerate(self.cumulative_factors()):
            if any(n % factor for n in extents):
                raise ValidationError(
                    f"volume extents {tuple(extents)} must be divisible by the cumulative "
                    f"downsample factor {factor} of preset '{self.name}' layer {li}"
                )


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
            EncoderPreset(string(p["name"], "preset name"), *(
                tuple(integer(n, f"preset {key}") for n in p[key]) for key in ("channels", "factors")
            ))
            for p in doc["presets"]
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
    """Layers fine to coarse; source_extents, when known, are the encoded scan's (H, W, D)."""

    layers: list[PyramidLayer]
    source_extents: tuple[int, int, int] | None = None

    def __post_init__(self):
        if len(self.layers) < 1:
            raise ValidationError("a feature pyramid needs at least one layer")
        for layer in self.layers:
            if layer.data.ndim != 4 or not layer.data.size:
                raise ValidationError(
                    f"pyramid layers must be 4-d (H, W, D, C) with positive extents, "
                    f"got shape {layer.data.shape}"
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


# One slab per CPU this process may run on; the executor starts its threads
# on first use. numpy releases the GIL in the box-mean reduce loop and in the
# lift's multiply/add loops, so slabs of one layer run in parallel.
if hasattr(os, "sched_getaffinity"):
    _WORKERS = len(os.sched_getaffinity(0))
else:
    _WORKERS = os.cpu_count() or 1


def _new_pool() -> None:
    global _POOL
    _POOL = ThreadPoolExecutor(max_workers=_WORKERS, thread_name_prefix="ctgraph-encode")


_new_pool()
if hasattr(os, "register_at_fork"):  # a forked child inherits the pool but none of its threads
    os.register_at_fork(after_in_child=_new_pool)
# Smaller volumes encode on the calling thread. On two CPUs, two slabs lost
# to one under the 8-channel demo preset up to 2^17 voxels (32x32x16: 0.86
# vs 1.06 ms) and won from 2^18 (64^3: 6.6 vs 7.2 ms); the 48-channel
# presets already win at 2^16.
_INLINE_BELOW_VOXELS = 1 << 18


def _encode_rows(voxels, factor: int, scale, offset, out: np.ndarray, start: int, stop: int):
    """Box-average input rows [start, stop) * factor and lift them into out[start:stop].

    Each output element averages the same voxels in the same order whatever
    the slab, so slabs of a layer equal the whole layer bit for bit.
    """
    _, w, d = voxels.shape
    box = voxels[start * factor : stop * factor].reshape(
        stop - start, factor, w // factor, factor, d // factor, factor
    ).mean(axis=(1, 3, 5))
    rows = out[start:stop]
    np.multiply(box[..., None], scale, out=rows)
    rows += offset


def synth_encode(volume: Volume3D, preset: EncoderPreset, seed: int) -> FeaturePyramid:
    """Box-average downsampling plus a seeded per-channel affine lift.

    Every layer is split along axis 0 into one slab per CPU in the process's
    affinity mask (one slab for small volumes); the slabs write into
    preallocated layer arrays on a shared thread pool. The output does not
    depend on the slab count.
    """
    preset.check_extents(volume.shape)
    h, w, d = volume.shape
    slabs = _WORKERS if volume.voxels.size >= _INLINE_BELOW_VOXELS else 1
    layers, tasks = [], []
    for li, (c_l, factor) in enumerate(zip(preset.channels, preset.cumulative_factors())):
        rng = np.random.default_rng([seed, li])
        scale = rng.standard_normal(c_l)
        offset = 0.1 * rng.standard_normal(c_l)
        rows = h // factor
        feats = np.empty((rows, w // factor, d // factor, c_l))
        bounds = np.linspace(0, rows, min(slabs, rows) + 1).astype(int)
        tasks += [
            (volume.voxels, factor, scale, offset, feats, start, stop)
            for start, stop in zip(bounds[:-1], bounds[1:])
        ]
        layers.append(feats)
    if slabs == 1:
        for task in tasks:
            _encode_rows(*task)
    else:
        for future in [_POOL.submit(_encode_rows, *task) for task in tasks]:
            future.result()
    return FeaturePyramid([PyramidLayer(Tensor(feats)) for feats in layers], volume.shape)


_INDEX_FILE = "pyramid.json"


def export_pyramid(pyramid: FeaturePyramid, out_dir) -> Path:
    """Write one container per layer (channel-first) plus an index file.

    The index lists the layer files and channels, and the source extents
    when the pyramid knows them.
    """
    out = ensure_dir(out_dir)
    names = []
    for i, layer in enumerate(pyramid.layers):
        name = f"layer_{i:02d}.bin"
        channel_first = np.moveaxis(layer.data.data, 3, 0)
        save_tensor(out / name, channel_first, name=f"layer_{i}")
        names.append(name)
    index = {"layers": names, "channels": list(pyramid.channels)}
    if pyramid.source_extents is not None:
        index["source_extents"] = list(pyramid.source_extents)
    write_json(out / _INDEX_FILE, index)
    return out


def import_pyramid(paths, source_extents=None) -> FeaturePyramid:
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
    return FeaturePyramid(layers, source_extents)


def load_pyramid(directory) -> FeaturePyramid:
    """The pyramid an index file lists, whose channels must be the layers'; an index
    without source_extents leaves them unknown."""
    directory = Path(directory)
    return read_json(directory / _INDEX_FILE, "pyramid index", lambda index: _from_index(directory, index))


def _from_index(directory: Path, index: dict) -> FeaturePyramid:
    with malformed("pyramid index"):
        names = [string(name, "layer file name") for name in index["layers"]]
        channels = [integer(c, "channels") for c in index["channels"]]
        extents = index.get("source_extents")
        if extents is not None:
            extents = tuple(integer(n, "source_extents") for n in extents)
            if len(extents) != 3 or min(extents) < 1:
                raise ValueError(f"source_extents must be 3 positive integers, got {extents}")
    pyramid = import_pyramid([directory / name for name in names], extents)
    if list(pyramid.channels) != channels:
        raise ValidationError(f"channels {channels} do not match the layers' {list(pyramid.channels)}")
    return pyramid
