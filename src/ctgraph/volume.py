"""Volumes, multi-label masks, nearest-neighbor resizing, and synthetic phantoms.

Index order is fixed across the whole package: a volume of extents
(H, W, D) is stored C-contiguously with the depth index t running fastest,
i.e. flat offset = (i * W + j) * D + t.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from numbers import Integral
from types import MappingProxyType

import numpy as np

from .container import MAX_ABS, check_keys, check_range, read_json, read_tensor, save_tensor, write_json
from .errors import FormatError, ValidationError, allocating, integer, malformed, number, string

# The largest mask label: the uint16 range segmentation formats store labels in.
# Pooling sizes tables by label, so a bound here keeps them small.
MAX_LABEL = 65535


# Ownership rule of Volume3D and LabelMask3D: an array that already has the
# class's dtype (float64, int32) in C order is kept, not copied, and marked
# read-only, so the caller's array becomes read-only too; any other array is
# copied once, converted, and the caller's array is left as it was.


@dataclass(frozen=True)
class Volume3D:
    """A real-valued scan of extents (H, W, D); see the ownership rule above."""

    voxels: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.voxels, dtype=np.float64)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ValidationError(f"volume must be 3-d with positive extents, got {arr.shape}")
        check_range(arr, "volume")
        arr.setflags(write=False)
        object.__setattr__(self, "voxels", arr)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.voxels.shape


@dataclass(frozen=True)
class LabelMask3D:
    """Integer labels in {0..num_labels}; 0 is background; see the ownership rule above."""

    labels: np.ndarray
    num_labels: int

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ValidationError(f"mask must be 3-d with positive extents, got {arr.shape}")
        if not 1 <= self.num_labels <= MAX_LABEL:
            raise ValidationError(f"num_labels must lie in [1, {MAX_LABEL}], got {self.num_labels}")
        if arr.min() < 0 or arr.max() > self.num_labels:
            raise ValidationError(
                f"mask labels must lie in [0, {self.num_labels}], "
                f"found range [{arr.min()}, {arr.max()}]"
            )
        arr = np.ascontiguousarray(arr, dtype=np.int32)
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.labels.shape


@lru_cache(maxsize=256)
def _nearest_indices(src: int, tgt: int) -> np.ndarray:
    """Read-only source index of each target index, cached per (src, tgt)."""
    # voxel-center convention: src index = floor((tgt index + 0.5) * src / tgt)
    scale = src / tgt
    idx = np.clip(np.floor((np.arange(tgt) + 0.5) * scale).astype(np.intp), 0, src - 1)
    idx.setflags(write=False)
    return idx


def resize_mask_nearest(mask: LabelMask3D, target_shape: tuple[int, int, int]) -> LabelMask3D:
    """Nearest-neighbor resampling; never introduces new labels."""
    th, tw, td = target_shape
    if min(target_shape) < 1:
        raise ValidationError(f"target extents must be positive, got {target_shape}")
    sh, sw, sd = mask.shape
    ih = _nearest_indices(sh, th)
    iw = _nearest_indices(sw, tw)
    it = _nearest_indices(sd, td)
    resized = mask.labels.take(ih, 0).take(iw, 1).take(it, 2)
    return LabelMask3D(resized, mask.num_labels)


# phantom generation ---------------------------------------------------------


@dataclass(frozen=True)
class RegionSpec:
    label: int
    center: tuple[float, float, float]
    radii: tuple[float, float, float]
    intensity: float


@dataclass(frozen=True)
class PathologySpec:
    name: str
    host_label: int
    delta: float
    prevalence: float
    radius: float = 2.0


@dataclass(frozen=True)
class PhantomSpec:
    """Layout for synthetic (volume, mask, targets) triples.

    Regions are painted in order; a later region overwrites earlier voxels.
    intensity_jitter shifts every region's base intensity by a per-sample
    Gaussian draw (anatomy variation between patients). Each pathology, when
    drawn positive, adds an intensity blob strictly inside its host region.
    """

    shape: tuple[int, int, int]
    regions: tuple[RegionSpec, ...]
    pathologies: tuple[PathologySpec, ...] = ()
    seed: int = 0
    noise_sigma: float = 0.0
    intensity_jitter: float = 0.0

    def __post_init__(self):
        if len(self.shape) != 3 or not all(
            isinstance(n, Integral) and not isinstance(n, bool) and n >= 1 for n in self.shape
        ):
            raise ValidationError(f"shape must be 3 positive integer extents, got {self.shape}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, Integral) or self.seed < 0:
            raise ValidationError(f"seed must be an integer >= 0, got {self.seed!r}")
        for name, value in (("noise_sigma", self.noise_sigma), ("intensity_jitter", self.intensity_jitter)):
            if not 0.0 <= value <= MAX_ABS:
                raise ValidationError(f"{name} must lie in [0, {MAX_ABS:g}], got {value}")
        labels = [r.label for r in self.regions]
        if len(set(labels)) != len(labels):
            raise ValidationError("region labels must be unique")
        for r in self.regions:
            if not 1 <= r.label <= MAX_LABEL:
                raise ValidationError(f"region label {r.label} must lie in [1, {MAX_LABEL}] (0 is background)")
            if len(r.center) != 3 or not np.isfinite(r.center).all():
                raise ValidationError(f"region label {r.label}: center must be 3 finite numbers")
            if len(r.radii) != 3 or not all(1 / MAX_ABS <= x <= MAX_ABS for x in r.radii):
                raise ValidationError(f"region label {r.label}: radii must be 3 numbers in [1e-100, 1e+100]")
            if not abs(r.intensity) <= MAX_ABS:
                raise ValidationError(f"region label {r.label}: intensity must lie in ±{MAX_ABS:g}")
        for p in self.pathologies:
            if not 1 / MAX_ABS <= p.radius <= MAX_ABS:
                raise ValidationError(f"pathology '{p.name}': radius must lie in [1e-100, 1e+100]")
            if not abs(p.delta) <= MAX_ABS:
                raise ValidationError(f"pathology '{p.name}': delta must lie in ±{MAX_ABS:g}")
            if not 0.0 <= p.prevalence <= 1.0:
                raise ValidationError(f"pathology '{p.name}': prevalence must lie in [0, 1]")
            if p.host_label not in labels:
                raise ValidationError(f"pathology '{p.name}': unknown host label {p.host_label}")

    @property
    def num_labels(self) -> int:
        return max(r.label for r in self.regions)

    def with_seed(self, seed: int) -> "PhantomSpec":
        return replace(self, seed=seed)


def _ellipsoid(shape, center, radii):
    """(box, inside): bounding-box slices, padded by a voxel and clipped, and its inside voxels."""
    box = tuple(
        slice(max(int(np.floor(c - r)) - 1, 0), min(int(np.ceil(c + r)) + 2, n))
        for n, c, r in zip(shape, center, radii)
    )
    gi, gj, gt = np.ogrid[box]
    ci, cj, ct = center
    ri, rj, rt = radii
    return box, ((gi - ci) / ri) ** 2 + ((gj - cj) / rj) ** 2 + ((gt - ct) / rt) ** 2 <= 1.0


@lru_cache(maxsize=8)
def _paint(shape: tuple[int, int, int], regions: tuple[RegionSpec, ...]):
    """(labels, boxes) of regions painted in order, both read-only.

    They depend on the shape and the regions only, so phantoms that differ
    in seed share one painting. boxes maps each label to a box holding all
    of its voxels.
    """
    with allocating(f"phantom mask of shape {shape}"):
        labels = np.zeros(shape, dtype=np.int32)
    boxes = {}
    for region in regions:
        for axis in range(3):
            lo = region.center[axis] - region.radii[axis]
            hi = region.center[axis] + region.radii[axis]
            if lo < -0.5 or hi > shape[axis] - 0.5:
                raise ValidationError(
                    f"region label {region.label} extends outside extents {shape} on axis {axis}"
                )
        boxes[region.label], inside = _ellipsoid(shape, region.center, region.radii)
        labels[boxes[region.label]][inside] = region.label

    counts = np.bincount(labels.ravel(), minlength=max(boxes) + 1)
    for region in regions:
        if counts[region.label] == 0:
            raise ValidationError(
                f"region label {region.label} has no voxels after painting; "
                "check for overlapping regions"
            )
    labels.setflags(write=False)
    return labels, MappingProxyType(boxes)


def generate_phantom(spec: PhantomSpec) -> tuple[Volume3D, LabelMask3D, np.ndarray]:
    """Deterministic per spec.seed; returns (volume, mask, binary target vector)."""
    shape = tuple(spec.shape)
    labels, boxes = _paint(shape, tuple(spec.regions))

    # every voxel takes its final label's intensity (background 0), jittered per label
    rng = np.random.default_rng(spec.seed)
    painted = [r.label for r in spec.regions]
    level = np.zeros(spec.num_labels + 1)
    level[painted] = [r.intensity for r in spec.regions]
    if spec.intensity_jitter > 0:
        level[painted] += rng.normal(0.0, spec.intensity_jitter, size=len(painted))
    vol = level[labels]

    targets = (rng.random(len(spec.pathologies)) < np.array(
        [p.prevalence for p in spec.pathologies]
    )).astype(np.int32) if spec.pathologies else np.zeros(0, dtype=np.int32)

    for positive, patho in zip(targets, spec.pathologies):
        if not positive:
            continue
        host = boxes[patho.host_label]
        host_voxels = np.argwhere(labels[host] == patho.host_label) + [b.start for b in host]
        site = host_voxels[rng.integers(len(host_voxels))]
        box, blob = _ellipsoid(shape, tuple(site), (patho.radius,) * 3)
        blob &= labels[box] == patho.host_label
        vol[box][blob] += patho.delta

    if spec.noise_sigma > 0:
        vol += rng.normal(0.0, spec.noise_sigma, size=shape)

    # the mask shares the cached painting, which is read-only
    return Volume3D(vol), LabelMask3D(labels, spec.num_labels), targets


# JSON and container I/O ------------------------------------------------------


def phantom_spec_from_json(doc: dict) -> PhantomSpec:
    with malformed("phantom spec"):
        # each sample's index seeds it, so a spec file holds no seed of its own
        doc = check_keys(doc, set(PhantomSpec.__dataclass_fields__) - {"seed"}, "phantom spec", {"seed": 0})
        regions = tuple(
            RegionSpec(
                label=integer(r["label"], "region label"),
                center=tuple(number(x, "region center") for x in r["center"]),
                radii=tuple(number(x, "region radii") for x in r["radii"]),
                intensity=number(r["intensity"], "region intensity"),
            )
            for r in (check_keys(r, RegionSpec.__dataclass_fields__, "region") for r in doc["regions"])
        )
        pathologies = tuple(
            PathologySpec(
                name=string(p["name"], "pathology name"),
                host_label=integer(p["host_label"], f"pathology '{p['name']}' host_label"),
                delta=number(p["delta"], f"pathology '{p['name']}' delta"),
                prevalence=number(p["prevalence"], f"pathology '{p['name']}' prevalence"),
                radius=number(p.get("radius", 2.0), f"pathology '{p['name']}' radius"),
            )
            for p in (check_keys(p, PathologySpec.__dataclass_fields__, "pathology")
                      for p in doc.get("pathologies", ()))
        )
        return PhantomSpec(
            shape=tuple(integer(x, "shape extent") for x in doc["shape"]),
            regions=regions,
            pathologies=pathologies,
            noise_sigma=number(doc.get("noise_sigma", 0.0), "noise_sigma"),
            intensity_jitter=number(doc.get("intensity_jitter", 0.0), "intensity_jitter"),
        )


def load_phantom_spec(path) -> PhantomSpec:
    return read_json(path, "phantom spec", phantom_spec_from_json)


def save_phantom_spec(path, spec: PhantomSpec) -> None:
    write_json(path, {key: value for key, value in asdict(spec).items() if key != "seed"})


def save_volume(path, volume: Volume3D) -> None:
    save_tensor(path, volume.voxels, name="volume")


def load_volume(path) -> Volume3D:
    name, array, _ = read_tensor(path)
    if array.ndim != 3:
        raise FormatError(f"{path}: volume container must be 3-d, got shape {array.shape}")
    try:
        return Volume3D(array)  # its finiteness check is the only one on this path
    except ValidationError as exc:
        raise ValidationError(f"{path}: record '{name}': {exc}") from exc


def save_mask(path, mask: LabelMask3D) -> None:
    save_tensor(path, mask.labels, name="mask", meta={"num_labels": mask.num_labels})


def load_mask(path) -> LabelMask3D:
    _, array, header = read_tensor(path)
    if array.ndim != 3 or array.dtype.kind != "i":  # a float scan would truncate to labels
        raise FormatError(f"{path}: mask container must be 3-d integers, got {header['dtype']} {array.shape}")
    meta = header.get("meta") or {}
    # without a header value: the largest label present, at least 1
    num_labels = meta["num_labels"] if "num_labels" in meta else int(array.max(initial=1))
    if isinstance(num_labels, bool) or not isinstance(num_labels, Integral):
        raise FormatError(f"{path}: mask num_labels must be an integer, got {num_labels!r}")
    if not 1 <= num_labels <= MAX_LABEL:
        raise FormatError(f"{path}: mask num_labels must lie in [1, {MAX_LABEL}], got {num_labels}")
    return LabelMask3D(array, num_labels)
