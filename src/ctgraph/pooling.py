"""Mask-guided average pooling, layer fusion, and global adaptive pooling.

`mask_pool_layer` is the one pooling op, one tape node per layer: it keeps
the voxels of listed regions, dropping the background, and sums every
(region, channel) slot with one `np.bincount` per block of rows; each slot
adds in row order, so the sums are bit-identical to one bincount per
channel, and the cost is independent of how many regions the mask carries.
A per-region rescan is used only as a test oracle. Accumulation is always
float64, even for float32 feature maps, because region voxel counts can be
large. The global grid is the same op over a mask that labels each voxel of
the final layer with its grid cell. The rows of both node levels come from
one rule, a constant matrix applied with `linear`: the hierarchy's (nodes x
labels) membership matrix weighting the label rows by voxel count. A
level's per-layer rows are column views of its `concat`-fused rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import load_tensors, save_tensors
from .errors import ShapeError, ValidationError, malformed
from .graph import LEVEL_COARSE, LEVEL_FINE, AnatomyHierarchy
from .tensor import Tensor, concat, from_op, linear, reshape
from .volume import LabelMask3D, resize_mask_nearest

# (row, channel) entries summed per bincount call, unless the running sums
# a block carries are more. Larger blocks were slower per scan: their
# multi-MB temporaries are page-faulted afresh on every call.
_BLOCK_ENTRIES = 1 << 16


def _segment_sums(data: np.ndarray, keep: np.ndarray, kept_seg: np.ndarray, num_segments: int):
    """float64 (num_segments, C) sums of the rows data[keep] into segments kept_seg.

    Entry (row, channel) adds to slot segment * C + channel, one
    `np.bincount` per block of rows whose leading num_segments * C entries
    are every slot's running sum. Each slot so adds its values in row order
    from 0.0, as one bincount per channel over all the rows would: the sums
    are bit-identical to that. A block is never smaller than the sums it
    carries, so carrying them at most doubles the work.
    """
    channels = data.shape[1]
    slots = num_segments * channels
    step = max(1, max(_BLOCK_ENTRIES, slots) // max(channels, 1))
    # one buffer pair for all blocks: the running sums, then one block's entries
    index = np.empty(slots + min(step, keep.size) * channels, dtype=np.intp)
    weights = np.zeros(index.size)
    index[:slots] = np.arange(slots)
    for lo in range(0, keep.size, step):
        rows = keep[lo : lo + step]
        end = slots + rows.size * channels
        block_index = index[slots:end].reshape(rows.size, channels)
        np.add(kept_seg[lo : lo + step, None] * channels, np.arange(channels), out=block_index)
        weights[slots:end].reshape(rows.size, channels)[...] = data[rows]
        weights[:slots] = np.bincount(index[:end], weights=weights[:end], minlength=slots)
    return weights[:slots].reshape(num_segments, channels)


def mask_pool_layer(layer: Tensor, mask: LabelMask3D, region_labels) -> tuple[Tensor, np.ndarray]:
    """Per-region channel means of one (H, W, D, C) layer, as one tape node.

    The mask must already be resized to this layer's extents. Returns
    (means Tensor (n_regions, C), voxel counts (n_regions,)); a region with
    no voxels comes back as a zero row with count 0. Voxels of unlisted
    labels, the background among them, count nowhere and get zero gradient.
    `_segment_sums` adds the kept voxels in float64, even for a float32
    layer, each (region, channel) slot in row order from 0.0.
    """
    if layer.ndim != 4:
        raise ShapeError(f"layer features must be (H, W, D, C), got {layer.shape}")
    if layer.shape[:3] != mask.shape:
        raise ShapeError(
            f"layer extents {layer.shape[:3]} do not match mask extents {mask.shape}"
        )
    labels = list(region_labels)
    n_regions = len(labels)
    # every unlisted label (incl. background) gets id n_regions, which is
    # dropped; region labels outside the mask vocabulary stay empty
    lut = np.full(max([mask.num_labels] + labels) + 1, n_regions, dtype=np.intp)
    lut[labels] = np.arange(n_regions)
    seg = lut[mask.labels.ravel()]
    keep = np.flatnonzero(seg < n_regions)
    kept_seg = seg[keep]
    counts = np.bincount(kept_seg, minlength=n_regions)
    divisor = np.maximum(counts, 1)[:, None].astype(np.float64)
    data = layer.data.reshape(-1, layer.shape[3])
    means = _segment_sums(data, keep, kept_seg, n_regions) / divisor

    def backward(g):
        gv = np.zeros_like(data)
        gv[keep] = (g / divisor)[kept_seg]
        return (gv.reshape(layer.shape),)

    return from_op(means, (layer,), backward), counts


@dataclass
class RegionFeatureSet:
    """Pooled features for one node level, rows ordered by node id; every array has a
    leading batch axis (B, ...) when `stack_pooled` stacked B samples."""

    region_ids: list[int]
    per_layer: list[Tensor]  # each (n_regions, C_l)
    fused: Tensor  # (n_regions, sum C_l)
    counts: np.ndarray  # (n_regions, L) voxels per layer
    valid: np.ndarray  # (n_regions,) region present at full resolution

    @property
    def num_regions(self) -> int:
        return len(self.region_ids)


def _level_set(region_ids, fused: Tensor, widths, counts, valid) -> RegionFeatureSet:
    """A level's set over one buffer, fused, through which gradients flow: each per_layer
    entry is a writable, tape-free Tensor over its widths[k] columns of fused.data."""
    views = [Tensor(fused.data[..., sum(widths[:k]) : sum(widths[: k + 1])]) for k in range(len(widths))]
    return RegionFeatureSet(region_ids, views, fused, counts, valid)


GLOBAL_GRID = (4, 4, 2)  # cells the final layer is pooled to; the GAT's global embedding reads them


@dataclass
class GlobalFeatureGrid:
    """Adaptive average pooling of the final layer down to GLOBAL_GRID."""

    grid: Tensor  # (gh, gw, gd, C_L)

    def flat(self) -> Tensor:
        """The grid as (B, gh * gw * gd * C_L) rows: B = 1 for one sample, or the batch
        axis of a grid that `stack_pooled` stacked."""
        return reshape(self.grid, (-1, int(np.prod(self.grid.shape[-4:]))))

    @property
    def channels(self) -> int:
        return self.grid.shape[-1]


def check_grid_extents(extents, what: str = "input") -> None:
    """Raise a ShapeError naming what when the (H, W, D) extents leave a GLOBAL_GRID cell empty."""
    if any(n < t for n, t in zip(extents, GLOBAL_GRID)):
        raise ShapeError(f"{what} extents {tuple(extents)} are smaller than the target grid {GLOBAL_GRID}")


def adaptive_avg_pool_global(layer: Tensor) -> GlobalFeatureGrid:
    """Tile the layer into the GLOBAL_GRID boxes and average each box.

    Along an axis of n voxels, cell a spans [a*n//t, (a+1)*n//t). Each voxel
    is labelled with its cell (1..cells, in C order), and the box means are
    `mask_pool_layer` over that mask, differentiable like any region's rows.
    """
    if layer.ndim != 4:
        raise ShapeError(f"expected (H, W, D, C) features, got {layer.shape}")
    check_grid_extents(layer.shape[:3])
    # voxel i of n lies in the cell a with a*n//t <= i < (a+1)*n//t, that is a = ((i+1)*t - 1)//n
    axis_cells = [(np.arange(1, n + 1) * t - 1) // n for n, t in zip(layer.shape[:3], GLOBAL_GRID)]
    cells = np.ravel_multi_index(np.ix_(*axis_cells), GLOBAL_GRID) + 1
    n_cells = int(np.prod(GLOBAL_GRID))
    means, _ = mask_pool_layer(layer, LabelMask3D(cells, n_cells), range(1, n_cells + 1))
    return GlobalFeatureGrid(reshape(means, GLOBAL_GRID + (layer.shape[3],)))


def pool_all(pyramid, mask: LabelMask3D, hierarchy: AnatomyHierarchy):
    """Pool fine regions, coarse union regions, and the global grid.

    Each layer takes one mask resize and one mask_pool_layer call over the
    hierarchy's labels. Both node levels then follow one rule: with M the
    level's (nodes x labels) membership matrix, a node's row is the
    voxel-count-weighted mean of its member label rows, a constant matrix
    M * counts / (M @ counts) times the pooled rows (a fine node's is its own
    label row), differentiable like the rows themselves; its counts are
    M @ label counts, and it is valid when any member label is in the mask.
    Nearest resizing never invents a label, so a label counted at any layer
    is in the mask; the full-resolution mask is scanned only when some label
    is counted at none (a region too small to survive the resizes).
    Regions whose label is absent from the mask (including labels outside
    its vocabulary) come back flagged invalid with zero features, never as
    an error. A pyramid that records its source extents must come with a
    mask of the same extents. Returns (fine RegionFeatureSet, coarse
    RegionFeatureSet, GlobalFeatureGrid).
    """
    source = pyramid.source_extents
    if source is not None and source != mask.shape:
        raise ValidationError(
            f"mask extents {mask.shape} differ from the encoded scan's extents {source}"
        )
    labels = hierarchy.labels
    levels = {level: hierarchy.members(level) for level in (LEVEL_FINE, LEVEL_COARSE)}
    per_layer = {level: [] for level in levels}
    label_counts = []
    for layer in pyramid.layers:
        resized = resize_mask_nearest(mask, layer.extents)
        rows, counts = mask_pool_layer(layer.data, resized, labels)
        for level, members in levels.items():
            weights = members * counts / np.maximum(members @ counts, 1)[:, None]
            per_layer[level].append(linear(Tensor(weights), rows))
        label_counts.append(counts)
    label_counts = np.stack(label_counts, axis=1)

    present = label_counts.any(axis=1)
    if not present.all():
        present = np.bincount(mask.labels.ravel(), minlength=max(labels) + 1)[labels] > 0
    fine_set, coarse_set = (
        _level_set([n.id for n in getattr(hierarchy, level)],  # .fine or .coarse
                   concat(per_layer[level], axis=1), pyramid.channels, members @ label_counts,
                   members @ present > 0)
        for level, members in levels.items()
    )
    grid = adaptive_avg_pool_global(pyramid.layers[-1].data)
    return fine_set, coarse_set, grid


def stack_pooled(samples):
    """One pooled triple whose arrays stack a list of samples' along a new leading batch
    axis, as constants: no fit or prediction differentiates through them.

    The one check that pooled samples agree: the error names the first sample whose
    (fine, coarse, grid) shapes or layer widths (a ShapeError), or fine or coarse region
    ids (a ValidationError), differ from sample 0's; its `sample` attribute is that index.
    """
    def agreed(f, c, g):  # what each sample shares with sample 0, keyed as its error names it
        return {"(fine, coarse, grid) shapes": (f.fused.shape, c.fused.shape, g.grid.shape),
                "(fine, coarse) layer widths": tuple([t.shape[-1] for t in s.per_layer] for s in (f, c)),
                "fine region ids": list(f.region_ids), "coarse region ids": list(c.region_ids)}

    first = agreed(*samples[0])
    for i, sample in enumerate(samples):
        if (found := agreed(*sample)) != first:
            what = next(key for key in first if found[key] != first[key])
            error = (ValidationError if what.endswith("ids") else ShapeError)(
                f"pooled sample {i}: {what} {found[what]}, sample 0's {first[what]}"
            )
            error.sample = i
            raise error

    def level(sets):  # one stacked buffer, split into layers as sample 0's is
        fused = Tensor(np.stack([s.fused.data for s in sets]))
        counts, valid = np.stack([s.counts for s in sets]), np.stack([s.valid for s in sets])
        return _level_set(sets[0].region_ids, fused, [t.shape[-1] for t in sets[0].per_layer], counts, valid)

    fine_sets, coarse_sets, grids = zip(*samples)
    grid = GlobalFeatureGrid(Tensor(np.stack([g.grid.data for g in grids])))
    return level(fine_sets), level(coarse_sets), grid


def take_pooled(stacked, indices):
    """The samples at indices of a triple that `stack_pooled` stacked, stacked alike by one
    fancy-index per array; `stack_pooled` checked them, so nothing is checked again."""
    fine, coarse, grid = stacked

    def level(s):
        fused, widths = Tensor(s.fused.data[indices]), [t.shape[-1] for t in s.per_layer]
        return _level_set(s.region_ids, fused, widths, s.counts[indices], s.valid[indices])

    return level(fine), level(coarse), GlobalFeatureGrid(Tensor(grid.grid.data[indices]))


# container I/O ---------------------------------------------------------------


def save_pooled(path, fine: RegionFeatureSet, coarse: RegionFeatureSet, grid: GlobalFeatureGrid) -> None:
    named: dict[str, np.ndarray] = {}
    for prefix, rset in (("fine", fine), ("coarse", coarse)):
        named[f"{prefix}_ids"] = np.asarray(rset.region_ids, dtype=np.int64)
        for i, t in enumerate(rset.per_layer):
            named[f"{prefix}_layer_{i:02d}"] = t.data
        named[f"{prefix}_counts"] = rset.counts.astype(np.int64)
        named[f"{prefix}_valid"] = rset.valid.astype(np.int32)
    named["global_grid"] = grid.grid.data
    save_tensors(path, named)


def load_pooled(path):
    arrays = load_tensors(path)

    def record(name: str, ndim: int, lead: tuple = ()) -> np.ndarray:
        """The named array, which must have ndim axes, the first extents being lead."""
        array = arrays[name]
        if array.ndim != ndim or array.shape[: len(lead)] != lead:
            raise ValidationError(
                f"{path}: record '{name}' has shape {array.shape}, want {ndim}-d leading {lead}"
            )
        return array

    def build(prefix: str) -> RegionFeatureSet:
        ids = record(f"{prefix}_ids", 1)
        n = len(ids)
        per_layer = []
        while f"{prefix}_layer_{len(per_layer):02d}" in arrays:
            per_layer.append(Tensor(record(f"{prefix}_layer_{len(per_layer):02d}", 2, (n,))))
        if not per_layer:
            raise ValidationError(f"{path}: no '{prefix}' layers found")
        fused, widths = concat(per_layer, axis=1), [t.shape[1] for t in per_layer]
        counts = record(f"{prefix}_counts", 2, (n, len(per_layer)))
        return _level_set(ids.tolist(), fused, widths, counts, record(f"{prefix}_valid", 1, (n,)).astype(bool))

    with malformed(f"pooled-feature file {path}"):  # a missing record raises KeyError
        fine, coarse = build("fine"), build("coarse")
        grid = GlobalFeatureGrid(Tensor(record("global_grid", 4, GLOBAL_GRID)))
    # both levels pool the same layers, and the grid pools the last one
    fine_widths, coarse_widths = ([t.shape[1] for t in s.per_layer] for s in (fine, coarse))
    if fine_widths != coarse_widths:
        raise ValidationError(
            f"{path}: records fine_layer_* have widths {fine_widths}, coarse_layer_* {coarse_widths}; "
            f"the levels must agree"
        )
    if grid.channels != fine_widths[-1]:
        raise ValidationError(
            f"{path}: record 'global_grid' has {grid.channels} channels, but the last layer has width "
            f"{fine_widths[-1]}"
        )
    return fine, coarse, grid
