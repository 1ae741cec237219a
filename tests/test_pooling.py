"""Pooling kernels against brute-force oracles.

The rescan oracle recomputes each region's mean by scanning the whole
volume once per region; the single-pass kernel must agree to 1e-9 in
float64. Union pooling is checked against the voxel-count-weighted mean
identity over disjoint children.
"""

from dataclasses import replace

import numpy as np
import pytest

from ctgraph.container import load_tensors, save_tensors
from ctgraph.demo import demo_phantom_spec
from ctgraph.encoder import (
    EncoderPreset,
    FeaturePyramid,
    PyramidLayer,
    get_preset,
    synth_encode,
)
from ctgraph.errors import ShapeError, ValidationError
from ctgraph.gradcheck import check_gradients
from ctgraph.graph import (
    TOPOLOGIES,
    AnatomyHierarchy,
    CoarseNode,
    FineNode,
    build_graph,
    default_hierarchy,
    save_hierarchy,
)
from ctgraph.pooling import (
    GlobalFeatureGrid,
    _segment_sums,
    adaptive_avg_pool_global,
    load_pooled,
    mask_pool_layer,
    pool_all,
    save_pooled,
    stack_pooled,
    take_pooled,
)
from ctgraph.tensor import Tensor
from test_container import traced_peak
from test_tensor import weighted_sum
from ctgraph.volume import LabelMask3D, Volume3D, generate_phantom, resize_mask_nearest


def rescan_oracle(features: np.ndarray, labels: np.ndarray, region_labels):
    """Full rescan per region: the independent reference for mask pooling."""
    n_regions = len(region_labels)
    c = features.shape[-1]
    out = np.zeros((n_regions, c))
    counts = np.zeros(n_regions, dtype=np.int64)
    flat_feats = features.reshape(-1, c)
    flat_labels = labels.ravel()
    for slot, label in enumerate(region_labels):
        member = flat_labels == label
        counts[slot] = member.sum()
        if counts[slot]:
            out[slot] = flat_feats[member].mean(axis=0)
    return out, counts


def per_channel_sums(values: np.ndarray, seg: np.ndarray, num_segments: int):
    """The former pooling kernel, one float64 bincount per channel: the sums
    and counts of the rows whose id is below num_segments."""
    kept = seg < num_segments
    counts = np.bincount(seg[kept], minlength=num_segments)
    sums = np.stack(
        [
            np.bincount(seg[kept], weights=values[kept, ch].astype(np.float64),
                        minlength=num_segments)
            for ch in range(values.shape[1])
        ],
        axis=1,
    )
    return sums, counts


def bincount_reference(values: np.ndarray, seg: np.ndarray, num_segments: int):
    """Per-channel float64 bincount means and counts over the rows whose id is below num_segments."""
    sums, counts = per_channel_sums(values, seg, num_segments)
    return sums / np.maximum(counts, 1)[:, None], counts


def as_layer(values: np.ndarray, requires_grad: bool = False) -> Tensor:
    """(n, C) rows as an (n, 1, 1, C) layer."""
    return Tensor(values.reshape(len(values), 1, 1, -1), requires_grad=requires_grad)


def pool_rows(layer: Tensor, seg, num_segments: int):
    """mask_pool_layer of an (n, 1, 1, C) layer whose mask labels are seg + 1, over
    regions 1..num_segments: the segment ids past the end become unlisted labels."""
    seg = np.asarray(seg)
    mask = LabelMask3D((seg + 1).reshape(-1, 1, 1), max(int(seg.max()) + 1, num_segments))
    return mask_pool_layer(layer, mask, range(1, num_segments + 1))


def assert_rows_close(out: np.ndarray, ref: np.ndarray, rel: float):
    """Each row within rel of the largest magnitude in that reference row."""
    scale = np.maximum(np.abs(ref).max(axis=1, keepdims=True), 1e-300)
    assert np.max(np.abs(out - ref) / scale) <= rel


def demo_phantom_x4():
    """The demo phantom blown up 4x along every axis, regions on the same voxels."""
    base = demo_phantom_spec()
    return generate_phantom(replace(
        base,
        shape=tuple(4 * s for s in base.shape),
        regions=tuple(
            replace(r, center=tuple(4 * c + 1.5 for c in r.center),
                    radii=tuple(4 * x for x in r.radii))
            for r in base.regions
        ),
        pathologies=tuple(replace(p, radius=4 * p.radius) for p in base.pathologies),
    ))


class TestMaskPoolLayer:
    def test_constant_map_pools_to_constant(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, (6, 6, 4))
        feats = np.full((6, 6, 4, 3), 1.25)
        out, counts = mask_pool_layer(Tensor(feats), LabelMask3D(labels, 3), [1, 2, 3])
        for slot in range(3):
            if counts[slot]:
                assert np.allclose(out.data[slot], 1.25, atol=1e-12)
            else:
                assert np.all(out.data[slot] == 0.0)

    def test_single_voxel_region(self):
        labels = np.zeros((4, 4, 4), dtype=np.int32)
        labels[1, 2, 3] = 1
        feats = np.random.default_rng(1).standard_normal((4, 4, 4, 5))
        out, counts = mask_pool_layer(Tensor(feats), LabelMask3D(labels, 1), [1])
        assert counts[0] == 1
        assert np.array_equal(out.data[0], feats[1, 2, 3])

    def test_matches_rescan_oracle(self):
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((8, 8, 8, 4))
        labels = rng.integers(0, 4, (8, 8, 8))
        out, counts = mask_pool_layer(Tensor(feats), LabelMask3D(labels, 3), [1, 2, 3])
        expected, expected_counts = rescan_oracle(feats, labels, [1, 2, 3])
        assert np.array_equal(counts, expected_counts)
        assert np.max(np.abs(out.data - expected)) < 1e-9

    def test_extent_mismatch_rejected(self):
        feats = Tensor(np.zeros((4, 4, 4, 2)))
        mask = LabelMask3D(np.zeros((4, 4, 2), dtype=np.int32), 1)
        with pytest.raises(ShapeError, match="extents"):
            mask_pool_layer(feats, mask, [1])

    def test_gradients_flow_through_pooling(self):
        rng = np.random.default_rng(3)
        feats = Tensor(rng.standard_normal((4, 4, 2, 3)), requires_grad=True)
        mask = LabelMask3D(rng.integers(0, 3, (4, 4, 2)), 2)
        weights = rng.standard_normal((2, 3))

        def loss():
            pooled, _ = mask_pool_layer(feats, mask, [1, 2])
            return weighted_sum(pooled, weights)

        assert check_gradients(loss, [feats]) < 1e-4

    def test_gradients_on_a_mostly_background_mask(self):
        rng = np.random.default_rng(16)
        feats = Tensor(rng.standard_normal((6, 6, 4, 3)), requires_grad=True)
        labels = np.zeros((6, 6, 4), dtype=np.int32)
        labels[1:3, 2:4, 1:3] = 1  # 8 of 144 voxels
        labels[4, 4, 2] = 2
        mask = LabelMask3D(labels, 2)
        weights = rng.standard_normal((2, 3))

        def loss():
            pooled, _ = mask_pool_layer(feats, mask, [1, 2])
            return weighted_sum(pooled, weights)

        assert check_gradients(loss, [feats]) < 1e-4
        assert np.all(feats.grad[labels == 0] == 0.0)

    def test_is_one_tape_node_whose_only_parent_is_the_layer(self, monkeypatch):
        import ctgraph.pooling as pooling

        rng = np.random.default_rng(18)
        feats = Tensor(rng.standard_normal((4, 4, 2, 3)), requires_grad=True)
        mask = LabelMask3D(rng.integers(0, 3, (4, 4, 2)), 2)
        recorded = []
        from_op = pooling.from_op

        def counting_from_op(data, parents, backward):
            recorded.append(parents)
            return from_op(data, parents, backward)

        monkeypatch.setattr(pooling, "from_op", counting_from_op)
        mask_pool_layer(feats, mask, [1, 2])
        assert len(recorded) == 1 and len(recorded[0]) == 1 and recorded[0][0] is feats

    def test_demo_phantom_x4_matches_bincount_reference(self):
        volume, mask, _ = demo_phantom_x4()
        hierarchy = default_hierarchy()
        labels = [n.label for n in hierarchy.fine]
        pyramid = synth_encode(volume, get_preset("swinunetr-style"), seed=7)
        for layer in pyramid.layers:
            resized = resize_mask_nearest(mask, layer.extents)
            slot = np.full(mask.num_labels + 1, len(labels))
            slot[labels] = np.arange(len(labels))
            seg = slot[resized.labels.ravel()]
            values = layer.data.data.reshape(-1, layer.channels)
            # float32 values on a grid of step 2**(e - 24), all below 2**e in
            # magnitude: every region's sum is an integer multiple of the step
            # below 2**(24 + 18), exact in float64 in any order, not in float32
            step = 2.0 ** (np.frexp(np.abs(values).max())[1] - 24)
            assert seg.size < 2**18
            on_grid = (np.round(values / step) * step).astype(np.float32)
            for cast, check in ((values, 1e-12), (on_grid, None)):
                out, counts = mask_pool_layer(
                    Tensor(cast.reshape(layer.data.shape)), resized, labels
                )
                ref, ref_counts = bincount_reference(cast, seg, len(labels))
                assert np.array_equal(counts, ref_counts)
                if check is None:
                    assert np.array_equal(out.data, ref)
                else:
                    assert_rows_close(out.data, ref, check)


class TestSegments:
    """mask_pool_layer over (n, 1, 1, C) layers whose mask labels are segment ids plus 1."""

    def test_empty_segment_is_zero_row(self):
        means, counts = pool_rows(as_layer(np.ones((3, 2))), [0, 0, 2], 4)
        assert counts.tolist() == [2, 0, 1, 0]
        assert np.all(means.data[1] == 0.0)
        assert np.all(means.data[3] == 0.0)

    def test_float32_accumulates_in_float64(self):
        # many identical float32 values whose naive float32 mean drifts
        n = 200000
        layer = as_layer(np.full((n, 1), 0.1, dtype=np.float32))
        means, _ = pool_rows(layer, np.zeros(n, dtype=np.intp), 1)
        assert abs(means.data[0, 0] - np.float64(np.float32(0.1))) < 1e-12

    def test_visit_order_independence_at_float32(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((5000, 3)).astype(np.float32)
        seg = rng.integers(0, 4, 5000)
        base, _ = pool_rows(as_layer(values), seg, 4)
        perm = rng.permutation(5000)
        shuffled, _ = pool_rows(as_layer(values[perm]), seg[perm], 4)
        rel = np.abs(shuffled.data - base.data) / np.maximum(np.abs(base.data), 1e-12)
        assert rel.max() < 1e-6

    def test_unlisted_voxels_are_dropped_with_zero_gradient(self):
        rng = np.random.default_rng(8)
        values = rng.standard_normal((60, 3))
        layer = as_layer(values, requires_grad=True)
        seg = rng.integers(0, 6, 60)  # ids 4 and 5 are labels 5 and 6, not listed
        means, counts = pool_rows(layer, seg, 4)
        ref, ref_counts = bincount_reference(values, seg, 4)
        assert np.array_equal(counts, ref_counts)
        assert_rows_close(means.data, ref, 1e-12)
        g = rng.standard_normal((4, 3))
        weighted_sum(means, g).backward()
        grad = layer.grad.reshape(60, 3)
        kept = seg < 4
        assert np.all(grad[~kept] == 0.0)
        assert np.array_equal(grad[kept], (g / np.maximum(counts, 1)[:, None])[seg[kept]])

    def test_non_finite_voxel_reaches_only_its_own_region(self):
        values = np.ones((4, 2))
        values[3] = np.inf
        means, _ = pool_rows(as_layer(values), [0, 1, 1, 2], 2)  # voxel 3 unlisted
        assert np.array_equal(means.data, np.ones((2, 2)))
        values[3] = np.nan
        means, _ = pool_rows(as_layer(values), [0, 1, 1, 0], 2)
        assert np.isnan(means.data[0]).all() and np.array_equal(means.data[1], [1.0, 1.0])

    def test_many_segments(self):
        rng = np.random.default_rng(9)
        n_segments, n = 5000, 3000
        values = rng.standard_normal((n, 4)).astype(np.float32)
        seg = rng.integers(0, n_segments + 50, n)
        means, counts = pool_rows(as_layer(values), seg, n_segments)
        ref, ref_counts = bincount_reference(values, seg, n_segments)
        assert np.array_equal(counts, ref_counts)
        assert np.array_equal(means.data, ref)


class TestBlockedKernel:
    """The blocked bincount kernel against the per-channel one it replaced: bit-identical."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("channels", [1, 768])
    @pytest.mark.parametrize("num_segments", [1, 5])
    @pytest.mark.parametrize("smallest_blocks", [False, True])
    @pytest.mark.parametrize("rows", [0, 400], ids=["no-rows", "many-rows"])
    def test_matches_the_per_channel_kernel(
        self, monkeypatch, dtype, channels, num_segments, smallest_blocks, rows
    ):
        import ctgraph.pooling as pooling

        if smallest_blocks:  # blocks of num_segments rows: one row, or five that end
            monkeypatch.setattr(pooling, "_BLOCK_ENTRIES", 1)  # mid-way through segments
        rng = np.random.default_rng(channels + rows)
        values = (rng.standard_normal((rows, channels)) * 1e3).astype(dtype)
        seg = rng.integers(0, num_segments + 2, rows)  # the last two ids are dropped
        sums, _ = per_channel_sums(values, seg, num_segments)
        kept = np.flatnonzero(seg < num_segments)
        got_sums = _segment_sums(values, kept, seg[kept], num_segments)
        assert got_sums.dtype == np.float64 and np.array_equal(got_sums, sums)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("channels", [1, 768])
    @pytest.mark.parametrize("num_segments", [1, 5])
    @pytest.mark.parametrize("smallest_blocks", [False, True])
    def test_pooled_means_and_gradient_match_the_per_channel_kernel(
        self, monkeypatch, dtype, channels, num_segments, smallest_blocks
    ):
        import ctgraph.pooling as pooling

        if smallest_blocks:
            monkeypatch.setattr(pooling, "_BLOCK_ENTRIES", 1)
        rows = 400
        rng = np.random.default_rng(channels + rows)
        values = (rng.standard_normal((rows, channels)) * 1e3).astype(dtype)
        seg = rng.integers(0, num_segments + 2, rows)  # the last two ids are unlisted labels
        g = rng.standard_normal((num_segments, channels))
        sums, counts = per_channel_sums(values, seg, num_segments)
        divisor = np.maximum(counts, 1)[:, None]
        kept = np.flatnonzero(seg < num_segments)
        grad = np.zeros_like(values)
        grad[kept] = (g / divisor)[seg[kept]]  # the backward, unchanged

        layer = as_layer(values, requires_grad=True)
        got_means, got_counts = pool_rows(layer, seg, num_segments)
        assert np.array_equal(got_counts, counts)
        assert np.array_equal(got_means.data, sums / divisor)
        weighted_sum(got_means, g).backward()
        assert layer.grad.dtype == dtype and np.array_equal(layer.grad.reshape(rows, channels), grad)

    def test_ingest_sized_pyramid_layers_match_the_per_channel_kernel(self):
        volume, mask, _ = demo_phantom_x4()
        labels = default_hierarchy().labels
        slot = np.full(mask.num_labels + 1, len(labels))
        slot[labels] = np.arange(len(labels))
        for layer in synth_encode(volume, get_preset("swinunetr-style"), seed=7).layers:
            seg = slot[resize_mask_nearest(mask, layer.extents).labels.ravel()]
            kept = np.flatnonzero(seg < len(labels))
            values = layer.data.data.reshape(-1, layer.channels)
            for cast in (values, values.astype(np.float32)):
                sums, _ = per_channel_sums(cast, seg, len(labels))
                assert np.array_equal(_segment_sums(cast, kept, seg[kept], len(labels)), sums)


class TestAdaptivePool:
    def test_exact_size_is_identity(self):
        data = np.random.default_rng(0).standard_normal((4, 4, 2, 3))
        out = adaptive_avg_pool_global(Tensor(data))
        assert np.array_equal(out.grid.data, data)

    def test_constant_map(self):
        out = adaptive_avg_pool_global(Tensor(np.full((8, 12, 6, 2), 0.75)))
        assert np.allclose(out.grid.data, 0.75, atol=1e-12)

    def test_8x8x4_boxes_match_brute_force(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((8, 8, 4, 2))
        out = adaptive_avg_pool_global(Tensor(data)).grid.data
        for a in range(4):
            for b in range(4):
                for c in range(2):
                    box = data[2 * a : 2 * a + 2, 2 * b : 2 * b + 2, 2 * c : 2 * c + 2]
                    assert np.allclose(out[a, b, c], box.mean(axis=(0, 1, 2)), atol=1e-12)

    def test_too_small_input_rejected(self):
        with pytest.raises(ShapeError, match="smaller"):
            adaptive_avg_pool_global(Tensor(np.zeros((3, 4, 2, 1))))

    def test_pooling_a_large_layer_keeps_no_voxel_sized_matrix(self):
        layer = Tensor(np.random.default_rng(6).standard_normal((64, 64, 32, 2)))  # 2 MB
        grids = []
        extra = traced_peak(lambda: grids.append(adaptive_avg_pool_global(layer)))
        assert extra < 16 << 20  # a dense (cells x voxels) float64 matrix would take 33.5 MB

    def test_repeated_calls_give_equal_grids(self):
        data = np.random.default_rng(6).standard_normal((8, 8, 4, 3))
        first = adaptive_avg_pool_global(Tensor(data)).grid.data
        second = adaptive_avg_pool_global(Tensor(data)).grid.data
        assert np.array_equal(first, second)

    def test_partitions_tile_input_exactly(self):
        # sum of (box mean * box volume) must reproduce the total sum
        rng = np.random.default_rng(5)
        data = rng.standard_normal((10, 7, 5, 1))
        out = adaptive_avg_pool_global(Tensor(data)).grid.data
        total = 0.0
        for a in range(4):
            h0, h1 = a * 10 // 4, (a + 1) * 10 // 4
            for b in range(4):
                w0, w1 = b * 7 // 4, (b + 1) * 7 // 4
                for c in range(2):
                    d0, d1 = c * 5 // 2, (c + 1) * 5 // 2
                    total += out[a, b, c, 0] * (h1 - h0) * (w1 - w0) * (d1 - d0)
        assert total == pytest.approx(data.sum(), rel=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((5, 6, 3, 2)), requires_grad=True)
        w = rng.standard_normal((4, 4, 2, 2))

        def loss():
            return weighted_sum(adaptive_avg_pool_global(x).grid, w)

        assert check_gradients(loss, [x]) < 1e-4


def two_level_hierarchy():
    fine = (
        FineNode(1, "a", 1, 10),
        FineNode(2, "b", 2, 10),
        FineNode(3, "c", 3, 11),
    )
    coarse = (CoarseNode(10, "left"), CoarseNode(11, "right"))
    return AnatomyHierarchy(fine=fine, coarse=coarse, global_id=20)


def make_pyramid_from_labels(labels, fine_values, num_labels, channels=2):
    """One-layer pyramid whose feature rows are constant per region."""
    h, w, d = labels.shape
    feats = np.zeros((h, w, d, channels))
    for label, value in fine_values.items():
        feats[labels == label] = value
    return FeaturePyramid([PyramidLayer(Tensor(feats))])


class TestPoolAll:
    def test_union_of_single_child_equals_child(self):
        fine = (FineNode(1, "a", 1, 10),)
        coarse = (CoarseNode(10, "only"),)
        h = AnatomyHierarchy(fine=fine, coarse=coarse, global_id=20)
        labels = np.zeros((8, 8, 4), dtype=np.int32)
        labels[:3] = 1
        values = {1: np.array([0.5, -1.5])}
        pyr = make_pyramid_from_labels(labels, values, 1)
        fine_set, coarse_set, _ = pool_all(pyr, LabelMask3D(labels, 1), h)
        assert np.allclose(coarse_set.fused.data[0], fine_set.fused.data[0], atol=1e-12)

    def test_equal_volume_children_average(self):
        h = two_level_hierarchy()
        labels = np.zeros((8, 8, 4), dtype=np.int32)
        labels[0:2] = 1  # 64 voxels
        labels[2:4] = 2  # 64 voxels
        labels[4:6] = 3
        u = np.array([1.0, 3.0])
        v = np.array([2.0, -1.0])
        pyr = make_pyramid_from_labels(labels, {1: u, 2: v, 3: np.array([9.0, 9.0])}, 3)
        mask = LabelMask3D(labels, 3)
        _, coarse_set, _ = pool_all(pyr, mask, h)

        # union-mask brute force over labels {1, 2}
        flat = pyr.layers[0].data.data.reshape(-1, 2)
        member = np.isin(labels.ravel(), [1, 2])
        expected = flat[member].mean(axis=0)
        assert np.max(np.abs(coarse_set.fused.data[0] - expected)) < 1e-12
        assert np.allclose(coarse_set.fused.data[0], (u + v) / 2.0, atol=1e-12)

    def test_weighted_mean_with_counts_1_and_3(self):
        h = two_level_hierarchy()
        labels = np.zeros((4, 4, 2), dtype=np.int32)
        labels[0, 0, 0] = 1  # 1 voxel
        labels[1, 0, 0] = 2  # 3 voxels
        labels[1, 1, 0] = 2
        labels[1, 2, 0] = 2
        labels[3, 3, 1] = 3
        u = np.array([2.0, 0.0])
        v = np.array([-2.0, 4.0])
        pyr = make_pyramid_from_labels(labels, {1: u, 2: v, 3: np.array([5.0, 5.0])}, 3)
        _, coarse_set, _ = pool_all(pyr, LabelMask3D(labels, 3), h)
        expected = (u + 3.0 * v) / 4.0
        assert np.max(np.abs(coarse_set.fused.data[0] - expected)) < 1e-12

    def test_union_pooling_identity_random(self):
        rng = np.random.default_rng(12)
        h = two_level_hierarchy()
        for _ in range(20):
            labels = rng.integers(0, 4, (6, 6, 4)).astype(np.int32)
            feats = rng.standard_normal((6, 6, 4, 3))
            pyr = FeaturePyramid([PyramidLayer(Tensor(feats))])
            mask = LabelMask3D(labels, 3)
            fine_set, coarse_set, _ = pool_all(pyr, mask, h)
            counts = fine_set.counts[:, 0]
            # coarse 10 unions children 1, 2
            total = counts[0] + counts[1]
            if total == 0:
                continue
            weighted = (
                counts[0] * fine_set.per_layer[0].data[0]
                + counts[1] * fine_set.per_layer[0].data[1]
            ) / total
            assert np.max(np.abs(coarse_set.per_layer[0].data[0] - weighted)) < 1e-9

    def test_label_beyond_mask_vocabulary_flagged_not_fatal(self):
        h = AnatomyHierarchy(
            fine=(FineNode(1, "a", 1, 10), FineNode(2, "b", 99, 10)),
            coarse=(CoarseNode(10, "sys"),),
            global_id=20,
        )
        labels = np.zeros((4, 4, 2), dtype=np.int32)
        labels[:2] = 1
        pyr = make_pyramid_from_labels(labels, {1: np.ones(2)}, 1)
        fine_set, coarse_set, _ = pool_all(pyr, LabelMask3D(labels, 1), h)
        assert fine_set.valid.tolist() == [True, False]
        assert np.all(fine_set.fused.data[1] == 0.0)
        assert coarse_set.valid.tolist() == [True]

    def test_absent_region_flagged_not_fatal(self):
        h = two_level_hierarchy()
        labels = np.zeros((6, 6, 4), dtype=np.int32)
        labels[:2] = 1
        labels[2:4] = 3
        pyr = make_pyramid_from_labels(labels, {1: np.ones(2), 3: np.ones(2)}, 3)
        fine_set, coarse_set, _ = pool_all(pyr, LabelMask3D(labels, 3), h)
        assert fine_set.valid.tolist() == [True, False, True]
        assert np.all(fine_set.fused.data[1] == 0.0)
        assert coarse_set.valid.tolist() == [True, True]

    def test_region_that_vanishes_at_every_layer_stays_valid(self):
        # the demo preset has no full-resolution layer, and nearest resizing by 2
        # never samples voxel (0, 0, 0): label 2 is counted at no layer, but it
        # is in the mask; label 3 is in no voxel at all
        h = two_level_hierarchy()
        labels = np.zeros((32, 32, 16), dtype=np.int32)
        labels[8:24, 8:24, 4:12] = 1
        labels[0, 0, 0] = 2
        volume = Volume3D(np.random.default_rng(17).standard_normal(labels.shape))
        pyramid = synth_encode(volume, get_preset("demo"), seed=0)
        assert all(layer.extents != labels.shape for layer in pyramid.layers)
        fine_set, coarse_set, _ = pool_all(pyramid, LabelMask3D(labels, 3), h)
        assert fine_set.valid.tolist() == [True, True, False]
        assert fine_set.counts[1].tolist() == [0, 0, 0]
        assert np.all(fine_set.fused.data[1:] == 0.0)
        assert coarse_set.valid.tolist() == [True, False]

    def test_childless_coarse_with_own_label_pools_its_mask(self):
        # coarse 12 owns a label outside the mask vocabulary, and coarse 13's
        # only child carries one too: both stay empty and invalid
        fine = (FineNode(1, "a", 1, 10), FineNode(3, "c", 98, 13))
        coarse = (
            CoarseNode(10, "sys"),
            CoarseNode(11, "standalone", label=2),
            CoarseNode(12, "beyond", label=99),
            CoarseNode(13, "oov_child"),
        )
        h = AnatomyHierarchy(fine=fine, coarse=coarse, global_id=20)
        labels = np.zeros((6, 6, 4), dtype=np.int32)
        labels[:2] = 1
        labels[3:5] = 2
        value = np.array([4.0, -4.0])
        pyr = make_pyramid_from_labels(labels, {1: np.ones(2), 2: value}, 2)
        fine_set, coarse_set, _ = pool_all(pyr, LabelMask3D(labels, 2), h)
        assert np.allclose(coarse_set.fused.data[1], value, atol=1e-12)
        assert coarse_set.valid.tolist() == [True, True, False, False]
        assert coarse_set.counts[:, 0].tolist() == [48, 48, 0, 0]
        assert np.all(coarse_set.fused.data[2:] == 0.0)
        assert fine_set.valid.tolist() == [True, False]

    def test_one_resize_and_one_pool_call_per_layer(self, monkeypatch):
        import ctgraph.pooling as pooling

        calls = {"resize": 0, "pool": 0}
        pooled = []  # (layer extents, mask extents, region labels) of each mask_pool_layer call

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "pool":
                    layer, mask, region_labels = args
                    pooled.append((layer.shape[:3], mask.shape, list(region_labels)))
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            pooling, "resize_mask_nearest", counted("resize", pooling.resize_mask_nearest)
        )
        monkeypatch.setattr(pooling, "mask_pool_layer", counted("pool", pooling.mask_pool_layer))
        rng = np.random.default_rng(15)
        vol = Volume3D(rng.standard_normal((16, 16, 8)))
        pyr = synth_encode(vol, EncoderPreset("three", (2, 3, 2), (1, 2, 2)), seed=0)
        labels = rng.integers(0, 4, (16, 16, 8)).astype(np.int32)
        pool_all(pyr, LabelMask3D(labels, 3), two_level_hierarchy())
        assert calls == {"resize": 3, "pool": 4}  # one per layer, then the global grid's
        last = pyr.layers[-1].extents
        assert pooled[-1] == (last, last, list(range(1, 33)))

    def test_multi_layer_fusion_order(self):
        h = two_level_hierarchy()
        rng = np.random.default_rng(13)
        vol = Volume3D(rng.standard_normal((8, 8, 8)))
        preset = EncoderPreset("two", (2, 3), (1, 2))
        pyr = synth_encode(vol, preset, seed=0)
        labels = rng.integers(0, 4, (8, 8, 8)).astype(np.int32)
        fine_set, _, _ = pool_all(pyr, LabelMask3D(labels, 3), h)
        assert fine_set.fused.shape == (3, 5)
        assert np.array_equal(
            fine_set.fused.data[:, :2], fine_set.per_layer[0].data
        )
        assert np.array_equal(fine_set.fused.data[:, 2:], fine_set.per_layer[1].data)


    def test_single_layer_fused_equals_the_layer(self):
        rng = np.random.default_rng(19)
        pyr = FeaturePyramid([PyramidLayer(Tensor(rng.standard_normal((6, 6, 4, 3))))])
        labels = rng.integers(0, 4, (6, 6, 4)).astype(np.int32)
        for rset in pool_all(pyr, LabelMask3D(labels, 3), two_level_hierarchy())[:2]:
            assert np.array_equal(rset.fused.data, rset.per_layer[0].data)


def test_pooled_container_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    h = two_level_hierarchy()
    labels = rng.integers(0, 4, (8, 8, 8)).astype(np.int32)
    vol = Volume3D(rng.standard_normal((8, 8, 8)))
    pyr = synth_encode(vol, EncoderPreset("two", (2, 3), (1, 2)), seed=0)
    fine_set, coarse_set, grid = pool_all(pyr, LabelMask3D(labels, 3), h)
    save_pooled(tmp_path / "f.bin", fine_set, coarse_set, grid)
    fine2, coarse2, grid2 = load_pooled(tmp_path / "f.bin")
    assert fine2.region_ids == fine_set.region_ids
    assert np.array_equal(fine2.fused.data, fine_set.fused.data)
    assert np.array_equal(coarse2.counts, coarse_set.counts)
    assert np.array_equal(grid2.grid.data, grid.grid.data)
    assert np.array_equal(fine2.valid, fine_set.valid)


def _root(array: np.ndarray) -> np.ndarray:
    """The array that owns array's memory."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


class TestOneBufferPerLevel:
    """Each level's per_layer rows are views of its fused rows, from pool_all and load_pooled."""

    def _pooled(self):
        rng = np.random.default_rng(21)
        vol = Volume3D(rng.standard_normal((16, 16, 8)))
        pyr = synth_encode(vol, EncoderPreset("three", (2, 3, 2), (1, 2, 2)), seed=0)
        mask = LabelMask3D(rng.integers(0, 4, (16, 16, 8)).astype(np.int32), 3)
        return pyr, mask, pool_all(pyr, mask, two_level_hierarchy())

    def _saved_and_loaded(self, tmp_path):
        _, _, pooled = self._pooled()
        save_pooled(tmp_path / "f.bin", *pooled)
        return pooled, load_pooled(tmp_path / "f.bin")

    def test_per_layer_entries_are_writable_views_of_fused(self, tmp_path):
        pooled, loaded = self._saved_and_loaded(tmp_path)
        for rset in pooled[:2] + loaded[:2]:
            assert len(rset.per_layer) == 3
            for t in rset.per_layer:
                assert np.shares_memory(t.data, rset.fused.data) and t.data.flags.writeable
                assert not t.requires_grad and t._parents == ()
            assert np.array_equal(np.concatenate([t.data for t in rset.per_layer], axis=1), rset.fused.data)

    def test_per_layer_rows_equal_each_layer_pooled_alone(self, tmp_path):
        pyr, mask, (fine_set, coarse_set, _) = self._pooled()
        (fine2, coarse2, _) = self._saved_and_loaded(tmp_path)[1]
        for k, layer in enumerate(pyr.layers):
            alone = pool_all(FeaturePyramid([layer]), mask, two_level_hierarchy())
            for rsets, want in ((fine_set, fine2), alone[0]), ((coarse_set, coarse2), alone[1]):
                for rset in rsets:
                    assert rset.per_layer[k].data.tobytes() == want.per_layer[0].data.tobytes()

    def test_an_in_place_edit_of_a_layer_shows_in_fused(self, tmp_path):
        pooled, loaded = self._saved_and_loaded(tmp_path)
        for rset in pooled[:2] + loaded[:2]:
            rset.per_layer[1].data[1, 2] = 123.0
            assert rset.fused.data[1, 2 + 2] == 123.0  # layer 0 is 2 channels wide

    def test_save_load_save_is_byte_identical(self, tmp_path):
        _, loaded = self._saved_and_loaded(tmp_path)
        save_pooled(tmp_path / "again.bin", *loaded)
        assert (tmp_path / "again.bin").read_bytes() == (tmp_path / "f.bin").read_bytes()

    def test_a_triple_holds_the_two_fused_arrays_and_the_grid_only(self, tmp_path):
        pooled, loaded = self._saved_and_loaded(tmp_path)
        for fine_set, coarse_set, grid in (pooled, loaded):
            arrays = [t.data for rset in (fine_set, coarse_set) for t in rset.per_layer + [rset.fused]]
            roots = {id(_root(a)): _root(a) for a in arrays + [grid.grid.data]}
            want = fine_set.fused.data.nbytes + coarse_set.fused.data.nbytes + grid.grid.data.nbytes
            assert sum(r.nbytes for r in roots.values()) == want


class TestStackPooled:
    """stack_pooled: the one check that pooled samples agree, and their arrays stacked."""

    def _samples(self, n=3):
        rng = np.random.default_rng(22)
        preset = EncoderPreset("three", (2, 3, 2), (1, 2, 2))
        samples = []
        for _ in range(n):
            pyr = synth_encode(Volume3D(rng.standard_normal((16, 16, 8))), preset, seed=0)
            mask = LabelMask3D(rng.integers(0, 4, (16, 16, 8)).astype(np.int32), 3)
            samples.append(pool_all(pyr, mask, two_level_hierarchy()))
        return samples

    def test_every_array_gains_a_leading_batch_axis(self):
        samples = self._samples()
        fine, coarse, grid = stack_pooled(samples)
        for k, stacked in enumerate((fine, coarse)):
            assert stacked.region_ids == samples[0][k].region_ids
            for name in ("counts", "valid"):
                assert np.array_equal(getattr(stacked, name), np.stack([getattr(s[k], name) for s in samples]))
            assert np.array_equal(stacked.fused.data, np.stack([s[k].fused.data for s in samples]))
            assert len(stacked.per_layer) == 3
            for layer, t in enumerate(stacked.per_layer):
                assert np.shares_memory(t.data, stacked.fused.data)
                assert np.array_equal(t.data, np.stack([s[k].per_layer[layer].data for s in samples]))
        assert np.array_equal(grid.grid.data, np.stack([s[2].grid.data for s in samples]))
        assert grid.channels == samples[0][2].channels
        assert grid.flat().shape == (3, 32 * grid.channels)

    def test_taking_from_a_stack_equals_stacking_the_samples_taken(self):
        samples = self._samples(4)
        indices = np.array([3, 0, 3])
        taken = take_pooled(stack_pooled(samples), indices)
        expected = stack_pooled([samples[i] for i in indices])
        for got, want in zip(taken[:2], expected[:2]):
            assert got.region_ids == want.region_ids
            for name in ("counts", "valid"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            assert np.array_equal(got.fused.data, want.fused.data)
            for t, u in zip(got.per_layer, want.per_layer, strict=True):
                assert np.shares_memory(t.data, got.fused.data) and np.array_equal(t.data, u.data)
        assert np.array_equal(taken[2].grid.data, expected[2].grid.data)

    def test_the_stack_is_constant(self):
        samples = self._samples(2)
        for sample in samples:
            for t in (sample[0].fused, sample[1].fused, sample[2].grid):
                t.requires_grad = True
        fine, coarse, grid = stack_pooled(samples)
        for t in (fine.fused, coarse.fused, grid.grid, *fine.per_layer, *coarse.per_layer):
            assert not t.requires_grad and t._parents == ()

    def test_a_sample_of_other_shapes_is_named(self):
        samples = self._samples()
        fine, coarse, grid = samples[2]
        samples[2] = (fine, coarse, GlobalFeatureGrid(Tensor(np.zeros((4, 4, 2, 3)))))
        with pytest.raises(ShapeError) as info:
            stack_pooled(samples)
        assert str(info.value) == (
            "pooled sample 2: (fine, coarse, grid) shapes ((3, 7), (2, 7), (4, 4, 2, 3)), "
            "sample 0's ((3, 7), (2, 7), (4, 4, 2, 2))"
        )
        assert info.value.sample == 2

    def test_a_sample_whose_layers_split_its_rows_otherwise_is_named(self):
        samples = self._samples()
        for level_set in samples[1][:2]:  # widths 2, 3, 2 regrouped as 5, 2
            level_set.per_layer = [Tensor(level_set.fused.data[:, :5]), Tensor(level_set.fused.data[:, 5:])]
        with pytest.raises(ShapeError) as info:
            stack_pooled(samples)
        assert str(info.value) == (
            "pooled sample 1: (fine, coarse) layer widths ([5, 2], [5, 2]), sample 0's ([2, 3, 2], [2, 3, 2])"
        )
        assert info.value.sample == 1

    @pytest.mark.parametrize("level", [0, 1])
    def test_a_sample_of_other_region_ids_is_named(self, level):
        samples = self._samples()
        samples[1][level].region_ids = [i + 100 for i in samples[1][level].region_ids]
        name, ids = ("fine", [1, 2, 3]) if level == 0 else ("coarse", [10, 11])
        with pytest.raises(ValidationError) as info:
            stack_pooled(samples)
        shifted = [i + 100 for i in ids]
        assert str(info.value) == f"pooled sample 1: {name} region ids {shifted}, sample 0's {ids}"
        assert info.value.sample == 1


def test_nodes_out_of_id_order_give_the_same_rows_graphs_and_anatomy_json(tmp_path):
    ordered = default_hierarchy()
    rng = np.random.default_rng(16)
    shuffled = AnatomyHierarchy(
        fine=tuple(ordered.fine[i] for i in rng.permutation(ordered.num_fine)),
        coarse=tuple(ordered.coarse[i] for i in rng.permutation(ordered.num_coarse)),
        global_id=ordered.global_id,
    )
    volume, mask, _ = generate_phantom(demo_phantom_spec(ordered))
    pyramid = synth_encode(volume, get_preset("demo"), seed=7)
    for sets in zip(pool_all(pyramid, mask, ordered)[:2], pool_all(pyramid, mask, shuffled)[:2]):
        a, b = sets
        assert a.region_ids == b.region_ids
        assert np.array_equal(a.fused.data, b.fused.data)
        assert np.array_equal(a.counts, b.counts) and np.array_equal(a.valid, b.valid)
    for topology in TOPOLOGIES:
        assert build_graph(shuffled, topology, seed=3) == build_graph(ordered, topology, seed=3)
    save_hierarchy(tmp_path / "ordered.json", ordered)
    save_hierarchy(tmp_path / "shuffled.json", shuffled)
    assert (tmp_path / "shuffled.json").read_bytes() == (tmp_path / "ordered.json").read_bytes()


@pytest.mark.parametrize(
    "record, replacement",
    [
        ("fine_ids", np.arange(1, 35)),
        ("fine_ids", np.ones((3, 1), dtype=np.int64)),
        ("fine_layer_01", np.zeros((2, 3))),
        ("fine_counts", np.ones(1, dtype=np.int64)),
        ("fine_valid", np.ones((2, 2), dtype=np.int32)),
        ("coarse_layer_00", np.zeros((5, 2))),
        ("coarse_counts", np.ones((2, 3), dtype=np.int64)),
        ("global_grid", np.zeros(3)),
        ("global_grid", np.zeros((4, 4, 1, 3))),
    ],
)
def test_load_pooled_rejects_records_whose_shapes_disagree(tmp_path, record, replacement):
    rng = np.random.default_rng(15)
    vol = Volume3D(rng.standard_normal((8, 8, 8)))
    pyr = synth_encode(vol, EncoderPreset("two", (2, 3), (1, 2)), seed=0)
    labels = rng.integers(0, 4, (8, 8, 8)).astype(np.int32)
    save_pooled(tmp_path / "f.bin", *pool_all(pyr, LabelMask3D(labels, 3), two_level_hierarchy()))
    records = load_tensors(tmp_path / "f.bin")
    records[record] = replacement
    save_tensors(tmp_path / "f.bin", records)
    with pytest.raises(ValidationError, match="f.bin"):
        load_pooled(tmp_path / "f.bin")


def test_load_pooled_rejects_a_container_of_disagreeing_shapes(tmp_path):
    save_tensors(
        tmp_path / "f.bin",
        {
            "fine_ids": np.arange(1, 35),
            "fine_layer_00": np.zeros((34, 2)),
            "fine_counts": np.ones(1, dtype=np.int64),
            "fine_valid": np.ones((2, 2), dtype=np.int32),
            "coarse_ids": np.arange(35, 38),
            "coarse_layer_00": np.zeros((5, 2)),
            "coarse_counts": np.ones((3, 1), dtype=np.int64),
            "coarse_valid": np.ones(3, dtype=np.int32),
            "global_grid": np.zeros(3),
        },
    )
    with pytest.raises(ValidationError, match="fine_counts"):
        load_pooled(tmp_path / "f.bin")


@pytest.mark.parametrize(
    "record, replacement, message",
    [
        ("coarse_layer_00", np.zeros((2, 0)),
         "records fine_layer_* have widths [2, 3], coarse_layer_* [0, 3]; the levels must agree"),
        ("fine_layer_01", np.zeros((3, 4)),
         "records fine_layer_* have widths [2, 4], coarse_layer_* [2, 3]; the levels must agree"),
        ("global_grid", np.zeros((4, 4, 2, 2)),
         "record 'global_grid' has 2 channels, but the last layer has width 3"),
    ],
    ids=["coarse-narrower", "fine-wider", "grid-channels"],
)
def test_load_pooled_rejects_levels_of_other_widths_naming_the_file_and_record(
    tmp_path, record, replacement, message
):
    rng = np.random.default_rng(15)
    vol = Volume3D(rng.standard_normal((8, 8, 8)))
    pyr = synth_encode(vol, EncoderPreset("two", (2, 3), (1, 2)), seed=0)
    labels = rng.integers(0, 4, (8, 8, 8)).astype(np.int32)
    save_pooled(tmp_path / "f.bin", *pool_all(pyr, LabelMask3D(labels, 3), two_level_hierarchy()))
    records = load_tensors(tmp_path / "f.bin")
    records[record] = replacement
    save_tensors(tmp_path / "f.bin", records)
    with pytest.raises(ValidationError) as info:
        load_pooled(tmp_path / "f.bin")
    assert str(info.value) == f"{tmp_path / 'f.bin'}: {message}"
