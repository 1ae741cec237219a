"""Mask resizing oracle, phantom generation, and volume/mask round trips."""

import json
import math
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctgraph.container as container_module
import ctgraph.volume as volume_module
from ctgraph.container import save_tensor
from ctgraph.demo import demo_phantom_spec
from ctgraph.errors import ConfigError, FormatError, ValidationError
from ctgraph.volume import (
    LabelMask3D,
    PathologySpec,
    PhantomSpec,
    RegionSpec,
    Volume3D,
    _nearest_indices,
    _paint,
    generate_phantom,
    load_mask,
    load_phantom_spec,
    load_volume,
    phantom_spec_from_json,
    resize_mask_nearest,
    save_mask,
    save_phantom_spec,
    save_volume,
)
from test_container import traced_peak


def _spec_doc(spec: PhantomSpec) -> dict:
    """spec as a phantom-spec document, which holds no seed."""
    doc = asdict(spec)
    del doc["seed"]
    return doc


def nearest_resize_oracle(labels: np.ndarray, target):
    """Per-voxel brute force of the voxel-center nearest-neighbor map."""
    src = labels.shape
    out = np.zeros(target, dtype=labels.dtype)
    for i in range(target[0]):
        for j in range(target[1]):
            for t in range(target[2]):
                si = min(int((i + 0.5) * src[0] / target[0]), src[0] - 1)
                sj = min(int((j + 0.5) * src[1] / target[1]), src[1] - 1)
                st_ = min(int((t + 0.5) * src[2] / target[2]), src[2] - 1)
                out[i, j, t] = labels[si, sj, st_]
    return out


class TestResizeMaskNearest:
    def test_identity_extents(self):
        rng = np.random.default_rng(0)
        mask = LabelMask3D(rng.integers(0, 5, (6, 5, 4)), 4)
        out = resize_mask_nearest(mask, (6, 5, 4))
        assert np.array_equal(out.labels, mask.labels)

    def test_constant_field_any_extents(self):
        mask = LabelMask3D(np.full((4, 4, 4), 3, dtype=np.int32), 3)
        out = resize_mask_nearest(mask, (7, 2, 5))
        assert np.all(out.labels == 3)

    def test_downsample_half_split_matches_oracle(self):
        # 8^3 mask split in half along the first axis
        labels = np.zeros((8, 8, 8), dtype=np.int32)
        labels[4:] = 1
        mask = LabelMask3D(labels, 1)
        out = resize_mask_nearest(mask, (4, 4, 4)).labels
        # declared coordinate map picks source voxel (2i+1, 2j+1, 2t+1)
        for i in range(4):
            for j in range(4):
                for t in range(4):
                    assert out[i, j, t] == labels[2 * i + 1, 2 * j + 1, 2 * t + 1]
        assert np.array_equal(out, nearest_resize_oracle(labels, (4, 4, 4)))

    def test_random_masks_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            src = tuple(rng.integers(1, 9, 3))
            tgt = tuple(rng.integers(1, 9, 3))
            labels = rng.integers(0, 6, src).astype(np.int32)
            out = resize_mask_nearest(LabelMask3D(labels, 5), tgt).labels
            assert np.array_equal(out, nearest_resize_oracle(labels, tgt))

    @given(
        src=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
        tgt=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_label_preserving_and_idempotent(self, src, tgt, seed):
        rng = np.random.default_rng(seed)
        mask = LabelMask3D(rng.integers(0, 4, src), 3)
        out = resize_mask_nearest(mask, tgt)
        assert set(np.unique(out.labels)) <= set(np.unique(mask.labels))
        again = resize_mask_nearest(out, tgt)
        assert np.array_equal(again.labels, out.labels)

    def test_rejects_bad_target(self):
        mask = LabelMask3D(np.zeros((2, 2, 2), dtype=np.int32), 1)
        with pytest.raises(ValidationError):
            resize_mask_nearest(mask, (0, 2, 2))

    @pytest.mark.parametrize("src, tgt", [(7, 3), (3, 7), (64, 16), (5, 5), (1, 4), (33, 8)])
    def test_nearest_indices_are_cached_read_only_and_follow_the_formula(self, src, tgt):
        idx = _nearest_indices(src, tgt)
        assert _nearest_indices(src, tgt) is idx
        assert not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0] = 0
        expected = [min(math.floor((t + 0.5) * (src / tgt)), src - 1) for t in range(tgt)]
        assert idx.dtype == np.intp and idx.tolist() == expected


def _simple_spec(**kwargs):
    defaults = dict(
        shape=(12, 12, 8),
        regions=(
            RegionSpec(1, (3.0, 3.0, 3.0), (2.0, 2.0, 2.0), 0.4),
            RegionSpec(2, (8.0, 8.0, 4.0), (2.0, 2.0, 2.0), 0.7),
        ),
        pathologies=(
            PathologySpec("lesion_a", 1, 0.5, 0.5, radius=1.2),
            PathologySpec("lesion_b", 2, 0.8, 0.5, radius=1.2),
        ),
        seed=3,
    )
    defaults.update(kwargs)
    return PhantomSpec(**defaults)


def full_volume_phantom(spec: PhantomSpec):
    """Reference phantom: every ellipsoid and every per-region jitter pass over the whole volume."""
    grids = np.ogrid[: spec.shape[0], : spec.shape[1], : spec.shape[2]]

    def ellipsoid(center, radii):
        return sum(((g - c) / r) ** 2 for g, c, r in zip(grids, center, radii)) <= 1.0

    vol = np.zeros(spec.shape)
    labels = np.zeros(spec.shape, dtype=np.int32)
    for region in spec.regions:
        inside = ellipsoid(region.center, region.radii)
        vol[inside] = region.intensity
        labels[inside] = region.label
    rng = np.random.default_rng(spec.seed)
    if spec.intensity_jitter > 0:
        shifts = rng.normal(0.0, spec.intensity_jitter, size=len(spec.regions))
        for region, shift in zip(spec.regions, shifts):
            vol[labels == region.label] += shift
    prevalence = [p.prevalence for p in spec.pathologies]
    targets = (rng.random(len(prevalence)) < prevalence).astype(np.int32)
    for positive, patho in zip(targets, spec.pathologies):
        if positive:
            host = np.argwhere(labels == patho.host_label)
            site = host[rng.integers(len(host))]
            vol[ellipsoid(site, (patho.radius,) * 3) & (labels == patho.host_label)] += patho.delta
    if spec.noise_sigma > 0:
        vol += rng.normal(0.0, spec.noise_sigma, size=spec.shape)
    return vol, labels, targets


class TestPhantom:
    def test_matches_full_volume_reference_bitwise(self):
        rng = np.random.default_rng(21)
        checked = 0
        for seed in range(40):
            shape = tuple(int(x) for x in rng.integers(4, 16, 3))
            regions = []
            for label in range(1, int(rng.integers(2, 6))):
                radii = tuple(float(r) for r in rng.uniform(0.6, 3.5, 3))
                center = tuple(
                    float(rng.uniform(r - 0.5, n - 0.5 - r)) if n - 1 > 2 * r else (n - 1) / 2
                    for r, n in zip(radii, shape)
                )
                regions.append(RegionSpec(label, center, radii, float(rng.uniform())))
            pathologies = tuple(
                PathologySpec(f"p{i}", int(rng.integers(1, len(regions) + 1)), float(rng.normal()),
                              float(rng.uniform()), float(rng.uniform(0.5, 5.0)))
                for i in range(int(rng.integers(0, 4)))
            )
            spec = PhantomSpec(shape, tuple(regions), pathologies, seed=seed,
                               noise_sigma=float(rng.choice([0.0, 0.1])),
                               intensity_jitter=float(rng.choice([0.0, 0.3])))
            try:
                vol, mask, targets = generate_phantom(spec)
            except ValidationError:
                continue  # a region out of bounds or painted over
            ref_vol, ref_labels, ref_targets = full_volume_phantom(spec)
            assert np.array_equal(vol.voxels, ref_vol)
            assert np.array_equal(mask.labels, ref_labels)
            assert np.array_equal(targets, ref_targets)
            checked += 1
        assert checked >= 20
    def test_zero_prevalence_keeps_base_layout(self):
        spec = _simple_spec(
            pathologies=(
                PathologySpec("a", 1, 0.5, 0.0),
                PathologySpec("b", 2, 0.8, 0.0),
            )
        )
        vol, mask, targets = generate_phantom(spec)
        assert np.all(targets == 0)
        base = np.zeros(spec.shape)
        for region in spec.regions:
            painted = mask.labels == region.label
            base[painted] = region.intensity
        assert np.array_equal(vol.voxels, base)

    def test_full_prevalence_sets_all_targets(self):
        spec = _simple_spec(
            pathologies=(
                PathologySpec("a", 1, 0.5, 1.0),
                PathologySpec("b", 2, 0.8, 1.0),
            )
        )
        _, _, targets = generate_phantom(spec)
        assert np.all(targets == 1)

    def test_seed_determinism_is_bitwise(self):
        spec = _simple_spec(noise_sigma=0.05)
        v1, m1, t1 = generate_phantom(spec)
        v2, m2, t2 = generate_phantom(spec)
        assert np.array_equal(v1.voxels, v2.voxels)
        assert np.array_equal(m1.labels, m2.labels)
        assert np.array_equal(t1, t2)

    def test_lesion_changes_host_region_only(self):
        base = _simple_spec(
            pathologies=(PathologySpec("a", 1, 0.5, 0.0), PathologySpec("b", 2, 0.8, 0.0))
        )
        hot = _simple_spec(
            pathologies=(PathologySpec("a", 1, 0.5, 1.0), PathologySpec("b", 2, 0.8, 0.0))
        )
        v0, mask, _ = generate_phantom(base)
        v1, _, _ = generate_phantom(hot)
        changed = v1.voxels != v0.voxels
        assert changed.any()
        assert np.all(mask.labels[changed] == 1)

    def test_region_outside_extents_fails(self):
        with pytest.raises(ValidationError, match="outside"):
            generate_phantom(
                _simple_spec(
                    regions=(RegionSpec(1, (1.0, 3.0, 3.0), (3.0, 2.0, 2.0), 0.4),),
                    pathologies=(),
                )
            )

    def test_uncovered_region_fails_loudly(self):
        # the second region fully swallows the first
        spec = _simple_spec(
            regions=(
                RegionSpec(1, (6.0, 6.0, 4.0), (1.0, 1.0, 1.0), 0.4),
                RegionSpec(2, (6.0, 6.0, 4.0), (2.5, 2.5, 2.5), 0.7),
            ),
            pathologies=(),
        )
        with pytest.raises(ValidationError, match="no voxels"):
            generate_phantom(spec)

    @pytest.mark.parametrize(
        "shape", [(8, 8), (8, 8, 4, 1), (8, 0, 4), (8, 8, 4.0), (8, True, 4)],
        ids=["2-d", "4-d", "zero", "float", "bool"],
    )
    def test_shape_must_be_three_positive_integer_extents(self, shape):
        with pytest.raises(ValidationError, match="shape"):
            _simple_spec(shape=shape)

    @pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "float", "bool"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            _simple_spec(seed=seed)
        with pytest.raises(ValidationError, match="seed"):
            _simple_spec().with_seed(seed)

    @pytest.mark.parametrize("field", ["noise_sigma", "intensity_jitter"])
    @pytest.mark.parametrize("value", [math.nan, -1.0, math.inf, -math.inf])
    def test_noise_and_jitter_must_be_finite_and_non_negative(self, field, value):
        with pytest.raises(ValidationError, match=field):
            _simple_spec(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_region_intensity_and_pathology_delta_must_be_finite(self, value):
        regions = (
            RegionSpec(1, (3.0, 3.0, 3.0), (2.0, 2.0, 2.0), 0.4),
            RegionSpec(2, (8.0, 8.0, 4.0), (2.0, 2.0, 2.0), value),
        )
        with pytest.raises(ValidationError, match="region label 2: intensity"):
            _simple_spec(regions=regions)
        with pytest.raises(ValidationError, match="pathology 'a': delta"):
            _simple_spec(pathologies=(PathologySpec("a", 1, value, 0.5),))

    @pytest.mark.parametrize("value", [(), (3.0, 3.0), (3.0, 3.0, 3.0, 1.0)], ids=["none", "two", "four"])
    @pytest.mark.parametrize("field", ["center", "radii"])
    def test_region_center_and_radii_must_be_3_numbers(self, field, value):
        region = replace(RegionSpec(2, (8.0, 8.0, 4.0), (2.0, 2.0, 2.0), 0.7), **{field: value})
        regions = (RegionSpec(1, (3.0, 3.0, 3.0), (2.0, 2.0, 2.0), 0.4), region)
        with pytest.raises(ValidationError, match=f"region label 2: {field} must be 3"):
            _simple_spec(regions=regions)

    def test_radii_below_1e_100_are_rejected(self):
        # the ellipsoid test divides by the radius and squares: a smaller one overflows float64
        with pytest.raises(ValidationError, match="region label 1: radii must be"):
            _simple_spec(regions=(RegionSpec(1, (3.0, 3.0, 3.0), (2.0, 1e-101, 2.0), 0.4),), pathologies=())
        with pytest.raises(ValidationError, match="pathology 'a': radius must"):
            _simple_spec(pathologies=(PathologySpec("a", 1, 0.5, 0.5, radius=5e-324),))
        spec = _simple_spec(pathologies=(PathologySpec("a", 1, 0.5, 1.0, radius=1e-100),))
        assert generate_phantom(spec)[2].tolist() == [1]

    @pytest.mark.parametrize(
        "label", [0, -1, 65536, 10**12], ids=["zero", "negative", "beyond-uint16", "beyond-int32"]
    )
    def test_region_labels_must_lie_in_the_mask_label_range(self, label):
        # beyond int32 the painting overflowed; beyond 65535 the mask failed only after painting
        regions = (
            RegionSpec(1, (3.0, 3.0, 3.0), (2.0, 2.0, 2.0), 0.4),
            RegionSpec(label, (8.0, 8.0, 4.0), (2.0, 2.0, 2.0), 0.7),
        )
        with pytest.raises(ValidationError, match=re.escape(f"region label {label} must lie in [1, 65535]")):
            _simple_spec(regions=regions, pathologies=())

    def test_a_mask_numpy_cannot_allocate_is_a_config_error_naming_the_shape(self):
        # 4 bytes a voxel of 1e18 voxels, beyond the 47-bit address space: numpy refuses at once
        spec = _simple_spec(shape=(10**6, 10**6, 10**6))
        with pytest.raises(ConfigError) as info:
            generate_phantom(spec)
        assert str(info.value).startswith(
            "phantom mask of shape (1000000, 1000000, 1000000) cannot be allocated: "
        )

    def test_numbers_beyond_1e100_are_rejected(self):
        # a volume of such values overflows float64 once squared in the layer norm
        with pytest.raises(ValidationError, match="noise_sigma must lie in"):
            _simple_spec(noise_sigma=1e101)
        with pytest.raises(ValidationError, match="region label 1: intensity must lie in"):
            _simple_spec(regions=(RegionSpec(1, (3.0, 3.0, 3.0), (2.0, 2.0, 2.0), -1e101),), pathologies=())
        with pytest.raises(ValidationError, match="pathology 'a': delta must lie in"):
            _simple_spec(pathologies=(PathologySpec("a", 1, 1e101, 0.5),))
        with pytest.raises(ValidationError, match="beyond"):
            Volume3D(np.full((2, 2, 2), 1e101))

    def test_prevalence_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            _simple_spec(pathologies=(PathologySpec("a", 1, 0.5, 1.5),))

    @pytest.mark.parametrize("value", [1.5, 2.0, True, "2"], ids=["fraction", "whole-float", "bool", "string"])
    @pytest.mark.parametrize("field", ["seed", "shape", "label", "host_label"])
    def test_spec_json_integer_fields_take_only_integers(self, field, value):
        doc = _spec_doc(_simple_spec(pathologies=(PathologySpec("a", 2, 0.5, 0.5),)))
        doc["shape"] = list(doc["shape"])
        if field == "shape":
            doc["shape"][1] = value
        elif field == "label":
            doc["regions"][1]["label"] = value
        elif field == "host_label":
            doc["pathologies"][0]["host_label"] = value
        else:  # a retired key: the one value it may hold is 0
            doc["seed"] = value
            with pytest.raises(ConfigError, match=rf"phantom spec 'seed' must be 0, got {value!r}"):
                phantom_spec_from_json(doc)
            return
        with pytest.raises(ValidationError, match=rf"{field}.* must be an integer, got {value!r}"):
            phantom_spec_from_json(doc)

    def test_spec_json_seed_is_retired(self, tmp_path):
        spec = _simple_spec()
        assert spec.seed == 3
        for seed in (3, 5, -1, False, 0.0):
            with pytest.raises(ConfigError, match=rf"phantom spec 'seed' must be 0, got {seed!r}"):
                phantom_spec_from_json({**_spec_doc(spec), "seed": seed})
        assert phantom_spec_from_json({**_spec_doc(spec), "seed": 0}) == spec.with_seed(0)
        save_phantom_spec(tmp_path / "spec.json", spec)
        assert "seed" not in json.loads((tmp_path / "spec.json").read_text())
        assert load_phantom_spec(tmp_path / "spec.json") == spec.with_seed(0)

    @pytest.mark.parametrize("value", ["0.5", True, None, [1.0]], ids=["string", "bool", "null", "list"])
    @pytest.mark.parametrize(
        "field",
        ["center", "radii", "intensity", "delta", "prevalence", "radius", "noise_sigma",
         "intensity_jitter"],
    )
    def test_spec_json_float_fields_take_only_numbers(self, field, value):
        doc = _spec_doc(_simple_spec(pathologies=(PathologySpec("a", 2, 0.5, 0.5, 2.0),)))
        if field in ("center", "radii"):
            doc["regions"][0][field] = [3.0, value, 3.0]
        elif field == "intensity":
            doc["regions"][1][field] = value
        elif field in ("delta", "prevalence", "radius"):
            doc["pathologies"][0][field] = value
        else:
            doc[field] = value
        want = rf"{field}.* must be a number, got {re.escape(repr(value))}"
        with pytest.raises(ValidationError, match=want):
            phantom_spec_from_json(doc)

    def test_spec_json_float_fields_take_json_integers(self):
        doc = _spec_doc(_simple_spec(pathologies=(PathologySpec("a", 2, 1, 0, 2),)))
        doc["regions"][0]["center"] = [3, 3, 3]
        doc["noise_sigma"] = 0
        spec = phantom_spec_from_json(doc)
        assert spec.regions[0].center == (3.0, 3.0, 3.0) and type(spec.noise_sigma) is float
        assert type(spec.pathologies[0].prevalence) is float

    def test_spec_json_round_trip(self):
        spec = _simple_spec(seed=0)
        again = phantom_spec_from_json(_spec_doc(spec))
        assert again == spec


def _overlapping_spec():
    """Region 2 paints over part of region 1; both keep voxels."""
    return _simple_spec(
        regions=(
            RegionSpec(1, (5.0, 5.0, 4.0), (3.0, 3.0, 2.5), 0.4),
            RegionSpec(2, (7.5, 7.0, 4.0), (2.5, 2.5, 2.0), 0.7),
        ),
        pathologies=(
            PathologySpec("a", 1, 0.5, 1.0, radius=1.5),
            PathologySpec("b", 2, 0.8, 1.0, radius=1.2),
        ),
        noise_sigma=0.05,
        intensity_jitter=0.3,
    )


class TestPaintCache:
    def _check_against_uncached(self, spec):
        labels, boxes = _paint(tuple(spec.shape), spec.regions)
        hits = _paint.cache_info().hits
        vol, mask, targets = generate_phantom(spec)
        assert _paint.cache_info().hits == hits + 1
        fresh_labels, fresh_boxes = _paint.__wrapped__(tuple(spec.shape), spec.regions)
        assert labels.tobytes() == fresh_labels.tobytes() and dict(boxes) == dict(fresh_boxes)
        ref_vol, ref_labels, ref_targets = full_volume_phantom(spec)
        assert vol.voxels.tobytes() == ref_vol.tobytes()
        assert mask.labels.tobytes() == ref_labels.tobytes()
        assert targets.tobytes() == ref_targets.tobytes()
        assert mask.labels is labels and not labels.flags.writeable

    def test_demo_seeds_equal_an_uncached_paint(self):
        for seed in range(4):
            self._check_against_uncached(demo_phantom_spec().with_seed(seed))

    def test_overlapping_regions_equal_an_uncached_paint(self):
        spec = _overlapping_spec()
        both, _ = _paint.__wrapped__(tuple(spec.shape), spec.regions)
        alone, _ = _paint.__wrapped__(tuple(spec.shape), spec.regions[:1])
        assert 0 < np.count_nonzero(both == 1) < np.count_nonzero(alone == 1)
        for seed in range(4):
            self._check_against_uncached(spec.with_seed(seed))

    def test_cached_layout_is_read_only(self):
        labels, boxes = _paint(tuple(_simple_spec().shape), _simple_spec().regions)
        assert not labels.flags.writeable
        with pytest.raises(TypeError):
            boxes[1] = None


class TestVolumeIO:
    def test_volume_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        vol = Volume3D(rng.standard_normal((16, 16, 16)))
        save_volume(tmp_path / "v.bin", vol)
        back = load_volume(tmp_path / "v.bin")
        assert np.array_equal(back.voxels, vol.voxels)

    def test_truncated_volume_file(self, tmp_path):
        vol = Volume3D(np.zeros((4, 4, 4)))
        path = tmp_path / "v.bin"
        save_volume(path, vol)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(FormatError):
            load_volume(path)

    def test_mask_round_trip_preserves_histogram(self, tmp_path):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 35, (10, 9, 8)).astype(np.int32)
        mask = LabelMask3D(labels, 34)
        save_mask(tmp_path / "m.bin", mask)
        back = load_mask(tmp_path / "m.bin")
        assert back.num_labels == 34
        expected_hist = np.bincount(labels.ravel(), minlength=35)
        got_hist = np.bincount(back.labels.ravel(), minlength=35)
        assert np.array_equal(got_hist, expected_hist)
        assert np.array_equal(back.labels, labels)

    @pytest.mark.parametrize("num_labels", ["x", 2.5, True, None], ids=["string", "float", "bool", "null"])
    def test_mask_header_num_labels_must_be_an_integer(self, tmp_path, num_labels):
        save_tensor(tmp_path / "m.bin", np.ones((2, 2, 2), dtype=np.int32), name="mask",
                    meta={"num_labels": num_labels})
        with pytest.raises(FormatError, match="m.bin.*num_labels"):
            load_mask(tmp_path / "m.bin")

    @pytest.mark.parametrize("num_labels", [0, -3])
    def test_mask_header_num_labels_below_one_fails_naming_the_file(self, tmp_path, num_labels):
        save_tensor(tmp_path / "m.bin", np.zeros((2, 2, 2), dtype=np.int32), name="mask",
                    meta={"num_labels": num_labels})
        with pytest.raises(FormatError, match="m.bin.*num_labels"):
            load_mask(tmp_path / "m.bin")

    @pytest.mark.parametrize("largest, expected", [(0, 1), (5, 5)])
    def test_mask_without_a_header_infers_its_largest_label_at_least_one(self, tmp_path, largest, expected):
        labels = np.zeros((2, 2, 2), dtype=np.int32)
        labels[1, 1, 1] = largest
        save_tensor(tmp_path / "m.bin", labels, name="mask")
        assert load_mask(tmp_path / "m.bin").num_labels == expected

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_a_mask_container_of_floats_fails_naming_the_file_and_the_dtype(self, tmp_path, dtype):
        # a scan's values (0 to 0.8) would truncate to an all-background mask
        save_tensor(tmp_path / "m.bin", np.full((2, 2, 2), 0.8, dtype=dtype), name="volume")
        with pytest.raises(FormatError, match=f"m.bin: .*{dtype}"):
            load_mask(tmp_path / "m.bin")

    def test_an_int64_mask_container_loads(self, tmp_path):
        labels = np.arange(8, dtype=np.int64).reshape(2, 2, 2)
        save_tensor(tmp_path / "m.bin", labels, name="mask")
        back = load_mask(tmp_path / "m.bin")
        assert back.num_labels == 7 and np.array_equal(back.labels, labels)

    def test_mask_header_num_labels_beyond_the_uint16_range_fails_naming_the_file(self, tmp_path):
        # 2**40 labels would size pooling's label lookup table at 8 TiB
        save_tensor(tmp_path / "m.bin", np.ones((2, 2, 2), dtype=np.int32), name="mask",
                    meta={"num_labels": 2**40})
        with pytest.raises(FormatError, match="m.bin.*num_labels"):
            load_mask(tmp_path / "m.bin")
        save_tensor(tmp_path / "m.bin", np.full((2, 2, 2), 2**40, dtype=np.int64), name="mask")
        with pytest.raises(FormatError, match="m.bin.*num_labels"):
            load_mask(tmp_path / "m.bin")

    def test_load_volume_checks_finiteness_once(self, tmp_path, monkeypatch):
        save_volume(tmp_path / "v.bin", Volume3D(np.ones((4, 4, 2))))
        calls = []
        check = container_module.check_range  # the finite-and-in-range check on float arrays
        counted = lambda *a, **kw: calls.append(1) or check(*a, **kw)  # noqa: E731
        monkeypatch.setattr(container_module, "check_range", counted)  # load_tensor, load_records
        monkeypatch.setattr(volume_module, "check_range", counted)  # Volume3D
        assert np.array_equal(load_volume(tmp_path / "v.bin").voxels, np.ones((4, 4, 2)))
        assert len(calls) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_load_volume_of_a_non_finite_scan_names_the_file_and_the_record(self, tmp_path, bad):
        voxels = np.zeros((4, 4, 2))
        voxels[1, 2, 1] = bad
        save_tensor(tmp_path / "v.bin", voxels, name="volume")
        with pytest.raises(ValidationError, match=r"v\.bin.*'volume'.*non-finite"):
            load_volume(tmp_path / "v.bin")

    def test_load_mask_holds_the_labels_once(self, tmp_path):
        labels = np.random.default_rng(5).integers(0, 35, (128, 128, 64)).astype(np.int32)
        save_mask(tmp_path / "m.bin", LabelMask3D(labels, 34))
        masks = []
        extra = traced_peak(lambda: masks.append(load_mask(tmp_path / "m.bin")))
        assert np.array_equal(masks[0].labels, labels)
        assert extra <= 1.05 * labels.nbytes

    def test_constructors_keep_an_array_of_their_dtype_and_mark_it_read_only(self):
        voxels = np.zeros((4, 4, 2))
        labels = np.ones((4, 4, 2), dtype=np.int32)
        volume, mask = Volume3D(voxels), LabelMask3D(labels, 2)
        assert volume.voxels is voxels and mask.labels is labels
        assert not voxels.flags.writeable and not labels.flags.writeable
        resized = resize_mask_nearest(mask, (2, 2, 1))
        assert resized.labels.dtype == np.int32 and not resized.labels.flags.writeable

    @pytest.mark.parametrize(
        "make", [lambda a: a.astype(np.float32), lambda a: a.astype(np.int64), lambda a: a.transpose(1, 0, 2)],
        ids=["float32", "int64", "transposed"],
    )
    def test_constructors_copy_any_other_array_once_and_leave_it_writable(self, make):
        given = make(np.ones((4, 4, 2)))
        for obj, field, dtype in ((Volume3D(given), "voxels", np.float64),
                                  (LabelMask3D(given, 2), "labels", np.int32)):
            kept = getattr(obj, field)
            assert kept.dtype == dtype and kept.flags.c_contiguous and not kept.flags.writeable
            assert not np.shares_memory(kept, given) and np.array_equal(kept, given)
        assert given.flags.writeable

    def test_volume_rejects_non_finite(self):
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            Volume3D(bad)

    def test_mask_rejects_labels_beyond_k(self):
        with pytest.raises(ValidationError):
            LabelMask3D(np.full((2, 2, 2), 9, dtype=np.int32), 4)

    def test_mask_rejects_num_labels_beyond_the_uint16_range(self):
        with pytest.raises(ValidationError, match="num_labels"):
            LabelMask3D(np.ones((2, 2, 2), dtype=np.int32), 2**40)
