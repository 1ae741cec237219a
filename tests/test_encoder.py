"""Synthetic encoder behavior, preset registry, and pyramid import/export."""

import json
import math
import os
import signal
import threading
import time

import numpy as np
import pytest

from ctgraph import encoder
from ctgraph.encoder import (
    PRESETS,
    EncoderPreset,
    FeaturePyramid,
    export_pyramid,
    get_preset,
    import_pyramid,
    load_pyramid,
    synth_encode,
)
from ctgraph.container import save_tensor
from ctgraph.errors import ConfigError, ValidationError
from ctgraph.volume import Volume3D


def test_constant_volume_gives_spatially_constant_layers():
    vol = Volume3D(np.full((16, 16, 8), 2.5))
    pyr = synth_encode(vol, get_preset("demo"), seed=1)
    for layer in pyr.layers:
        data = layer.data.data
        per_channel = data.reshape(-1, layer.channels)
        assert np.allclose(per_channel, per_channel[0], atol=1e-12)


def test_voco_style_channel_list():
    vol = Volume3D(np.zeros((32, 32, 32)))
    pyr = synth_encode(vol, get_preset("voco-style"), seed=0)
    assert pyr.channels == (48, 96, 192, 384, 768)


def test_preset_channel_totals():
    assert get_preset("voco-style").c_total == 1488
    assert get_preset("ct-fm-style").c_total == 992


def test_single_hot_voxel_locality_matches_box_average():
    shape = (8, 8, 8)
    base = np.zeros(shape)
    hot = base.copy()
    hot[5, 2, 7] = 1.0
    preset = EncoderPreset("two", (3, 2), (2, 2))
    pyr0 = synth_encode(Volume3D(base), preset, seed=4)
    pyr1 = synth_encode(Volume3D(hot), preset, seed=4)

    layer0_diff = pyr1.layers[0].data.data - pyr0.layers[0].data.data
    changed = np.nonzero(np.any(layer0_diff != 0, axis=3))
    assert list(zip(*changed)) == [(2, 1, 3)]  # the box containing (5, 2, 7)

    # brute-force box average of layer 1 at factor 2, before the channel lift
    expected_box = np.zeros((4, 4, 4))
    for i in range(8):
        for j in range(8):
            for t in range(8):
                expected_box[i // 2, j // 2, t // 2] += hot[i, j, t] / 8.0
    rng = np.random.default_rng([4, 0])
    scale = rng.standard_normal(3)
    offset = 0.1 * rng.standard_normal(3)
    expected = expected_box[..., None] * scale + offset
    assert np.allclose(pyr1.layers[0].data.data, expected, atol=1e-12)


def test_seed_determinism():
    vol = Volume3D(np.random.default_rng(0).standard_normal((16, 16, 8)))
    a = synth_encode(vol, get_preset("demo"), seed=9)
    b = synth_encode(vol, get_preset("demo"), seed=9)
    c = synth_encode(vol, get_preset("demo"), seed=10)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.data.data, lb.data.data)
    assert not np.array_equal(a.layers[0].data.data, c.layers[0].data.data)


def test_indivisible_extents_error_names_factor():
    vol = Volume3D(np.zeros((12, 12, 6)))
    with pytest.raises(ValidationError, match="divisible.*4"):
        synth_encode(vol, get_preset("demo"), seed=0)


def lift(box, seed, li, c_l):
    """A layer's box means lifted into c_l channels as the encoder lifts layer li."""
    rng = np.random.default_rng([seed, li])
    scale = rng.standard_normal(c_l)
    offset = 0.1 * rng.standard_normal(c_l)
    feats = box[..., None] * scale
    feats += offset
    return feats


def serial_reference(volume, preset, seed):
    """The encoder on one thread: each layer sums the one above it (layer 0 the volume)
    over its factor along axis 0, then 1, then 2, divides by factor^3 and is lifted whole.
    A factor-2 sum adds the same two slices as the encoder's strided add."""
    layers, box = [], volume.voxels
    for li, (c_l, f) in enumerate(zip(preset.channels, preset.factors)):
        for axis in range(3):
            split = box.shape[:axis] + (box.shape[axis] // f, f) + box.shape[axis + 1 :]
            box = box.reshape(split).sum(axis=axis + 1)
        box = box / f**3
        layers.append(lift(box, seed, li, c_l))
    return layers


def direct_reference(volume, preset, seed):
    """Each layer as the volume's own box mean at the layer's cumulative factor, lifted."""
    h, w, d = volume.shape
    layers = []
    for li, c_l in enumerate(preset.channels):
        f = math.prod(preset.factors[: li + 1])
        box = volume.voxels.reshape(h // f, f, w // f, f, d // f, f).mean(axis=(1, 3, 5))
        layers.append(lift(box, seed, li, c_l))
    return layers


def reference_shapes(preset):
    # the coarsest layer has 1 or 3 rows
    top = math.prod(preset.factors)
    return [(top, top, top), (3 * top, top, 2 * top)]


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize("preset_name", sorted(PRESETS))
def test_slab_parallel_pyramid_equals_serial_reference(monkeypatch, preset_name, workers):
    # every volume is split, and the coarsest layers have fewer rows than
    # slabs (1 or 3 rows) or a row count the slab count does not divide
    monkeypatch.setattr(encoder, "_WORKERS", workers)
    monkeypatch.setattr(encoder, "_INLINE_BELOW_VOXELS", 0)
    preset = PRESETS[preset_name]
    rng = np.random.default_rng(workers)
    for shape in reference_shapes(preset):
        vol = Volume3D(rng.standard_normal(shape) * 50.0)
        pyr = synth_encode(vol, preset, seed=11)
        expected = serial_reference(vol, preset, seed=11)
        assert [layer.extents[0] for layer in pyr.layers][-1] in (1, 3)
        for layer, ref in zip(pyr.layers, expected, strict=True):
            assert np.array_equal(layer.data.data, ref)


@pytest.mark.parametrize("preset_name", sorted(PRESETS))
def test_every_layer_is_the_volumes_box_mean_at_its_cumulative_factor(preset_name):
    # layered sums round differently from one mean over the whole box: a few ulp of the
    # layer's largest value, far below 1e-12 of it
    preset = PRESETS[preset_name]
    rng = np.random.default_rng(13)
    for shape in reference_shapes(preset):
        vol = Volume3D(rng.standard_normal(shape) * 50.0)
        pyr = synth_encode(vol, preset, seed=11)
        for layer, ref in zip(pyr.layers, direct_reference(vol, preset, seed=11), strict=True):
            np.testing.assert_allclose(layer.data.data, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("started a thread pool")


def test_one_cpu_and_small_volumes_encode_inline(monkeypatch):
    monkeypatch.setattr(encoder, "ThreadPoolExecutor", _NoPool)
    small = Volume3D(np.random.default_rng(1).standard_normal((32, 32, 16)))
    assert small.voxels.size < encoder._INLINE_BELOW_VOXELS
    monkeypatch.setattr(encoder, "_WORKERS", 4)
    synth_encode(small, get_preset("demo"), seed=1)
    monkeypatch.setattr(encoder, "_WORKERS", 1)
    large = Volume3D(np.zeros((128, 64, 64)))
    assert large.voxels.size >= encoder._INLINE_BELOW_VOXELS
    synth_encode(large, get_preset("demo"), seed=1)


def test_a_split_encode_leaves_no_thread_running(monkeypatch):
    monkeypatch.setattr(encoder, "_WORKERS", 2)
    volume = Volume3D(np.random.default_rng(4).standard_normal((128, 64, 64)))
    assert volume.voxels.size >= encoder._INLINE_BELOW_VOXELS
    before = threading.active_count()
    synth_encode(volume, get_preset("demo"), seed=5)
    assert threading.active_count() == before
    assert not [t.name for t in threading.enumerate() if t.name.startswith("ctgraph-encode")]


class _Boom(Exception):
    pass


def test_a_failing_slab_raises_only_after_every_other_slab_has_finished(monkeypatch):
    # slab 0 of layer 0 (its 8 channels) raises at once; the call must not return while its
    # other slabs still run
    monkeypatch.setattr(encoder, "_WORKERS", 2)
    finished, real = [], encoder._encode_rows

    def encode_rows(box, scale, offset, out, start, stop):
        if out.shape[-1] == 8 and start == 0:
            raise _Boom
        time.sleep(0.02)
        real(box, scale, offset, out, start, stop)
        finished.append((out.shape[-1], start))

    monkeypatch.setattr(encoder, "_encode_rows", encode_rows)
    with pytest.raises(_Boom):
        synth_encode(Volume3D(np.zeros((128, 64, 64))), get_preset("demo"), seed=5)
    assert len(finished) == 5  # 3 layers of 2 slabs, one of which raised


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_encodes_on_its_own_pool(monkeypatch):
    # the parent's first encode starts the pool's threads, which a forked child does not inherit
    monkeypatch.setattr(encoder, "_WORKERS", 2)
    volume = Volume3D(np.random.default_rng(3).standard_normal((128, 128, 64)))
    assert volume.voxels.size >= encoder._INLINE_BELOW_VOXELS
    parent = synth_encode(volume, get_preset("demo"), seed=5)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: encode again, report whether the layers equal the parent's
        try:
            os.close(read_end)
            signal.alarm(10)  # a child blocked on a pool without threads dies here
            child = synth_encode(volume, get_preset("demo"), seed=5)
            same = all(np.array_equal(a.data.data, b.data.data) for a, b in zip(child.layers, parent.layers))
            os.write(write_end, b"equal" if same else b"differ")
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        report = fh.read()
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, f"child ended with status {status}"
    assert report == b"equal"


@pytest.mark.parametrize(
    "preset_name, factor, layer",
    [("demo", None, None), ("transvw-style", None, None), ("swinunetr-style", 32, 4),
     ("voco-style", 32, 4), ("ct-fm-style", 32, 4), ("vox2vec-style", 32, 4)],
)
def test_layer_extents_names_the_first_factor_that_does_not_divide(preset_name, factor, layer):
    preset = PRESETS[preset_name]
    if factor is None:
        halved = ((16, 16, 8), (8, 8, 4), (4, 4, 2), (2, 2, 1))
        assert preset.layer_extents((32, 32, 16)) == halved[: preset.num_layers]
        return
    with pytest.raises(ValidationError) as info:
        preset.layer_extents((32, 32, 16))
    assert str(info.value) == (
        f"volume extents (32, 32, 16) must be divisible by the cumulative downsample factor "
        f"{factor} of preset '{preset_name}' layer {layer}"
    )


def test_a_layer_numpy_cannot_allocate_is_a_config_error_naming_the_preset_and_layer():
    # 2**45 channels of float64 is 256 TiB, beyond the 47-bit address space: numpy refuses at once
    preset = EncoderPreset("huge", (2, 2**45), (1, 2))
    with pytest.raises(ConfigError) as info:
        synth_encode(Volume3D(np.zeros((4, 4, 2))), preset, seed=0)
    assert str(info.value).startswith(
        "preset 'huge' layer 1 of 35184372088832 channels at extents (2, 2, 1) cannot be allocated: "
    )


def test_export_records_the_source_extents(tmp_path):
    vol = Volume3D(np.zeros((16, 16, 8)))
    export_pyramid(synth_encode(vol, get_preset("demo"), seed=2), tmp_path)
    assert json.loads((tmp_path / "pyramid.json").read_text())["source_extents"] == [16, 16, 8]
    assert load_pyramid(tmp_path).source_extents == (16, 16, 8)


@pytest.mark.parametrize("extents", [[16, 16], [16, 0, 8], "abc", [16, "x", 8], [16.5, 16, 8]])
def test_load_rejects_bad_source_extents(tmp_path, extents):
    export_pyramid(synth_encode(Volume3D(np.zeros((16, 16, 8))), get_preset("demo"), 2), tmp_path)
    index = json.loads((tmp_path / "pyramid.json").read_text())
    index["source_extents"] = extents
    (tmp_path / "pyramid.json").write_text(json.dumps(index))
    with pytest.raises(ValidationError, match="pyramid index"):
        load_pyramid(tmp_path)


def test_load_rejects_an_index_whose_channels_are_stale(tmp_path):
    export_pyramid(synth_encode(Volume3D(np.zeros((16, 16, 8))), get_preset("demo"), 2), tmp_path)
    index = json.loads((tmp_path / "pyramid.json").read_text())
    assert index["channels"] == [8, 16, 32]
    index["channels"] = [8, 16, 64]
    (tmp_path / "pyramid.json").write_text(json.dumps(index))
    with pytest.raises(ValidationError, match=r"pyramid.json: .*channels \[8, 16, 64\] do not match"):
        load_pyramid(tmp_path)


def test_export_import_round_trip_bit_identical(tmp_path):
    vol = Volume3D(np.random.default_rng(5).standard_normal((16, 16, 8)))
    pyr = synth_encode(vol, get_preset("demo"), seed=2)
    export_pyramid(pyr, tmp_path)
    back = load_pyramid(tmp_path)
    assert back.channels == pyr.channels
    for la, lb in zip(pyr.layers, back.layers):
        assert np.array_equal(la.data.data, lb.data.data)


def test_import_rejects_coarse_to_fine_order(tmp_path):
    rng = np.random.default_rng(6)
    coarse = rng.standard_normal((2, 4, 4, 2))  # (C, H, W, D)
    fine = rng.standard_normal((2, 8, 8, 4))
    save_tensor(tmp_path / "a.bin", coarse)
    save_tensor(tmp_path / "b.bin", fine)
    with pytest.raises(ValidationError, match="non-increasing"):
        import_pyramid([tmp_path / "a.bin", tmp_path / "b.bin"])


def test_import_accepts_six_layer_vox2vec_style(tmp_path):
    rng = np.random.default_rng(8)
    channels = (16, 32, 64, 128, 256, 512)
    paths = []
    extent = 16
    for i, c in enumerate(channels):
        arr = rng.standard_normal((c, extent, extent, max(extent // 2, 1))).astype(
            np.float32
        )
        path = tmp_path / f"l{i}.bin"
        save_tensor(path, arr)
        paths.append(path)
        extent = max(extent // 2, 1)
    pyr = import_pyramid(paths)
    assert pyr.channels == channels
    assert sum(pyr.channels) == sum(channels)


def test_import_rejects_wrong_rank(tmp_path):
    save_tensor(tmp_path / "bad.bin", np.zeros((4, 4)))
    with pytest.raises(ValidationError, match="4-d"):
        import_pyramid([tmp_path / "bad.bin"])


@pytest.mark.parametrize("shape", [(0, 4, 4, 2), (2, 4, 4, 0)], ids=["no-channel", "zero-depth"])
def test_import_rejects_a_layer_with_a_zero_extent(tmp_path, shape):
    # containers may hold zero extents; pooling a layer without voxels or channels cannot work
    save_tensor(tmp_path / "bad.bin", np.zeros(shape))
    with pytest.raises(ValidationError, match="positive extents"):
        import_pyramid([tmp_path / "bad.bin"])


def test_pyramid_needs_a_layer():
    with pytest.raises(ValidationError):
        FeaturePyramid([])


def test_unknown_preset_lists_known_names():
    with pytest.raises(ValidationError, match="demo"):
        get_preset("not-a-preset")


def test_preset_mismatched_lengths_rejected():
    with pytest.raises(ValidationError):
        EncoderPreset("bad", (8, 16), (2,))
