"""Container format: bit-exact round trips and hard failures on bad files."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctgraph.container as container_module
from ctgraph.container import load_tensor, load_tensors, save_tensor, save_tensors, write_json
from ctgraph.errors import FormatError, ValidationError


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((16, 16, 16))
    path = tmp_path / "vol.bin"
    save_tensor(path, arr, name="volume")
    back, header = load_tensor(path)
    assert np.array_equal(back, arr)
    assert back.dtype == np.float64
    assert header["name"] == "volume"
    assert header["byte_order"] == "little"


@given(
    shape=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    dtype=st.sampled_from(["float64", "float32", "int32", "int64"]),
)
@settings(max_examples=40, deadline=None)
def test_round_trip_any_shape_dtype(tmp_path_factory, shape, dtype):
    tmp = tmp_path_factory.mktemp("rt")
    rng = np.random.default_rng(1)
    if dtype.startswith("float"):
        arr = rng.standard_normal(shape).astype(dtype)
    else:
        arr = rng.integers(-100, 100, size=shape).astype(dtype)
    save_tensor(tmp / "t.bin", arr)
    back, _ = load_tensor(tmp / "t.bin")
    assert np.array_equal(back, arr)
    assert back.dtype == arr.dtype


def test_truncated_payload_raises_and_builds_nothing(tmp_path):
    path = tmp_path / "t.bin"
    save_tensor(path, np.ones((4, 4)))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(FormatError, match="truncated"):
        load_tensor(path)


def test_header_payload_shape_mismatch(tmp_path):
    path = tmp_path / "t.bin"
    header = {"name": "x", "dtype": "float64", "shape": [3, 3], "byte_order": "little"}
    path.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * 8 * 4)
    with pytest.raises(FormatError):
        load_tensor(path)


def test_rejects_garbage_header(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(b"not json at all\n....")
    with pytest.raises(FormatError):
        load_tensor(path)


@pytest.mark.parametrize(
    "data, message",
    [
        (b"not json\n", "container header is not valid JSON"),
        (b"{}\n", "container header misses required key 'name'"),
        (json.dumps({"name": "x", "dtype": "float64", "shape": [1], "byte_order": "little"}).encode()
         + b"\n\x00\x00", "truncated payload for record 'x'"),
        (b"", "empty container"),
    ],
    ids=["header", "keys", "payload", "empty"],
)
@pytest.mark.parametrize("read", [container_module.read_tensor, container_module.load_records])
def test_a_corrupt_container_error_names_the_file_once(tmp_path, data, message, read):
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {message}')}") as info:
        read(path)
    assert str(info.value).count(str(path)) == 1


def test_rejects_big_endian(tmp_path):
    path = tmp_path / "t.bin"
    header = {"name": "x", "dtype": "float64", "shape": [1], "byte_order": "big"}
    path.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * 8)
    with pytest.raises(FormatError, match="byte order"):
        load_tensor(path)


def test_multi_record_file(tmp_path):
    rng = np.random.default_rng(2)
    named = {
        "a": rng.standard_normal((2, 3)),
        "b": rng.integers(0, 9, size=(4,)).astype(np.int32),
        "c": rng.standard_normal(5).astype(np.float32),
    }
    path = tmp_path / "multi.bin"
    save_tensors(path, named)
    back = load_tensors(path)
    assert set(back) == set(named)
    for name in named:
        assert np.array_equal(back[name], named[name])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_non_finite_float_record_fails_at_load_naming_file_and_record(tmp_path, bad, dtype):
    values = np.zeros((2, 3), dtype=dtype)
    values[1, 2] = bad
    save_tensor(tmp_path / "one.bin", values, name="feats")
    save_tensors(tmp_path / "many.bin", {"ids": np.arange(3), "feats": values})
    for path in (tmp_path / "one.bin", tmp_path / "many.bin"):
        with pytest.raises(ValidationError, match=rf"{path.name}.*'feats'"):
            (load_tensor if path.name == "one.bin" else load_tensors)(path)


@pytest.mark.parametrize("bad", [1e101, -1e300], ids=["above", "below"])
def test_a_float_record_beyond_1e100_fails_at_load_naming_file_and_record(tmp_path, bad):
    values = np.zeros(3)
    save_tensors(tmp_path / "edge.bin", {"feats": values + [1e100, -1e100, 0.0]})
    values[1] = bad
    save_tensors(tmp_path / "bad.bin", {"feats": values})
    assert load_tensors(tmp_path / "edge.bin")["feats"][0] == 1e100
    with pytest.raises(ValidationError, match=r"bad\.bin: record 'feats' holds .* beyond ±1e\+100"):
        load_tensors(tmp_path / "bad.bin")


def test_records_of_zero_extent_round_trip(tmp_path):
    # a pooled file of a hierarchy without fine nodes holds (0, C) fine records
    named = {"rows": np.zeros((0, 3)), "ids": np.zeros(0, dtype=np.int64), "cube": np.zeros((2, 0, 2), np.float32)}
    save_tensors(tmp_path / "t.bin", named)
    back = load_tensors(tmp_path / "t.bin")
    assert {k: (v.shape, v.dtype) for k, v in back.items()} == {k: (v.shape, v.dtype) for k, v in named.items()}


@pytest.mark.parametrize("shape", [[0, 2**62], [2**62, 0], [2**62], [-1, 0], [0.0]])
def test_a_shape_no_array_holds_is_a_format_error(tmp_path, shape):
    header = {"name": "x", "dtype": "float64", "shape": shape, "byte_order": "little"}
    (tmp_path / "t.bin").write_bytes(json.dumps(header).encode() + b"\n")
    with pytest.raises(FormatError, match=re.escape(f"t.bin: record 'x' of shape {shape}")):
        load_tensor(tmp_path / "t.bin")


def test_trailing_bytes_after_single_record(tmp_path):
    path = tmp_path / "t.bin"
    save_tensor(path, np.zeros(2))
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(FormatError, match="trailing"):
        load_tensor(path)


def test_failed_save_tensors_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "multi.bin"
    save_tensors(path, {"old": np.arange(3.0)})
    before = path.read_bytes()
    write_record = container_module.write_record
    written = []

    def fail_after_first(fh, array, name="tensor", meta=None):
        if written:
            raise OSError("disk full")
        written.append(name)
        write_record(fh, array, name=name, meta=meta)

    monkeypatch.setattr(container_module, "write_record", fail_after_first)
    with pytest.raises(OSError, match="disk full"):
        save_tensors(path, {"a": np.zeros(2), "b": np.ones(2)})
    assert written == ["a"]
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["multi.bin"]


def test_failed_write_json_keeps_the_old_file(tmp_path):
    path = tmp_path / "summary.json"
    write_json(path, {"metrics": {"f1": 0.5}})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_json(path, {"metrics": {"f1": object()}})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.json"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_non_finite_floats_and_leaves_no_file(tmp_path, value):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError):
        write_json(path, {"ce": {"f1": value}})
    assert list(tmp_path.iterdir()) == []


def traced_peak(fn):
    """Peak bytes traced while fn runs, beyond what was traced when it started."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


def test_save_writes_a_float64_payload_from_the_array_own_buffer(tmp_path):
    arr = np.random.default_rng(3).standard_normal(1 << 20)  # 8 MB
    extra = traced_peak(lambda: save_tensor(tmp_path / "big.bin", arr))
    assert extra < 1 << 20
    back, _ = load_tensor(tmp_path / "big.bin")
    assert np.array_equal(back, arr)


@pytest.mark.parametrize(
    "make",
    [
        lambda a: a.astype(np.float32),
        lambda a: a > 0,
        lambda a: a.astype(">f8"),
        lambda a: a.astype(">i4"),
        lambda a: a.transpose(2, 0, 1),
        lambda a: a[::2, :, 1::2],
    ],
    ids=["float32", "bool", "big-endian-f8", "big-endian-i4", "transposed", "strided"],
)
def test_converted_or_strided_inputs_round_trip_bit_exact(tmp_path, make):
    arr = make(np.random.default_rng(4).standard_normal((6, 5, 4)) * 100)
    save_tensor(tmp_path / "t.bin", arr, name="x")
    back, header = load_tensor(tmp_path / "t.bin")
    want = arr.astype(arr.dtype.newbyteorder("<") if arr.dtype != np.bool_ else np.int32)
    assert back.dtype == want.dtype and back.dtype.byteorder in "=<|"
    assert back.shape == arr.shape and np.array_equal(back, want)
    # the bytes on disk: the header line, then the C-order little-endian scalars
    payload = (tmp_path / "t.bin").read_bytes().split(b"\n", 1)[1]
    assert payload == np.ascontiguousarray(want).tobytes()
    assert header["shape"] == list(arr.shape)
