"""File I/O: tensor containers, and every JSON document via read_json/write_json.

A container record is one JSON header line (name, dtype, shape, byte_order)
followed by the raw contiguous little-endian payload. A file may hold several
records back to back; readers consume records until EOF. Round trips are
bit-exact. A float record holding NaN, inf or a magnitude beyond MAX_ABS
fails at load with a ValidationError naming the file and the record.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from pathlib import Path
from types import MappingProxyType
from typing import BinaryIO

import numpy as np

from .errors import ConfigError, CtGraphError, FormatError, ValidationError

_TO_NUMPY = {"float64": "<f8", "float32": "<f4", "int64": "<i8", "int32": "<i4"}
_FROM_KIND = {("f", 8): "float64", ("f", 4): "float32", ("i", 8): "int64", ("i", 4): "int32"}
_MAX_HEADER_BYTES = 1 << 20
MAX_ABS = 1e100  # of a float input: squares (layer norm, AdamW) overflow from ~1e154


def _dtype_name(arr: np.ndarray) -> str:
    key = (arr.dtype.kind, arr.dtype.itemsize)
    if key not in _FROM_KIND:
        raise FormatError(f"unsupported dtype for container: {arr.dtype}")
    return _FROM_KIND[key]


def write_record(fh: BinaryIO, array: np.ndarray, name: str = "tensor", meta: dict | None = None) -> None:
    arr = np.asarray(array)
    if arr.dtype == np.bool_:
        arr = arr.astype(np.int32)
    dtype_name = _dtype_name(arr)
    header: dict = {
        "name": name,
        "dtype": dtype_name,
        "shape": list(arr.shape),
        "byte_order": "little",
    }
    if meta:
        header["meta"] = meta
    fh.write(json.dumps(header).encode("utf-8") + b"\n")
    # copies only to change layout, byte order or dtype; the file reads the buffer itself
    fh.write(np.ascontiguousarray(arr, dtype=_TO_NUMPY[dtype_name]).data)


def read_record(fh: BinaryIO):
    """Read one record; returns (name, array, header) or None at EOF."""
    line = fh.readline(_MAX_HEADER_BYTES)
    if not line:
        return None
    if not line.endswith(b"\n"):
        raise FormatError("container header line is unterminated or oversized")
    try:
        header = json.loads(line)
    except (ValueError, RecursionError) as exc:  # also undecodable bytes
        raise FormatError(f"container header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"container header must be a JSON object, got {type(header).__name__}")
    for key in ("name", "dtype", "shape", "byte_order"):
        if key not in header:
            raise FormatError(f"container header misses required key '{key}'")
    if header["byte_order"] != "little":
        raise FormatError(f"unsupported byte order: {header['byte_order']}")
    dtype_name = str(header["dtype"])
    if dtype_name not in _TO_NUMPY:
        raise FormatError(f"unknown container dtype: {dtype_name}")
    shape = header["shape"]
    if not isinstance(shape, list) or any(type(d) is not int or d < 0 for d in shape):
        raise FormatError(f"record '{header['name']}' of shape {shape}: extents must be integers >= 0")
    np_dtype = np.dtype(_TO_NUMPY[dtype_name])
    nbytes = math.prod(shape) * np_dtype.itemsize
    try:
        array = np.empty(shape, dtype=np_dtype)
    except (ValueError, MemoryError) as exc:  # more bytes than any file holds
        raise FormatError(f"record '{header['name']}' of shape {shape} is too large: {exc}") from exc
    got = fh.readinto(array)  # the payload lands in the array, copied once
    if got != nbytes:
        raise FormatError(
            f"truncated payload for record '{header['name']}': "
            f"expected {nbytes} bytes, got {got}"
        )
    return header["name"], array, header


def check_range(array, what: str) -> None:
    """Raise a ValidationError naming what unless a float array lies within ±MAX_ABS (no NaN, no inf)."""
    if array.dtype.kind != "f" or not array.size:
        return
    if not -MAX_ABS <= float(array.min()) <= float(array.max()) <= MAX_ABS:
        raise ValidationError(f"{what} holds non-finite values or values beyond ±{MAX_ABS:g}")


def save_tensor(path, array: np.ndarray, name: str = "tensor", meta: dict | None = None) -> None:
    save_tensors(path, {name: array}, {name: meta})


def read_tensor(path):
    """The record (name, array, header) of a single-record container, its values unchecked."""
    with open_input(path, "container", "rb") as fh:
        rec = read_record(fh)
        if rec is None:
            raise FormatError("empty container")
        if fh.read(1):
            raise FormatError("trailing data after single record")
    return rec


def load_tensor(path):
    """Load a single-record container; returns (array, header)."""
    name, array, header = read_tensor(path)
    check_range(array, f"{path}: record '{name}'")
    return array, header


def save_tensors(path, named: dict[str, np.ndarray], meta: dict[str, dict] | None = None) -> None:
    meta = meta or {}
    with open_output(path, "wb") as fh:
        for name, arr in named.items():
            write_record(fh, arr, name=name, meta=meta.get(name))


def load_records(path) -> list[tuple[str, np.ndarray, dict]]:
    records = []
    with open_input(path, "container", "rb") as fh:
        while (rec := read_record(fh)) is not None:
            check_range(rec[1], f"{path}: record '{rec[0]}'")
            records.append(rec)
        if not records:
            raise FormatError("empty container")
    return records


def load_tensors(path) -> dict[str, np.ndarray]:
    return {name: arr for name, arr, _ in load_records(path)}


@contextlib.contextmanager
def open_input(path, what: str, mode: str = "r"):
    """path opened for reading (text as UTF-8); a ConfigError, or a FormatError of the body, names it."""
    try:
        fh = open(path, mode, encoding=None if "b" in mode else "utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError(f"{what} {path} cannot be read: {exc}") from exc
    with fh:
        try:
            yield fh
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from exc


def read_json(path, what: str, parse=None):
    """The JSON document at path, or parse(document); every failure names what and path."""
    with open_input(path, what) as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also undecodable bytes
            raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    try:
        return doc if parse is None else parse(doc)
    except CtGraphError as exc:
        raise type(exc)(f"{what} {path}: {exc}") from exc


@contextlib.contextmanager
def _unwritable(path):
    """Raise an OSError of the block as a ConfigError naming the output path."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"output {path} cannot be written: {exc.strerror or exc}") from exc


@contextlib.contextmanager
def open_output(path, mode: str = "w"):
    """A temporary file beside path (text as UTF-8), moved over path by os.replace when
    the body returns and removed when it raises, so path is never half written.
    Failing to open or replace raises a ConfigError naming path.
    No fsync: this guards against a crash of the process, not a power loss, as
    a demo run writes 91 files.
    """
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    with _unwritable(path):
        fh = open(tmp, mode, encoding=None if "b" in mode else "utf-8")
    try:
        with fh:
            yield fh
        with _unwritable(path):
            os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def remove_output(path) -> None:
    """Remove the file at path if there is one; failing that, a ConfigError naming it."""
    with _unwritable(path):
        Path(path).unlink(missing_ok=True)


def write_json(path, doc) -> None:
    with open_output(path) as fh:
        json.dump(doc, fh, indent=2)


def check_keys(doc, known, what: str, retired=MappingProxyType({})) -> dict:
    """doc without its retired keys; doc must be a JSON object whose keys all name entries of
    known or of retired, which maps each key that earlier releases read to the one value it
    may still hold. A retired key of another value raises a ConfigError naming it.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - set(known) - set(retired)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in retired.items():
        if doc.get(key, value) != value:
            raise ConfigError(f"{what} '{key}' must be {value!r}, got {doc[key]!r}")
    return {key: value for key, value in doc.items() if key not in retired}


def check_values(config, what: str, rules: dict) -> None:
    """Raise ConfigError naming the first field of config that breaks its rule.

    rules maps a field name to (type, wanted, condition): the value must be an
    instance of type, not a bool, and pass condition unless that is None;
    wanted describes a valid value for the message.
    """
    for key, (kind, wanted, condition) in rules.items():
        value = getattr(config, key)
        if isinstance(value, bool) or not isinstance(value, kind) or not (
            condition is None or condition(value)
        ):
            raise ConfigError(f"{what} '{key}' must be {wanted}, got {value!r}")


def ensure_dir(path) -> Path:
    """path, made with its parents if missing; failing that, a ConfigError naming it."""
    p = Path(path)
    with _unwritable(p):
        p.mkdir(parents=True, exist_ok=True)
    return p
