"""Every document loader fails on bad input with a CtGraphError, never a raw exception.

Each loader gets arbitrary bytes, arbitrary JSON values, and a valid
document with one node replaced by an arbitrary JSON value or removed.
"""

import copy
import dataclasses
import io
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ctgraph.container import load_tensors, read_record, save_tensors
from ctgraph.demo import demo_phantom_spec, demo_pipeline_config
from ctgraph.encoder import export_pyramid, get_preset, load_pyramid, synth_encode
from ctgraph.errors import ConfigError, CtGraphError, ValidationError
from ctgraph.gat import GatModel
from ctgraph.graph import (
    build_hierarchical,
    default_hierarchy,
    graph_to_json,
    hierarchy_to_json,
    load_graph,
    load_hierarchy,
)
from ctgraph.heads import read_manifest
from ctgraph.pipeline import PipelineConfig
from ctgraph.pooling import load_pooled, pool_all, save_pooled
from ctgraph.volume import Volume3D, generate_phantom, load_phantom_spec

from test_gat import small_hierarchy, tiny_config

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=8,
)
DELETE = object()
FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def node_paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, value in items:
            yield from node_paths(value, prefix + (key,))


def mutated(doc, path, value):
    """doc with the node at path replaced by value, or removed for DELETE."""
    if not path:
        return None if value is DELETE else value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def payloads(valid_doc):
    """File contents: arbitrary bytes, arbitrary JSON, or valid_doc with one node changed."""
    paths = list(node_paths(valid_doc))
    return st.one_of(
        st.binary(max_size=48),
        JSON_VALUES.map(lambda v: json.dumps(v).encode()),
        st.builds(
            lambda p, v: json.dumps(mutated(valid_doc, p, v)).encode(),
            st.sampled_from(paths),
            JSON_VALUES | st.just(DELETE),
        ),
    )


def loads_or_fails_typed(load):
    try:
        load()
    except Exception as exc:  # noqa: BLE001 - the assertion is on the type
        assert isinstance(exc, CtGraphError), f"{type(exc).__name__}: {exc}"


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """(file to overwrite, loader, valid document) per loader, in one directory."""
    base = tmp_path_factory.mktemp("docs")
    hierarchy = small_hierarchy()
    volume = Volume3D(np.random.default_rng(0).standard_normal((8, 8, 8)))
    pyramid_dir = export_pyramid(synth_encode(volume, get_preset("demo"), seed=1), base / "pyr")
    ckpt = GatModel.init(tiny_config(), seed=0).save(base / "ckpt")
    valid = {
        "hierarchy": (base / "anatomy.json", lambda: load_hierarchy(base / "anatomy.json"),
                      hierarchy_to_json(hierarchy)),
        "graph": (base / "graph.json", lambda: load_graph(base / "graph.json"),
                  graph_to_json(build_hierarchical(hierarchy))),
        "phantom-spec": (base / "phantom.json", lambda: load_phantom_spec(base / "phantom.json"),
                         json.loads(json.dumps(dataclasses.asdict(demo_phantom_spec())))),
        "preset-registry": (
            base / "presets.json",
            lambda: get_preset("tiny", registry_path=base / "presets.json"),
            {"presets": [{"name": "tiny", "channels": [2, 2], "factors": [1, 2]}]},
        ),
        "pyramid-index": (pyramid_dir / "pyramid.json", lambda: load_pyramid(pyramid_dir),
                          json.loads((pyramid_dir / "pyramid.json").read_text())),
        "checkpoint-config": (ckpt / "config.json", lambda: GatModel.load(ckpt),
                              json.loads((ckpt / "config.json").read_text())),
        "pipeline-config": (base / "run.json", lambda: PipelineConfig.load(base / "run.json"),
                            demo_pipeline_config()),
    }
    for path, load, doc in valid.values():
        path.write_text(json.dumps(doc))
        load()  # the unchanged document loads
    return valid


@pytest.mark.parametrize(
    "loader",
    ["hierarchy", "graph", "phantom-spec", "preset-registry", "pyramid-index",
     "checkpoint-config", "pipeline-config"],
)
@given(data=st.data())
@FUZZ
def test_loader_raises_only_typed_errors(documents, loader, data):
    path, load, valid_doc = documents[loader]
    path.write_bytes(data.draw(payloads(valid_doc)))
    loads_or_fails_typed(load)


VALID_HEADER = {"name": "t", "dtype": "float64", "shape": [2], "byte_order": "little"}


@given(
    record=st.one_of(
        st.binary(max_size=64),
        JSON_VALUES.map(lambda v: json.dumps(v).encode() + b"\n" + bytes(16)),
        st.builds(
            lambda p, v: json.dumps(mutated(VALID_HEADER, p, v)).encode() + b"\n" + bytes(16),
            st.sampled_from(list(node_paths(VALID_HEADER))),
            JSON_VALUES | st.just(DELETE),
        ),
    )
)
@settings(max_examples=150, deadline=None)
def test_read_record_raises_only_typed_errors(record):
    loads_or_fails_typed(lambda: read_record(io.BytesIO(record)))


@pytest.mark.parametrize(
    "header",
    [
        list(VALID_HEADER),
        5,
        "dtype",
        {**VALID_HEADER, "dtype": ["float64"]},
        {**VALID_HEADER, "shape": [2**70]},
    ],
    ids=["array", "number", "string", "unhashable-dtype", "huge-shape"],
)
def test_read_record_rejects_malformed_headers(header):
    with pytest.raises(CtGraphError):
        read_record(io.BytesIO(json.dumps(header).encode() + b"\n" + bytes(16)))


@pytest.mark.parametrize("field", ["id", "parent", "label"])
def test_non_numeric_hierarchy_id_is_a_typed_error(tmp_path, field):
    doc = hierarchy_to_json(small_hierarchy())
    doc["fine"][0][field] = "one"
    (tmp_path / "anatomy.json").write_text(json.dumps(doc))
    with pytest.raises(CtGraphError, match="anatomy.json"):
        load_hierarchy(tmp_path / "anatomy.json")


@pytest.mark.parametrize(
    "loader, path, what",
    [
        ("phantom-spec", ("pathologies", 0, "name"), "pathology name"),
        ("hierarchy", ("fine", 0, "name"), "fine name"),
        ("hierarchy", ("coarse", 0, "name"), "coarse name"),
        ("graph", ("nodes", 0, "level"), "node level"),
        ("graph", ("topology",), "topology"),
        ("preset-registry", ("presets", 0, "name"), "preset name"),
        ("pyramid-index", ("layers", 0), "layer file name"),
    ],
)
@pytest.mark.parametrize("value", [None, 5, ["x"]], ids=["null", "number", "list"])
def test_name_fields_take_json_strings_only(documents, loader, path, what, value):
    file, load, valid_doc = documents[loader]
    file.write_text(json.dumps(mutated(valid_doc, path, value)))
    expected = f"{file.name}: {what} must be a string, got {value!r}"
    with pytest.raises(ValidationError, match=re.escape(expected)):
        load()


UNKNOWN_KEYS = [  # (loader, the node that gains the key, the key, what the message calls the node)
    ("phantom-spec", (), "noise_sigm", "phantom spec"),
    ("phantom-spec", ("regions", 0), "intensty", "region"),
    ("phantom-spec", ("pathologies", 0), "radus", "pathology"),
    ("hierarchy", (), "versions", "hierarchy"),
    ("hierarchy", ("fine", 0), "parnet", "fine node"),
    ("hierarchy", ("coarse", 0), "lable", "coarse node"),
    ("graph", (), "edge", "graph"),
    ("graph", ("nodes", 0), "levle", "graph node"),
    ("preset-registry", (), "preset", "preset registry"),
    ("preset-registry", ("presets", 0), "chanels", "preset"),
    ("pyramid-index", (), "source_extent", "pyramid index"),
]


@pytest.mark.parametrize(
    "loader, node, key, what", UNKNOWN_KEYS, ids=[f"{loader}-{key}" for loader, _, key, _ in UNKNOWN_KEYS]
)
def test_an_unknown_key_at_any_level_is_a_config_error_naming_it(documents, loader, node, key, what):
    file, load, valid_doc = documents[loader]
    file.write_text(json.dumps(mutated(valid_doc, (*node, key), 1)))
    with pytest.raises(ConfigError, match=re.escape(f"{file.name}: unknown {what} keys: ['{key}']")):
        load()


def test_non_numeric_graph_id_is_a_typed_error(tmp_path):
    doc = graph_to_json(build_hierarchical(small_hierarchy()))
    doc["nodes"][0]["id"] = "one"
    (tmp_path / "graph.json").write_text(json.dumps(doc))
    with pytest.raises(CtGraphError, match="graph.json"):
        load_graph(tmp_path / "graph.json")


MANIFEST_RECORD = {"feature_file": "f0.bin", "labels": [0, 1]}


@given(lines=st.lists(payloads(MANIFEST_RECORD), min_size=1, max_size=3))
@FUZZ
def test_read_manifest_raises_only_typed_errors(tmp_path_factory, lines):
    """Manifest lines of arbitrary bytes, arbitrary JSON, or a record with one node changed."""
    path = tmp_path_factory.mktemp("manifest") / "data.jsonl"
    path.write_bytes(b"\n".join(lines))
    loads_or_fails_typed(lambda: read_manifest(path))


@pytest.fixture(scope="module")
def pooled_file(tmp_path_factory):
    """A valid pooled-feature container."""
    volume, mask, _ = generate_phantom(demo_phantom_spec())
    pooled = pool_all(synth_encode(volume, get_preset("demo"), seed=7), mask, default_hierarchy())
    path = tmp_path_factory.mktemp("pooled") / "feats.bin"
    save_pooled(path, *pooled)
    load_pooled(path)  # the unchanged container loads
    return path


SMALL_ARRAYS = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.int64, np.int32]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
)


@given(data=st.data())
@FUZZ
def test_load_pooled_raises_only_typed_errors(tmp_path_factory, pooled_file, data):
    """A pooled container with one record removed or replaced, or arbitrary bytes."""
    records = load_tensors(pooled_file)
    name = data.draw(st.sampled_from(sorted(records)))
    replacement = data.draw(st.one_of(st.just(DELETE), SMALL_ARRAYS, st.binary(max_size=48)))
    path = tmp_path_factory.mktemp("fuzz") / "feats.bin"
    if isinstance(replacement, bytes):
        path.write_bytes(replacement)
    else:
        del records[name]
        if replacement is not DELETE:
            records[name] = replacement
        save_tensors(path, records)
    loads_or_fails_typed(lambda: load_pooled(path))
