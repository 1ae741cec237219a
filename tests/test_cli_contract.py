"""The exit-code contract of whole commands: `cli.main` returns 0 or 2, and raises nothing.

`cli.main` runs in process on mutated inputs: a valid 2-sample `run` config,
phantom spec or hierarchy with one node replaced or removed; a truncated or
byte-flipped pooled container for `infer` or mask container for `pool`, or one
whose header holds a record name or meta of the wrong type; and an `--out`
blocked by an entry of the other kind. A return of 0 comes with the
promised output (for `run`, summary.json and no STALE); a return of 2 comes
with exactly one `error:` line. Any exception is a defect.

A table replaces each input path of every subcommand with a missing path, a
directory, or another command's input file; each must return 2 with one
`error:` line naming the path, and write no output. Another pins document
mutations with values too large for the fuzzed ones, each of which once raised.

Every exit-2 case runs in process. One test checks the process boundary
once: `python -m ctgraph.cli` exits with `main`'s 2, one `error:` line and no
traceback. Others run `scripts/run_trends.py` and
`scripts/make_paper_scale_config.py`, whose argparse rejects a `--samples`
below 1 with exit 2.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ctgraph
from ctgraph.cli import main
from ctgraph.demo import demo_phantom_spec
from ctgraph.graph import default_hierarchy, hierarchy_to_json

from test_loaders_fuzz import DELETE, FUZZ, mutated, node_paths

# Counts stay small: a num_samples or epochs of 10**30 passes validation and runs forever.
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=4,
)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The directory of the valid documents and of one `run` over them, and the documents."""
    base = tmp_path_factory.mktemp("contract")
    docs = {
        "phantom.json": json.loads(json.dumps(dataclasses.asdict(demo_phantom_spec()))),
        "anatomy.json": hierarchy_to_json(default_hierarchy()),
        "run.json": {
            "seed": 1, "num_samples": 2, "phantom_spec": str(base / "phantom.json"),
            "hierarchy": str(base / "anatomy.json"), "probe": {"epochs": 1},
            "gat_train": {"mode": "gat", "epochs": 1, "batch_size": 2},
            "gat": {"d_h": 4, "n_heads": 1, "export_dim": 4},
        },
    }
    for name, doc in docs.items():
        (base / name).write_text(json.dumps(doc))
    assert main(["run", "--config", str(base / "run.json"), "--out", str(base / "run")]) == 0
    (base / "a_file").write_text("not a directory")
    (base / "a_dir").mkdir()
    samples = [json.loads(line) for line in (base / "run" / "synth" / "samples.jsonl").read_text().splitlines()]
    inputs = {  # the other subcommands' input files, each written as JSON lines
        "presets.json": [{"presets": [{"name": "tiny", "channels": [2, 2], "factors": [1, 2]}]}],
        "data.jsonl": [{"feature_file": f"run/pool/feats_{s['id']:03d}.bin", "labels": s["labels"]} for s in samples],
        "records.jsonl": [{"id": s["id"], "labels": s["labels"]} for s in samples],
        "train.json": [docs["run.json"]["gat_train"]],
        "gat.json": [docs["run.json"]["gat"]],
    }
    for name, lines in inputs.items():
        (base / name).write_text("".join(json.dumps(line) + "\n" for line in lines))
    return base, docs


def argv_of(base, command, changed):
    """`command` over the valid run's files, with the file named changed read from `changed`."""
    run = base / "run"
    return {
        "run": ["run", "--config", changed.get("run.json", base / "run.json")],
        "infer": ["infer", "--graph", run / "graph.json", "--model", run / "ckpt",
                  "--feats", changed.get("feats", run / "pool" / "feats_000.bin")],
        "pool": ["pool", "--pyramid", run / "encode" / "sample_000", "--hierarchy", base / "anatomy.json",
                 "--mask", changed.get("mask", run / "synth" / "mask_000.bin")],
    }[command]


@st.composite
def cases(draw, base, docs):
    """(argv without --out, files to write before the command, --out), all under base / "example"
    but for the valid run's files and the blocking entries."""
    work = base / "example"
    kind = draw(st.sampled_from(["document", "container", "blocked-out"]))
    if kind == "document":
        name = draw(st.sampled_from(sorted(docs)))
        doc = mutated(docs[name], draw(st.sampled_from(list(node_paths(docs[name])))),
                      draw(VALUES | st.just(DELETE)))
        changed = {name: work / name}
        files = {work / n: json.dumps(doc if n == name else d) for n, d in docs.items()}
        if name != "run.json":  # the changed config reads the changed document
            config = dict(docs["run.json"], **{"phantom.json": {"phantom_spec": str(changed[name])},
                                              "anatomy.json": {"hierarchy": str(changed[name])}}[name])
            files[work / "run.json"] = json.dumps(config)
            changed["run.json"] = work / "run.json"
        return argv_of(base, "run", changed), files, work / "out"
    if kind == "container":
        command, source = draw(st.sampled_from([
            ("infer", base / "run" / "pool" / "feats_000.bin"),
            ("pool", base / "run" / "synth" / "mask_000.bin"),
        ]))
        data = bytearray(source.read_bytes())
        at = draw(st.integers(0, len(data) - 1))
        if draw(st.booleans()):
            del data[at:]
        else:
            data[at] ^= draw(st.integers(1, 255))
        key = "feats" if command == "infer" else "mask"
        return argv_of(base, command, {key: work / "bad.bin"}), {work / "bad.bin": bytes(data)}, work / "out"
    command = draw(st.sampled_from(["run", "infer", "pool"]))
    blocked = base / ("a_file" if command == "run" else "a_dir")  # the other kind of entry
    return argv_of(base, command, {}), {}, draw(st.sampled_from([blocked, base / "a_file" / "sub"]))


# Every subcommand with each input path valid, relative to the `valid` fixture's directory.
COMMANDS = {
    "synth": {"--spec": "phantom.json", "--count": "1"},
    "encode": {"--in": "run/synth/vol_000.bin", "--presets": "presets.json", "--preset": "tiny"},
    "pool": {"--pyramid": "run/encode/sample_000", "--mask": "run/synth/mask_000.bin",
             "--hierarchy": "anatomy.json"},
    "graph": {"--hierarchy": "anatomy.json"},
    "train": {"--manifest": "data.jsonl", "--config": "train.json", "--graph": "run/graph.json",
              "--gat-config": "gat.json", "--mode": "gat"},
    "infer": {"--graph": "run/graph.json", "--feats": "run/pool/feats_000.bin", "--model": "run/ckpt"},
    "eval": {"--pred": "records.jsonl", "--ref": "records.jsonl"},
    "run": {"--config": "run.json"},
}

INPUT_PATHS = [  # (command, input flag, another command's input file)
    ("synth", "--spec", "anatomy.json"),
    ("encode", "--in", "run/pool/feats_000.bin"),
    ("encode", "--presets", "phantom.json"),
    ("pool", "--pyramid", "run/ckpt"),
    ("pool", "--mask", "run/synth/vol_000.bin"),
    ("pool", "--hierarchy", "phantom.json"),
    ("graph", "--hierarchy", "phantom.json"),
    ("train", "--manifest", "run/synth/samples.jsonl"),
    ("train", "--config", "anatomy.json"),
    ("train", "--graph", "anatomy.json"),
    ("train", "--gat-config", "phantom.json"),
    ("infer", "--graph", "anatomy.json"),
    ("infer", "--feats", "run/synth/vol_000.bin"),
    ("infer", "--model", "run/encode/sample_000"),
    ("eval", "--pred", "data.jsonl"),
    ("eval", "--ref", "data.jsonl"),
    ("run", "--config", "phantom.json"),
]
PATH_FLAGS = {flag for _, flag, _ in INPUT_PATHS}


@pytest.mark.parametrize("kind", ["missing", "directory", "other-input"])
@pytest.mark.parametrize("command, flag, other", INPUT_PATHS, ids=[f"{c}{f}" for c, f, _ in INPUT_PATHS])
def test_an_input_path_of_the_wrong_kind_returns_2_naming_it(valid, capsys, command, flag, other, kind):
    base, _ = valid
    work = base / "paths"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    bad = {"missing": work / "missing.bin", "directory": base / "a_dir", "other-input": base / other}[kind]
    argv = [command, "--out", str(work / "out")]
    for f, value in COMMANDS[command].items():
        argv += [f, str(bad if f == flag else base / value if f in PATH_FLAGS else value)]
    capsys.readouterr()
    code = main(argv)
    lines = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("{")]
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error: ") and str(bad) in lines[0], lines
    assert not (work / "out").exists()


@given(data=st.data())
@FUZZ
def test_a_command_returns_0_with_its_output_or_2_with_one_error_line(valid, capsys, data):
    base, docs = valid
    argv, files, out = data.draw(cases(base, docs))
    shutil.rmtree(base / "example", ignore_errors=True)  # the last example's inputs and output
    (base / "example").mkdir()
    for path, content in files.items():
        (path.write_bytes if isinstance(content, bytes) else path.write_text)(content)
    capsys.readouterr()
    code = main([str(a) for a in [*argv, "--out", out]])
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if not line.startswith("{")]
    if code == 0:
        assert lines == []
        if argv[0] == "run":
            assert (out / "summary.json").exists() and not (out / "STALE").exists()
        else:
            assert out.exists()
    else:
        assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), err
    assert (base / "a_file").read_text() == "not a directory" and not any((base / "a_dir").iterdir())


PINNED = [  # (command, input file, node, value, what the error line names)
    ("synth", "phantom.json", ("regions", 1, "label"), 10**12,
     "phantom.json: region label 1000000000000 must lie in [1, 65535]"),
    ("synth", "phantom.json", ("shape",), [10**6] * 3, "phantom mask of shape (1000000, 1000000, 1000000)"),
    ("encode", "presets.json", ("presets", 0, "channels"), [2**45, 2],
     "preset 'tiny' layer 0 of 35184372088832 channels"),
]


@pytest.mark.parametrize("command, name, node, value, named", PINNED, ids=["label", "shape", "channels"])
def test_a_pinned_document_mutation_returns_2_with_one_error_line_naming_it(
    valid, capsys, command, name, node, value, named
):
    # each size is beyond the 47-bit address space, so numpy refuses it at once
    base, _ = valid
    work = base / "pinned"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    (work / name).write_text(json.dumps(mutated(json.loads((base / name).read_text()), node, value)))
    argv = [command, "--out", str(work / "out")]
    for f, v in COMMANDS[command].items():
        argv += [f, str(work / name if v == name else base / v if f in PATH_FLAGS else v)]
    capsys.readouterr()
    code = main(argv)
    lines = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("{")]
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0], lines
    assert not any(path.is_file() for path in work.glob("out/**/*"))


HEADERS = [  # (command, container, header key, a value of the wrong type)
    ("pool", "mask", "meta", 5),
    ("pool", "mask", "meta", "num_labels"),
    ("pool", "mask", "meta", ["num_labels"]),
    ("infer", "feats", "name", ["x"]),
]


@pytest.mark.parametrize("command, key, field, value", HEADERS, ids=["meta-5", "meta-str", "meta-list", "name-list"])
def test_a_container_header_field_of_the_wrong_type_returns_2_with_one_error_line_naming_it(
    valid, capsys, command, key, field, value
):
    base, _ = valid
    work = base / "header"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    line, payload = (base / COMMANDS[command][f"--{key}"]).read_bytes().split(b"\n", 1)
    header = {**json.loads(line), field: value}  # the first record's header
    (work / "bad.bin").write_bytes(json.dumps(header).encode() + b"\n" + payload)
    capsys.readouterr()
    code = main([str(a) for a in [*argv_of(base, command, {key: work / "bad.bin"}), "--out", work / "out"]])
    lines = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("{")]
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), lines
    assert str(work / "bad.bin") in lines[0] and field in lines[0], lines
    assert not (work / "out").exists()


UNKNOWN_KEYS = [  # (command, input flag, the JSON file under a directory input, node, an unknown key)
    ("synth", "--spec", None, (), "noise_sigm"),
    ("graph", "--hierarchy", None, ("fine", 0), "parnet"),
    ("infer", "--graph", None, ("nodes", 0), "levle"),
    ("encode", "--presets", None, ("presets", 0), "chanels"),
    ("pool", "--pyramid", "pyramid.json", (), "source_extent"),
]


@pytest.mark.parametrize("command, flag, inner, node, key", UNKNOWN_KEYS, ids=[c for c, *_ in UNKNOWN_KEYS])
def test_a_document_with_an_unknown_key_returns_2_with_one_error_line_naming_it(
    valid, capsys, command, flag, inner, node, key
):
    base, _ = valid
    work = base / "unknown"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    source = base / COMMANDS[command][flag]
    changed = work / source.name
    (shutil.copytree if source.is_dir() else shutil.copy)(source, changed)
    document = changed / inner if inner else changed
    document.write_text(json.dumps(mutated(json.loads(document.read_text()), (*node, key), 1)))
    argv = [command, "--out", str(work / "out")]
    for f, v in COMMANDS[command].items():
        argv += [f, str(changed if f == flag else base / v if f in PATH_FLAGS else v)]
    capsys.readouterr()
    code = main(argv)
    lines = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("{")]
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), lines
    assert str(document) in lines[0] and f"keys: ['{key}']" in lines[0], lines
    assert not (work / "out").exists()


def run_process(*argv) -> subprocess.CompletedProcess:
    """argv run by this Python, with PYTHONPATH naming the directory ctgraph was imported from."""
    env = {**os.environ, "PYTHONPATH": str(Path(ctgraph.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *map(str, argv)], capture_output=True, text=True, env=env)


def test_a_process_whose_input_is_bad_exits_2_with_one_error_line_and_no_traceback(valid, tmp_path):
    base, _ = valid
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes((base / "run" / "pool" / "feats_000.bin").read_bytes()[:-8])
    out = tmp_path / "tokens.bin"
    proc = run_process("-m", "ctgraph.cli", *argv_of(base, "infer", {"feats": truncated}), "--out", out)
    lines = [line for line in proc.stderr.splitlines() if not line.startswith("{")]
    assert proc.returncode == 2 and len(lines) == 1, proc.stderr
    assert lines[0].startswith(f"error: {truncated}: truncated payload"), lines
    assert "Traceback" not in proc.stderr and not out.exists()


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_a_paper_scale_config_of_fewer_than_one_sample_exits_2_at_parse_time(tmp_path, samples):
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_paper_scale_config.py"
    out, spec = tmp_path / "paper.json", tmp_path / "paper_phantom.json"
    proc = run_process(script, "--samples", samples, "--out", out, "--spec", spec)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert f"argument --samples: must be an integer >= 1, got {samples}" in proc.stderr
    assert "Traceback" not in proc.stderr and not out.exists() and not spec.exists()


def test_trends_of_fewer_than_one_sample_exit_2_at_parse_time(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_trends.py"
    proc = run_process(script, "--samples", "0", "--out", tmp_path / "trends.json")
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert "argument --samples: must be an integer >= 1, got 0" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "trends.json").exists()
