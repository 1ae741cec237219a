"""CLI chain: every subcommand end to end in a temp workspace, plus exit codes."""

import json
import math

import numpy as np
import pytest

from ctgraph.cli import main
from ctgraph.container import save_tensor
from ctgraph.demo import demo_phantom_spec
from ctgraph.gat import GatConfig, GatModel
from ctgraph.graph import AnatomyHierarchy, CoarseNode, FineNode, save_hierarchy
from ctgraph.heads import load_token_export, write_manifest
from ctgraph.pooling import GlobalFeatureGrid, RegionFeatureSet, load_pooled, save_pooled
from ctgraph.tensor import Tensor
from ctgraph.volume import (
    LabelMask3D,
    PathologySpec,
    PhantomSpec,
    RegionSpec,
    Volume3D,
    save_mask,
    save_phantom_spec,
    save_volume,
)


@pytest.fixture()
def workspace(tmp_path):
    spec = PhantomSpec(
        shape=(8, 8, 4),
        regions=(
            RegionSpec(1, (2.0, 2.0, 2.0), (1.5, 1.5, 1.5), 0.4),
            RegionSpec(2, (5.0, 5.0, 2.0), (1.5, 1.5, 1.5), 0.8),
        ),
        pathologies=(
            PathologySpec("a", 1, 0.9, 0.5),
            PathologySpec("b", 2, 0.9, 0.5),
        ),
        noise_sigma=0.02,
    )
    save_phantom_spec(tmp_path / "phantom.json", spec)
    hierarchy = AnatomyHierarchy(
        fine=(FineNode(1, "a", 1, 10), FineNode(2, "b", 2, 10)),
        coarse=(CoarseNode(10, "sys"),),
        global_id=20,
    )
    save_hierarchy(tmp_path / "anatomy.json", hierarchy)
    registry = {"presets": [{"name": "tiny", "channels": [2, 2], "factors": [1, 2]}]}
    (tmp_path / "presets.json").write_text(json.dumps(registry))
    return tmp_path


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


class TestSubcommandChain:
    def test_full_chain(self, workspace):
        ws = workspace
        assert run_cli(
            "synth", "--spec", ws / "phantom.json", "--count", 4, "--out", ws / "data"
        ) == 0
        assert (ws / "data" / "vol_003.bin").exists()
        samples = [
            json.loads(line)
            for line in (ws / "data" / "samples.jsonl").read_text().splitlines()
        ]
        assert len(samples) == 4

        assert run_cli(
            "encode",
            "--preset", "tiny",
            "--presets", ws / "presets.json",
            "--seed", 3,
            "--in", ws / "data" / "vol_000.bin",
            "--out", ws / "pyr0",
        ) == 0
        assert (ws / "pyr0" / "pyramid.json").exists()

        assert run_cli(
            "pool",
            "--pyramid", ws / "pyr0",
            "--mask", ws / "data" / "mask_000.bin",
            "--hierarchy", ws / "anatomy.json",
            "--out", ws / "feats_000.bin",
        ) == 0
        fine_set, coarse_set, grid = load_pooled(ws / "feats_000.bin")
        assert fine_set.num_regions == 2
        assert coarse_set.num_regions == 1

        assert run_cli(
            "graph",
            "--hierarchy", ws / "anatomy.json",
            "--topology", "hierarchical",
            "--out", ws / "graph.json",
        ) == 0

        # pool the remaining samples and train the graph classifier
        for i in range(1, 4):
            run_cli(
                "encode", "--preset", "tiny", "--presets", ws / "presets.json",
                "--seed", 3, "--in", ws / "data" / f"vol_{i:03d}.bin",
                "--out", ws / f"pyr{i}",
            )
            run_cli(
                "pool", "--pyramid", ws / f"pyr{i}",
                "--mask", ws / "data" / f"mask_{i:03d}.bin",
                "--hierarchy", ws / "anatomy.json",
                "--out", ws / f"feats_{i:03d}.bin",
            )
        write_manifest(
            ws / "data.jsonl",
            [
                {
                    "feature_file": f"feats_{i:03d}.bin",
                    "labels": samples[i]["labels"],
                    "split": "train",
                }
                for i in range(4)
            ],
        )
        (ws / "train.json").write_text(
            json.dumps({"mode": "gat", "epochs": 2, "lr": 0.001, "batch_size": 4})
        )
        (ws / "gat.json").write_text(
            json.dumps({"d_h": 8, "n_heads": 2, "export_dim": 4})
        )
        assert run_cli(
            "train",
            "--mode", "gat",
            "--manifest", ws / "data.jsonl",
            "--config", ws / "train.json",
            "--graph", ws / "graph.json",
            "--gat-config", ws / "gat.json",
            "--out", ws / "ckpt",
        ) == 0
        assert (ws / "ckpt" / "config.json").exists()

        assert run_cli(
            "infer",
            "--graph", ws / "graph.json",
            "--feats", ws / "feats_000.bin",
            "--model", ws / "ckpt",
            "--out", ws / "tokens.bin",
        ) == 0
        export = load_token_export(ws / "tokens.bin")
        assert export.tokens.shape == (4, 4)  # global + 1 coarse + 2 fine

    def test_synth_idempotent(self, workspace):
        ws = workspace
        for _ in range(2):
            assert run_cli(
                "synth", "--spec", ws / "phantom.json", "--count", 2, "--out", ws / "d"
            ) == 0
        first = (ws / "d" / "vol_000.bin").read_bytes()
        assert run_cli(
            "synth", "--spec", ws / "phantom.json", "--count", 2, "--out", ws / "d"
        ) == 0
        assert (ws / "d" / "vol_000.bin").read_bytes() == first

    def test_eval_ce_and_nlg(self, workspace):
        ws = workspace
        pred = [
            {"id": 0, "labels": [1, 0], "text": "lungs are clear"},
            {"id": 1, "labels": [0, 1], "text": "a small nodule"},
        ]
        ref = [
            {"id": 0, "labels": [1, 0], "text": "lungs are clear"},
            {"id": 1, "labels": [1, 1], "text": "a tiny nodule"},
        ]
        for name, rows in (("pred.jsonl", pred), ("ref.jsonl", ref)):
            with open(ws / name, "w") as fh:
                for row in rows:
                    fh.write(json.dumps(row) + "\n")
        assert run_cli(
            "eval",
            "--pred", ws / "pred.jsonl",
            "--ref", ws / "ref.jsonl",
            "--metrics", "ce,nlg",
            "--out", ws / "report.json",
        ) == 0
        report = json.loads((ws / "report.json").read_text())
        assert 0.0 <= report["ce"]["f1"] <= 1.0
        assert 0.0 <= report["nlg"]["bleu_1"] <= 1.0
        assert 0.0 <= report["nlg"]["rouge_l"] <= 1.0

    def test_graph_takes_the_single_level_tag(self, workspace):
        ws = workspace
        assert run_cli(
            "graph", "--hierarchy", ws / "anatomy.json", "--topology", "single-level",
            "--out", ws / "g.json",
        ) == 0
        graph = json.loads((ws / "g.json").read_text())
        assert graph["topology"] == "single-level"
        assert [level["level"] for level in graph["nodes"]] == ["fine", "fine", "global"]


class TestExitCodes:
    def test_missing_hierarchy_exits_2_naming_path(self, workspace, capsys):
        ws = workspace
        code = run_cli(
            "pool",
            "--pyramid", ws / "nowhere",
            "--mask", ws / "nothing.bin",
            "--hierarchy", ws / "missing_anatomy.json",
            "--out", ws / "out.bin",
        )
        assert code == 2

    def test_run_with_missing_hierarchy_file(self, workspace, capsys):
        ws = workspace
        config = {
            "seed": 1,
            "out_dir": str(ws / "out"),
            "hierarchy": str(ws / "missing_anatomy.json"),
        }
        (ws / "run.json").write_text(json.dumps(config))
        code = run_cli("run", "--config", ws / "run.json")
        assert code == 2
        assert "missing_anatomy.json" in capsys.readouterr().err

    def test_train_on_non_finite_features_exits_2_naming_the_file(self, workspace, capsys):
        ws = workspace
        rng = np.random.default_rng(0)
        for i in range(4):
            rows = rng.standard_normal((2, 2))
            rows[0, 0] = np.inf if i == 2 else rows[0, 0]
            fine = RegionFeatureSet(
                [1, 2], [Tensor(rows)], Tensor(rows), np.ones((2, 1), np.int64), np.ones(2, bool)
            )
            coarse = RegionFeatureSet(
                [10], [Tensor(np.ones((1, 2)))], Tensor(np.ones((1, 2))),
                np.ones((1, 1), np.int64), np.ones(1, bool),
            )
            grid = GlobalFeatureGrid(Tensor(np.zeros((4, 4, 2, 2))))
            save_pooled(ws / f"f{i}.bin", fine, coarse, grid)
        records = [{"feature_file": f"f{i}.bin", "labels": [i % 2, 1]} for i in range(4)]
        write_manifest(ws / "data.jsonl", records)
        code = run_cli(
            "train", "--mode", "probe", "--manifest", ws / "data.jsonl", "--out", ws / "probe"
        )
        assert code == 2
        assert "f2.bin" in capsys.readouterr().err
        assert not (ws / "probe" / "probe.bin").exists()

    def test_infer_on_a_nan_pooled_entry_exits_2_naming_the_file(self, workspace, capsys):
        ws = workspace
        rows = np.ones((2, 2))
        rows[1, 0] = np.nan
        fine = RegionFeatureSet(
            [1, 2], [Tensor(rows)], Tensor(rows), np.ones((2, 1), np.int64), np.ones(2, bool)
        )
        coarse = RegionFeatureSet(
            [10], [Tensor(np.ones((1, 2)))], Tensor(np.ones((1, 2))),
            np.ones((1, 1), np.int64), np.ones(1, bool),
        )
        save_pooled(ws / "nan.bin", fine, coarse, GlobalFeatureGrid(Tensor(np.zeros((4, 4, 2, 2)))))
        GatModel.init(GatConfig(c_total=2, c_last=2, d_h=4, n_heads=2, export_dim=4)).save(ws / "ckpt")
        assert run_cli(
            "graph", "--hierarchy", ws / "anatomy.json", "--out", ws / "graph.json"
        ) == 0
        code = run_cli(
            "infer", "--graph", ws / "graph.json", "--feats", ws / "nan.bin",
            "--model", ws / "ckpt", "--out", ws / "tokens.bin",
        )
        assert code == 2
        assert "nan.bin" in capsys.readouterr().err
        assert not (ws / "tokens.bin").exists()

    def test_train_gat_without_graph_exits_2_naming_flag(self, workspace, capsys):
        ws = workspace
        write_manifest(ws / "data.jsonl", [{"feature_file": "f.bin", "labels": [0, 1]}])
        code = run_cli(
            "train", "--mode", "gat", "--manifest", ws / "data.jsonl", "--out", ws / "ckpt"
        )
        assert code == 2
        assert "--graph" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad_line",
        ['{"labels": [1, 0]}', "not json", "[1, 0]", '{"id": 1, "text": 5}',
         '{"id": 0, "labels": [0, 0]}', '{"id": "0", "labels": [0, 0]}'],
        ids=["no-id", "not-json", "list", "number-text", "repeated-id", "repeated-id-text"],
    )
    def test_eval_bad_record_exits_2_naming_line(self, workspace, capsys, bad_line):
        ws = workspace
        (ws / "ref.jsonl").write_text('{"id": 0, "labels": [1, 0]}\n')
        (ws / "pred.jsonl").write_text('{"id": 0, "labels": [1, 0]}\n' + bad_line + "\n")
        code = run_cli(
            "eval", "--pred", ws / "pred.jsonl", "--ref", ws / "ref.jsonl", "--out", ws / "r.json"
        )
        assert code == 2
        assert "pred.jsonl:2" in capsys.readouterr().err

    @pytest.mark.parametrize("labels", [["a", 0], [2, 0], [0.5, 1]], ids=["string", "two", "half"])
    def test_eval_ce_with_bad_labels_exits_2_naming_line(self, workspace, capsys, labels):
        ws = workspace
        (ws / "ref.jsonl").write_text('{"id": 1, "labels": [1, 0]}\n')
        (ws / "pred.jsonl").write_text(json.dumps({"id": 1, "labels": labels}) + "\n")
        code = run_cli(
            "eval", "--metrics", "ce", "--pred", ws / "pred.jsonl", "--ref", ws / "ref.jsonl",
            "--out", ws / "r.json",
        )
        assert code == 2
        assert "pred.jsonl:1" in capsys.readouterr().err
        assert not (ws / "r.json").exists()

    @pytest.mark.parametrize("metrics", ["bogus", "ce,bleu", ","])
    def test_eval_unknown_metric_exits_2_listing_the_known_ones(self, workspace, capsys, metrics):
        ws = workspace
        (ws / "ref.jsonl").write_text('{"id": 1, "labels": [1, 0]}\n')
        (ws / "pred.jsonl").write_text('{"id": 1, "labels": [1, 0]}\n')
        code = run_cli(
            "eval", "--metrics", metrics, "--pred", ws / "pred.jsonl", "--ref", ws / "ref.jsonl",
            "--out", ws / "r.json",
        )
        assert code == 2
        assert "['ce', 'nlg']" in capsys.readouterr().err
        assert not (ws / "r.json").exists()

    def test_eval_ce_with_more_labels_than_the_reference_exits_2(self, workspace, capsys):
        ws = workspace
        (ws / "ref.jsonl").write_text('{"id": 1, "labels": [1, 0]}\n')
        (ws / "pred.jsonl").write_text('{"id": 1, "labels": [1, 0, 1]}\n')
        code = run_cli(
            "eval", "--metrics", "ce", "--pred", ws / "pred.jsonl", "--ref", ws / "ref.jsonl",
            "--out", ws / "r.json",
        )
        assert code == 2
        assert "3 predicted labels but 2 reference labels" in capsys.readouterr().err
        assert not (ws / "r.json").exists()

    @pytest.mark.parametrize(
        "gat",
        [{"slope": 1.5}, {"slope": 0.0}, {"slope": -0.2}, {"ln_eps": 0.0}, {"ln_eps": -1e-6},
         {"ln_eps": True}, {"slope": "0.2"}],
        ids=["slope-1.5", "slope-0", "slope-negative", "ln_eps-0", "ln_eps-negative", "ln_eps-bool",
             "slope-string"],
    )
    def test_run_out_of_range_gat_value_exits_2_before_synth(self, workspace, capsys, gat):
        ws = workspace
        config = {"seed": 1, "out_dir": str(ws / "out"), "num_samples": 2, "gat": gat}
        (ws / "run.json").write_text(json.dumps(config))
        assert run_cli("run", "--config", ws / "run.json") == 2
        assert next(iter(gat)) in capsys.readouterr().err
        assert not (ws / "out" / "synth").exists()

    @pytest.mark.parametrize(
        "gat, key",
        [({"d_h": 0}, "d_h"), ({"n_heads": True}, "n_heads"), ({"export_dim": True}, "export_dim"),
         ({"mlp_hidden": [True]}, "mlp_hidden"), ({"mlp_hidden": [8, 0]}, "mlp_hidden")],
        ids=["zero-d_h", "bool-heads", "bool-export", "bool-hidden", "zero-hidden"],
    )
    def test_run_bad_gat_size_exits_2_naming_the_key(self, workspace, capsys, gat, key):
        ws = workspace
        config = {"seed": 1, "out_dir": str(ws / "out"), "num_samples": 2, "gat": gat}
        (ws / "run.json").write_text(json.dumps(config))
        assert run_cli("run", "--config", ws / "run.json") == 2
        err = capsys.readouterr().err
        assert f"gat config '{key}'" in err and "c_total" not in err
        assert not (ws / "out" / "synth").exists()

    def test_run_unknown_gat_key_exits_2_before_synth(self, workspace, capsys):
        ws = workspace
        config = {"seed": 1, "out_dir": str(ws / "out"), "num_samples": 2, "gat": {"heads": 2}}
        (ws / "run.json").write_text(json.dumps(config))
        assert run_cli("run", "--config", ws / "run.json") == 2
        assert "heads" in capsys.readouterr().err
        assert not (ws / "out" / "synth").exists()

    def test_train_unknown_gat_key_exits_2(self, workspace, capsys):
        ws = workspace
        write_manifest(ws / "data.jsonl", [{"feature_file": "f.bin", "labels": [0, 1]}])
        (ws / "gat.json").write_text(json.dumps({"d_h": 8, "heads": 2}))
        code = run_cli(
            "train", "--mode", "gat", "--manifest", ws / "data.jsonl", "--graph", ws / "g.json",
            "--gat-config", ws / "gat.json", "--out", ws / "ckpt",
        )
        assert code == 2
        assert "heads" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "train"])
    def test_malformed_json_config_exits_2_naming_path(self, workspace, capsys, command):
        ws = workspace
        (ws / "bad.json").write_text("{not json")
        write_manifest(ws / "data.jsonl", [{"feature_file": "f.bin", "labels": [0, 1]}])
        argv = {
            "run": ["run", "--config", ws / "bad.json"],
            "train": [
                "train", "--mode", "probe", "--manifest", ws / "data.jsonl",
                "--config", ws / "bad.json", "--out", ws / "probe",
            ],
        }[command]
        assert run_cli(*argv) == 2
        assert "bad.json" in capsys.readouterr().err

    def test_train_config_naming_the_other_head_exits_2(self, workspace, capsys):
        ws = workspace
        write_manifest(ws / "data.jsonl", [{"feature_file": "f.bin", "labels": [0, 1]}])
        (ws / "train.json").write_text(json.dumps({"mode": "gat", "epochs": 1}))
        code = run_cli(
            "train", "--mode", "probe", "--manifest", ws / "data.jsonl",
            "--config", ws / "train.json", "--out", ws / "probe",
        )
        assert code == 2
        assert "mode 'gat'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "train_section",
        [
            {"probe": {"epoch": 1}}, {"gat_train": {"mode": "probe"}}, {"probe": [1]},
            {"probe": {"epochs": "2"}}, {"gat_train": {"lr": "fast"}},
            {"gat_train": {"batch_size": 0}}, {"probe": {"val_fraction": 1.5}},
            {"probe": {"epochs": True}}, {"gat_train": {"mode": "gat", "lr": math.nan}},
            {"gat_train": {"lr": 0.0}}, {"probe": {"weight_decay": math.inf}},
            {"gat_train": {"threshold": 2.0}},
        ],
        ids=[
            "unknown-key", "other-head", "not-an-object", "string-epochs", "string-lr",
            "zero-batch", "val-fraction-above-1", "bool-epochs", "nan-lr", "zero-lr",
            "infinite-weight-decay", "threshold-above-1",
        ],
    )
    def test_run_bad_train_config_exits_2_before_synth(self, workspace, capsys, train_section):
        ws = workspace
        config = {"seed": 1, "out_dir": str(ws / "out"), "num_samples": 2, **train_section}
        (ws / "run.json").write_text(json.dumps(config))
        assert run_cli("run", "--config", ws / "run.json") == 2
        assert "train config" in capsys.readouterr().err
        for left in ("synth", "encode", "pool", "graph.json", "STALE"):
            assert not (ws / "out" / left).exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("num_samples", "3"), ("num_samples", 0), ("seed", "7"), ("seed", False),
            ("topology", "bogus"), ("topology", "single"), ("probe_granularity", "voxel"),
            ("out_dir", 5), ("phantom_spec", 1), ("phantom_spec", 0), ("hierarchy", 5),
            ("hierarchy", False), ("preset", ["demo"]), ("preset", None),
            ("phantom_spec", ""), ("hierarchy", ""), ("out_dir", ""),
        ],
    )
    def test_run_bad_pipeline_value_exits_2_before_synth(
        self, workspace, capsys, monkeypatch, key, value
    ):
        ws = workspace
        monkeypatch.chdir(ws)  # an out_dir of 5 would be the directory "5"
        config = {"seed": 1, "out_dir": "out", "num_samples": 2, key: value}
        (ws / "run.json").write_text(json.dumps(config))
        assert run_cli("run", "--config", ws / "run.json") == 2
        assert f"pipeline config '{key}'" in capsys.readouterr().err
        assert sorted(p.name for p in ws.iterdir()) == [
            "anatomy.json", "phantom.json", "presets.json", "run.json"
        ]

    @pytest.mark.parametrize(
        "case",
        [
            "graph-hierarchy", "infer-graph", "synth-spec", "encode-presets",
            "encode-preset-without-name", "pool-index-without-layers", "infer-unknown-config-key",
        ],
    )
    def test_malformed_json_input_exits_2_naming_file(self, workspace, capsys, case):
        ws = workspace
        (ws / "bad.json").write_text("{not json")
        nameless = {"presets": [{"channels": [2], "factors": [1]}]}
        (ws / "noname.json").write_text(json.dumps(nameless))
        (ws / "pyr").mkdir()
        (ws / "pyr" / "pyramid.json").write_text(json.dumps({"channels": [2]}))
        if case == "infer-unknown-config-key":
            assert run_cli("graph", "--hierarchy", ws / "anatomy.json", "--out", ws / "g.json") == 0
            assert run_cli(
                "synth", "--spec", ws / "phantom.json", "--count", 1, "--out", ws / "d"
            ) == 0
            assert run_cli(
                "encode", "--preset", "tiny", "--presets", ws / "presets.json",
                "--in", ws / "d" / "vol_000.bin", "--out", ws / "p0",
            ) == 0
            assert run_cli(
                "pool", "--pyramid", ws / "p0", "--mask", ws / "d" / "mask_000.bin",
                "--hierarchy", ws / "anatomy.json", "--out", ws / "f.bin",
            ) == 0
            (ws / "ckpt").mkdir()
            (ws / "ckpt" / "config.json").write_text(
                json.dumps({"c_total": 4, "c_last": 2, "d_h": 8, "n_heads": 2, "heads": 2})
            )
        argv, named = {
            "graph-hierarchy": (
                ["graph", "--hierarchy", ws / "bad.json", "--out", ws / "g"], "bad.json"
            ),
            "infer-graph": (
                ["infer", "--graph", ws / "bad.json", "--feats", ws / "f.bin", "--model", ws / "m",
                 "--out", ws / "t.bin"],
                "bad.json",
            ),
            "synth-spec": (["synth", "--spec", ws / "bad.json", "--out", ws / "d"], "bad.json"),
            "encode-presets": (
                ["encode", "--preset", "tiny", "--presets", ws / "bad.json", "--in", ws / "v.bin",
                 "--out", ws / "p"],
                "bad.json",
            ),
            "encode-preset-without-name": (
                ["encode", "--preset", "tiny", "--presets", ws / "noname.json",
                 "--in", ws / "v.bin", "--out", ws / "p"],
                "noname.json",
            ),
            "pool-index-without-layers": (
                ["pool", "--pyramid", ws / "pyr", "--mask", ws / "m.bin", "--out", ws / "f"],
                "pyramid.json",
            ),
            "infer-unknown-config-key": (
                ["infer", "--graph", ws / "g.json", "--feats", ws / "f.bin", "--model", ws / "ckpt",
                 "--out", ws / "t.bin"],
                "config.json",
            ),
        }[case]
        assert run_cli(*argv) == 2
        assert named in capsys.readouterr().err

    def test_infer_on_a_volume_container_exits_2_naming_it(self, workspace, capsys):
        ws = workspace
        assert run_cli("graph", "--hierarchy", ws / "anatomy.json", "--out", ws / "g.json") == 0
        assert run_cli("synth", "--spec", ws / "phantom.json", "--count", 1, "--out", ws / "d") == 0
        code = run_cli(
            "infer", "--graph", ws / "g.json", "--feats", ws / "d" / "vol_000.bin",
            "--model", ws / "ckpt", "--out", ws / "t.bin",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "vol_000.bin" in err and "fine_ids" in err  # the first missing record

    @pytest.mark.parametrize(
        "field, value",
        [
            ("radii", float("nan")), ("radii", -1.5), ("radii", float("inf")),
            ("center", float("nan")), ("radius", float("nan")), ("radius", -2.0),
        ],
    )
    def test_synth_spec_with_bad_geometry_exits_2(self, workspace, capsys, field, value):
        ws = workspace
        doc = json.loads((ws / "phantom.json").read_text())
        if field == "radius":
            doc["pathologies"][0]["radius"] = value
        else:
            doc["regions"][0][field][1] = value
        (ws / "bad_spec.json").write_text(json.dumps(doc))  # NaN and Infinity as bare tokens
        assert run_cli("synth", "--spec", ws / "bad_spec.json", "--out", ws / "d") == 2
        assert "bad_spec.json" in capsys.readouterr().err
        assert not (ws / "d").exists()

    @pytest.mark.parametrize("shape", [[8, 8], [8, 8, 4, 2], [8, 0, 4]], ids=["2-d", "4-d", "zero"])
    def test_synth_spec_with_bad_shape_exits_2(self, workspace, capsys, shape):
        ws = workspace
        doc = json.loads((ws / "phantom.json").read_text())
        doc["shape"] = shape
        (ws / "bad_spec.json").write_text(json.dumps(doc))
        assert run_cli("synth", "--spec", ws / "bad_spec.json", "--out", ws / "d") == 2
        assert "bad_spec.json" in capsys.readouterr().err
        assert not (ws / "d").exists()

    @pytest.mark.parametrize(
        "labels",
        [[0], [0, 1, 1], [0, 2], [0.5, 1], ["a", 0], [True, False], "01", None],
        ids=["short", "long", "two", "half", "string", "bool", "not-a-list", "null"],
    )
    def test_train_manifest_with_bad_labels_exits_2_naming_line(self, workspace, capsys, labels):
        ws = workspace
        records = [
            {"feature_file": "f0.bin", "labels": [1, 0]},
            {"feature_file": "f1.bin", "labels": labels},
        ]
        write_manifest(ws / "data.jsonl", records)
        code = run_cli(
            "train", "--mode", "probe", "--manifest", ws / "data.jsonl", "--out", ws / "probe"
        )
        assert code == 2
        assert "data.jsonl:2" in capsys.readouterr().err

    @pytest.mark.parametrize("feature_file", [5, None, ["f0.bin"]], ids=["int", "null", "list"])
    def test_train_manifest_with_a_non_string_feature_file_exits_2_naming_line(
        self, workspace, capsys, feature_file
    ):
        ws = workspace
        records = [
            {"feature_file": feature_file, "labels": [1, 0]},
            {"feature_file": "f1.bin", "labels": [0, 1]},
        ]
        write_manifest(ws / "data.jsonl", records)
        code = run_cli(
            "train", "--mode", "probe", "--manifest", ws / "data.jsonl", "--out", ws / "probe"
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "data.jsonl:1" in err and "feature_file" in err
        assert not (ws / "probe").exists()

    def _encode_first_scan(self, ws):
        assert run_cli("synth", "--spec", ws / "phantom.json", "--count", 1, "--out", ws / "d") == 0
        assert run_cli(
            "encode", "--preset", "tiny", "--presets", ws / "presets.json",
            "--in", ws / "d" / "vol_000.bin", "--out", ws / "p0",
        ) == 0

    @pytest.mark.parametrize("extents", [(4, 4, 2), (16, 16, 8), (8, 8, 8)])
    def test_pool_with_a_mask_of_other_extents_exits_2(self, workspace, capsys, extents):
        ws = workspace
        self._encode_first_scan(ws)
        save_mask(ws / "other.bin", LabelMask3D(np.ones(extents, dtype=np.int32), 2))
        code = run_cli(
            "pool", "--pyramid", ws / "p0", "--mask", ws / "other.bin",
            "--hierarchy", ws / "anatomy.json", "--out", ws / "f.bin",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(extents) in err and "(8, 8, 4)" in err
        assert not (ws / "f.bin").exists()

    def test_pool_with_a_non_integer_mask_header_exits_2_naming_it(self, workspace, capsys):
        ws = workspace
        self._encode_first_scan(ws)
        save_tensor(ws / "bad_mask.bin", np.ones((8, 8, 4), dtype=np.int32), name="mask",
                    meta={"num_labels": "x"})
        code = run_cli(
            "pool", "--pyramid", ws / "p0", "--mask", ws / "bad_mask.bin",
            "--hierarchy", ws / "anatomy.json", "--out", ws / "f.bin",
        )
        assert code == 2
        assert "bad_mask.bin" in capsys.readouterr().err
        assert not (ws / "f.bin").exists()

    @pytest.mark.parametrize("case", ["mask-header", "fine-label", "coarse-label"])
    def test_pool_with_a_label_beyond_the_uint16_range_exits_2_naming_the_file(
        self, workspace, capsys, case
    ):
        ws = workspace
        self._encode_first_scan(ws)
        mask, anatomy = ws / "d" / "mask_000.bin", ws / "anatomy.json"
        if case == "mask-header":
            mask = bad = ws / "bad_mask.bin"
            save_tensor(mask, np.ones((8, 8, 4), dtype=np.int32), name="mask",
                        meta={"num_labels": 2**40})
        else:
            doc = json.loads(anatomy.read_text())
            if case == "fine-label":
                doc["fine"][0]["label"] = 2**40
            else:
                doc["coarse"].append({"id": 12, "name": "own", "label": 2**40})
            anatomy = bad = ws / "bad_anatomy.json"
            anatomy.write_text(json.dumps(doc))
        code = run_cli(
            "pool", "--pyramid", ws / "p0", "--mask", mask, "--hierarchy", anatomy,
            "--out", ws / "f.bin",
        )
        assert code == 2
        assert bad.name in capsys.readouterr().err
        assert not (ws / "f.bin").exists()

    def test_pool_of_a_pyramid_index_without_source_extents_takes_any_mask(self, workspace):
        ws = workspace
        self._encode_first_scan(ws)
        index = json.loads((ws / "p0" / "pyramid.json").read_text())
        assert index.pop("source_extents") == [8, 8, 4]
        (ws / "p0" / "pyramid.json").write_text(json.dumps(index))
        save_mask(ws / "other.bin", LabelMask3D(np.ones((16, 16, 8), dtype=np.int32), 2))
        assert run_cli(
            "pool", "--pyramid", ws / "p0", "--mask", ws / "other.bin",
            "--hierarchy", ws / "anatomy.json", "--out", ws / "f.bin",
        ) == 0

    @pytest.mark.parametrize(
        "field, value", [("channels", [8.9, 2]), ("channels", [2, True]), ("factors", [1, 2.7])]
    )
    def test_encode_with_a_non_integer_preset_entry_exits_2_naming_it(
        self, workspace, capsys, field, value
    ):
        ws = workspace
        assert run_cli("synth", "--spec", ws / "phantom.json", "--count", 1, "--out", ws / "d") == 0
        registry = json.loads((ws / "presets.json").read_text())
        registry["presets"][0][field] = value
        (ws / "bad_presets.json").write_text(json.dumps(registry))
        code = run_cli(
            "encode", "--preset", "tiny", "--presets", ws / "bad_presets.json",
            "--in", ws / "d" / "vol_000.bin", "--out", ws / "p0",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "bad_presets.json" in err and field in err and "must be an integer" in err
        assert not (ws / "p0").exists()

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("source_extents", [8.9, 8, 4], "must be an integer"),
            ("source_extents", [8, True, 4], "must be an integer"),
            ("channels", [2, 2.0], "must be an integer"),
            ("channels", [2, 3], "channels [2, 3] do not match"),
            ("channels", [2], "channels [2] do not match"),
        ],
    )
    def test_pool_of_a_bad_pyramid_index_exits_2_naming_it(
        self, workspace, capsys, key, value, named
    ):
        ws = workspace
        self._encode_first_scan(ws)
        index = json.loads((ws / "p0" / "pyramid.json").read_text())
        assert index["channels"] == [2, 2]
        index[key] = value
        (ws / "p0" / "pyramid.json").write_text(json.dumps(index))
        code = run_cli(
            "pool", "--pyramid", ws / "p0", "--mask", ws / "d" / "mask_000.bin",
            "--hierarchy", ws / "anatomy.json", "--out", ws / "f.bin",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "pyramid.json" in err and key in err and named in err
        assert not (ws / "f.bin").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_undecodable_manifest_exits_2_naming_it(self, workspace, capsys, command):
        ws = workspace
        (ws / "binary.jsonl").write_bytes(b'\xff\xfe{"id": 0}\n')
        argv = {
            "train": ["train", "--mode", "probe", "--manifest", ws / "binary.jsonl",
                      "--out", ws / "probe"],
            "eval": ["eval", "--pred", ws / "binary.jsonl", "--ref", ws / "binary.jsonl",
                     "--out", ws / "report.json"],
        }[command]
        assert run_cli(*argv) == 2
        assert "binary.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case, value, what",
        [
            ("pathology", None, "pathology name"), ("pathology", 5, "pathology name"),
            ("fine", 5, "fine name"), ("coarse", None, "coarse name"), ("preset", 7, "preset name"),
        ],
    )
    def test_non_string_name_exits_2_naming_the_field(self, workspace, capsys, case, value, what):
        ws = workspace
        if case == "preset":  # a scan to encode
            assert run_cli("synth", "--spec", ws / "phantom.json", "--count", 1, "--out", ws / "d") == 0
        file = {"pathology": "phantom.json", "preset": "presets.json"}.get(case, "anatomy.json")
        doc = json.loads((ws / file).read_text())
        doc[{"pathology": "pathologies", "preset": "presets"}.get(case, case)][0]["name"] = value
        (ws / file).write_text(json.dumps(doc))
        argv = {
            "pathology": ["synth", "--spec", ws / file, "--count", 1, "--out", ws / "out"],
            "preset": ["encode", "--preset", value, "--presets", ws / file,
                       "--in", ws / "d" / "vol_000.bin", "--out", ws / "out"],
        }.get(case, ["graph", "--hierarchy", ws / file, "--out", ws / "out"])
        assert run_cli(*argv) == 2
        assert f"{file}: {what} must be a string, got {value!r}" in capsys.readouterr().err
        assert not (ws / "out").exists()

    @pytest.mark.parametrize("command", ["graph", "pool"])
    def test_empty_hierarchy_path_exits_2(self, workspace, capsys, command):
        ws = workspace
        argv = ["graph", "--hierarchy", "", "--out", ws / "out"]
        if command == "pool":
            self._encode_first_scan(ws)
            argv = ["pool", "--pyramid", ws / "p0", "--mask", ws / "d" / "mask_000.bin",
                    "--hierarchy", "", "--out", ws / "out"]
        assert run_cli(*argv) == 2
        assert "hierarchy  cannot be read" in capsys.readouterr().err
        assert not (ws / "out").exists()

    @pytest.mark.parametrize("command", ["graph", "pool", "run"])
    def test_hierarchy_without_a_mask_label_exits_2_before_writing(self, workspace, capsys, command):
        ws = workspace
        (ws / "empty.json").write_text(json.dumps({"fine": [], "coarse": []}))
        argv = ["graph", "--hierarchy", ws / "empty.json", "--out", ws / "out"]
        if command == "pool":
            self._encode_first_scan(ws)
            argv = ["pool", "--pyramid", ws / "p0", "--mask", ws / "d" / "mask_000.bin",
                    "--hierarchy", ws / "empty.json", "--out", ws / "out"]
        elif command == "run":
            config = {"seed": 1, "out_dir": str(ws / "out"), "num_samples": 2,
                      "hierarchy": str(ws / "empty.json")}
            (ws / "run.json").write_text(json.dumps(config))
            argv = ["run", "--config", ws / "run.json"]
        assert run_cli(*argv) == 2
        assert "empty.json: a hierarchy needs at least one mask label" in capsys.readouterr().err
        assert not (ws / "out").exists()

    def test_probe_train_on_pooled_files_of_mixed_widths_exits_2_naming_the_sample(
        self, workspace, capsys
    ):
        ws = workspace
        grid = GlobalFeatureGrid(Tensor(np.zeros((4, 4, 2, 2))))
        for i, channels in enumerate((2, 2, 3, 2)):  # sample 2 has a wider encoder
            rows = np.ones((2, channels))
            fine = RegionFeatureSet(
                [1, 2], [Tensor(rows)], Tensor(rows), np.ones((2, 1), np.int64), np.ones(2, bool)
            )
            coarse = RegionFeatureSet(
                [10], [Tensor(rows[:1])], Tensor(rows[:1]), np.ones((1, 1), np.int64), np.ones(1, bool)
            )
            save_pooled(ws / f"f{i}.bin", fine, coarse, grid)
        records = [{"feature_file": f"f{i}.bin", "labels": [1, 0]} for i in range(4)]
        write_manifest(ws / "data.jsonl", records)
        code = run_cli(
            "train", "--mode", "probe", "--manifest", ws / "data.jsonl", "--out", ws / "probe"
        )
        assert code == 2
        assert "sample 2 gives 6 probe features, sample 0 gives 4" in capsys.readouterr().err
        assert not (ws / "probe").exists()

    def test_unknown_preset_exits_2(self, workspace):
        ws = workspace
        run_cli("synth", "--spec", ws / "phantom.json", "--count", 1, "--out", ws / "d")
        code = run_cli(
            "encode", "--preset", "nope", "--in", ws / "d" / "vol_000.bin",
            "--out", ws / "p",
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["synth", "encode", "graph"])
    def test_negative_seed_exits_2_at_parse_time_naming_the_flag(self, workspace, capsys, command):
        ws = workspace
        argv = {
            "synth": ["synth", "--spec", ws / "phantom.json", "--seed", -1, "--out", ws / "d"],
            "encode": [
                "encode", "--preset", "tiny", "--presets", ws / "presets.json", "--seed", -3,
                "--in", ws / "v.bin", "--out", ws / "p",
            ],
            "graph": [
                "graph", "--hierarchy", ws / "anatomy.json", "--topology", "random",
                "--seed", -3, "--out", ws / "g.json",
            ],
        }[command]
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv)
        assert exit_info.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not any((ws / name).exists() for name in ("d", "p", "g.json"))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("noise_sigma", math.nan), ("noise_sigma", -1.0), ("noise_sigma", math.inf),
            ("intensity_jitter", math.nan), ("intensity_jitter", -1.0),
            ("intensity_jitter", math.inf), ("intensity", math.nan), ("intensity", math.inf),
            ("delta", math.nan), ("delta", -math.inf),
        ],
    )
    def test_synth_spec_with_a_bad_number_exits_2_naming_the_field(
        self, workspace, capsys, field, value
    ):
        ws = workspace
        doc = json.loads((ws / "phantom.json").read_text())
        if field == "intensity":
            doc["regions"][1][field] = value
        elif field == "delta":
            doc["pathologies"][0][field] = value
        else:
            doc[field] = value
        (ws / "bad_spec.json").write_text(json.dumps(doc))  # NaN and Infinity as bare tokens
        assert run_cli("synth", "--spec", ws / "bad_spec.json", "--out", ws / "d") == 2
        err = capsys.readouterr().err
        assert "bad_spec.json" in err and field in err
        assert not (ws / "d").exists()

    @pytest.mark.parametrize(
        "field, value",
        [("intensity", "0.5"), ("noise_sigma", True), ("prevalence", "1"), ("center", "4"),
         ("center", True), ("radii", None), ("delta", [0.9]), ("radius", "2"),
         ("intensity_jitter", False)],
    )
    def test_synth_spec_with_a_non_number_float_field_exits_2_naming_it(
        self, workspace, capsys, field, value
    ):
        ws = workspace
        doc = json.loads((ws / "phantom.json").read_text())
        if field in ("center", "radii"):
            doc["regions"][0][field][0] = value
        elif field == "intensity":
            doc["regions"][1][field] = value
        elif field in ("prevalence", "delta", "radius"):
            doc["pathologies"][0][field] = value
        else:
            doc[field] = value
        (ws / "bad_spec.json").write_text(json.dumps(doc))
        assert run_cli("synth", "--spec", ws / "bad_spec.json", "--out", ws / "d") == 2
        err = capsys.readouterr().err
        assert "bad_spec.json" in err and field in err and "must be a number" in err
        assert not (ws / "d").exists()

    def test_run_with_an_infinite_jitter_exits_2_before_synth(self, workspace, capsys):
        ws = workspace
        doc = json.loads((ws / "phantom.json").read_text())
        doc["intensity_jitter"] = math.inf
        (ws / "bad_spec.json").write_text(json.dumps(doc))
        config = {
            "seed": 1, "out_dir": str(ws / "out"), "num_samples": 2,
            "phantom_spec": str(ws / "bad_spec.json"),
        }
        (ws / "run.json").write_text(json.dumps(config))
        assert run_cli("run", "--config", ws / "run.json") == 2
        assert "intensity_jitter" in capsys.readouterr().err
        assert not (ws / "out" / "synth").exists()

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 1.5), ("seed", True), ("shape", 8.0), ("label", 1.7), ("label", True),
         ("host_label", 2.5), ("host_label", 1.0)],
    )
    def test_synth_spec_with_a_non_integer_integer_field_exits_2_naming_it(
        self, workspace, capsys, field, value
    ):
        ws = workspace
        doc = json.loads((ws / "phantom.json").read_text())
        if field == "shape":
            doc["shape"][0] = value
        elif field == "label":
            doc["regions"][0]["label"] = value
        elif field == "host_label":
            doc["pathologies"][0]["host_label"] = value
        else:
            doc["seed"] = value
        (ws / "bad_spec.json").write_text(json.dumps(doc))
        assert run_cli("synth", "--spec", ws / "bad_spec.json", "--out", ws / "d") == 2
        err = capsys.readouterr().err
        assert "bad_spec.json" in err and field in err and "must be an integer" in err
        assert not (ws / "d").exists()

    def test_run_with_a_fractional_region_label_exits_2_before_synth(self, workspace, capsys):
        ws = workspace
        doc = json.loads((ws / "phantom.json").read_text())
        doc["regions"][1]["label"] = 2.5
        (ws / "bad_spec.json").write_text(json.dumps(doc))
        config = {
            "seed": 1, "out_dir": str(ws / "out"), "num_samples": 2,
            "phantom_spec": str(ws / "bad_spec.json"),
        }
        (ws / "run.json").write_text(json.dumps(config))
        assert run_cli("run", "--config", ws / "run.json") == 2
        assert "label must be an integer, got 2.5" in capsys.readouterr().err
        assert not (ws / "out" / "synth").exists()

    @pytest.mark.parametrize("key", ["id", "label", "parent"])
    def test_graph_of_a_hierarchy_with_a_fractional_integer_exits_2_naming_it(
        self, workspace, capsys, key
    ):
        ws = workspace
        doc = json.loads((ws / "anatomy.json").read_text())
        doc["fine"][0][key] += 0.5
        (ws / "bad.json").write_text(json.dumps(doc))
        assert run_cli("graph", "--hierarchy", ws / "bad.json", "--out", ws / "g.json") == 2
        err = capsys.readouterr().err
        assert "bad.json" in err and f"fine {key} must be an integer" in err
        assert not (ws / "g.json").exists()

    def test_infer_on_a_graph_with_a_fractional_node_id_exits_2_naming_it(self, workspace, capsys):
        ws = workspace
        assert run_cli("graph", "--hierarchy", ws / "anatomy.json", "--out", ws / "g.json") == 0
        doc = json.loads((ws / "g.json").read_text())
        doc["nodes"][0]["id"] += 0.5
        (ws / "g.json").write_text(json.dumps(doc))
        code = run_cli(
            "infer", "--graph", ws / "g.json", "--feats", ws / "f.bin", "--model", ws / "m",
            "--out", ws / "t.bin",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "g.json" in err and "node id must be an integer" in err

    def test_encode_of_a_nan_volume_exits_2_naming_the_file_and_the_record(self, workspace, capsys):
        ws = workspace
        voxels = np.zeros((16, 16, 8))
        voxels[3, 4, 5] = np.nan
        save_tensor(ws / "nan.bin", voxels, name="volume")
        assert run_cli("encode", "--preset", "demo", "--in", ws / "nan.bin", "--out", ws / "p") == 2
        err = capsys.readouterr().err
        assert "nan.bin" in err and "'volume'" in err and "non-finite" in err
        assert not (ws / "p").exists()

    def test_pool_of_a_pyramid_coarser_than_the_global_grid_exits_2(self, workspace, capsys):
        ws = workspace
        save_volume(ws / "v.bin", Volume3D(np.zeros((32, 32, 16))))
        save_mask(ws / "m.bin", LabelMask3D(np.ones((32, 32, 16), dtype=np.int32), 2))
        assert run_cli(
            "encode", "--preset", "transvw-style", "--in", ws / "v.bin", "--out", ws / "p"
        ) == 0
        code = run_cli(
            "pool", "--pyramid", ws / "p", "--mask", ws / "m.bin",
            "--hierarchy", ws / "anatomy.json", "--out", ws / "f.bin",
        )
        assert code == 2
        assert "(2, 2, 1) are smaller than the target grid (4, 4, 2)" in capsys.readouterr().err
        assert not (ws / "f.bin").exists()

    def test_infer_with_a_checkpoint_of_another_width_exits_2(self, workspace, capsys):
        ws = workspace
        rows = np.ones((2, 2))
        fine = RegionFeatureSet(
            [1, 2], [Tensor(rows)], Tensor(rows), np.ones((2, 1), np.int64), np.ones(2, bool)
        )
        coarse = RegionFeatureSet(
            [10], [Tensor(np.ones((1, 2)))], Tensor(np.ones((1, 2))),
            np.ones((1, 1), np.int64), np.ones(1, bool),
        )
        save_pooled(ws / "f.bin", fine, coarse, GlobalFeatureGrid(Tensor(np.zeros((4, 4, 2, 2)))))
        GatModel.init(GatConfig(c_total=7, c_last=2, d_h=4, n_heads=2, export_dim=4)).save(ws / "ckpt")
        assert run_cli("graph", "--hierarchy", ws / "anatomy.json", "--out", ws / "g.json") == 0
        code = run_cli(
            "infer", "--graph", ws / "g.json", "--feats", ws / "f.bin",
            "--model", ws / "ckpt", "--out", ws / "tokens.bin",
        )
        assert code == 2
        assert "fine features have width 2, config expects 7" in capsys.readouterr().err
        assert not (ws / "tokens.bin").exists()


class TestRunPipeline:
    def _config(self, ws, n=4):
        return {
            "seed": 5,
            "out_dir": str(ws / "run_out"),
            "preset": "demo",
            "topology": "hierarchical",
            "num_samples": n,
            "probe": {"epochs": 2},
            "gat_train": {"mode": "gat", "epochs": 2, "lr": 0.001, "batch_size": 4},
            "gat": {"d_h": 16, "n_heads": 2, "export_dim": 8},
        }

    def test_run_emits_summary_and_artifacts(self, workspace):
        ws = workspace
        (ws / "run.json").write_text(json.dumps(self._config(ws)))
        assert run_cli("run", "--config", ws / "run.json") == 0
        out = ws / "run_out"
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["stages"]) == {
            "synth", "encode", "pool", "graph", "train", "infer", "eval",
        }
        assert (out / "tokens.bin").exists()
        assert (out / "report.json").exists()
        assert (out / "graph.json").exists()
        assert not (out / "STALE").exists()

    def test_stage_chain_writes_the_same_pooled_containers_as_run(self, workspace):
        ws = workspace
        save_phantom_spec(ws / "demo_phantom.json", demo_phantom_spec())
        config = {**self._config(ws, n=2), "phantom_spec": str(ws / "demo_phantom.json")}
        (ws / "run.json").write_text(json.dumps(config))
        assert run_cli("run", "--config", ws / "run.json") == 0
        seed = config["seed"]
        assert run_cli(
            "synth", "--spec", ws / "demo_phantom.json", "--count", 2, "--seed", seed,
            "--out", ws / "data",
        ) == 0
        for i in range(2):
            assert run_cli(
                "encode", "--preset", "demo", "--seed", seed,
                "--in", ws / "data" / f"vol_{i:03d}.bin", "--out", ws / f"pyr{i}",
            ) == 0
            assert run_cli(
                "pool", "--pyramid", ws / f"pyr{i}", "--mask", ws / "data" / f"mask_{i:03d}.bin",
                "--out", ws / f"feats_{i:03d}.bin",
            ) == 0
            chained = (ws / f"feats_{i:03d}.bin").read_bytes()
            assert chained == (ws / "run_out" / "pool" / f"feats_{i:03d}.bin").read_bytes()

    def test_eval_scores_the_classifiers_held_out_samples(self, workspace):
        ws = workspace
        config = self._config(ws, n=8)
        config["gat_train"] = {**config["gat_train"], "val_fraction": 0.25}
        (ws / "run.json").write_text(json.dumps(config))
        assert run_cli("run", "--config", ws / "run.json") == 0
        metrics = json.loads((ws / "run_out" / "summary.json").read_text())["metrics"]
        scored = metrics["gat_info"]["scored_indices"]
        assert len(scored) == metrics["gat_info"]["val_size"] == 2
        assert metrics["eval_ce_f1"] == metrics["gat_f1"]

    def test_rerun_reproduces_metrics(self, workspace):
        ws = workspace
        (ws / "run.json").write_text(json.dumps(self._config(ws)))
        assert run_cli("run", "--config", ws / "run.json") == 0
        first = json.loads((ws / "run_out" / "summary.json").read_text())["metrics"]
        assert run_cli("run", "--config", ws / "run.json") == 0
        second = json.loads((ws / "run_out" / "summary.json").read_text())["metrics"]
        assert first == second
