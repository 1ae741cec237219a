"""CLI chain: every subcommand end to end in a temp workspace, plus exit codes."""

import dataclasses
import json
import math
import sys
import weakref

import numpy as np
import pytest

from ctgraph import pipeline, pooling
from ctgraph.cli import main
from ctgraph.container import save_tensor
from ctgraph.demo import demo_phantom_spec
from ctgraph.errors import ValidationError
from ctgraph.gat import GatConfig, GatModel
from ctgraph.graph import AnatomyHierarchy, CoarseNode, FineNode, default_hierarchy, save_hierarchy
from ctgraph.heads import RETIRED_KEYS, load_token_export, write_manifest
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
        # the train configs hold each key an earlier release read, at its one value
        (ws / "probe.json").write_text(json.dumps({"epochs": 1, **RETIRED_KEYS}))
        assert run_cli(
            "train", "--mode", "probe", "--manifest", ws / "data.jsonl",
            "--config", ws / "probe.json", "--out", ws / "probe",
        ) == 0
        (ws / "train.json").write_text(
            json.dumps({"mode": "gat", "epochs": 2, "lr": 0.001, "batch_size": 4, **RETIRED_KEYS})
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

    def test_chain_of_a_coarse_only_hierarchy_reads_its_pooled_files_back(self, workspace):
        ws = workspace
        save_hierarchy(ws / "coarse_only.json", AnatomyHierarchy((), (CoarseNode(10, "a", 1),), 20))
        spec = PhantomSpec((32, 32, 16), (RegionSpec(1, (16.0, 16.0, 8.0), (6.0, 6.0, 4.0), 0.5),),
                           (PathologySpec("a", 1, 0.9, 0.5),))
        save_phantom_spec(ws / "one_region.json", spec)
        assert run_cli("synth", "--spec", ws / "one_region.json", "--count", 2, "--out", ws / "d") == 0
        for i in range(2):
            assert run_cli("encode", "--preset", "tiny", "--presets", ws / "presets.json",
                           "--in", ws / "d" / f"vol_{i:03d}.bin", "--out", ws / f"p{i}") == 0
            assert run_cli("pool", "--pyramid", ws / f"p{i}", "--mask", ws / "d" / f"mask_{i:03d}.bin",
                           "--hierarchy", ws / "coarse_only.json", "--out", ws / f"feats_{i}.bin") == 0
        fine_set, coarse_set, _ = load_pooled(ws / "feats_0.bin")
        assert (fine_set.fused.shape, coarse_set.num_regions) == ((0, 4), 1)
        labels = [json.loads(line)["labels"] for line in (ws / "d" / "samples.jsonl").read_text().splitlines()]
        write_manifest(ws / "data.jsonl", [{"feature_file": f"feats_{i}.bin", "labels": labels[i]} for i in range(2)])
        assert run_cli("graph", "--hierarchy", ws / "coarse_only.json", "--out", ws / "graph.json") == 0
        (ws / "gat.json").write_text(json.dumps({"d_h": 4, "n_heads": 1, "export_dim": 4}))
        assert run_cli(
            "train", "--mode", "gat", "--manifest", ws / "data.jsonl", "--graph", ws / "graph.json",
            "--gat-config", ws / "gat.json", "--out", ws / "ckpt",
        ) == 0
        assert run_cli("infer", "--graph", ws / "graph.json", "--feats", ws / "feats_1.bin",
                       "--model", ws / "ckpt", "--out", ws / "tokens.bin") == 0
        assert load_token_export(ws / "tokens.bin").tokens.shape == (2, 4)  # global + 1 coarse

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

    @staticmethod
    def _infer_with_one_pooled_entry(ws, value) -> int:
        """infer over pooled features of ones but for one fine entry set to value, from bad.bin."""
        rows = np.ones((2, 2))
        rows[1, 0] = value
        fine = RegionFeatureSet(
            [1, 2], [Tensor(rows)], Tensor(rows), np.ones((2, 1), np.int64), np.ones(2, bool)
        )
        coarse = RegionFeatureSet(
            [10], [Tensor(np.ones((1, 2)))], Tensor(np.ones((1, 2))),
            np.ones((1, 1), np.int64), np.ones(1, bool),
        )
        save_pooled(ws / "bad.bin", fine, coarse, GlobalFeatureGrid(Tensor(np.zeros((4, 4, 2, 2)))))
        GatModel.init(GatConfig(c_total=2, c_last=2, d_h=4, n_heads=2, export_dim=4)).save(ws / "ckpt")
        assert run_cli(
            "graph", "--hierarchy", ws / "anatomy.json", "--out", ws / "graph.json"
        ) == 0
        return run_cli(
            "infer", "--graph", ws / "graph.json", "--feats", ws / "bad.bin",
            "--model", ws / "ckpt", "--out", ws / "tokens.bin",
        )

    def test_infer_on_a_nan_pooled_entry_exits_2_naming_the_file(self, workspace, capsys):
        ws = workspace
        assert self._infer_with_one_pooled_entry(ws, np.nan) == 2
        assert "bad.bin" in capsys.readouterr().err
        assert not (ws / "tokens.bin").exists()

    @pytest.mark.parametrize("value", [1e300, -1e101])
    def test_infer_on_a_pooled_entry_beyond_1e100_exits_2_naming_the_file(self, workspace, capsys, value):
        # its square would overflow in the layer norm, with a RuntimeWarning and a degenerate row
        ws = workspace
        assert self._infer_with_one_pooled_entry(ws, value) == 2
        assert "bad.bin: record 'fine_layer_00' holds non-finite values or values beyond ±1e+100" in (
            capsys.readouterr().err
        )
        assert not (ws / "tokens.bin").exists()
        assert self._infer_with_one_pooled_entry(ws, 1e100) == 0

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

    @pytest.mark.parametrize("metric, key", [("ce", "labels"), ("nlg", "text")])
    def test_eval_of_a_record_without_its_metrics_key_exits_2_naming_it(self, workspace, capsys, metric, key):
        ws = workspace
        (ws / "ref.jsonl").write_text('{"id": 1, "labels": [1, 0], "text": "left lung nodule"}\n')
        (ws / "pred.jsonl").write_text('{"id": 1, "lables": [1, 0], "txt": "left lung nodule"}\n')
        code = run_cli(
            "eval", "--metrics", metric, "--pred", ws / "pred.jsonl", "--ref", ws / "ref.jsonl",
            "--out", ws / "r.json",
        )
        assert code == 2
        assert f"{metric} metrics need '{key}' in every shared record" in capsys.readouterr().err
        assert not (ws / "r.json").exists()

    def test_eval_ce_on_empty_label_vectors_exits_2_and_writes_no_report(self, workspace, capsys):
        ws = workspace
        for name in ("ref.jsonl", "pred.jsonl"):
            (ws / name).write_text('{"id": 1, "labels": []}\n{"id": 2, "labels": []}\n')
        code = run_cli(
            "eval", "--metrics", "ce", "--pred", ws / "pred.jsonl", "--ref", ws / "ref.jsonl",
            "--out", ws / "r.json",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "(2, 0)" in err
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
         ({"mlp_hidden": [True]}, "mlp_hidden"), ({"mlp_hidden": [8, 0]}, "mlp_hidden"),
         ({"slope": 0.3}, "slope"), ({"ln_eps": 1e-5}, "ln_eps")],
        ids=["zero-d_h", "bool-heads", "bool-export", "bool-hidden", "zero-hidden", "other-slope", "other-ln_eps"],
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

    @pytest.mark.parametrize(
        "key, value", [("mlp_hidden", [16]), ("slope", 0.3), ("ln_eps", 1e-5), ("threshold", 0.7)]
    )
    def test_train_with_a_retired_key_of_another_value_exits_2_naming_it(self, workspace, capsys, key, value):
        ws = workspace
        write_manifest(ws / "data.jsonl", [{"feature_file": "f.bin", "labels": [0, 1]}])
        what, flag = ("train", "--config") if key in RETIRED_KEYS else ("gat", "--gat-config")
        (ws / "config.json").write_text(json.dumps({key: value}))
        code = run_cli(
            "train", "--mode", "gat", "--manifest", ws / "data.jsonl", "--graph", ws / "g.json",
            flag, ws / "config.json", "--out", ws / "ckpt",
        )
        assert code == 2
        assert f"{what} config '{key}'" in capsys.readouterr().err
        assert not (ws / "ckpt").exists()

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

    @pytest.mark.parametrize("corrupt", ["header", "payload"])
    @pytest.mark.parametrize("command", ["infer", "pool"])
    def test_corrupt_container_exits_2_naming_the_file(self, workspace, capsys, command, corrupt):
        ws = workspace
        bad = ws / "bad.bin"
        if corrupt == "header":
            bad.write_bytes(b"not json\n")
        else:
            header = {"name": "x", "dtype": "float64", "shape": [1], "byte_order": "little"}
            bad.write_bytes(json.dumps(header).encode() + b"\n\x00\x00")
        assert run_cli("graph", "--hierarchy", ws / "anatomy.json", "--out", ws / "g.json") == 0
        argv = ["infer", "--graph", ws / "g.json", "--feats", bad, "--model", ws / "ckpt"]
        if command == "pool":
            self._encode_first_scan(ws)
            argv = ["pool", "--pyramid", ws / "p0", "--mask", bad, "--hierarchy", ws / "anatomy.json"]
        assert run_cli(*argv, "--out", ws / "out") == 2
        message = "container header is not valid JSON" if corrupt == "header" else "truncated payload"
        assert f"error: {bad}: {message}" in capsys.readouterr().err
        assert not (ws / "out").exists()

    @pytest.mark.parametrize("value", ["empty", "object", "four"])
    @pytest.mark.parametrize("field", ["center", "radii"])
    def test_run_with_a_region_not_of_3_numbers_exits_2_naming_it(self, workspace, capsys, field, value):
        ws = workspace
        doc = json.loads((ws / "phantom.json").read_text())
        region = doc["regions"][1]
        region[field] = {"empty": [], "object": {}, "four": region[field] + [1.0]}[value]
        (ws / "bad_spec.json").write_text(json.dumps(doc))
        config = {"seed": 1, "out_dir": str(ws / "out"), "num_samples": 2,
                  "phantom_spec": str(ws / "bad_spec.json")}
        (ws / "run.json").write_text(json.dumps(config))
        assert run_cli("run", "--config", ws / "run.json") == 2
        assert f"region label 2: {field} must be 3" in capsys.readouterr().err
        assert not (ws / "out").exists()

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

    def test_pool_failing_in_its_stage_logs_start_then_failed(self, workspace, capsys):
        ws = workspace
        self._encode_first_scan(ws)
        save_mask(ws / "other.bin", LabelMask3D(np.ones((4, 4, 2), dtype=np.int32), 2))
        capsys.readouterr()
        code = run_cli(
            "pool", "--pyramid", ws / "p0", "--mask", ws / "other.bin",
            "--hierarchy", ws / "anatomy.json", "--out", ws / "f.bin",
        )
        assert code == 2
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
        assert [(e["stage"], e["event"]) for e in events] == [("pool", "start"), ("pool", "failed")]
        assert "(4, 4, 2)" in events[-1]["cause"]

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

    @pytest.mark.parametrize("mode", ["probe", "gat"])
    def test_train_on_pooled_files_of_mixed_widths_exits_2_naming_the_sample(
        self, workspace, capsys, mode
    ):
        ws = workspace
        for i, channels in enumerate((2, 2, 3, 2)):  # sample 2 has a wider encoder
            rows = np.ones((2, channels))
            fine = RegionFeatureSet(
                [1, 2], [Tensor(rows)], Tensor(rows), np.ones((2, 1), np.int64), np.ones(2, bool)
            )
            coarse = RegionFeatureSet(
                [10], [Tensor(rows[:1])], Tensor(rows[:1]), np.ones((1, 1), np.int64), np.ones(1, bool)
            )
            grid = GlobalFeatureGrid(Tensor(np.zeros((4, 4, 2, channels))))
            save_pooled(ws / f"f{i}.bin", fine, coarse, grid)
        records = [{"feature_file": f"f{i}.bin", "labels": [1, 0]} for i in range(4)]
        write_manifest(ws / "data.jsonl", records)
        assert run_cli("graph", "--hierarchy", ws / "anatomy.json", "--out", ws / "g.json") == 0
        code = run_cli(
            "train", "--mode", mode, "--manifest", ws / "data.jsonl", "--graph", ws / "g.json",
            "--out", ws / "out",
        )
        assert code == 2
        assert (
            f"error: {ws / 'f2.bin'}: pooled sample 2: (fine, coarse, grid) shapes "
            "((2, 3), (1, 3), (4, 4, 2, 3)), sample 0's ((2, 2), (1, 2), (4, 4, 2, 2))"
        ) in capsys.readouterr().err
        assert not (ws / "out").exists()

    @pytest.mark.parametrize("mode", ["probe", "gat"])
    def test_train_on_pooled_files_of_other_region_ids_exits_2_before_fitting_naming_the_file(
        self, workspace, capsys, mode
    ):
        ws = workspace
        rows = np.ones((2, 2))
        for i in range(6):  # odd samples carry the workspace hierarchy's ids shifted by 100
            shift = 100 * (i % 2)
            fine = RegionFeatureSet(
                [1 + shift, 2 + shift], [Tensor(rows)], Tensor(rows), np.ones((2, 1), np.int64), np.ones(2, bool)
            )
            coarse = RegionFeatureSet(
                [10 + shift], [Tensor(rows[:1])], Tensor(rows[:1]), np.ones((1, 1), np.int64), np.ones(1, bool)
            )
            save_pooled(ws / f"f{i}.bin", fine, coarse, GlobalFeatureGrid(Tensor(np.zeros((4, 4, 2, 2)))))
        write_manifest(ws / "data.jsonl", [{"feature_file": f"f{i}.bin", "labels": [i % 2, 1]} for i in range(6)])
        assert run_cli("graph", "--hierarchy", ws / "anatomy.json", "--out", ws / "g.json") == 0
        code = run_cli(
            "train", "--mode", mode, "--manifest", ws / "data.jsonl", "--graph", ws / "g.json",
            "--out", ws / "out",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            f"error: {ws / 'f1.bin'}: pooled sample 1: fine region ids [101, 102], sample 0's [1, 2]"
        )
        assert not (ws / "out").exists()

    def test_train_on_pooled_files_of_ids_other_than_the_graphs_exits_2_before_fitting_naming_the_file(
        self, workspace, capsys
    ):
        ws = workspace
        rows = np.ones((2, 2))
        for i in range(4):  # every sample carries the workspace hierarchy's ids shifted by 100
            fine = RegionFeatureSet(
                [101, 102], [Tensor(rows)], Tensor(rows), np.ones((2, 1), np.int64), np.ones(2, bool)
            )
            coarse = RegionFeatureSet(
                [110], [Tensor(rows[:1])], Tensor(rows[:1]), np.ones((1, 1), np.int64), np.ones(1, bool)
            )
            save_pooled(ws / f"f{i}.bin", fine, coarse, GlobalFeatureGrid(Tensor(np.zeros((4, 4, 2, 2)))))
        write_manifest(ws / "data.jsonl", [{"feature_file": f"f{i}.bin", "labels": [i % 2, 1]} for i in range(4)])
        assert run_cli("graph", "--hierarchy", ws / "anatomy.json", "--out", ws / "g.json") == 0
        code = run_cli(
            "train", "--mode", "gat", "--manifest", ws / "data.jsonl", "--graph", ws / "g.json",
            "--out", ws / "out",
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {ws / 'f0.bin'}: pooled fine region ids [101, 102] do not match the graph's fine "
            "nodes [1, 2] (missing: [1, 2], not in the graph: [101, 102])"
        )
        assert not (ws / "out").exists()

    @pytest.mark.parametrize("command, mode", [("run", None), ("train", "probe"), ("train", "gat")],
                             ids=["run", "train", "train-gat"])
    def test_training_on_samples_without_labels_exits_2(self, workspace, capsys, command, mode):
        # a phantom spec without pathologies gives every sample an empty label vector
        ws = workspace
        spec = dataclasses.replace(demo_phantom_spec(), pathologies=())
        save_phantom_spec(ws / "no_labels.json", spec)
        config = {"seed": 1, "out_dir": str(ws / "out"), "num_samples": 2,
                  "phantom_spec": str(ws / "no_labels.json"), "probe": {"epochs": 1}}
        (ws / "run.json").write_text(json.dumps(config))
        code = run_cli("run", "--config", ws / "run.json")
        trained = ws / "out" / "probe"
        if command == "run":
            assert json.loads((ws / "out" / "STALE").read_text())["failed_stage"] == "train"
        else:
            manifest = [{"feature_file": f"pool/feats_{i:03d}.bin", "labels": []} for i in range(2)]
            write_manifest(ws / "out" / "data.jsonl", manifest)
            trained = ws / mode
            code = run_cli("train", "--mode", mode, "--manifest", ws / "out" / "data.jsonl",
                           "--graph", ws / "out" / "graph.json", "--out", trained)
        assert code == 2
        assert capsys.readouterr().err.splitlines()[-1] == "error: the samples carry no labels to train on"
        assert not trained.exists()

    def test_run_of_a_fine_probe_without_fine_nodes_exits_2_naming_the_granularity(self, workspace, capsys):
        ws = workspace
        hierarchy = AnatomyHierarchy(fine=(), coarse=(CoarseNode(10, "a", 1),), global_id=20)
        save_hierarchy(ws / "coarse_only.json", hierarchy)
        spec = PhantomSpec((32, 32, 16), (RegionSpec(1, (16.0, 16.0, 8.0), (6.0, 6.0, 4.0), 0.5),),
                           (PathologySpec("a", 1, 0.9, 0.5),))
        save_phantom_spec(ws / "one_region.json", spec)
        config = {"seed": 1, "out_dir": str(ws / "out"), "num_samples": 2,
                  "hierarchy": str(ws / "coarse_only.json"), "phantom_spec": str(ws / "one_region.json"),
                  "probe": {"epochs": 1}, "gat_train": {"mode": "gat", "epochs": 1}}
        (ws / "run.json").write_text(json.dumps(config))
        assert run_cli("run", "--config", ws / "run.json") == 2
        err = capsys.readouterr().err
        assert "error: probe granularity 'fine' gives no features" in err
        assert not (ws / "out" / "probe").exists()
        config["probe_granularity"] = "coarse"  # the graph classifier needs no fine node
        (ws / "run.json").write_text(json.dumps(config))
        assert run_cli("run", "--config", ws / "run.json") == 0

    def test_unknown_preset_exits_2(self, workspace):
        ws = workspace
        run_cli("synth", "--spec", ws / "phantom.json", "--count", 1, "--out", ws / "d")
        code = run_cli(
            "encode", "--preset", "nope", "--in", ws / "d" / "vol_000.bin",
            "--out", ws / "p",
        )
        assert code == 2

    @pytest.mark.parametrize("count", [0, -1])
    def test_synth_of_a_count_below_1_exits_2_in_its_stage_before_making_out(self, workspace, capsys, count):
        ws = workspace
        assert run_cli("synth", "--spec", ws / "phantom.json", "--count", count, "--out", ws / "d") == 2
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
        assert [(e["stage"], e["event"]) for e in events] == [("synth", "start"), ("synth", "failed")]
        assert events[-1]["cause"] == f"sample count must be positive, got {count}"
        assert not (ws / "d").exists()

    @pytest.mark.parametrize("mode", ["probe", "gat"])
    def test_an_unknown_granularity_exits_2_at_parse_time_under_either_mode(self, workspace, capsys, mode):
        ws = workspace
        with pytest.raises(SystemExit) as exit_info:
            run_cli("train", "--mode", mode, "--manifest", ws / "data.jsonl", "--granularity", "voxel",
                    "--out", ws / "t")
        assert exit_info.value.code == 2
        assert "--granularity: invalid choice: 'voxel'" in capsys.readouterr().err
        assert not (ws / "t").exists()

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
        # seed is a retired key, whose one value is 0
        want = f"'seed' must be 0, got {value!r}" if field == "seed" else "must be an integer"
        assert "bad_spec.json" in err and field in err and want in err
        assert not (ws / "d").exists()

    def test_synth_spec_with_a_seed_other_than_0_exits_2_naming_the_key(self, workspace, capsys):
        ws = workspace
        doc = json.loads((ws / "phantom.json").read_text())
        assert "seed" not in doc
        (ws / "seeded.json").write_text(json.dumps({**doc, "seed": 5}))
        assert run_cli("synth", "--spec", ws / "seeded.json", "--out", ws / "d") == 2
        err = capsys.readouterr().err
        assert "seeded.json" in err and "phantom spec 'seed' must be 0, got 5" in err
        assert "Traceback" not in err and not (ws / "d").exists()
        (ws / "zero.json").write_text(json.dumps({**doc, "seed": 0}))
        assert run_cli("synth", "--spec", ws / "zero.json", "--count", 1, "--out", ws / "d") == 0

    def test_graph_on_an_anatomy_version_other_than_1_exits_2_naming_the_key(self, workspace, capsys):
        ws = workspace
        doc = json.loads((ws / "anatomy.json").read_text())
        (ws / "v2.json").write_text(json.dumps({**doc, "version": 2}))
        assert run_cli("graph", "--hierarchy", ws / "v2.json", "--out", ws / "g.json") == 2
        err = capsys.readouterr().err
        assert "v2.json" in err and "hierarchy 'version' must be 1, got 2" in err
        assert "Traceback" not in err and not (ws / "g.json").exists()

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

    @staticmethod
    def _save_pooled_of_widths(path, fine_widths, coarse_widths, grid_channels):
        """A pooled file of the workspace hierarchy (fine 1, 2; coarse 10) with these layer widths."""
        def level(ids, widths):
            layers = [Tensor(np.ones((len(ids), w))) for w in widths]
            return RegionFeatureSet(
                ids, layers, Tensor(np.ones((len(ids), sum(widths)))),
                np.ones((len(ids), len(widths)), np.int64), np.ones(len(ids), bool),
            )
        grid = GlobalFeatureGrid(Tensor(np.zeros((4, 4, 2, grid_channels))))
        save_pooled(path, level([1, 2], fine_widths), level([10], coarse_widths), grid)

    def test_infer_on_a_pooled_file_whose_levels_disagree_exits_2_naming_the_file(self, workspace, capsys):
        ws = workspace
        self._save_pooled_of_widths(ws / "f.bin", [2, 3], [0, 3], 3)  # coarse_layer_00 emptied
        GatModel.init(GatConfig(c_total=5, c_last=3, d_h=4, n_heads=2, export_dim=4)).save(ws / "ckpt")
        assert run_cli("graph", "--hierarchy", ws / "anatomy.json", "--out", ws / "g.json") == 0
        code = run_cli(
            "infer", "--graph", ws / "g.json", "--feats", ws / "f.bin",
            "--model", ws / "ckpt", "--out", ws / "tokens.bin",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {ws / 'f.bin'}: records fine_layer_* have widths [2, 3], coarse_layer_* [0, 3]" in err
        assert not (ws / "tokens.bin").exists()

    @pytest.mark.parametrize(
        "widths, message",
        [(([2], 2), "fine features have width 2, config expects 7"),
         (([5, 2], 2), "global features have width 64, config expects 96")],
        ids=["fine", "global"],
    )
    def test_infer_width_error_names_feats_at_every_level(self, workspace, capsys, widths, message):
        ws = workspace
        layers, grid_channels = widths
        self._save_pooled_of_widths(ws / "f.bin", layers, layers, grid_channels)
        GatModel.init(GatConfig(c_total=7, c_last=3, d_h=4, n_heads=2, export_dim=4)).save(ws / "ckpt")
        assert run_cli("graph", "--hierarchy", ws / "anatomy.json", "--out", ws / "g.json") == 0
        code = run_cli(
            "infer", "--graph", ws / "g.json", "--feats", ws / "f.bin",
            "--model", ws / "ckpt", "--out", ws / "tokens.bin",
        )
        assert code == 2
        assert f"error: --feats {ws / 'f.bin'}: {message}" in capsys.readouterr().err
        assert not (ws / "tokens.bin").exists()

    def test_infer_on_a_pooled_file_with_a_region_the_graph_lacks_exits_2_naming_feats_and_the_id(
        self, workspace, capsys
    ):
        ws = workspace
        self._save_pooled_of_widths(ws / "f.bin", [2, 3], [2, 3], 3)  # fine 1, 2
        GatModel.init(GatConfig(c_total=5, c_last=3, d_h=4, n_heads=2, export_dim=4)).save(ws / "ckpt")
        one_fine = AnatomyHierarchy(fine=(FineNode(1, "a", 1, 10),), coarse=(CoarseNode(10, "sys"),), global_id=20)
        save_hierarchy(ws / "one_fine.json", one_fine)
        assert run_cli("graph", "--hierarchy", ws / "one_fine.json", "--out", ws / "g.json") == 0
        code = run_cli(
            "infer", "--graph", ws / "g.json", "--feats", ws / "f.bin",
            "--model", ws / "ckpt", "--out", ws / "tokens.bin",
        )
        assert code == 2
        assert (
            f"error: --feats {ws / 'f.bin'}: pooled fine region ids [1, 2] do not match the graph's "
            "fine nodes [1] (missing: [], not in the graph: [2])"
        ) in capsys.readouterr().err
        assert not (ws / "tokens.bin").exists()

    def test_run_of_a_hierarchy_beyond_the_demo_layout_exits_2_before_writing(self, workspace, capsys):
        ws = workspace
        hierarchy = AnatomyHierarchy(
            fine=(FineNode(1, "a", 41, 10),), coarse=(CoarseNode(10, "sys"),), global_id=20
        )
        save_hierarchy(ws / "big.json", hierarchy)
        config = {"seed": 1, "out_dir": str(ws / "out"), "num_samples": 2,
                  "hierarchy": str(ws / "big.json")}
        (ws / "run.json").write_text(json.dumps(config))
        assert run_cli("run", "--config", ws / "run.json") == 2
        err = capsys.readouterr().err
        assert "at most 40 labels" in err and "phantom_spec" in err
        assert not (ws / "out").exists()
        events = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
        assert [(e["stage"], e["event"]) for e in events] == [("setup", "failed")]

    @pytest.mark.parametrize("preset", ["swinunetr-style", "vox2vec-style"])
    def test_run_of_a_preset_that_cannot_encode_the_phantom_exits_2_before_writing(
        self, workspace, capsys, preset
    ):
        ws = workspace
        config = {"seed": 1, "out_dir": str(ws / "out"), "num_samples": 2, "preset": preset}
        (ws / "run.json").write_text(json.dumps(config))
        assert run_cli("run", "--config", ws / "run.json") == 2
        err = capsys.readouterr().err
        assert (
            "error: volume extents (32, 32, 16) must be divisible by the cumulative downsample "
            f"factor 32 of preset '{preset}' layer 4"
        ) in err
        assert not (ws / "out").exists()
        events = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
        assert [(e["stage"], e["event"]) for e in events] == [("setup", "failed")]

    @pytest.mark.parametrize("shape, last", [((32, 32, 8), (4, 4, 1)), ((16, 16, 16), (2, 2, 2))])
    def test_run_whose_last_layer_is_smaller_than_the_grid_exits_2_before_writing(
        self, workspace, capsys, shape, last
    ):
        ws = workspace
        save_phantom_spec(ws / "small.json", dataclasses.replace(demo_phantom_spec(), shape=shape))
        config = {"seed": 1, "out_dir": str(ws / "out"), "num_samples": 2,
                  "phantom_spec": str(ws / "small.json")}
        (ws / "run.json").write_text(json.dumps(config))
        assert run_cli("run", "--config", ws / "run.json") == 2
        err = capsys.readouterr().err
        assert (
            f"error: phantom {shape} under preset 'demo': last layer extents {last} are smaller "
            "than the target grid (4, 4, 2)"
        ) in err
        assert not (ws / "out").exists()
        events = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
        assert [(e["stage"], e["event"]) for e in events] == [("setup", "failed")]

    @pytest.mark.parametrize(
        "command, gat",
        [("run", {"d_h": 2**40}), ("run", {"export_dim": 2**40}), ("run", {"d_h": 2**62, "n_heads": 1}),
         ("train", {"d_h": 2**40, "n_heads": 4})],
        ids=["d_h", "export_dim", "d_h-beyond-any-array", "d_h-through-train"],
    )
    def test_run_of_gat_sizes_numpy_cannot_allocate_exits_2(self, workspace, capsys, command, gat):
        ws = workspace
        if command == "run":
            config = {"seed": 1, "out_dir": str(ws / "out"), "num_samples": 2, "gat": gat,
                      "probe": {"epochs": 1}}
            (ws / "run.json").write_text(json.dumps(config))
            argv = ["run", "--config", ws / "run.json"]
        else:
            self._save_pooled_of_widths(ws / "f.bin", [2, 3], [2, 3], 3)
            write_manifest(ws / "data.jsonl", [{"feature_file": "f.bin", "labels": [0, 1]}] * 2)
            assert run_cli("graph", "--hierarchy", ws / "anatomy.json", "--out", ws / "g.json") == 0
            (ws / "gat.json").write_text(json.dumps(gat))
            argv = ["train", "--mode", "gat", "--manifest", ws / "data.jsonl", "--graph", ws / "g.json",
                    "--gat-config", ws / "gat.json", "--out", ws / "out" / "ckpt"]
        assert run_cli(*argv) == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error: gat config d_h ") and "cannot be allocated" in last
        assert all(f"{key} " in last for key in ("d_h", "n_heads", "export_dim"))
        if command == "run":
            assert json.loads((ws / "out" / "STALE").read_text())["failed_stage"] == "train"
        assert not (ws / "out" / "ckpt" / "config.json").exists()

    @pytest.mark.parametrize("command", ["synth", "encode", "pool", "graph", "train", "infer", "eval", "run"])
    def test_empty_out_exits_2_at_parse_time_naming_the_flag(self, workspace, capsys, monkeypatch, command):
        ws = workspace
        (ws / "run.json").write_text(json.dumps({"out_dir": str(ws / "config_out"), "num_samples": 2}))
        (ws / "cwd").mkdir()
        monkeypatch.chdir(ws / "cwd")
        argv = {
            "synth": ["--spec", ws / "phantom.json", "--count", 1],
            "encode": ["--preset", "tiny", "--presets", ws / "presets.json", "--in", ws / "v.bin"],
            "pool": ["--pyramid", ws / "p", "--mask", ws / "m.bin"],
            "graph": ["--hierarchy", ws / "anatomy.json"],
            "train": ["--mode", "probe", "--manifest", ws / "data.jsonl"],
            "infer": ["--graph", ws / "g.json", "--feats", ws / "f.bin", "--model", ws / "ckpt"],
            "eval": ["--pred", ws / "p.jsonl", "--ref", ws / "r.jsonl"],
            "run": ["--config", ws / "run.json"],
        }[command]
        with pytest.raises(SystemExit) as exit_info:
            run_cli(command, *argv, "--out", "")
        assert exit_info.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert not any((ws / "cwd").iterdir()) and not (ws / "config_out").exists()


OUT_ARGV = {  # each subcommand's valid inputs, relative to TestUnwritableOut's workspace
    "synth": ["--spec", "phantom.json", "--count", 1],
    "encode": ["--preset", "tiny", "--presets", "presets.json", "--in", "d/vol_000.bin"],
    "pool": ["--pyramid", "p0", "--mask", "d/mask_000.bin", "--hierarchy", "anatomy.json"],
    "graph": ["--hierarchy", "anatomy.json"],
    "train": ["--mode", "probe", "--manifest", "data.jsonl", "--config", "train.json"],
    "infer": ["--graph", "g.json", "--feats", "f0.bin", "--model", "ckpt"],
    "eval": ["--pred", "pred.jsonl", "--ref", "ref.jsonl"],
    "run": ["--config", "run.json"],
}
WRITES_A_DIRECTORY = ("synth", "encode", "train", "run")


class TestUnwritableOut:
    """An --out that cannot be written exits 2 with one line naming it and leaves no partial file."""

    @pytest.fixture()
    def ws(self, workspace, monkeypatch):
        ws = workspace
        monkeypatch.chdir(ws)
        assert run_cli("synth", "--spec", "phantom.json", "--count", 2, "--out", "d") == 0
        for i in range(2):
            assert run_cli(
                "encode", "--preset", "tiny", "--presets", "presets.json",
                "--in", f"d/vol_{i:03d}.bin", "--out", f"p{i}",
            ) == 0
            assert run_cli(
                "pool", "--pyramid", f"p{i}", "--mask", f"d/mask_{i:03d}.bin",
                "--hierarchy", "anatomy.json", "--out", f"f{i}.bin",
            ) == 0
        assert run_cli("graph", "--hierarchy", "anatomy.json", "--out", "g.json") == 0
        samples = [json.loads(line) for line in (ws / "d" / "samples.jsonl").read_text().splitlines()]
        write_manifest(
            ws / "data.jsonl",
            [{"feature_file": f"f{i}.bin", "labels": s["labels"]} for i, s in enumerate(samples)],
        )
        (ws / "train.json").write_text(json.dumps({"epochs": 1}))
        fine_set, _, grid = load_pooled(ws / "f0.bin")
        widths = dict(c_total=fine_set.fused.shape[1], c_last=grid.channels)
        GatModel.init(GatConfig(**widths, d_h=4, n_heads=2, export_dim=4)).save(ws / "ckpt")
        (ws / "pred.jsonl").write_text('{"id": 0, "labels": [1, 0]}\n')
        (ws / "ref.jsonl").write_text('{"id": 0, "labels": [1, 0]}\n')
        (ws / "run.json").write_text(json.dumps({"num_samples": 2, "out_dir": "config_out"}))
        (ws / "a_file").write_text("not a directory")
        (ws / "a_dir").mkdir()
        return ws

    @pytest.mark.parametrize("case", ["blocked", "under-a-file"])
    @pytest.mark.parametrize("command", list(OUT_ARGV))
    def test_unwritable_out_exits_2_naming_it(self, ws, capsys, command, case):
        blocked = "a_file" if command in WRITES_A_DIRECTORY else "a_dir"  # the other kind of entry
        out = blocked if case == "blocked" else "a_file/sub"
        capsys.readouterr()
        assert run_cli(command, *OUT_ARGV[command], "--out", out) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [line for line in err.splitlines() if not line.startswith("{")]
        assert line.startswith("error: ") and out in line
        events = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
        assert [e["event"] for e in events] in (["start", "failed"], ["failed"])
        assert len({e["stage"] for e in events}) == 1
        assert (ws / "a_file").read_text() == "not a directory" and not any((ws / "a_dir").iterdir())
        assert not list(ws.rglob("*.tmp")) and not (ws / "config_out").exists()


    @pytest.mark.parametrize("mode", ["probe", "gat"])
    def test_train_into_an_unwritable_out_fits_nothing(self, ws, capsys, monkeypatch, mode):
        def no_fit(*args, **kwargs):
            pytest.fail("fitted before making the output directory")

        monkeypatch.setattr("ctgraph.pipeline.train_probe", no_fit)
        monkeypatch.setattr("ctgraph.pipeline.train_gat_classifier", no_fit)
        argv = ["--mode", mode, "--manifest", "data.jsonl", "--graph", "g.json", "--out", "a_file"]
        capsys.readouterr()
        assert run_cli("train", *argv) == 2
        assert "error: output a_file cannot be written" in capsys.readouterr().err

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

    def test_a_run_stacks_its_pooled_samples_once_and_its_fit_not_at_all(self, workspace, monkeypatch):
        import ctgraph.bench  # noqa: F401  every module that could bind stack_pooled is loaded

        stacks, fit_stacks = [], []
        stack_pooled, fit = pooling.stack_pooled, pipeline.train_gat_classifier

        def counting_stack(samples):
            stacks.append(len(samples))
            return stack_pooled(samples)

        def counting_fit(*args, **kwargs):
            before = len(stacks)
            result = fit(*args, **kwargs)
            fit_stacks.append(len(stacks) - before)
            return result

        for name, module in list(sys.modules.items()):
            if name.startswith("ctgraph") and getattr(module, "stack_pooled", None) is stack_pooled:
                monkeypatch.setattr(module, "stack_pooled", counting_stack)
        monkeypatch.setattr(pipeline, "train_gat_classifier", counting_fit)
        pipeline.run_pipeline(pipeline.PipelineConfig.from_json(self._config(workspace, n=4)))
        assert stacks == [4] and fit_stacks == [0]

    def test_run_config_paths_resolve_against_the_configs_directory(self, workspace, monkeypatch):
        ws = workspace
        (ws / "configs" / "spec").mkdir(parents=True)
        save_phantom_spec(ws / "configs" / "spec" / "phantom.json", demo_phantom_spec())
        save_hierarchy(ws / "configs" / "anatomy.json", default_hierarchy())
        config = {**self._config(ws, n=2), "out_dir": "run_out",
                  "phantom_spec": "spec/phantom.json", "hierarchy": "anatomy.json"}
        (ws / "configs" / "run.json").write_text(json.dumps(config))
        (ws / "cwd").mkdir()
        monkeypatch.chdir(ws / "cwd")
        assert run_cli("run", "--config", ws / "configs" / "run.json") == 0
        assert (ws / "cwd" / "run_out" / "summary.json").exists()  # out_dir stays cwd-relative

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
        synth = ["samples.jsonl"] + [f"{kind}_{i:03d}.bin" for kind in ("vol", "mask") for i in range(2)]
        assert sorted(path.name for path in (ws / "data").iterdir()) == sorted(synth)
        for name in synth:
            assert (ws / "data" / name).read_bytes() == (ws / "run_out" / "synth" / name).read_bytes()

    def test_eval_scores_the_classifiers_held_out_samples(self, workspace):
        ws = workspace
        (ws / "run.json").write_text(json.dumps(self._config(ws, n=15)))
        assert run_cli("run", "--config", ws / "run.json") == 0
        metrics = json.loads((ws / "run_out" / "summary.json").read_text())["metrics"]
        scored = metrics["gat_info"]["scored_indices"]
        assert len(scored) == metrics["gat_info"]["val_size"] == 2  # a tenth of 15, rounded
        assert metrics["eval_ce_f1"] == metrics["gat_f1"]

    def test_rerun_reproduces_metrics(self, workspace):
        ws = workspace
        (ws / "run.json").write_text(json.dumps(self._config(ws)))
        assert run_cli("run", "--config", ws / "run.json") == 0
        first = json.loads((ws / "run_out" / "summary.json").read_text())["metrics"]
        assert run_cli("run", "--config", ws / "run.json") == 0
        second = json.loads((ws / "run_out" / "summary.json").read_text())["metrics"]
        assert first == second

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_a_failed_rerun_leaves_no_summary_of_the_earlier_run(self, workspace, capsys):
        ws = workspace
        (ws / "run.json").write_text(json.dumps(self._config(ws)))
        assert run_cli("run", "--config", ws / "run.json") == 0
        assert (ws / "run_out" / "summary.json").exists()
        config = self._config(ws)
        config["gat_train"]["lr"] = 1e300  # the first step overflows, so the next loss is NaN
        (ws / "run.json").write_text(json.dumps(config))
        assert run_cli("run", "--config", ws / "run.json") == 2
        assert "training loss is nan" in capsys.readouterr().err.splitlines()[-1]
        assert json.loads((ws / "run_out" / "STALE").read_text())["failed_stage"] == "train"
        assert not (ws / "run_out" / "summary.json").exists()

    def test_a_summary_that_cannot_be_removed_exits_2_before_the_first_stage(self, workspace, capsys):
        ws = workspace
        (ws / "run.json").write_text(json.dumps(self._config(ws)))
        (ws / "run_out" / "summary.json").mkdir(parents=True)
        assert run_cli("run", "--config", ws / "run.json") == 2
        assert "summary.json cannot be written" in capsys.readouterr().err.splitlines()[-1]
        assert sorted(p.name for p in (ws / "run_out").iterdir()) == ["summary.json"]

    @staticmethod
    def _stage_events(err: str) -> list[dict]:
        events = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
        return [e for e in events if e["stage"] != "run"]

    def test_run_logs_start_then_done_with_seconds_for_each_stage_in_order(self, workspace, capsys):
        ws = workspace
        (ws / "run.json").write_text(json.dumps(self._config(ws)))
        capsys.readouterr()
        assert run_cli("run", "--config", ws / "run.json") == 0
        events = self._stage_events(capsys.readouterr().err)
        # one pass over the 4 samples, then samples.jsonl, then the stages that take every sample
        steps = [(name, i) for i in range(4) for name in ("synth", "encode", "pool")]
        steps += [(name, None) for name in ("synth", "graph", "train", "infer", "eval")]
        assert [(e["stage"], e["event"], e.get("sample")) for e in events] == [
            (name, event, i) for name, i in steps for event in ("start", "done")
        ]
        done = events[1::2]
        for e in done:
            assert type(e["seconds"]) in (int, float) and e["seconds"] >= 0
        stages = json.loads((ws / "run_out" / "summary.json").read_text())["stages"]
        assert list(stages) == ["synth", "encode", "pool", "graph", "train", "infer", "eval"]
        for name, total in stages.items():
            logged = [e["seconds"] for e in done if e["stage"] == name]
            assert total == pytest.approx(sum(logged), abs=0.0005 * (len(logged) + 1))

    def test_run_failing_in_a_stage_logs_failed_for_that_stage(self, workspace, capsys):
        ws = workspace
        (ws / "run.json").write_text(json.dumps(self._config(ws)))
        (ws / "run_out").mkdir()
        (ws / "run_out" / "pool").write_text("a file where the pool directory goes")
        capsys.readouterr()
        assert run_cli("run", "--config", ws / "run.json") == 2  # an output that cannot be written
        events = self._stage_events(capsys.readouterr().err)
        assert [(e["stage"], e["event"], e["sample"]) for e in events] == [
            ("synth", "start", 0), ("synth", "done", 0), ("encode", "start", 0), ("encode", "done", 0),
            ("pool", "start", 0), ("pool", "failed", 0),
        ]
        assert "pool" in events[-1]["cause"]
        stale = json.loads((ws / "run_out" / "STALE").read_text())
        assert (stale["failed_stage"], stale["sample"]) == ("pool", 0)
        assert stale["stages_started"] == ["synth", "encode", "pool"]

    def test_run_failing_at_a_later_samples_encode_names_that_stage_and_sample(
        self, workspace, capsys, monkeypatch
    ):
        real_encode = pipeline.synth_encode
        calls = []

        def encode(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise ValidationError("injected")
            return real_encode(*args, **kwargs)

        ws = workspace
        monkeypatch.setattr(pipeline, "synth_encode", encode)
        (ws / "run.json").write_text(json.dumps(self._config(ws)))
        capsys.readouterr()
        assert run_cli("run", "--config", ws / "run.json") == 2
        events = self._stage_events(capsys.readouterr().err)
        failed = [(e["stage"], e["sample"], e["cause"]) for e in events if e["event"] == "failed"]
        assert failed == [("encode", 1, "injected")]
        assert events[-1]["event"] == "failed"
        stale = json.loads((ws / "run_out" / "STALE").read_text())
        assert stale == {
            "failed_stage": "encode", "sample": 1, "cause": "injected",
            "stages_started": ["synth", "encode", "pool"],
        }

    def test_run_frees_each_samples_volume_and_pyramid_before_the_next_sample(self, workspace, monkeypatch):
        """While sample i is encoded or pooled, no volume or pyramid of an earlier sample is alive."""
        real_synth, real_encode, real_pool = pipeline.synth_stage, pipeline.synth_encode, pipeline.pool_stage
        arrays = []  # per sample, weak references to its volume and pyramid and their arrays
        alive = []  # per encode and pool call, how many of the earlier samples' arrays are alive

        def count_earlier():
            alive.append(sum(ref() is not None for refs in arrays[:-1] for ref in refs))

        def synth_stage(*args):
            volume, mask, target = real_synth(*args)
            arrays.append([weakref.ref(volume), weakref.ref(volume.voxels)])
            return volume, mask, target

        def synth_encode(*args, **kwargs):
            count_earlier()
            pyramid = real_encode(*args, **kwargs)
            arrays[-1] += [weakref.ref(pyramid)] + [weakref.ref(layer.data.data) for layer in pyramid.layers]
            return pyramid

        def pool_stage(*args):
            count_earlier()
            return real_pool(*args)

        for name, fake in (("synth_stage", synth_stage), ("synth_encode", synth_encode), ("pool_stage", pool_stage)):
            monkeypatch.setattr(pipeline, name, fake)
        ws = workspace
        (ws / "run.json").write_text(json.dumps(self._config(ws)))
        assert run_cli("run", "--config", ws / "run.json") == 0
        assert alive == [0] * 8
        assert len(arrays) == 4 and all(len(refs) > 4 for refs in arrays)

    def test_a_defect_propagates_from_run_as_from_its_subcommand(self, workspace, capsys, monkeypatch):
        """Only a CtGraphError exits 2; any other exception is a defect and leaves cli.main."""

        class Defect(RuntimeError):
            pass

        def broken(*args, **kwargs):
            raise Defect("injected")

        ws = workspace
        monkeypatch.setattr("ctgraph.pipeline.build_graph", broken)
        (ws / "run.json").write_text(json.dumps(self._config(ws, n=2)))
        for argv in (["graph", "--out", ws / "g.json"], ["run", "--config", ws / "run.json"]):
            capsys.readouterr()
            with pytest.raises(Defect, match="injected"):
                run_cli(*argv)
            events = self._stage_events(capsys.readouterr().err)
            failed = [(e["stage"], e["cause"]) for e in events if e["event"] == "failed"]
            assert failed == [("graph", "injected")]
        stale = json.loads((ws / "run_out" / "STALE").read_text())
        assert stale["failed_stage"] == "graph" and stale["cause"] == "injected"
