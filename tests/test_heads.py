"""Probe training, the graph classifier head, and token export."""

import contextlib
import math
import re

import numpy as np
import pytest

import ctgraph.heads as heads_module
import ctgraph.tensor as tensor_module
from ctgraph.container import save_tensor, save_tensors
from ctgraph.errors import ConfigError, ValidationError
from ctgraph.gat import GatConfig, GatModel, forward
from ctgraph.gradcheck import check_gradients
from ctgraph.graph import build_graph, build_hierarchical, default_hierarchy
from ctgraph.heads import (
    DEFAULT_PROMPT,
    GRANULARITIES,
    AffineHead,
    GatClassifier,
    TrainConfig,
    build_probe_features,
    export_tokens,
    init_gat_classifier,
    load_token_export,
    read_manifest,
    save_token_export,
    train_gat_classifier,
    train_probe,
    write_manifest,
)
from ctgraph.pooling import stack_pooled
from ctgraph.tensor import Tensor, bce_with_logits, concat

from test_gat import small_hierarchy, synth_inputs, tiny_config


def separable_dataset(n=600, dim=4, seed=0):
    # every coordinate carries one class; y_j = sign(x_j)
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.0, 1.0], size=(n, dim))
    y = (x > 0).astype(np.float64)
    return x, y


class TestTrainProbe:
    def test_separable_set_reaches_f1(self):
        x, y = separable_dataset()
        model, trace, info = train_probe(x, y, TrainConfig(seed=1))
        assert trace[-1]["f1"] >= 0.95
        assert info["train_size"] + info["val_size"] == len(x)

    def test_first_batch_loss_is_ln2_at_zero_init(self):
        x, y = separable_dataset(n=32)
        cfg = TrainConfig(epochs=1, batch_size=32, seed=0)
        _, trace, _ = train_probe(x, y, cfg)
        assert trace[0]["loss"] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_same_seed_gives_identical_trace(self):
        x, y = separable_dataset(n=64)
        cfg = TrainConfig(epochs=5, seed=11)
        _, trace_a, _ = train_probe(x, y, cfg)
        _, trace_b, _ = train_probe(x, y, cfg)
        assert trace_a == trace_b

    def test_degenerate_class_flagged(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((40, 6))
        y = np.zeros((40, 2))
        y[:, 0] = rng.integers(0, 2, 40)  # class 1 never positive
        _, _, info = train_probe(x, y, TrainConfig(epochs=2, seed=0))
        assert 1 in info["degenerate_classes"]

    def test_loss_monotone_on_single_sample(self):
        x = np.array([[0.5, -1.0, 2.0]])
        y = np.array([[1.0, 0.0]])
        cfg = TrainConfig(epochs=30, lr=1e-3, seed=0)
        _, trace, _ = train_probe(x, y, cfg)
        losses = [t["loss"] for t in trace]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_shape_mismatch(self):
        with pytest.raises(Exception):
            train_probe(np.zeros((3, 2)), np.zeros((4, 2)), TrainConfig(epochs=1))

    def test_probe_round_trip(self, tmp_path):
        x, y = separable_dataset(n=32)
        model, _, _ = train_probe(x, y, TrainConfig(epochs=2, seed=0))
        model.save(tmp_path / "probe.bin")
        back = AffineHead.load(tmp_path / "probe.bin")
        assert np.array_equal(back.weight.data, model.weight.data)
        assert np.array_equal(back.bias.data, model.bias.data)

    @pytest.mark.parametrize(
        "records",
        [
            {"volume": np.zeros((2, 2, 2))},
            {"weight": np.zeros(3), "bias": np.zeros(3)},
            {"weight": np.zeros((3, 2)), "bias": np.zeros(3)},
            {"weight": np.zeros((3, 2)), "bias": np.zeros((1, 2))},
        ],
        ids=["other-container", "1-d-weight", "bias-width", "2-d-bias"],
    )
    def test_load_rejects_a_file_that_is_not_a_head(self, tmp_path, records):
        save_tensors(tmp_path / "probe.bin", records)
        with pytest.raises(ValidationError, match="probe.bin"):
            AffineHead.load(tmp_path / "probe.bin")

    @pytest.mark.parametrize(
        "threshold", [True, 5, "0.7", math.nan, -0.1, None], ids=["bool", "5", "string", "nan", "negative", "null"]
    )
    def test_load_rejects_a_threshold_that_is_not_a_number_in_0_1(self, tmp_path, threshold):
        records = {"weight": np.zeros((3, 2)), "bias": np.zeros(2)}
        save_tensors(tmp_path / "probe.bin", records, meta={"weight": {"threshold": threshold}})
        with pytest.raises(ValidationError, match="probe.bin.*threshold"):
            AffineHead.load(tmp_path / "probe.bin")

    @pytest.mark.parametrize("threshold", [0, 1, 0.25, "0.5"])
    def test_load_rejects_a_threshold_other_than_the_one_predictions_use(self, tmp_path, threshold):
        records = {"weight": np.zeros((3, 2)), "bias": np.zeros(2)}
        save_tensors(tmp_path / "probe.bin", records, meta={"weight": {"threshold": threshold}})
        with pytest.raises(ValidationError, match="probe.bin: threshold must be 0.5"):
            AffineHead.load(tmp_path / "probe.bin")

    @pytest.mark.parametrize("order", [("weight", "bias"), ("bias", "weight")], ids=["weight-first", "bias-first"])
    def test_load_reads_the_threshold_of_the_weight_record_in_either_order(self, tmp_path, order):
        arrays = {"weight": np.zeros((3, 2)), "bias": np.zeros(2)}
        save_tensors(tmp_path / "probe.bin", {name: arrays[name] for name in order},
                     meta={"weight": {"threshold": 0.7}})
        with pytest.raises(ValidationError, match="probe.bin: threshold must be 0.5, got 0.7"):
            AffineHead.load(tmp_path / "probe.bin")

    @pytest.mark.parametrize("meta", [{"weight": {"threshold": 0.5}}, None], ids=["0.5", "absent"])
    def test_load_takes_the_one_threshold_or_none(self, tmp_path, meta):
        records = {"weight": np.eye(2), "bias": np.zeros(2)}
        save_tensors(tmp_path / "probe.bin", records, meta=meta)
        head = AffineHead.load(tmp_path / "probe.bin")
        assert head.predict(np.array([[0.0, -1.0]])).tolist() == [[1, 0]]  # sigmoid 0.5 is positive

    def test_load_rejects_a_nan_weight(self, tmp_path):
        weight = np.zeros((3, 2))
        weight[2, 1] = np.nan
        save_tensors(tmp_path / "probe.bin", {"weight": weight, "bias": np.zeros(2)})
        with pytest.raises(ValidationError, match="probe.bin.*'weight'"):
            AffineHead.load(tmp_path / "probe.bin")


class TestTrainConfig:
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
    def test_non_finite_loss_raises_before_any_step(self, monkeypatch):
        rng = np.random.default_rng(3)
        features = rng.standard_normal((10, 4))
        features[7, 2] = np.inf
        targets = rng.integers(0, 2, (10, 2)).astype(np.float64)
        steps = []
        monkeypatch.setattr(tensor_module.AdamW, "step", lambda self: steps.append(1))
        cfg = TrainConfig(epochs=2, batch_size=4, seed=0)
        with pytest.raises(ValidationError, match=r"epoch 0, batch \d"):
            train_probe(features, targets, cfg)
        rng = np.random.default_rng(0)  # fit's split (one sample held out), then epoch 0's batch order
        order = list(rng.permutation(rng.permutation(10)[:9]))
        assert len(steps) == order.index(7) // 4  # the batches before the bad one only

    def test_probe_defaults(self):
        cfg = TrainConfig()
        assert (cfg.lr, cfg.batch_size, cfg.epochs, cfg.seed) == (1e-4, 32, 40, 0)
        assert (heads_module.THRESHOLD, heads_module.VAL_FRACTION, tensor_module.ADAM_WEIGHT_DECAY) == (
            0.5, 0.1, 1e-4
        )

    def test_reads_the_retired_keys_with_their_one_value(self):
        retired = {"threshold": 0.5, "weight_decay": 1e-4, "val_fraction": 0.1}
        assert TrainConfig.from_json({**retired, "epochs": 3}) == TrainConfig(epochs=3)
        assert TrainConfig.for_gat(**retired) == TrainConfig.for_gat()

    def test_gat_default_lr(self):
        assert TrainConfig.for_gat().lr == 5e-5
        assert TrainConfig.for_gat(lr=1e-3).lr == 1e-3

    def test_mode_must_name_the_trained_head(self):
        TrainConfig.from_json({"mode": "probe"})  # does not raise
        TrainConfig.for_gat(mode="gat", epochs=3)  # does not raise
        with pytest.raises(ConfigError, match="gat"):
            TrainConfig.from_json({"mode": "gat"})
        with pytest.raises(ConfigError, match="probe"):
            TrainConfig.for_gat(mode="probe")

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_json({"learning_rate": 0.1})

    @pytest.mark.parametrize(
        "doc",
        [
            {"epochs": "2"}, {"lr": "fast"}, {"batch_size": 0}, {"batch_size": True},
            {"epochs": -1}, {"val_fraction": 1.5}, {"val_fraction": 1}, {"seed": 2.5},
            {"lr": math.nan}, {"lr": math.inf}, {"lr": 0.0}, {"lr": -1e-3},
            {"weight_decay": math.nan}, {"weight_decay": math.inf}, {"weight_decay": -0.1},
            {"threshold": math.nan}, {"threshold": 1.5}, {"threshold": -0.1},
            {"threshold": 0.7}, {"threshold": True}, {"weight_decay": 0.0}, {"weight_decay": "1e-4"},
            {"val_fraction": 0.0}, {"val_fraction": 0.25},
        ],
    )
    def test_rejects_bad_values_naming_the_key(self, doc):
        with pytest.raises(ConfigError, match=f"'{next(iter(doc))}'"):
            TrainConfig.from_json(doc)

    def test_accepts_numpy_numbers(self):
        cfg = TrainConfig(epochs=np.int64(2), batch_size=np.int32(4), lr=np.float32(1e-3))
        assert (cfg.epochs, cfg.batch_size) == (2, 4)


class TestGatClassifier:
    def test_zero_lesion_phantoms_converge_to_all_negative(self):
        from ctgraph.encoder import EncoderPreset, synth_encode
        from ctgraph.graph import AnatomyHierarchy, CoarseNode, FineNode
        from ctgraph.pooling import pool_all
        from ctgraph.volume import PathologySpec, PhantomSpec, RegionSpec, generate_phantom

        h = AnatomyHierarchy(
            fine=(FineNode(1, "a", 1, 10), FineNode(2, "b", 2, 10)),
            coarse=(CoarseNode(10, "sys"),),
            global_id=20,
        )
        spec = PhantomSpec(
            shape=(8, 8, 4),
            regions=(
                RegionSpec(1, (2.0, 2.0, 2.0), (1.5, 1.5, 1.5), 0.4),
                RegionSpec(2, (5.0, 5.0, 2.0), (1.5, 1.5, 1.5), 0.8),
            ),
            pathologies=(
                PathologySpec("a", 1, 0.5, 0.0),
                PathologySpec("b", 2, 0.5, 0.0),
            ),
            noise_sigma=0.05,
        )
        preset = EncoderPreset("tiny", (2, 2), (1, 2))
        samples, targets = [], []
        for i in range(6):
            volume, mask, target = generate_phantom(spec.with_seed(i))
            samples.append(pool_all(synth_encode(volume, preset, seed=3), mask, h))
            targets.append(target)
        targets = np.stack(targets).astype(np.float64)
        assert np.all(targets == 0)

        graph = build_hierarchical(h)
        cfg = GatConfig(c_total=4, c_last=2, d_h=8, n_heads=2, export_dim=4)
        train_cfg = TrainConfig.for_gat(epochs=20, batch_size=6, seed=0, lr=2e-3)
        clf, trace, _ = train_gat_classifier(stack_pooled(samples), targets, graph, cfg, train_cfg)
        preds = np.stack([clf.predict(graph, s) for s in samples])
        assert np.all(preds == 0)
        assert trace[-1]["loss"] < trace[0]["loss"]

    def test_gradient_check_on_three_sample_batch(self):
        h = small_hierarchy(n_fine=3, n_coarse=2)
        cfg = GatConfig(c_total=4, c_last=2, d_h=8, n_heads=2, export_dim=4)
        graph = build_hierarchical(h)
        samples = [synth_inputs(h, cfg, seed=s) for s in range(3)]
        targets = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        clf = init_gat_classifier(cfg, 2, seed=5)

        def loss():
            logits = concat([clf.logits(graph, s) for s in samples], axis=0)
            return bce_with_logits(logits, targets)

        assert check_gradients(loss, clf.parameters()) < 1e-4

    def test_same_seed_reproduces_trace(self):
        h = small_hierarchy(n_fine=3, n_coarse=2)
        cfg = tiny_config()
        graph = build_hierarchical(h)
        samples = [synth_inputs(h, cfg, seed=s) for s in range(4)]
        targets = np.array([[1.0], [0.0], [1.0], [0.0]])
        train_cfg = TrainConfig.for_gat(epochs=3, seed=4, lr=1e-3)
        _, trace_a, _ = train_gat_classifier(stack_pooled(samples), targets, graph, cfg, train_cfg)
        _, trace_b, _ = train_gat_classifier(stack_pooled(samples), targets, graph, cfg, train_cfg)
        assert trace_a == trace_b

    def test_predict_records_no_tape(self, monkeypatch):
        h = small_hierarchy(n_fine=3, n_coarse=2)
        cfg = tiny_config()
        graph = build_hierarchical(h)
        clf = init_gat_classifier(cfg, 2, seed=0)
        samples = [synth_inputs(h, cfg, seed=s) for s in range(3)]
        recorded = []
        from_op = tensor_module.from_op

        def counting_from_op(data, parents, backward):
            out = from_op(data, parents, backward)
            recorded.append(out._backward is not None)
            return out

        monkeypatch.setattr(tensor_module, "from_op", counting_from_op)
        clf.predict(graph, stack_pooled(samples))
        clf.predict(graph, samples[0])
        assert recorded and not any(recorded)
        clf.logits(graph, stack_pooled(samples))  # the training forward still records its tape
        assert any(recorded)

    def test_training_forward_builds_no_export_tokens(self, monkeypatch):
        h = small_hierarchy(n_fine=3, n_coarse=2)
        cfg = tiny_config()
        graph = build_hierarchical(h)
        clf = init_gat_classifier(cfg, 2, seed=0)
        samples = [synth_inputs(h, cfg, seed=s) for s in range(3)]
        export_params = {id(clf.gat.params["out.w"]), id(clf.gat.params["out.b"])}
        parents = []
        from_op = tensor_module.from_op

        def recording_from_op(data, op_parents, backward):
            out = from_op(data, op_parents, backward)
            if out._backward is not None:
                parents.extend(id(p) for p in op_parents)
            return out

        monkeypatch.setattr(tensor_module, "from_op", recording_from_op)
        clf.logits(graph, stack_pooled(samples))
        assert parents and not export_params & set(parents)

    def test_untaped_validation_leaves_fit_unchanged(self, monkeypatch):
        h = small_hierarchy(n_fine=3, n_coarse=2)
        cfg = tiny_config()
        graph = build_hierarchical(h)
        samples = [synth_inputs(h, cfg, seed=s) for s in range(8)]
        targets = np.array([[1.0, 0.0], [0.0, 1.0]] * 4)
        train_cfg = TrainConfig.for_gat(epochs=4, batch_size=3, seed=2, lr=1e-2)
        fits = []
        for scope in (tensor_module.no_grad, contextlib.nullcontext):
            monkeypatch.setattr(heads_module, "no_grad", scope)
            clf, trace, info = train_gat_classifier(stack_pooled(samples), targets, graph, cfg, train_cfg)
            fits.append((trace, info, [p.data.copy() for p in clf.parameters()]))
        (trace_a, info_a, params_a), (trace_b, info_b, params_b) = fits
        assert trace_a == trace_b and info_a == info_b
        assert all(np.array_equal(a, b) for a, b in zip(params_a, params_b))

    @pytest.mark.parametrize(
        "topology, unreached",
        [("hierarchical", ("out.",)), ("single-level", ("out.", "stage1.", "coarse_mlp."))],
    )
    def test_fit_moves_exactly_the_parameters_the_loss_reaches(self, topology, unreached):
        h = small_hierarchy(n_fine=3, n_coarse=2)
        cfg = tiny_config()
        samples = [synth_inputs(h, cfg, seed=s) for s in range(6)]
        targets = np.array([[1.0, 0.0], [0.0, 1.0]] * 3)
        train_cfg = TrainConfig.for_gat(epochs=2, batch_size=3, seed=1, lr=1e-2)
        init = init_gat_classifier(cfg, 2, seed=1)  # the fit's own initial values
        graph = build_graph(h, topology)
        clf, _, _ = train_gat_classifier(stack_pooled(samples), targets, graph, cfg, train_cfg)
        for name, p in clf.gat.params.items():
            moved = not np.array_equal(p.data, init.gat.params[name].data)
            assert moved != name.startswith(unreached), name
        assert not np.array_equal(clf.head.weight.data, init.head.weight.data)
        assert not np.array_equal(clf.head.bias.data, init.head.bias.data)

    def test_checkpoint_round_trip(self, tmp_path):
        cfg = tiny_config()
        clf = init_gat_classifier(cfg, 3, seed=1)
        clf.save(tmp_path / "ckpt")
        back = GatClassifier.load(tmp_path / "ckpt")
        assert np.array_equal(back.head.weight.data, clf.head.weight.data)
        for name in clf.gat.params:
            assert np.array_equal(back.gat.params[name].data, clf.gat.params[name].data)

    def test_load_rejects_a_head_file_of_another_kind(self, tmp_path):
        init_gat_classifier(tiny_config(), 3, seed=1).save(tmp_path / "ckpt")
        save_tensors(tmp_path / "ckpt" / "head.bin", {"volume": np.zeros((2, 2, 2))})
        with pytest.raises(ValidationError, match="head.bin"):
            GatClassifier.load(tmp_path / "ckpt")


class TestProbeFeatures:
    def test_granularities_and_layer_slices(self):
        h = small_hierarchy(n_fine=4, n_coarse=2)
        cfg = tiny_config()
        fine_set, coarse_set, grid = synth_inputs(h, cfg, seed=0)
        fine = build_probe_features(fine_set, coarse_set, grid, "fine")
        assert fine.shape == (1, 4 * cfg.c_total)
        assert np.array_equal(fine[0], fine_set.fused.data.ravel())
        coarse = build_probe_features(fine_set, coarse_set, grid, "coarse")
        assert coarse.shape == (1, 2 * cfg.c_total)
        assert np.array_equal(coarse[0], coarse_set.fused.data.ravel())
        global_ = build_probe_features(fine_set, coarse_set, grid, "global")
        assert global_.shape == (1, 32 * cfg.c_last)
        assert np.array_equal(global_[0], grid.grid.data.ravel())
        fused = build_probe_features(fine_set, coarse_set, grid, "fused")
        assert fused.shape == (1, 6 * cfg.c_total)
        assert np.array_equal(fused, np.concatenate([fine, coarse], axis=1))
        for layer, (fine_rows, coarse_rows) in enumerate(
            zip(fine_set.per_layer, coarse_set.per_layer)
        ):
            per_layer = build_probe_features(fine_set, coarse_set, grid, "fused", layer=layer)
            expected = np.concatenate([fine_rows.data.ravel(), coarse_rows.data.ravel()])
            assert np.array_equal(per_layer[0], expected)

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("layer", [None, 0, 1])
    def test_a_stack_gives_the_rows_of_its_samples(self, granularity, layer):
        h = default_hierarchy()
        cfg = tiny_config(c_total=6, c_last=4)
        samples = [synth_inputs(h, cfg, seed=s) for s in range(4)]
        for sample in samples:  # two layers of widths 2 and 4, as pool_all would split them
            for level_set in sample[:2]:
                level_set.per_layer = [Tensor(level_set.fused.data[:, :2]), Tensor(level_set.fused.data[:, 2:])]
        rows = build_probe_features(*stack_pooled(samples), granularity=granularity, layer=layer)
        one_by_one = [build_probe_features(*s, granularity=granularity, layer=layer) for s in samples]
        assert np.array_equal(rows, np.concatenate(one_by_one))

    @pytest.mark.parametrize("layer", [-1, -2, 1, 2])
    def test_a_layer_outside_0_to_L_is_rejected(self, layer):
        inputs = synth_inputs(small_hierarchy(), tiny_config())
        assert len(inputs[0].per_layer) == 1
        assert build_probe_features(*inputs, "fine", layer=0).size
        with pytest.raises(ValidationError, match=f"layer {layer} out of range for 1 pyramid layers"):
            build_probe_features(*inputs, "fine", layer=layer)

    def test_unknown_granularity(self):
        h = small_hierarchy()
        cfg = tiny_config()
        with pytest.raises(ValidationError):
            build_probe_features(*synth_inputs(h, cfg), granularity="voxel")


class TestTokenExport:
    def _exported(self, tmp_path):
        h = default_hierarchy()
        cfg = GatConfig(c_total=6, c_last=4, d_h=16, n_heads=2, export_dim=64)
        model = GatModel.init(cfg, seed=2)
        graph = build_hierarchical(h)
        fine_set, coarse_set, grid = synth_inputs(h, cfg, seed=2)
        fwd = forward(graph, fine_set, coarse_set, grid, model)
        export = export_tokens(fwd)
        path = tmp_path / "tokens.bin"
        save_token_export(path, export)
        return export, path

    def test_default_hierarchy_exports_43_by_64(self, tmp_path):
        export, _ = self._exported(tmp_path)
        assert export.tokens.shape == (43, 64)
        assert len(export.token_ids) == 43

    def test_prompt_default_byte_for_byte(self, tmp_path):
        export, _ = self._exported(tmp_path)
        assert export.prompt == DEFAULT_PROMPT
        assert export.prompt.encode() == (
            b"Generate a medical report based on the visual information "
            b"of the given CT image."
        )

    def test_round_trip_bit_identical(self, tmp_path):
        export, path = self._exported(tmp_path)
        back = load_token_export(path)
        assert np.array_equal(back.tokens, export.tokens)
        assert back.token_ids == export.token_ids
        assert back.prompt == export.prompt

    @pytest.mark.parametrize(
        "meta, message",
        [({"token_ids": [1.7, 2, 3]}, "token id must be an integer, got 1.7"),
         ({"token_ids": [1, True, 3]}, "token id must be an integer, got True"),
         ({"token_ids": [1, 2, "3"]}, "token id must be an integer, got '3'"),
         ({"token_ids": [1, 2, 3], "prompt": 5}, "prompt must be a string, got 5"),
         ({"token_ids": [1, 2]}, "2 token ids for tokens of shape (3, 4)"),
         ({}, "0 token ids for tokens of shape (3, 4)")],
        ids=["fraction", "bool", "string", "prompt", "fewer-ids", "no-ids"],
    )
    def test_bad_meta_fails_naming_the_file(self, tmp_path, meta, message):
        save_tensor(tmp_path / "tokens.bin", np.zeros((3, 4)), name="tokens", meta=meta)
        with pytest.raises(ValidationError, match=f"tokens.bin.*{re.escape(message)}"):
            load_token_export(tmp_path / "tokens.bin")


class TestManifest:
    def test_round_trip(self, tmp_path):
        records = [
            {"feature_file": "f0.bin", "labels": [0, 1], "split": "train"},
            {"feature_file": "f1.bin", "labels": [1, 0], "split": "val"},
        ]
        path = tmp_path / "data.jsonl"
        write_manifest(path, records)
        assert read_manifest(path) == records

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"feature_file": "f0.bin"}\n')
        with pytest.raises(ConfigError, match="labels"):
            read_manifest(path)

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            read_manifest(path)

    def test_evaluation_records_with_labels_are_checked(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        path.write_text('{"id": 0, "text": "clear"}\n{"id": 1, "labels": [1, 0]}\n{"id": 2, "labels": [1]}\n')
        with pytest.raises(ConfigError, match="pred.jsonl:3"):
            read_manifest(path, required=("id",))
        path.write_text('{"id": 0, "text": "clear"}\n{"id": 1, "labels": [true, 0]}\n')
        with pytest.raises(ConfigError, match="pred.jsonl:2"):
            read_manifest(path, required=("id",))
        path.write_text('{"id": 0, "text": "clear"}\n{"id": 1, "labels": [1, 0]}\n')
        assert len(read_manifest(path, required=("id",))) == 2

    @pytest.mark.parametrize("feature_file", [5, None, True, {"path": "f0.bin"}])
    def test_feature_file_must_be_a_string(self, tmp_path, feature_file):
        path = tmp_path / "data.jsonl"
        write_manifest(path, [
            {"feature_file": "f0.bin", "labels": [0, 1]},
            {"feature_file": feature_file, "labels": [1, 0]},
        ])
        with pytest.raises(ConfigError, match="data.jsonl:2: feature_file must be a string"):
            read_manifest(path)

    def test_undecodable_bytes_rejected_naming_path(self, tmp_path):
        path = tmp_path / "binary.jsonl"
        path.write_bytes(b'\xff\xfe{"feature_file": "f0.bin", "labels": [0]}\n')
        with pytest.raises(ConfigError, match="binary.jsonl"):
            read_manifest(path)
