"""Graph attention against an explicit-loop transcription of the update rule.

The oracle below recomputes one attention stage with plain Python loops and
unshifted exponentials, independent of the vectorized implementation path.
"""

import dataclasses
import json

import numpy as np
import pytest

import ctgraph.tensor as tensor_module
from ctgraph.container import save_tensor
from ctgraph.errors import ConfigError, ShapeError, ValidationError, allocating
from ctgraph.gat import GatConfig, GatModel, embed_nodes, forward
from ctgraph.gradcheck import check_gradients, max_relative_error
from ctgraph.graph import (
    AnatomyHierarchy,
    CoarseNode,
    FineNode,
    build_graph,
    build_hierarchical,
    build_single_level,
    default_hierarchy,
)
from ctgraph.heads import init_gat_classifier
from ctgraph.pipeline import PipelineConfig, check_gat_doc
from ctgraph.pooling import GlobalFeatureGrid, RegionFeatureSet, stack_pooled
from ctgraph.tensor import Tensor, bce_with_logits, concat
from test_container import traced_peak
from test_tensor import weighted_sum


def loop_layer_norm(v, gamma, beta, eps):
    mu = sum(v) / len(v)
    var = sum((x - mu) ** 2 for x in v) / len(v)
    return gamma * (v - mu) / np.sqrt(var + eps) + beta


def loop_attention_stage(member_rows, center_row, heads, slope, gamma, beta, eps):
    """Direct transcription of the attention update for one center node.

    member_rows excludes the center; the self-loop is appended here. Returns
    (updated row of width d_h, alpha matrix (n_heads, group size)).
    """
    normed = [loop_layer_norm(m, gamma, beta, eps) for m in member_rows]
    center = loop_layer_norm(center_row, gamma, beta, eps)
    group = normed + [center]
    outputs = []
    alphas = []
    for w, a in heads:
        center_proj = center @ w
        scores = []
        for v in group:
            s = float(a.ravel() @ np.concatenate([v @ w, center_proj]))
            scores.append(s if s > 0 else slope * s)
        exps = [np.exp(s) for s in scores]
        z = sum(exps)
        alpha = [e / z for e in exps]
        updated = sum(al * (v @ w) for al, v in zip(alpha, group))
        outputs.append(updated)
        alphas.append(alpha)
    return np.concatenate(outputs), np.array(alphas)


def small_hierarchy(n_fine=4, n_coarse=2):
    parents = [10 + (i % n_coarse) for i in range(n_fine)]
    fine = tuple(FineNode(i + 1, f"f{i}", i + 1, parents[i]) for i in range(n_fine))
    coarse = tuple(CoarseNode(10 + j, f"c{j}") for j in range(n_coarse))
    return AnatomyHierarchy(fine=fine, coarse=coarse, global_id=30)


def synth_inputs(hierarchy, cfg, seed=0):
    """Random pooled feature sets shaped for the given config."""
    rng = np.random.default_rng(seed)
    n_fine = hierarchy.num_fine
    n_coarse = hierarchy.num_coarse
    fine_layers = [Tensor(rng.standard_normal((n_fine, cfg.c_total)))]
    coarse_layers = [Tensor(rng.standard_normal((n_coarse, cfg.c_total)))]
    fine_set = RegionFeatureSet(
        region_ids=[f.id for f in sorted(hierarchy.fine, key=lambda n: n.id)],
        per_layer=fine_layers,
        fused=fine_layers[0],
        counts=np.ones((n_fine, 1), dtype=np.int64),
        valid=np.ones(n_fine, dtype=bool),
    )
    coarse_set = RegionFeatureSet(
        region_ids=[c.id for c in sorted(hierarchy.coarse, key=lambda n: n.id)],
        per_layer=coarse_layers,
        fused=coarse_layers[0],
        counts=np.ones((n_coarse, 1), dtype=np.int64),
        valid=np.ones(n_coarse, dtype=bool),
    )
    grid = GlobalFeatureGrid(Tensor(rng.standard_normal((4, 4, 2, cfg.c_last))))
    return fine_set, coarse_set, grid


def tiny_config(**kw):
    defaults = dict(c_total=5, c_last=3, d_h=8, n_heads=2, export_dim=4)
    defaults.update(kw)
    return GatConfig(**defaults)


# the swinunetr-style preset at paper width: ~58 MB of float64 parameters
PAPER_WIDTH = GatConfig(c_total=1488, c_last=768, d_h=256, n_heads=4, export_dim=64)


def level_inputs(fine_set, coarse_set, grid):
    return {"fine": fine_set.fused, "coarse": coarse_set.fused, "global": grid.flat()}


class TestEmbedNodes:
    def test_zero_weight_mlps_emit_bias(self):
        cfg = tiny_config()
        model = GatModel.init(cfg, seed=0)
        bias = np.arange(cfg.d_h, dtype=float)
        for prefix in ("fine_mlp", "coarse_mlp", "global_mlp"):
            model.params[f"{prefix}.0.w"].data[:] = 0.0
            model.params[f"{prefix}.0.b"].data[:] = bias
        h = small_hierarchy()
        embedded = embed_nodes(model, level_inputs(*synth_inputs(h, cfg)))
        assert list(embedded) == ["fine", "coarse", "global"]
        for embedding in embedded.values():
            assert np.allclose(embedding.data, bias, atol=1e-15)

    def test_identity_mlp_passes_features_through(self):
        cfg = tiny_config(c_total=8, d_h=8)
        model = GatModel.init(cfg, seed=0)
        model.params["fine_mlp.0.w"].data[:] = np.eye(8)
        model.params["fine_mlp.0.b"].data[:] = 0.0
        h = small_hierarchy()
        fine_set, coarse_set, grid = synth_inputs(h, cfg)
        h_f = embed_nodes(model, level_inputs(fine_set, coarse_set, grid))["fine"]
        assert np.array_equal(h_f.data, fine_set.fused.data)

    def test_global_path_consumes_32_times_c_last(self):
        cfg = tiny_config()
        assert cfg.fan_in == {"fine": cfg.c_total, "coarse": cfg.c_total, "global": 32 * cfg.c_last}
        model = GatModel.init(cfg, seed=0)
        assert model.params["global_mlp.0.w"].shape == (32 * cfg.c_last, cfg.d_h)
        h = small_hierarchy()
        fine_set, coarse_set, grid = synth_inputs(h, cfg)
        assert grid.flat().shape == (1, 32 * cfg.c_last)
        bad = GlobalFeatureGrid(Tensor(np.zeros((4, 4, 2, cfg.c_last + 1))))
        with pytest.raises(ShapeError, match="^global features have width 128, config expects 96$"):
            embed_nodes(model, level_inputs(fine_set, coarse_set, bad))

    @pytest.mark.parametrize("level", ["fine", "coarse"])
    def test_every_level_is_checked_against_its_fan_in(self, level):
        cfg = tiny_config()
        model = GatModel.init(cfg, seed=0)
        inputs = level_inputs(*synth_inputs(small_hierarchy(), cfg))
        inputs[level] = concat([inputs[level], inputs[level]], axis=1)
        with pytest.raises(ShapeError, match=f"^{level} features have width 10, config expects 5$"):
            embed_nodes(model, inputs)


class TestStageOne:
    def test_childless_coarse_attends_self_only(self):
        h = AnatomyHierarchy(
            fine=(FineNode(1, "a", 1, 10),),
            coarse=(CoarseNode(10, "sys"), CoarseNode(11, "alone")),
            global_id=20,
        )
        cfg = tiny_config()
        model = GatModel.init(cfg, seed=1)
        graph = build_hierarchical(h)
        rng = np.random.default_rng(2)
        fine_set, coarse_set, grid = synth_inputs(h, cfg, seed=2)
        out = forward(graph, fine_set, coarse_set, grid, model)
        rec = out.activation.alphas["coarse"][11]
        assert rec["members"] == [11]
        assert np.allclose(rec["alpha"], 1.0, atol=1e-12)

        # self-loop-only update is the concatenation of W @ normalized h_c
        h_c = out.activation.h_coarse.data[1]
        gamma = model.params["stage1.ln.gamma"].data
        beta = model.params["stage1.ln.beta"].data
        normed = loop_layer_norm(h_c, gamma, beta, cfg.ln_eps)
        expected = np.concatenate(
            [normed @ w.data for w, _ in model.heads("stage1")]
        )
        assert np.max(np.abs(out.activation.h_coarse_updated.data[1] - expected)) < 1e-12

    def test_identical_embeddings_give_uniform_alpha(self):
        h = small_hierarchy(n_fine=4, n_coarse=1)
        cfg = tiny_config()
        model = GatModel.init(cfg, seed=3)
        # force every node embedding to the same vector
        shared_bias = np.random.default_rng(3).standard_normal(cfg.d_h)
        for prefix in ("fine_mlp", "coarse_mlp"):
            model.params[f"{prefix}.0.w"].data[:] = 0.0
            model.params[f"{prefix}.0.b"].data[:] = shared_bias
        graph = build_hierarchical(h)
        fine_set, coarse_set, grid = synth_inputs(h, cfg, seed=3)
        out = forward(graph, fine_set, coarse_set, grid, model)
        rec = out.activation.alphas["coarse"][10]
        assert np.allclose(rec["alpha"], 1.0 / 5.0, atol=1e-12)

    def test_two_children_match_loop_transcription(self):
        h = small_hierarchy(n_fine=2, n_coarse=1)
        cfg = tiny_config()
        model = GatModel.init(cfg, seed=4)
        graph = build_hierarchical(h)
        fine_set, coarse_set, grid = synth_inputs(h, cfg, seed=4)
        out = forward(graph, fine_set, coarse_set, grid, model)

        heads = [(w.data, a.data) for w, a in model.heads("stage1")]
        expected, alphas = loop_attention_stage(
            [out.activation.h_fine.data[0], out.activation.h_fine.data[1]],
            out.activation.h_coarse.data[0],
            heads,
            cfg.slope,
            model.params["stage1.ln.gamma"].data,
            model.params["stage1.ln.beta"].data,
            cfg.ln_eps,
        )
        assert np.max(np.abs(out.activation.h_coarse_updated.data[0] - expected)) < 1e-10
        assert np.max(np.abs(out.activation.alphas["coarse"][10]["alpha"] - alphas)) < 1e-10


class TestStageTwo:
    def test_zero_attention_vector_uniform_and_zero_w_keeps_skip(self):
        h = small_hierarchy(n_fine=2, n_coarse=2)
        cfg = tiny_config()
        model = GatModel.init(cfg, seed=5)
        for hi in range(cfg.n_heads):
            model.params[f"stage2.head{hi}.a"].data[:] = 0.0
            model.params[f"stage2.head{hi}.w"].data[:] = 0.0
        graph = build_hierarchical(h)
        fine_set, coarse_set, grid = synth_inputs(h, cfg, seed=5)
        out = forward(graph, fine_set, coarse_set, grid, model)
        rec = out.activation.alphas["global"][h.global_id]
        assert np.allclose(rec["alpha"], 1.0 / 3.0, atol=1e-12)
        assert np.array_equal(
            out.activation.h_global_updated.data, out.activation.h_global.data
        )

    def test_single_coarse_equal_to_global_gives_half_half(self):
        h = AnatomyHierarchy(
            fine=(FineNode(1, "a", 1, 10),),
            coarse=(CoarseNode(10, "sys"),),
            global_id=20,
        )
        cfg = tiny_config()
        model = GatModel.init(cfg, seed=6)
        graph = build_hierarchical(h)
        fine_set, coarse_set, grid = synth_inputs(h, cfg, seed=6)
        out = forward(graph, fine_set, coarse_set, grid, model)
        # rebuild stage 2 by hand with the coarse row forced equal to h_g
        from ctgraph.gat import attend_coarse_to_global

        h_g = Tensor(out.activation.h_global.data[None])  # (1, 1, d_h)
        equal_rows = Tensor(h_g.data.copy())
        _, alphas = attend_coarse_to_global(graph, equal_rows, h_g, model, np.ones((1, 1), bool))
        assert np.allclose(alphas[h.global_id]["alpha"], 0.5, atol=1e-12)

    def test_matches_loop_transcription(self):
        h = small_hierarchy(n_fine=3, n_coarse=3)
        cfg = tiny_config()
        model = GatModel.init(cfg, seed=7)
        graph = build_hierarchical(h)
        fine_set, coarse_set, grid = synth_inputs(h, cfg, seed=7)
        out = forward(graph, fine_set, coarse_set, grid, model)

        heads = [(w.data, a.data) for w, a in model.heads("stage2")]
        updated, alphas = loop_attention_stage(
            [row for row in out.activation.h_coarse_updated.data],
            out.activation.h_global.data[0],
            heads,
            cfg.slope,
            model.params["stage2.ln.gamma"].data,
            model.params["stage2.ln.beta"].data,
            cfg.ln_eps,
        )
        expected = updated + out.activation.h_global.data[0]
        assert np.max(np.abs(out.activation.h_global_updated.data[0] - expected)) < 1e-10
        assert (
            np.max(np.abs(out.activation.alphas["global"][h.global_id]["alpha"] - alphas))
            < 1e-10
        )


def wide_hierarchy():
    """117 fine nodes spread over 11 coarse nodes; coarse 211 has no children but its own label."""
    fine = tuple(FineNode(i, f"f{i}", i, 200 + i % 11) for i in range(1, 118))
    coarse = tuple(CoarseNode(200 + j, f"c{j}") for j in range(11))
    return AnatomyHierarchy(fine=fine, coarse=coarse + (CoarseNode(211, "own", 118),), global_id=300)


class TestWideHierarchy:
    @pytest.mark.parametrize("topology", ["hierarchical", "random"])
    def test_both_stages_match_loop_transcription(self, topology):
        h = wide_hierarchy()
        graph = build_graph(h, topology, seed=5)
        cfg = tiny_config()
        model = GatModel.init(cfg, seed=12)
        fine_set, coarse_set, grid = synth_inputs(h, cfg, seed=12)
        fine_set.valid[::7] = False
        coarse_set.valid[3] = False
        act = forward(graph, fine_set, coarse_set, grid, model).activation
        if topology == "hierarchical":
            assert graph.children_of(211) == []

        def stage_args(stage):
            heads = [(w.data, a.data) for w, a in model.heads(stage)]
            p = model.params
            return heads, cfg.slope, p[f"{stage}.ln.gamma"].data, p[f"{stage}.ln.beta"].data, cfg.ln_eps

        worst = 0.0
        for ci, cid in enumerate(graph.ids_at("coarse")):
            children = [f for f in graph.children_of(cid) if fine_set.valid[f - 1]]
            expected, alpha = loop_attention_stage(
                [act.h_fine.data[f - 1] for f in children], act.h_coarse.data[ci],
                *stage_args("stage1"),
            )
            rec = act.alphas["coarse"][cid]
            assert rec["members"] == children + [cid]
            worst = max(
                worst,
                np.max(np.abs(act.h_coarse_updated.data[ci] - expected)),
                np.max(np.abs(rec["alpha"] - alpha)),
            )
        kept = [ci for ci in range(12) if coarse_set.valid[ci]]
        expected, alpha = loop_attention_stage(
            [act.h_coarse_updated.data[ci] for ci in kept], act.h_global.data[0],
            *stage_args("stage2"),
        )
        rec = act.alphas["global"][h.global_id]
        assert rec["members"] == [graph.ids_at("coarse")[ci] for ci in kept] + [h.global_id]
        worst = max(
            worst,
            np.max(np.abs(act.h_global_updated.data[0] - expected - act.h_global.data[0])),
            np.max(np.abs(rec["alpha"] - alpha)),
        )
        assert worst < 1e-10


class TestForward:
    def test_default_hierarchy_emits_43_tokens(self):
        h = default_hierarchy()
        cfg = tiny_config(c_total=6, c_last=4)
        model = GatModel.init(cfg, seed=8)
        graph = build_hierarchical(h)
        fine_set, coarse_set, grid = synth_inputs(h, cfg, seed=8)
        out = forward(graph, fine_set, coarse_set, grid, model)
        assert out.tokens.shape == (43, cfg.export_dim)
        assert len(out.token_ids) == 43
        assert out.token_ids[0] == h.global_id

    def test_single_level_emits_35_tokens(self):
        h = default_hierarchy()
        cfg = tiny_config(c_total=6, c_last=4)
        model = GatModel.init(cfg, seed=8)
        graph = build_single_level(h)
        fine_set, coarse_set, grid = synth_inputs(h, cfg, seed=8)
        out = forward(graph, fine_set, coarse_set, grid, model)
        assert out.tokens.shape == (35, cfg.export_dim)

    def test_forward_twice_bit_identical(self):
        h = small_hierarchy()
        cfg = tiny_config()
        model = GatModel.init(cfg, seed=9)
        graph = build_hierarchical(h)
        fine_set, coarse_set, grid = synth_inputs(h, cfg, seed=9)
        a = forward(graph, fine_set, coarse_set, grid, model)
        b = forward(graph, fine_set, coarse_set, grid, model)
        assert np.array_equal(a.tokens.data, b.tokens.data)

    def test_alpha_groups_sum_to_one(self):
        h = small_hierarchy(n_fine=6, n_coarse=3)
        cfg = tiny_config()
        model = GatModel.init(cfg, seed=10)
        graph = build_hierarchical(h)
        fine_set, coarse_set, grid = synth_inputs(h, cfg, seed=10)
        out = forward(graph, fine_set, coarse_set, grid, model)
        for stage in out.activation.alphas.values():
            for rec in stage.values():
                sums = rec["alpha"].sum(axis=1)
                assert np.max(np.abs(sums - 1.0)) <= 1e-6

    def test_permutation_of_children_leaves_update_unchanged(self):
        # same children and features, ids renamed to reverse the sort order
        cfg = tiny_config()
        rng = np.random.default_rng(11)
        feats = rng.standard_normal((3, cfg.c_total))

        def run(ids):
            fine = tuple(
                FineNode(i, f"f{i}", i, 10) for i in ids
            )
            h = AnatomyHierarchy(fine=fine, coarse=(CoarseNode(10, "c"),), global_id=20)
            order = np.argsort(ids)
            fine_set = RegionFeatureSet(
                region_ids=sorted(ids),
                per_layer=[Tensor(feats[order])],
                fused=Tensor(feats[order]),
                counts=np.ones((3, 1), dtype=np.int64),
                valid=np.ones(3, dtype=bool),
            )
            coarse_set = RegionFeatureSet(
                region_ids=[10],
                per_layer=[Tensor(np.zeros((1, cfg.c_total)))],
                fused=Tensor(np.zeros((1, cfg.c_total))),
                counts=np.ones((1, 1), dtype=np.int64),
                valid=np.ones(1, dtype=bool),
            )
            grid = GlobalFeatureGrid(Tensor(np.zeros((4, 4, 2, cfg.c_last))))
            model = GatModel.init(cfg, seed=12)
            graph = build_hierarchical(h)
            out = forward(graph, fine_set, coarse_set, grid, model)
            return out.activation.h_coarse_updated.data[0]

        # feats[k] belongs to the node with the k-th smallest id in both runs,
        # but the ids reverse which order the rows are gathered and summed
        a = run([1, 2, 3])
        b = run([3, 2, 1])
        assert np.max(np.abs(a - np.asarray(b))) < 1e-9

    def test_locality_of_fine_perturbation(self):
        h = default_hierarchy()
        cfg = tiny_config(c_total=6, c_last=4)
        model = GatModel.init(cfg, seed=13)
        graph = build_hierarchical(h)
        fine_set, coarse_set, grid = synth_inputs(h, cfg, seed=13)
        base = forward(graph, fine_set, coarse_set, grid, model)

        bumped = fine_set.fused.data.copy()
        bumped[0] += 1.0  # fine node id 1, parent lungs (id 36)
        fine2 = dataclasses.replace(fine_set, fused=Tensor(bumped), per_layer=[Tensor(bumped)])
        other = forward(graph, fine2, coarse_set, grid, model)

        parent = next(f.parent for f in h.fine if f.id == 1)
        for i, cid in enumerate(coarse_set.region_ids):
            same = np.array_equal(
                base.activation.h_coarse_updated.data[i],
                other.activation.h_coarse_updated.data[i],
            )
            assert same != (cid == parent)
        assert not np.array_equal(
            base.activation.h_global_updated.data,
            other.activation.h_global_updated.data,
        )

    def test_skip_guarantee_exact(self):
        h = small_hierarchy()
        cfg = tiny_config()
        model = GatModel.init(cfg, seed=14)
        for hi in range(cfg.n_heads):
            model.params[f"stage2.head{hi}.w"].data[:] = 0.0
        graph = build_hierarchical(h)
        fine_set, coarse_set, grid = synth_inputs(h, cfg, seed=14)
        out = forward(graph, fine_set, coarse_set, grid, model)
        assert np.array_equal(
            out.activation.h_global_updated.data, out.activation.h_global.data
        )

    def test_invalid_fine_nodes_are_masked_out(self):
        h = small_hierarchy(n_fine=4, n_coarse=2)
        cfg = tiny_config()
        model = GatModel.init(cfg, seed=15)
        graph = build_hierarchical(h)
        fine_set, coarse_set, grid = synth_inputs(h, cfg, seed=15)
        fine_set.valid[:] = [True, False, True, False]
        out = forward(graph, fine_set, coarse_set, grid, model)
        # coarse 10 hosts fine 1, 3; coarse 11 hosts fine 2, 4 (both invalid)
        assert out.activation.alphas["coarse"][10]["members"] == [1, 3, 10]
        assert out.activation.alphas["coarse"][11]["members"] == [11]

    def test_end_to_end_gradients_through_both_stages(self):
        h = small_hierarchy(n_fine=3, n_coarse=2)
        cfg = tiny_config()
        model = GatModel.init(cfg, seed=16)
        graph = build_hierarchical(h)
        rng = np.random.default_rng(16)
        fine_fused = Tensor(rng.standard_normal((3, cfg.c_total)), requires_grad=True)
        coarse_fused = Tensor(rng.standard_normal((2, cfg.c_total)), requires_grad=True)
        grid_data = Tensor(rng.standard_normal((4, 4, 2, cfg.c_last)), requires_grad=True)
        weights = rng.standard_normal((6, cfg.export_dim))

        def loss():
            fine_set = RegionFeatureSet(
                region_ids=[1, 2, 3],
                per_layer=[fine_fused],
                fused=fine_fused,
                counts=np.ones((3, 1), dtype=np.int64),
                valid=np.ones(3, dtype=bool),
            )
            coarse_set = RegionFeatureSet(
                region_ids=[10, 11],
                per_layer=[coarse_fused],
                fused=coarse_fused,
                counts=np.ones((2, 1), dtype=np.int64),
                valid=np.ones(2, dtype=bool),
            )
            grid = GlobalFeatureGrid(grid_data)
            out = forward(graph, fine_set, coarse_set, grid, model)
            return weighted_sum(out.tokens, weights)

        tensors = model.parameters() + [fine_fused, coarse_fused, grid_data]
        assert check_gradients(loss, tensors) < 1e-4


    def test_single_level_global_update_matches_loop_transcription(self):
        h = small_hierarchy(n_fine=4, n_coarse=2)
        cfg = tiny_config()
        model = GatModel.init(cfg, seed=18)
        fine_set, coarse_set, grid = synth_inputs(h, cfg, seed=18)
        fine_set.valid[:] = [True, False, True, True]
        out = forward(build_single_level(h), fine_set, coarse_set, grid, model)

        updated, alphas = loop_attention_stage(
            [out.activation.h_fine.data[i] for i in (0, 2, 3)],
            out.activation.h_global.data[0],
            [(w.data, a.data) for w, a in model.heads("stage2")],
            cfg.slope,
            model.params["stage2.ln.gamma"].data,
            model.params["stage2.ln.beta"].data,
            cfg.ln_eps,
        )
        rec = out.activation.alphas["global"][h.global_id]
        assert rec["members"] == [1, 3, 4, h.global_id]
        assert np.max(np.abs(rec["alpha"] - alphas)) < 1e-10
        expected = updated + out.activation.h_global.data[0]
        assert np.max(np.abs(out.activation.h_global_updated.data[0] - expected)) < 1e-10

    def test_pooled_ids_must_match_the_graph(self):
        cfg = tiny_config()
        model = GatModel.init(cfg, seed=0)
        graph = build_hierarchical(small_hierarchy(n_fine=4, n_coarse=2))
        fine_set, coarse_set, grid = synth_inputs(small_hierarchy(n_fine=3, n_coarse=2), cfg)
        with pytest.raises(ValidationError, match=r"missing: \[4\]"):
            forward(graph, fine_set, coarse_set, grid, model)


def childless_hierarchy():
    """Five fine nodes under coarse 10 and 11; coarse 12 has no children."""
    fine = tuple(FineNode(i, f"f{i}", i, 10 + i % 2) for i in range(1, 6))
    coarse = tuple(CoarseNode(c, f"c{c}") for c in (10, 11, 12))
    return AnatomyHierarchy(fine=fine, coarse=coarse, global_id=30)


class TestBatch:
    @pytest.mark.parametrize("topology", ["hierarchical", "random", "single-level"])
    def test_batched_logits_and_gradients_match_single_samples(self, topology):
        h = childless_hierarchy()
        graph = build_graph(h, topology, seed=3)
        cfg = tiny_config()
        clf = init_gat_classifier(cfg, 3, seed=2)
        samples = [synth_inputs(h, cfg, seed=s) for s in range(5)]
        for k, (fine_set, _, _) in enumerate(samples):
            fine_set.valid[k] = False
        samples[0][1].valid[1] = False
        weights = np.random.default_rng(4).standard_normal((5, 3))

        def gradients(logits):
            for p in clf.parameters():
                p.grad = None
            weighted_sum(logits, weights).backward()
            return [np.zeros_like(p.data) if p.grad is None else p.grad for p in clf.parameters()]

        batched = clf.logits(graph, stack_pooled(samples))
        stacked = concat([clf.logits(graph, s) for s in samples], axis=0)
        assert batched.shape == (5, 3)
        assert np.max(np.abs(batched.data - stacked.data)) <= 1e-12
        for a, b in zip(gradients(batched), gradients(stacked)):
            assert max_relative_error(a, b) <= 1e-10
        assert np.array_equal(
            clf.predict(graph, stack_pooled(samples)), np.concatenate([clf.predict(graph, s) for s in samples])
        )

    def test_training_step_tape_does_not_grow_with_batch(self, monkeypatch):
        h = default_hierarchy()
        graph = build_hierarchical(h)
        cfg = tiny_config(c_total=6, c_last=4)
        clf = init_gat_classifier(cfg, 2, seed=0)
        samples = [synth_inputs(h, cfg, seed=s) for s in range(16)]
        recorded = []
        from_op = tensor_module.from_op

        def counting_from_op(data, parents, backward):
            out = from_op(data, parents, backward)
            recorded.append(out._backward is not None)
            return out

        monkeypatch.setattr(tensor_module, "from_op", counting_from_op)
        nodes = []
        for batch in (samples[:1], samples):
            recorded.clear()
            loss = bce_with_logits(clf.logits(graph, stack_pooled(batch)), np.zeros((len(batch), 2)))
            loss.backward()
            nodes.append(sum(recorded))
        assert nodes[0] == nodes[1] <= 100

    @pytest.mark.parametrize("batch_size", [1, 16])
    def test_training_forward_records_at_most_17_tape_nodes(self, monkeypatch, batch_size):
        h = default_hierarchy()
        graph = build_hierarchical(h)
        cfg = tiny_config(c_total=6, c_last=4)
        clf = init_gat_classifier(cfg, 2, seed=0)
        batch = [synth_inputs(h, cfg, seed=s) for s in range(batch_size)]
        recorded = []
        from_op = tensor_module.from_op

        def counting_from_op(data, parents, backward):
            out = from_op(data, parents, backward)
            recorded.append(out._backward is not None)
            return out

        monkeypatch.setattr(tensor_module, "from_op", counting_from_op)
        bce_with_logits(clf.logits(graph, stack_pooled(batch)), np.zeros((batch_size, 2))).backward()
        assert sum(recorded) <= 17


class TestCheckpoint:
    def test_parent_layout_checkpoint_loads(self, tmp_path):
        # per-head files and config.json exactly as earlier releases wrote them
        cfg = tiny_config()
        shapes = {}
        for prefix, fan_in in (("fine_mlp", 5), ("coarse_mlp", 5), ("global_mlp", 96)):
            shapes.update({f"{prefix}.0.w": (fan_in, 8), f"{prefix}.0.b": (8,)})
        for stage in ("stage1", "stage2"):
            for head in range(2):
                shapes.update({f"{stage}.head{head}.w": (8, 4), f"{stage}.head{head}.a": (8, 1)})
            shapes.update({f"{stage}.ln.gamma": (8,), f"{stage}.ln.beta": (8,)})
        shapes.update({"out.w": (8, 4), "out.b": (4,)})
        rng = np.random.default_rng(19)
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        arrays = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        for name, array in arrays.items():
            save_tensor(ckpt / (name + ".bin"), array, name=name)
        (ckpt / "config.json").write_text(json.dumps({
            "c_total": 5, "c_last": 3, "d_h": 8, "n_heads": 2, "slope": 0.2,
            "mlp_hidden": [], "export_dim": 4, "ln_eps": 1e-6,
        }))
        model = GatModel.load(ckpt)
        assert model.config == cfg
        assert sorted(model.params) == sorted(arrays)
        for name, array in arrays.items():
            assert np.array_equal(model.params[name].data, array)
        h = small_hierarchy()
        out = forward(build_hierarchical(h), *synth_inputs(h, cfg), model)
        assert out.tokens.shape == (7, 4) and np.all(np.isfinite(out.tokens.data))


    @pytest.mark.parametrize("key, value", [("mlp_hidden", [6]), ("slope", 0.3), ("ln_eps", 1e-5)])
    def test_checkpoint_with_a_retired_key_of_another_value_fails_naming_it(self, tmp_path, key, value):
        ckpt = GatModel.init(tiny_config(), seed=0).save(tmp_path / "ckpt")
        doc = json.loads((ckpt / "config.json").read_text())
        (ckpt / "config.json").write_text(json.dumps({**doc, key: value}))
        with pytest.raises(ConfigError, match=f"gat config '{key}'"):
            GatModel.load(ckpt)

    def test_a_written_checkpoint_holds_no_retired_key(self, tmp_path):
        ckpt = GatModel.init(tiny_config(), seed=0).save(tmp_path / "ckpt")
        doc = json.loads((ckpt / "config.json").read_text())
        assert list(doc) == ["c_total", "c_last", "d_h", "n_heads", "export_dim"]  # no retired key

    def test_save_load_round_trip(self, tmp_path):
        cfg = tiny_config()
        model = GatModel.init(cfg, seed=17)
        model.save(tmp_path / "ckpt")
        back = GatModel.load(tmp_path / "ckpt")
        assert back.config == cfg
        for name in model.params:
            assert np.array_equal(back.params[name].data, model.params[name].data)

    def test_load_rejects_an_inf_parameter(self, tmp_path):
        model = GatModel.init(tiny_config(), seed=17)
        model.params["stage1.head0.a"].data[0, 0] = np.inf
        model.save(tmp_path / "ckpt")
        with pytest.raises(ValidationError, match=r"stage1\.head0\.a\.bin"):
            GatModel.load(tmp_path / "ckpt")

    @pytest.mark.parametrize("cfg", [tiny_config(), PAPER_WIDTH], ids=["tiny", "paper"])
    def test_init_equals_the_glorot_formula(self, cfg):
        model = GatModel.init(cfg, seed=21)
        rng = np.random.default_rng(21)  # draws in param_shapes order, matrices only
        for name, shape in GatModel.param_shapes(cfg).items():
            data = model.params[name].data
            if name.endswith((".b", ".beta")):
                assert np.array_equal(data, np.zeros(shape))
            elif name.endswith(".gamma"):
                assert np.array_equal(data, np.ones(shape))
            else:
                assert np.array_equal(data, np.sqrt(2.0 / sum(shape)) * rng.standard_normal(shape))

    def test_paper_width_init_allocates_only_the_parameters(self):
        nbytes = sum(8 * int(np.prod(s)) for s in GatModel.param_shapes(PAPER_WIDTH).values())
        models = []
        extra = traced_peak(lambda: models.append(GatModel.init(PAPER_WIDTH, seed=0)))
        assert sum(p.data.nbytes for p in models[0].parameters()) == nbytes
        assert extra <= 1.05 * nbytes

    def test_parameter_count_deterministic_from_config(self):
        cfg = tiny_config()
        a = GatModel.init(cfg, seed=0)
        b = GatModel.init(cfg, seed=1)
        assert sorted(a.params) == sorted(b.params)
        assert all(a.params[k].shape == b.params[k].shape for k in a.params)
        total = sum(p.size for p in a.parameters())
        expected = sum(
            int(np.prod(s)) for s in GatModel.param_shapes(cfg).values()
        )
        assert total == expected

    def test_config_fields_are_the_sizes_and_the_constants_stay_readable(self):
        assert [f.name for f in dataclasses.fields(GatConfig)] == [
            "c_total", "c_last", "d_h", "n_heads", "export_dim",
        ]
        assert GatConfig.slope == tiny_config().slope == 0.2
        assert GatConfig.ln_eps == tiny_config().ln_eps == 1e-6
        with pytest.raises(TypeError, match="slope"):
            tiny_config(slope=0.2)

    @pytest.mark.parametrize(
        "field, value",
        [("n_heads", True), ("export_dim", True), ("d_h", 0), ("c_total", 0), ("c_last", -1),
         ("d_h", 8.0)],
        ids=["bool-heads", "bool-export", "zero-d_h", "zero-c_total", "negative-c_last", "float-d_h"],
    )
    def test_config_sizes_are_integers_of_at_least_one_naming_the_key(self, field, value):
        with pytest.raises(ConfigError, match=f"gat config '{field}'"):
            tiny_config(**{field: value})

    LEGACY = {"mlp_hidden": [], "slope": 0.2, "ln_eps": 1e-6}  # as every earlier checkpoint holds them

    @pytest.mark.parametrize("retired", [{k: v} for k, v in LEGACY.items()] + [LEGACY], ids=[*LEGACY, "all"])
    def test_config_reads_the_retired_keys_with_their_one_value(self, retired):
        doc = {**dataclasses.asdict(tiny_config()), **retired}
        assert GatConfig.from_json(doc) == tiny_config()
        assert check_gat_doc({"d_h": 8, **retired}) == {"d_h": 8, **retired}
        assert PipelineConfig.from_json({"gat": retired}).gat == retired

    RETIRED_OTHER_VALUES = [
        ("mlp_hidden", [6]), ("mlp_hidden", [True]), ("mlp_hidden", [8, 0]), ("mlp_hidden", [2.5]),
        ("mlp_hidden", None), ("mlp_hidden", {}),
        ("slope", 0.3), ("slope", 1.5), ("slope", 1.0), ("slope", 0.0), ("slope", -0.2),
        ("slope", float("nan")), ("slope", True), ("slope", "0.2"),
        ("ln_eps", 1e-5), ("ln_eps", 0.0), ("ln_eps", -1e-6), ("ln_eps", float("inf")),
        ("ln_eps", float("nan")), ("ln_eps", True), ("ln_eps", "1e-6"),
    ]

    @pytest.mark.parametrize(
        "key, value", RETIRED_OTHER_VALUES, ids=[f"{k}={v!r}" for k, v in RETIRED_OTHER_VALUES]
    )
    def test_config_rejects_a_retired_key_of_another_value_naming_it(self, key, value):
        doc = {**dataclasses.asdict(tiny_config()), key: value}
        with pytest.raises(ConfigError, match=f"gat config '{key}'"):
            GatConfig.from_json(doc)
        with pytest.raises(ConfigError, match=f"gat config '{key}'"):
            PipelineConfig.from_json({"gat": {key: value}})

    def test_d_h_must_divide_heads(self):
        with pytest.raises(Exception):
            GatConfig(c_total=4, c_last=2, d_h=10, n_heads=4)


@pytest.mark.parametrize(
    "sizes",
    [dict(d_h=2**40, n_heads=4), dict(export_dim=2**40), dict(d_h=2**62, n_heads=1)],
    ids=["d_h", "export_dim", "d_h-beyond-any-array"],
)
def test_init_of_sizes_numpy_cannot_allocate_is_a_config_error_naming_them(sizes):
    # numpy refuses each size at once, before taking any memory
    cfg = GatConfig(**{**dict(c_total=56, c_last=32, d_h=16, n_heads=2, export_dim=16), **sizes})
    with pytest.raises(ConfigError) as info:
        GatModel.init(cfg)
    message = str(info.value)
    assert message.startswith(
        f"gat config d_h {cfg.d_h}, n_heads {cfg.n_heads}, export_dim {cfg.export_dim}: "
    )
    assert "cannot be allocated" in message


def test_only_numpy_size_refusals_become_config_errors():
    with pytest.raises(ConfigError, match="^the thing cannot be allocated: array is too big"):
        with allocating("the thing"):
            np.zeros((2**62, 16))
    with pytest.raises(ValueError, match="^another fault$") as info:  # a defect stays a defect
        with allocating("the thing"):
            raise ValueError("another fault")
    assert type(info.value) is ValueError
