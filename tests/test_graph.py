"""Hierarchy validation, edge construction, topology variants, serialization."""

import numpy as np
import pytest

from ctgraph.errors import ValidationError
from ctgraph.graph import (
    LEVEL_COARSE,
    LEVEL_FINE,
    LEVEL_GLOBAL,
    AnatomyHierarchy,
    CoarseNode,
    FineNode,
    build_hierarchical,
    build_random,
    build_single_level,
    default_hierarchy,
    graph_from_json,
    graph_to_json,
    hierarchy_from_json,
    hierarchy_to_json,
)

COARSE_NAMES = {
    "bones",
    "lungs",
    "abdomen",
    "mediastinum",
    "heart",
    "esophagus",
    "trachea",
    "thyroid",
}


def tiny_hierarchy():
    return AnatomyHierarchy(
        fine=(FineNode(1, "a", 1, 10),),
        coarse=(CoarseNode(10, "sys"),),
        global_id=11,
    )


class TestDefaultTable:
    def test_node_and_edge_counts(self):
        h = default_hierarchy()
        assert h.num_fine == 34
        assert h.num_coarse == 8
        graph = build_hierarchical(h)
        fine_edges = [e for e in graph.edges if e[1] != h.global_id]
        global_edges = [e for e in graph.edges if e[1] == h.global_id]
        assert len(fine_edges) == 34
        assert len(global_edges) == 8
        assert len(graph.nodes) == 43

    def test_coarse_names(self):
        h = default_hierarchy()
        assert {c.name for c in h.coarse} == COARSE_NAMES

    def test_childless_coarse_nodes_have_own_labels(self):
        h = default_hierarchy()
        for name in ("esophagus", "trachea", "thyroid"):
            node = next(c for c in h.coarse if c.name == name)
            assert h.children_of(node.id) == []
            assert node.label is not None

    def test_every_fine_node_has_one_parent(self):
        h = default_hierarchy()
        graph = build_hierarchical(h)
        out_degree = {}
        for src, _ in graph.edges:
            out_degree[src] = out_degree.get(src, 0) + 1
        for node in graph.nodes:
            if node.level != LEVEL_GLOBAL:
                assert out_degree[node.id] == 1

    def test_in_tree_paths_to_global_have_length_at_most_two(self):
        h = default_hierarchy()
        graph = build_hierarchical(h)
        parents = dict(graph.edges)
        for node in graph.nodes:
            if node.level == LEVEL_GLOBAL:
                continue
            steps = 0
            cur = node.id
            while cur != h.global_id:
                cur = parents[cur]
                steps += 1
                assert steps <= 2
            assert steps >= 1


class TestBuilders:
    def test_one_fine_one_coarse_chain(self):
        graph = build_hierarchical(tiny_hierarchy())
        assert graph.edges == ((1, 10), (10, 11))

    def test_childless_coarse_contributes_only_global_edge(self):
        h = AnatomyHierarchy(
            fine=(FineNode(1, "a", 1, 10),),
            coarse=(CoarseNode(10, "sys"), CoarseNode(11, "standalone", label=2)),
            global_id=12,
        )
        graph = build_hierarchical(h)
        edges_from_11 = [e for e in graph.edges if e[0] == 11]
        edges_to_11 = [e for e in graph.edges if e[1] == 11]
        assert edges_from_11 == [(11, 12)]
        assert edges_to_11 == []

    def test_membership_matrices_and_attention_groups(self):
        h = AnatomyHierarchy(
            fine=(FineNode(2, "b", 5, 10), FineNode(1, "a", 4, 10)),
            coarse=(CoarseNode(10, "sys"), CoarseNode(11, "standalone", label=7)),
            global_id=12,
        )
        assert h.labels == [4, 5, 7]
        assert h.members(LEVEL_FINE).tolist() == [[1, 0, 0], [0, 1, 0]]
        assert h.members(LEVEL_COARSE).tolist() == [[1, 1, 0], [0, 0, 1]]
        graph = build_hierarchical(h)
        groups = [
            graph.group(LEVEL_COARSE), graph.group(LEVEL_GLOBAL),
            build_single_level(h).group(LEVEL_GLOBAL),
        ]
        # each row's center, members then centers: a center's own row is its self-loop
        assert [(centers, members, group.tolist()) for centers, members, group in groups] == [
            ((10, 11), (1, 2), [0, 0, 0, 1]),
            ((12,), (10, 11), [0, 0, 0]),
            ((12,), (1, 2), [0, 0, 0]),
        ]
        assert all(g[2].dtype == np.intp for g in groups)
        matrices = [h.members(LEVEL_FINE), h.members(LEVEL_COARSE)] + [g[2] for g in groups]
        assert not any(m.flags.writeable for m in matrices)

    def test_random_same_seed_identical(self):
        h = default_hierarchy()
        assert build_random(h, 99).edges == build_random(h, 99).edges
        assert build_random(h, 99).edges != build_random(h, 100).edges

    def test_random_edge_count_matches_hierarchical(self):
        h = default_hierarchy()
        assert len(build_random(h, 0).edges) == len(build_hierarchical(h).edges)

    def test_random_parent_frequencies_near_uniform(self):
        h = default_hierarchy()
        coarse_ids = [c.id for c in h.coarse]
        counts = {cid: 0 for cid in coarse_ids}
        n_seeds = 1000
        for seed in range(n_seeds):
            graph = build_random(h, seed)
            for src, dst in graph.edges:
                if dst != h.global_id:
                    counts[dst] += 1
        n_picks = n_seeds * h.num_fine
        p = 1.0 / len(coarse_ids)
        sigma = np.sqrt(n_picks * p * (1 - p))
        for cid in coarse_ids:
            assert abs(counts[cid] - n_picks * p) <= 5 * sigma

    def test_single_level_counts(self):
        h = default_hierarchy()
        graph = build_single_level(h)
        assert len(graph.edges) == 34
        assert len(graph.nodes) == 35
        assert all(n.level != LEVEL_COARSE for n in graph.nodes)
        assert all(dst == h.global_id for _, dst in graph.edges)

    def test_single_level_single_fine(self):
        graph = build_single_level(tiny_hierarchy())
        assert graph.edges == ((1, 11),)


class TestValidation:
    def test_orphan_fine_node(self):
        with pytest.raises(ValidationError, match="unknown parent"):
            AnatomyHierarchy(
                fine=(FineNode(1, "a", 1, 99),),
                coarse=(CoarseNode(10, "sys"),),
                global_id=11,
            )

    def test_duplicate_ids(self):
        with pytest.raises(ValidationError, match="unique"):
            AnatomyHierarchy(
                fine=(FineNode(1, "a", 1, 10), FineNode(1, "b", 2, 10)),
                coarse=(CoarseNode(10, "sys"),),
                global_id=11,
            )

    def test_duplicate_labels(self):
        with pytest.raises(ValidationError, match="labels"):
            AnatomyHierarchy(
                fine=(FineNode(1, "a", 1, 10), FineNode(2, "b", 1, 10)),
                coarse=(CoarseNode(10, "sys"),),
                global_id=11,
            )

    @pytest.mark.parametrize(
        "coarse", [(), (CoarseNode(10, "sys"),)], ids=["no-nodes", "coarse-without-label"]
    )
    def test_hierarchy_without_a_mask_label_rejected(self, coarse):
        with pytest.raises(ValidationError, match="at least one mask label"):
            AnatomyHierarchy(fine=(), coarse=coarse, global_id=11)

    def test_coarse_only_hierarchy_with_own_labels_is_valid(self):
        coarse = (CoarseNode(10, "a", 3), CoarseNode(12, "b", 1))
        h = AnatomyHierarchy(fine=(), coarse=coarse, global_id=13)
        assert h.labels == [3, 1] and h.max_label == 3
        assert hierarchy_from_json(hierarchy_to_json(h)) == h

    @pytest.mark.parametrize(
        "fine_label, coarse_label",
        [(2**40, None), (1, 2**40), (0, None), (-1, None)],
        ids=["huge-fine", "huge-coarse", "background", "negative"],
    )
    def test_labels_outside_1_to_65535_rejected(self, fine_label, coarse_label):
        # pooling indexes tables by label: 2**40 would size one at 8 TiB, -1 wraps
        with pytest.raises(ValidationError, match="label"):
            AnatomyHierarchy(
                fine=(FineNode(1, "a", fine_label, 10),),
                coarse=(CoarseNode(10, "sys"), CoarseNode(12, "own", coarse_label)),
                global_id=11,
            )

    @pytest.mark.parametrize(
        "removed, added, message",
        [
            ([], [[1, 35]], "fine node 1:"),
            ([[1, 36]], [], "fine node 1:"),
            ([[1, 36]], [[1, 43]], "fine node 1:"),
            ([[35, 43]], [], "coarse node 35:"),
            ([], [[43, 35]], "global node 43:"),
            ([], [[99, 43]], "unknown node"),
        ],
        ids=["two-parents", "orphan", "fine-to-global", "no-global-edge", "global-parent", "unknown"],
    )
    def test_region_graph_validates_structure(self, removed, added, message):
        doc = graph_to_json(build_hierarchical(default_hierarchy()))
        doc["edges"] = [e for e in doc["edges"] if e not in removed] + added
        with pytest.raises(ValidationError, match=message):
            graph_from_json(doc)

    def test_single_level_fine_nodes_point_at_global(self):
        doc = graph_to_json(build_single_level(tiny_hierarchy()))
        doc["nodes"].insert(1, {"id": 10, "level": LEVEL_COARSE})
        doc["edges"] = [[1, 10], [10, 11]]
        with pytest.raises(ValidationError, match="fine node 1:"):
            graph_from_json(doc)


class TestSerialization:
    def test_hierarchy_round_trip_loss_free(self):
        h = default_hierarchy()
        again = hierarchy_from_json(hierarchy_to_json(h))
        assert again == h

    def test_graph_round_trip(self):
        for builder in (build_hierarchical, build_single_level):
            graph = builder(default_hierarchy())
            again = graph_from_json(graph_to_json(graph))
            assert again == graph

    def test_graph_json_rejects_none_topology(self):
        doc = graph_to_json(build_hierarchical(tiny_hierarchy()))
        doc["topology"] = "none"
        with pytest.raises(ValidationError, match="none"):
            graph_from_json(doc)

    @pytest.mark.parametrize("value", [1.5, 10.0, True, "10"], ids=["fraction", "whole-float", "bool", "string"])
    @pytest.mark.parametrize(
        "level, key", [("fine", "id"), ("fine", "label"), ("fine", "parent"), ("coarse", "id"),
                       ("coarse", "label")],
    )
    def test_hierarchy_json_integer_fields_take_only_integers(self, level, key, value):
        doc = hierarchy_to_json(tiny_hierarchy())
        doc[level][0][key] = value
        with pytest.raises(ValidationError, match=rf"{level} {key} must be an integer, got {value!r}"):
            hierarchy_from_json(doc)

    @pytest.mark.parametrize("value", [1.5, 10.0, True, "10"], ids=["fraction", "whole-float", "bool", "string"])
    @pytest.mark.parametrize("where", ["node id", "edge endpoint"])
    def test_graph_json_integer_fields_take_only_integers(self, where, value):
        doc = graph_to_json(build_hierarchical(tiny_hierarchy()))
        if where == "node id":
            doc["nodes"][1]["id"] = value
        else:
            doc["edges"][0][1] = value
        with pytest.raises(ValidationError, match=rf"{where} must be an integer, got {value!r}"):
            graph_from_json(doc)

    def test_levels_present(self):
        graph = build_hierarchical(default_hierarchy())
        assert len(graph.ids_at(LEVEL_FINE)) == 34
        assert len(graph.ids_at(LEVEL_COARSE)) == 8
        assert len(graph.ids_at(LEVEL_GLOBAL)) == 1
