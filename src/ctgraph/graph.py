"""Anatomical hierarchy and region-graph construction.

The default table maps 34 fine structures onto 8 coarse systems (bones,
lungs, abdomen, mediastinum, heart, esophagus, trachea, thyroid). It is a
reconstruction assembled for this artifact and fully user-overridable via
anatomy.json. Esophagus, trachea, and thyroid are childless coarse nodes
that carry their own mask label.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from operator import attrgetter

import numpy as np

from .container import read_json, write_json
from .errors import ValidationError, integer, malformed, string
from .volume import MAX_LABEL

LEVEL_FINE = "fine"
LEVEL_COARSE = "coarse"
LEVEL_GLOBAL = "global"

TOPOLOGY_HIERARCHICAL = "hierarchical"
TOPOLOGY_RANDOM = "random"
TOPOLOGY_SINGLE = "single-level"
TOPOLOGIES = (TOPOLOGY_HIERARCHICAL, TOPOLOGY_RANDOM, TOPOLOGY_SINGLE)


@dataclass(frozen=True)
class FineNode:
    id: int
    name: str
    label: int
    parent: int


@dataclass(frozen=True)
class CoarseNode:
    id: int
    name: str
    label: int | None = None  # own mask label for childless systems


@dataclass(frozen=True)
class AnatomyHierarchy:
    fine: tuple[FineNode, ...]
    coarse: tuple[CoarseNode, ...]
    global_id: int

    def __post_init__(self):
        # one node order for every consumer: pooling rows, graph nodes, anatomy.json
        object.__setattr__(self, "fine", tuple(sorted(self.fine, key=attrgetter("id"))))
        object.__setattr__(self, "coarse", tuple(sorted(self.coarse, key=attrgetter("id"))))
        ids = [n.id for n in self.fine] + [n.id for n in self.coarse] + [self.global_id]
        if len(set(ids)) != len(ids):
            raise ValidationError("node ids must be unique across levels")
        coarse_ids = {c.id for c in self.coarse}
        for node in self.fine:
            if node.parent not in coarse_ids:
                raise ValidationError(
                    f"fine node '{node.name}' (id {node.id}) has unknown parent {node.parent}"
                )
        if not self.labels:
            raise ValidationError("a hierarchy needs at least one mask label")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("mask labels must be unique across nodes")
        outside = [label for label in self.labels if not 1 <= label <= MAX_LABEL]
        if outside:
            raise ValidationError(f"mask labels must lie in [1, {MAX_LABEL}], got {outside[0]}")
        # the coarse node owning each slot of `labels`: fine nodes' parents, then own labels
        owners = [f.parent for f in self.fine] + [c.id for c in self.coarse if c.label is not None]
        members = {
            LEVEL_FINE: np.eye(self.num_fine, len(owners), dtype=np.int64),
            LEVEL_COARSE: np.equal.outer([c.id for c in self.coarse], owners).astype(np.int64),
        }
        for matrix in members.values():
            matrix.setflags(write=False)
        object.__setattr__(self, "_members", members)  # not a field: equality ignores it

    @property
    def labels(self) -> list[int]:
        """Mask label per pooling slot: the fine nodes, then the coarse nodes' own labels."""
        return [f.label for f in self.fine] + [c.label for c in self.coarse if c.label is not None]

    def members(self, level: str) -> np.ndarray:
        """Read-only int64 (nodes x labels) 0/1 region matrix of the `fine` or `coarse` nodes:
        a fine node's region is its own label, a coarse node's its children's plus its own."""
        return self._members[level]

    def children_of(self, coarse_id: int) -> list[FineNode]:
        return [f for f in self.fine if f.parent == coarse_id]

    def member_labels(self, coarse_id: int) -> list[int]:
        """Mask labels forming the coarse node's union region."""
        own = [c.label for c in self.coarse if c.id == coarse_id and c.label is not None]
        return [f.label for f in self.children_of(coarse_id)] + own

    @property
    def num_fine(self) -> int:
        return len(self.fine)

    @property
    def num_coarse(self) -> int:
        return len(self.coarse)

    @property
    def max_label(self) -> int:
        return max(self.labels)


@dataclass(frozen=True)
class GraphNode:
    id: int
    level: str


@dataclass(frozen=True)
class RegionGraph:
    """Directed two-level in-tree or ablation variant: one parent per non-global node."""

    nodes: tuple[GraphNode, ...]
    edges: tuple[tuple[int, int], ...]
    topology: str

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ValidationError(f"unknown topology tag '{self.topology}'")
        level_of = {n.id: n.level for n in self.nodes}
        if len(level_of) != len(self.nodes) or list(level_of.values()).count(LEVEL_GLOBAL) != 1:
            raise ValidationError("a region graph needs unique node ids and one global node")
        parents: dict[int, list[int]] = {node_id: [] for node_id in level_of}
        for src, dst in self.edges:
            if src not in level_of or dst not in level_of:
                raise ValidationError(f"edge ({src}, {dst}) names an unknown node")
            parents[src].append(dst)
        fine_parent = LEVEL_GLOBAL if self.topology == TOPOLOGY_SINGLE else LEVEL_COARSE
        want = {LEVEL_FINE: [fine_parent], LEVEL_COARSE: [LEVEL_GLOBAL], LEVEL_GLOBAL: []}
        ids_by_level: dict[str, list[int]] = {level: [] for level in want}
        for node_id, level in level_of.items():
            if [level_of[p] for p in parents[node_id]] != want.get(level):
                raise ValidationError(
                    f"{level} node {node_id}: expected parents at levels {want.get(level)}, "
                    f"found parents {parents[node_id]}"
                )
            ids_by_level[level].append(node_id)
        parent = {node_id: dsts[0] for node_id, dsts in parents.items() if dsts}  # node order
        groups = {}
        for level in (LEVEL_COARSE, LEVEL_GLOBAL):
            slot = {center: i for i, center in enumerate(ids_by_level[level])}
            members = [m for m, p in parent.items() if level_of[p] == level]
            group = np.array([slot[parent[m]] for m in members] + list(slot.values()), dtype=np.intp)
            group.setflags(write=False)
            groups[level] = (tuple(slot), tuple(members), group)
        # kept as attributes, not fields, so graph.json and graph equality ignore them
        object.__setattr__(self, "_ids_by_level", ids_by_level)
        object.__setattr__(self, "_groups", groups)

    def ids_at(self, level: str) -> list[int]:
        return list(self._ids_by_level.get(level, ()))

    def group(self, level: str) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray]:
        """(center ids, member ids, group) of the `coarse` or `global` stage, ids in node
        order. The members have a parent at that level (the global node's are the coarse
        nodes, or a single-level graph's fine). group, read-only intp, gives each row of the
        members, then the centers, its center's index; a center's own row is its self-loop."""
        return self._groups[level]

    @property
    def global_id(self) -> int:
        return self._ids_by_level[LEVEL_GLOBAL][0]

    def children_of(self, node_id: int) -> list[int]:
        return sorted(src for src, dst in self.edges if dst == node_id)


def _in_tree(hierarchy: AnatomyHierarchy, fine_parents: list[int], topology: str) -> RegionGraph:
    """Fine nodes under fine_parents; coarse nodes, but for single-level, under the global node."""
    coarse = () if topology == TOPOLOGY_SINGLE else hierarchy.coarse
    nodes = [GraphNode(f.id, LEVEL_FINE) for f in hierarchy.fine]
    nodes += [GraphNode(c.id, LEVEL_COARSE) for c in coarse]
    nodes.append(GraphNode(hierarchy.global_id, LEVEL_GLOBAL))
    edges = [(f.id, parent) for f, parent in zip(hierarchy.fine, fine_parents)]
    edges += [(c.id, hierarchy.global_id) for c in coarse]
    return RegionGraph(tuple(nodes), tuple(edges), topology)


def build_hierarchical(hierarchy: AnatomyHierarchy) -> RegionGraph:
    """Fine nodes point at their parents, coarse nodes at the global node."""
    return _in_tree(hierarchy, [f.parent for f in hierarchy.fine], TOPOLOGY_HIERARCHICAL)


def build_random(hierarchy: AnatomyHierarchy, seed: int) -> RegionGraph:
    """Same node and edge counts as hierarchical, parents drawn uniformly."""
    coarse_ids = [c.id for c in hierarchy.coarse]
    picks = np.random.default_rng(seed).integers(0, len(coarse_ids), size=hierarchy.num_fine)
    return _in_tree(hierarchy, [coarse_ids[k] for k in picks], TOPOLOGY_RANDOM)


def build_single_level(hierarchy: AnatomyHierarchy) -> RegionGraph:
    """Every fine node connects straight to the global node; no coarse level."""
    return _in_tree(hierarchy, [hierarchy.global_id] * hierarchy.num_fine, TOPOLOGY_SINGLE)


def build_graph(hierarchy: AnatomyHierarchy, topology: str, seed: int = 0) -> RegionGraph:
    builders = {
        TOPOLOGY_HIERARCHICAL: build_hierarchical,
        TOPOLOGY_RANDOM: partial(build_random, seed=seed),
        TOPOLOGY_SINGLE: build_single_level,
    }
    if topology not in builders:
        raise ValidationError(f"unknown topology '{topology}' (known: {TOPOLOGIES})")
    return builders[topology](hierarchy)


# default table ---------------------------------------------------------------

_LUNG_LOBES = (
    "lung_upper_lobe_left",
    "lung_lower_lobe_left",
    "lung_upper_lobe_right",
    "lung_middle_lobe_right",
    "lung_lower_lobe_right",
)
_ABDOMEN = (
    "liver",
    "spleen",
    "stomach",
    "pancreas",
    "gallbladder",
    "kidney_left",
    "kidney_right",
    "adrenal_gland_left",
    "adrenal_gland_right",
    "small_bowel",
    "colon",
    "duodenum",
)
_HEART = (
    "heart_myocardium",
    "heart_atrium_left",
    "heart_atrium_right",
    "heart_ventricle_left",
    "heart_ventricle_right",
)
_MEDIASTINUM = (
    "aorta",
    "pulmonary_artery",
    "vena_cava_superior",
    "vena_cava_inferior",
    "thymus",
    "mediastinal_lymph_nodes",
)
_BONES = (
    "vertebrae",
    "ribs",
    "sternum",
    "scapulae",
    "clavicles",
    "humeri",
)


def default_hierarchy() -> AnatomyHierarchy:
    """34 fine nodes under 5 systems plus 3 childless coarse structures."""
    groups = [
        ("lungs", _LUNG_LOBES),
        ("abdomen", _ABDOMEN),
        ("heart", _HEART),
        ("mediastinum", _MEDIASTINUM),
        ("bones", _BONES),
    ]
    coarse_order = [
        "bones",
        "lungs",
        "abdomen",
        "mediastinum",
        "heart",
        "esophagus",
        "trachea",
        "thyroid",
    ]
    coarse_ids = {name: 35 + i for i, name in enumerate(coarse_order)}
    fine: list[FineNode] = []
    next_id = 1
    for group_name, members in groups:
        for member in members:
            fine.append(
                FineNode(id=next_id, name=member, label=next_id, parent=coarse_ids[group_name])
            )
            next_id += 1
    own_labels = {"esophagus": 35, "trachea": 36, "thyroid": 37}
    coarse = tuple(
        CoarseNode(id=coarse_ids[name], name=name, label=own_labels.get(name))
        for name in coarse_order
    )
    return AnatomyHierarchy(fine=tuple(fine), coarse=coarse, global_id=43)


# serialization ---------------------------------------------------------------


def hierarchy_to_json(hierarchy: AnatomyHierarchy) -> dict:
    """The anatomy.json document; a coarse node without its own label has no "label" key."""
    return {
        "version": 1,
        "fine": [asdict(f) for f in hierarchy.fine],
        "coarse": [{k: v for k, v in asdict(c).items() if v is not None} for c in hierarchy.coarse],
    }


def hierarchy_from_json(doc: dict) -> AnatomyHierarchy:
    with malformed("hierarchy document"):
        fine = tuple(
            FineNode(
                integer(f["id"], "fine id"), string(f["name"], "fine name"),
                integer(f["label"], "fine label"), integer(f["parent"], "fine parent"),
            )
            for f in doc["fine"]
        )
        coarse = tuple(
            CoarseNode(
                integer(c["id"], "coarse id"), string(c["name"], "coarse name"),
                None if c.get("label") is None else integer(c["label"], "coarse label"),
            )
            for c in doc["coarse"]
        )
    global_id = max([f.id for f in fine] + [c.id for c in coarse], default=0) + 1
    return AnatomyHierarchy(fine=fine, coarse=coarse, global_id=global_id)


def load_hierarchy(path) -> AnatomyHierarchy:
    return read_json(path, "hierarchy", hierarchy_from_json)


def save_hierarchy(path, hierarchy: AnatomyHierarchy) -> None:
    write_json(path, hierarchy_to_json(hierarchy))


def graph_to_json(graph: RegionGraph) -> dict:
    return {
        "topology": graph.topology,
        "nodes": [asdict(n) for n in graph.nodes],
        "edges": [[s, d] for s, d in graph.edges],
    }


def graph_from_json(doc: dict) -> RegionGraph:
    with malformed("graph document"):
        nodes = tuple(
            GraphNode(integer(n["id"], "node id"), string(n["level"], "node level")) for n in doc["nodes"]
        )
        edges = tuple(
            (integer(s, "edge endpoint"), integer(d, "edge endpoint")) for s, d in doc["edges"]
        )
        return RegionGraph(nodes, edges, string(doc["topology"], "topology"))


def load_graph(path) -> RegionGraph:
    return read_json(path, "graph", graph_from_json)


def save_graph(path, graph: RegionGraph) -> None:
    write_json(path, graph_to_json(graph))
