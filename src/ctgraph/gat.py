"""Hierarchical graph attention over the anatomy graph.

Stage 1 updates each coarse node from its fine children plus a self-loop;
stage 2 updates the global node from its children (the coarse nodes, or the
fine nodes of a single-level graph) plus a self-loop, and adds a skip
connection back to the original global embedding. Both run `_attend`, one
attention stage over the graph's edges and a batch axis: the members' and
centers' rows are layer-normalized together and passed to
`tensor.graph_attention`, one tape node for all heads. Each head's attention
vector splits as a = [a_src; a_dst], so member j scores
LeakyReLU(a_src.Wh_j + a_dst.Wh_i) for center i (the GAT rule on
[Wh_j || Wh_i]); a softmax over each center's group, its valid members and
its self-loop, weights the projected members. Head outputs are concatenated.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from numbers import Integral
from pathlib import Path
from typing import ClassVar

import numpy as np

from .container import check_keys, check_values, ensure_dir, load_tensor, read_json, save_tensor, write_json
from .errors import ConfigError, ShapeError, ValidationError, malformed
from .graph import LEVEL_COARSE, LEVEL_FINE, LEVEL_GLOBAL, TOPOLOGY_SINGLE, RegionGraph
from .pooling import GLOBAL_GRID
from .tensor import LEAKY_SLOPE, LN_EPS, Tensor, add, concat, graph_attention, layer_norm, linear
from .tensor import reshape, stack

# Keys that earlier releases wrote into every GAT config, each with the one value they took.
RETIRED_KEYS = {"mlp_hidden": [], "slope": 0.2, "ln_eps": 1e-6}


@dataclass(frozen=True)
class GatConfig:
    c_total: int
    c_last: int
    d_h: int = 256
    n_heads: int = 4
    export_dim: int = 64
    slope: ClassVar[float] = LEAKY_SLOPE
    ln_eps: ClassVar[float] = LN_EPS

    def __post_init__(self):
        size = (Integral, "an integer >= 1", lambda v: v >= 1)
        check_values(self, "gat config", {f.name: size for f in fields(self)})
        if self.d_h % self.n_heads:
            raise ValidationError(
                f"d_h ({self.d_h}) must be divisible by n_heads ({self.n_heads})"
            )

    @property
    def d_head(self) -> int:
        return self.d_h // self.n_heads

    @property
    def fan_in(self) -> dict[str, int]:
        """Each node level's input width: the fused pooled layers, or the flattened global grid."""
        global_in = math.prod(GLOBAL_GRID) * self.c_last
        return {LEVEL_FINE: self.c_total, LEVEL_COARSE: self.c_total, LEVEL_GLOBAL: global_in}

    @classmethod
    def from_json(cls, doc: dict, **widths) -> "GatConfig":
        """Config from a JSON object such as a checkpoint's config.json; widths
        (c_total, c_last) come from the data and must not appear in doc.

        A key of RETIRED_KEYS is read with its one value, and any other rejected.
        """
        sizes = check_keys(doc, {f.name for f in fields(cls)} - set(widths), "gat config", RETIRED_KEYS)
        with malformed("gat config"):
            return cls(**sizes, **widths)


class GatModel:
    """Node embeddings, per-head attention parameters, LayerNorms, output projection.

    Each level's node embedding is one affine map, `{level}_mlp.0.w` and `.0.b`;
    the names keep the checkpoint file layout.
    """

    def __init__(self, config: GatConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    @classmethod
    def param_shapes(cls, config: GatConfig) -> dict[str, tuple[int, ...]]:
        shapes: dict[str, tuple[int, ...]] = {}
        for level, k in config.fan_in.items():
            shapes[f"{level}_mlp.0.w"] = (k, config.d_h)
            shapes[f"{level}_mlp.0.b"] = (config.d_h,)
        for stage in ("stage1", "stage2"):
            for h in range(config.n_heads):
                shapes[f"{stage}.head{h}.w"] = (config.d_h, config.d_head)
                shapes[f"{stage}.head{h}.a"] = (2 * config.d_head, 1)
            shapes[f"{stage}.ln.gamma"] = (config.d_h,)
            shapes[f"{stage}.ln.beta"] = (config.d_h,)
        shapes["out.w"] = (config.d_h, config.export_dim)
        shapes["out.b"] = (config.export_dim,)
        return shapes

    @classmethod
    def init(cls, config: GatConfig, seed: int = 0) -> "GatModel":
        rng = np.random.default_rng(seed)
        params: dict[str, Tensor] = {}
        for name, shape in cls.param_shapes(config).items():
            try:
                if name.endswith(".b") or name.endswith(".beta"):
                    data = np.zeros(shape)
                elif name.endswith(".gamma"):
                    data = np.ones(shape)
                else:  # every other parameter is a matrix: Glorot normal, scaled in place
                    data = rng.standard_normal(shape)
                    data *= np.sqrt(2.0 / sum(shape))
            except (ValueError, MemoryError) as exc:  # more bytes than the machine addresses
                raise ConfigError(
                    f"gat config d_h {config.d_h}, n_heads {config.n_heads}, export_dim "
                    f"{config.export_dim}: parameter '{name}' of shape {shape} cannot be allocated: {exc}"
                ) from exc
            params[name] = Tensor(data, requires_grad=True)
        return cls(config, params)

    def parameters(self) -> list[Tensor]:
        return [self.params[name] for name in sorted(self.params)]

    def heads(self, stage: str) -> list[tuple[Tensor, Tensor]]:
        return [
            (self.params[f"{stage}.head{h}.w"], self.params[f"{stage}.head{h}.a"])
            for h in range(self.config.n_heads)
        ]

    def save(self, directory) -> Path:
        out = ensure_dir(directory)
        write_json(out / "config.json", asdict(self.config))
        for name, tensor in self.params.items():
            save_tensor(out / (name + ".bin"), tensor.data, name=name)
        return out

    @classmethod
    def load(cls, directory) -> "GatModel":
        directory = Path(directory)
        config = read_json(directory / "config.json", "checkpoint config", GatConfig.from_json)
        params = {}
        for name, shape in cls.param_shapes(config).items():
            array, _ = load_tensor(directory / (name + ".bin"))
            if tuple(array.shape) != tuple(shape):
                raise ValidationError(
                    f"checkpoint parameter '{name}' has shape {array.shape}, expected {shape}"
                )
            params[name] = Tensor(array, requires_grad=True)
        return cls(config, params)


@dataclass
class GraphActivation:
    """Embeddings, updated features, and per-(node, head) attention tables."""

    h_fine: Tensor
    h_coarse: Tensor | None
    h_global: Tensor
    h_coarse_updated: Tensor | None
    h_global_updated: Tensor
    alphas: dict[str, dict] = field(default_factory=dict)  # stage level -> center -> table


@dataclass
class GatForward:
    tokens: Tensor  # (n_tokens, export_dim)
    token_ids: list[int]
    activation: GraphActivation


def embed_nodes(model: GatModel, features: dict[str, Tensor]) -> dict[str, Tensor]:
    """Affine embedding of each level's input rows, keyed by level; every row comes out
    with width d_h. A level's width must be its `GatConfig.fan_in`."""
    embedded, fan_in, p = {}, model.config.fan_in, model.params
    for level, rows in features.items():
        if rows.shape[-1] != fan_in[level]:
            raise ShapeError(f"{level} features have width {rows.shape[-1]}, config expects {fan_in[level]}")
        embedded[level] = linear(rows, p[f"{level}_mlp.0.w"], p[f"{level}_mlp.0.b"])
    return embedded


def _attend(graph, level, h_members, h_centers, valid, model, stage):
    """One attention stage over the edges of `graph.group(level)`: centers <- members.

    h_members (B, members, d_h) and h_centers (B, centers, d_h) hold rows in
    the group's member / center order; valid (B, members) flags present members.
    The rows are layer-normalized together, centers last, and attended by
    `graph_attention` with the stage's heads over each center's valid children
    plus its self-loop. Returns the updated (B, centers, d_h) centers and, for
    B = 1, the table {center: {"members": ids, "alpha": (n_heads, group)}},
    self-loop last.
    """
    center_ids, member_ids, group = graph.group(level)
    b, n_centers = h_centers.shape[0], len(center_ids)
    valid = np.concatenate([np.reshape(valid, (b, len(member_ids))), np.ones((b, n_centers), bool)], 1)
    gamma, beta = model.params[f"{stage}.ln.gamma"], model.params[f"{stage}.ln.beta"]
    rows = layer_norm(concat([h_members, h_centers], axis=1), gamma, beta)
    updated, alpha = graph_attention(rows, model.heads(stage), group, valid, n_centers)
    alphas, node_ids = {}, member_ids + center_ids
    for i, center in enumerate(center_ids if b == 1 else ()):  # tables for one sample only
        edges = np.flatnonzero((group == i) & valid[0])  # members in order, self-loop last
        alphas[center] = {"members": [node_ids[j] for j in edges], "alpha": alpha[0, edges].T}
    return updated, alphas


def attend_fine_to_coarse(
    graph: RegionGraph, h_fine: Tensor, h_coarse: Tensor, model: GatModel, fine_valid
):
    """Stage-1 update of every coarse node; childless nodes keep only the self-loop."""
    return _attend(graph, LEVEL_COARSE, h_fine, h_coarse, fine_valid, model, "stage1")


def attend_coarse_to_global(
    graph: RegionGraph, h_coarse_updated: Tensor, h_global: Tensor, model: GatModel, coarse_valid
):
    """Stage-2 update of the global node from its children, plus the identity skip.

    The children are the coarse nodes, or the fine nodes of a single-level graph.
    """
    updated, alphas = _attend(
        graph, LEVEL_GLOBAL, h_coarse_updated, h_global, coarse_valid, model, "stage2"
    )
    return add(updated, h_global), alphas


def propagate(graph: RegionGraph, fine_sets, coarse_sets, grids, model: GatModel) -> GraphActivation:
    """Check region ids, embed and attend B samples' pooled sets (equal-length sequences).

    Every row carries a leading batch axis; alphas tables are filled for B = 1 only.
    """
    single_level = graph.topology == TOPOLOGY_SINGLE
    levels = {LEVEL_FINE: fine_sets} if single_level else {LEVEL_FINE: fine_sets, LEVEL_COARSE: coarse_sets}
    inputs, valid = {}, {}
    for level, sets in levels.items():
        ids = graph.ids_at(level)
        for feature_set in sets:
            found = list(feature_set.region_ids)
            if found != ids:
                raise ValidationError(
                    f"pooled {level} region ids {found} do not match the graph's {level} "
                    f"nodes {ids} (missing: {sorted(set(ids) - set(found))})"
                )
        inputs[level] = stack([s.fused for s in sets])
        valid[level] = np.stack([s.valid for s in sets])
    inputs[LEVEL_GLOBAL] = stack([g.flat() for g in grids])
    h = embed_nodes(model, inputs)
    h_f, h_c, h_g = h[LEVEL_FINE], h.get(LEVEL_COARSE), h[LEVEL_GLOBAL]

    alphas: dict[str, dict] = {}
    h_c_prime, children, children_valid = None, h_f, valid[LEVEL_FINE]  # single-level: fine -> global
    if not single_level:
        h_c_prime, alphas["coarse"] = attend_fine_to_coarse(graph, h_f, h_c, model, valid[LEVEL_FINE])
        children, children_valid = h_c_prime, valid[LEVEL_COARSE]
    h_g_prime, alphas["global"] = attend_coarse_to_global(graph, children, h_g, model, children_valid)
    return GraphActivation(h_f, h_c, h_g, h_c_prime, h_g_prime, alphas=alphas)


def forward(graph: RegionGraph, fine_set, coarse_set, grid, model: GatModel) -> GatForward:
    """Full pass over one sample's pooled sets: `propagate`, then project export tokens.

    Tokens are ordered global, then coarse by id, then fine by id; fine
    tokens carry the pre-normalization embeddings.
    """
    act = propagate(graph, [fine_set], [coarse_set], [grid], model)
    levels = [LEVEL_FINE] if act.h_coarse is None else [LEVEL_COARSE, LEVEL_FINE]
    token_ids = [graph.global_id] + [i for level in levels for i in graph.ids_at(level)]
    rows = [t for t in (act.h_global_updated, act.h_coarse_updated, act.h_fine) if t is not None]
    tokens = linear(concat(rows, axis=1), model.params["out.w"], model.params["out.b"])
    outputs = [tokens, act.h_fine, act.h_coarse, act.h_global, act.h_coarse_updated, act.h_global_updated]
    tokens, *hidden = [None if t is None else reshape(t, t.shape[1:]) for t in outputs]
    return GatForward(tokens, token_ids, GraphActivation(*hidden, alphas=act.alphas))
