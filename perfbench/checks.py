"""Correctness checks for the benchmark's outputs, with their oracles.

Every check returns a list of problems; an empty list means the output is
correct. The rescan pooling oracle and the loop attention oracle are
independent transcriptions of the ones in tests/test_pooling.py and
tests/test_gat.py, kept here so the benchmark does not import the test
suite.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from ctgraph.tensor import SOFTMAX_SUM_ATOL

# Same bound as the pooling oracle tests and criterion 2.
POOL_ATOL = 1e-9
# Loop vs vectorized attention; criterion 4 uses 1e-10 at small widths.
ATTENTION_ATOL = 1e-9


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ingest ----------------------------------------------------------------------


def pooled_reload_problems(pooled, reloaded) -> list[str]:
    """The pooled container must read back bit-exact."""
    problems = []
    for prefix, ours, theirs in zip(("fine", "coarse"), pooled[:2], reloaded[:2]):
        if list(ours.region_ids) != list(theirs.region_ids):
            problems.append(f"{prefix} region ids changed on reload")
        if len(ours.per_layer) != len(theirs.per_layer):
            problems.append(f"{prefix} layer count changed on reload")
            continue
        for layer, (a, b) in enumerate(zip(ours.per_layer, theirs.per_layer)):
            if not bit_equal(a.data, b.data):
                problems.append(f"{prefix} layer {layer} is not bit-exact after reload")
        if not np.array_equal(ours.counts, theirs.counts):
            problems.append(f"{prefix} counts changed on reload")
        if not np.array_equal(ours.valid, theirs.valid):
            problems.append(f"{prefix} valid flags changed on reload")
    if not bit_equal(pooled[2].grid.data, reloaded[2].grid.data):
        problems.append("global grid is not bit-exact after reload")
    return problems


def nearest_resize(labels: np.ndarray, target) -> np.ndarray:
    """Voxel-center nearest neighbour: src = floor((t + 0.5) * src / tgt)."""
    index = [
        np.clip(np.floor((np.arange(t) + 0.5) * s / t).astype(np.intp), 0, s - 1)
        for s, t in zip(labels.shape, target)
    ]
    return labels[np.ix_(*index)]


def rescan(features: np.ndarray, labels: np.ndarray, groups) -> tuple[np.ndarray, np.ndarray]:
    """Mean feature row per label group, scanning the whole layer once per group."""
    flat_features = features.reshape(-1, features.shape[-1])
    flat_labels = labels.ravel()
    means = np.zeros((len(groups), flat_features.shape[1]))
    counts = np.zeros(len(groups), dtype=np.int64)
    for slot, group in enumerate(groups):
        member = np.isin(flat_labels, group)
        counts[slot] = member.sum()
        if counts[slot]:
            means[slot] = flat_features[member].mean(axis=0)
    return means, counts


def rescan_problems(pyramid, mask, hierarchy, fine, coarse) -> list[str]:
    """Fine rows equal the per-label rescan; coarse rows the member-union rescan."""
    fine_groups = [[n.label] for n in sorted(hierarchy.fine, key=lambda n: n.id)]
    coarse_groups = [
        hierarchy.member_labels(n.id) for n in sorted(hierarchy.coarse, key=lambda n: n.id)
    ]
    problems = []
    for layer, level in enumerate(pyramid.layers):
        features = level.data.data
        labels = nearest_resize(mask.labels, features.shape[:3])
        for prefix, rset, groups in (("fine", fine, fine_groups), ("coarse", coarse, coarse_groups)):
            means, counts = rescan(features, labels, groups)
            if not np.array_equal(counts, rset.counts[:, layer]):
                problems.append(f"{prefix} layer {layer}: voxel counts differ from the rescan oracle")
            worst = float(np.max(np.abs(rset.per_layer[layer].data - means)))
            if not worst <= POOL_ATOL:
                problems.append(
                    f"{prefix} layer {layer}: means differ from the rescan oracle by {worst:.3g}"
                )
    return problems


def union_problems(hierarchy, fine, coarse) -> list[str]:
    """Coarse rows equal the count-weighted union of their member fine rows.

    Coarse nodes with a mask label of their own have no fine row for that
    region, so only the rescan oracle covers them.
    """
    slot_of = {node_id: slot for slot, node_id in enumerate(fine.region_ids)}
    problems = []
    for ci, node_id in enumerate(coarse.region_ids):
        cnode = next(c for c in hierarchy.coarse if c.id == node_id)
        if cnode.label is not None:
            continue
        slots = [slot_of[f.id] for f in hierarchy.children_of(node_id)]
        for layer, rows in enumerate(fine.per_layer):
            counts = fine.counts[slots, layer].astype(np.float64)
            if counts.sum() != coarse.counts[ci, layer]:
                problems.append(f"coarse {node_id} layer {layer}: count is not the member sum")
                continue
            if counts.sum() == 0:
                continue
            union = (counts[:, None] * rows.data[slots]).sum(axis=0) / counts.sum()
            worst = float(np.max(np.abs(coarse.per_layer[layer].data[ci] - union)))
            if not worst <= POOL_ATOL:
                problems.append(
                    f"coarse {node_id} layer {layer}: differs from the member union by {worst:.3g}"
                )
    return problems


# infer -----------------------------------------------------------------------


def token_problems(graph, export, reloaded) -> list[str]:
    """Tokens are finite, ordered global/coarse/fine, and reload bit-exact."""
    problems = []
    expected = [graph.global_id] + sorted(graph.ids_at("coarse")) + sorted(graph.ids_at("fine"))
    if list(export.token_ids) != expected:
        problems.append("token ids are not in global, coarse, fine order")
    if export.tokens.shape[0] != len(expected):
        problems.append(f"{export.tokens.shape[0]} token rows for {len(expected)} nodes")
    if not np.all(np.isfinite(export.tokens)):
        problems.append("tokens contain non-finite values")
    if not bit_equal(export.tokens, reloaded.tokens):
        problems.append("token container is not bit-exact after reload")
    if list(reloaded.token_ids) != list(export.token_ids) or reloaded.prompt != export.prompt:
        problems.append("token ids or prompt changed on reload")
    return problems


def attention_problems(alphas: dict) -> list[str]:
    """Every attention row (one center, one head) sums to 1."""
    atol = SOFTMAX_SUM_ATOL["float64"]
    problems = []
    for stage, table in alphas.items():
        for center, record in table.items():
            sums = np.asarray(record["alpha"]).sum(axis=1)
            worst = float(np.max(np.abs(sums - 1.0)))
            if not worst <= atol:
                problems.append(f"{stage} center {center}: attention row sums off by {worst:.3g}")
    return problems


def _loop_layer_norm(v, gamma, beta, eps):
    mu = sum(v) / len(v)
    var = sum((x - mu) ** 2 for x in v) / len(v)
    return gamma * (v - mu) / np.sqrt(var + eps) + beta


def loop_attention_stage(member_rows, center_row, heads, slope, gamma, beta, eps):
    """Explicit-loop attention update of one center; the self-loop comes last."""
    group = [_loop_layer_norm(m, gamma, beta, eps) for m in member_rows]
    center = _loop_layer_norm(center_row, gamma, beta, eps)
    group.append(center)
    outputs, alphas = [], []
    for w, a in heads:
        center_proj = center @ w
        scores = []
        for v in group:
            s = float(a.ravel() @ np.concatenate([v @ w, center_proj]))
            scores.append(s if s > 0 else slope * s)
        exps = [math.exp(s) for s in scores]
        z = sum(exps)
        alpha = [e / z for e in exps]
        outputs.append(sum(al * (v @ w) for al, v in zip(alpha, group)))
        alphas.append(alpha)
    return np.concatenate(outputs), np.array(alphas)


def attention_oracle_problems(graph, activation, model, fine_valid, coarse_valid) -> list[str]:
    """Both hierarchical stages equal the loop transcription of the update rule."""
    cfg = model.config
    p = {name: t.data for name, t in model.params.items()}

    def stage_args(stage):
        heads = [(p[f"{stage}.head{h}.w"], p[f"{stage}.head{h}.a"]) for h in range(cfg.n_heads)]
        return heads, cfg.slope, p[f"{stage}.ln.gamma"], p[f"{stage}.ln.beta"], cfg.ln_eps

    fine_ids = graph.ids_at("fine")
    coarse_ids = graph.ids_at("coarse")
    fine_row = {fid: row for fid, row, ok in zip(fine_ids, activation.h_fine.data, fine_valid) if ok}
    problems = []
    worst = 0.0
    for ci, cid in enumerate(coarse_ids):
        members = [fine_row[f] for f in graph.children_of(cid) if f in fine_row]
        expected, alpha = loop_attention_stage(
            members, activation.h_coarse.data[ci], *stage_args("stage1")
        )
        worst = max(
            worst,
            float(np.max(np.abs(activation.h_coarse_updated.data[ci] - expected))),
            float(np.max(np.abs(activation.alphas["coarse"][cid]["alpha"] - alpha))),
        )
    coarse_rows = [
        row for row, ok in zip(activation.h_coarse_updated.data, coarse_valid) if ok
    ]
    h_global = activation.h_global.data[0]
    expected, alpha = loop_attention_stage(coarse_rows, h_global, *stage_args("stage2"))
    worst = max(
        worst,
        float(np.max(np.abs(activation.h_global_updated.data[0] - (expected + h_global)))),
        float(np.max(np.abs(activation.alphas["global"][graph.global_id]["alpha"] - alpha))),
    )
    if not worst <= ATTENTION_ATOL:
        problems.append(f"attention differs from the loop oracle by {worst:.3g}")
    return problems


# train -----------------------------------------------------------------------


def loss_problems(trace: list[dict], epochs: int) -> list[str]:
    """Every epoch's loss is finite and the last is below the first."""
    losses = [record["loss"] for record in trace]
    if len(losses) != epochs:
        return [f"{len(losses)} epoch records for {epochs} epochs"]
    if not all(math.isfinite(loss) for loss in losses):
        return [f"non-finite epoch loss in {losses}"]
    if not losses[-1] < losses[0]:
        return [f"last epoch loss {losses[-1]:.6g} is not below the first {losses[0]:.6g}"]
    return []


# demo ------------------------------------------------------------------------


def demo_problems(code: int, out_dir: Path, reference: dict | None) -> tuple[list[str], dict | None]:
    """Exit code 0, no STALE marker, summary metrics equal to the reference run's."""
    problems = []
    if code != 0:
        problems.append(f"ct-graph run exited with code {code}")
    if (out_dir / "STALE").exists():
        problems.append("the run left a STALE marker")
    summary_path = out_dir / "summary.json"
    if not summary_path.is_file():
        return problems + ["the run wrote no summary.json"], None
    with open(summary_path, "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    if reference is not None and summary.get("metrics") != reference:
        problems.append("summary metrics differ from the first run with the same seed")
    return problems, summary
