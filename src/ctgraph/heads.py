"""Task heads: linear probing, a graph classifier, and token export.

`AffineHead` is the one affine layer. The probe trains it with per-label
binary cross-entropy on frozen features; the graph classifier puts it on
the updated global embedding from `gat.propagate` and backpropagates
through both attention stages, building no export tokens. Token export
packages the node tokens that `gat.forward` projects together with the
generation prompt for a downstream language model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .container import check_keys, check_values, load_records, load_tensor, open_input, open_output
from .container import save_tensor, save_tensors
from .errors import ConfigError, ShapeError, ValidationError, malformed, number
from .gat import GatConfig, GatForward, GatModel, propagate
from .graph import RegionGraph
from .metrics import MacroScores, macro_prf1
from .pooling import GlobalFeatureGrid, RegionFeatureSet
from .tensor import AdamW, Tensor, bce_with_logits, linear, no_grad, reshape, _sigmoid_np

DEFAULT_PROMPT = (
    "Generate a medical report based on the visual information of the given CT image."
)

GRANULARITIES = ("global", "coarse", "fine", "fused")


@dataclass
class TrainConfig:
    batch_size: int = 32
    epochs: int = 40
    lr: float = 1e-4
    weight_decay: float = 1e-4
    seed: int = 0
    threshold: float = 0.5
    val_fraction: float = 0.1

    def __post_init__(self):
        check_values(self, "train config", {
            "batch_size": (Integral, "an integer >= 1", lambda v: v >= 1),
            "epochs": (Integral, "an integer >= 0", lambda v: v >= 0),
            "seed": (Integral, "an integer >= 0", lambda v: v >= 0),
            "lr": (Real, "a finite number > 0", lambda v: 0 < v < math.inf),
            "weight_decay": (Real, "a finite number >= 0", lambda v: 0 <= v < math.inf),
            "threshold": (Real, "a number in [0, 1]", lambda v: 0 <= v <= 1),
            "val_fraction": (Real, "a number in [0, 1)", lambda v: 0 <= v < 1),
        })

    @classmethod
    def for_gat(cls, **overrides) -> "TrainConfig":
        """Graph classifier defaults (lr 5e-5) under the given overrides."""
        return cls.from_json(overrides, head="gat")

    @classmethod
    def from_json(cls, doc: dict, head: str = "probe", seed: int = 0) -> "TrainConfig":
        """Config to train the "probe" or "gat" head (lr 5e-5), seeded by seed unless doc
        sets one; rejects unknown keys and a "mode" key naming the other head.
        """
        check_keys(doc, {*cls.__dataclass_fields__, "mode"}, "train config")
        fields = dict(doc)
        if fields.pop("mode", head) != head:
            raise ConfigError(f"train config mode '{doc['mode']}' does not match the {head} head")
        defaults = {"lr": 5e-5} if head == "gat" else {}
        return cls(**{**defaults, "seed": seed, **fields})


@dataclass
class AffineHead:
    """One affine layer with a decision threshold: the probe and the classifier head.

    Its file holds "weight" and "bias" records, the threshold in the weight's meta.
    """

    weight: Tensor
    bias: Tensor
    threshold: float = 0.5

    def logits(self, x) -> Tensor:
        return linear(x, self.weight, self.bias)

    def predict(self, x) -> np.ndarray:
        """0/1 labels of the rows of x; records no tape."""
        with no_grad():
            logits = self.logits(x).data
        return (_sigmoid_np(logits) >= self.threshold).astype(np.int32)

    def save(self, path) -> None:
        save_tensors(
            path,
            {"weight": self.weight.data, "bias": self.bias.data},
            meta={"weight": {"threshold": self.threshold}},
        )

    @classmethod
    def load(cls, path) -> "AffineHead":
        records = load_records(path)
        with malformed(f"head file {path}"):  # another container misses 'weight' or 'bias'
            arrays = {name: arr for name, arr, _ in records}
            weight, bias = arrays["weight"], arrays["bias"]
            threshold = number(records[0][2].get("meta", {}).get("threshold", 0.5), f"{path}: threshold")
        if not 0.0 <= threshold <= 1.0:
            raise ValidationError(f"{path}: threshold must lie in [0, 1], got {threshold}")
        if weight.ndim != 2 or bias.shape != weight.shape[1:]:
            raise ValidationError(
                f"{path}: head weight {weight.shape} and bias {bias.shape} do not form an affine layer"
            )
        return cls(Tensor(weight, requires_grad=True), Tensor(bias, requires_grad=True), threshold)


def build_probe_features(
    fine_set: RegionFeatureSet,
    coarse_set: RegionFeatureSet,
    grid: GlobalFeatureGrid,
    granularity: str = "fine",
    layer: int | None = None,
) -> np.ndarray:
    """Flatten pooled features into one probe input vector.

    granularity names the region sets that feed the probe ("fused": fine then
    coarse); each gives its fused rows, or its rows at encoder layer k when
    layer=k. "global" gives the flattened global grid.
    """
    if granularity not in GRANULARITIES:
        raise ValidationError(f"unknown granularity '{granularity}' (known: {GRANULARITIES})")
    if layer is not None and layer >= len(fine_set.per_layer):
        raise ValidationError(
            f"layer {layer} out of range for {len(fine_set.per_layer)} pyramid layers"
        )
    if granularity == "global":
        return grid.grid.data.ravel().copy()
    sets = {"fine": [fine_set], "coarse": [coarse_set], "fused": [fine_set, coarse_set]}
    return np.concatenate(
        [(s.fused if layer is None else s.per_layer[layer]).data.ravel() for s in sets[granularity]]
    )


def train_probe(features: np.ndarray, targets: np.ndarray, cfg: TrainConfig):
    """Train a linear probe; returns (model, per-epoch metric trace, info).

    Deterministic for a fixed cfg.seed. Classes with no positive validation
    sample keep the 0-convention F1 and are listed in info["degenerate_classes"].
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if features.ndim != 2 or targets.ndim != 2 or len(features) != len(targets):
        raise ShapeError(
            f"expected aligned 2-d features/targets, got {features.shape} and {targets.shape}"
        )
    n_classes = targets.shape[1]
    weight = Tensor(np.zeros((features.shape[1], n_classes)), requires_grad=True)
    model = AffineHead(weight, Tensor(np.zeros(n_classes), requires_grad=True), cfg.threshold)

    def batch_logits(batch):
        return model.logits(features[batch])

    def predict(indices):
        return model.predict(features[indices])

    trace, info = fit([model.weight, model.bias], batch_logits, predict, targets, cfg)
    return model, trace, info


def fit(parameters: list[Tensor], batch_logits, predict, targets: np.ndarray, cfg: TrainConfig):
    """The training loop shared by both heads; returns (per-epoch trace, info).

    batch_logits(indices) gives the logits Tensor of those samples, trained
    with per-label binary cross-entropy; predict(indices) gives their 0/1
    predictions. The shuffled split (validation takes the trailing fraction)
    and every epoch's batch order come from one generator seeded with
    cfg.seed, so a fixed config gives the same trace. F1 is scored on the
    validation samples, or on every sample when none is held out; their
    indices are info["scored_indices"]. AdamW steps the parameters the first
    batch's backward reaches (never the GAT's export projection). A non-finite
    batch loss raises ValidationError naming the epoch and batch before that
    batch's backward.
    """
    n = len(targets)
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(n)
    n_val = 0
    if cfg.val_fraction > 0 and n > 1:
        n_val = min(n - 1, max(1, int(round(n * cfg.val_fraction))))
    train_idx, val_idx = perm[: n - n_val], perm[n - n_val :]
    scored_idx = val_idx if len(val_idx) else np.arange(n)
    optimizer = None

    def val_scores() -> MacroScores:
        return macro_prf1(predict(scored_idx), targets[scored_idx].astype(np.int32))

    trace: list[dict] = []
    scores = None
    for epoch in range(cfg.epochs):
        order = rng.permutation(train_idx) if len(train_idx) else train_idx
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss = bce_with_logits(batch_logits(batch), targets[batch])
            value = loss.item()
            if not math.isfinite(value):
                raise ValidationError(
                    f"training loss is {value} at epoch {epoch}, batch {n_batches}: "
                    "the features or the learning rate give non-finite logits"
                )
            for p in parameters:
                p.grad = None
            loss.backward()
            if optimizer is None:
                reached = [p for p in parameters if p.grad is not None]
                optimizer = AdamW(reached, lr=cfg.lr, weight_decay=cfg.weight_decay)
            optimizer.step()
            epoch_loss += value
            n_batches += 1
        scores = val_scores()
        trace.append(
            {
                "epoch": epoch,
                "loss": epoch_loss / max(n_batches, 1),
                "precision": scores.precision,
                "recall": scores.recall,
                "f1": scores.f1,
            }
        )
    final = val_scores() if scores is None else scores
    info = {
        "degenerate_classes": final.degenerate_classes,
        "train_size": int(len(train_idx)),
        "val_size": int(len(val_idx)),
        "scored_indices": scored_idx.tolist(),
    }
    return trace, info


@dataclass
class GatClassifier:
    """Graph attention model plus an affine head on the updated global node."""

    gat: GatModel
    head: AffineHead

    def parameters(self) -> list[Tensor]:
        return self.gat.parameters() + [self.head.weight, self.head.bias]

    def logits(self, graph: RegionGraph, sample) -> Tensor:
        """(B, n_classes) logits of one pooled sample (B = 1) or a list of B, in one forward."""
        batch = [sample] if isinstance(sample[0], RegionFeatureSet) else sample
        h = propagate(graph, *zip(*batch), self.gat).h_global_updated  # no export tokens
        return self.head.logits(reshape(h, (len(batch), self.gat.config.d_h)))

    def predict(self, graph: RegionGraph, sample) -> np.ndarray:
        """0/1 labels: (n_classes,) for one sample, (B, n_classes) for a list of B; no tape."""
        with no_grad():
            logits = self.logits(graph, sample).data
        labels = (_sigmoid_np(logits) >= self.head.threshold).astype(np.int32)
        return labels[0] if isinstance(sample[0], RegionFeatureSet) else labels

    def save(self, directory) -> Path:
        out = self.gat.save(directory)
        self.head.save(out / "head.bin")
        return out

    @classmethod
    def load(cls, directory) -> "GatClassifier":
        return cls(GatModel.load(directory), AffineHead.load(Path(directory) / "head.bin"))


def init_gat_classifier(
    gat_config: GatConfig, n_classes: int, seed: int = 0, threshold: float = 0.5
) -> GatClassifier:
    gat = GatModel.init(gat_config, seed=seed)
    rng = np.random.default_rng([seed, 1])
    head_w = rng.standard_normal((gat_config.d_h, n_classes)) * np.sqrt(
        2.0 / (gat_config.d_h + n_classes)
    )
    bias = Tensor(np.zeros(n_classes), requires_grad=True)
    return GatClassifier(gat, AffineHead(Tensor(head_w, requires_grad=True), bias, threshold))


def train_gat_classifier(
    samples: list,
    targets: np.ndarray,
    graph: RegionGraph,
    gat_config: GatConfig,
    cfg: TrainConfig,
):
    """Train the graph classifier end to end through both attention stages.

    samples: list of (fine_set, coarse_set, grid) pooled triples sharing one
    topology. Returns (classifier, per-epoch trace, info).
    """
    targets = np.asarray(targets, dtype=np.float64)
    if len(samples) != len(targets):
        raise ShapeError(f"{len(samples)} samples but {len(targets)} target rows")
    clf = init_gat_classifier(
        gat_config, targets.shape[1], seed=cfg.seed, threshold=cfg.threshold
    )

    def batch_logits(batch):
        return clf.logits(graph, [samples[i] for i in batch])

    def predict(indices):
        return clf.predict(graph, [samples[i] for i in indices])

    trace, info = fit(clf.parameters(), batch_logits, predict, targets, cfg)
    return clf, trace, info


# token export ----------------------------------------------------------------


@dataclass
class TokenExport:
    """Projected node tokens (global, coarse, fine order) plus the prompt."""

    tokens: np.ndarray  # (n_tokens, export_dim)
    token_ids: list[int]
    prompt: str = DEFAULT_PROMPT


def export_tokens(fwd: GatForward, prompt: str = DEFAULT_PROMPT) -> TokenExport:
    return TokenExport(
        tokens=fwd.tokens.data.copy(), token_ids=list(fwd.token_ids), prompt=prompt
    )


def save_token_export(path, export: TokenExport) -> None:
    save_tensor(
        path,
        export.tokens,
        name="tokens",
        meta={"prompt": export.prompt, "token_ids": export.token_ids},
    )


def load_token_export(path) -> TokenExport:
    array, header = load_tensor(path)
    meta = header.get("meta") or {}
    return TokenExport(
        tokens=array,
        token_ids=[int(i) for i in meta.get("token_ids", [])],
        prompt=meta.get("prompt", DEFAULT_PROMPT),
    )


# dataset manifests -----------------------------------------------------------


def write_manifest(path, records: list[dict]) -> None:
    with open_output(path) as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def read_manifest(path, required=("feature_file", "labels")) -> list[dict]:
    """Non-empty JSONL file of objects, each holding the required keys.

    Dataset manifests need feature_file and labels; evaluation records need
    id. Wherever a record has labels, they are a list of 0/1 integers as long
    as the first such record's; wherever it has text or feature_file, that is
    a string; no two records have ids of the same text. Any defect raises
    ConfigError naming path:line.
    """
    records = []
    width = None  # label count of the first record that has labels
    id_lines: dict[str, int] = {}  # id text -> line it is first seen on
    with open_input(path, "JSONL file", "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError) as exc:  # also bytes that are not UTF-8
                raise ConfigError(f"{path}:{line_no}: invalid JSONL record: {exc}") from exc
            if not isinstance(record, dict):
                raise ConfigError(f"{path}:{line_no}: JSONL record is not an object")
            for key in required:
                if key not in record:
                    raise ConfigError(f"{path}:{line_no}: record misses '{key}'")
            for key in ("text", "feature_file"):
                if key in record and not isinstance(record[key], str):
                    raise ConfigError(f"{path}:{line_no}: {key} must be a string, got {record[key]!r}")
            if "id" in record:
                first = id_lines.setdefault(str(record["id"]), line_no)
                if first != line_no:
                    raise ConfigError(f"{path}:{line_no}: id {record['id']!r} repeats line {first}'s id")
            if "labels" in record:
                labels = record["labels"]
                if not isinstance(labels, list) or any(
                    type(v) is not int or v not in (0, 1) for v in labels
                ):
                    raise ConfigError(
                        f"{path}:{line_no}: labels must be a list of 0/1 integers, got {labels!r}"
                    )
                if width is None:
                    width = len(labels)
                elif len(labels) != width:
                    raise ConfigError(
                        f"{path}:{line_no}: {len(labels)} labels, but the first labelled "
                        f"record has {width}"
                    )
            records.append(record)
    if not records:
        raise ConfigError(f"{path}: empty manifest")
    return records
