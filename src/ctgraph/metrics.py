"""Classification and text-overlap metrics.

macro_prf1 treats every class equally and uses the 0-convention when a
denominator vanishes. BLEU is corpus-level modified n-gram precision with
the standard brevity penalty and no smoothing: a zero higher-order count
zeroes the score (with a warning). ROUGE-L combines LCS precision and
recall with beta = 1.2.
"""

from __future__ import annotations

import math
import re
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

_PUNCT = re.compile(r"([^\w\s])")
BLEU_MAX_N = 4  # bleu_n scores BLEU-1..BLEU-4
ROUGE_BETA = 1.2  # rouge_l's recall weight


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace after separating punctuation."""
    return _PUNCT.sub(r" \1 ", text.lower()).split()


@dataclass
class MacroScores:
    precision: float
    recall: float
    f1: float
    per_class_precision: list[float]
    per_class_recall: list[float]
    per_class_f1: list[float]
    degenerate_classes: list[int]


def macro_prf1(pred: np.ndarray, ref: np.ndarray) -> MacroScores:
    """Unweighted class mean of per-class precision/recall/F1 on binary matrices."""
    pred = np.asarray(pred)
    ref = np.asarray(ref)
    if pred.shape != ref.shape:
        raise ShapeError(f"prediction shape {pred.shape} != reference shape {ref.shape}")
    if pred.ndim != 2 or not pred.shape[1]:
        raise ShapeError(f"label matrices must be 2-d (samples x classes) with a class, got {pred.shape}")
    pred = pred.astype(bool)
    ref = ref.astype(bool)
    tp = (pred & ref).sum(axis=0).astype(float)
    fp = (pred & ~ref).sum(axis=0).astype(float)
    fn = (~pred & ref).sum(axis=0).astype(float)

    def safe(num, den):
        return [n / d if d > 0 else 0.0 for n, d in zip(num, den)]

    precision = safe(tp, tp + fp)
    recall = safe(tp, tp + fn)
    f1 = [
        2 * p * r / (p + r) if (p + r) > 0 else 0.0 for p, r in zip(precision, recall)
    ]
    degenerate = [int(c) for c in np.nonzero(ref.sum(axis=0) == 0)[0]]
    return MacroScores(
        precision=float(np.mean(precision)),
        recall=float(np.mean(recall)),
        f1=float(np.mean(f1)),
        per_class_precision=precision,
        per_class_recall=recall,
        per_class_f1=f1,
        degenerate_classes=degenerate,
    )


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_n(candidates: list[list[str]], references: list[list[str]]) -> list[float]:
    """Corpus BLEU-1..BLEU-4, each with uniform weights over its orders 1..k.

    Candidates and references are aligned token sequences, one reference per
    candidate. Empty candidates contribute zero counts rather than failing.
    """
    if not candidates or len(candidates) != len(references):
        raise ShapeError(
            f"need equally many candidates and references, got "
            f"{len(candidates)} and {len(references)}"
        )
    clipped = np.zeros(BLEU_MAX_N, dtype=np.int64)
    totals = np.zeros(BLEU_MAX_N, dtype=np.int64)
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, BLEU_MAX_N + 1):
            cand_counts = _ngrams(cand, n)
            ref_counts = _ngrams(ref, n)
            totals[n - 1] += sum(cand_counts.values())
            clipped[n - 1] += sum(
                min(count, ref_counts[gram]) for gram, count in cand_counts.items()
            )
    precisions = [
        clipped[i] / totals[i] if totals[i] > 0 else 0.0 for i in range(BLEU_MAX_N)
    ]
    brevity = 1.0 if cand_len > ref_len else (
        math.exp(1.0 - ref_len / cand_len) if cand_len > 0 else 0.0
    )
    scores = []
    for k in range(1, BLEU_MAX_N + 1):
        if any(precisions[i] == 0.0 for i in range(k)):
            if totals[k - 1] > 0:
                warnings.warn(
                    f"BLEU-{k}: a zero n-gram precision zeroes the unsmoothed score",
                    stacklevel=2,
                )
            scores.append(0.0)
            continue
        log_mean = sum(math.log(precisions[i]) for i in range(k)) / k
        scores.append(brevity * math.exp(log_mean))
    return scores


def _lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(candidates: list[list[str]], references: list[list[str]]) -> float:
    """Mean per-sample LCS F-measure; a pair of empty sequences scores 0."""
    if not candidates or len(candidates) != len(references):
        raise ShapeError(
            f"need equally many candidates and references, got "
            f"{len(candidates)} and {len(references)}"
        )
    beta_sq = ROUGE_BETA * ROUGE_BETA
    scores = []
    for cand, ref in zip(candidates, references):
        lcs = _lcs_length(cand, ref)
        p = lcs / len(cand) if cand else 0.0
        r = lcs / len(ref) if ref else 0.0
        denom = r + beta_sq * p
        scores.append((1 + beta_sq) * p * r / denom if denom > 0 else 0.0)
    return float(np.mean(scores))
