"""Metric golden values derived longhand, plus range and invariance properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctgraph.errors import ShapeError
from ctgraph.metrics import bleu_n, macro_prf1, rouge_l, tokenize


class TestTokenize:
    def test_lowercase_and_punctuation_separation(self):
        assert tokenize("No nodules, clean Lungs.") == [
            "no",
            "nodules",
            ",",
            "clean",
            "lungs",
            ".",
        ]

    def test_empty_text(self):
        assert tokenize("") == []


class TestMacroPrf1:
    def test_perfect_predictions(self):
        ref = np.array([[1, 0], [0, 1], [1, 1]])
        scores = macro_prf1(ref, ref)
        assert (scores.precision, scores.recall, scores.f1) == (1.0, 1.0, 1.0)

    def test_all_negative_predictions(self):
        ref = np.array([[1, 0], [1, 1]])
        pred = np.zeros_like(ref)
        scores = macro_prf1(pred, ref)
        assert scores.recall == 0.0
        assert scores.f1 == 0.0

    def test_hand_counted_case(self):
        # class 0: TP=1 FP=1 FN=1 -> P=R=F1=0.5; class 1: perfect
        pred = np.array([[1, 1], [1, 0], [0, 1], [0, 0]])
        ref = np.array([[1, 1], [0, 0], [1, 1], [0, 0]])
        scores = macro_prf1(pred, ref)
        assert scores.per_class_f1[0] == pytest.approx(0.5, abs=1e-15)
        assert scores.per_class_f1[1] == pytest.approx(1.0, abs=1e-15)
        assert scores.f1 == pytest.approx(0.75, abs=1e-15)
        assert scores.precision == pytest.approx(0.75, abs=1e-15)
        assert scores.recall == pytest.approx(0.75, abs=1e-15)

    def test_degenerate_class_flagged(self):
        pred = np.array([[0, 1], [0, 0]])
        ref = np.array([[0, 1], [0, 1]])
        scores = macro_prf1(pred, ref)
        assert scores.degenerate_classes == [0]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            macro_prf1(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_no_class_column_names_the_shape(self):
        with pytest.raises(ShapeError, match=r"\(3, 0\)"):
            macro_prf1(np.zeros((3, 0)), np.zeros((3, 0)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_paired_permutation(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, 2, (6, 4))
        ref = rng.integers(0, 2, (6, 4))
        rows = rng.permutation(6)
        cols = rng.permutation(4)
        base = macro_prf1(pred, ref)
        permuted = macro_prf1(pred[np.ix_(rows, cols)], ref[np.ix_(rows, cols)])
        assert (permuted.precision, permuted.recall, permuted.f1) == pytest.approx(
            (base.precision, base.recall, base.f1), abs=1e-12
        )


class TestBleu:
    def test_identity_scores_one(self):
        tokens = [tokenize("the lungs are clear and expanded")]
        scores = bleu_n(tokens, tokens)
        assert scores == pytest.approx([1.0, 1.0, 1.0, 1.0], abs=1e-15)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_repeated_token_clipping(self):
        # candidate "a a a" vs reference "a b": clipped unigram count 1 of 3;
        # the candidate is longer than the reference, so no brevity penalty
        scores = bleu_n([["a", "a", "a"]], [["a", "b"]])
        assert scores[0] == pytest.approx(1.0 / 3.0, abs=1e-15)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_brevity_penalty_for_short_candidate(self):
        # candidate "a b" vs reference "a b c": p1 = 1, BP = exp(1 - 3/2)
        scores = bleu_n([["a", "b"]], [["a", "b", "c"]])
        assert scores[0] == pytest.approx(math.exp(1.0 - 3.0 / 2.0), abs=1e-15)

    def test_disjoint_vocabulary_scores_zero(self):
        with pytest.warns(UserWarning):
            scores = bleu_n([["x", "y"]], [["a", "b"]])
        assert scores == [0.0, 0.0, 0.0, 0.0]

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_empty_candidate_contributes_zero_counts(self):
        scores = bleu_n([[], ["a"]], [["a"], ["a"]])
        assert scores[0] == pytest.approx(1.0 * math.exp(1.0 - 2.0 / 1.0), abs=1e-15)

    def test_mismatched_corpus_sizes(self):
        with pytest.raises(ShapeError):
            bleu_n([["a"]], [])

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_scores_in_unit_interval_and_monotone_when_premise_holds(self, seed):
        rng = np.random.default_rng(seed)
        vocab = ["a", "b", "c", "d"]
        cands = [
            [vocab[k] for k in rng.integers(0, 4, rng.integers(1, 8))] for _ in range(3)
        ]
        refs = [
            [vocab[k] for k in rng.integers(0, 4, rng.integers(1, 8))] for _ in range(3)
        ]
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scores = bleu_n(cands, refs)
        assert all(0.0 <= s <= 1.0 for s in scores)
        precisions = _modified_precisions(cands, refs)
        premise = all(
            precisions[i] >= precisions[i + 1] for i in range(3)
        ) and all(p > 0 for p in precisions)
        if premise:
            assert all(scores[i] >= scores[i + 1] - 1e-12 for i in range(3))


def _modified_precisions(cands, refs):
    from collections import Counter

    out = []
    for n in range(1, 5):
        clipped = total = 0
        for cand, ref in zip(cands, refs):
            cc = Counter(tuple(cand[i : i + n]) for i in range(len(cand) - n + 1))
            rc = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
            total += sum(cc.values())
            clipped += sum(min(v, rc[k]) for k, v in cc.items())
        out.append(clipped / total if total else 0.0)
    return out


class TestRougeL:
    def test_identical_sequences(self):
        tokens = [tokenize("pleural spaces are clear")]
        assert rouge_l(tokens, tokens) == pytest.approx(1.0, abs=1e-15)

    def test_longhand_lcs_case(self):
        # candidate "a b c d" vs reference "a c d": LCS=3, P=3/4, R=1
        p, r, beta_sq = 0.75, 1.0, 1.2 * 1.2
        expected = (1 + beta_sq) * p * r / (r + beta_sq * p)
        got = rouge_l([["a", "b", "c", "d"]], [["a", "c", "d"]])
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(1.83 / 2.08, abs=1e-12)

    def test_no_common_token(self):
        assert rouge_l([["x"]], [["y"]]) == 0.0

    def test_both_empty_defined_zero(self):
        assert rouge_l([[]], [[]]) == 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_range(self, seed):
        rng = np.random.default_rng(seed)
        vocab = ["a", "b", "c"]
        cand = [[vocab[k] for k in rng.integers(0, 3, rng.integers(0, 6))]]
        ref = [[vocab[k] for k in rng.integers(0, 3, rng.integers(0, 6))]]
        assert 0.0 <= rouge_l(cand, ref) <= 1.0
