"""Tensor op contracts: forward values, error paths, and gradient checks."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctgraph.errors import ShapeError
from ctgraph.gradcheck import check_gradients, max_relative_error, numerical_gradient
from ctgraph.tensor import (
    SOFTMAX_SUM_ATOL,
    AdamW,
    Tensor,
    add,
    bce_with_logits,
    concat,
    graph_attention,
    layer_norm,
    leaky_relu,
    linear,
    mlp_forward,
    no_grad,
    reshape,
    stack,
)
import ctgraph.tensor as tensor_module


def weighted_sum(t, w) -> Tensor:
    """sum(t * w) for an array w of t's size, as a (1, 1) Tensor: a scalar loss built
    from the model's own ops. t's gradient is exactly w."""
    return linear(reshape(t, (1, -1)), np.reshape(w, (-1, 1)))


class TestMatmul:
    """`linear` without a bias is the engine's matrix product."""

    def test_identity(self):
        eye = Tensor(np.eye(2))
        m = Tensor([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(linear(eye, m).data, m.data)

    def test_row_times_column(self):
        out = linear(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.shape == (1, 1)
        assert out.data[0, 0] == 11.0

    def test_against_triple_loop(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 4))
        b = rng.standard_normal((4, 3))
        expected = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        out = linear(Tensor(a), Tensor(b)).data
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            linear(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))

    def test_gradients(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        err = check_gradients(lambda: weighted_sum(linear(a, b), np.ones((3, 2))), [a, b])
        assert err < 1e-4

    @pytest.mark.parametrize(
        "lead", [(1, 3), (4, 3), (1, 2, 3), (2, 3, 3)], ids=["3d-B1", "3d-B4", "4d-B1", "4d-B2"]
    )
    def test_flattened_weight_gradient_matches_per_sample_sum(self, lead):
        rng = np.random.default_rng(len(lead) * 10 + lead[0])
        x = Tensor(rng.standard_normal(lead + (4,)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        weights = rng.standard_normal(lead + (5,))
        assert check_gradients(lambda: weighted_sum(linear(x, w), weights), [x, w]) < 1e-6
        rows, g = x.data.reshape(-1, 4), weights.reshape(-1, 5)
        oracle = sum(np.outer(r, gr) for r, gr in zip(rows, g))
        assert np.max(np.abs(w.grad - oracle)) < 1e-12
        assert np.max(np.abs(x.grad - weights @ w.data.T)) < 1e-12


class TestLinear:
    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4)], ids=["2d", "3d"])
    def test_gradients(self, shape):
        rng = np.random.default_rng(len(shape))
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal(5), requires_grad=True)
        weights = rng.standard_normal(shape[:-1] + (5,))
        assert check_gradients(lambda: weighted_sum(linear(x, w, b), weights), [x, w, b]) < 1e-6
        assert check_gradients(lambda: weighted_sum(linear(x, w), weights), [x, w]) < 1e-6

    def test_forward_is_matmul_plus_bias(self):
        rng = np.random.default_rng(5)
        x, w, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2)), rng.standard_normal(2)
        assert np.array_equal(linear(Tensor(x), Tensor(w), Tensor(b)).data, x @ w + b)
        batched = rng.standard_normal((2, 3, 4))
        out = linear(Tensor(batched), Tensor(w), Tensor(b)).data
        assert out.shape == (2, 3, 2)
        assert np.max(np.abs(out - (batched @ w + b))) < 1e-12

    def test_input_without_grad_gets_none(self):
        x = Tensor(np.ones((2, 3)))
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        weighted_sum(linear(x, w), np.ones((2, 2))).backward()
        assert x.grad is None and np.array_equal(w.grad, np.full((3, 2), 2.0))

    @pytest.mark.parametrize(
        "x, w, b",
        [((2, 3), (4, 2), (2,)), ((2, 3), (3, 2), (3,)), ((2, 3), (3, 2, 1), None)],
        ids=["inner", "bias", "3d-weight"],
    )
    def test_shape_errors_name_the_shapes(self, x, w, b):
        with pytest.raises(ShapeError, match="linear"):
            linear(Tensor(np.ones(x)), Tensor(np.ones(w)), b if b is None else Tensor(np.ones(b)))


class TestLeakyRelu:
    def test_zero_is_fixed_point(self):
        assert leaky_relu(Tensor([0.0]), 0.2).data[0] == 0.0

    def test_negative_definition(self):
        assert leaky_relu(Tensor([-2.0]), 0.2).data[0] == pytest.approx(-0.4)

    def test_gradient_at_negative_one_equals_slope(self):
        x = Tensor([-1.0], requires_grad=True)
        weighted_sum(leaky_relu(x, 0.2), [1.0]).backward()
        numeric = numerical_gradient(lambda: weighted_sum(leaky_relu(x, 0.2), [1.0]), x, h=1e-6)
        assert x.grad[0] == pytest.approx(0.2)
        assert numeric[0] == pytest.approx(0.2, rel=1e-6)

    def test_slope_must_be_in_unit_interval(self):
        with pytest.raises(ValueError):
            leaky_relu(Tensor([1.0]), 1.5)


class TestLayerNorm:
    def _ones_zeros(self, d):
        return Tensor(np.ones(d)), Tensor(np.zeros(d))

    def test_constant_vector_maps_to_zeros(self):
        gamma, beta = self._ones_zeros(5)
        out = layer_norm(Tensor(np.full(5, 3.7)), gamma, beta)
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_already_standardized(self):
        gamma, beta = self._ones_zeros(2)
        out = layer_norm(Tensor([1.0, -1.0]), gamma, beta)
        assert np.max(np.abs(out.data - np.array([1.0, -1.0]))) <= 1e-6

    def test_random_statistics(self):
        rng = np.random.default_rng(16)
        x = Tensor(2.0 * rng.standard_normal(16))
        gamma, beta = self._ones_zeros(16)
        out = layer_norm(x, gamma, beta).data
        assert abs(out.mean()) <= 1e-9
        assert 1 - 1e-6 <= out.var() <= 1.0

    def test_gradients(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        gamma = Tensor(rng.standard_normal(6), requires_grad=True)
        beta = Tensor(rng.standard_normal(6), requires_grad=True)
        weights = rng.standard_normal((3, 6))
        err = check_gradients(
            lambda: weighted_sum(layer_norm(x, gamma, beta), weights), [x, gamma, beta]
        )
        assert err < 1e-4


    def test_gradients_on_3d_input(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((2, 3, 6)), requires_grad=True)
        gamma = Tensor(rng.standard_normal(6), requires_grad=True)
        beta = Tensor(rng.standard_normal(6), requires_grad=True)
        weights = rng.standard_normal((2, 3, 6))
        err = check_gradients(
            lambda: weighted_sum(layer_norm(x, gamma, beta), weights), [x, gamma, beta]
        )
        assert err < 1e-4


class TestMlpForward:
    def test_zero_weights_emit_bias(self):
        layers = [(Tensor(np.zeros((3, 2))), Tensor([1.5, -2.0]))]
        out = mlp_forward(Tensor([[7.0, 8.0, 9.0]]), layers)
        assert np.allclose(out.data, [[1.5, -2.0]])

    def test_identity_single_layer(self):
        layers = [(Tensor(np.eye(4)), Tensor(np.zeros(4)))]
        x = np.random.default_rng(0).standard_normal((2, 4))
        out = mlp_forward(Tensor(x), layers)
        assert np.array_equal(out.data, x)

    def test_two_layer_matches_composition_oracle(self):
        rng = np.random.default_rng(21)
        w1, b1 = rng.standard_normal((4, 8)), rng.standard_normal(8)
        w2, b2 = rng.standard_normal((8, 3)), rng.standard_normal(3)
        x = rng.standard_normal((5, 4))
        layers = [(Tensor(w1), Tensor(b1)), (Tensor(w2), Tensor(b2))]
        out = mlp_forward(Tensor(x), layers, slope=0.2).data

        hidden = x @ w1 + b1
        hidden = np.where(hidden > 0, hidden, 0.2 * hidden)
        expected = hidden @ w2 + b2
        assert np.array_equal(out, expected)

    def test_dimension_chain_break(self):
        layers = [
            (Tensor(np.zeros((4, 8))), Tensor(np.zeros(8))),
            (Tensor(np.zeros((7, 3))), Tensor(np.zeros(3))),
        ]
        with pytest.raises(ShapeError, match=r"linear: input \(1, 8\), weight \(7, 3\)"):
            mlp_forward(Tensor(np.zeros((1, 4))), layers)

    def test_gradients(self):
        rng = np.random.default_rng(2)
        layers = [
            (Tensor(rng.standard_normal((4, 6)), requires_grad=True),
             Tensor(rng.standard_normal(6), requires_grad=True)),
            (Tensor(rng.standard_normal((6, 2)), requires_grad=True),
             Tensor(rng.standard_normal(2), requires_grad=True)),
        ]
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        params = [x] + [t for pair in layers for t in pair]
        weights = rng.standard_normal((3, 2))
        assert check_gradients(lambda: weighted_sum(mlp_forward(x, layers), weights), params) < 1e-4


class TestAdamW:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        before = p.data.copy()
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        p.grad = np.zeros(2)
        opt.step()
        assert np.array_equal(p.data, before)

    def test_descends_on_square(self):
        w = Tensor([1.0], requires_grad=True)
        opt = AdamW([w], lr=0.05)
        w.grad = 2.0 * w.data  # the gradient of w^2
        opt.step()
        assert abs(w.data[0]) < 1.0

    def test_three_steps_match_hand_trace(self):
        # f(w) = 2 w0^2 + 0.5 w1^2, grad = (4 w0, w1)
        lr, wd, b1, b2, eps = 0.1, 0.01, 0.9, 0.999, 1e-8
        w = Tensor([1.0, -3.0], requires_grad=True)
        opt = AdamW([w], lr=lr, betas=(b1, b2), eps=eps, weight_decay=wd)

        ref = [1.0, -3.0]
        m = [0.0, 0.0]
        v = [0.0, 0.0]
        for t in range(1, 4):
            grads = [4.0 * ref[0], 1.0 * ref[1]]
            w.grad = np.array([4.0, 1.0]) * w.data
            opt.step()
            for i in range(2):
                m[i] = b1 * m[i] + (1 - b1) * grads[i]
                v[i] = b2 * v[i] + (1 - b2) * grads[i] ** 2
                m_hat = m[i] / (1 - b1**t)
                v_hat = v[i] / (1 - b2**t)
                ref[i] = ref[i] - lr * (m_hat / (math.sqrt(v_hat) + eps) + wd * ref[i])
            assert np.allclose(w.data, ref, atol=1e-12), f"diverged at step {t}"

    def test_deterministic_given_state(self):
        def run():
            p = Tensor([0.5, 0.25], requires_grad=True)
            opt = AdamW([p], lr=0.01, weight_decay=0.1)
            for _ in range(5):
                p.grad = 2.0 * p.data  # the gradient of the sum of p^2
                opt.step()
            return p.data

        assert np.array_equal(run(), run())


class TestAdamWFlatBuffer:
    @staticmethod
    def loop_reference(params, grads_per_step, lr, betas, eps, weight_decay):
        """The per-parameter AdamW loop the flat step replaced, as the oracle."""
        beta1, beta2 = betas
        data = [p.copy() for p in params]
        state = [{"m": np.zeros_like(p), "v": np.zeros_like(p)} for p in params]
        for t, grads in enumerate(grads_per_step, start=1):
            for i, (g, st) in enumerate(zip(grads, state)):
                st["m"] = beta1 * st["m"] + (1.0 - beta1) * g
                st["v"] = beta2 * st["v"] + (1.0 - beta2) * (g * g)
                m_hat = st["m"] / (1.0 - beta1**t)
                v_hat = st["v"] / (1.0 - beta2**t)
                data[i] = data[i] - lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * data[i])
        return data

    def test_equals_the_per_parameter_loop_bit_for_bit(self):
        rng = np.random.default_rng(31)
        shapes = [(3, 4), (4,), (1,), (2, 2, 3)]
        start = [rng.standard_normal(s) for s in shapes]
        steps = [
            [rng.standard_normal(s) * 10.0 ** rng.integers(-6, 2) for s in shapes] for _ in range(12)
        ]
        settings = dict(lr=3e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=1e-4)
        params = [Tensor(p.copy(), requires_grad=True) for p in start]
        opt = AdamW(params, **settings)
        for grads in steps:
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
        expected = self.loop_reference(start, steps, **settings)
        for p, e in zip(params, expected):
            assert np.array_equal(p.data, e)
        assert opt.t == 12

    def test_parameter_without_grad_raises_before_any_update(self):
        a = Tensor([0.3, -0.7], requires_grad=True)
        b = Tensor([[1.5, 2.5]], requires_grad=True)
        opt = AdamW([a, b], lr=0.1, weight_decay=0.5)
        b.grad = np.ones((1, 2))
        with pytest.raises(ValueError, match=r"parameter 0 of shape \(2,\) has no gradient"):
            opt.step()
        assert np.array_equal(a.data, [0.3, -0.7]) and np.array_equal(b.data, [[1.5, 2.5]])
        assert opt.t == 0

    def test_write_after_construction_is_what_the_next_step_updates(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        q = Tensor([5.0], requires_grad=True)
        opt = AdamW([p, q], lr=0.1)
        p.data[:] = [4.0, -4.0]
        q.data = np.array([7.0])  # rebinding reaches the optimizer too
        p.grad, q.grad = np.ones(2), np.ones(1)
        opt.step()
        fresh = [Tensor([4.0, -4.0], requires_grad=True), Tensor([7.0], requires_grad=True)]
        ref = AdamW(fresh, lr=0.1)
        fresh[0].grad, fresh[1].grad = np.ones(2), np.ones(1)
        ref.step()
        assert np.array_equal(p.data, fresh[0].data) and np.array_equal(q.data, fresh[1].data)

    def test_parameters_of_two_dtypes_are_rejected(self):
        with pytest.raises(ValueError, match="one dtype"):
            AdamW([Tensor(np.ones(2)), Tensor(np.ones(2, dtype=np.float32))])

    def test_an_empty_parameter_list_is_rejected(self):
        with pytest.raises(ValueError, match=r"one dtype, got \[\]"):
            AdamW([])


class TestLeafGradientDtype:
    def test_float32_leaf_times_float64_operand(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        weighted_sum(x, np.array([1.0, 2.0, 3.0])).backward()
        assert x.grad.dtype == np.float32
        assert np.array_equal(x.grad, [1.0, 2.0, 3.0])

    def test_float32_layer_through_the_global_pool(self):
        from ctgraph.pooling import adaptive_avg_pool_global

        layer = Tensor(np.random.default_rng(2).standard_normal((4, 4, 2, 3)).astype(np.float32),
                       requires_grad=True)
        weighted_sum(adaptive_avg_pool_global(layer).grid, np.ones(4 * 4 * 2 * 3)).backward()
        assert layer.grad.dtype == np.float32
        assert np.array_equal(layer.grad, np.ones((4, 4, 2, 3), dtype=np.float32))


class TestFusedOps:
    def test_stack_gradients_and_values(self):
        rng = np.random.default_rng(13)
        parts = [Tensor(rng.standard_normal((2, 3)), requires_grad=True) for _ in range(3)]
        weights = rng.standard_normal((3, 2, 3))
        assert np.array_equal(stack(parts).data, np.stack([p.data for p in parts]))
        assert check_gradients(lambda: weighted_sum(stack(parts), weights), parts) < 1e-6

    @staticmethod
    def attention_inputs(batch, n_heads, seed, d_head=2):
        """Rows, per-head leaves, group and valid flags: five members, then three centers.

        Center 0 has no children; member 1 is invalid in every sample.
        """
        rng = np.random.default_rng(seed)
        d_h = n_heads * d_head
        rows = Tensor(rng.standard_normal((batch, 8, d_h)), requires_grad=True)
        heads = [
            (Tensor(rng.standard_normal((d_h, d_head)), requires_grad=True),
             Tensor(rng.standard_normal((2 * d_head, 1)), requires_grad=True))
            for _ in range(n_heads)
        ]
        group = np.array([2, 1, 2, 1, 2, 0, 1, 2])  # members' centers, then the self-loops
        valid = np.ones((batch, 8), dtype=bool)
        valid[:, :5] = rng.random((batch, 5)) < 0.7
        valid[:, 1] = False
        return rows, heads, group, valid

    @staticmethod
    def group_sums(alpha, group):
        """(B, centers, heads) sums of alpha over each center's rows."""
        return np.stack([alpha[:, group == i].sum(axis=1) for i in range(group.max() + 1)], axis=1)

    @pytest.mark.parametrize("n_heads", [1, 2, 3])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_graph_attention_gradcheck_reaches_rows_and_each_head_leaf(self, batch, n_heads):
        rows, heads, group, valid = self.attention_inputs(batch, n_heads, seed=10 * batch + n_heads)
        weights = np.random.default_rng(n_heads).standard_normal((batch, 3, 2 * n_heads))
        leaves = [t for pair in heads for t in pair]

        def loss():
            return weighted_sum(graph_attention(rows, heads, group, valid, 0.2, 3)[0], weights)

        assert check_gradients(loss, [rows] + leaves) < 1e-6
        assert all(np.any(t.grad != 0.0) for t in leaves)

    def test_graph_attention_matches_a_per_head_loop(self):
        rows, heads, group, valid = self.attention_inputs(2, 3, seed=7)
        out, alpha = graph_attention(rows, heads, group, valid, 0.2, 3)
        assert out.shape == (2, 3, 6) and alpha.shape == (2, 8, 3)
        assert np.all(alpha[~valid] == 0.0)
        assert np.all(alpha[:, 5] == 1.0)  # the childless center attends to itself only
        x = rows.data
        for b in range(2):
            for h, (w, a) in enumerate(heads):
                proj = x[b] @ w.data
                for i in range(3):
                    edges = [j for j in range(8) if group[j] == i and valid[b, j]]
                    scores = [float(a.data[:2, 0] @ proj[j] + a.data[2:, 0] @ proj[5 + i]) for j in edges]
                    exps = [math.exp(v if v > 0 else 0.2 * v) for v in scores]
                    weights = [e / sum(exps) for e in exps]
                    expected = sum(wt * proj[j] for wt, j in zip(weights, edges))
                    assert np.max(np.abs(alpha[b, edges, h] - weights)) < 1e-12
                    assert np.max(np.abs(out.data[b, i, 2 * h : 2 * h + 2] - expected)) < 1e-12

    def test_graph_attention_softmax_survives_huge_scores(self):
        rows, heads, group, valid = self.attention_inputs(2, 2, seed=8)
        heads = [(w, Tensor(1e3 * a.data)) for w, a in heads]
        alpha = graph_attention(rows, heads, group, valid, 0.2, 3)[1]
        assert np.all(np.isfinite(alpha)) and np.all(alpha[~valid] == 0.0)
        sums = self.group_sums(alpha, group)
        assert np.max(np.abs(sums - 1.0)) <= SOFTMAX_SUM_ATOL["float64"]

    def test_graph_attention_sample_without_valid_members_attends_to_self_loops(self):
        rows, heads, group, valid = self.attention_inputs(2, 2, seed=9)
        valid[0, :5] = False
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NaN from an all -inf group would warn
            out, alpha = graph_attention(rows, heads, group, valid, 0.2, 3)
            weighted_sum(out, np.ones(out.shape)).backward()
        assert np.all(np.isfinite(alpha)) and np.all(np.isfinite(rows.grad))
        assert np.all(alpha[0, 5:] == 1.0) and np.all(alpha[0, :5] == 0.0)

    def test_graph_attention_is_one_tape_node(self, monkeypatch):
        rows, heads, group, valid = self.attention_inputs(2, 2, seed=3)
        recorded = []
        from_op = tensor_module.from_op

        def counting_from_op(data, parents, backward):
            recorded.append(len(parents))
            return from_op(data, parents, backward)

        monkeypatch.setattr(tensor_module, "from_op", counting_from_op)
        graph_attention(rows, heads, group, valid, 0.2, 3)
        assert recorded == [5]  # rows plus each head's w and a

    @pytest.mark.parametrize(
        "defect", ["group", "valid", "self-loop", "centers", "head-width", "no-heads"]
    )
    def test_graph_attention_shape_errors(self, defect):
        rows, heads, group, valid = self.attention_inputs(1, 2, seed=4)
        n_centers = 3
        if defect == "group":
            group = group[:-1]
        elif defect == "valid":
            valid = valid[:, :2]
        elif defect == "self-loop":
            group = np.array([2, 1, 2, 1, 2, 1, 1, 2])  # row 5 is center 0's self-loop
        elif defect == "centers":
            n_centers = 9
        elif defect == "head-width":
            heads[1] = (Tensor(np.ones((4, 3))), heads[1][1])
        else:
            heads = []
        with pytest.raises(ShapeError, match="graph_attention"):
            graph_attention(rows, heads, group, valid, 0.2, n_centers)

    @pytest.mark.parametrize("slope", [0.0, 1.0, -0.2, float("nan")])
    def test_graph_attention_slope_must_be_in_unit_interval(self, slope):
        rows, heads, group, valid = self.attention_inputs(1, 1, seed=5)
        with pytest.raises(ValueError, match="slope"):
            graph_attention(rows, heads, group, valid, slope, 3)

    @pytest.mark.parametrize("scale", [1.0, 60.0], ids=["moderate", "beyond-40"])
    def test_bce_with_logits_matches_composition_and_gradcheck(self, scale):
        rng = np.random.default_rng(17)
        x = Tensor(scale * rng.standard_normal((4, 3)), requires_grad=True)
        if scale > 1:
            x.data[0] = [-45.0, 40.0, 80.0]
        y = rng.integers(0, 2, (4, 3))
        pairs = list(zip(x.data.ravel().tolist(), y.ravel().tolist()))
        # softplus(v) - v * t and its derivative sigmoid(v) - t, entry by entry
        expected = sum(max(v, 0.0) + math.log1p(math.exp(-abs(v))) - v * t for v, t in pairs) / 12
        assert abs(bce_with_logits(x, y).item() - expected) <= 1e-12
        assert check_gradients(lambda: bce_with_logits(x, y), [x]) < 1e-6
        x.grad = None
        bce_with_logits(x, y).backward()
        expected_grad = [(1.0 / (1.0 + math.exp(-v)) - t) / 12 for v, t in pairs]
        assert np.max(np.abs(x.grad.ravel() - expected_grad)) <= 1e-12

    def test_bce_with_logits_is_one_tape_node(self, monkeypatch):
        recorded = []
        from_op = tensor_module.from_op

        def counting_from_op(data, parents, backward):
            recorded.append(1)
            return from_op(data, parents, backward)

        monkeypatch.setattr(tensor_module, "from_op", counting_from_op)
        bce_with_logits(Tensor(np.zeros((2, 2)), requires_grad=True), np.ones((2, 2)))
        assert len(recorded) == 1


class TestLossAndActivations:
    def test_bce_at_zero_logits_is_ln2(self):
        logits = Tensor(np.zeros((4, 3)))
        loss = bce_with_logits(logits, np.random.default_rng(0).integers(0, 2, (4, 3)))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_sigmoid_softplus_stable_at_extremes(self):
        x = Tensor([[-800.0, 800.0]], requires_grad=True)
        loss = bce_with_logits(x, np.array([[0, 1]]))
        assert loss.item() == 0.0
        loss.backward()
        assert np.array_equal(x.grad, [[0.0, 0.0]])
        loss = bce_with_logits(x, np.array([[1, 0]]))
        assert loss.item() == 800.0
        x.grad = None
        loss.backward()
        assert np.array_equal(x.grad, [[-0.5, 0.5]])


@pytest.mark.parametrize(
    "build",
    [
        lambda x: weighted_sum(add(x, Tensor([0.5, -1.0, 2.0])), [1.0, 1.0, 1.0]),
        lambda x: weighted_sum(reshape(x, (3, 1)), [[2.0], [1.0], [0.5]]),
    ],
    ids=["add", "reshape"],
)
def test_elementwise_gradients(build):
    x = Tensor([0.4, -1.2, 2.1], requires_grad=True)
    assert check_gradients(lambda: build(x), [x]) < 1e-4


@pytest.mark.parametrize("other", [(1, 3), (3, 1), (1,), ()], ids=["row", "column", "one", "scalar"])
def test_add_rejects_operands_of_other_shapes_naming_both(other):
    message = f"add: operands of shapes (3,) and {other} differ"
    with pytest.raises(ShapeError, match=re.escape(message)):
        add(Tensor([0.4, -1.2, 2.1]), Tensor(np.ones(other)))


class TestStructuralOps:
    def test_concat_then_split_inverse(self):
        rng = np.random.default_rng(9)
        parts = [rng.standard_normal((2, k)) for k in (3, 1, 4)]
        out = concat([Tensor(p) for p in parts], axis=1).data
        starts = np.cumsum([0] + [p.shape[1] for p in parts])
        for p, s, e in zip(parts, starts[:-1], starts[1:]):
            assert np.array_equal(out[:, s:e], p)

    def test_backward_accumulates_once_per_call(self):
        x = Tensor([[2.0]], requires_grad=True)
        y = add(linear(x, [[3.0]]), linear(x, x))  # 3x + x^2: x used three times in one graph
        y.backward()
        assert x.grad[0, 0] == pytest.approx(3.0 + 2.0 * 2.0)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            add(x, x).backward()

    def test_max_relative_error_helper(self):
        assert max_relative_error(np.array([1.0]), np.array([1.0])) == 0.0
        assert max_relative_error(np.array([2.0]), np.array([1.0])) == pytest.approx(0.5)


class TestNoGrad:
    def test_scope_records_no_tape_and_restores_on_exit(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        x = Tensor(np.eye(2))
        with no_grad():
            inside = linear(x, w)
            with no_grad():
                pass
            still_inside = linear(x, w)
        after = linear(x, w)
        assert not inside.requires_grad and inside._backward is None
        assert not still_inside.requires_grad
        assert after.requires_grad and after._backward is not None

    def test_scope_closes_when_the_body_raises(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert add(w, w).requires_grad
