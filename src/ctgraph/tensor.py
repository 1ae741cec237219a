"""Dense tensors with minimal reverse-mode automatic differentiation.

Every learnable piece of the pipeline runs on these tensors so that any
gradient can be validated against central finite differences. float64 is
the default scalar type (verification mode); float32 is accepted for
throughput runs and carries looser tolerances.

Ops record backward closures only when some input requires gradients and
no `no_grad()` scope is open, so inference-style code pays nothing for the
tape.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeError

SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# Accepted deviation of graph_attention's softmax group sums from 1.
SOFTMAX_SUM_ATOL = {"float64": 1e-9, "float32": 1e-5}


class Tensor:
    """N-dimensional real array with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in SUPPORTED_DTYPES else data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def backward(self, grad=None) -> None:
        """Accumulate gradients into every reachable leaf that requires them."""
        if grad is None:
            if self.data.size != 1:
                raise ShapeError(
                    "backward() without an explicit gradient needs a scalar output"
                )
            grad = np.ones_like(self.data)
        pending = {id(self): np.asarray(grad, dtype=self.data.dtype)}
        for node in reversed(_topo_order(self)):
            g = pending.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                if node.requires_grad:  # a leaf's gradient keeps the leaf's dtype
                    g = g.astype(node.data.dtype, copy=False)
                    node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                pid = id(parent)
                pending[pid] = pg if pid not in pending else pending[pid] + pg

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Within this scope ops record no tape: their results never require gradients."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def from_op(data, parents: Sequence[Tensor], backward) -> Tensor:
    """Wrap an op result, attaching the tape node when gradients are needed."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    return order


# elementwise and structural ops -------------------------------------------


def add(a, b) -> Tensor:
    """a + b for operands of one shape."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: operands of shapes {a.data.shape} and {b.data.shape} differ")
    return from_op(a.data + b.data, (a, b), lambda g: (g, g))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.data.shape),)

    return from_op(out, (a,), backward)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat needs at least one tensor")
    out = np.concatenate([t.data for t in ts], axis=axis)
    cuts = np.cumsum([t.data.shape[axis] for t in ts])[:-1]

    def backward(g):
        return tuple(np.split(g, cuts, axis=axis))

    return from_op(out, ts, backward)


def stack(tensors: Iterable[Tensor]) -> Tensor:
    """The tensors, one or more of one shape, along a new leading axis; gradients reach each one."""
    ts = [as_tensor(t) for t in tensors]
    return from_op(np.stack([t.data for t in ts]), ts, tuple)


# activations ---------------------------------------------------------------


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must lie in (0, 1), got {slope}")
    a = as_tensor(a)
    positive = a.data > 0
    out = np.where(positive, a.data, slope * a.data)

    def backward(g):
        return (g * np.where(positive, 1.0, slope),)

    return from_op(out, (a,), backward)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def layer_norm(x, gamma, beta, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine by (d,) gamma and beta."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    n = x.data.shape[-1]
    centered = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / n
    inv = (np.add.reduce(centered * centered, axis=-1, keepdims=True) / n + eps) ** -0.5
    normed = centered * inv

    def backward(g):
        gn = g * gamma.data
        gn_mean = np.add.reduce(gn, axis=-1, keepdims=True) / n
        gn_normed_mean = np.add.reduce(gn * normed, axis=-1, keepdims=True) / n
        gx = inv * (gn - gn_mean - normed * gn_normed_mean)
        g_gamma, g_beta = g * normed, g
        while g_beta.ndim > 1:  # gamma and beta are (d,): sum the leading axes one at a time
            g_gamma, g_beta = g_gamma.sum(axis=0), g_beta.sum(axis=0)
        return gx, g_gamma, g_beta

    return from_op(normed * gamma.data + beta.data, (x, gamma, beta), backward)


def mlp_forward(x, layers: Sequence[tuple[Tensor, Tensor]], slope: float = 0.2) -> Tensor:
    """Affine -> LeakyReLU per hidden layer, final layer affine only."""
    h = as_tensor(x)
    for i, (w, b) in enumerate(layers):
        h = linear(h, w, b)
        if i < len(layers) - 1:
            h = leaky_relu(h, slope)
    return h


def linear(x, w, b=None) -> Tensor:
    """x @ w (+ b) for a 2-d weight (k, m) and a bias of shape (m,).

    Both passes run one 2-d GEMM over x's rows flattened to (..., k) -> (rows, k),
    so a batched x costs no per-sample products and no sum over the batch.
    """
    x, w = as_tensor(x), as_tensor(w)
    parents = (x, w) if b is None else (x, w, as_tensor(b))
    if (
        w.data.ndim != 2
        or x.data.shape[-1:] != w.data.shape[:1]
        or (b is not None and parents[2].data.shape != w.data.shape[1:])
    ):
        raise ShapeError(
            f"linear: input {x.data.shape}, weight {w.data.shape} and bias "
            f"{None if b is None else parents[2].data.shape} do not form x @ w + b"
        )
    k, m = w.data.shape
    rows = x.data.reshape(-1, k)
    out = rows @ w.data if b is None else rows @ w.data + parents[2].data

    def backward(g):
        g = g.reshape(-1, m)
        gx = (g @ w.data.T).reshape(x.data.shape) if x.requires_grad else None
        gw = rows.T @ g if w.requires_grad else None
        return (gx, gw) if b is None else (gx, gw, g.sum(axis=0))

    return from_op(out.reshape(x.data.shape[:-1] + (m,)), parents, backward)


def graph_attention(rows, heads: Sequence[tuple[Tensor, Tensor]], group, valid, slope: float, n_centers: int):
    """Multi-head GAT attention of each center over its group's rows, as one tape node.

    rows (B, N, d_h) hold the members, then the centers; heads lists each
    head's (w (d_h, d), a (2d, 1)) leaves with n_heads * d = d_h and
    a = [a_src; a_dst]. group (N,) gives each row's center; center i's own row,
    N - n_centers + i, is its self-loop. valid (B, N) flags the rows present,
    the self-loops always. Head h weights row j of center i by a softmax over
    the group's valid rows of LeakyReLU(a_src . w x_j + a_dst . w x_i), then
    sums w x_j. Returns the (B, n_centers, d_h) head outputs side by side as a
    Tensor, and the weights alpha (B, N, n_heads), one per edge, as an array.
    Group maxima and sums reduce rows sorted by group; the backward is closed form.
    """
    rows, group, valid = as_tensor(rows), np.asarray(group), np.asarray(valid, dtype=bool)
    x = rows.data
    n_heads = len(heads)
    d_head = x.shape[-1] // max(n_heads, 1)
    shapes = {(w.data.shape, a.data.shape) for w, a in heads}
    if (
        x.ndim != 3
        or n_heads * d_head != x.shape[-1]
        or shapes != {((x.shape[-1], d_head), (2 * d_head, 1))}
        or not 1 <= n_centers <= x.shape[1]
        or group.shape != x.shape[1:2]
        or valid.shape != x.shape[:2]
        or not (group[-n_centers:] == np.arange(n_centers)).all()
    ):
        raise ShapeError(
            f"graph_attention: rows {x.shape}, {n_heads} heads of (w, a) shapes {sorted(shapes)}, group "
            f"{group.shape} and valid {valid.shape} do not fit {n_centers} centers with self-loops last"
        )
    if not 0.0 < slope < 1.0:
        raise ValueError(f"graph_attention slope must lie in (0, 1), got {slope}")
    b, n, d_h = x.shape
    w = np.concatenate([w.data for w, _ in heads], axis=1)
    a = np.stack([a.data.reshape(2, d_head) for _, a in heads], axis=1)  # a_src, a_dst by head
    flat = x.reshape(-1, d_h)
    proj = (flat @ w).reshape(b, n, n_heads, d_head)
    centers = proj[:, n - n_centers :]
    order = np.argsort(group, kind="stable")
    starts = np.searchsorted(group[order], np.arange(n_centers))  # no group is empty

    def at_rows(v):  # (B, n_centers, ...) -> each row's center's entry, (B, N, ...)
        return v.take(group, axis=1)

    def group_reduce(v, ufunc=np.add):  # (B, N, ...) -> (B, n_centers, ...)
        return ufunc.reduceat(v.take(order, axis=1), starts, axis=1)

    scores = np.einsum("bnhd,hd->bnh", proj, a[0]) + at_rows(np.einsum("bchd,hd->bch", centers, a[1]))
    positive = scores > 0
    scores = np.where(valid[..., None], np.where(positive, scores, slope * scores), -np.inf)
    e = np.exp(scores - at_rows(group_reduce(scores, np.maximum)))
    alpha = e / at_rows(group_reduce(e))

    def backward(g):
        g_out = at_rows(g.reshape(b, n_centers, n_heads, d_head))
        g_alpha = np.einsum("bnhd,bnhd->bnh", g_out, proj)
        g_scores = alpha * (g_alpha - at_rows(group_reduce(alpha * g_alpha)))
        g_scores *= np.where(positive, 1.0, slope)
        g_dst = group_reduce(g_scores)
        g_proj = alpha[..., None] * g_out + g_scores[..., None] * a[0]
        g_proj[:, n - n_centers :] += g_dst[..., None] * a[1]
        g_proj = g_proj.reshape(-1, d_h)
        g_rows = (g_proj @ w.T).reshape(x.shape) if rows.requires_grad else None
        g_w = np.split(flat.T @ g_proj, n_heads, axis=1)
        g_src = np.einsum("bnh,bnhd->hd", g_scores, proj)
        g_a = np.concatenate([g_src, np.einsum("bch,bchd->hd", g_dst, centers)], axis=1)
        return (g_rows, *(g for gw, ga in zip(g_w, g_a) for g in (gw, ga.reshape(-1, 1))))

    leaves = [t for pair in heads for t in pair]
    out = group_reduce(alpha[..., None] * proj).reshape(b, n_centers, d_h)
    return from_op(out, (rows, *leaves), backward), alpha


def bce_with_logits(logits, targets) -> Tensor:
    """Mean binary cross-entropy over all entries, stable for large logits.

    softplus(x) - x * y, averaged; the gradient (sigmoid(x) - y) / n is
    formed as g/n * sigmoid(x) - g/n * y.
    """
    logits = as_tensor(logits)
    x = logits.data
    y = as_tensor(targets).data
    softplus_x = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    out = (softplus_x - x * y).mean()
    scale = 1 / x.size

    def backward(g):
        g = np.broadcast_to(g * scale, x.shape)
        return (g * _sigmoid_np(x) - g * y,)

    return from_op(out, (logits,), backward)


class AdamW:
    """Adam with decoupled weight decay and bias-corrected moments.

    The parameters' data become views into one flat buffer, so a step updates
    them all, with one step count, in a handful of in-place numpy calls; what
    is written to p.data[:] (or bound to p.data) is what the next step updates.
    Every parameter needs a gradient at every step. Deterministic given
    parameter values, gradients, and state.
    """

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) != 1:
            raise ValueError(f"AdamW needs parameters of one dtype, got {sorted(map(str, dtypes))}")
        self._data = np.concatenate([p.data.ravel() for p in self.params])
        bounds = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        for p, start, stop in zip(self.params, bounds, bounds[1:]):
            p.data = self._data[start:stop].reshape(p.data.shape)
        self._views = [p.data for p in self.params]
        self._m = np.zeros_like(self._data)
        self._v = np.zeros_like(self._data)
        self._grad = np.empty_like(self._data)
        self.t = 0  # steps taken

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.data is not self._views[i]:  # rebound since the last step: adopt its values
                self._views[i][...] = p.data
                p.data = self._views[i]
            if p.grad is None:
                raise ValueError(f"AdamW parameter {i} of shape {p.data.shape} has no gradient")
        self.t += 1
        g, m, v, p = self._grad, self._m, self._v, self._data
        np.concatenate([q.grad.ravel() for q in self.params], out=g)
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        g *= g
        g *= 1.0 - self.beta2
        v += g
        denom = np.sqrt(v / (1.0 - self.beta2**self.t))
        denom += self.eps
        update = m / (1.0 - self.beta1**self.t)
        update /= denom
        update += self.weight_decay * p
        update *= self.lr
        p -= update
