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

# Accepted deviation of softmax group sums from 1.
SOFTMAX_SUM_ATOL = {"float64": 1e-9, "float32": 1e-5}


def _coerce(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in SUPPORTED_DTYPES:
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    """N-dimensional real array with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _coerce(data, dtype)
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

    @property
    def dtype(self):
        return self.data.dtype

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

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
                if node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                pid = id(parent)
                pending[pid] = pg if pid not in pending else pending[pid] + pg

    # operator sugar ------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, p):
        return power(self, p)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 else shape)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def as_tensor(x, dtype=None) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, dtype=dtype)


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


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum out broadcasted axes so grad matches the original operand shape."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# elementwise and reduction ops -------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return from_op(out, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return from_op(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return from_op(out, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def backward(g):
        return (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        )

    return from_op(out, (a, b), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return from_op(-a.data, (a,), lambda g: (-g,))


def power(a, p: float) -> Tensor:
    a = as_tensor(a)
    p = float(p)
    out = a.data**p

    def backward(g):
        return (g * p * a.data ** (p - 1.0),)

    return from_op(out, (a,), backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)

    def backward(g):
        return (g * out,)

    return from_op(out, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    out = np.log(a.data)

    def backward(g):
        return (g / a.data,)

    return from_op(out, (a,), backward)


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return from_op(out, (a,), backward)


def tensor_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    scale = out.size / a.data.size

    def backward(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg * scale, a.data.shape).copy(),)

    return from_op(out, (a,), backward)


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


def gather_rows(a, indices) -> Tensor:
    """Select rows of a 2-d tensor; backward scatter-adds into place."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-d tensor, got shape {a.data.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    out = a.data[idx]

    def backward(g):
        gz = np.zeros_like(a.data)
        np.add.at(gz, idx, g)
        return (gz,)

    return from_op(out, (a,), backward)


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


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = _sigmoid_np(a.data)

    def backward(g):
        return (g * out * (1.0 - out),)

    return from_op(out, (a,), backward)


def softplus(a) -> Tensor:
    """log(1 + exp(x)) computed without overflow; gradient is sigmoid(x)."""
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))

    def backward(g):
        return (g * _sigmoid_np(a.data),)

    return from_op(out, (a,), backward)


def softmax(a, axis: int = -1, mask=None) -> Tensor:
    """Max-shifted softmax (sums within SOFTMAX_SUM_ATOL of 1); mask=False entries are 0."""
    a = as_tensor(a)
    if a.data.size == 0 or a.data.shape[axis] == 0:
        raise ShapeError("softmax over an empty group")
    x = a.data if mask is None else np.where(mask, a.data, -np.inf)
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        return (out * (g - (g * out).sum(axis=axis, keepdims=True)),)

    return from_op(out, (a,), backward)


def layer_norm(x, gamma, beta, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = (np.mean(centered * centered, axis=-1, keepdims=True) + eps) ** -0.5
    normed = centered * inv

    def backward(g):
        gn = g * gamma.data
        gn_mean = gn.mean(axis=-1, keepdims=True)
        gx = inv * (gn - gn_mean - normed * (gn * normed).mean(axis=-1, keepdims=True))
        return gx, _unbroadcast(g * normed, gamma.data.shape), _unbroadcast(g, beta.data.shape)

    return from_op(normed * gamma.data + beta.data, (x, gamma, beta), backward)


def mlp_forward(x, layers: Sequence[tuple[Tensor, Tensor]], slope: float = 0.2) -> Tensor:
    """Affine -> LeakyReLU per hidden layer, final layer affine only."""
    h = as_tensor(x)
    for i, (w, b) in enumerate(layers):
        if h.data.shape[-1] != w.data.shape[0]:
            raise ShapeError(
                f"mlp layer {i}: input width {h.data.shape[-1]} does not chain "
                f"into weight of shape {w.data.shape}"
            )
        h = add(matmul(h, w), b)
        if i < len(layers) - 1:
            h = leaky_relu(h, slope)
    return h


def matmul(a, b) -> Tensor:
    """Matrix product of the last two axes; leading axes broadcast as in numpy."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(
            f"matmul expects 2 or more dimensions, got shapes {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul: inner dimensions disagree for {a.data.shape} x {b.data.shape}"
        )
    out = a.data @ b.data

    def backward(g):
        return (
            _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape),
            _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape),
        )

    return from_op(out, (a, b), backward)


def transpose(a, axes: Sequence[int]) -> Tensor:
    """Permute the axes of a as np.transpose does."""
    a = as_tensor(a)
    return from_op(np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, np.argsort(axes)),))


def bce_with_logits(logits, targets) -> Tensor:
    """Mean binary cross-entropy over all entries, stable for large logits."""
    logits = as_tensor(logits)
    targets = as_tensor(targets).detach()
    return tensor_mean(sub(softplus(logits), mul(logits, targets)))


class AdamW:
    """Adam with decoupled weight decay and bias-corrected moments.

    Deterministic given parameter values, gradients, and state.
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
        self.state = [
            {"t": 0, "m": np.zeros_like(p.data), "v": np.zeros_like(p.data)}
            for p in self.params
        ]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        for p, st in zip(self.params, self.state):
            if p.grad is None:
                continue
            g = p.grad
            st["t"] += 1
            st["m"] = self.beta1 * st["m"] + (1.0 - self.beta1) * g
            st["v"] = self.beta2 * st["v"] + (1.0 - self.beta2) * (g * g)
            m_hat = st["m"] / (1.0 - self.beta1 ** st["t"])
            v_hat = st["v"] / (1.0 - self.beta2 ** st["t"])
            p.data = p.data - self.lr * (
                m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p.data
            )
