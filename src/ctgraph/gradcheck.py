"""Finite-difference verification of analytic gradients."""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .tensor import Tensor, no_grad


def numerical_gradient(loss_fn: Callable[[], Tensor], t: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central differences of loss_fn with respect to t.data, one coordinate at a time."""
    grad = np.zeros_like(t.data)
    flat_grad = grad.reshape(-1)
    with no_grad():  # only the loss values are needed, so no call records a tape
        for i in range(t.data.size):
            orig = t.data.flat[i]
            t.data.flat[i] = orig + h
            f_plus = loss_fn().item()
            t.data.flat[i] = orig - h
            f_minus = loss_fn().item()
            t.data.flat[i] = orig
            flat_grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    if analytic.size == 0:
        return 0.0
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradients(
    loss_fn: Callable[[], Tensor], tensors: Iterable[Tensor], h: float = 1e-5
) -> float:
    """Worst relative error between analytic and numeric gradients.

    loss_fn must rebuild the graph from the tensors' current data on every
    call; its analytic gradients are taken from one backward pass, the
    numeric ones from central differences around the same point.
    """
    tensors = list(tensors)
    for t in tensors:
        t.grad = None
    loss = loss_fn()
    loss.backward()
    worst = 0.0
    for t in tensors:
        numeric = numerical_gradient(loss_fn, t, h)
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        worst = max(worst, max_relative_error(analytic, numeric))
    return worst
