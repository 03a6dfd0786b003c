"""Activation, loss, and metric primitives for the NumPy GNN stack."""

from __future__ import annotations

import numpy as np

__all__ = [
    "relu",
    "relu_grad",
    "log_softmax",
    "softmax",
    "cross_entropy",
    "cross_entropy_grad",
    "accuracy",
    "dropout_mask",
]


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Gradient of ReLU given the *pre-activation* input."""
    return dy * (x > 0.0)


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Numerically stable row-wise log-softmax."""
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax."""
    return np.exp(log_softmax(x))


def cross_entropy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Mean negative log-likelihood over (optionally masked) rows."""
    logp = log_softmax(logits)
    idx = np.arange(logits.shape[0])
    nll = -logp[idx, labels]
    if mask is not None:
        nll = nll[mask]
    return float(nll.mean()) if nll.size else 0.0


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray,
                       mask: np.ndarray | None = None) -> np.ndarray:
    """d(mean masked NLL)/d(logits)."""
    p = softmax(logits)
    grad = p.copy()
    grad[np.arange(logits.shape[0]), labels] -= 1.0
    if mask is not None:
        grad = grad * mask[:, None]
        denom = max(int(mask.sum()), 1)
    else:
        denom = logits.shape[0]
    return grad / denom


def accuracy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Top-1 accuracy over (optionally masked) rows."""
    pred = logits.argmax(axis=1)
    hits = pred == labels
    if mask is not None:
        hits = hits[mask]
    return float(hits.mean()) if hits.size else 0.0


def dropout_mask(shape: tuple, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout multiplier mask."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if rate == 0.0:
        return np.ones(shape)
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)
