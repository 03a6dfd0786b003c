"""Parameters and the dense linear layer (the GNN "update" phase).

Every product of the layer runs through :func:`repro.perf.engine.matmul`,
which splits large ones over output rows onto every usable core.
"""

from __future__ import annotations

import numpy as np

from ..perf import engine

__all__ = ["Parameter", "Linear"]


class Parameter:
    """A trainable tensor with an accumulated gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    @property
    def shape(self):
        return self.value.shape


class Linear:
    """Fully connected layer ``y = x @ W + b`` with Glorot init."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, *,
                 bias: bool = True):
        limit = np.sqrt(6.0 / (in_features + out_features))
        self.weight = Parameter(rng.uniform(-limit, limit, size=(in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self._x: np.ndarray | None = None

    def parameters(self) -> list[Parameter]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def forward(self, x: np.ndarray) -> np.ndarray:
        from ..sptc.device import active_device

        self._x = x
        device = active_device()
        if device is not None:
            y = device.gemm(x, self.weight.value, tag="update")
        else:
            y = engine.matmul(x, self.weight.value)
        if self.bias is not None:
            y = y + self.bias.value
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.weight.grad += engine.matmul(self._x.T, dy)
        if self.bias is not None:
            self.bias.grad += dy.sum(axis=0)
        return engine.matmul(dy, self.weight.value.T)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)
