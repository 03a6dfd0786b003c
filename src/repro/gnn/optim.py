"""Optimizers for the NumPy GNN stack."""

from __future__ import annotations

import numpy as np

from .linear import Parameter

__all__ = ["SGD", "Adam"]


class SGD:
    """Plain (optionally momentum) stochastic gradient descent."""

    def __init__(self, params: list[Parameter], lr: float = 0.1, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.value) for p in params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            g = p.grad + self.weight_decay * p.value
            v *= self.momentum
            v += g
            p.value -= self.lr * v

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class Adam:
    """Adam with bias correction (Kingma & Ba)."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-2,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.value) for p in params]
        self._v = [np.zeros_like(p.value) for p in params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self._t
        bc2 = 1.0 - b2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad + self.weight_decay * p.value
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p.value -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
