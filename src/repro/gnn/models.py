"""The four GNN models the paper evaluates (GCN, GraphSAGE, ChebNet, SGC)."""

from __future__ import annotations

import numpy as np

from .functional import relu, relu_grad
from .layers import Aggregator, ChebConv, GCNConv, SAGEConv, SGConv
from .linear import Parameter

__all__ = ["GNNModel", "GCN", "GraphSAGE", "ChebNet", "SGC", "build_model", "MODEL_NAMES"]

MODEL_NAMES = ("gcn", "sage", "cheb", "sgc")


class GNNModel:
    """Base: a stack of conv layers with ReLU between them."""

    def __init__(self):
        self.convs: list = []
        self._pre_acts: list[np.ndarray] = []
        self._drop_masks: list = []

    def parameters(self) -> list[Parameter]:
        return [p for conv in self.convs for p in conv.parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def forward(
        self,
        x: np.ndarray,
        agg: Aggregator,
        *,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Forward pass; ``dropout > 0`` applies inverted dropout after each
        hidden activation (training mode — pass a generator for
        reproducibility)."""
        from ..sptc.device import active_device
        from .functional import dropout_mask

        self._pre_acts = []
        self._drop_masks = []
        device = active_device()
        if dropout > 0.0 and rng is None:
            rng = np.random.default_rng(0)
        h = x
        for i, conv in enumerate(self.convs):
            h = conv.forward(h, agg)
            if i < len(self.convs) - 1:
                self._pre_acts.append(h)
                if device is not None:
                    h = device.elementwise(h, relu, tag="update")
                else:
                    h = relu(h)
                if dropout > 0.0:
                    mask = dropout_mask(h.shape, dropout, rng)
                    self._drop_masks.append(mask)
                    h = h * mask
                else:
                    self._drop_masks.append(None)
        return h

    def backward(self, dlogits: np.ndarray) -> np.ndarray:
        dh = dlogits
        for i in range(len(self.convs) - 1, -1, -1):
            dh = self.convs[i].backward(dh)
            if i > 0:
                mask = self._drop_masks[i - 1] if self._drop_masks else None
                if mask is not None:
                    dh = dh * mask
                dh = relu_grad(self._pre_acts[i - 1], dh)
        return dh

    @property
    def n_aggregations(self) -> int:
        """SpMM launches per forward pass (for per-layer speedup accounting)."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray, agg: Aggregator) -> np.ndarray:
        return self.forward(x, agg)


class GCN(GNNModel):
    """Two-layer GCN (aggregation after the linear transform)."""

    def __init__(self, in_features: int, hidden: int, out_features: int, rng: np.random.Generator):
        super().__init__()
        self.convs = [GCNConv(in_features, hidden, rng), GCNConv(hidden, out_features, rng)]

    @property
    def n_aggregations(self) -> int:
        return 2


class GraphSAGE(GNNModel):
    """Two-layer GraphSAGE with mean aggregation (aggregation first)."""

    def __init__(self, in_features: int, hidden: int, out_features: int, rng: np.random.Generator):
        super().__init__()
        self.convs = [SAGEConv(in_features, hidden, rng), SAGEConv(hidden, out_features, rng)]

    @property
    def n_aggregations(self) -> int:
        return 2


class ChebNet(GNNModel):
    """Two-layer ChebNet of order K (K−1 aggregation-chains per layer)."""

    def __init__(self, in_features: int, hidden: int, out_features: int,
                 rng: np.random.Generator, *, k: int = 3):
        super().__init__()
        self.k = k
        self.convs = [ChebConv(in_features, hidden, k, rng), ChebConv(hidden, out_features, k, rng)]

    @property
    def n_aggregations(self) -> int:
        # Each layer's recurrence launches k-1 SpMMs.
        return 2 * (self.k - 1)


class SGC(GNNModel):
    """Single SGConv with K chained propagations."""

    def __init__(self, in_features: int, hidden: int, out_features: int,
                 rng: np.random.Generator, *, k: int = 2):
        super().__init__()
        del hidden  # SGC is linear: no hidden layer
        self.k = k
        self.convs = [SGConv(in_features, out_features, k, rng)]

    @property
    def n_aggregations(self) -> int:
        return self.k


def build_model(
    name: str,
    in_features: int,
    hidden: int,
    out_features: int,
    *,
    seed: int = 0,
) -> GNNModel:
    """Factory over the paper's four model names."""
    rng = np.random.default_rng(seed)
    key = name.lower()
    if key == "gcn":
        return GCN(in_features, hidden, out_features, rng)
    if key in ("sage", "graphsage"):
        return GraphSAGE(in_features, hidden, out_features, rng)
    if key in ("cheb", "chebnet"):
        return ChebNet(in_features, hidden, out_features, rng)
    if key == "sgc":
        return SGC(in_features, hidden, out_features, rng)
    raise KeyError(f"unknown model {name!r}; known: {MODEL_NAMES}")
