"""Graph convolution layers (aggregation + update phases, paper §2).

Each layer separates the *aggregation* phase — an SpMM against the graph
operator, routed through an :class:`Aggregator` so the kernel/backends and
the virtual-clock device can be swapped per experiment setting — from the
*update* phase (dense linear algebra).  All layers implement backward passes
so the accuracy experiments (Table 5) can train them.
"""

from __future__ import annotations

import numpy as np

from .linear import Linear, Parameter

__all__ = ["Aggregator", "GCNConv", "SAGEConv", "ChebConv", "SGConv"]


class Aggregator:
    """The graph operator used by the aggregation phase.

    ``operator`` is any operand registered with the pipeline backend
    registry (CSRMatrix, VNMCompressed, NMCompressed, HybridVNM, BSR, SELL,
    dense, a :class:`repro.pipeline.serving.ServingSession`, or a
    third-party format).  ``operator_t`` supplies the transpose for backward
    when the operator is not symmetric (e.g. the mean aggregator D⁻¹A);
    symmetric operators can omit it.  When a ``device`` is attached every
    multiply advances its virtual clock under ``tag``; a ServingSession
    operator instead charges the device it owns.
    """

    def __init__(self, operator, operator_t=None, *, device=None, tag: str = "aggregation"):
        self.operator = operator
        self.operator_t = operator_t if operator_t is not None else operator
        self.device = device
        self.tag = tag

    def _run(self, op, x: np.ndarray) -> np.ndarray:
        if self.device is not None:
            return self.device.spmm(op, x, tag=self.tag)
        # The one engine path (scipy CSR / GEMM), falling back to the
        # registry kernel for operands it cannot plan (including
        # ServingSession, which plans internally).
        from ..perf.engine import execute

        return execute(op, x)

    def mm(self, x: np.ndarray) -> np.ndarray:
        return self._run(self.operator, x)

    def mm_t(self, x: np.ndarray) -> np.ndarray:
        return self._run(self.operator_t, x)

    # -- degradation surface ----------------------------------------------
    @property
    def backend_name(self) -> str:
        """Registered backend serving the forward operator.

        A ServingSession operator reports its *underlying* operand's backend
        (which moves down the fallback ladder on degradation), not the
        ``serving`` pseudo-backend it dispatches through.
        """
        inner = getattr(self.operator, "backend_name", None)
        if isinstance(inner, str):
            return inner
        from ..pipeline.registry import backend_for

        try:
            return backend_for(self.operator).name
        except TypeError:
            return type(self.operator).__name__

    @property
    def degraded(self) -> bool:
        """Whether the operator (a ServingSession) has fallen back."""
        stats = getattr(self.operator, "resilience", None)
        return bool(stats is not None and stats.degraded)

    def health(self) -> dict:
        """Degradation/retry state of the underlying operator.

        Models and training loops consume the aggregation phase through
        this object, so the serving session's fault accounting is surfaced
        here instead of making callers reach into pipeline internals.
        Plain operands report a healthy static backend.
        """
        stats = getattr(self.operator, "resilience", None)
        report = {
            "backend": self.backend_name,
            "degraded": bool(stats is not None and stats.degraded),
            "retries": stats.retries if stats is not None else 0,
            "downgrades": tuple(stats.downgrades) if stats is not None else (),
        }
        # A ServingSession operator with a metrics registry attached also
        # exposes its live series (latency quantiles, counters) here.
        metrics = getattr(self.operator, "metrics", None)
        if callable(metrics):
            live = metrics()
            if live:
                report["metrics"] = live
        # Which host kernel is serving the operator (a session's plan
        # lives on its underlying operand).
        from ..perf.engine import cached_plan

        target = getattr(self.operator, "operand", self.operator)
        plan = cached_plan(target) if target is not None else None
        if plan is not None:
            report["kernel_variant"] = plan.variant
        # With a breaker board installed, its per-backend state rides along
        # — an operator may look healthy while its fast backend is cooling
        # down behind an open breaker.
        from ..pipeline.guard import active_breakers

        board = active_breakers()
        if board is not None:
            report["breakers"] = board.snapshot()
        return report


class GCNConv:
    """Kipf & Welling convolution: ``Y = Â (X W) + b``.

    GCN aggregates *after* its linear layer (paper §5.1's explanation of the
    GCN-vs-SAGE speedup gap), so the SpMM runs on the (n × out) matrix.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.linear = Linear(in_features, out_features, rng)
        self._agg: Aggregator | None = None

    def parameters(self) -> list[Parameter]:
        return self.linear.parameters()

    def forward(self, x: np.ndarray, agg: Aggregator) -> np.ndarray:
        self._agg = agg
        xw = self.linear.forward(x)
        return agg.mm(xw)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._agg is not None
        d_xw = self._agg.mm_t(dy)
        return self.linear.backward(d_xw)


class SAGEConv:
    """GraphSAGE (mean): ``Y = X W_root + mean_agg(X) W_nbr + b``.

    Aggregates *before* its two linear layers, so the SpMM runs on the full
    (n × in) feature matrix — the reason SAGE gains more from SPTC than GCN.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.lin_root = Linear(in_features, out_features, rng)
        self.lin_nbr = Linear(in_features, out_features, rng, bias=False)
        self._agg: Aggregator | None = None

    def parameters(self) -> list[Parameter]:
        return self.lin_root.parameters() + self.lin_nbr.parameters()

    def forward(self, x: np.ndarray, agg: Aggregator) -> np.ndarray:
        self._agg = agg
        h_nbr = agg.mm(x)
        return self.lin_root.forward(x) + self.lin_nbr.forward(h_nbr)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._agg is not None
        dx_root = self.lin_root.backward(dy)
        dh_nbr = self.lin_nbr.backward(dy)
        return dx_root + self._agg.mm_t(dh_nbr)


class ChebConv:
    """Chebyshev spectral convolution of order ``K``.

    ``Y = Σ_k T_k(L̂) X W_k`` with ``T_0 = X``, ``T_1 = L̂X``,
    ``T_k = 2L̂T_{k-1} − T_{k-2}`` and ``L̂ = −Â`` (normalized Laplacian with
    the usual λ_max ≈ 2 shift).  Backward reuses the same recurrence on the
    per-order gradients because ``T_k`` is a polynomial in the symmetric ``L̂``.
    """

    def __init__(self, in_features: int, out_features: int, k: int, rng: np.random.Generator):
        if k < 1:
            raise ValueError("Chebyshev order must be >= 1")
        self.k = k
        self.linears = [Linear(in_features, out_features, rng, bias=(i == 0)) for i in range(k)]
        self._agg: Aggregator | None = None

    def parameters(self) -> list[Parameter]:
        return [p for lin in self.linears for p in lin.parameters()]

    def _lhat(self, x: np.ndarray, agg: Aggregator) -> np.ndarray:
        return -agg.mm(x)

    def _lhat_t(self, x: np.ndarray, agg: Aggregator) -> np.ndarray:
        return -agg.mm_t(x)

    def forward(self, x: np.ndarray, agg: Aggregator) -> np.ndarray:
        self._agg = agg
        t_prev, t_cur = None, x
        out = self.linears[0].forward(x)
        for i in range(1, self.k):
            if i == 1:
                t_next = self._lhat(t_cur, agg)
            else:
                t_next = 2.0 * self._lhat(t_cur, agg) - t_prev
            out = out + self.linears[i].forward(t_next)
            t_prev, t_cur = t_cur, t_next
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._agg is not None
        agg = self._agg
        # T_k is a polynomial in the symmetric L̂, so each order's input
        # gradient is dX_k = T_k(L̂ᵀ) (dY W_kᵀ).
        grads = [lin.backward(dy) for lin in self.linears]
        dx = grads[0]
        for i in range(1, self.k):
            dx = dx + self._cheb_apply(grads[i], i, agg)
        return dx

    def _cheb_apply(self, x: np.ndarray, order: int, agg: Aggregator) -> np.ndarray:
        """Apply ``T_order(L̂)`` to ``x`` by direct recurrence."""
        t_prev, t_cur = x, self._lhat_t(x, agg)
        for _ in range(2, order + 1):
            t_prev, t_cur = t_cur, 2.0 * self._lhat_t(t_cur, agg) - t_prev
        return t_cur if order >= 1 else x


class SGConv:
    """Simplified GCN: ``Y = Â^K X W`` — K chained aggregations, one linear."""

    def __init__(self, in_features: int, out_features: int, k: int, rng: np.random.Generator):
        if k < 1:
            raise ValueError("SGC power must be >= 1")
        self.k = k
        self.linear = Linear(in_features, out_features, rng)
        self._agg: Aggregator | None = None

    def parameters(self) -> list[Parameter]:
        return self.linear.parameters()

    def forward(self, x: np.ndarray, agg: Aggregator) -> np.ndarray:
        self._agg = agg
        z = x
        for _ in range(self.k):
            z = agg.mm(z)
        return self.linear.forward(z)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._agg is not None
        dz = self.linear.backward(dy)
        for _ in range(self.k):
            dz = self._agg.mm_t(dz)
        return dz
