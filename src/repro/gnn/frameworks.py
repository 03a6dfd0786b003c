"""Framework shims and the four experiment settings (paper §5.1).

The paper compares PyG and DGL, whose default SpMM kernels differ (PyG uses
a torchsparse-style CSR kernel, DGL the faster cuSPARSE ``CSR_ALG2``); both
get *revised* variants whose SpMM is swapped for the Spatha-style SPTC
kernel.  The four settings:

* ``default-original``   — framework CSR kernel, original vertex order.
* ``default-reordered``  — framework CSR kernel, SOGRE-reordered order
  (expected ≈ 1×: CUDA cores are oblivious to V:N:M patterns — Table 4).
* ``revised-pruned``     — SPTC kernel on magnitude-pruned operators (fast
  but lossy — Table 5's accuracy casualty).
* ``revised-reordered``  — SPTC kernel on reordered operators (the paper's
  solution: fast *and* lossless — Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.patterns import VNMPattern
from ..core.permutation import Permutation
from ..core.reorder import reorder
from ..graphs.graph import Graph
from ..sptc.costmodel import A100Params, CostModel
from ..sptc.csr import CSRMatrix
from ..sptc.device import EmulatedDevice, use_device
from ..sptc.hybrid import HybridVNM
from .layers import Aggregator
from .models import build_model
from .training import aggregator_kind_for

__all__ = [
    "FRAMEWORKS",
    "SETTINGS",
    "FrameworkSpec",
    "PreparedSetting",
    "prepare_setting",
    "make_device",
    "ForwardTiming",
    "timed_forward",
    "gnn_speedups",
]

SETTINGS = (
    "default-original",
    "default-reordered",
    "revised-pruned",
    "revised-reordered",
)


@dataclass(frozen=True)
class FrameworkSpec:
    """Performance personality of one GNN framework's kernels."""

    name: str
    # DGL's cuSPARSE ALG2 CSR SpMM outruns PyG's torchsparse kernel (paper
    # §5.1), so its baseline is harder to beat.
    cuda_spmm_flops: float


FRAMEWORKS = {
    "pyg": FrameworkSpec("pyg", cuda_spmm_flops=4.0e11),
    "dgl": FrameworkSpec("dgl", cuda_spmm_flops=5.5e11),
}


def make_device(framework: str) -> EmulatedDevice:
    """An emulated A100 with the framework's CSR-SpMM personality."""
    spec = FRAMEWORKS[framework]
    params = A100Params(cuda_spmm_flops=spec.cuda_spmm_flops)
    return EmulatedDevice(cost_model=CostModel(params))


def _mean_operators(graph: Graph) -> tuple[CSRMatrix, CSRMatrix]:
    rows, cols, data = graph.csr().to_coo()
    deg = np.zeros(graph.n)
    np.add.at(deg, rows, 1.0)
    inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1e-12), 0.0)
    op = CSRMatrix.from_coo(rows, cols, data * inv[rows], (graph.n, graph.n))
    op_t = CSRMatrix.from_coo(rows, cols, data * inv[cols], (graph.n, graph.n))
    return op, op_t


@dataclass
class PreparedSetting:
    """Everything a timed forward pass needs for one setting."""

    setting: str
    graph: Graph
    operators: dict = field(default_factory=dict)   # kind -> (op, op_t)
    pattern: VNMPattern | None = None
    permutation: Permutation | None = None
    prune_ratio: float = 0.0
    residual_fraction: float = 0.0

    def aggregator(self, model_name: str, device: EmulatedDevice | None) -> Aggregator:
        kind = aggregator_kind_for(model_name)
        op, op_t = self.operators[kind]
        return Aggregator(op, op_t, device=device)


def reorder_for_graph(
    graph: Graph, pattern: VNMPattern, *, max_iter: int = 10
) -> Permutation:
    """Reorder targeting the structure actually multiplied: A + I.

    Every model's operator structure is contained in A + I (GCN/Cheb/SGC use
    Â with self-loops; SAGE's mean operator has A's structure, a subset), so
    one permutation serves all four models.
    """
    bm = graph.bitmatrix().copy()
    bm.set_diagonal()
    return reorder(bm, pattern, max_iter=max_iter).permutation


def prepare_setting(
    graph: Graph,
    setting: str,
    pattern: VNMPattern,
    *,
    permutation: Permutation | None = None,
    max_iter: int = 10,
) -> PreparedSetting:
    """Build the operators for one experiment setting.

    ``permutation`` short-circuits the (deterministic) reordering when the
    caller already computed it — the offline-preprocessing story of §4.4.
    """
    if setting not in SETTINGS:
        raise KeyError(f"unknown setting {setting!r}; known: {SETTINGS}")

    prepared = PreparedSetting(setting=setting, graph=graph, pattern=pattern)

    if setting in ("default-reordered", "revised-reordered"):
        if permutation is None:
            permutation = reorder_for_graph(graph, pattern, max_iter=max_iter)
        graph = graph.relabel(permutation)
        prepared.graph = graph
        prepared.permutation = permutation

    gcn_op = graph.csr(normalized=True, add_self_loops=True)
    mean_op, mean_op_t = _mean_operators(graph)

    if setting.startswith("default"):
        prepared.operators = {"gcn": (gcn_op, gcn_op), "mean": (mean_op, mean_op_t)}
        return prepared

    if setting == "revised-pruned":
        # Lossy: magnitude pruning == keeping only the conforming part of the
        # split and *discarding* the residual.
        from ..sptc.hybrid import split_csr_to_pattern
        from ..sptc.venom import VNMCompressed

        def pruned(op: CSRMatrix) -> HybridVNM:
            conforming, _residual = split_csr_to_pattern(op, pattern)
            return HybridVNM(VNMCompressed.compress_csr(conforming, pattern), None)

        con, res = split_csr_to_pattern(gcn_op, pattern)
        prepared.prune_ratio = res.nnz / max(gcn_op.nnz, 1)
        prepared.operators = {
            "gcn": (HybridVNM(VNMCompressed.compress_csr(con, pattern), None),) * 2,
            "mean": (pruned(mean_op), pruned(mean_op_t)),
        }
        return prepared

    # revised-reordered: lossless hybrid compression of the reordered operators.
    gcn_h = HybridVNM.compress_csr(gcn_op, pattern)
    mean_h = HybridVNM.compress_csr(mean_op, pattern)
    mean_t_h = HybridVNM.compress_csr(mean_op_t, pattern)
    prepared.residual_fraction = gcn_h.residual_fraction()
    prepared.operators = {"gcn": (gcn_h, gcn_h), "mean": (mean_h, mean_t_h)}
    return prepared


@dataclass
class ForwardTiming:
    """Modelled timing of one forward pass."""

    aggregation_seconds: float
    update_seconds: float
    logits: np.ndarray

    @property
    def total_seconds(self) -> float:
        return self.aggregation_seconds + self.update_seconds


def timed_forward(
    framework: str,
    model_name: str,
    prepared: PreparedSetting,
    *,
    hidden: int = 128,
    seed: int = 0,
) -> ForwardTiming:
    """Run one inference forward pass on the emulated device.

    The device's virtual clock splits into the aggregation phase (SpMM) and
    the update phase (dense GEMM + activations), giving the paper's "LYR" and
    "ALL" numbers.
    """
    graph = prepared.graph
    if graph.features is None or graph.labels is None:
        raise ValueError("graph must carry features and labels")
    device = make_device(framework)
    n_classes = int(graph.labels.max()) + 1
    model = build_model(model_name, graph.features.shape[1], hidden, n_classes, seed=seed)
    agg = prepared.aggregator(model_name, device)
    with use_device(device):
        logits = model.forward(graph.features, agg)
    return ForwardTiming(
        aggregation_seconds=device.elapsed("aggregation"),
        update_seconds=device.elapsed("update"),
        logits=logits,
    )


def gnn_speedups(
    framework: str,
    model_name: str,
    baseline: PreparedSetting,
    treatment: PreparedSetting,
    *,
    hidden: int = 128,
    seed: int = 0,
) -> dict[str, float]:
    """LYR / ALL speedups of ``treatment`` over ``baseline`` (Table 3/4/6 cells)."""
    t_base = timed_forward(framework, model_name, baseline, hidden=hidden, seed=seed)
    t_new = timed_forward(framework, model_name, treatment, hidden=hidden, seed=seed)
    return {
        "LYR": t_base.aggregation_seconds / t_new.aggregation_seconds,
        "ALL": t_base.total_seconds / t_new.total_seconds,
    }
