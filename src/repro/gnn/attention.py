"""Attention aggregation on sparse patterns (extension beyond the paper).

The paper evaluates four non-attentive GNNs; attention models (GAT) need the
*other* sparse kernel, SDDMM, for per-edge scores plus an edge softmax
before the SpMM.  With a V:N:M-conforming pattern both kernels run on the
structured path, so the reordering benefits extend to attention models —
this module provides the inference pipeline used by the extension bench.
"""

from __future__ import annotations

import numpy as np

from ..perf import engine
from ..sptc.csr import CSRMatrix
from ..sptc.sddmm import csr_sddmm, venom_sddmm
from ..sptc.venom import VNMCompressed
from .linear import Linear

__all__ = ["edge_softmax", "GATConv", "gat_aggregate_csr", "gat_aggregate_venom"]


def edge_softmax(scores: CSRMatrix) -> CSRMatrix:
    """Row-wise softmax over the stored entries of a CSR score matrix.

    ``out[i, j] = exp(s[i,j] − max_j s[i,·]) / Σ_j exp(…)`` over the row's
    non-zero pattern — the neighbour-softmax every attention GNN needs.
    """
    indptr, indices, data = scores.indptr, scores.indices, scores.data
    out = np.empty_like(data)
    n_rows = scores.shape[0]
    row_lengths = np.diff(indptr)
    nonempty = row_lengths > 0
    starts = indptr[:-1][nonempty]
    # segment max (reduceat) then exp then segment sum.
    row_max = np.full(n_rows, -np.inf)
    if nonempty.any():
        row_max[nonempty] = np.maximum.reduceat(data, starts)
    rows = np.repeat(np.arange(n_rows), row_lengths)
    shifted = np.exp(data - row_max[rows])
    row_sum = np.zeros(n_rows)
    if nonempty.any():
        row_sum[nonempty] = np.add.reduceat(shifted, starts)
    out = shifted / np.maximum(row_sum[rows], 1e-30)
    return CSRMatrix(indptr.copy(), indices.copy(), out, scores.shape)


def gat_aggregate_csr(
    pattern: CSRMatrix, q: np.ndarray, k: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Baseline attention aggregation: CSR SDDMM → edge softmax → CSR SpMM."""
    scores = csr_sddmm(pattern, q, k)
    alpha = edge_softmax(scores)
    return engine.execute(alpha, values)


def gat_aggregate_venom(
    operand: VNMCompressed, q: np.ndarray, k: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Structured attention aggregation on a conforming V:N:M operand.

    The SDDMM and SpMM both run tile-wise; the softmax normalization is a
    per-row epilogue (computed here via the decompressed score rows' CSR
    view, which shares the operand's pattern).
    """
    scored = venom_sddmm(operand, q, k)
    # Softmax over each row's stored entries: extract per-slot scores.
    csr_scores = CSRMatrix.from_dense(scored.decompress())
    alpha = edge_softmax(csr_scores)
    # Re-inject the normalized scores into the structured operand and SpMM.
    alpha_compressed = VNMCompressed.compress_csr(alpha, operand.pattern)
    return engine.execute(alpha_compressed, values)


class GATConv:
    """Single-head GAT-style layer (inference pipeline).

    ``h' = softmax_edges(<Q h, K h>) · (V h)`` with learned projections —
    a dot-product-attention variant chosen so both sparse kernels (SDDMM,
    SpMM) appear exactly as in serving workloads.  Training attention models
    is out of scope for the reproduction; this layer exists to measure the
    kernels (the extension bench) and ships forward-only.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.q_proj = Linear(in_features, out_features, rng, bias=False)
        self.k_proj = Linear(in_features, out_features, rng, bias=False)
        self.v_proj = Linear(in_features, out_features, rng, bias=False)

    def forward_csr(self, pattern: CSRMatrix, x: np.ndarray) -> np.ndarray:
        return gat_aggregate_csr(
            pattern, self.q_proj(x), self.k_proj(x), self.v_proj(x)
        )

    def forward_venom(self, operand: VNMCompressed, x: np.ndarray) -> np.ndarray:
        return gat_aggregate_venom(
            operand, self.q_proj(x), self.k_proj(x), self.v_proj(x)
        )
