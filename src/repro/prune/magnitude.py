"""Magnitude pruning to V:N:M (the paper's *revised-pruned* baseline, §5.1).

For each V×M meta-block, the minimum number of least-magnitude entries are
zeroed so the block conforms: the top-k columns by magnitude mass survive the
vertical constraint, and within them each row keeps its N largest entries.
This makes any matrix SPTC-compatible but is *lossy* — removed graph edges
carry information, which is exactly what Table 5 quantifies against the
lossless reordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.patterns import VNMPattern
from ..graphs.graph import Graph
from ..sptc.hybrid import split_to_pattern

__all__ = ["PruneResult", "magnitude_prune", "prune_graph"]


@dataclass
class PruneResult:
    """Pruned matrix plus the bookkeeping Table 5 reports."""

    matrix: np.ndarray
    pattern: VNMPattern
    original_nnz: int
    pruned_nnz: int

    @property
    def prune_ratio(self) -> float:
        """Fraction of non-zeros removed (the paper's "Prune ratio")."""
        if self.original_nnz == 0:
            return 0.0
        return (self.original_nnz - self.pruned_nnz) / self.original_nnz


def magnitude_prune(a: np.ndarray, pattern: VNMPattern) -> PruneResult:
    """Zero the minimum least-magnitude entries to reach V:N:M conformity."""
    a = np.asarray(a, dtype=np.float64)
    conforming, _residual = split_to_pattern(a, pattern)
    return PruneResult(
        matrix=conforming,
        pattern=pattern,
        original_nnz=int(np.count_nonzero(a)),
        pruned_nnz=int(np.count_nonzero(conforming)),
    )


def prune_graph(graph: Graph, pattern: VNMPattern, *,
                symmetrize: bool = True) -> tuple[Graph, PruneResult]:
    """Prune a graph's normalized adjacency to the pattern.

    Pruning is generally *asymmetric* (a kept entry's mirror may be pruned in
    its own meta-block); ``symmetrize`` keeps an edge only if both directions
    survive, which preserves undirectedness like the adjacency consumers here
    assume.  Returns the pruned graph and the prune statistics.
    """
    dense = graph.dense_adjacency()
    result = magnitude_prune(dense, pattern)
    kept = result.matrix != 0
    if symmetrize:
        kept = kept & kept.T
    pruned_dense = np.where(kept, dense, 0.0)
    pruned = Graph.from_dense(
        pruned_dense,
        features=graph.features,
        labels=graph.labels,
        train_mask=graph.train_mask,
        val_mask=graph.val_mask,
        test_mask=graph.test_mask,
        name=f"{graph.name}-pruned",
    )
    stats = PruneResult(
        matrix=pruned_dense,
        pattern=pattern,
        original_nnz=result.original_nnz,
        pruned_nnz=int(np.count_nonzero(pruned_dense)),
    )
    return pruned, stats
