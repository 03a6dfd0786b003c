"""1-D row partitioning of adjacency matrices (paper §4.4).

For parallel/distributed GNNs each node multiplies a horizontal slice of the
adjacency matrix; the reordering algorithm applies independently to each
slice and results are mapped back before accumulation.  This module provides
the slicing, per-partition reordering, and the stitch-back bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.bitmatrix import BitMatrix
from ..core.patterns import VNMPattern
from ..core.permutation import Permutation
from ..core.reorder import ReorderResult, reorder
from ..graphs.graph import Graph

__all__ = [
    "RowPartition",
    "partition_rows",
    "edge_cut",
    "reorder_partitions",
    "distributed_spmm",
]


@dataclass
class RowPartition:
    """One contiguous block of vertices assigned to a device."""

    device: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start


def partition_rows(n: int, n_parts: int, *, align: int = 1) -> list[RowPartition]:
    """Balanced contiguous 1-D partition of ``n`` vertices.

    Guarantees exhaustive, disjoint coverage: every row lands in exactly
    one partition, partitions are contiguous and ordered, and
    ``parts[0].start == 0``, ``parts[-1].stop == n``.

    ``align`` snaps every *interior* boundary to a multiple of it — the
    N:M tile height ``v`` for sharded serving, so no V:N:M tile row ever
    straddles two shards (the final boundary is ``n`` itself; a partial
    tail tile stays whole inside the last partition).  Balance is in whole
    tiles: partition sizes differ by at most one tile.  Raises
    :class:`ValueError` when ``n_parts`` exceeds the number of tiles —
    an empty shard serves nothing and merges wrong.
    """
    if n_parts < 1:
        raise ValueError("need at least one partition")
    if align < 1:
        raise ValueError("align must be >= 1")
    if n < 1:
        raise ValueError("need at least one row to partition")
    n_tiles = -(-n // align)
    if n_parts > n_tiles:
        raise ValueError(
            f"cannot split {n} row(s) ({n_tiles} tile(s) of height {align}) "
            f"into {n_parts} non-empty aligned partitions"
        )
    base, extra = divmod(n_tiles, n_parts)
    parts: list[RowPartition] = []
    start = 0
    tile_stop = 0
    for i in range(n_parts):
        tile_stop += base + (1 if i < extra else 0)
        stop = min(n, tile_stop * align)
        parts.append(RowPartition(i, start, stop))
        start = stop
    return parts


def edge_cut(graph: Graph, parts: list[RowPartition]) -> int:
    """Number of undirected edges crossing partition boundaries."""
    owner = np.zeros(graph.n, dtype=np.int64)
    for p in parts:
        owner[p.start : p.stop] = p.device
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    return int((owner[u] != owner[v]).sum())


def reorder_partitions(
    graph: Graph, n_parts: int, pattern: VNMPattern, *, max_iter: int = 10
) -> tuple[Permutation, list[ReorderResult]]:
    """Independently reorder each partition's induced subgraph (§4.4).

    The per-partition permutations act within partition boundaries, so the
    composed global permutation keeps each device's vertex range intact while
    making each local adjacency block conform.  Returns the global
    permutation plus the per-partition reorder results.
    """
    parts = partition_rows(graph.n, n_parts)
    global_order = np.arange(graph.n, dtype=np.int64)
    results: list[ReorderResult] = []
    bm = graph.bitmatrix()
    for p in parts:
        ids = np.arange(p.start, p.stop)
        # Local adjacency among the partition's own vertices.
        sub = _extract_block(bm, ids)
        res = reorder(sub, pattern, max_iter=max_iter)
        results.append(res)
        global_order[p.start : p.stop] = ids[res.permutation.order]
    return Permutation(global_order), results


def _extract_block(bm: BitMatrix, ids: np.ndarray) -> BitMatrix:
    rows, cols = bm.nonzero()
    lo, hi = ids[0], ids[-1] + 1
    keep = (rows >= lo) & (rows < hi) & (cols >= lo) & (cols < hi)
    return BitMatrix.from_edges(ids.size, rows[keep] - lo, cols[keep] - lo)


def distributed_spmm(
    graph: Graph,
    b: np.ndarray,
    n_parts: int,
    pattern: VNMPattern,
    *,
    max_iter: int = 5,
    device_factory=None,
) -> tuple[np.ndarray, list]:
    """Partitioned SpMM with per-device reordering (paper §4.4).

    Each device owns a contiguous vertex range.  Its *diagonal* block is
    reordered independently and runs on the SPTC path; the off-diagonal
    coupling blocks (whose rows/columns belong to different devices and thus
    cannot share one symmetric permutation) stay on the CSR path.  Every
    device's partial result is mapped back to the global vertex order before
    accumulation, so the output equals the monolithic ``A @ B`` exactly.

    Returns ``(result, devices)``; pass ``device_factory`` to time the run on
    emulated devices (defaults to untimed functional execution).
    """
    from ..perf import engine
    from ..sptc.csr import CSRMatrix
    from ..sptc.hybrid import HybridVNM

    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != graph.n:
        raise ValueError("B row count must match the vertex count")
    parts = partition_rows(graph.n, n_parts)
    global_perm, _ = reorder_partitions(graph, n_parts, pattern, max_iter=max_iter)
    csr = graph.csr()
    rows, cols, data = csr.to_coo()
    new_of_old = global_perm.inverse().order

    out = np.zeros((graph.n, b.shape[1]), dtype=np.float64)
    devices = []
    for p in parts:
        device = device_factory(p.device) if device_factory is not None else None
        in_rows = (rows >= p.start) & (rows < p.stop)
        local = (cols >= p.start) & (cols < p.stop)

        # Diagonal block in the per-partition reordered basis -> SPTC path.
        diag = in_rows & local
        r_new = new_of_old[rows[diag]] - p.start
        c_new = new_of_old[cols[diag]] - p.start
        diag_csr = CSRMatrix.from_coo(r_new, c_new, data[diag], (p.size, p.size))
        operand = HybridVNM.compress_csr(diag_csr, pattern)
        b_local = b[global_perm.order[p.start : p.stop]]
        partial = device.spmm(operand, b_local) if device else engine.execute(operand, b_local)
        # Map the partial result back to global vertex order (the paper's
        # "reordered back before accumulation").
        out[global_perm.order[p.start : p.stop]] += partial

        # Off-diagonal coupling stays in the original order on the CSR path.
        off = in_rows & ~local
        if off.any():
            off_csr = CSRMatrix.from_coo(
                rows[off] - p.start, cols[off], data[off], (p.size, graph.n)
            )
            contrib = device.spmm(off_csr, b) if device else engine.execute(off_csr, b)
            out[p.start : p.stop] += contrib
        if device is not None:
            devices.append(device)
    return out, devices
