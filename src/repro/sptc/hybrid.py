"""Hybrid V:N:M + residual splitting.

A reordered matrix occasionally retains a handful of pattern violations
(the paper reports 98–100% — not always 100% — vector-level violation
removal).  To keep the SPTC pipeline lossless in those cases, the matrix is
split into a conforming part (compressed to V:N:M and run on the SPTC path)
plus a tiny CSR *residual* holding the overflow entries (run on the CUDA-core
path).  :meth:`HybridVNM.to_coo` concatenates both parts, so SpMM results
add back exactly; the residual's cost-model time is charged alongside the
SPTC kernel's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.patterns import VNMPattern
from .conformance import topn_keep_mask
from .costmodel import CostModel, SpmmWorkload
from .csr import CSRMatrix, coo_to_dense
from .venom import VNMCompressed

__all__ = ["HybridVNM", "split_to_pattern", "split_csr_to_pattern"]


def split_csr_to_pattern(csr: CSRMatrix, pattern: VNMPattern) -> tuple[CSRMatrix, CSRMatrix]:
    """Sparse-path equivalent of :func:`split_to_pattern`.

    Works per meta-block on the CSR coordinates: ranks each tile's live
    columns by magnitude mass (keep top-k), then each row panel's surviving
    entries by magnitude (keep top-N).  Returns (conforming, residual) CSR
    matrices whose sum is exactly the input.
    """
    n_rows, n_cols = csr.shape
    v, n, m, k = pattern.v, pattern.n, pattern.m, pattern.k
    n_segs = (n_cols + m - 1) // m
    rows, cols, data = csr.to_coo()
    if rows.size == 0:
        empty = CSRMatrix.from_coo(rows, cols, data, csr.shape)
        return empty, CSRMatrix.from_coo(rows, cols, data, csr.shape)
    tile_key = (rows // v) * np.int64(n_segs) + (cols // m)
    lcol = cols % m

    # Column mass per (tile, lcol) pair.
    o1 = np.lexsort((lcol, tile_key))
    tk1, lc1, dat1 = tile_key[o1], lcol[o1], np.abs(data[o1])
    pair_start = np.ones(tk1.size, dtype=bool)
    pair_start[1:] = (tk1[1:] != tk1[:-1]) | (lc1[1:] != lc1[:-1])
    pair_id = np.cumsum(pair_start) - 1
    starts = np.nonzero(pair_start)[0]
    mass = np.add.reduceat(dat1, starts)
    pair_tile = tk1[pair_start]
    # Rank pairs within each tile by (-mass, lcol): stable column selection.
    op = np.lexsort((lc1[pair_start], -mass, pair_tile))
    ranked_tile = pair_tile[op]
    rstart = np.ones(ranked_tile.size, dtype=bool)
    rstart[1:] = ranked_tile[1:] != ranked_tile[:-1]
    tile_starts = np.nonzero(rstart)[0]
    first = np.repeat(tile_starts, np.diff(np.append(tile_starts, ranked_tile.size)))
    rank_sorted = np.arange(ranked_tile.size) - first
    col_rank = np.empty(pair_tile.size, dtype=np.int64)
    col_rank[op] = rank_sorted
    keep_pair = col_rank < k
    keep1 = keep_pair[pair_id]  # per non-zero, in o1 order

    keep = np.empty(rows.size, dtype=bool)
    keep[o1] = keep1

    # Horizontal: among kept entries, keep top-N magnitude per (row, seg).
    # Shared with the conformance profilers in repro.sptc.conformance.
    final_keep = topn_keep_mask(rows, cols, data, n=n, m=m, n_segs=n_segs, keep=keep)

    conforming = CSRMatrix.from_coo(rows[final_keep], cols[final_keep], data[final_keep], csr.shape)
    residual = CSRMatrix.from_coo(rows[~final_keep], cols[~final_keep], data[~final_keep],
                                  csr.shape)
    return conforming, residual


def split_to_pattern(a: np.ndarray, pattern: VNMPattern) -> tuple[np.ndarray, np.ndarray]:
    """Split ``a = conforming + residual`` with the conforming part V:N:M-valid.

    Per meta-block, keep the ``k`` columns with the largest magnitude mass and
    per row the ``N`` largest entries among them; everything else moves to the
    residual.  The split is exact (no values are altered) — only placement
    changes, unlike pruning which discards the overflow.
    """
    a = np.asarray(a, dtype=np.float64)
    n_rows, n_cols = a.shape
    v, n, m, k = pattern.v, pattern.n, pattern.m, pattern.k
    n_trows = (n_rows + v - 1) // v
    n_segs = (n_cols + m - 1) // m
    padded = np.zeros((n_trows * v, n_segs * m), dtype=np.float64)
    padded[:n_rows, :n_cols] = a
    tiles = padded.reshape(n_trows, v, n_segs, m).transpose(0, 2, 1, 3)  # (tr, ts, v, m)

    # Vertical: keep the top-k columns per tile by total magnitude.
    col_mass = np.abs(tiles).sum(axis=2)  # (tr, ts, m)
    col_rank = np.argsort(np.argsort(-col_mass, axis=2, kind="stable"), axis=2)
    col_keep = col_rank < k  # (tr, ts, m)
    keep = np.broadcast_to(col_keep[:, :, None, :], tiles.shape).copy()

    # Horizontal: among kept columns, keep the N largest per row.
    masked = np.where(keep, np.abs(tiles), -1.0)
    row_rank = np.argsort(np.argsort(-masked, axis=3, kind="stable"), axis=3)
    keep &= row_rank < n

    conforming_tiles = np.where(keep, tiles, 0.0)
    residual_tiles = np.where(keep, 0.0, tiles)
    def untile(t):
        return t.transpose(0, 2, 1, 3).reshape(n_trows * v, n_segs * m)[:n_rows, :n_cols]

    return untile(conforming_tiles), untile(residual_tiles)


@dataclass
class HybridVNM:
    """A lossless SPTC operand: V:N:M main part plus CSR residual."""

    main: VNMCompressed
    residual: CSRMatrix | None

    @classmethod
    def compress(cls, a: np.ndarray, pattern: VNMPattern) -> "HybridVNM":
        conforming, residual = split_to_pattern(a, pattern)
        main = VNMCompressed.compress(conforming, pattern)
        res = CSRMatrix.from_dense(residual) if np.any(residual) else None
        return cls(main, res)

    @classmethod
    def compress_csr(cls, csr: CSRMatrix, pattern: VNMPattern) -> "HybridVNM":
        """Sparse-path compression — never densifies the operand."""
        conforming, residual = split_csr_to_pattern(csr, pattern)
        main = VNMCompressed.compress_csr(conforming, pattern)
        return cls(main, residual if residual.nnz else None)

    @property
    def shape(self) -> tuple[int, int]:
        return self.main.shape

    @property
    def pattern(self) -> VNMPattern:
        return self.main.pattern

    @property
    def residual_nnz(self) -> int:
        return 0 if self.residual is None else self.residual.nnz

    def residual_fraction(self) -> float:
        total = int((self.main.values != 0).sum()) + self.residual_nnz
        return self.residual_nnz / total if total else 0.0

    def to_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, values)``: the V:N:M part's triplets, then the residual's."""
        if self.residual is None:
            return self.main.to_coo()
        parts = zip(self.main.to_coo(), self.residual.to_coo())
        rows, cols, vals = (np.concatenate(pair) for pair in parts)
        return rows, cols, vals

    def decompress(self) -> np.ndarray:
        return coo_to_dense(self.shape, *self.to_coo())

    def model_time(self, cost_model: CostModel, h: int) -> float:
        t = cost_model.time_venom_spmm(self.main, h)
        if self.residual is not None:
            t += cost_model.time_csr_spmm(SpmmWorkload.from_csr(self.residual, h))
        return t
