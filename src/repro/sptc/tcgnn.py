"""TC-GNN-style blocked format for *dense* tensor cores (related work, §6).

TC-GNN [50] and DTC-SpMM [20] run sparse GNN workloads on dense tensor cores
by translating the sparse matrix into dense tiles (TC-GNN's "sparse graph
translation" condenses each row window's non-zero columns, then stores the
resulting tiles densely).  The paper's critique: "the use of dense formats
significantly increases memory usage, adding tens to hundreds of times more
space" — this module implements the format so the memory-overhead benchmark
can quantify that claim against CSR and V:N:M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRMatrix, coo_to_dense

__all__ = ["TCGNNBlocked"]


@dataclass
class TCGNNBlocked:
    """Row-window condensed dense-tile storage.

    The matrix is split into ``tile`` -row windows; within each window the
    non-zero columns are condensed (deduplicated and packed left), and the
    resulting ``tile × (n_condensed)`` strip is stored as dense ``tile×tile``
    blocks plus the condensed-column index map.
    """

    tile: int
    shape: tuple[int, int]
    window_ptr: np.ndarray        # (n_windows + 1,) tile extents per window
    col_map: np.ndarray           # (total_condensed_cols,) original column ids
    blocks: np.ndarray            # (n_blocks, tile, tile) dense values

    @classmethod
    def from_csr(cls, csr: CSRMatrix, tile: int = 16) -> "TCGNNBlocked":
        n_rows, n_cols = csr.shape
        n_windows = (n_rows + tile - 1) // tile
        rows, cols, data = csr.to_coo()
        window = rows // tile
        order = np.lexsort((cols, window))
        window, rows, cols, data = window[order], rows[order], cols[order], data[order]

        window_ptr = np.zeros(n_windows + 1, dtype=np.int64)
        col_map_parts: list[np.ndarray] = []
        block_parts: list[np.ndarray] = []
        for w in range(n_windows):
            sel = window == w
            if not sel.any():
                window_ptr[w + 1] = window_ptr[w]
                continue
            wc = cols[sel]
            wr = rows[sel] - w * tile
            wd = data[sel]
            uniq, inv = np.unique(wc, return_inverse=True)
            n_blocks_w = (uniq.size + tile - 1) // tile
            dense = np.zeros((tile, n_blocks_w * tile), dtype=np.float64)
            dense[wr, inv] = wd
            col_map_parts.append(
                np.concatenate([uniq, np.full(n_blocks_w * tile - uniq.size, -1, dtype=np.int64)])
            )
            block_parts.append(
                dense.reshape(tile, n_blocks_w, tile).transpose(1, 0, 2)
            )
            window_ptr[w + 1] = window_ptr[w] + n_blocks_w
        col_map = np.concatenate(col_map_parts) if col_map_parts else np.empty(0, dtype=np.int64)
        blocks = (
            np.concatenate(block_parts)
            if block_parts
            else np.empty((0, tile, tile), dtype=np.float64)
        )
        return cls(tile, (n_rows, n_cols), window_ptr, col_map, blocks)

    @property
    def n_blocks(self) -> int:
        return int(self.blocks.shape[0])

    def storage_bytes(self, value_bytes: int = 2) -> int:
        """Dense tile values (fp16) + condensed column map + window pointers."""
        return (
            self.blocks.size * value_bytes
            + self.col_map.size * 4
            + self.window_ptr.size * 8
        )

    def to_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, values)`` of the stored tile cells, block-major.

        Cell ``(b, i, j)`` of a block in window ``w`` sits at row
        ``w*tile + i`` and column ``col_map[b*tile + j]``; zero cells and
        padding columns (``col_map < 0``) are dropped.
        """
        window = np.repeat(np.arange(self.window_ptr.size - 1, dtype=np.int64),
                           np.diff(self.window_ptr))
        k, i, j = np.nonzero(self.blocks)
        cols = self.col_map[k * self.tile + j]
        live = cols >= 0
        k, i, j = k[live], i[live], j[live]
        return window[k] * self.tile + i, cols[live], self.blocks[k, i, j]

    def to_dense(self) -> np.ndarray:
        return coo_to_dense(self.shape, *self.to_coo())

    def __repr__(self) -> str:
        return f"TCGNNBlocked(shape={self.shape}, tile={self.tile}, n_blocks={self.n_blocks})"
