"""Block Sparse Row storage (paper §4.5, Listing 1 substrate).

The CUDA library stores the adjacency matrix as a collection of M×M blocks
with CSR-style block indexing (``bsrrowptr`` / ``bsrcolind`` / ``bsrval``)
and converts segment vectors to bit strings with integer intrinsics.
:meth:`BSRMatrix.row_segment_bits` is the NumPy analogue of Listing 1: it
produces the M-bit string of one segment vector by locating the block via
binary search in the block-column index and packing the block row's values.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRMatrix, coo_to_dense

__all__ = ["BSRMatrix"]


class BSRMatrix:
    """A square block-sparse matrix with ``block × block`` dense blocks."""

    # __weakref__ lets the execution-plan cache (repro.perf.engine) key
    # plans by operand identity with weakref-finalize eviction.
    __slots__ = ("block", "brow_ptr", "bcol_ind", "blocks", "shape", "__weakref__")

    def __init__(
        self,
        block: int,
        brow_ptr: np.ndarray,
        bcol_ind: np.ndarray,
        blocks: np.ndarray,
        shape: tuple[int, int],
    ):
        self.block = block
        self.brow_ptr = np.asarray(brow_ptr, dtype=np.int64)
        self.bcol_ind = np.asarray(bcol_ind, dtype=np.int64)
        self.blocks = np.asarray(blocks, dtype=np.float64)
        self.shape = shape
        if self.blocks.ndim != 3 or self.blocks.shape[1:] != (block, block):
            raise ValueError("blocks must have shape (n_blocks, block, block)")

    @classmethod
    def from_dense(cls, a: np.ndarray, block: int) -> "BSRMatrix":
        a = np.asarray(a, dtype=np.float64)
        n_rows, n_cols = a.shape
        nbr = (n_rows + block - 1) // block
        nbc = (n_cols + block - 1) // block
        padded = np.zeros((nbr * block, nbc * block), dtype=np.float64)
        padded[:n_rows, :n_cols] = a
        tiles = padded.reshape(nbr, block, nbc, block).transpose(0, 2, 1, 3)
        keep = np.abs(tiles).sum(axis=(2, 3)) > 0
        brow_ptr = np.zeros(nbr + 1, dtype=np.int64)
        brow_ptr[1:] = np.cumsum(keep.sum(axis=1))
        bi, bj = np.nonzero(keep)
        return cls(block, brow_ptr, bj, tiles[bi, bj], (n_rows, n_cols))

    @classmethod
    def from_csr(cls, csr: CSRMatrix, block: int) -> "BSRMatrix":
        return cls.from_dense(csr.to_dense(), block)

    def to_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, values)`` of the non-zeros inside the stored blocks."""
        brow = np.repeat(np.arange(self.brow_ptr.shape[0] - 1, dtype=np.int64),
                         np.diff(self.brow_ptr))
        k, i, j = np.nonzero(self.blocks)
        rows = brow[k] * self.block + i
        cols = self.bcol_ind[k] * self.block + j
        return rows, cols, self.blocks[k, i, j]

    def to_dense(self) -> np.ndarray:
        return coo_to_dense(self.shape, *self.to_coo())

    @property
    def n_blocks(self) -> int:
        return int(self.bcol_ind.shape[0])

    def storage_bytes(self, value_bytes: int = 2) -> int:
        """Modelled footprint: dense block values plus block indexing."""
        return (
            self.blocks.size * value_bytes
            + self.bcol_ind.size * 4
            + self.brow_ptr.size * 8
        )

    def block_lookup(self, brow: int, bcol: int) -> int:
        """Binary search the block-column index (Listing 1 line 1); -1 if absent."""
        lo, hi = int(self.brow_ptr[brow]), int(self.brow_ptr[brow + 1])
        pos = int(np.searchsorted(self.bcol_ind[lo:hi], bcol)) + lo
        if pos < hi and self.bcol_ind[pos] == bcol:
            return pos
        return -1

    def row_segment_bits(self, row: int, seg: int) -> int:
        """M-bit string of segment vector ``(row, seg)`` — Listing 1 semantics.

        Bit ``i`` (MSB-first, matching the listing's left-shift loop) is set
        iff element ``seg * M + i`` of the row is non-zero.
        """
        m = self.block
        bid = self.block_lookup(row // m, seg)
        val = 0
        if bid != -1:
            lane = row % m
            for i in range(m):
                val = (val << 1) | int(self.blocks[bid, lane, i] != 0.0)
        return val

    def all_segment_bits(self) -> np.ndarray:
        """Bit strings for every (row, segment) pair, shape ``(n, n_segs)``."""
        m = self.block
        n = self.shape[0]
        n_segs = (self.shape[1] + m - 1) // m
        out = np.zeros((n, n_segs), dtype=np.uint64)
        weights = (1 << np.arange(m - 1, -1, -1)).astype(np.uint64)
        nbr = self.brow_ptr.shape[0] - 1
        for bi in range(nbr):
            lo, hi = self.brow_ptr[bi], self.brow_ptr[bi + 1]
            if hi == lo:
                continue
            bits = (self.blocks[lo:hi] != 0.0).astype(np.uint64)
            packed = bits @ weights  # (n_blocks_in_row, m): one bit string per lane
            r0 = bi * m
            rows = min(m, n - r0)
            out[r0 : r0 + rows, self.bcol_ind[lo:hi]] = packed.T[:rows]
        return out

    def __repr__(self) -> str:
        return f"BSRMatrix(shape={self.shape}, block={self.block}, n_blocks={self.n_blocks})"
