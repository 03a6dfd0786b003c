"""V:N:M (VENOM) compressed format.

The VENOM abstraction [11] generalizes hardware 2:4 sparsity: a matrix is a
grid of V×M *meta-blocks*; each non-empty block stores the ids of its ≤ k
live columns (k = 4 on current SPTC) plus an N:k compressed V×N value panel
with per-value 2-bit positions.  The hardware ``mma.sp`` consumes the inner
panels; the column-id indirection is the software abstraction layered on
top.  Storage is CSR-of-tiles: only non-empty meta-blocks are kept.  The
format's SpMM is charged by the cost model and computed by
:func:`repro.perf.engine.execute` over :meth:`VNMCompressed.to_coo`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.patterns import VNMPattern
from .csr import coo_to_dense

__all__ = ["VNMCompressed", "VNMFormatError", "index_dtype", "vnm_storage_bytes"]


def index_dtype(bound: int) -> np.dtype:
    """Smallest signed integer dtype holding every value in ``[0, bound]``.

    ``tile_seg`` and ``col_ids`` share the bound ``n_segs * m``, so both
    the ids and ``tile_seg * m`` stay in range of the narrow dtype.
    """
    for dtype in (np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def vnm_storage_bytes(pattern: VNMPattern, n_tile_rows: int, n_tiles: int,
                      value_bytes: int = 2, meta_bits: int = 2, col_id_bytes: int = 4) -> int:
    """Modelled footprint of a V:N:M operand from its tile counts alone.

    Per stored tile: ``V·N`` values with their metadata, ``k`` column ids
    and a segment index; plus the ``n_tile_rows + 1`` tile-row pointers.
    """
    slots = n_tiles * pattern.v * pattern.n
    return (
        slots * value_bytes
        + (slots * meta_bits + 7) // 8
        + n_tiles * pattern.k * col_id_bytes
        + (n_tile_rows + 1) * 8
        + n_tiles * 4
    )


class VNMFormatError(ValueError):
    """Raised when a matrix does not conform to the requested V:N:M pattern."""


@dataclass
class VNMCompressed:
    """CSR-of-tiles V:N:M compressed matrix.

    Attributes
    ----------
    tile_ptr:
        ``(n_tile_rows + 1,)`` — CSR-style extent of each tile row.
    tile_seg:
        ``(n_tiles,)`` — segment (tile column) index of each stored tile.
    col_ids:
        ``(n_tiles, k)`` — global column ids of each tile's live columns,
        padded with the tile's first column (padding slots carry zero values).
        Both are stored in :func:`index_dtype` of ``n_segs * m``.
    values / meta:
        ``(n_tiles, V, N)`` — compressed value panel and, per value, its
        position within the tile's ``col_ids`` (the 2-bit metadata).
    """

    pattern: VNMPattern
    shape: tuple[int, int]
    tile_ptr: np.ndarray
    tile_seg: np.ndarray
    col_ids: np.ndarray
    values: np.ndarray
    meta: np.ndarray
    # Total live (non-padding) columns across all tiles; the cost model
    # charges B-operand traffic for these, not for the full k per tile.
    n_live_cols: int = 0

    # -- construction ------------------------------------------------------
    @classmethod
    def compress(cls, a: np.ndarray, pattern: VNMPattern) -> "VNMCompressed":
        """Compress a dense conforming matrix; raises on pattern violations."""
        a = np.asarray(a, dtype=np.float64)
        n_rows, n_cols = a.shape
        v, n, m, k = pattern.v, pattern.n, pattern.m, pattern.k
        n_trows = (n_rows + v - 1) // v
        n_segs = (n_cols + m - 1) // m
        padded = np.zeros((n_trows * v, n_segs * m), dtype=np.float64)
        padded[:n_rows, :n_cols] = a
        tiles = padded.reshape(n_trows, v, n_segs, m).transpose(0, 2, 1, 3)  # (tr, ts, v, m)
        live = (tiles != 0).any(axis=2)  # (tr, ts, m)
        n_live = live.sum(axis=2)
        if (n_live > k).any():
            tr, ts = np.argwhere(n_live > k)[0]
            raise VNMFormatError(
                f"meta-block ({tr},{ts}) has {int(n_live[tr, ts])} live columns > k={k}"
            )
        row_nnz = (tiles != 0).sum(axis=3)
        if (row_nnz > n).any():
            tr, ts = np.argwhere((row_nnz > n).any(axis=2))[0]
            raise VNMFormatError(f"meta-block ({tr},{ts}) violates the {n}:{m} row constraint")

        keep = live.any(axis=2)  # non-empty tiles
        tr_idx, ts_idx = np.nonzero(keep)
        n_tiles = tr_idx.size
        tile_ptr = np.zeros(n_trows + 1, dtype=np.int64)
        np.add.at(tile_ptr, tr_idx + 1, 1)
        np.cumsum(tile_ptr, out=tile_ptr)

        # Select live column positions (pad with the tile's first column).
        live_kept = live[tr_idx, ts_idx]  # (n_tiles, m)
        order = np.argsort(~live_kept, axis=1, kind="stable")[:, :k]  # local cols
        pad_mask = np.take_along_axis(~live_kept, order, axis=1)
        order[pad_mask] = 0
        # global ids (may exceed n_cols in padding; values are 0)
        col_ids = ts_idx[:, None] * m + order

        # Condense each tile to its k live columns, then N-compress the rows.
        tiles_kept = tiles[tr_idx, ts_idx]  # (n_tiles, v, m)
        condensed = np.take_along_axis(tiles_kept, order[:, None, :].repeat(v, axis=1), axis=2)
        condensed[pad_mask[:, None, :].repeat(v, axis=1)] = 0.0
        pos_order = np.argsort(condensed == 0, axis=2, kind="stable")[:, :, :n]
        meta = pos_order.astype(np.uint8)
        values = np.take_along_axis(condensed, pos_order, axis=2)

        ids = index_dtype(n_segs * m)
        return cls(
            pattern,
            (n_rows, n_cols),
            tile_ptr,
            ts_idx.astype(ids),
            col_ids.astype(ids),
            values,
            meta,
            n_live_cols=int(live_kept.sum()),
        )

    @classmethod
    def compress_csr(cls, csr, pattern: VNMPattern) -> "VNMCompressed":
        """Compress straight from CSR without densifying (O(nnz log nnz)).

        Group non-zeros into meta-blocks, rank each tile's live columns, and
        slot each value into its row's N-compressed panel — all with sorts and
        segmented cumulative counts, never materializing the dense matrix.
        """
        from .csr import CSRMatrix  # local import to avoid a cycle at module load

        assert isinstance(csr, CSRMatrix)
        n_rows, n_cols = csr.shape
        v, n, m, k = pattern.v, pattern.n, pattern.m, pattern.k
        n_trows = (n_rows + v - 1) // v
        n_segs = (n_cols + m - 1) // m
        ids = index_dtype(n_segs * m)
        rows, cols, data = csr.to_coo()
        if rows.size == 0:
            return cls(
                pattern, (n_rows, n_cols),
                np.zeros(n_trows + 1, dtype=np.int64),
                np.zeros(0, dtype=ids),
                np.zeros((0, k), dtype=ids),
                np.zeros((0, v, n)),
                np.zeros((0, v, n), dtype=np.uint8),
                n_live_cols=0,
            )
        tile_key = (rows // v) * np.int64(n_segs) + (cols // m)
        lcol = cols % m
        rv = rows % v

        # Pass 1: live-column ranks per tile (sorted by tile, then local col).
        o1 = np.lexsort((rv, lcol, tile_key))
        tk1, lc1 = tile_key[o1], lcol[o1]
        tile_start = np.ones(tk1.size, dtype=bool)
        tile_start[1:] = tk1[1:] != tk1[:-1]
        pair_start = tile_start.copy()
        pair_start[1:] |= lc1[1:] != lc1[:-1]
        c = np.cumsum(pair_start) - 1  # global live-pair counter
        tile_first_c = np.repeat(c[tile_start],
                                 np.diff(np.append(np.nonzero(tile_start)[0], tk1.size)))
        rank1 = c - tile_first_c
        if rank1.max(initial=0) >= k:
            raise VNMFormatError(f"a meta-block has more than k={k} live columns")
        tile_index1 = np.cumsum(tile_start) - 1

        tiles_keys = tk1[tile_start]
        n_tiles = tiles_keys.size
        ts_idx = tiles_keys % n_segs
        tr_idx = tiles_keys // n_segs
        col_ids = np.broadcast_to((ts_idx * m).astype(ids)[:, None], (n_tiles, k)).copy()
        col_ids[tile_index1[pair_start], rank1[pair_start]] = (
            ts_idx[tile_index1[pair_start]] * m + lc1[pair_start])

        # Per non-zero live rank, back in original order.
        live_rank = np.empty(rows.size, dtype=np.int64)
        live_rank[o1] = rank1

        # Pass 2: slot each value within its (tile, tile-row) panel.
        o2 = np.lexsort((lcol, rv, tile_key))
        tk2, rv2 = tile_key[o2], rv[o2]
        grp_start = np.ones(tk2.size, dtype=bool)
        grp_start[1:] = (tk2[1:] != tk2[:-1]) | (rv2[1:] != rv2[:-1])
        g = np.cumsum(grp_start) - 1
        grp_starts = np.nonzero(grp_start)[0]
        grp_first = np.repeat(grp_starts, np.diff(np.append(grp_starts, tk2.size)))
        slot2 = np.arange(tk2.size) - grp_first
        if slot2.max(initial=0) >= n:
            raise VNMFormatError(f"a segment vector violates the {n}:{m} row constraint")
        del g

        tile_start2 = np.ones(tk2.size, dtype=bool)
        tile_start2[1:] = tk2[1:] != tk2[:-1]
        tile_index2 = np.cumsum(tile_start2) - 1

        values = np.zeros((n_tiles, v, n), dtype=np.float64)
        meta = np.zeros((n_tiles, v, n), dtype=np.uint8)
        values[tile_index2, rv2, slot2] = data[o2]
        meta[tile_index2, rv2, slot2] = live_rank[o2].astype(np.uint8)
        # Give padding slots distinct positions: fill with the slot index where
        # no value landed (keeps add-based decompression exact).
        pad = values == 0.0
        # Only padding slots after the last real value need care; real zeros
        # cannot exist because CSR stores non-zeros only.
        slot_grid = np.broadcast_to(np.arange(n, dtype=np.uint8), meta.shape)
        meta = np.where(pad, np.minimum(slot_grid, k - 1), meta)

        tile_ptr = np.zeros(n_trows + 1, dtype=np.int64)
        np.add.at(tile_ptr, tr_idx + 1, 1)
        np.cumsum(tile_ptr, out=tile_ptr)
        return cls(
            pattern, (n_rows, n_cols), tile_ptr, ts_idx.astype(ids),
            col_ids, values, meta, n_live_cols=int(pair_start.sum()),
        )

    # -- properties ----------------------------------------------------------
    @property
    def n_tiles(self) -> int:
        return int(self.tile_seg.shape[0])

    @property
    def n_tile_rows(self) -> int:
        return int(self.tile_ptr.shape[0] - 1)

    def storage_bytes(self, value_bytes: int = 2, meta_bits: int = 2, col_id_bytes: int = 4) -> int:
        """Modelled footprint: fp16 values, 2-bit metadata, 32-bit column ids."""
        return vnm_storage_bytes(self.pattern, self.n_tile_rows, self.n_tiles,
                                 value_bytes, meta_bits, col_id_bytes)

    # -- numerics --------------------------------------------------------------
    def slot_columns(self, slots: np.ndarray) -> np.ndarray:
        """Column id of each value slot, one flat gather from each array.

        ``slots`` index ``values.ravel()``; slot ``s`` lies in tile
        ``t = s // (V·N)`` and holds column ``col_ids[t, meta.flat[s]]``.
        The ids come back in ``col_ids``' dtype.
        """
        p = self.pattern
        tile = slots // (p.v * p.n)
        return self.col_ids.ravel()[tile * p.k + self.meta.ravel()[slots]]

    def to_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, values)`` of the stored non-zeros, tile-major, int64 ids.

        Value ``(t, r, j)`` sits at row ``tile_row(t)*V + r`` and column
        ``col_ids[t, meta[t, r, j]]``.  Padding slots hold zero values at
        possibly duplicated positions and are dropped, so the live
        coordinates are distinct.
        """
        v = self.pattern.v
        live = np.flatnonzero(self.values.ravel() != 0.0)
        tile_rows = np.repeat(np.arange(self.n_tile_rows, dtype=np.int64) * v,
                              np.diff(self.tile_ptr))
        # Row of each (tile, r) panel; slot s lies in panel s // N.
        panel_rows = (tile_rows[:, None] + np.arange(v)).ravel()
        rows = panel_rows[live // self.pattern.n]
        cols = self.slot_columns(live).astype(np.int64)
        return rows, cols, self.values.ravel()[live]

    def decompress(self) -> np.ndarray:
        return coo_to_dense(self.shape, *self.to_coo())

    def __repr__(self) -> str:
        return f"VNMCompressed(pattern={self.pattern}, shape={self.shape}, n_tiles={self.n_tiles})"
