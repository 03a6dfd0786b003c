"""Shared N:M / V:N:M conformance scans over CSR coordinates.

The (row, M-segment) top-N analysis of a sparse matrix lives here once:
:func:`topn_keep_mask` is the magnitude-ranked keep decision
:func:`repro.sptc.hybrid.split_csr_to_pattern` uses to decide which
entries overflow into the CSR residual, and the ``*_violations``
profilers turn it into the per-row / per-tile-row conformance picture
(which row blocks could run on a pure V:N:M operand at all).

Everything is vectorized over the COO triplets (lexsort + segmented
cumulative counts); nothing densifies the matrix.
"""

from __future__ import annotations

import numpy as np

from ..core.patterns import VNMPattern

__all__ = [
    "topn_keep_mask",
    "row_nm_violations",
    "tile_row_vertical_violations",
    "conforming_tile_rows",
]


def topn_keep_mask(
    rows: np.ndarray,
    cols: np.ndarray,
    data: np.ndarray,
    *,
    n: int,
    m: int,
    n_segs: int,
    keep: np.ndarray | None = None,
) -> np.ndarray:
    """Keep the top-``n`` magnitude entries per (row, M-segment) group.

    ``keep`` pre-masks the candidates (entries already rejected by an
    earlier pass — e.g. the vertical column selection in
    :func:`~repro.sptc.hybrid.split_csr_to_pattern` — stay rejected and do
    not consume top-N slots).  Ranking is by descending ``|data|`` with a
    stable tie-break on the input order, so the decision is deterministic.
    Returns a boolean mask over the input entries.
    """
    if keep is None:
        keep = np.ones(rows.size, dtype=bool)
    if rows.size == 0:
        return keep.copy()
    seg_key = rows * np.int64(n_segs) + (cols // m)
    order = np.lexsort((-np.abs(data), seg_key))
    sk, kept = seg_key[order], keep[order]
    grp_start = np.ones(sk.size, dtype=bool)
    grp_start[1:] = sk[1:] != sk[:-1]
    # Running count of kept entries within each (row, seg) group.
    kept_int = kept.astype(np.int64)
    cum = np.cumsum(kept_int)
    starts = np.nonzero(grp_start)[0]
    grp_first_idx = np.repeat(starts, np.diff(np.append(starts, sk.size)))
    cum_before_group = np.where(grp_first_idx > 0, cum[np.maximum(grp_first_idx - 1, 0)], 0)
    kept_rank = cum - cum_before_group - kept_int  # kept entries before this one
    kept &= kept_rank < n
    out = np.empty(rows.size, dtype=bool)
    out[order] = kept
    return out


def row_nm_violations(csr, pattern: VNMPattern) -> np.ndarray:
    """Per-row count of entries exceeding the N:M horizontal budget.

    A row is N:M-conforming exactly when its count is zero; non-zero counts
    are how many entries a lossless split would push into a residual.
    """
    rows, cols, data = csr.to_coo()
    n_segs = (csr.shape[1] + pattern.m - 1) // pattern.m
    keep = topn_keep_mask(rows, cols, data, n=pattern.n, m=pattern.m, n_segs=n_segs)
    overflow = np.zeros(csr.shape[0], dtype=np.int64)
    if rows.size:
        np.add.at(overflow, rows[~keep], 1)
    return overflow


def tile_row_vertical_violations(csr, pattern: VNMPattern) -> np.ndarray:
    """Per tile-row (V-row band) count of meta-blocks with > k live columns.

    This is the VENOM vertical constraint; for ``v == 1`` with ``n <= k``
    it is implied by the horizontal one and the counts are all zero.
    """
    v, m, k = pattern.v, pattern.m, pattern.k
    n_trows = (csr.shape[0] + v - 1) // v
    out = np.zeros(n_trows, dtype=np.int64)
    rows, cols, _ = csr.to_coo()
    if rows.size == 0:
        return out
    n_segs = (csr.shape[1] + m - 1) // m
    # Distinct live (meta-block, local column) pairs, counted per block.
    key = ((rows // v) * np.int64(n_segs) + cols // m) * np.int64(m) + (cols % m)
    tiles = np.unique(key) // m
    tile_ids, live = np.unique(tiles, return_counts=True)
    bad = tile_ids[live > k]
    if bad.size:
        np.add.at(out, bad // n_segs, 1)
    return out


def conforming_tile_rows(csr, pattern: VNMPattern) -> np.ndarray:
    """Boolean per tile-row: every meta-block in the V-row band satisfies
    both V:N:M constraints with the entries exactly as stored (no split).

    A contiguous run of ``True`` bands compresses losslessly to a pure
    :class:`~repro.sptc.venom.VNMCompressed` operand.
    """
    v = pattern.v
    n_rows = csr.shape[0]
    n_trows = (n_rows + v - 1) // v
    horiz = row_nm_violations(csr, pattern)
    padded = np.zeros(n_trows * v, dtype=np.int64)
    padded[:n_rows] = horiz
    per_band = padded.reshape(n_trows, v).sum(axis=1)
    per_band += tile_row_vertical_violations(csr, pattern)
    return per_band == 0
