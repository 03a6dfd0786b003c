"""Shared N:M conformance scan over CSR coordinates.

The (row, M-segment) top-N analysis of a sparse matrix lives here once:
:func:`topn_keep_mask` is the magnitude-ranked keep decision
:func:`repro.sptc.hybrid.split_csr_to_pattern` uses to decide which
entries overflow into the CSR residual.

Everything is vectorized over the COO triplets (lexsort + segmented
cumulative counts); nothing densifies the matrix.
"""

from __future__ import annotations

import numpy as np

__all__ = ["topn_keep_mask"]


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
