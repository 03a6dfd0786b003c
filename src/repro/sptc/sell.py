"""SELL-C-σ (sliced ELLPACK) — the classic SIMD-friendly sparse format.

A standard HPC baseline between CSR and fully-structured formats: rows are
sorted by length within windows of σ, grouped into slices of C rows, and
each slice is padded to its longest row.  It regularizes access like the
SPTC formats do, but by *padding* rather than by reordering to a hardware
pattern — a useful comparison point for the padding-vs-reordering trade-off
the paper's design avoids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRMatrix, coo_to_dense

__all__ = ["SellCSigma"]


@dataclass
class SellCSigma:
    """SELL-C-σ storage.

    Attributes
    ----------
    c / sigma:
        Slice height and sorting-window size (σ a multiple of C).
    slice_ptr:
        ``(n_slices + 1,)`` offsets into the value/column arrays, in units of
        entries (slice width × C).
    cols / vals:
        Column indices (−1 for padding) and values, slice-major, stored
        column-major *within* each slice so SIMD lanes read consecutively.
    row_order:
        Permutation applied to rows (gather form): slice row ``i`` holds
        original row ``row_order[i]``.
    """

    c: int
    sigma: int
    shape: tuple[int, int]
    slice_ptr: np.ndarray
    slice_width: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    row_order: np.ndarray

    @classmethod
    def from_csr(cls, csr: CSRMatrix, c: int = 8, sigma: int = 64) -> "SellCSigma":
        if sigma % c != 0:
            raise ValueError("sigma must be a multiple of C")
        n_rows = csr.shape[0]
        lengths = csr.row_nnz()
        row_order = np.arange(n_rows, dtype=np.int64)
        # Sort rows by descending length within σ-windows.
        for start in range(0, n_rows, sigma):
            stop = min(start + sigma, n_rows)
            window = row_order[start:stop]
            row_order[start:stop] = window[np.argsort(-lengths[window], kind="stable")]

        n_slices = (n_rows + c - 1) // c
        slice_width = np.zeros(n_slices, dtype=np.int64)
        slice_ptr = np.zeros(n_slices + 1, dtype=np.int64)
        for s in range(n_slices):
            rows = row_order[s * c : (s + 1) * c]
            slice_width[s] = int(lengths[rows].max(initial=0))
            slice_ptr[s + 1] = slice_ptr[s] + slice_width[s] * c
        total = int(slice_ptr[-1])
        cols = np.full(total, -1, dtype=np.int64)
        vals = np.zeros(total, dtype=np.float64)
        for s in range(n_slices):
            width = int(slice_width[s])
            base = int(slice_ptr[s])
            for lane, r in enumerate(row_order[s * c : (s + 1) * c]):
                lo, hi = csr.indptr[r], csr.indptr[r + 1]
                k = int(hi - lo)
                # column-major within the slice: entry j of lane sits at
                # base + j * c + lane.
                idx = base + np.arange(k) * c + lane
                cols[idx] = csr.indices[lo:hi]
                vals[idx] = csr.data[lo:hi]
        return cls(c, sigma, csr.shape, slice_ptr, slice_width, cols, vals, row_order)

    @property
    def n_slices(self) -> int:
        return int(self.slice_width.shape[0])

    @property
    def padded_entries(self) -> int:
        return int(self.vals.size)

    def padding_fraction(self) -> float:
        nnz = int((self.cols >= 0).sum())
        return 1.0 - nnz / self.vals.size if self.vals.size else 0.0

    def storage_bytes(self, value_bytes: int = 4) -> int:
        return self.vals.size * value_bytes + self.cols.size * 4 + self.slice_ptr.size * 8

    def to_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, values)`` of the stored entries, slice-major.

        Entry ``base + j*C + lane`` of slice ``s`` belongs to row
        ``row_order[s*C + lane]``; padding entries (``cols < 0``) are dropped.
        """
        live = np.flatnonzero(self.cols >= 0)
        slice_of = np.repeat(np.arange(self.n_slices, dtype=np.int64),
                             np.diff(self.slice_ptr))[live]
        lane = (live - self.slice_ptr[slice_of]) % self.c
        return self.row_order[slice_of * self.c + lane], self.cols[live], self.vals[live]

    def to_dense(self) -> np.ndarray:
        return coo_to_dense(self.shape, *self.to_coo())

    def __repr__(self) -> str:
        return (
            f"SellCSigma(shape={self.shape}, C={self.c}, sigma={self.sigma}, "
            f"padding={self.padding_fraction():.1%})"
        )
