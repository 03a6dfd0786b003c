"""N:M compressed storage — the native SPTC operand layout.

A matrix conforming to an N:M pattern stores, per M-wide segment vector,
exactly N value slots plus an N-entry metadata index (the in-segment column
of each kept value, 2 bits each on hardware for 2:4).  This halves (2:4) or
better the operand footprint and is what the ``mma.sp`` instruction consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.patterns import NMPattern
from .csr import coo_to_dense

__all__ = ["NMCompressed", "NMFormatError"]


class NMFormatError(ValueError):
    """Raised when a matrix does not conform to the requested N:M pattern."""


@dataclass
class NMCompressed:
    """Dense-of-segments N:M compressed matrix.

    Attributes
    ----------
    values:
        ``(n_rows, n_segs * N)`` float array; slot ``(r, s*N + j)`` holds the
        j-th kept value of segment ``s`` in row ``r`` (zero-padded when the
        segment has fewer than N non-zeros).
    meta:
        Same shape, uint8: in-segment column position of each kept value.
        When a segment has fewer than N non-zeros the spare slots carry a
        zero value at some unused (distinct) in-segment position, so the N
        positions of a segment are always pairwise distinct — the property
        the hardware metadata encoding relies on.
    """

    pattern: NMPattern
    shape: tuple[int, int]
    values: np.ndarray
    meta: np.ndarray

    @classmethod
    def compress(cls, a: np.ndarray, pattern: NMPattern) -> "NMCompressed":
        """Compress a dense matrix; raises :class:`NMFormatError` on violation."""
        a = np.asarray(a, dtype=np.float64)
        n_rows, n_cols = a.shape
        n, m = pattern.n, pattern.m
        n_segs = (n_cols + m - 1) // m
        padded = np.zeros((n_rows, n_segs * m), dtype=np.float64)
        padded[:, :n_cols] = a
        segs = padded.reshape(n_rows, n_segs, m)
        nnz_per_vec = (segs != 0.0).sum(axis=2)
        if (nnz_per_vec > n).any():
            r, s = np.argwhere(nnz_per_vec > n)[0]
            raise NMFormatError(
                f"segment vector (row {r}, segment {s}) has "
                f"{int(nnz_per_vec[r, s])} non-zeros, violating {pattern}"
            )
        # Order positions so non-zeros come first (stable by column), then pad.
        nonzero = segs != 0.0
        order = np.argsort(~nonzero, axis=2, kind="stable")
        meta = order[:, :, :n].astype(np.uint8)
        values = np.take_along_axis(segs, order[:, :, :n], axis=2)
        return cls(pattern, (n_rows, n_cols), values.reshape(n_rows, n_segs * n), meta.reshape(n_rows, n_segs * n))

    @property
    def n_segs(self) -> int:
        return self.meta.shape[1] // self.pattern.n

    def to_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, values)`` of the stored non-zeros, row-major.

        Slot ``(r, s*N + j)`` sits at column ``s*M + meta[r, s*N + j]``;
        zero-valued padding slots are dropped.
        """
        n, m = self.pattern.n, self.pattern.m
        seg_base = np.repeat(np.arange(self.n_segs, dtype=np.int64) * m, n)
        cols = seg_base[None, :] + self.meta.astype(np.int64)
        rows = np.broadcast_to(np.arange(self.shape[0], dtype=np.int64)[:, None], cols.shape)
        live = self.values != 0.0
        return rows[live], cols[live], self.values[live]

    def decompress(self) -> np.ndarray:
        return coo_to_dense(self.shape, *self.to_coo())

    def storage_bytes(self, value_bytes: int = 2, meta_bits: int = 2) -> int:
        """Modelled operand footprint (fp16 values + 2-bit metadata, as on A100)."""
        return self.values.size * value_bytes + (self.meta.size * meta_bits + 7) // 8

    def __repr__(self) -> str:
        return f"NMCompressed(pattern={self.pattern}, shape={self.shape})"
