"""Bit-packed binary matrices.

The CUDA library in the paper represents segment vectors as bit strings and
manipulates them with integer intrinsics (Listing 1).  :class:`BitMatrix` is
the NumPy analogue: the structural adjacency matrix is packed LSB-first into
``uint64`` words (bit ``b`` of word ``w`` in a row is column ``w * 64 + b``),
and the hot routines — per-segment value extraction, popcounts, symmetric
permutation — are whole-array word operations rather than per-element Python.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BitMatrix", "min_uint_dtype"]

_WORD = 64


def min_uint_dtype(bits: int) -> np.dtype:
    """Smallest unsigned dtype that can hold a ``bits``-wide value."""
    if bits <= 8:
        return np.dtype(np.uint8)
    if bits <= 16:
        return np.dtype(np.uint16)
    if bits <= 32:
        return np.dtype(np.uint32)
    if bits <= 64:
        return np.dtype(np.uint64)
    raise ValueError(f"cannot pack {bits} bits into a single integer")


class BitMatrix:
    """A dense bit-packed ``n_rows × n_cols`` 0/1 matrix."""

    __slots__ = ("words", "n_rows", "n_cols")

    def __init__(self, words: np.ndarray, n_rows: int, n_cols: int):
        expected_w = (n_cols + _WORD - 1) // _WORD
        if words.shape != (n_rows, expected_w) or words.dtype != np.uint64:
            raise ValueError("words array has wrong shape or dtype")
        self.words = words
        self.n_rows = n_rows
        self.n_cols = n_cols

    # -- constructors ------------------------------------------------------
    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "BitMatrix":
        w = (n_cols + _WORD - 1) // _WORD
        return cls(np.zeros((n_rows, w), dtype=np.uint64), n_rows, n_cols)

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "BitMatrix":
        a = np.asarray(a)
        n_rows, n_cols = a.shape
        bm = cls.zeros(n_rows, n_cols)
        rows, cols = np.nonzero(a)
        bm._set_bits(rows, cols)
        return bm

    @classmethod
    def from_edges(cls, n: int, rows: np.ndarray, cols: np.ndarray) -> "BitMatrix":
        """Square matrix with ones at ``(rows[i], cols[i])``."""
        bm = cls.zeros(n, n)
        bm._set_bits(np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))
        return bm

    @classmethod
    def from_scipy(cls, m) -> "BitMatrix":
        coo = m.tocoo()
        bm = cls.zeros(coo.shape[0], coo.shape[1])
        bm._set_bits(coo.row.astype(np.int64), coo.col.astype(np.int64))
        return bm

    @classmethod
    def from_buffer(cls, words: np.ndarray, n_rows: int, n_cols: int) -> "BitMatrix":
        """Wrap an existing packed word array **without copying**.

        ``words`` may view externally owned memory (e.g. a
        ``multiprocessing.shared_memory`` segment — see
        :mod:`repro.perf.shm`); the caller keeps that memory alive for the
        matrix's lifetime.  A read-only ``words`` yields a read-only matrix:
        the mutating methods (``set``, ``set_column``, ``swap_*``) raise,
        while the permutation/segment routines — which build new arrays —
        work unchanged.
        """
        return cls(words, n_rows, n_cols)

    def copy(self) -> "BitMatrix":
        return BitMatrix(self.words.copy(), self.n_rows, self.n_cols)

    # -- element access ----------------------------------------------------
    def _set_bits(self, rows: np.ndarray, cols: np.ndarray) -> None:
        w = cols // _WORD
        b = (cols % _WORD).astype(np.uint64)
        np.bitwise_or.at(self.words, (rows, w), np.uint64(1) << b)

    def get(self, i: int, j: int) -> int:
        return int((self.words[i, j // _WORD] >> np.uint64(j % _WORD)) & np.uint64(1))

    def set(self, i: int, j: int, value: int) -> None:
        mask = np.uint64(1) << np.uint64(j % _WORD)
        if value:
            self.words[i, j // _WORD] |= mask
        else:
            self.words[i, j // _WORD] &= ~mask

    def set_diagonal(self) -> None:
        """Set every bit ``(i, i)`` in one pass (each row owns one word)."""
        i = np.arange(min(self.n_rows, self.n_cols))
        self.words[i, i // _WORD] |= np.uint64(1) << (i % _WORD).astype(np.uint64)

    # -- conversions -------------------------------------------------------
    def to_dense(self, dtype=np.uint8) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols), dtype=dtype)
        for b in range(_WORD):
            bits = (self.words >> np.uint64(b)) & np.uint64(1)
            cols = np.arange(b, self.n_cols, _WORD)
            out[:, cols] = bits[:, : cols.size].astype(dtype)
        return out

    def to_scipy(self):
        import scipy.sparse as sp

        rows, cols = self.nonzero()
        data = np.ones(rows.size, dtype=np.float64)
        return sp.csr_matrix((data, (rows, cols)), shape=(self.n_rows, self.n_cols))

    def nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates of all set bits, in row-major order.

        Scans for non-zero *words* first, then peels their set bits lowest
        first, one bit of every still-live word per round: O(nnz) work and
        at most 64 rounds, never a 64-byte unpack per word.  Word ``i``'s
        bits land at ``cumsum(popcount)`` offsets, so the output stays in
        row-major, increasing-column order.
        """
        flat = self.words.reshape(-1)
        idx = np.flatnonzero(flat)
        if idx.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        n_words = self.words.shape[1]
        v = flat[idx]
        counts = np.bitwise_count(v)
        ends = np.cumsum(counts, dtype=np.int64)
        cols = np.empty(int(ends[-1]), dtype=np.int64)
        pos = ends - counts
        base = (idx % n_words) * _WORD
        one = np.uint64(1)
        while v.size:
            low = v & (~v + one)  # lowest set bit (two's complement)
            cols[pos] = base + np.bitwise_count(low - one)
            v = v ^ low
            pos += 1
            live = v != 0
            if not live.all():
                v, pos, base = v[live], pos[live], base[live]
        rows = np.repeat(idx // n_words, counts)
        return rows, cols

    # -- statistics --------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def nnz(self) -> int:
        return int(np.bitwise_count(self.words).sum())

    def row_nnz(self) -> np.ndarray:
        return np.bitwise_count(self.words).sum(axis=1).astype(np.int64)

    def density(self) -> float:
        total = self.n_rows * self.n_cols
        return self.nnz() / total if total else 0.0

    def is_symmetric(self) -> bool:
        if self.n_rows != self.n_cols:
            return False
        r, c = self.nonzero()
        fwd = set(zip(r.tolist(), c.tolist()))
        return all((j, i) in fwd for i, j in fwd)

    # -- segment views -----------------------------------------------------
    def n_segments(self, m: int) -> int:
        return (self.n_cols + m - 1) // m

    def segment_values(self, m: int) -> np.ndarray:
        """Per-row, per-segment ``m``-bit values, shape ``(n_rows, n_segs)``.

        Columns beyond ``n_cols`` (padding in the last segment) read as zero.
        The dtype is the smallest unsigned type that holds ``m`` bits.
        """
        if m > _WORD:
            raise ValueError(f"segment width {m} exceeds word size")
        import sys

        n_segs = self.n_segments(m)
        little = sys.byteorder == "little"
        if little and m in (8, 16, 32, 64):
            # LSB-first bit layout means a plain little-endian reinterpret of
            # the word array *is* the segment array.
            out = self.words.view(min_uint_dtype(m))
            return np.ascontiguousarray(out[:, :n_segs])
        if little and m == 4:
            b = self.words.view(np.uint8)
            out = np.empty((self.n_rows, b.shape[1] * 2), dtype=np.uint8)
            out[:, 0::2] = b & 0x0F
            out[:, 1::2] = b >> 4
            return out[:, :n_segs]
        if _WORD % m == 0:
            per_word = _WORD // m
            mask = np.uint64((1 << m) - 1)
            dtype = min_uint_dtype(m)
            # Write straight into the narrow dtype: the (n, n_segs) result can
            # be 8x smaller than a uint64 staging array, which dominates the
            # cost on collection-scale matrices.
            out = np.empty((self.n_rows, self.words.shape[1] * per_word), dtype=dtype)
            for j in range(per_word):
                out[:, j::per_word] = ((self.words >> np.uint64(j * m)) & mask).astype(dtype)
            return out[:, :n_segs]
        else:
            out = np.zeros((self.n_rows, n_segs), dtype=np.uint64)
            for j in range(m):
                col = np.arange(0, n_segs) * m + j
                valid = col < self.n_cols
                cv = col[valid]
                bits = (self.words[:, cv // _WORD] >> (cv % _WORD).astype(np.uint64)) & np.uint64(1)
                out[:, valid] |= bits << np.uint64(j)
        return out.astype(min_uint_dtype(m))

    def segment_values_t(self, m: int) -> np.ndarray:
        """Transposed segment values, shape ``(n_segs, n_rows)``, contiguous.

        Equivalent to ``segment_values(m).T`` but built from a word-level
        transpose, which is far cheaper than transposing the (much larger)
        byte-level result.
        """
        if m > _WORD or _WORD % m != 0:
            return np.ascontiguousarray(self.segment_values(m).T)
        n_segs = self.n_segments(m)
        per_word = _WORD // m
        mask = np.uint64((1 << m) - 1)
        dtype = min_uint_dtype(m)
        words_t = np.ascontiguousarray(self.words.T)  # (W, n)
        out = np.empty((words_t.shape[0] * per_word, self.n_rows), dtype=dtype)
        for j in range(per_word):
            out[j::per_word] = ((words_t >> np.uint64(j * m)) & mask).astype(dtype)
        return out[:n_segs]

    def segment_counts(self, m: int) -> np.ndarray:
        """Non-zeros per segment vector, shape ``(n_rows, n_segs)``, uint8."""
        vals = self.segment_values(m)
        return np.bitwise_count(vals).astype(np.uint8)

    def segment_column_bits(self, seg: int, m: int) -> np.ndarray:
        """Boolean ``(n_rows, m)`` view of one segment's columns (zero-padded)."""
        vals = self.segment_values(m)[:, seg]
        shifts = np.arange(m, dtype=vals.dtype)
        return ((vals[:, None] >> shifts) & vals.dtype.type(1)).astype(bool)

    # -- columns -----------------------------------------------------------
    def get_column(self, j: int) -> np.ndarray:
        """Boolean vector of column ``j``."""
        return ((self.words[:, j // _WORD] >> np.uint64(j % _WORD)) & np.uint64(1)).astype(bool)

    def set_column(self, j: int, bits: np.ndarray) -> None:
        mask = np.uint64(1) << np.uint64(j % _WORD)
        w = j // _WORD
        col = self.words[:, w] & ~mask
        self.words[:, w] = col | np.where(bits, mask, np.uint64(0))

    def swap_columns(self, u: int, v: int) -> None:
        bu, bv = self.get_column(u), self.get_column(v)
        self.set_column(u, bv)
        self.set_column(v, bu)

    def swap_rows(self, u: int, v: int) -> None:
        self.words[[u, v]] = self.words[[v, u]]

    # -- permutation -------------------------------------------------------
    def permute_rows(self, order: np.ndarray) -> "BitMatrix":
        return BitMatrix(self.words[np.asarray(order, dtype=np.int64)], self.n_rows, self.n_cols)

    def permute_columns(self, order: np.ndarray) -> "BitMatrix":
        order = np.asarray(order, dtype=np.int64)
        rows, cols = self.nonzero()
        inv = np.empty(self.n_cols, dtype=np.int64)
        inv[order] = np.arange(self.n_cols)
        bm = BitMatrix.zeros(self.n_rows, self.n_cols)
        bm._set_bits(rows, inv[cols])
        return bm

    def permute_symmetric(self, order: np.ndarray) -> "BitMatrix":
        """Return ``A[order][:, order]`` — a graph relabelling."""
        if self.n_rows != self.n_cols:
            raise ValueError("symmetric permutation requires a square matrix")
        return self.permute_rows(order).permute_columns(order)

    def apply_swaps_symmetric(self, swaps: list[tuple[int, int]]) -> "BitMatrix":
        """Apply a batch of vertex transpositions to rows and columns."""
        from .permutation import Permutation

        perm = Permutation.from_swaps(self.n_rows, swaps)
        return self.permute_symmetric(perm.order)

    # -- dunder ------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.shape == other.shape
            and np.array_equal(self.words, other.words)
        )

    def __hash__(self):  # pragma: no cover - mutable, not hashable
        raise TypeError("BitMatrix is mutable and unhashable")

    def __repr__(self) -> str:
        return f"BitMatrix(shape={self.shape}, nnz={self.nnz()})"
