"""Differential properties of the word-level pattern kernels.

``NMPattern.count_invalid_vectors``, ``VNMPattern.count_vertical_violations``
and ``VNMPattern.tile_column_masks`` read the packed words directly (a
``uint<M>`` view, a SWAR nibble count for M = 4, an OR per V-row group).
Each is checked against the mask-based definition, computed here from the
dense 0/1 matrix and from ``BitMatrix.segment_counts``/``segment_values``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BitMatrix, NMPattern, VNMPattern

M_VALUES = [2, 3, 4, 5, 8, 12, 16, 32, 64]
V_VALUES = [1, 2, 3, 8, 16]


@st.composite
def dense_matrices(draw, max_rows=40, max_cols=150):
    """0/1 matrices whose shapes are rarely multiples of V, M or 64."""
    n_rows = draw(st.integers(min_value=1, max_value=max_rows))
    n_cols = draw(st.integers(min_value=1, max_value=max_cols))
    fill = draw(st.sampled_from(["empty", "full", "random"]))
    if fill == "empty":
        return np.zeros((n_rows, n_cols), dtype=np.uint8)
    if fill == "full":
        return np.ones((n_rows, n_cols), dtype=np.uint8)
    density = draw(st.sampled_from([0.05, 0.3, 0.7, 0.95]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.random((n_rows, n_cols)) < density).astype(np.uint8)


def segment_bits(a: np.ndarray, m: int) -> np.ndarray:
    """``(n_rows, n_segs, m)`` view of ``a`` with the last segment zero-padded."""
    n_rows, n_cols = a.shape
    n_segs = -(-n_cols // m)
    padded = np.zeros((n_rows, n_segs * m), dtype=np.int64)
    padded[:, :n_cols] = a
    return padded.reshape(n_rows, n_segs, m)


def group_bits(a: np.ndarray, m: int, v: int) -> np.ndarray:
    """``(n_groups, n_segs, m)`` live columns of each V×M meta-block."""
    bits = segment_bits(a, m)
    n_groups = -(-a.shape[0] // v)
    padded = np.zeros((n_groups * v,) + bits.shape[1:], dtype=np.int64)
    padded[: a.shape[0]] = bits
    return padded.reshape(n_groups, v, *bits.shape[1:]).max(axis=1)


def old_tile_column_masks(bm: BitMatrix, m: int, v: int) -> np.ndarray:
    """The masks as ``tile_column_masks`` built them before the word kernel."""
    vals = bm.segment_values(m)
    n_groups = -(-vals.shape[0] // v)
    pad = n_groups * v - vals.shape[0]
    if pad:
        vals = np.vstack([vals, np.zeros((pad, vals.shape[1]), dtype=vals.dtype)])
    return np.bitwise_or.reduce(vals.reshape(n_groups, v, -1), axis=1)


class TestWordCountsMatchMasks:
    @settings(max_examples=300, deadline=None)
    @given(dense_matrices(), st.sampled_from(M_VALUES), st.data())
    def test_segments_above_every_limit(self, a, m, data):
        bm = BitMatrix.from_dense(a)
        limit = data.draw(st.integers(min_value=0, max_value=m + 1))
        want = int((segment_bits(a, m).sum(axis=2) > limit).sum())
        assert bm.count_segments_above(m, limit) == want
        assert int((bm.segment_counts(m) > limit).sum()) == want

    @settings(max_examples=200, deadline=None)
    @given(dense_matrices(), st.sampled_from(M_VALUES), st.data())
    def test_count_invalid_vectors(self, a, m, data):
        bm = BitMatrix.from_dense(a)
        pat = NMPattern(data.draw(st.integers(min_value=1, max_value=m)), m)
        assert pat.count_invalid_vectors(bm) == int(pat.invalid_vector_mask(bm).sum())
        assert pat.matrix_conforms(bm) == (not pat.invalid_vector_mask(bm).any())

    @settings(max_examples=300, deadline=None)
    @given(dense_matrices(), st.sampled_from(M_VALUES), st.sampled_from(V_VALUES), st.data())
    def test_vertical_counts_every_limit(self, a, m, v, data):
        bm = BitMatrix.from_dense(a)
        live = group_bits(a, m, v).sum(axis=2)
        limit = data.draw(st.integers(min_value=0, max_value=m + 1))
        assert bm.group_or(v).count_segments_above(m, limit) == int((live > limit).sum())
        n = data.draw(st.integers(min_value=1, max_value=m))
        k = data.draw(st.integers(min_value=n, max_value=m + 1))
        pat = VNMPattern(v, n, m, k)
        assert pat.count_vertical_violations(bm) == int((live > k).sum())
        assert pat.count_vertical_violations(bm) == int(pat.vertical_violation_mask(bm).sum())


class TestWordMasksMatchMasks:
    @settings(max_examples=300, deadline=None)
    @given(dense_matrices(), st.sampled_from(M_VALUES), st.sampled_from(V_VALUES))
    def test_tile_column_masks_bitwise_equal(self, a, m, v):
        bm = BitMatrix.from_dense(a)
        pat = VNMPattern(v, 1, m, m)
        got = pat.tile_column_masks(bm)
        want = old_tile_column_masks(bm, m, v)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        weights = np.left_shift(1, np.arange(m, dtype=np.uint64), dtype=np.uint64)
        from_dense = (group_bits(a, m, v).astype(np.uint64) * weights).sum(axis=2)
        assert np.array_equal(got.astype(np.uint64), from_dense)

    @settings(max_examples=200, deadline=None)
    @given(dense_matrices(), st.sampled_from(M_VALUES), st.sampled_from(V_VALUES), st.data())
    def test_violation_masks(self, a, m, v, data):
        bm = BitMatrix.from_dense(a)
        n = data.draw(st.integers(min_value=1, max_value=m))
        k = data.draw(st.integers(min_value=n, max_value=m + 1))
        pat = VNMPattern(v, n, m, k)
        vertical = group_bits(a, m, v).sum(axis=2) > k
        assert np.array_equal(pat.vertical_violation_mask(bm), vertical)
        rows_bad = segment_bits(a, m).sum(axis=2) > n
        n_groups = vertical.shape[0]
        padded = np.zeros((n_groups * v, rows_bad.shape[1]), dtype=bool)
        padded[: a.shape[0]] = rows_bad
        horizontal = padded.reshape(n_groups, v, -1).any(axis=1)
        assert np.array_equal(pat.tile_violation_mask(bm), vertical | horizontal)
        assert pat.count_tile_violations(bm) == int((vertical | horizontal).sum())

