"""Bit-packed matrix operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BitMatrix, min_uint_dtype


class TestRoundtrip:
    def test_dense_roundtrip(self, small_sym_dense):
        bm = BitMatrix.from_dense(small_sym_dense)
        assert np.array_equal(bm.to_dense(), small_sym_dense)

    def test_non_square(self, rng):
        a = (rng.random((10, 130)) < 0.3).astype(np.uint8)
        bm = BitMatrix.from_dense(a)
        assert bm.shape == (10, 130)
        assert np.array_equal(bm.to_dense(), a)

    def test_scipy_roundtrip(self, small_sym_dense):
        import scipy.sparse as sp

        m = sp.csr_matrix(small_sym_dense)
        bm = BitMatrix.from_scipy(m)
        assert np.array_equal(bm.to_scipy().toarray() != 0, small_sym_dense != 0)

    def test_nonzero_sorted_row_major(self, small_sym_dense):
        bm = BitMatrix.from_dense(small_sym_dense)
        r, c = bm.nonzero()
        rr, cc = np.nonzero(small_sym_dense)
        assert np.array_equal(r, rr)
        assert np.array_equal(c, cc)

    @settings(max_examples=80, deadline=None)
    @given(
        n_rows=st.integers(0, 9),
        n_cols=st.integers(0, 200),
        density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
        zero_rows=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_nonzero_matches_dense(self, n_rows, n_cols, density, zero_rows, seed):
        # Widths off the 64-bit word boundary, empty shapes, all-zero rows
        # and (at density 1.0) words with all 64 bits set.
        rng = np.random.default_rng(seed)
        a = (rng.random((n_rows, n_cols)) < density).astype(np.uint8)
        a[:zero_rows] = 0
        bm = BitMatrix.from_dense(a)
        r, c = bm.nonzero()
        rr, cc = np.nonzero(bm.to_dense())
        assert r.dtype == np.int64 and c.dtype == np.int64
        assert np.array_equal(r, rr) and np.array_equal(c, cc)
        # row-major: sorted by (row, col)
        assert np.all(np.diff(r * max(n_cols, 1) + c) > 0)

    @pytest.mark.parametrize("shape, fill", [((1, 1), 1), ((1, 1), 0), ((3, 64), 1),
                                             ((2, 128), 1), ((4, 65), 1)])
    def test_nonzero_edge_shapes(self, shape, fill):
        a = np.full(shape, fill, dtype=np.uint8)
        r, c = BitMatrix.from_dense(a).nonzero()
        rr, cc = np.nonzero(a)
        assert r.dtype == np.int64 and c.dtype == np.int64
        assert np.array_equal(r, rr) and np.array_equal(c, cc)

    def test_from_edges(self):
        bm = BitMatrix.from_edges(5, [0, 4], [4, 0])
        assert bm.get(0, 4) == 1 and bm.get(4, 0) == 1
        assert bm.nnz() == 2


class TestElementOps:
    def test_get_set(self):
        bm = BitMatrix.zeros(3, 70)
        bm.set(1, 65, 1)
        assert bm.get(1, 65) == 1
        bm.set(1, 65, 0)
        assert bm.get(1, 65) == 0

    def test_set_idempotent(self):
        bm = BitMatrix.zeros(2, 2)
        bm.set(0, 0, 1)
        bm.set(0, 0, 1)
        assert bm.nnz() == 1

    @pytest.mark.parametrize("shape", [(0, 0), (1, 1), (63, 63), (64, 64), (65, 65),
                                       (130, 70), (70, 130), (3, 200)])
    def test_set_diagonal_matches_per_element_loop(self, shape, rng):
        a = (rng.random(shape) < 0.2).astype(np.uint8)
        fast, loop = BitMatrix.from_dense(a), BitMatrix.from_dense(a)
        fast.set_diagonal()
        for i in range(min(shape)):
            loop.set(i, i, 1)
        assert fast == loop
        assert np.array_equal(fast.words, loop.words)

    def test_columns(self, small_sym_dense):
        bm = BitMatrix.from_dense(small_sym_dense)
        for j in (0, 31, 63):
            assert np.array_equal(bm.get_column(j), small_sym_dense[:, j].astype(bool))

    def test_swap_columns(self, small_sym_dense):
        bm = BitMatrix.from_dense(small_sym_dense)
        ref = small_sym_dense.copy()
        ref[:, [3, 40]] = ref[:, [40, 3]]
        bm.swap_columns(3, 40)
        assert np.array_equal(bm.to_dense(), ref)

    def test_swap_rows(self, small_sym_dense):
        bm = BitMatrix.from_dense(small_sym_dense)
        ref = small_sym_dense.copy()
        ref[[3, 40]] = ref[[40, 3]]
        bm.swap_rows(3, 40)
        assert np.array_equal(bm.to_dense(), ref)


class TestStats:
    def test_nnz_and_density(self, small_sym_dense):
        bm = BitMatrix.from_dense(small_sym_dense)
        assert bm.nnz() == int(small_sym_dense.sum())
        assert bm.density() == pytest.approx(small_sym_dense.mean())

    def test_row_nnz(self, small_sym_dense):
        bm = BitMatrix.from_dense(small_sym_dense)
        assert np.array_equal(bm.row_nnz(), small_sym_dense.sum(axis=1))

    def test_is_symmetric(self, small_sym_dense):
        assert BitMatrix.from_dense(small_sym_dense).is_symmetric()
        asym = small_sym_dense.copy()
        asym[0, 1], asym[1, 0] = 1, 0
        assert not BitMatrix.from_dense(asym).is_symmetric()


class TestSegments:
    @pytest.mark.parametrize("m", [4, 8, 16, 32])
    def test_segment_values_match_dense(self, small_sym_dense, m):
        bm = BitMatrix.from_dense(small_sym_dense)
        vals = bm.segment_values(m)
        n_segs = (64 + m - 1) // m
        assert vals.shape == (64, n_segs)
        for i in range(0, 64, 13):
            for s in range(n_segs):
                expect = sum(
                    int(small_sym_dense[i, s * m + j]) << j
                    for j in range(m)
                    if s * m + j < 64
                )
                assert int(vals[i, s]) == expect

    def test_segment_values_padding_reads_zero(self, rng):
        a = (rng.random((8, 10)) < 0.5).astype(np.uint8)
        bm = BitMatrix.from_dense(a)
        vals = bm.segment_values(8)
        assert vals.shape == (8, 2)
        # second segment covers cols 8..15, of which 10..15 are padding
        for i in range(8):
            expect = int(a[i, 8]) | (int(a[i, 9]) << 1)
            assert int(vals[i, 1]) == expect

    def test_segment_counts(self, small_sym_dense):
        bm = BitMatrix.from_dense(small_sym_dense)
        cnts = bm.segment_counts(8)
        ref = small_sym_dense.reshape(64, 8, 8).sum(axis=2)
        assert np.array_equal(cnts, ref)

    def test_segment_column_bits(self, small_sym_dense):
        bm = BitMatrix.from_dense(small_sym_dense)
        bits = bm.segment_column_bits(2, 8)
        assert np.array_equal(bits, small_sym_dense[:, 16:24].astype(bool))

    def test_min_uint_dtype(self):
        assert min_uint_dtype(4) == np.uint8
        assert min_uint_dtype(16) == np.uint16
        assert min_uint_dtype(17) == np.uint32
        assert min_uint_dtype(64) == np.uint64
        with pytest.raises(ValueError):
            min_uint_dtype(65)

    def test_segment_width_above_word_rejected(self):
        with pytest.raises(ValueError):
            BitMatrix.zeros(4, 128).segment_values(65)


class TestPermutation:
    def test_permute_rows(self, small_sym_dense, rng):
        bm = BitMatrix.from_dense(small_sym_dense)
        order = rng.permutation(64)
        assert np.array_equal(bm.permute_rows(order).to_dense(), small_sym_dense[order])

    def test_permute_columns(self, small_sym_dense, rng):
        bm = BitMatrix.from_dense(small_sym_dense)
        order = rng.permutation(64)
        assert np.array_equal(bm.permute_columns(order).to_dense(), small_sym_dense[:, order])

    def test_permute_symmetric(self, small_sym_dense, rng):
        bm = BitMatrix.from_dense(small_sym_dense)
        order = rng.permutation(64)
        out = bm.permute_symmetric(order)
        assert np.array_equal(out.to_dense(), small_sym_dense[np.ix_(order, order)])
        assert out.is_symmetric()

    def test_apply_swaps_symmetric(self, small_sym_dense):
        bm = BitMatrix.from_dense(small_sym_dense)
        out = bm.apply_swaps_symmetric([(1, 5), (2, 9)])
        ref = small_sym_dense.copy()
        order = np.arange(64)
        order[[1, 5]] = order[[5, 1]]
        order[[2, 9]] = order[[9, 2]]
        assert np.array_equal(out.to_dense(), ref[np.ix_(order, order)])

    def test_symmetric_rejected_for_rect(self):
        with pytest.raises(ValueError):
            BitMatrix.zeros(3, 5).permute_symmetric(np.arange(3))


class TestEquality:
    def test_eq(self, small_sym_dense):
        a = BitMatrix.from_dense(small_sym_dense)
        b = BitMatrix.from_dense(small_sym_dense)
        assert a == b
        b.set(0, 0, 1)
        assert a != b

    def test_copy_is_independent(self, small_sym_bitmatrix):
        c = small_sym_bitmatrix.copy()
        c.set(0, 0, 1)
        assert small_sym_bitmatrix.get(0, 0) == 0
