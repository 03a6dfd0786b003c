"""Jigsaw-style column-only reordering baseline."""

import numpy as np

from repro.core import BitMatrix, NMPattern
from repro.baselines import jigsaw_column_reorder


def dense_sym(n, density, seed):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) < density
    a = (a | a.T).astype(np.uint8)
    np.fill_diagonal(a, 0)
    return a


class TestJigsaw:
    def test_reduces_violations(self):
        a = dense_sym(64, 0.12, 0)
        bm = BitMatrix.from_dense(a)
        pat = NMPattern(2, 4)
        res = jigsaw_column_reorder(bm, pat)
        assert res.initial_invalid_vectors > 0
        assert res.final_invalid_vectors <= res.initial_invalid_vectors
        assert res.improvement_rate >= 0.0

    def test_column_permutation_valid(self):
        a = dense_sym(48, 0.1, 1)
        res = jigsaw_column_reorder(BitMatrix.from_dense(a), NMPattern(2, 4))
        res.column_permutation.validate()

    def test_matrix_matches_permutation(self):
        a = dense_sym(32, 0.15, 2)
        bm = BitMatrix.from_dense(a)
        res = jigsaw_column_reorder(bm, NMPattern(2, 4))
        expect = bm.permute_columns(res.column_permutation.order)
        assert res.matrix == expect

    def test_destroys_symmetry(self):
        # The paper's key criticism: column-only reordering breaks the
        # adjacency matrix's symmetry (unless the permutation is identity).
        a = dense_sym(64, 0.12, 3)
        bm = BitMatrix.from_dense(a)
        assert bm.is_symmetric()
        res = jigsaw_column_reorder(bm, NMPattern(2, 4))
        if not res.column_permutation.is_identity():
            assert not res.matrix.is_symmetric()

    def test_rows_untouched(self):
        a = dense_sym(32, 0.1, 4)
        bm = BitMatrix.from_dense(a)
        res = jigsaw_column_reorder(bm, NMPattern(2, 4))
        # Row i's non-zero count is invariant under column permutation.
        assert np.array_equal(res.matrix.row_nnz(), bm.row_nnz())

    def test_improvement_rate_trivial_cases(self):
        empty = BitMatrix.zeros(8, 8)
        res = jigsaw_column_reorder(empty, NMPattern(2, 4))
        assert res.improvement_rate == 1.0
