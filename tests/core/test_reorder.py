"""Dual-level reordering (Alg. 1) end-to-end properties."""

import numpy as np
import pytest

from repro.core import (
    BitMatrix,
    NMPattern,
    VNMPattern,
    reorder,
    reorder_graph_matrix,
)


class TestReorder:
    def test_lossless_permutation(self, small_sym_dense):
        bm = BitMatrix.from_dense(small_sym_dense)
        res = reorder(bm, VNMPattern(1, 2, 4))
        expect = res.permutation.apply_to_matrix(small_sym_dense)
        assert np.array_equal(res.matrix.to_dense(), expect)

    def test_symmetry_preserved(self, small_sym_bitmatrix):
        res = reorder(small_sym_bitmatrix, VNMPattern(1, 2, 4))
        assert res.matrix.is_symmetric()

    def test_random_sparse_conforms_124(self, rng):
        # A 6% dense 64-vertex matrix reliably reaches 1:2:4 conformance.
        a = (rng.random((64, 64)) < 0.06)
        a = (a | a.T).astype(np.uint8)
        np.fill_diagonal(a, 0)
        res = reorder(BitMatrix.from_dense(a), VNMPattern(1, 2, 4))
        assert res.conforms
        assert res.improvement_rate == 1.0

    def test_nm_pattern_accepted(self, small_sym_bitmatrix):
        res = reorder(small_sym_bitmatrix, NMPattern(2, 4))
        assert res.pattern.v == 1

    def test_violations_never_increase(self, small_sym_bitmatrix):
        pat = VNMPattern(1, 2, 4)
        res = reorder(small_sym_bitmatrix, pat)
        assert res.final_invalid_vectors <= res.initial_invalid_vectors

    def test_summary_fields(self, small_sym_bitmatrix):
        s = reorder(small_sym_bitmatrix, VNMPattern(1, 2, 4)).summary()
        for key in ("pattern", "iterations", "improvement_rate", "conforms", "elapsed_seconds"):
            assert key in s

    def test_stage_ablation_flags(self, small_sym_bitmatrix):
        pat = VNMPattern(4, 2, 8)
        only1 = reorder(small_sym_bitmatrix, pat, use_stage2=False)
        only2 = reorder(small_sym_bitmatrix, pat, use_stage1=False)
        both = reorder(small_sym_bitmatrix, pat)
        assert only1.final_mbscore <= only1.initial_mbscore
        assert only2.final_invalid_vectors <= only2.initial_invalid_vectors
        # The dual-level algorithm should do at least as well as either stage
        # on the combined objective.
        combined = lambda r: r.final_invalid_vectors + r.final_mbscore  # noqa: E731
        assert combined(both) <= min(combined(only1), combined(only2))

    def test_max_iter_zero(self, small_sym_bitmatrix):
        res = reorder(small_sym_bitmatrix, VNMPattern(1, 2, 4), max_iter=0)
        assert res.permutation.is_identity()

    def test_dense_wrapper(self, small_sym_dense):
        res = reorder_graph_matrix(small_sym_dense, VNMPattern(1, 2, 4))
        assert res.matrix.shape == small_sym_dense.shape

    def test_already_conforming_is_identity_fast_path(self):
        a = np.zeros((16, 16), dtype=np.uint8)
        a[0, 4] = a[4, 0] = 1
        res = reorder(BitMatrix.from_dense(a), VNMPattern(1, 2, 4))
        assert res.iterations == 0
        assert res.conforms

    @pytest.mark.parametrize("v,m", [(1, 4), (1, 8), (4, 8), (8, 16)])
    def test_various_patterns_run(self, small_sym_bitmatrix, v, m):
        res = reorder(small_sym_bitmatrix, VNMPattern(v, 2, m), max_iter=3)
        assert res.matrix.is_symmetric()
        assert res.final_invalid_vectors <= res.initial_invalid_vectors
