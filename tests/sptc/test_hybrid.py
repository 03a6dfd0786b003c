"""Hybrid V:N:M + residual splitting (lossless SPTC path for any matrix)."""

import numpy as np
import pytest

from repro.core import VNMPattern
from repro.perf import engine
from repro.sptc import (
    CSRMatrix,
    HybridVNM,
    VNMCompressed,
    split_csr_to_pattern,
    split_to_pattern,
)


class TestSplitDense:
    def test_split_is_exact(self, weighted_sym_dense):
        pat = VNMPattern(4, 2, 8)
        con, res = split_to_pattern(weighted_sym_dense, pat)
        assert np.allclose(con + res, weighted_sym_dense)

    def test_conforming_part_compresses(self, weighted_sym_dense):
        pat = VNMPattern(4, 2, 8)
        con, _ = split_to_pattern(weighted_sym_dense, pat)
        VNMCompressed.compress(con, pat)  # must not raise

    def test_conforming_input_has_empty_residual(self):
        pat = VNMPattern(2, 2, 4)
        a = np.zeros((4, 8))
        a[0, 0] = a[1, 1] = 1.0
        con, res = split_to_pattern(a, pat)
        assert np.allclose(con, a)
        assert not res.any()

    def test_keeps_largest_magnitudes(self):
        pat = VNMPattern(1, 2, 4)
        a = np.array([[5.0, 4.0, 3.0, 0.0]])
        con, res = split_to_pattern(a, pat)
        assert con[0].tolist() == [5.0, 4.0, 0.0, 0.0]
        assert res[0].tolist() == [0.0, 0.0, 3.0, 0.0]


class TestSplitCsr:
    def test_matches_dense_split(self, weighted_sym_dense):
        pat = VNMPattern(4, 2, 8)
        con_d, res_d = split_to_pattern(weighted_sym_dense, pat)
        con_s, res_s = split_csr_to_pattern(CSRMatrix.from_dense(weighted_sym_dense), pat)
        # Tie-breaking may differ; the split must be exact and conforming.
        assert np.allclose(con_s.to_dense() + res_s.to_dense(), weighted_sym_dense)
        assert res_s.nnz == np.count_nonzero(res_d)
        VNMCompressed.compress(con_s.to_dense(), pat)

    def test_empty_input(self):
        pat = VNMPattern(2, 2, 4)
        con, res = split_csr_to_pattern(CSRMatrix.from_coo([], [], [], (8, 8)), pat)
        assert con.nnz == 0 and res.nnz == 0

    @pytest.mark.parametrize("pat", [VNMPattern(1, 2, 4), VNMPattern(8, 2, 16)], ids=str)
    def test_conforming_part_valid(self, weighted_sym_dense, pat):
        con, _ = split_csr_to_pattern(CSRMatrix.from_dense(weighted_sym_dense), pat)
        VNMCompressed.compress_csr(con, pat)  # must not raise


class TestHybridVNM:
    def test_lossless_roundtrip(self, weighted_sym_dense):
        pat = VNMPattern(4, 2, 8)
        hy = HybridVNM.compress(weighted_sym_dense, pat)
        assert np.allclose(hy.decompress(), weighted_sym_dense)

    def test_csr_path_lossless(self, weighted_sym_dense):
        pat = VNMPattern(4, 2, 8)
        hy = HybridVNM.compress_csr(CSRMatrix.from_dense(weighted_sym_dense), pat)
        assert np.allclose(hy.decompress(), weighted_sym_dense)

    def test_spmm_exact(self, weighted_sym_dense, rng):
        pat = VNMPattern(4, 2, 8)
        hy = HybridVNM.compress(weighted_sym_dense, pat)
        b = rng.random((weighted_sym_dense.shape[1], 11))
        assert np.allclose(engine.execute(hy, b), weighted_sym_dense @ b)

    def test_no_residual_for_conforming(self):
        pat = VNMPattern(2, 2, 4)
        a = np.zeros((4, 8))
        a[0, 1] = 2.0
        hy = HybridVNM.compress(a, pat)
        assert hy.residual is None
        assert hy.residual_nnz == 0
        assert hy.residual_fraction() == 0.0

    def test_model_time_includes_residual(self, weighted_sym_dense):
        from repro.sptc import CostModel

        pat = VNMPattern(4, 2, 8)
        cm = CostModel()
        hy = HybridVNM.compress(weighted_sym_dense, pat)
        t_with = hy.model_time(cm, 64)
        t_main_only = cm.time_venom_spmm(hy.main, 64)
        if hy.residual is not None:
            assert t_with > t_main_only
        else:
            assert t_with == t_main_only
