"""A100-class analytical cost model: the shapes the paper's results rely on."""

import numpy as np
import pytest

from repro.core import VNMPattern
from repro.sptc import (
    A100Params,
    CSRMatrix,
    CostModel,
    SpmmWorkload,
)


def sparse_weighted(n, density, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    mask |= mask.T
    np.fill_diagonal(mask, False)
    w = np.triu(rng.random((n, n)) + 0.01, 1) * np.triu(mask, 1)
    return w + w.T


@pytest.fixture(scope="module")
def model():
    return CostModel()


class TestCsrModel:
    def test_positive_and_monotone_in_h(self, model):
        wl64 = SpmmWorkload(1000, 1000, 20000, 64)
        wl512 = SpmmWorkload(1000, 1000, 20000, 512)
        assert 0 < model.time_csr_spmm(wl64) < model.time_csr_spmm(wl512)

    def test_monotone_in_nnz(self, model):
        a = SpmmWorkload(1000, 1000, 10000, 128)
        b = SpmmWorkload(1000, 1000, 100000, 128)
        assert model.time_csr_spmm(a) < model.time_csr_spmm(b)

    def test_launch_floor(self, model):
        tiny = SpmmWorkload(4, 4, 2, 4)
        assert model.time_csr_spmm(tiny) >= model.params.kernel_launch

    def test_imbalance_penalty(self, model):
        balanced = SpmmWorkload(1000, 1000, 50000, 128, max_degree=50, avg_degree=50.0)
        skewed = SpmmWorkload(1000, 1000, 50000, 128, max_degree=900, avg_degree=50.0)
        assert model.time_csr_spmm(skewed) > model.time_csr_spmm(balanced)

    def test_from_csr_extracts_stats(self):
        a = sparse_weighted(64, 0.1, 0)
        wl = SpmmWorkload.from_csr(CSRMatrix.from_dense(a), 32)
        assert wl.nnz == np.count_nonzero(a)
        assert wl.h == 32
        assert wl.max_degree == int((a != 0).sum(1).max())


class TestSptcModel:
    def _venom(self, n=256, density=0.03, seed=1, pat=VNMPattern(1, 2, 4)):
        from repro.core import BitMatrix, reorder

        w = sparse_weighted(n, density, seed)
        res = reorder(BitMatrix.from_dense((w != 0).astype(np.uint8)), pat)
        wp = res.permutation.apply_to_matrix(w)
        from repro.sptc import HybridVNM

        return HybridVNM.compress(wp, pat).main, CSRMatrix.from_dense(wp)

    def test_speedup_grows_with_h(self, model):
        venom, csr = self._venom()
        speedups = [model.speedup_csr_to_venom(csr, venom, h) for h in (64, 128, 256, 512)]
        assert all(b >= a * 0.99 for a, b in zip(speedups, speedups[1:]))

    def test_sptc_wins_on_typical_graph(self, model):
        venom, csr = self._venom(n=512, density=0.02)
        assert model.speedup_csr_to_venom(csr, venom, 128) > 1.0

    def test_padding_waste_charged(self, model):
        # An ultra-sparse scattered matrix at large V stores mostly padding:
        # SPTC time per non-zero must exceed the V=1 case's.
        from repro.sptc import HybridVNM

        rng = np.random.default_rng(3)
        n = 512
        w = np.zeros((n, n))
        idx = rng.choice(n * n, size=300, replace=False)
        w.flat[idx] = 1.0
        big_v = HybridVNM.compress(w, VNMPattern(16, 2, 16)).main
        small_v = HybridVNM.compress(w, VNMPattern(1, 2, 16)).main
        assert big_v.values.size > small_v.values.size
        assert model.time_venom_spmm(big_v, 64) > model.time_venom_spmm(small_v, 64)

    @pytest.mark.parametrize("pat", [VNMPattern(1, 2, 4), VNMPattern(4, 2, 8),
                                     VNMPattern(8, 2, 16), VNMPattern(3, 4, 8, k=8)])
    def test_tile_counts_match_operand_arrays(self, model, pat):
        # time_venom_spmm charges from tile counts alone; those counts must
        # reproduce the sizes of the operand's own arrays, empty one included.
        from repro.sptc import HybridVNM, VNMCompressed

        w = sparse_weighted(101, 0.03, 4)
        for a in (HybridVNM.compress(w, pat).main,
                  VNMCompressed.compress_csr(CSRMatrix.from_dense(np.zeros((37, 50))), pat)):
            from_arrays = (a.values.size * 2 + (a.meta.size * 2 + 7) // 8
                           + a.col_ids.size * 4 + a.tile_ptr.size * 8 + a.tile_seg.size * 4)
            assert a.storage_bytes() == from_arrays
            live = a.n_live_cols if a.n_live_cols else a.n_tiles * pat.k
            want = model._time_sptc(n_rows=a.shape[0], n_cols=a.shape[1],
                                    stored_slots=a.values.size, live_b_rows=live,
                                    a_bytes=from_arrays, h=64)
            assert model.time_venom_spmm(a, 64) == want


class TestDenseModel:
    def test_tensor_core_beats_cuda_cores(self, model):
        assert model.time_dense_gemm(2048, 2048, 2048, tensor_core=True) < model.time_dense_gemm(
            2048, 2048, 2048, tensor_core=False
        )

    def test_elementwise_scales_with_size(self, model):
        assert model.time_elementwise(10_000_000) > model.time_elementwise(1000)


class TestParams:
    def test_with_params_override(self, model):
        slower = model.with_params(cuda_spmm_flops=model.params.cuda_spmm_flops / 2)
        wl = SpmmWorkload(4096, 4096, 500000, 256)
        assert slower.time_csr_spmm(wl) > model.time_csr_spmm(wl)

    def test_defaults_frozen(self):
        with pytest.raises(Exception):
            A100Params().mem_bandwidth = 1.0
