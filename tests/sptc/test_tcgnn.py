"""TC-GNN-style dense-tensor-core blocked format."""

import numpy as np
import pytest

from repro.perf import engine
from repro.pipeline.resilience import BackendExecutionError
from repro.sptc import CSRMatrix, TCGNNBlocked


@pytest.fixture
def sparse_case(rng):
    a = rng.random((70, 90)) * (rng.random((70, 90)) < 0.06)
    return a, CSRMatrix.from_dense(a)


class TestFormat:
    def test_roundtrip(self, sparse_case):
        a, csr = sparse_case
        blocked = TCGNNBlocked.from_csr(csr, tile=16)
        assert np.allclose(blocked.to_dense(), a)

    def test_roundtrip_small_tile(self, sparse_case):
        a, csr = sparse_case
        blocked = TCGNNBlocked.from_csr(csr, tile=8)
        assert np.allclose(blocked.to_dense(), a)

    def test_spmm_matches_dense(self, sparse_case, rng):
        a, csr = sparse_case
        blocked = TCGNNBlocked.from_csr(csr, tile=16)
        b = rng.random((90, 12))
        assert np.allclose(engine.execute(blocked, b), a @ b)

    def test_empty_matrix(self):
        csr = CSRMatrix.from_coo([], [], [], (32, 32))
        blocked = TCGNNBlocked.from_csr(csr)
        assert blocked.n_blocks == 0
        assert np.allclose(blocked.to_dense(), 0.0)
        assert np.allclose(engine.execute(blocked, np.ones((32, 3))), 0.0)

    def test_empty_window_handled(self, rng):
        a = np.zeros((48, 48))
        a[0, 0] = 1.0
        a[40, 5] = 2.0  # windows 1 (rows 16-31) empty
        blocked = TCGNNBlocked.from_csr(CSRMatrix.from_dense(a), tile=16)
        assert np.allclose(blocked.to_dense(), a)

    def test_dim_mismatch(self, sparse_case, rng):
        _, csr = sparse_case
        blocked = TCGNNBlocked.from_csr(csr)
        with pytest.raises(BackendExecutionError, match="inner dimension mismatch"):
            engine.execute(blocked, rng.random((5, 2)))


class TestMemoryOverhead:
    @staticmethod
    def _csr_bytes(csr, value_bytes=2):
        # fp16 values + int32 column ids + int64 row pointers (same value
        # precision as the dense-tile format for a fair comparison).
        return csr.nnz * (value_bytes + 4) + (csr.shape[0] + 1) * 8

    def test_dense_tiles_cost_more_than_csr_on_scattered(self, rng):
        # The paper's related-work critique: scattered sparse matrices blow up
        # in dense-tile formats.
        n = 512
        a = np.zeros((n, n))
        idx = rng.choice(n * n, size=2000, replace=False)
        a.flat[idx] = 1.0
        csr = CSRMatrix.from_dense(a)
        blocked = TCGNNBlocked.from_csr(csr, tile=16)
        assert blocked.storage_bytes() > 4 * self._csr_bytes(csr)

    def test_overhead_grows_with_sparsity(self, rng):
        # Ultra-sparse scattered graphs pay "tens of times" more (paper §6).
        n = 2048
        a_rows = rng.integers(0, n, size=3000)
        a_cols = rng.integers(0, n, size=3000)
        csr = CSRMatrix.from_coo(a_rows, a_cols, np.ones(3000), (n, n))
        blocked = TCGNNBlocked.from_csr(csr, tile=16)
        assert blocked.storage_bytes() > 3.5 * self._csr_bytes(csr)
        # The "tens of times" figure is about stored value slots vs non-zeros.
        assert blocked.blocks.size > 15 * csr.nnz

    def test_stored_slots_at_least_nnz(self, sparse_case):
        _, csr = sparse_case
        blocked = TCGNNBlocked.from_csr(csr)
        assert blocked.blocks.size >= csr.nnz


class TestCostModel:
    def test_tcgnn_time_positive_and_h_monotone(self, sparse_case):
        from repro.sptc import CostModel

        _, csr = sparse_case
        blocked = TCGNNBlocked.from_csr(csr)
        cm = CostModel()
        t64 = cm.time_tcgnn_spmm(blocked, 64)
        t512 = cm.time_tcgnn_spmm(blocked, 512)
        assert 0 < t64 <= t512
