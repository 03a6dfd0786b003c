"""SELL-C-σ format."""

import numpy as np
import pytest

from repro.perf import engine
from repro.pipeline.resilience import BackendExecutionError
from repro.sptc import CSRMatrix
from repro.sptc.sell import SellCSigma


@pytest.fixture
def case(rng):
    a = rng.random((50, 60)) * (rng.random((50, 60)) < 0.1)
    return a, CSRMatrix.from_dense(a)


class TestConstruction:
    def test_roundtrip(self, case):
        a, csr = case
        sell = SellCSigma.from_csr(csr, c=8, sigma=16)
        assert np.allclose(sell.to_dense(), a)

    def test_roundtrip_various_c(self, case):
        a, csr = case
        for c, sigma in ((4, 4), (8, 32), (16, 16)):
            assert np.allclose(SellCSigma.from_csr(csr, c=c, sigma=sigma).to_dense(), a)

    def test_sigma_multiple_of_c(self, case):
        _, csr = case
        with pytest.raises(ValueError):
            SellCSigma.from_csr(csr, c=8, sigma=12)

    def test_row_order_is_permutation(self, case):
        _, csr = case
        sell = SellCSigma.from_csr(csr)
        assert sorted(sell.row_order.tolist()) == list(range(csr.shape[0]))

    def test_sorting_reduces_padding(self, rng):
        # A skewed matrix: sigma-window sorting should pad less than sigma=C.
        a = np.zeros((64, 64))
        for i in range(64):
            k = 1 if i % 8 else 30
            a[i, rng.choice(64, size=k, replace=False)] = 1.0
        csr = CSRMatrix.from_dense(a)
        unsorted = SellCSigma.from_csr(csr, c=8, sigma=8)
        sorted_ = SellCSigma.from_csr(csr, c=8, sigma=64)
        assert sorted_.padding_fraction() < unsorted.padding_fraction()

    def test_empty(self):
        sell = SellCSigma.from_csr(CSRMatrix.from_coo([], [], [], (16, 16)))
        assert sell.padded_entries == 0
        assert np.allclose(sell.to_dense(), 0.0)


class TestSpmm:
    def test_matches_dense(self, case, rng):
        a, csr = case
        sell = SellCSigma.from_csr(csr, c=8, sigma=16)
        b = rng.random((60, 9))
        assert np.allclose(engine.execute(sell, b), a @ b)

    def test_non_multiple_rows(self, rng):
        a = rng.random((13, 20)) * (rng.random((13, 20)) < 0.3)
        sell = SellCSigma.from_csr(CSRMatrix.from_dense(a), c=8, sigma=8)
        b = rng.random((20, 4))
        assert np.allclose(engine.execute(sell, b), a @ b)

    def test_dim_mismatch(self, case, rng):
        _, csr = case
        sell = SellCSigma.from_csr(csr)
        with pytest.raises(BackendExecutionError, match="inner dimension mismatch"):
            engine.execute(sell, rng.random((7, 2)))


class TestStorage:
    def test_padding_fraction_bounds(self, case):
        _, csr = case
        sell = SellCSigma.from_csr(csr, c=8, sigma=32)
        assert 0.0 <= sell.padding_fraction() < 1.0

    def test_storage_at_least_nnz(self, case):
        _, csr = case
        sell = SellCSigma.from_csr(csr)
        assert sell.padded_entries >= csr.nnz
