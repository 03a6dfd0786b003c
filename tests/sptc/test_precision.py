"""Mixed-precision (fp16 multiply / fp32 accumulate) datapath emulation."""

import numpy as np
import pytest

from repro.core import BitMatrix, VNMPattern, reorder
from repro.perf import engine
from repro.sptc import CSRMatrix, HybridVNM
from repro.sptc.precision import (
    precision_report,
    quantize_fp16,
    venom_spmm_fp16,
)


@pytest.fixture(scope="module")
def case():
    rng = np.random.default_rng(3)
    n = 192
    mask = rng.random((n, n)) < 0.03
    mask |= mask.T
    np.fill_diagonal(mask, False)
    w = np.triu(rng.random((n, n)) * 2.0, 1) * np.triu(mask, 1)
    w = w + w.T
    res = reorder(BitMatrix.from_dense((w != 0).astype(np.uint8)), VNMPattern(1, 2, 4))
    wp = res.permutation.apply_to_matrix(w)
    venom = HybridVNM.compress_csr(CSRMatrix.from_dense(wp), VNMPattern(1, 2, 4)).main
    rng2 = np.random.default_rng(4)
    b = rng2.random((n, 32))
    return venom, b


class TestQuantize:
    def test_fp16_values_are_fixed_points(self):
        x = np.array([1.0, 0.5, 0.1, 3.14159])
        q = quantize_fp16(x)
        assert np.array_equal(q, quantize_fp16(q))  # idempotent

    def test_roundoff_bounded(self, rng):
        x = rng.random(1000)
        assert np.abs(quantize_fp16(x) - x).max() < 1e-3  # fp16 eps ~ 5e-4 at O(1)


class TestFp16Spmm:
    def test_close_to_exact(self, case):
        venom, b = case
        exact = engine.execute(venom, b)
        approx = venom_spmm_fp16(venom, b)
        assert np.allclose(approx, exact, rtol=5e-2, atol=1e-2)

    def test_not_bitwise_identical(self, case):
        venom, b = case
        exact = engine.execute(venom, b)
        approx = venom_spmm_fp16(venom, b)
        assert not np.array_equal(approx, exact)  # fp16 rounding is real

    def test_dim_mismatch(self, case):
        venom, _ = case
        with pytest.raises(ValueError):
            venom_spmm_fp16(venom, np.zeros((3, 2)))

    def test_empty_operand(self):
        from repro.sptc import VNMCompressed

        empty = VNMCompressed.compress(np.zeros((8, 8)), VNMPattern(1, 2, 4))
        out = venom_spmm_fp16(empty, np.ones((8, 4)))
        assert np.allclose(out, 0.0)


class TestReport:
    def test_within_fp16_expectations(self, case):
        venom, b = case
        rep = precision_report(venom, b)
        assert rep.within_fp16_expectations
        assert rep.max_abs_error > 0.0
        assert 0.0 <= rep.mean_row_scaled_error <= rep.max_row_scaled_error

    def test_gnn_predictions_survive_fp16(self, case):
        # The end-to-end question: does the fp16 aggregation change argmax
        # predictions?  For well-separated logits it must not.
        venom, b = case
        exact = engine.execute(venom, b)
        approx = venom_spmm_fp16(venom, b)
        agree = (exact.argmax(axis=1) == approx.argmax(axis=1)).mean()
        assert agree > 0.97
