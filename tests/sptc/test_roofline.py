"""Roofline analysis layer."""

import numpy as np
import pytest

from repro.core import BitMatrix, VNMPattern, reorder
from repro.sptc import CSRMatrix, CostModel, HybridVNM
from repro.sptc.roofline import RooflinePoint, csr_roofline, roofline_series, venom_roofline


@pytest.fixture(scope="module")
def case():
    rng = np.random.default_rng(6)
    n = 256
    a = rng.random((n, n)) < 0.03
    a = (a | a.T).astype(np.uint8)
    np.fill_diagonal(a, 0)
    res = reorder(BitMatrix.from_dense(a), VNMPattern(1, 2, 4))
    csr = CSRMatrix.from_scipy(res.matrix.to_scipy())
    venom = HybridVNM.compress_csr(csr, VNMPattern(1, 2, 4)).main
    return csr, venom


class TestRooflinePoints:
    def test_csr_point_consistent_with_costmodel(self, case):
        csr, _ = case
        cm = CostModel()
        pt = csr_roofline(csr, 128, cm)
        from repro.sptc import SpmmWorkload

        assert pt.modelled_seconds == pytest.approx(
            cm.time_csr_spmm(SpmmWorkload.from_csr(csr, 128))
        )
        assert pt.flops == 2.0 * csr.nnz * 128

    def test_venom_point_consistent(self, case):
        _, venom = case
        cm = CostModel()
        pt = venom_roofline(venom, 128, cm)
        assert pt.modelled_seconds == pytest.approx(cm.time_venom_spmm(venom, 128))
        assert pt.flops == 2.0 * venom.values.size * 128

    @pytest.mark.parametrize("h", [16, 128, 512])
    def test_memory_bound_time_is_launch_plus_traffic(self, case, h):
        # The bytes on the roofline are the model's own traffic term: where
        # memory binds, the modelled time is exactly launch + bytes / BW.
        csr, venom = case
        cm = CostModel().with_params(cuda_spmm_flops=1e18, sptc_flops=1e18)
        p = cm.params
        for pt in (csr_roofline(csr, h, cm), venom_roofline(venom, h, cm)):
            assert pt.bound(p) == "memory"
            assert pt.modelled_seconds == p.kernel_launch + pt.bytes_moved / p.mem_bandwidth

    def test_intensity_positive(self, case):
        csr, venom = case
        for pt in roofline_series(csr, venom):
            assert pt.arithmetic_intensity > 0
            assert pt.achieved_flops > 0

    def test_achieved_below_roofs(self, case):
        csr, venom = case
        cm = CostModel()
        for pt in roofline_series(csr, venom, model=cm):
            # Nothing exceeds min(peak, AI*BW) + launch slack.
            roof = min(
                cm.params.sptc_flops if pt.kernel == "venom" else cm.params.cuda_spmm_flops * 4,
                pt.arithmetic_intensity * cm.params.mem_bandwidth,
            )
            assert pt.achieved_flops <= roof * 1.01

    def test_bound_classification(self):
        pt_mem = RooflinePoint("x", 64, flops=1e6, bytes_moved=1e6, modelled_seconds=1e-5)
        assert pt_mem.bound() == "memory"  # AI = 1 << ridge
        pt_cmp = RooflinePoint("x", 64, flops=1e12, bytes_moved=1e3, modelled_seconds=1e-3)
        assert pt_cmp.bound() == "compute"

    def test_csr_achieves_less_than_venom_per_flop(self, case):
        # The core mechanism: CSR's effective throughput is crippled by
        # irregular access; SPTC streams structured tiles.
        csr, venom = case
        c = csr_roofline(csr, 256)
        v = venom_roofline(venom, 256)
        assert v.achieved_flops > c.achieved_flops

    def test_series_covers_both_kernels(self, case):
        csr, venom = case
        pts = roofline_series(csr, venom, hs=(64, 128))
        assert [p.kernel for p in pts] == ["csr", "venom", "csr", "venom"]
