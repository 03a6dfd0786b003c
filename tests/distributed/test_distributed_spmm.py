"""Distributed SpMM with per-partition reordering (§4.4 fidelity)."""

import numpy as np
import pytest

from repro.core import VNMPattern
from repro.distributed import distributed_spmm
from repro.graphs import sbm_graph
from repro.sptc import EmulatedDevice

PATTERN = VNMPattern(1, 2, 4)


@pytest.fixture(scope="module")
def case():
    rng = np.random.default_rng(4)
    g, _ = sbm_graph(160, 4, 0.15, 0.01, rng)
    b = rng.random((g.n, 24))
    return g, b


class TestDistributedSpmm:
    @pytest.mark.parametrize("n_parts", [1, 2, 4])
    def test_matches_monolithic(self, case, n_parts):
        g, b = case
        ref = g.csr().to_dense() @ b
        out, _ = distributed_spmm(g, b, n_parts, PATTERN)
        assert np.allclose(out, ref)

    def test_timed_devices(self, case):
        g, b = case
        out, devices = distributed_spmm(
            g, b, 2, PATTERN, device_factory=lambda i: EmulatedDevice(device_id=i)
        )
        assert np.allclose(out, g.csr().to_dense() @ b)
        assert len(devices) == 2
        assert all(d.clock > 0 for d in devices)

    def test_b_shape_checked(self, case):
        g, _ = case
        with pytest.raises(ValueError):
            distributed_spmm(g, np.zeros((g.n + 1, 2)), 2, PATTERN)

    def test_weighted_graph(self, rng):
        from repro.graphs import Graph

        w = rng.random((64, 64)) * (rng.random((64, 64)) < 0.1)
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)  # Graph drops self-loops
        g = Graph.from_dense(w)
        b = rng.random((64, 5))
        out, _ = distributed_spmm(g, b, 2, PATTERN)
        assert np.allclose(out, w @ b)
