"""Cross-format SpMM agreement through the engine, the one host path."""

import numpy as np
import pytest

from repro.core import BitMatrix, NMPattern, VNMPattern, reorder
from repro.perf import engine
from repro.sptc import CSRMatrix, NMCompressed, VNMCompressed, dense_spmm


@pytest.fixture(scope="module")
def conforming_case():
    """A weighted symmetric matrix reordered to full 1:2:4 conformance."""
    rng = np.random.default_rng(11)
    n = 96
    mask = rng.random((n, n)) < 0.04
    mask |= mask.T
    np.fill_diagonal(mask, False)
    w = np.triu(rng.random((n, n)) + 0.01, 1) * np.triu(mask, 1)
    w = w + w.T
    res = reorder(BitMatrix.from_dense((w != 0).astype(np.uint8)), VNMPattern(1, 2, 4))
    assert res.conforms
    wp = res.permutation.apply_to_matrix(w)
    b = rng.random((n, 33))
    return wp, b


class TestAgreement:
    def test_all_formats_agree(self, conforming_case):
        wp, b = conforming_case
        ref = dense_spmm(wp, b)
        csr = CSRMatrix.from_dense(wp)
        nm = NMCompressed.compress(wp, NMPattern(2, 4))
        vn = VNMCompressed.compress(wp, VNMPattern(1, 2, 4))
        for op in (csr, nm, vn):
            assert np.allclose(engine.execute(op, b), ref)

    def test_dispatch(self, conforming_case):
        wp, b = conforming_case
        ref = wp @ b
        assert np.allclose(engine.execute(CSRMatrix.from_dense(wp), b), ref)
        assert np.allclose(engine.execute(NMCompressed.compress(wp, NMPattern(2, 4)), b), ref)
        assert np.allclose(
            engine.execute(VNMCompressed.compress(wp, VNMPattern(1, 2, 4)), b), ref)
        assert np.allclose(engine.execute(wp, b), ref)

    def test_dispatch_rejects_unknown(self):
        with pytest.raises(TypeError):
            engine.execute("nope", np.zeros((2, 2)))
