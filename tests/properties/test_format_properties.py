"""Property tests for the auxiliary formats (SELL, TC-GNN, SDDMM)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import engine
from repro.sptc import CSRMatrix, TCGNNBlocked
from repro.sptc.sddmm import csr_sddmm
from repro.sptc.sell import SellCSigma


@st.composite
def sparse_matrices(draw, max_n=40):
    n_rows = draw(st.integers(min_value=1, max_value=max_n))
    n_cols = draw(st.integers(min_value=1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    density = draw(st.floats(min_value=0.0, max_value=0.35))
    rng = np.random.default_rng(seed)
    a = rng.random((n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < density)
    return a


def assert_coo_roundtrip(op, a):
    """``to_coo``: distinct in-range coordinates, padding dropped, and
    scattered back (by assignment, not ``to_dense``) equal to the source."""
    rows, cols, vals = op.to_coo()
    assert (cols >= 0).all() and (rows >= 0).all()
    assert np.unique(rows * a.shape[1] + cols).size == rows.size
    dense = np.zeros(a.shape)
    dense[rows, cols] = vals
    assert np.array_equal(dense, a)


class TestSellProperties:
    @settings(max_examples=40, deadline=None)
    @given(sparse_matrices(), st.sampled_from([(4, 4), (8, 16)]))
    def test_roundtrip(self, a, cs):
        c, sigma = cs
        sell = SellCSigma.from_csr(CSRMatrix.from_dense(a), c=c, sigma=sigma)
        assert np.allclose(sell.to_dense(), a)
        assert_coo_roundtrip(sell, a)

    @settings(max_examples=30, deadline=None)
    @given(sparse_matrices(), st.integers(1, 6))
    def test_spmm_matches(self, a, h):
        sell = SellCSigma.from_csr(CSRMatrix.from_dense(a), c=4, sigma=8)
        b = np.random.default_rng(h).random((a.shape[1], h))
        assert np.allclose(engine.execute(sell, b), a @ b)

    @settings(max_examples=30, deadline=None)
    @given(sparse_matrices())
    def test_padding_entries_at_least_nnz(self, a):
        csr = CSRMatrix.from_dense(a)
        sell = SellCSigma.from_csr(csr)
        assert sell.padded_entries >= csr.nnz


class TestTcgnnProperties:
    @settings(max_examples=40, deadline=None)
    @given(sparse_matrices(), st.sampled_from([8, 16]))
    def test_roundtrip(self, a, tile):
        blocked = TCGNNBlocked.from_csr(CSRMatrix.from_dense(a), tile=tile)
        assert np.allclose(blocked.to_dense(), a)
        assert_coo_roundtrip(blocked, a)

    @settings(max_examples=30, deadline=None)
    @given(sparse_matrices(), st.integers(1, 5))
    def test_spmm_matches(self, a, h):
        blocked = TCGNNBlocked.from_csr(CSRMatrix.from_dense(a), tile=8)
        b = np.random.default_rng(h).random((a.shape[1], h))
        assert np.allclose(engine.execute(blocked, b), a @ b)

    @settings(max_examples=30, deadline=None)
    @given(sparse_matrices())
    def test_stored_slots_cover_nnz(self, a):
        csr = CSRMatrix.from_dense(a)
        blocked = TCGNNBlocked.from_csr(csr, tile=16)
        assert blocked.blocks.size >= csr.nnz


class TestSddmmProperties:
    @settings(max_examples=40, deadline=None)
    @given(sparse_matrices(), st.integers(1, 6))
    def test_matches_dense_masked(self, a, f):
        rng = np.random.default_rng(f)
        q = rng.random((a.shape[0], f))
        k = rng.random((a.shape[1], f))
        csr = CSRMatrix.from_dense(a)
        out = csr_sddmm(csr, q, k)
        assert np.allclose(out.to_dense(), (q @ k.T) * a)


@st.composite
def nm_conforming_matrices(draw):
    """Integer-valued matrices obeying an N:M row constraint, ragged widths
    included (n_cols need not be a multiple of M)."""
    n, m = draw(st.sampled_from([(1, 4), (2, 4), (2, 8), (4, 8)]))
    n_rows = draw(st.integers(min_value=1, max_value=24))
    n_cols = draw(st.integers(min_value=1, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    a = np.zeros((n_rows, n_cols))
    n_segs = (n_cols + m - 1) // m
    for i in range(n_rows):
        for s in range(n_segs):
            width = min(m, n_cols - s * m)
            k = rng.integers(0, min(n, width) + 1)
            if k:
                cols = rng.choice(width, size=k, replace=False) + s * m
                a[i, cols] = rng.integers(1, 8, size=k)
    return a, n, m


class TestNMRoundtripProperties:
    """compress -> decompress is lossless; decompress reuses the engine's
    precomputed plan gather, so this also pins the scatter geometry."""

    @settings(max_examples=60, deadline=None)
    @given(nm_conforming_matrices())
    def test_roundtrip_exact(self, case):
        from repro.core.patterns import NMPattern
        from repro.sptc.nm_format import NMCompressed

        a, n, m = case
        compressed = NMCompressed.compress(a, NMPattern(n, m))
        assert np.array_equal(compressed.decompress(), a)

    @settings(max_examples=30, deadline=None)
    @given(nm_conforming_matrices(), st.integers(1, 5))
    def test_planned_spmm_matches_decompressed(self, case, h):
        from repro.core.patterns import NMPattern
        from repro.perf import engine
        from repro.sptc.nm_format import NMCompressed

        a, n, m = case
        compressed = NMCompressed.compress(a, NMPattern(n, m))
        b = np.random.default_rng(h).integers(0, 64, size=(a.shape[1], h)).astype(np.float64)
        reference = a @ b
        plan = engine.build_plan(compressed)
        assert np.array_equal(plan.execute(compressed, b), reference)
