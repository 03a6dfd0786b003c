"""Property-based tests for the SPTC formats and kernels."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import VNMPattern
from repro.perf import engine
from repro.sptc import CSRMatrix, HybridVNM, VNMCompressed


@st.composite
def sparse_weighted_matrices(draw, max_n=48):
    n_rows = draw(st.integers(min_value=1, max_value=max_n))
    n_cols = draw(st.integers(min_value=1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    density = draw(st.floats(min_value=0.0, max_value=0.4))
    rng = np.random.default_rng(seed)
    a = rng.random((n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < density)
    return a


PATTERNS = [VNMPattern(1, 2, 4), VNMPattern(4, 2, 8), VNMPattern(8, 2, 16)]


class TestCSRProperties:
    @settings(max_examples=40, deadline=None)
    @given(sparse_weighted_matrices())
    def test_roundtrip(self, a):
        assert np.allclose(CSRMatrix.from_dense(a).to_dense(), a)

    @settings(max_examples=40, deadline=None)
    @given(sparse_weighted_matrices(), st.integers(min_value=1, max_value=9))
    def test_matmat_matches_dense(self, a, h):
        rng = np.random.default_rng(h)
        b = rng.random((a.shape[1], h))
        assert np.allclose(engine.execute(CSRMatrix.from_dense(a), b), a @ b)

    @settings(max_examples=30, deadline=None)
    @given(sparse_weighted_matrices())
    def test_transpose_involution(self, a):
        csr = CSRMatrix.from_dense(a)
        assert np.allclose(csr.transpose().transpose().to_dense(), a)


class TestHybridProperties:
    @settings(max_examples=30, deadline=None)
    @given(sparse_weighted_matrices(), st.sampled_from(PATTERNS))
    def test_hybrid_always_lossless(self, a, pattern):
        hy = HybridVNM.compress(a, pattern)
        assert np.allclose(hy.decompress(), a)

    @settings(max_examples=30, deadline=None)
    @given(sparse_weighted_matrices(), st.sampled_from(PATTERNS), st.integers(1, 7))
    def test_hybrid_spmm_exact(self, a, pattern, h):
        hy = HybridVNM.compress(a, pattern)
        b = np.random.default_rng(h).random((a.shape[1], h))
        assert np.allclose(engine.execute(hy, b), a @ b)

    @settings(max_examples=30, deadline=None)
    @given(sparse_weighted_matrices(), st.sampled_from(PATTERNS))
    def test_csr_path_matches_dense_path_losslessness(self, a, pattern):
        hy = HybridVNM.compress_csr(CSRMatrix.from_dense(a), pattern)
        assert np.allclose(hy.decompress(), a)

    @settings(max_examples=30, deadline=None)
    @given(sparse_weighted_matrices(), st.sampled_from(PATTERNS))
    def test_main_part_conforms(self, a, pattern):
        hy = HybridVNM.compress(a, pattern)
        # decompressed main part must satisfy the pattern's constraints
        VNMCompressed.compress(hy.main.decompress(), pattern)
