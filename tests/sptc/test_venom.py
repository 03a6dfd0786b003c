"""V:N:M (VENOM) compressed format: dense and CSR compression paths."""

import numpy as np
import pytest

from repro.core import VNMPattern
from repro.perf import engine
from repro.pipeline.resilience import BackendExecutionError
from repro.sptc import CSRMatrix, VNMCompressed, VNMFormatError


def conforming_vnm_dense(n_rows, n_cols, pattern, rng, tile_fill=0.5):
    """Random matrix conforming to ``pattern`` by construction."""
    v, n, m, k = pattern.v, pattern.n, pattern.m, pattern.k
    a = np.zeros((n_rows, n_cols))
    for tr in range((n_rows + v - 1) // v):
        for ts in range((n_cols + m - 1) // m):
            if rng.random() >= tile_fill:
                continue
            width = min(m, n_cols - ts * m)
            if width <= 0:
                continue
            live = rng.choice(width, size=min(k, width, rng.integers(1, k + 1)), replace=False)
            for r in range(tr * v, min((tr + 1) * v, n_rows)):
                cnt = int(rng.integers(0, n + 1))
                if cnt:
                    pick = rng.choice(live, size=min(cnt, live.size), replace=False)
                    a[r, ts * m + pick] = rng.random(pick.size) + 0.1
    return a


PATTERNS = [VNMPattern(1, 2, 4), VNMPattern(4, 2, 8), VNMPattern(8, 2, 16), VNMPattern(16, 2, 16)]


class TestDenseCompress:
    @pytest.mark.parametrize("pat", PATTERNS, ids=str)
    def test_roundtrip(self, pat, rng):
        a = conforming_vnm_dense(64, 64, pat, rng)
        c = VNMCompressed.compress(a, pat)
        assert np.allclose(c.decompress(), a)

    def test_vertical_violation_rejected(self, rng):
        pat = VNMPattern(4, 2, 8)
        a = np.zeros((4, 8))
        a[0, [0, 1]] = 1.0
        a[1, [2, 3]] = 1.0
        a[2, [4]] = 1.0  # 5 live columns in the tile
        with pytest.raises(VNMFormatError, match="live columns"):
            VNMCompressed.compress(a, pat)

    def test_horizontal_violation_rejected(self, rng):
        pat = VNMPattern(4, 2, 8)
        a = np.zeros((4, 8))
        a[0, [0, 1, 2]] = 1.0
        with pytest.raises(VNMFormatError, match="row constraint"):
            VNMCompressed.compress(a, pat)

    def test_empty_tiles_skipped(self):
        pat = VNMPattern(4, 2, 8)
        a = np.zeros((8, 16))
        a[0, 0] = 1.0
        c = VNMCompressed.compress(a, pat)
        assert c.n_tiles == 1

    def test_empty_matrix(self):
        pat = VNMPattern(4, 2, 8)
        c = VNMCompressed.compress(np.zeros((8, 8)), pat)
        assert c.n_tiles == 0
        assert np.allclose(c.decompress(), 0.0)


class TestCsrCompress:
    @pytest.mark.parametrize("pat", PATTERNS, ids=str)
    def test_matches_dense_path(self, pat, rng):
        a = conforming_vnm_dense(64, 64, pat, rng)
        d = VNMCompressed.compress(a, pat)
        c = VNMCompressed.compress_csr(CSRMatrix.from_dense(a), pat)
        assert c.n_tiles == d.n_tiles
        assert np.allclose(c.decompress(), a)
        assert np.array_equal(c.tile_ptr, d.tile_ptr)
        assert np.array_equal(c.tile_seg, d.tile_seg)

    def test_empty_csr(self):
        pat = VNMPattern(2, 2, 4)
        c = VNMCompressed.compress_csr(CSRMatrix.from_coo([], [], [], (8, 8)), pat)
        assert c.n_tiles == 0

    def test_vertical_violation_rejected(self):
        pat = VNMPattern(4, 2, 8)
        a = np.zeros((4, 8))
        a[0, [0, 1]] = 1.0
        a[1, [2, 3]] = 1.0
        a[2, [4]] = 1.0
        with pytest.raises(VNMFormatError):
            VNMCompressed.compress_csr(CSRMatrix.from_dense(a), pat)

    def test_horizontal_violation_rejected(self):
        pat = VNMPattern(4, 2, 8)
        a = np.zeros((4, 8))
        a[0, [0, 1, 2]] = 1.0
        with pytest.raises(VNMFormatError):
            VNMCompressed.compress_csr(CSRMatrix.from_dense(a), pat)

    def test_non_multiple_shapes(self, rng):
        pat = VNMPattern(4, 2, 8)
        a = conforming_vnm_dense(13, 19, pat, rng)
        c = VNMCompressed.compress_csr(CSRMatrix.from_dense(a), pat)
        assert np.allclose(c.decompress(), a)


class TestSpmm:
    @pytest.mark.parametrize("pat", PATTERNS, ids=str)
    def test_matches_dense(self, pat, rng):
        a = conforming_vnm_dense(64, 64, pat, rng)
        c = VNMCompressed.compress(a, pat)
        b = rng.random((64, 13))
        assert np.allclose(engine.execute(c, b), a @ b)

    def test_csr_path_spmm(self, rng):
        pat = VNMPattern(4, 2, 8)
        a = conforming_vnm_dense(32, 40, pat, rng)
        c = VNMCompressed.compress_csr(CSRMatrix.from_dense(a), pat)
        b = rng.random((40, 7))
        assert np.allclose(engine.execute(c, b), a @ b)

    def test_dim_mismatch(self, rng):
        pat = VNMPattern(1, 2, 4)
        c = VNMCompressed.compress(np.zeros((8, 8)), pat)
        with pytest.raises(BackendExecutionError, match="inner dimension mismatch"):
            engine.execute(c, rng.random((9, 2)))


class TestStorage:
    def test_storage_smaller_than_dense(self, rng):
        pat = VNMPattern(8, 2, 16)
        a = conforming_vnm_dense(128, 128, pat, rng, tile_fill=0.2)
        c = VNMCompressed.compress(a, pat)
        assert c.storage_bytes() < a.size * 2  # fp16 dense
