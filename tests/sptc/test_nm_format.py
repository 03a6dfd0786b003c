"""N:M compressed format."""

import numpy as np
import pytest

from repro.core import NMPattern
from repro.perf import engine
from repro.pipeline.resilience import BackendExecutionError
from repro.sptc import NMCompressed, NMFormatError


def conforming_nm_dense(n_rows, n_cols, pattern, rng, fill=0.7):
    a = np.zeros((n_rows, n_cols))
    n_segs = n_cols // pattern.m
    for r in range(n_rows):
        for s in range(n_segs):
            if rng.random() < fill:
                cnt = rng.integers(1, pattern.n + 1)
                pos = rng.choice(pattern.m, size=cnt, replace=False)
                a[r, s * pattern.m + pos] = rng.random(cnt) + 0.1
    return a


class TestCompress:
    def test_roundtrip(self, rng):
        pat = NMPattern(2, 4)
        a = conforming_nm_dense(12, 32, pat, rng)
        c = NMCompressed.compress(a, pat)
        assert np.allclose(c.decompress(), a)

    def test_shapes(self, rng):
        pat = NMPattern(2, 8)
        a = conforming_nm_dense(6, 24, pat, rng)
        c = NMCompressed.compress(a, pat)
        assert c.values.shape == (6, 3 * 2)
        assert c.meta.shape == (6, 3 * 2)
        assert c.n_segs == 3

    def test_violation_rejected_with_location(self, rng):
        pat = NMPattern(2, 4)
        a = conforming_nm_dense(6, 16, pat, rng)
        a[3, 8:11] = 1.0
        with pytest.raises(NMFormatError, match="row 3"):
            NMCompressed.compress(a, pat)

    def test_padding_columns(self, rng):
        pat = NMPattern(2, 8)
        a = np.zeros((4, 10))
        a[0, 9] = 3.0
        c = NMCompressed.compress(a, pat)
        assert np.allclose(c.decompress(), a)

    def test_meta_positions_distinct_per_segment(self, rng):
        pat = NMPattern(2, 4)
        a = conforming_nm_dense(10, 16, pat, rng, fill=0.5)
        c = NMCompressed.compress(a, pat)
        meta = c.meta.reshape(10, -1, pat.n)
        for r in range(10):
            for s in range(meta.shape[1]):
                assert len(set(meta[r, s])) == pat.n


class TestSpmm:
    def test_matches_dense(self, rng):
        pat = NMPattern(2, 4)
        a = conforming_nm_dense(16, 32, pat, rng)
        c = NMCompressed.compress(a, pat)
        b = rng.random((32, 9))
        assert np.allclose(engine.execute(c, b), a @ b)

    def test_with_padding(self, rng):
        pat = NMPattern(2, 8)
        a = np.zeros((4, 11))
        a[1, 10] = 2.0
        a[2, 0] = 1.0
        c = NMCompressed.compress(a, pat)
        b = rng.random((11, 5))
        assert np.allclose(engine.execute(c, b), a @ b)

    def test_dim_mismatch(self, rng):
        pat = NMPattern(2, 4)
        a = conforming_nm_dense(4, 8, pat, rng)
        c = NMCompressed.compress(a, pat)
        with pytest.raises(BackendExecutionError, match="inner dimension mismatch"):
            engine.execute(c, rng.random((9, 3)))


class TestStorage:
    def test_storage_bytes_halved_vs_dense_fp16(self, rng):
        # 2:4 stores half the values plus 2-bit metadata.
        pat = NMPattern(2, 4)
        a = conforming_nm_dense(16, 64, pat, rng)
        c = NMCompressed.compress(a, pat)
        dense_fp16 = a.size * 2
        assert c.storage_bytes() < dense_fp16 * 0.7
