"""Raw kernel microbenchmarks (wall-clock, pytest-benchmark).

These measure the host SpMM path (:func:`repro.perf.engine.execute`) and
the emulation substrate's functional NumPy kernels — useful for tracking
regressions in either.  Paper-shape performance
claims live in the cost-model benches; these are real seconds on this
machine.
"""

import numpy as np
import pytest

from repro.core import BitMatrix, NMPattern, VNMPattern, reorder
from repro.core.stage1 import encode_rows, lexicographic_row_order
from repro.perf import engine
from repro.sptc import (
    CSRMatrix,
    HybridVNM,
    NMCompressed,
    compress_tile_2to4,
    mma_sp,
)


@pytest.fixture(scope="module")
def medium_case():
    rng = np.random.default_rng(7)
    n = 2048
    mask = rng.random((n, n)) < 0.01
    mask |= mask.T
    np.fill_diagonal(mask, False)
    w = np.triu(rng.random((n, n)), 1) * np.triu(mask, 1)
    w = w + w.T
    b = rng.random((n, 128))
    return w, b


def test_bench_csr_spmm(benchmark, medium_case):
    w, b = medium_case
    csr = CSRMatrix.from_dense(w)
    out = benchmark(engine.execute, csr, b)
    assert out.shape == b.shape


def test_bench_hybrid_spmm(benchmark, medium_case):
    w, b = medium_case
    hy = HybridVNM.compress_csr(CSRMatrix.from_dense(w), VNMPattern(1, 2, 4))
    out = benchmark(engine.execute, hy, b)
    assert np.allclose(out, w @ b)


def test_bench_vnm_compress_csr(benchmark, medium_case):
    w, _ = medium_case
    csr = CSRMatrix.from_dense(w)
    hy = benchmark(HybridVNM.compress_csr, csr, VNMPattern(1, 2, 4))
    assert hy.shape == w.shape


def test_bench_nm_compress(benchmark):
    rng = np.random.default_rng(1)
    pat = NMPattern(2, 4)
    a = np.zeros((512, 512))
    for r in range(512):
        segs = rng.choice(128, size=40, replace=False)
        for s in segs:
            pos = rng.choice(4, size=2, replace=False)
            a[r, s * 4 + pos] = rng.random(2)
    c = benchmark(NMCompressed.compress, a, pat)
    assert np.allclose(c.decompress(), a)


def test_bench_mma_sp(benchmark):
    rng = np.random.default_rng(2)
    t = np.zeros((16, 32))
    for i in range(16):
        for g in range(8):
            pos = rng.choice(4, size=2, replace=False)
            t[i, g * 4 + pos] = rng.random(2)
    v, meta = compress_tile_2to4(t)
    b = rng.random((32, 8))
    out = benchmark(mma_sp, v, meta, b)
    assert np.allclose(out, t @ b)


def test_bench_stage1_encode(benchmark, medium_case):
    w, _ = medium_case
    bm = BitMatrix.from_dense((w != 0).astype(np.uint8))
    codes = benchmark(encode_rows, bm, VNMPattern(1, 2, 4))
    assert codes.shape[0] == bm.n_rows


def test_bench_lexsort(benchmark, medium_case):
    w, _ = medium_case
    bm = BitMatrix.from_dense((w != 0).astype(np.uint8))
    codes = encode_rows(bm, VNMPattern(1, 2, 4))
    order = benchmark(lexicographic_row_order, codes)
    assert order.shape == (bm.n_rows,)


def test_bench_bitmatrix_permute(benchmark, medium_case):
    w, _ = medium_case
    bm = BitMatrix.from_dense((w != 0).astype(np.uint8))
    rng = np.random.default_rng(0)
    order = rng.permutation(bm.n_rows)
    out = benchmark(bm.permute_symmetric, order)
    assert out.nnz() == bm.nnz()


def test_bench_full_reorder(benchmark, medium_case):
    w, _ = medium_case
    bm = BitMatrix.from_dense((w != 0).astype(np.uint8))
    res = benchmark.pedantic(
        reorder, args=(bm, VNMPattern(1, 2, 4)), kwargs={"max_iter": 5},
        iterations=1, rounds=3,
    )
    assert res.final_invalid_vectors <= res.initial_invalid_vectors
