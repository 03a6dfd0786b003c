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


def reference_to_coo(a: VNMCompressed):
    """The ``take_along_axis`` formulation ``VNMCompressed.to_coo`` replaced."""
    v = a.pattern.v
    cols = np.take_along_axis(
        a.col_ids.astype(np.int64)[:, None, :].repeat(v, axis=1),
        a.meta.astype(np.int64), axis=2)
    tile_rows = np.repeat(np.arange(a.n_tile_rows, dtype=np.int64), np.diff(a.tile_ptr))
    rows = np.broadcast_to(tile_rows[:, None, None] * v + np.arange(v)[None, :, None],
                           cols.shape)
    live = a.values != 0.0
    return rows[live], cols[live], a.values[live]


@st.composite
def vnm_operands(draw):
    """Tile arrays built directly: empty tile rows, all-zero tiles, and
    padding slots (zero values whose ``meta`` repeats a live position)."""
    v = draw(st.sampled_from([1, 2, 4, 8]))
    n = draw(st.sampled_from([1, 2, 4]))
    m = draw(st.sampled_from([m for m in (4, 8, 16) if m > n]))
    pattern = VNMPattern(v, n, m)
    n_trows = draw(st.integers(min_value=0, max_value=6))
    n_segs = draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    per_row = rng.integers(0, n_segs + 1, size=n_trows)
    per_row[rng.random(n_trows) < 0.3] = 0
    tile_ptr = np.concatenate([[0], np.cumsum(per_row)]).astype(np.int64)
    tile_seg = np.concatenate(
        [np.sort(rng.choice(n_segs, size=c, replace=False)) for c in per_row]
        + [np.zeros(0, dtype=np.int64)])
    n_tiles = tile_seg.size
    k = pattern.k
    col_ids = (tile_seg[:, None] * m
               + np.sort(rng.integers(0, m, size=(n_tiles, k)), axis=1))
    meta = rng.integers(0, k, size=(n_tiles, v, n)).astype(np.uint8)
    values = rng.integers(-3, 4, size=(n_tiles, v, n)).astype(np.float64)
    values[rng.random(n_tiles) < 0.2] = 0.0  # zero tiles
    ids = draw(st.sampled_from([np.int16, np.int32, np.int64]))
    return VNMCompressed(pattern, (max(n_trows, 1) * v, n_segs * m), tile_ptr,
                         tile_seg.astype(ids), col_ids.astype(ids), values, meta)


class TestVnmToCoo:
    @settings(max_examples=150, deadline=None)
    @given(vnm_operands())
    def test_bitwise_equal_to_take_along_axis(self, a):
        got, ref = a.to_coo(), reference_to_coo(a)
        for x, y in zip(got, ref):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(vnm_operands())
    def test_slot_columns_match_every_slot(self, a):
        cols = a.slot_columns(np.arange(a.values.size)).reshape(a.values.shape)
        t, r, j = np.indices(a.values.shape)
        assert np.array_equal(cols, a.col_ids[t, a.meta[t, r, j]])
