"""SDDMM kernels and preprocessed-artefact serialization."""

import numpy as np
import pytest

from repro.core import BitMatrix, VNMPattern, reorder
from repro.perf import engine
from repro.sptc import CSRMatrix, HybridVNM
from repro.sptc.sddmm import csr_sddmm, venom_sddmm
from repro.sptc.serialize import load_preprocessed, save_preprocessed


@pytest.fixture(scope="module")
def case():
    rng = np.random.default_rng(8)
    n = 128
    mask = rng.random((n, n)) < 0.04
    mask |= mask.T
    np.fill_diagonal(mask, False)
    w = np.triu(rng.random((n, n)) + 0.1, 1) * np.triu(mask, 1)
    w = w + w.T
    res = reorder(BitMatrix.from_dense((w != 0).astype(np.uint8)), VNMPattern(1, 2, 4))
    wp = res.permutation.apply_to_matrix(w)
    venom = HybridVNM.compress_csr(CSRMatrix.from_dense(wp), VNMPattern(1, 2, 4)).main
    rng2 = np.random.default_rng(9)
    q = rng2.random((n, 16))
    k = rng2.random((n, 16))
    return wp, venom, q, k, res.permutation


class TestCsrSddmm:
    def test_matches_dense_masked_product(self, case):
        wp, _, q, k, _ = case
        csr = CSRMatrix.from_dense(wp)
        out = csr_sddmm(csr, q, k)
        dense_scores = (q @ k.T) * wp
        assert np.allclose(out.to_dense(), dense_scores)

    def test_pattern_preserved(self, case):
        wp, _, q, k, _ = case
        csr = CSRMatrix.from_dense(wp)
        out = csr_sddmm(csr, q, k)
        assert np.array_equal(out.indices, csr.indices)
        assert np.array_equal(out.indptr, csr.indptr)

    def test_shape_checks(self, case):
        wp, _, q, k, _ = case
        csr = CSRMatrix.from_dense(wp)
        with pytest.raises(ValueError):
            csr_sddmm(csr, q[:-1], k)
        with pytest.raises(ValueError):
            csr_sddmm(csr, q, k[:, :-1])


class TestVenomSddmm:
    def test_matches_csr_sddmm(self, case):
        wp, venom, q, k, _ = case
        out = venom_sddmm(venom, q, k)
        expect = (q @ k.T) * wp
        assert np.allclose(out.decompress(), expect)

    def test_structure_unchanged(self, case):
        _, venom, q, k, _ = case
        out = venom_sddmm(venom, q, k)
        assert np.array_equal(out.tile_ptr, venom.tile_ptr)
        assert np.array_equal(out.col_ids, venom.col_ids)
        assert np.array_equal(out.meta, venom.meta)
        assert out.n_live_cols == venom.n_live_cols

    def test_then_spmm_is_attention_like(self, case):
        # SDDMM scores followed by SpMM: the GAT-style aggregation pipeline.
        wp, venom, q, k, _ = case
        scored = venom_sddmm(venom, q, k)
        features = np.random.default_rng(10).random((wp.shape[1], 8))
        out = engine.execute(scored, features)
        expect = ((q @ k.T) * wp) @ features
        assert np.allclose(out, expect)

    def test_empty_operand(self):
        from repro.sptc import VNMCompressed

        empty = VNMCompressed.compress(np.zeros((8, 8)), VNMPattern(1, 2, 4))
        out = venom_sddmm(empty, np.ones((8, 4)), np.ones((8, 4)))
        assert out.n_tiles == 0

    def test_shape_checks(self, case):
        _, venom, q, k, _ = case
        with pytest.raises(ValueError):
            venom_sddmm(venom, q[:-2], k)


class TestSerialize:
    def test_roundtrip(self, case, tmp_path):
        _, venom, _, _, perm = case
        path = tmp_path / "prep.npz"
        save_preprocessed(path, operand=venom, permutation=perm)
        loaded, loaded_perm = load_preprocessed(path)
        assert np.allclose(loaded.decompress(), venom.decompress())
        assert loaded.pattern == venom.pattern
        assert loaded.n_live_cols == venom.n_live_cols
        assert loaded_perm == perm

    def test_roundtrip_without_permutation(self, case, tmp_path):
        _, venom, _, _, _ = case
        path = tmp_path / "prep.npz"
        save_preprocessed(path, operand=venom)
        loaded, loaded_perm = load_preprocessed(path)
        assert loaded_perm is None
        assert loaded.shape == venom.shape

    def test_spmm_after_load(self, case, tmp_path):
        wp, venom, _, _, _ = case
        path = tmp_path / "prep.npz"
        save_preprocessed(path, operand=venom)
        loaded, _ = load_preprocessed(path)
        b = np.random.default_rng(11).random((wp.shape[1], 5))
        assert np.allclose(engine.execute(loaded, b), wp @ b)

    def test_hybrid_roundtrip(self, case, tmp_path):
        wp, _, _, _, perm = case
        hybrid = HybridVNM.compress_csr(CSRMatrix.from_dense(wp), VNMPattern(1, 2, 4))
        path = tmp_path / "hybrid.npz"
        save_preprocessed(path, operand=hybrid, permutation=perm)
        loaded, loaded_perm = load_preprocessed(path)
        assert isinstance(loaded, HybridVNM)
        assert np.allclose(loaded.decompress(), hybrid.decompress())
        assert loaded.main.pattern == hybrid.main.pattern
        assert loaded_perm == perm
        b = np.random.default_rng(12).random((wp.shape[1], 4))
        assert np.array_equal(engine.execute(loaded, b), engine.execute(hybrid, b))

    def test_version_check(self, case, tmp_path):
        _, venom, _, _, _ = case
        path = tmp_path / "prep.npz"
        save_preprocessed(path, operand=venom)
        import numpy as np_mod

        with np_mod.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["format_version"] = np_mod.array([99])
        np_mod.savez_compressed(path, **arrays)
        with pytest.raises(ValueError):
            load_preprocessed(path)
