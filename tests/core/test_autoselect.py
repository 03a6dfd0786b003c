"""Best V:N:M auto-selection (paper §5 methodology)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BitMatrix,
    Permutation,
    VNMPattern,
    find_best_pattern,
    reordering_succeeds,
)
from repro.core.autoselect import _model_spmm_time
from repro.core.reorder import ReorderResult
from repro.sptc.costmodel import CostModel
from repro.sptc.csr import CSRMatrix
from repro.sptc.venom import VNMCompressed


def sparse_sym(n, density, seed):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) < density
    a = (a | a.T).astype(np.uint8)
    np.fill_diagonal(a, 0)
    return BitMatrix.from_dense(a)


class TestReorderingSucceeds:
    def test_returns_result_on_success(self):
        bm = sparse_sym(64, 0.04, 0)
        res = reordering_succeeds(bm, VNMPattern(1, 2, 4))
        assert res is not None and res.conforms

    def test_returns_none_on_failure(self):
        # 40% dense cannot fit 2:8 (max 25% per vector).
        bm = sparse_sym(32, 0.4, 1)
        assert reordering_succeeds(bm, VNMPattern(1, 2, 8)) is None


class TestFindBestPattern:
    @staticmethod
    def _max_conforming_m(result):
        return max((p.m for p, ok in result.attempts if ok), default=0)

    def test_sparser_matrices_reach_larger_m(self):
        dense_res = find_best_pattern(sparse_sym(64, 0.15, 2), max_iter=4)
        sparse_res = find_best_pattern(sparse_sym(64, 0.02, 2), max_iter=4)
        assert sparse_res.succeeded
        if dense_res.succeeded:
            assert self._max_conforming_m(sparse_res) >= self._max_conforming_m(dense_res)

    def test_largest_policy_returns_last_conforming(self):
        out = find_best_pattern(sparse_sym(64, 0.03, 9), max_iter=4, select="largest")
        assert out.succeeded
        assert out.pattern == out.candidates[-1][0]

    def test_fastest_policy_picks_among_candidates(self):
        out = find_best_pattern(sparse_sym(64, 0.03, 9), max_iter=4, select="fastest")
        assert out.succeeded
        assert out.pattern in [p for p, _ in out.candidates]

    def test_fastest_policy_models_time_from_tile_masks(self, monkeypatch):
        # The search ranks candidates from tile column masks, never building
        # a CSR; the time must equal the model's time for the compressed
        # operand exactly.
        calls = []
        to_scipy = BitMatrix.to_scipy

        def counting_to_scipy(self):
            calls.append(1)
            return to_scipy(self)

        monkeypatch.setattr(BitMatrix, "to_scipy", counting_to_scipy)
        out = find_best_pattern(sparse_sym(96, 0.02, 6), max_iter=4)
        assert out.succeeded and calls == []
        monkeypatch.undo()

        h = 128
        cm = CostModel()
        for pat, res in out.candidates:
            compressed = VNMCompressed.compress_csr(
                CSRMatrix.from_scipy(res.matrix.to_scipy()), pat)
            assert _model_spmm_time(res, h) == cm.time_venom_spmm(compressed, h)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 35).map(lambda k: 2 * k + 1),
           density=st.sampled_from([0.0, 0.005, 0.02, 0.1, 0.4]),
           seed=st.integers(0, 2**32 - 1), h=st.sampled_from([16, 128]))
    def test_tile_mask_model_time_equals_compressed(self, n, density, seed, h):
        # Random symmetric graphs with odd row counts (off every V > 1
        # multiple), every V and M of the search.  The counts do not need a reorder: where the
        # graph does not conform to V:2:M as drawn, V:M:M with k = M (which
        # every matrix meets) stands in, so the compressor accepts it.
        bm = sparse_sym(n, density, seed)
        csr = CSRMatrix.from_scipy(bm.to_scipy())
        cm = CostModel()
        for v in (1, 2, 4, 8, 16, 32):
            for m in (4, 8, 16, 32):
                pat = VNMPattern(v, 2, m)
                if not pat.matrix_conforms(bm):
                    pat = VNMPattern(v, m, m, k=m)
                res = ReorderResult(pat, Permutation.identity(n), bm, 0, 0, 0, 0, 0, 0.0)
                compressed = VNMCompressed.compress_csr(csr, pat)
                assert _model_spmm_time(res, h) == cm.time_venom_spmm(compressed, h), (v, m)

    def test_unknown_policy_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            find_best_pattern(sparse_sym(16, 0.1, 0), select="best")

    def test_best_pattern_actually_conforms(self):
        out = find_best_pattern(sparse_sym(64, 0.05, 3), max_iter=4)
        assert out.succeeded
        assert out.result.conforms
        assert out.result.pattern == out.pattern

    def test_attempts_recorded(self):
        out = find_best_pattern(sparse_sym(64, 0.05, 4), max_iter=4)
        assert len(out.attempts) >= 1
        tried = [str(p) for p, ok in out.attempts]
        assert "1:2:4" in tried

    def test_failure_for_over_dense(self):
        bm = sparse_sym(16, 0.95, 5)
        out = find_best_pattern(bm, max_iter=2)
        assert not out.succeeded
        assert out.pattern is None

    def test_v_phase_keeps_m_fixed(self):
        out = find_best_pattern(sparse_sym(96, 0.02, 6), max_iter=4)
        assert out.succeeded
        ms = {p.m for p, ok in out.attempts if p.v > 1}
        assert ms <= {out.pattern.m}
