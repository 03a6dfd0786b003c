"""Invariants of Stage-2's incremental working state under random swaps."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BitMatrix, NMPattern
from repro.core.stage2 import _WorkingState


@st.composite
def state_and_swaps(draw):
    n = draw(st.integers(min_value=8, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    m = draw(st.sampled_from([4, 8]))
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < 0.25)
    a = (a | a.T).astype(np.uint8)
    np.fill_diagonal(a, 0)
    bm = BitMatrix.from_dense(a)
    pattern = NMPattern(2, m)
    n_segs = (n + m - 1) // m
    n_swaps = draw(st.integers(min_value=0, max_value=8))
    swaps = []
    for _ in range(n_swaps):
        p = draw(st.integers(0, n_segs - 1))
        t = draw(st.integers(0, n_segs - 1))
        if p == t:
            continue
        # stay within real (non-padding) columns
        u = draw(st.integers(0, max(min(m, n - p * m) - 1, 0)))
        v = draw(st.integers(0, max(min(m, n - t * m) - 1, 0)))
        swaps.append((p, u, t, v))
    return bm, pattern, swaps


class TestWorkingStateInvariants:
    @settings(max_examples=60, deadline=None)
    @given(state_and_swaps())
    def test_counts_match_packed_values(self, case):
        bm, pattern, swaps = case
        state = _WorkingState(bm, pattern)
        for p, u, t, v in swaps:
            state.apply_swap(p, u, t, v)
        assert np.array_equal(
            state.counts_t, np.bitwise_count(state._seg_vals_t).astype(np.int16)
        )

    @settings(max_examples=60, deadline=None)
    @given(state_and_swaps())
    def test_seg_nnz_matches_counts(self, case):
        bm, pattern, swaps = case
        state = _WorkingState(bm, pattern)
        for p, u, t, v in swaps:
            state.apply_swap(p, u, t, v)
        assert np.array_equal(state.seg_nnz, state.counts_t.sum(axis=1))

    @settings(max_examples=40, deadline=None)
    @given(state_and_swaps())
    def test_total_nnz_preserved(self, case):
        bm, pattern, swaps = case
        state = _WorkingState(bm, pattern)
        before = int(state.counts_t.sum())
        for p, u, t, v in swaps:
            state.apply_swap(p, u, t, v)
        assert int(state.counts_t.sum()) == before

    @settings(max_examples=40, deadline=None)
    @given(state_and_swaps())
    def test_swap_is_involution(self, case):
        bm, pattern, swaps = case
        state = _WorkingState(bm, pattern)
        snapshot = state._seg_vals_t.copy()
        for p, u, t, v in swaps:
            state.apply_swap(p, u, t, v)
            state.apply_swap(p, u, t, v)
        assert np.array_equal(state._seg_vals_t, snapshot)
