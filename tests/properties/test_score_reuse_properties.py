"""The scores ``reorder`` reuses instead of recomputing are the true scores.

``reorder`` scores each matrix state once: Stage-1 reports the MBScore and
Stage-2 the PScore of the matrix it returns, and the best state carries its
own two scores to the result.  Each reused figure must equal a fresh
recompute on the matrix it describes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BitMatrix, VNMPattern, mbscore, reorder, total_pscore
from repro.core.stage1 import stage1_reorder
from repro.core.stage2 import stage2_reorder

PATTERNS = [
    VNMPattern(1, 2, 4), VNMPattern(1, 1, 4), VNMPattern(2, 2, 8),
    VNMPattern(4, 2, 8), VNMPattern(1, 2, 16), VNMPattern(8, 2, 16),
    VNMPattern(3, 2, 5),
]


@st.composite
def symmetric_matrices(draw, max_n=56):
    n = draw(st.integers(min_value=4, max_value=max_n))
    kind = draw(st.sampled_from(["empty", "matching", "random", "random", "random"]))
    if kind == "empty":
        return BitMatrix.zeros(n, n)
    if kind == "matching":
        # Vertex 2i linked to 2i+1: every pattern above already conforms.
        a = np.zeros((n, n), dtype=np.uint8)
        i = np.arange(0, n - 1, 2)
        a[i, i + 1] = a[i + 1, i] = 1
        return BitMatrix.from_dense(a)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.03, 0.1, 0.25]))
    a = rng.random((n, n)) < density
    a = a | a.T
    np.fill_diagonal(a, False)
    return BitMatrix.from_dense(a.astype(np.uint8))


class TestStageScoresAreTrue:
    @settings(max_examples=80, deadline=None)
    @given(symmetric_matrices(), st.sampled_from(PATTERNS), st.integers(0, 4))
    def test_stage1_final_mbscore(self, bm, pattern, max_iter):
        res = stage1_reorder(bm, pattern, max_iter=max_iter)
        assert res.final_mbscore == mbscore(res.matrix, pattern)
        assert res.matrix == bm.permute_symmetric(res.permutation.order)
        given_score = stage1_reorder(
            bm, pattern, max_iter=max_iter, initial_mbscore=mbscore(bm, pattern)
        )
        assert given_score.mbscore_history == res.mbscore_history
        assert given_score.permutation == res.permutation

    @settings(max_examples=80, deadline=None)
    @given(symmetric_matrices(), st.sampled_from(PATTERNS), st.integers(0, 4))
    def test_stage2_final_pscore(self, bm, pattern, max_iter):
        nm = pattern.nm
        res = stage2_reorder(bm, nm, max_iter=max_iter)
        assert res.final_pscore == total_pscore(res.matrix, nm)
        assert res.matrix == bm.permute_symmetric(res.permutation.order)
        given_score = stage2_reorder(
            bm, nm, max_iter=max_iter, initial_pscore=total_pscore(bm, nm)
        )
        assert given_score.pscore_history == res.pscore_history
        assert given_score.permutation == res.permutation


class TestReorderCountsAreTrue:
    @settings(max_examples=120, deadline=None)
    @given(
        symmetric_matrices(),
        st.sampled_from(PATTERNS),
        st.booleans(),
        st.booleans(),
        st.sampled_from([0, 1, 2, 10]),
    )
    def test_counts_match_a_recompute(self, bm, pattern, use_stage1, use_stage2, max_iter):
        res = reorder(bm, pattern, use_stage1=use_stage1, use_stage2=use_stage2,
                      max_iter=max_iter, stage_max_iter=3)
        nm = pattern.nm
        assert res.initial_invalid_vectors == total_pscore(bm, nm)
        assert res.initial_mbscore == mbscore(bm, pattern)
        assert res.final_invalid_vectors == total_pscore(res.matrix, nm)
        assert res.final_mbscore == mbscore(res.matrix, pattern)
        assert res.conforms == pattern.matrix_conforms(res.matrix)
        assert res.matrix == bm.permute_symmetric(res.permutation.order)
        if max_iter == 0 or not (use_stage1 or use_stage2):
            assert res.permutation.is_identity()
        for entry in res.stage_trace:
            assert entry["stage"] in (1, 2) and (entry["stage"] == 1) <= use_stage1
            assert (entry["stage"] == 2) <= use_stage2

    def test_conforming_input_is_scored_and_returned_as_is(self):
        a = np.zeros((24, 24), dtype=np.uint8)
        a[0, 5] = a[5, 0] = 1
        bm = BitMatrix.from_dense(a)
        for pattern in PATTERNS:
            res = reorder(bm, pattern)
            assert res.iterations == 0 and res.conforms
            assert res.matrix is bm
            assert (res.initial_invalid_vectors, res.final_invalid_vectors) == (0, 0)
            assert (res.initial_mbscore, res.final_mbscore) == (0, 0)
