"""Property-based tests (hypothesis) for the core data structures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BitMatrix,
    NMPattern,
    Permutation,
    VNMPattern,
    improvement_rate,
    position_code,
    position_codes,
    reorder,
    total_pscore,
)

# --------------------------------------------------------------------------
# strategies
# --------------------------------------------------------------------------

@st.composite
def permutations(draw, max_n=40):
    n = draw(st.integers(min_value=1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return Permutation.random(n, np.random.default_rng(seed))


@st.composite
def symmetric_bitmatrices(draw, max_n=48):
    n = draw(st.integers(min_value=4, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    density = draw(st.floats(min_value=0.0, max_value=0.3))
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) < density
    a = (a | a.T)
    np.fill_diagonal(a, False)
    return BitMatrix.from_dense(a.astype(np.uint8))


# --------------------------------------------------------------------------
# Hamming codes
# --------------------------------------------------------------------------

class TestHammingProperties:
    @given(st.integers(min_value=0, max_value=2**16 - 1))
    def test_position_code_is_bijection_roundtrip(self, v):
        # gray(inverse_gray(v)) == v for any 16-bit value.
        rank = position_code(v, 16)
        assert rank ^ (rank >> 1) == v

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=64))
    def test_vectorized_matches_scalar(self, values):
        arr = np.array(values, dtype=np.uint64)
        assert position_codes(arr, 8).tolist() == [position_code(v, 8) for v in values]

    @given(st.integers(min_value=0, max_value=2**20 - 2))
    def test_adjacent_ranks_are_hamming_neighbours(self, i):
        a = i ^ (i >> 1)
        b = (i + 1) ^ ((i + 1) >> 1)
        assert bin(a ^ b).count("1") == 1


# --------------------------------------------------------------------------
# permutations
# --------------------------------------------------------------------------

class TestPermutationProperties:
    @given(permutations())
    def test_inverse_involution(self, p):
        assert p.inverse().inverse() == p

    @given(permutations())
    def test_compose_with_inverse_is_identity(self, p):
        assert p.then(p.inverse()).is_identity()

    @given(permutations(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_composition_associative(self, p, seed):
        rng = np.random.default_rng(seed)
        q = Permutation.random(p.n, rng)
        r = Permutation.random(p.n, rng)
        assert p.then(q).then(r) == p.then(q.then(r))

    @given(permutations())
    def test_matrix_conjugation_preserves_spectrum_trace(self, p):
        rng = np.random.default_rng(p.n)
        a = rng.random((p.n, p.n))
        b = p.apply_to_matrix(a)
        assert np.isclose(np.trace(a), np.trace(b))
        assert np.isclose(a.sum(), b.sum())


# --------------------------------------------------------------------------
# bit matrices
# --------------------------------------------------------------------------

class TestBitMatrixProperties:
    @given(symmetric_bitmatrices())
    def test_dense_roundtrip(self, bm):
        assert BitMatrix.from_dense(bm.to_dense()) == bm

    @given(symmetric_bitmatrices(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_symmetric_permutation_preserves_nnz_and_symmetry(self, bm, seed):
        order = np.random.default_rng(seed).permutation(bm.n_rows)
        out = bm.permute_symmetric(order)
        assert out.nnz() == bm.nnz()
        assert out.is_symmetric()

    @given(symmetric_bitmatrices(), st.sampled_from([4, 8, 16, 32]))
    def test_segment_counts_sum_to_nnz(self, bm, m):
        assert int(bm.segment_counts(m).sum()) == bm.nnz()

    @given(symmetric_bitmatrices(), st.sampled_from([4, 8, 16]))
    def test_row_nnz_matches_segment_counts(self, bm, m):
        assert np.array_equal(bm.segment_counts(m).sum(axis=1), bm.row_nnz())


# --------------------------------------------------------------------------
# reordering invariants
# --------------------------------------------------------------------------

class TestReorderProperties:
    @settings(max_examples=20, deadline=None)
    @given(symmetric_bitmatrices(max_n=40),
           st.sampled_from([VNMPattern(1, 2, 4), VNMPattern(4, 2, 8)]))
    def test_reorder_is_lossless_symmetric_and_never_worse(self, bm, pattern):
        res = reorder(bm, pattern, max_iter=3)
        # lossless: exactly the permuted input
        assert res.matrix == bm.permute_symmetric(res.permutation.order)
        # symmetry preserved
        assert res.matrix.is_symmetric()
        # never increases violations
        assert res.final_invalid_vectors <= res.initial_invalid_vectors
        assert 0.0 <= res.improvement_rate <= 1.0

    @settings(max_examples=20, deadline=None)
    @given(symmetric_bitmatrices(max_n=40))
    def test_pscore_invariant_under_row_permutation(self, bm):
        # Permuting rows only must never change the total PScore (the identity
        # Stage-2's vectorized gain computation relies on).
        rng = np.random.default_rng(bm.nnz() + 1)
        order = rng.permutation(bm.n_rows)
        pat = NMPattern(2, 4)
        assert total_pscore(bm, pat) == total_pscore(bm.permute_rows(order), pat)


class TestImprovementRateProperties:
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
    def test_bounded_when_final_not_worse(self, initial, final):
        final = min(final, initial)
        r = improvement_rate(initial, final)
        assert 0.0 <= r <= 1.0
