"""Shared N:M conformance scan (repro.sptc.conformance).

The hybrid splitter's top-N magnitude selection relies on the keep mask;
the tests pin that it equals the dense ranking.
"""

import numpy as np

from repro.sptc.conformance import topn_keep_mask


def random_coo(n_rows, n_cols, rng, density=0.25):
    mask = rng.random((n_rows, n_cols)) < density
    dense = mask * (rng.random((n_rows, n_cols)) + 0.5)
    rows, cols = np.nonzero(dense)
    return dense, rows.astype(np.int64), cols.astype(np.int64), dense[rows, cols]


class TestTopnKeepMask:
    def test_keeps_top_n_per_row_segment(self):
        rng = np.random.default_rng(0)
        n_rows, n_cols, n, m = 32, 24, 2, 4
        n_segs = (n_cols + m - 1) // m
        dense, rows, cols, data = random_coo(n_rows, n_cols, rng)
        keep = topn_keep_mask(rows, cols, data, n=n, m=m, n_segs=n_segs)
        # every (row, segment) keeps at most n entries, and the kept ones
        # are magnitude-maximal within their segment
        for i in range(n_rows):
            for s in range(n_segs):
                sel = (rows == i) & (cols // m == s)
                kept_vals = np.abs(data[sel & keep])
                dropped_vals = np.abs(data[sel & ~keep])
                assert kept_vals.size <= n
                if dropped_vals.size:
                    assert kept_vals.size == n
                    assert kept_vals.min() >= dropped_vals.max()

    def test_respects_prior_keep_mask(self):
        rows = np.array([0, 0, 0, 0])
        cols = np.array([0, 1, 2, 3])
        data = np.array([9.0, 8.0, 2.0, 1.0])
        prior = np.array([False, True, True, True])
        keep = topn_keep_mask(rows, cols, data, n=2, m=4, n_segs=1, keep=prior)
        assert keep.tolist() == [False, True, True, False]
