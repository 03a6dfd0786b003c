"""Differential properties of Stage-2's two hot kernels.

``_freshtop`` is one masked ``argmax`` and ``_WorkingState.pair_gains`` runs
its products in float64.  Both are checked against the straightforward
implementations they replaced, kept here as oracles: the Python double loop
over ``u, v`` and the int64 products.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BitMatrix, NMPattern
from repro.core.stage2 import _freshtop, _WorkingState


def freshtop_loop(gp, gt, ge, p, t, m, used, valid_p, valid_t, require_positive_gain):
    """Oracle: the strict-``>`` row-major scan over every fresh pair."""
    best = None
    best_key = None
    for u in range(valid_p):
        if p * m + u in used:
            continue
        for v in range(valid_t):
            if t * m + v in used:
                continue
            key = (int(gp[u, v]) + int(gt[u, v]), int(ge[u, v]))
            if best_key is None or key > best_key:
                best_key = key
                best = (u, v, int(gp[u, v]), int(gt[u, v]))
    if best is None or best_key is None:
        return None
    if require_positive_gain:
        if best_key[0] <= 0:
            return None
    elif best_key[0] < 0 or best_key == (0, 0) or (best_key[0] == 0 and best_key[1] < 0):
        return None
    return best


def pair_gains_int64(state, p, t):
    """Oracle: the six gain products in int64 (no BLAS)."""
    rows = np.nonzero((state.counts_t[p] >= state.n) | (state.counts_t[t] >= state.n))[0]
    m = state.m
    if rows.size == 0:
        z = np.zeros((m, m), dtype=np.int64)
        return z, z.copy(), z.copy()
    boundary = np.int16(state.n)
    cp = state.counts_t[p, rows]
    ct = state.counts_t[t, rows]
    vals = state._seg_vals_t
    shifts = np.arange(m, dtype=vals.dtype)
    one = vals.dtype.type(1)
    xp = ((vals[p, rows][:, None] >> shifts) & one).astype(np.int64)
    xt = ((vals[t, rows][:, None] >> shifts) & one).astype(np.int64)
    nxp, nxt = 1 - xp, 1 - xt
    fp = (cp == boundary + 1).astype(np.int64)
    bp = (cp == boundary).astype(np.int64)
    ft = (ct == boundary + 1).astype(np.int64)
    bt = (ct == boundary).astype(np.int64)
    gp = (xp * fp[:, None]).T @ nxt - (nxp * bp[:, None]).T @ xt
    gt = (nxp * ft[:, None]).T @ xt - (xp * bt[:, None]).T @ nxt
    a2 = (cp > boundary).astype(np.int64) - (ct >= boundary).astype(np.int64)
    b2 = (ct > boundary).astype(np.int64) - (cp >= boundary).astype(np.int64)
    ge = (xp * a2[:, None]).T @ nxt + (nxp * b2[:, None]).T @ xt
    return gp, gt, ge


@st.composite
def freshtop_case(draw):
    m = draw(st.sampled_from([4, 8, 16, 32]))
    # Narrow values make ties common; wide ones exercise the packed key's
    # full range.  Every gain is bounded by the row count, so |gp + gt| and
    # |ge| stay below 2^31; the wide gain bound leaves room for the shift
    # of up to -3 applied to gp below, so |gp + gt| <= 2^31 - 1 holds.
    gain_bound = draw(st.sampled_from([2, 2**30 - 2]))
    excess_bound = draw(st.sampled_from([2, 2**31 - 1]))
    p, t = draw(st.sampled_from([(0, 1), (1, 0), (2, 5)]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    gp, gt = (rng.integers(-gain_bound, gain_bound, size=(m, m), endpoint=True)
              for _ in range(2))
    ge = rng.integers(-excess_bound, excess_bound, size=(m, m), endpoint=True)
    # A negative shift makes the best fresh pair harmful or neutral often
    # enough to exercise both rejection rules.
    gp += draw(st.sampled_from([0, -2, -3]))
    # A padded last segment has fewer than m real columns.
    valid_p = draw(st.integers(1, m))
    valid_t = draw(st.integers(1, m))
    mode = draw(st.sampled_from(["none", "some", "all_p", "all_t", "all"]))
    used = set()
    if mode == "some":
        used |= {p * m + u for u in range(m) if rng.random() < 0.4}
        used |= {t * m + v for v in range(m) if rng.random() < 0.4}
    if mode in ("all_p", "all"):
        used |= {p * m + u for u in range(m)}
    if mode in ("all_t", "all"):
        used |= {t * m + v for v in range(m)}
    require_positive_gain = draw(st.booleans())
    return gp, gt, ge, p, t, m, used, valid_p, valid_t, require_positive_gain


class TestFreshtopMatchesLoop:
    @settings(max_examples=400, deadline=None)
    @given(freshtop_case())
    def test_same_pick(self, case):
        gp, gt, ge, p, t, m, used, valid_p, valid_t, require_positive_gain = case
        fresh_p = np.array([p * m + u not in used for u in range(valid_p)])
        fresh_t = np.array([t * m + v not in used for v in range(valid_t)])
        got = _freshtop(gp, gt, ge, fresh_p, fresh_t, require_positive_gain)
        assert got == freshtop_loop(*case)

    def test_ties_go_to_first_row_major_pair(self):
        gp = np.zeros((4, 4), dtype=np.int64)
        gt = np.zeros((4, 4), dtype=np.int64)
        ge = np.zeros((4, 4), dtype=np.int64)
        gp[1, 3] = gp[2, 0] = gp[1, 2] = 1
        fresh = np.ones(4, dtype=bool)
        assert _freshtop(gp, gt, ge, fresh, fresh, False) == (1, 2, 1, 0)
        fresh_t = fresh.copy()
        fresh_t[2] = False
        assert _freshtop(gp, gt, ge, fresh, fresh_t, False) == (1, 3, 1, 0)

    def test_harmful_pair_rejection(self):
        fresh = np.ones(1, dtype=bool)
        zero = np.zeros((1, 1), dtype=np.int64)

        def pick(gain, excess, positive):
            g = np.full((1, 1), gain, dtype=np.int64)
            e = np.full((1, 1), excess, dtype=np.int64)
            return _freshtop(g, zero, e, fresh, fresh, positive)

        for gain, excess in ((-1, 5), (0, 0), (0, -1), (1, -5), (0, 1)):
            for positive in (False, True):
                want = freshtop_loop(
                    np.full((1, 1), gain), zero, np.full((1, 1), excess),
                    0, 1, 1, set(), 1, 1, positive,
                )
                assert pick(gain, excess, positive) == want, (gain, excess, positive)
        assert pick(0, 0, False) is None
        assert pick(0, 1, False) == (0, 0, 0, 0)
        assert pick(0, 1, True) is None

    def test_all_used_segment_has_no_pick(self):
        g = np.ones((4, 4), dtype=np.int64)
        fresh, spent = np.ones(4, dtype=bool), np.zeros(4, dtype=bool)
        assert _freshtop(g, g, g, spent, fresh, False) is None
        assert _freshtop(g, g, g, fresh, spent, True) is None


@st.composite
def swapped_state(draw):
    n = draw(st.integers(min_value=8, max_value=96))
    # Widths that are not a byte multiple exercise the bit unpacking's count.
    m = draw(st.sampled_from([3, 4, 5, 8, 12, 16, 32, 64]))
    density = draw(st.sampled_from([0.05, 0.2, 0.5]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) < density
    a = (a | a.T).astype(np.uint8)
    np.fill_diagonal(a, 0)
    state = _WorkingState(BitMatrix.from_dense(a), NMPattern(2, m))
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        p = draw(st.integers(0, state.n_segs - 1))
        t = draw(st.integers(0, state.n_segs - 1))
        if p != t:
            u = draw(st.integers(0, state.valid_locals(p) - 1))
            v = draw(st.integers(0, state.valid_locals(t) - 1))
            state.apply_swap(p, u, t, v)
    return state


class TestPairGainsMatchInt64:
    @settings(max_examples=120, deadline=None)
    @given(swapped_state(), st.data())
    def test_same_gains(self, state, data):
        if state.n_segs < 2:
            return
        p = data.draw(st.integers(0, state.n_segs - 1))
        t = data.draw(st.integers(0, state.n_segs - 1).filter(lambda s: s != p))
        got = state.pair_gains(p, t)
        want = pair_gains_int64(state, p, t)
        for g, w in zip(got, want):
            assert g.dtype == np.int64 and g.shape == (state.m, state.m)
            assert np.array_equal(g, w)

    def test_packed_key_extremes(self):
        # The packed key's corners: |gain| = |excess| = 2^31 - 1 must neither
        # overflow int64 nor collide with the masked sentinel.
        big = 2**31 - 1
        fresh = np.ones(2, dtype=bool)
        zero = np.zeros((2, 2), dtype=np.int64)
        for gain in (big, -big):
            for excess in (big, -big):
                gp = np.full((2, 2), gain, dtype=np.int64)
                ge = np.full((2, 2), excess, dtype=np.int64)
                gp[1, 0] = gain - 1 if gain > 0 else gain
                ge[1, 0] = excess - 1 if gain < 0 else excess
                for positive in (False, True):
                    want = freshtop_loop(gp, zero, ge, 0, 1, 2, set(), 2, 2, positive)
                    assert _freshtop(gp, zero, ge, fresh, fresh, positive) == want
                    used = {0}  # primary column 0 taken: only row 1 is fresh
                    fresh_p = np.array([False, True])
                    want = freshtop_loop(gp, zero, ge, 0, 1, 2, used, 2, 2, positive)
                    assert _freshtop(gp, zero, ge, fresh_p, fresh, positive) == want
