"""Stage-2 reordering: greedy cross-segment vertex swaps (paper Alg. 3, §4.3).

Stage-2 lowers the number of segment vectors violating the horizontal N:M
constraint (the PScore).  It repeatedly takes the *primary* segment — the
n×M column group with the worst PScore — and pairs it with *target* segments
in decreasing-PScore order.  For each pair it enumerates the M×M candidate
vertex swaps, picks the best *fresh* pair (``freshtop``: highest total gain
among pairs whose vertices are not yet in the swap record; the gain is not
required to be positive, per the paper's footnote 1), records it, and moves
on.  Healthy segments are excluded; a segment is retired after serving as
primary; all recorded swaps are applied in one batch at the end of a pass.

Vectorized gain identity
------------------------
A vertex swap is a symmetric transposition (rows *and* columns ``u, v``
exchange).  Permuting rows never changes the total PScore, so only the column
exchange matters.  For columns ``u ∈ P`` and ``v ∈ T``, a row ``r`` changes
the score only when ``A[r,u] != A[r,v]``:

* ``A[r,u]=1, A[r,v]=0`` (non-zero moves P→T): fixes P iff ``cnt_P(r)=N+1``,
  breaks T iff ``cnt_T(r)=N``;
* ``A[r,u]=0, A[r,v]=1`` (moves T→P): fixes T iff ``cnt_T(r)=N+1``, breaks P
  iff ``cnt_P(r)=N``.

All M×M pair gains therefore reduce to sums ``Σ_r w·xu(1−xv)`` and
``Σ_r w·(1−xu)xv`` over the rows where any of these indicator weights ``w``
is non-zero.  Each equals a weighted column sum minus ``Σ_r w·xu·xv``, so
the three gains (the primary's PScore gain, the target's PScore gain and
the excess gain) need two ``(M × 6)`` weighted column sums and three cross
products ``xpᵀ @ (w·xt)``, run as one stacked ``(M × 3M)`` product.  The
products run in float64 so NumPy hands them to BLAS, the host stand-in for
the paper's warp-level CUDA enumeration; they stay exact because every
entry is a sum of at most ``rows`` terms in {−2, …, 2}, far below 2^53.
``_freshtop`` then picks the best fresh pair
with one masked ``argmax``, whose first-maximum rule breaks ties in
row-major (u, then v) order.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .bitmatrix import BitMatrix
from .patterns import NMPattern
from .permutation import Permutation
from .scores import total_pscore

__all__ = ["Stage2Result", "stage2_reorder", "plan_swaps"]


@dataclass
class Stage2Result:
    """Outcome of one Stage-2 run."""

    permutation: Permutation
    matrix: BitMatrix
    iterations: int
    pscore_history: list[int] = field(default_factory=list)
    swaps_per_iteration: list[int] = field(default_factory=list)

    @property
    def initial_pscore(self) -> int:
        return self.pscore_history[0]

    @property
    def final_pscore(self) -> int:
        # The returned matrix is the best state seen, which is the minimum of
        # the trace (a late non-improving pass never degrades the result).
        return min(self.pscore_history)


def _unpack_columns(vals: np.ndarray, m: int) -> np.ndarray:
    """``(len(vals), m)`` float64 0/1 matrix: entry ``[r, j]`` is bit ``j`` of ``vals[r]``."""
    as_bytes = vals.astype(vals.dtype.newbyteorder("<"), copy=False).view(np.uint8)
    bits = np.unpackbits(as_bytes.reshape(vals.size, -1), axis=1, count=m, bitorder="little")
    return bits.astype(np.float64)


class _WorkingState:
    """Planning-time view of the matrix with column swaps applied virtually.

    Row swaps are deferred: a consistent row permutation leaves every per-row
    gain sum unchanged, so planning against column-swapped state is exact.
    The packed per-segment values and their per-row counts are the whole
    state; ``pair_gains`` reads its candidate rows straight from the counts,
    so a swap updates no further cache.
    """

    def __init__(self, bm: BitMatrix, pattern: NMPattern):
        self.bm = bm
        self.m = pattern.m
        self.n = pattern.n
        # One whole-matrix extraction, stored transposed (segment-major) so
        # per-segment slices are contiguous.  The packed per-segment values
        # are the working truth: column bits are read with shift/mask ops and
        # swaps are applied with XOR, so no per-segment bool caches exist.
        self._seg_vals_t = bm.segment_values_t(pattern.m)
        self.counts_t = np.bitwise_count(self._seg_vals_t).astype(np.int16)
        self.n_segs = self.counts_t.shape[0]
        self.seg_nnz = self.counts_t.sum(axis=1).astype(np.int64)

    def column_bit(self, seg: int, local: int) -> np.ndarray:
        """One column of a segment as a 0/1 array of the packed dtype."""
        vals = self._seg_vals_t[seg]
        return (vals >> vals.dtype.type(local)) & vals.dtype.type(1)

    def valid_locals(self, seg: int) -> int:
        """Number of real (non-padding) columns in this segment."""
        return min(self.m, self.bm.n_cols - seg * self.m)

    def pscores(self) -> np.ndarray:
        return (self.counts_t > self.n).sum(axis=1).astype(np.int64)

    def segment_nnz(self) -> np.ndarray:
        return self.seg_nnz

    def pair_gains(self, p: int, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gain matrices ``(Gp, Gt, Ge)`` of shape (m, m) for swapping local
        column ``u`` of ``p`` with ``v`` of ``t``.

        ``Gp`` / ``Gt`` are the PScore reductions of the primary resp. target
        segment (the paper's gain).  ``Ge`` is the reduction of the *excess*
        mass ``Σ_r max(0, cnt(r) − N)`` over both segments — a secondary
        objective that keeps the greedy progressing on rows far above the N
        budget, where a single swap cannot yet remove a violation.

        Only rows with count >= N in ``p`` or ``t`` can move either score
        (boundary rows at N / N+1, or rows above N), so the products run
        over those rows alone, read from the live counts on every call.
        """
        rows = np.flatnonzero((self.counts_t[p] >= self.n) | (self.counts_t[t] >= self.n))
        m = self.m
        if rows.size == 0:
            z = np.zeros((m, m), dtype=np.int64)
            return z, z.copy(), z.copy()
        boundary = np.int16(self.n)
        cp = self.counts_t[p, rows]
        ct = self.counts_t[t, rows]
        # float64 so the products run through BLAS; exact (see module docs).
        xp = _unpack_columns(self._seg_vals_t[p, rows], m)
        xt = _unpack_columns(self._seg_vals_t[t, rows], m)
        fp = (cp == boundary + 1).astype(np.float64)
        bp = (cp == boundary).astype(np.float64)
        ft = (ct == boundary + 1).astype(np.float64)
        bt = (ct == boundary).astype(np.float64)
        # Excess deltas: moving a non-zero p→t lowers excess iff cp > N and
        # raises it iff ct >= N (and symmetrically for t→p).
        a2 = (cp > boundary).astype(np.float64) - (ct >= boundary)
        b2 = (ct > boundary).astype(np.float64) - (cp >= boundary)
        # Σ_r w·xu(1−xv) = Σ_r w·xu − Σ_r w·xu·xv (and likewise for (1−xu)xv),
        # so the three gains need the weighted column sums of xp and xt and
        # three cross products, which run as one stacked product.
        weights = np.stack([fp, bp, ft, bt, a2, b2], axis=1)
        sp, st = xp.T @ weights, xt.T @ weights
        cross_w = np.stack([fp - bp, ft - bt, a2 + b2], axis=1)
        cross = xp.T @ np.einsum("rk,rv->rkv", cross_w, xt).reshape(rows.size, 3 * m)
        cross = cross.reshape(m, 3, m)
        # Gp[u, v] = Σ_r xu(1-xv)·fix_p − (1-xu)xv·brk_p
        gp = sp[:, 0:1] - st[:, 1] - cross[:, 0]
        # Gt[u, v] = Σ_r (1-xu)xv·fix_t − xu(1-xv)·brk_t
        gt = st[:, 2] - sp[:, 3:4] - cross[:, 1]
        # Ge[u, v] = Σ_r xu(1-xv)·Δexcess_p→t + (1-xu)xv·Δexcess_t→p
        ge = sp[:, 4:5] + st[:, 5] - cross[:, 2]
        return gp.astype(np.int64), gt.astype(np.int64), ge.astype(np.int64)

    def apply_swap(self, p: int, u: int, t: int, v: int) -> None:
        """Virtually exchange column ``u`` of segment ``p`` with ``v`` of ``t``."""
        bu = self.column_bit(p, u)
        bv = self.column_bit(t, v)
        diff = bu ^ bv
        changed = np.nonzero(diff)[0]
        if changed.size == 0:
            return
        dtype = self._seg_vals_t.dtype
        # Flip the differing bits in place: XOR with the diff mask shifted to
        # each column's position.
        self._seg_vals_t[p, changed] ^= dtype.type(int(1) << u) * diff[changed]
        self._seg_vals_t[t, changed] ^= dtype.type(int(1) << v) * diff[changed]
        delta = bv[changed].astype(np.int16) - bu[changed].astype(np.int16)
        self.counts_t[p, changed] += delta
        self.counts_t[t, changed] -= delta
        moved = int(delta.sum())
        self.seg_nnz[p] += moved
        self.seg_nnz[t] -= moved


_MASKED = np.iinfo(np.int64).min


def _freshtop(
    gp: np.ndarray,
    gt: np.ndarray,
    ge: np.ndarray,
    fresh_p: np.ndarray,
    fresh_t: np.ndarray,
    require_positive_gain: bool,
) -> tuple[int, int, int, int] | None:
    """Best fresh pair ``(u_local, v_local, gain_p, gain_t)`` or ``None``.

    ``fresh_p`` / ``fresh_t`` flag the real (non-padding) local columns of
    the primary resp. target whose vertices are not yet in the swap record.
    Pairs are ranked by (PScore gain, excess gain) lexicographically, packed
    into one int64 key ``(gain << 32) + excess`` (``|excess|`` is at most
    the row count, below 2^31); ties go to the first pair in row-major
    order, NumPy's first-maximum ``argmax`` rule.  As in the paper, a
    positive PScore gain is not required — but a pair must not be
    *strictly harmful* (negative PScore gain, or zero with no excess
    progress), which keeps the greedy from oscillating on heavily-skewed
    matrices whose rows sit far above the N budget.
    """
    if not fresh_p.any() or not fresh_t.any():
        return None
    valid_p, valid_t = fresh_p.size, fresh_t.size
    total = gp[:valid_p, :valid_t] + gt[:valid_p, :valid_t]
    key = (total << 32) + ge[:valid_p, :valid_t]
    key[~fresh_p, :] = _MASKED
    key[:, ~fresh_t] = _MASKED
    u, v = divmod(int(np.argmax(key)), valid_t)
    best_key = (int(total[u, v]), int(ge[u, v]))
    if require_positive_gain:
        if best_key[0] <= 0:
            return None
    elif best_key[0] < 0 or best_key == (0, 0) or (best_key[0] == 0 and best_key[1] < 0):
        return None
    return u, v, int(gp[u, v]), int(gt[u, v])


def plan_swaps(
    bm: BitMatrix,
    pattern: NMPattern,
    *,
    require_positive_gain: bool = False,
    deadline: float | None = None,
) -> list[tuple[int, int]]:
    """One pass of Alg. 3 lines 1–20: plan a batch of vertex swaps.

    Returns disjoint global vertex pairs; the caller applies them symmetrically.
    """
    state = _WorkingState(bm, pattern)
    m = pattern.m
    pscores = state.pscores()
    active = [int(s) for s in np.nonzero(pscores)[0]]
    # Swap record as a mask over global vertices (padding columns included,
    # so every segment's slice has length m).
    used = np.zeros(state.n_segs * m, dtype=bool)
    swaps: list[tuple[int, int]] = []

    def handle_primary(p: int, targets: list[int], fixed_out: list[int]) -> None:
        """Pair primary ``p`` with each target until fixed or out of vertices.

        Targets whose PScore reaches zero are appended to ``fixed_out`` so the
        caller can retire them.
        """
        for t in targets:
            if pscores[p] <= 0:
                break
            fresh_p = ~used[p * m : p * m + state.valid_locals(p)]
            if not fresh_p.any():
                break
            fresh_t = ~used[t * m : t * m + state.valid_locals(t)]
            if not fresh_t.any():
                continue
            gp, gt, ge = state.pair_gains(p, t)
            pick = _freshtop(gp, gt, ge, fresh_p, fresh_t, require_positive_gain)
            if pick is None:
                continue
            u, v, gain_p, gain_t = pick
            gu, gv = p * m + u, t * m + v
            swaps.append((gu, gv))
            used[gu] = used[gv] = True
            state.apply_swap(p, u, t, v)
            pscores[p] -= gain_p
            pscores[t] -= gain_t
            if pscores[t] <= 0:
                fixed_out.append(t)

    # Max-heap with lazy invalidation: a popped entry whose recorded score is
    # stale (the segment got fixed or changed by earlier swaps) is re-pushed
    # or dropped, so each primary pop is O(log ω) instead of re-sorting.
    heap = [(-int(pscores[s]), s) for s in active]
    heapq.heapify(heap)
    active_set = set(active)

    def pop_worst() -> int | None:
        while heap:
            neg, s = heapq.heappop(heap)
            if s not in active_set:
                continue
            cur = int(pscores[s])
            if cur <= 0:
                active_set.discard(s)
                continue
            if -neg != cur:
                heapq.heappush(heap, (-cur, s))
                continue
            return s
        return None

    while True:
        if deadline is not None and time.perf_counter() > deadline:
            break
        primary = pop_worst()
        if primary is None:
            break
        active_set.discard(primary)
        live = np.fromiter(active_set, dtype=np.int64, count=len(active_set))
        live = live[pscores[live] > 0]
        if live.size == 0:
            # This was the last unhealthy segment; restore it for the
            # sparsest-partner pass below.
            active_set.add(primary)
            break
        # Targets in decreasing-PScore order (snapshot).
        targets = live[np.argsort(-pscores[live], kind="stable")]
        removed: list[int] = []
        handle_primary(primary, targets, removed)
        if pscores[primary] > 0:
            # Every unhealthy target was useless (e.g. a hub row overfills
            # all of them at once).  Generalize the paper's sparsest-segment
            # rule: spill into the emptiest healthy segments, which maximizes
            # the chance of fixing the primary without breaking the partner.
            nnz = state.segment_nnz()
            order = np.argsort(nnz, kind="stable")
            # A handful of candidates is not enough when the overflowing row
            # already occupies most sparse segments; 4m keeps the odds high
            # at negligible cost (one gain evaluation per candidate).
            sparse_targets = [int(sg) for sg in order
                              if sg != primary and pscores[sg] <= 0][: 4 * m]
            handle_primary(primary, sparse_targets, removed)
        for t in removed:
            active_set.discard(t)
    active = [s for s in active_set if pscores[s] > 0]

    if len(active) == 1 and pscores[active[0]] > 0:
        # Last unhealthy segment: pair with the sparsest other segment, which
        # maximizes the chance of fixing it while staying healthy itself.
        primary = active.pop(0)
        nnz = state.segment_nnz()
        order = np.argsort(nnz, kind="stable")
        targets = [int(s) for s in order if s != primary][: max(1, m)]
        handle_primary(primary, targets, [])

    return swaps


def stage2_reorder(
    bm: BitMatrix,
    pattern: NMPattern,
    *,
    max_iter: int = 10,
    require_positive_gain: bool = False,
    min_relative_improvement: float = 0.02,
    deadline: float | None = None,
    initial_pscore: int | None = None,
) -> Stage2Result:
    """Iterate plan-and-apply passes until the PScore stops improving.

    Tracks the best state seen so a non-improving late pass cannot degrade
    the returned reordering.  A pass that improves by less than
    ``min_relative_improvement`` of the current score ends the loop — on
    heavily-skewed matrices the greedy's tail gains are tiny and not worth
    the quadratic grind.  ``deadline`` (a ``time.perf_counter`` value) stops
    the loop between passes once exceeded.  ``initial_pscore`` is
    ``total_pscore(bm, pattern)`` when the caller already holds it.  The
    input matrix is not modified.
    """
    registry = obs_metrics.default_registry()
    swap_counter = registry.counter(
        "reorder_stage2_swaps_total", help="vertex swaps applied by stage-2 passes"
    )
    gain_counter = registry.counter(
        "reorder_stage2_pscore_gain_total", help="total PScore removed by stage-2 passes"
    )
    with obs_trace.span("stage2", n=bm.n_rows) as sp:
        current = bm
        perm = Permutation.identity(bm.n_rows)
        history = [total_pscore(current, pattern) if initial_pscore is None else initial_pscore]
        swaps_per_iter: list[int] = []
        best = (history[0], perm, current)
        iterations = 0
        while history[-1] > 0 and iterations < max_iter:
            if deadline is not None and time.perf_counter() > deadline:
                break
            with obs_trace.span("stage2.plan", index=iterations):
                swaps = plan_swaps(
                    current, pattern,
                    require_positive_gain=require_positive_gain, deadline=deadline,
                )
            if not swaps:
                break
            with obs_trace.span("stage2.apply", swaps=len(swaps)):
                step = Permutation.from_swaps(bm.n_rows, swaps)
                current = current.permute_symmetric(step.order)
                perm = perm.then(step)
                score = total_pscore(current, pattern)
            history.append(score)
            swaps_per_iter.append(len(swaps))
            swap_counter.inc(len(swaps))
            if history[-2] > score:
                gain_counter.inc(history[-2] - score)
            iterations += 1
            if score < best[0]:
                best = (score, perm, current)
            if score >= history[-2] * (1.0 - min_relative_improvement):
                break
        sp.set(iterations=iterations, pscore=min(history))
    _, best_perm, best_matrix = best
    return Stage2Result(best_perm, best_matrix, iterations, history, swaps_per_iter)
