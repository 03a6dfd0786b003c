"""Dual-level N:M sparsity-oriented reordering (paper Alg. 1, §4.1).

Alternates Stage-1 (vertical-constraint / MBScore reduction via Hamming
position sorting) and Stage-2 (horizontal-constraint / PScore reduction via
greedy vertex swaps) until the matrix conforms to the requested V:N:M
pattern, progress stalls, or the iteration cap is hit.  The composed vertex
permutation is returned alongside the reordered matrix; the transformation
is lossless and keeps the adjacency matrix symmetric.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..obs import events as obs_events
from ..obs import trace as obs_trace
from .bitmatrix import BitMatrix
from .patterns import NMPattern, VNMPattern
from .permutation import Permutation
from .scores import improvement_rate, mbscore, total_pscore
from .stage1 import stage1_reorder
from .stage2 import stage2_reorder

__all__ = ["ReorderResult", "reorder", "reorder_graph_matrix"]


@dataclass
class ReorderResult:
    """Outcome of a full dual-level reordering run."""

    pattern: VNMPattern
    permutation: Permutation
    matrix: BitMatrix
    iterations: int
    initial_invalid_vectors: int
    final_invalid_vectors: int
    initial_mbscore: int
    final_mbscore: int
    elapsed_seconds: float
    stage_trace: list[dict] = field(default_factory=list)

    @property
    def improvement_rate(self) -> float:
        return improvement_rate(self.initial_invalid_vectors, self.final_invalid_vectors)

    @property
    def conforms(self) -> bool:
        # Both counts are taken on the returned matrix, and a meta-block
        # violates the pattern exactly when it breaks the vertical or the
        # horizontal constraint, so no further tile pass is needed.
        return self.final_invalid_vectors == 0 and self.final_mbscore == 0

    def summary(self) -> dict:
        return {
            "pattern": str(self.pattern),
            "iterations": self.iterations,
            "initial_invalid_vectors": self.initial_invalid_vectors,
            "final_invalid_vectors": self.final_invalid_vectors,
            "improvement_rate": self.improvement_rate,
            "conforms": self.conforms,
            "elapsed_seconds": self.elapsed_seconds,
        }


def reorder(
    bm: BitMatrix,
    pattern: VNMPattern | NMPattern,
    *,
    max_iter: int = 10,
    stage_max_iter: int = 10,
    use_stage1: bool = True,
    use_stage2: bool = True,
    taint_invalid: bool = True,
    require_positive_gain: bool = False,
    time_budget: float | None = None,
) -> ReorderResult:
    """Reorder ``bm`` toward ``pattern`` and return the composed result.

    ``use_stage1`` / ``use_stage2`` exist for the ablation study; both default
    on (the paper's dual-level algorithm).  ``max_iter`` bounds the outer
    alternation, ``stage_max_iter`` each stage's internal loop.
    ``time_budget`` (seconds) caps the wall-clock spent; the best state found
    within the budget is returned — reordering is offline preprocessing
    (§4.4), so a budget is the natural operational knob.
    """
    if isinstance(pattern, NMPattern):
        pattern = pattern.to_vnm()
    nm = pattern.nm
    with obs_trace.span("reorder", pattern=str(pattern), n=bm.n_rows) as root:
        t0 = time.perf_counter()
        current = bm
        perm = Permutation.identity(bm.n_rows)
        with obs_trace.span("reorder.scores", phase="initial"):
            init_invalid = total_pscore(current, nm)
            init_mb = mbscore(current, pattern)
        trace: list[dict] = []
        iterations = 0

        deadline = None if time_budget is None else t0 + time_budget
        # Every state is scored once: each stage reports the score of the
        # matrix it returns, and ``best`` carries its own two scores.
        pscore_now, mb_now = init_invalid, init_mb
        prev = init_invalid + init_mb
        best = (prev, init_invalid, init_mb, perm, current)
        while prev > 0 and iterations < max_iter:
            if deadline is not None and time.perf_counter() > deadline:
                break
            with obs_trace.span("reorder.iteration", index=iterations) as it_span:
                if use_stage1:
                    s1 = stage1_reorder(
                        current, pattern, max_iter=stage_max_iter,
                        taint_invalid=taint_invalid, initial_mbscore=mb_now,
                    )
                    if s1.matrix is not current:
                        current, perm = s1.matrix, perm.then(s1.permutation)
                        pscore_now = None
                    mb_now = s1.final_mbscore
                    trace.append(
                        {"stage": 1, "mbscore": s1.final_mbscore, "iters": s1.iterations}
                    )
                if use_stage2:
                    s2 = stage2_reorder(
                        current,
                        nm,
                        max_iter=stage_max_iter,
                        require_positive_gain=require_positive_gain,
                        deadline=deadline,
                        initial_pscore=pscore_now,
                    )
                    if s2.matrix is not current:
                        current, perm = s2.matrix, perm.then(s2.permutation)
                        mb_now = None
                    pscore_now = s2.final_pscore
                    trace.append(
                        {"stage": 2, "pscore": s2.final_pscore, "iters": s2.iterations}
                    )
                with obs_trace.span("reorder.scores", phase="iteration"):
                    if pscore_now is None:
                        pscore_now = total_pscore(current, nm)
                    if mb_now is None:
                        mb_now = mbscore(current, pattern)
                    now = pscore_now + mb_now
                it_span.set(violations=now)
            iterations += 1
            obs_events.emit(
                "reorder.iteration",
                iteration=iterations,
                pscore=pscore_now,
                mbscore=mb_now,
                delta=prev - now,
                improvement_rate=improvement_rate(init_invalid, pscore_now),
            )
            if now < best[0]:
                best = (now, pscore_now, mb_now, perm, current)
            # Diminishing-returns cutoff: alternating further is not worth it
            # once an iteration recovers less than ~2% of the remaining
            # violations.
            if now >= prev * 0.98:
                break
            prev = now

        # A late non-improving alternation never degrades the returned state.
        _, final_invalid, final_mb, perm, current = best
        root.set(iterations=iterations, final_invalid=final_invalid)
        return ReorderResult(
            pattern=pattern,
            permutation=perm,
            matrix=current,
            iterations=iterations,
            initial_invalid_vectors=init_invalid,
            final_invalid_vectors=final_invalid,
            initial_mbscore=init_mb,
            final_mbscore=final_mb,
            elapsed_seconds=time.perf_counter() - t0,
            stage_trace=trace,
        )


def reorder_graph_matrix(adjacency: np.ndarray, pattern: VNMPattern | NMPattern,
                         **kwargs) -> ReorderResult:
    """Convenience wrapper accepting a dense 0/1 adjacency array."""
    return reorder(BitMatrix.from_dense(adjacency), pattern, **kwargs)
