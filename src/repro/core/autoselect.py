"""Best V:N:M pattern auto-selection (paper §5, opening paragraph).

The evaluation methodology: try ``1:2:M`` with M starting at 4 and doubling
while the graph can still be reordered to full conformance; fix the largest
working M, then sweep V upward (N must stay 2 per the hardware constraint).

Which conforming pattern is "best" the paper leaves to the user ("a simple
approach is to try a number of common patterns and select the best one",
§5.3).  Two policies are provided:

* ``select="fastest"`` (default) — among all conforming candidates, keep the
  one with the lowest cost-model SpMM time at a reference H.  Large-V
  patterns on scattered matrices store mostly padding and lose; this policy
  avoids them.
* ``select="largest"`` — the literal doubling procedure: the largest
  conforming (M, then V).  This reproduces the paper's observation that a
  small ultra-sparse tail *slows down* after conversion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitmatrix import BitMatrix
from .patterns import VNMPattern
from .reorder import ReorderResult, reorder

__all__ = ["PatternSearchResult", "find_best_pattern", "reordering_succeeds"]

DEFAULT_M_CANDIDATES = (4, 8, 16, 32)
DEFAULT_V_CANDIDATES = (1, 2, 4, 8, 16, 32)


@dataclass
class PatternSearchResult:
    """Best conforming pattern and the reordering that achieves it."""

    pattern: VNMPattern | None
    result: ReorderResult | None
    attempts: list[tuple[VNMPattern, bool]]
    candidates: list[tuple[VNMPattern, ReorderResult]] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.pattern is not None


def reordering_succeeds(
    bm: BitMatrix,
    pattern: VNMPattern,
    *,
    max_iter: int = 10,
    time_budget: float | None = None,
) -> ReorderResult | None:
    """Run the reordering; return the result iff the matrix fully conforms."""
    res = reorder(bm, pattern, max_iter=max_iter, time_budget=time_budget)
    return res if res.conforms else None


def _model_spmm_time(res: ReorderResult, h: int) -> float:
    """Cost-model SpMM time of the reordered matrix in its V:N:M form.

    The model reads only the operand's shape, its non-empty meta-block
    count and their live columns.  Both counts come from the pattern's tile
    column masks on the bit matrix, so no candidate is compressed: the time
    equals ``time_venom_spmm`` of the compressed operand exactly.
    """
    from ..sptc.costmodel import CostModel

    masks = res.pattern.tile_column_masks(res.matrix)
    return CostModel().time_venom_tiles(
        res.pattern, res.matrix.shape, int(np.count_nonzero(masks)),
        int(np.bitwise_count(masks).sum()), h,
    )


def find_best_pattern(
    bm: BitMatrix,
    *,
    n: int = 2,
    m_candidates: tuple[int, ...] = DEFAULT_M_CANDIDATES,
    v_candidates: tuple[int, ...] = DEFAULT_V_CANDIDATES,
    max_iter: int = 10,
    select: str = "fastest",
    h_ref: int = 128,
    attempt_time_budget: float | None = 30.0,
) -> PatternSearchResult:
    """Search for the best V:N:M pattern the matrix can be reordered into.

    Follows the paper's progressive-doubling enumeration (grow M at V = 1,
    then grow V at the largest working M), then picks among the conforming
    candidates per ``select`` (see module docs).  ``attempts`` records every
    pattern tried and whether it conformed, for the Table-8 success-rate
    statistics.
    """
    if select not in ("fastest", "largest"):
        raise ValueError(f"unknown selection policy {select!r}")
    attempts: list[tuple[VNMPattern, bool]] = []
    candidates: list[tuple[VNMPattern, ReorderResult]] = []

    # Phase 1: grow M with V = 1 while full conformance is achievable.
    best_m: int | None = None
    for m in m_candidates:
        pat = VNMPattern(1, n, m)
        res = reordering_succeeds(bm, pat, max_iter=max_iter, time_budget=attempt_time_budget)
        attempts.append((pat, res is not None))
        if res is None:
            break
        candidates.append((pat, res))
        best_m = m

    if best_m is None:
        return PatternSearchResult(None, None, attempts, [])

    # Phase 2: grow V at the fixed largest working M.
    for v in v_candidates:
        if v == 1:
            continue
        pat = VNMPattern(v, n, best_m)
        res = reordering_succeeds(bm, pat, max_iter=max_iter, time_budget=attempt_time_budget)
        attempts.append((pat, res is not None))
        if res is None:
            break
        candidates.append((pat, res))

    if select == "largest":
        pattern, result = candidates[-1]
    else:
        timed = [
            (_model_spmm_time(res, h_ref), -pat.m, -pat.v, pat, res)
            for pat, res in candidates
        ]
        timed.sort(key=lambda entry: entry[:3])
        _, _, _, pattern, result = timed[0]
    return PatternSearchResult(pattern, result, attempts, candidates)
