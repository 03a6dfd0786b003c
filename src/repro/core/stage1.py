"""Stage-1 reordering: Hamming-position row sort (paper Alg. 2, §4.2).

Every segment vector is encoded with its Hamming position code (the inverse
Gray code of its bit string); codes of vectors violating the horizontal N:M
constraint are negated so the subsequent sort clusters them away from
well-formed meta-blocks instead of contaminating them.  Rows are then sorted
lexicographically by their code vectors and the resulting permutation is
applied to rows *and* columns (graph reordering keeps the adjacency matrix
symmetric), which tends to place rows with similar non-zero positions into
the same V×M meta-block and thereby lowers MBScore.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .bitmatrix import BitMatrix
from .hamming import position_codes
from .patterns import VNMPattern
from .permutation import Permutation
from .scores import mbscore

__all__ = ["Stage1Result", "encode_rows", "lexicographic_row_order", "stage1_reorder"]


@dataclass
class Stage1Result:
    """Outcome of one Stage-1 run."""

    permutation: Permutation
    matrix: BitMatrix
    iterations: int
    mbscore_history: list[int] = field(default_factory=list)

    @property
    def initial_mbscore(self) -> int:
        return self.mbscore_history[0]

    @property
    def final_mbscore(self) -> int:
        return self.mbscore_history[-1]


def encode_rows(bm: BitMatrix, pattern: VNMPattern, *, taint_invalid: bool = True) -> np.ndarray:
    """Per-row Hamming position code vectors, shape ``(n_rows, n_segs)``.

    Codes of segment vectors that violate the horizontal N:M constraint are
    negated when ``taint_invalid`` is set (the paper's "-25" treatment).
    The dtype is the narrowest signed integer that holds ``±(2**m - 1)``.
    """
    vals = bm.segment_values(pattern.m)
    codes = position_codes(vals, pattern.m)
    if taint_invalid:
        invalid = np.bitwise_count(vals) > pattern.n
        codes[invalid] = -codes[invalid]
    for dt in (np.int8, np.int16, np.int32):
        if pattern.m < np.iinfo(dt).bits - 1:
            return codes.astype(dt)
    return codes


def lexicographic_row_order(codes: np.ndarray) -> np.ndarray:
    """Stable lexicographic argsort of the rows of a signed integer matrix.

    Implemented by biasing to unsigned, byte-swapping to big-endian and
    sorting the rows as opaque byte strings — O(n log n) comparisons without
    materializing one sort key per column (the code matrix can have thousands
    of segment columns).
    """
    info = np.iinfo(codes.dtype)
    udtype = np.dtype(f"u{codes.dtype.itemsize}")
    biased = (codes.astype(np.int64) - int(info.min)).astype(udtype)
    be = np.ascontiguousarray(biased.astype(udtype.newbyteorder(">")))
    as_void = be.view([("bytes", "V", be.shape[1] * be.dtype.itemsize)]).ravel()
    return np.argsort(as_void, kind="stable").astype(np.int64)


def stage1_reorder(
    bm: BitMatrix,
    pattern: VNMPattern,
    *,
    max_iter: int = 10,
    taint_invalid: bool = True,
    initial_mbscore: int | None = None,
) -> Stage1Result:
    """Iterate encode → sort → symmetric reorder until MBScore stops improving.

    Returns the composed permutation, the reordered matrix, and the MBScore
    trace.  The matrix argument is not modified.  ``initial_mbscore`` is
    ``mbscore(bm, pattern)`` when the caller already holds it.
    """
    registry = obs_metrics.default_registry()
    sorts = registry.counter(
        "reorder_stage1_sorts_total", help="Hamming-position row sorts executed"
    )
    gains = registry.counter(
        "reorder_stage1_mbscore_gain_total", help="total MBScore removed by stage-1 sorts"
    )
    with obs_trace.span("stage1", n=bm.n_rows) as sp:
        current = bm
        perm = Permutation.identity(bm.n_rows)
        history = [mbscore(current, pattern) if initial_mbscore is None else initial_mbscore]
        iterations = 0
        while history[-1] > 0 and iterations < max_iter:
            with obs_trace.span("stage1.encode"):
                codes = encode_rows(current, pattern, taint_invalid=taint_invalid)
            with obs_trace.span("stage1.sort"):
                order = lexicographic_row_order(codes)
            sorts.inc()
            with obs_trace.span("stage1.permute"):
                candidate = current.permute_symmetric(order)
                score = mbscore(candidate, pattern)
            if score >= history[-1] and iterations > 0:
                break
            if score > history[-1]:
                # The very first sort can only be accepted if it helps.
                break
            gains.inc(history[-1] - score)
            current = candidate
            perm = perm.then(Permutation(order))
            history.append(score)
            iterations += 1
        sp.set(iterations=iterations, mbscore=history[-1])
    return Stage1Result(perm, current, iterations, history)
