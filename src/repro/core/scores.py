"""Reordering quality metrics (paper §3, §4.2, §4.3).

* **PScore** — per segment (an n×M column group), the number of its segment
  vectors violating the horizontal N:M constraint.  Summed over segments this
  is the paper's ``F_p(φ)``, the count of invalid segment vectors.
* **MBScore** — ``F_MB(φ)``, the number of V×M meta-blocks violating the
  vertical (≤ k live columns) constraint.
* **improvement rate** — fraction of initially-invalid segment vectors that
  the reordering removed.  The paper writes it as
  ``(final ω − initial ω) / initial ω`` but reports positive percentages, so
  we return the magnitude of the reduction.

``total_pscore`` and ``mbscore`` are bit counts on the packed words
(:mod:`repro.core.patterns`), with no per-segment copy of the matrix;
``pscore_per_segment`` goes through the boolean segment mask.  ``reorder``
takes each state's scores from the stage that produced it, so a matrix is
scored once.
"""

from __future__ import annotations

import numpy as np

from .bitmatrix import BitMatrix
from .patterns import NMPattern, VNMPattern

__all__ = [
    "pscore_per_segment",
    "total_pscore",
    "mbscore",
    "improvement_rate",
    "conformity_report",
]


def pscore_per_segment(bm: BitMatrix, pattern: NMPattern) -> np.ndarray:
    """Number of invalid segment vectors in each segment, shape ``(n_segs,)``."""
    return pattern.invalid_vector_mask(bm).sum(axis=0).astype(np.int64)


def total_pscore(bm: BitMatrix, pattern: NMPattern) -> int:
    """``F_p(φ)`` — total count of invalid segment vectors."""
    return pattern.count_invalid_vectors(bm)


def mbscore(bm: BitMatrix, pattern: VNMPattern) -> int:
    """``F_MB(φ)`` — meta-blocks violating the vertical constraint."""
    return pattern.count_vertical_violations(bm)


def improvement_rate(initial: int, final: int) -> float:
    """Fractional reduction of invalid segment vectors (1.0 = all removed)."""
    if initial == 0:
        return 1.0 if final == 0 else 0.0
    return (initial - final) / initial


def conformity_report(bm: BitMatrix, pattern: VNMPattern) -> dict:
    """Snapshot of all scores for one matrix/pattern pair."""
    nm = pattern.nm
    return {
        "pattern": str(pattern),
        "invalid_segment_vectors": total_pscore(bm, nm),
        "mbscore": mbscore(bm, pattern),
        "tile_violations": pattern.count_tile_violations(bm),
        "conforms": pattern.matrix_conforms(bm),
        "nnz": bm.nnz(),
        "density": bm.density(),
    }
