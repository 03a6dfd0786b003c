"""Jigsaw-style column-only matrix reordering (the paper's closest comparator).

Jigsaw [60] reorders only the *columns* of the adjacency matrix into 2:4
form.  Because rows are untouched, the result is generally **asymmetric** —
the property the paper criticizes: symmetry-dependent graph algorithms
(spectral partitioning, MST, isomorphism tests) can no longer run on the
reordered matrix.  This re-implementation uses a greedy first-fit packing:
columns are assigned to M-wide groups so that no row in a group exceeds N
non-zeros, falling back to the least-loaded group when no group fits.
It supports only the basic N:M patterns (Jigsaw's published scope is 2:4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.bitmatrix import BitMatrix
from ..core.patterns import NMPattern
from ..core.permutation import Permutation
from ..core.scores import total_pscore

__all__ = ["JigsawResult", "jigsaw_column_reorder"]


@dataclass
class JigsawResult:
    """Column permutation and resulting conformity statistics."""

    column_permutation: Permutation
    matrix: BitMatrix
    initial_invalid_vectors: int
    final_invalid_vectors: int

    @property
    def improvement_rate(self) -> float:
        if self.initial_invalid_vectors == 0:
            return 1.0 if self.final_invalid_vectors == 0 else 0.0
        fixed = self.initial_invalid_vectors - self.final_invalid_vectors
        return fixed / self.initial_invalid_vectors


def jigsaw_column_reorder(bm: BitMatrix, pattern: NMPattern) -> JigsawResult:
    """Greedy column packing into N:M-conforming segments.

    Columns are taken in decreasing-population order and placed into the
    first segment group where adding them keeps every row within the N
    budget; if none fits, the group whose violation increase is smallest
    takes it.  Rows are never permuted, so symmetry is destroyed.
    """
    n_rows, n_cols = bm.shape
    m, n = pattern.m, pattern.n
    init = total_pscore(bm, pattern)
    n_groups = (n_cols + m - 1) // m
    cols = [bm.get_column(j) for j in range(n_cols)]
    pop = np.array([c.sum() for c in cols])
    order = np.argsort(-pop, kind="stable")

    group_counts = np.zeros((n_groups, n_rows), dtype=np.int16)
    group_fill = np.zeros(n_groups, dtype=np.int64)
    assignment = np.empty(n_cols, dtype=np.int64)
    capacity = np.full(n_groups, m, dtype=np.int64)
    capacity[-1] = n_cols - m * (n_groups - 1)

    for j in order:
        bits = cols[j].astype(np.int16)
        open_groups = np.nonzero(group_fill < capacity)[0]
        # Violations each open group would gain by absorbing this column.
        deltas = np.empty(open_groups.size, dtype=np.int64)
        for idx, grp in enumerate(open_groups):
            after = group_counts[grp] + bits
            deltas[idx] = int((after > n).sum() - (group_counts[grp] > n).sum())
        best = open_groups[int(np.argmin(deltas))]
        assignment[j] = best
        group_counts[best] += bits
        group_fill[best] += 1

    # Materialize: columns of each group in ascending original id.
    new_order = np.empty(n_cols, dtype=np.int64)
    pos = 0
    for grp in range(n_groups):
        members = np.sort(np.nonzero(assignment == grp)[0])
        new_order[pos : pos + members.size] = members
        pos += members.size
    perm = Permutation(new_order)
    reordered = bm.permute_columns(new_order)
    return JigsawResult(perm, reordered, init, total_pscore(reordered, pattern))
