"""N:M and V:N:M sparsity patterns (paper §2–§3).

An **N:M** pattern constrains every M-element *segment vector* (an aligned
M-wide slice of a matrix row) to at most N non-zeros — the pattern natively
supported by GPU Sparse Tensor Cores (2:4 on Ampere).

A **V:N:M** pattern (VENOM) constrains every V×M *meta-block* (tile) to
(i) at most ``k`` columns containing non-zeros (the *vertical constraint*,
``k = 4`` per the hardware) and (ii) every row being an N:M vector (the
*horizontal constraint*).  N:M is the special case V = 1, where the vertical
constraint is implied whenever ``N <= k``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitmatrix import BitMatrix

__all__ = ["NMPattern", "VNMPattern", "DEFAULT_K", "parse_pattern"]

DEFAULT_K = 4


@dataclass(frozen=True)
class NMPattern:
    """An N:M sparse pattern: at most ``n`` non-zeros per ``m`` elements."""

    n: int
    m: int

    def __post_init__(self):
        if not (0 < self.n <= self.m):
            raise ValueError(f"invalid N:M pattern {self.n}:{self.m}")
        if self.m > 64:
            raise ValueError("segment width above 64 is not supported")

    def __str__(self) -> str:
        return f"{self.n}:{self.m}"

    def vector_conforms(self, bits: int) -> bool:
        """Does one M-bit segment vector satisfy the horizontal constraint?"""
        return bits.bit_count() <= self.n

    def invalid_vector_mask(self, bm: BitMatrix) -> np.ndarray:
        """Boolean ``(n_rows, n_segs)`` mask of violating segment vectors."""
        return bm.segment_counts(self.m) > self.n

    def count_invalid_vectors(self, bm: BitMatrix) -> int:
        """Total horizontal-constraint violations, the paper's ``F_p(φ)``."""
        return int(self.invalid_vector_mask(bm).sum())

    def matrix_conforms(self, bm: BitMatrix) -> bool:
        return self.count_invalid_vectors(bm) == 0

    def to_vnm(self, v: int = 1, k: int = DEFAULT_K) -> "VNMPattern":
        return VNMPattern(v, self.n, self.m, k)


@dataclass(frozen=True)
class VNMPattern:
    """A V:N:M sparse pattern over V×M meta-blocks with column budget ``k``."""

    v: int
    n: int
    m: int
    k: int = DEFAULT_K

    def __post_init__(self):
        if self.v < 1:
            raise ValueError("V must be at least 1")
        if not (0 < self.n <= self.m):
            raise ValueError(f"invalid V:N:M pattern {self}")
        if self.m > 64:
            raise ValueError("segment width above 64 is not supported")
        if self.k < self.n:
            raise ValueError("column budget k cannot be below N")

    def __str__(self) -> str:
        return f"{self.v}:{self.n}:{self.m}"

    @property
    def nm(self) -> NMPattern:
        return NMPattern(self.n, self.m)

    # -- vertical constraint -------------------------------------------------
    def tile_column_masks(self, bm: BitMatrix) -> np.ndarray:
        """OR of segment values over each V-row group.

        Returns an ``(n_tiles_v, n_segs)`` unsigned array whose entry is the
        M-bit union of non-zero columns inside that meta-block; rows beyond
        ``n_rows`` pad as zero.
        """
        vals = bm.segment_values(self.m)
        n_rows, n_segs = vals.shape
        n_groups = (n_rows + self.v - 1) // self.v
        pad = n_groups * self.v - n_rows
        if pad:
            vals = np.vstack([vals, np.zeros((pad, n_segs), dtype=vals.dtype)])
        grouped = vals.reshape(n_groups, self.v, n_segs)
        return np.bitwise_or.reduce(grouped, axis=1)

    def vertical_violation_mask(self, bm: BitMatrix) -> np.ndarray:
        """Boolean ``(n_tiles_v, n_segs)`` mask of meta-blocks with > k live columns."""
        masks = self.tile_column_masks(bm)
        return np.bitwise_count(masks) > self.k

    def count_vertical_violations(self, bm: BitMatrix) -> int:
        """The paper's MBScore ``F_MB(φ)``: meta-blocks breaking the vertical constraint."""
        return int(self.vertical_violation_mask(bm).sum())

    # -- combined conformity ---------------------------------------------------
    def tile_violation_mask(self, bm: BitMatrix) -> np.ndarray:
        """Meta-blocks violating either constraint."""
        vertical = self.vertical_violation_mask(bm)
        horizontal = self.nm.invalid_vector_mask(bm)
        n_rows = horizontal.shape[0]
        n_groups = vertical.shape[0]
        pad = n_groups * self.v - n_rows
        if pad:
            horizontal = np.vstack(
                [horizontal, np.zeros((pad, horizontal.shape[1]), dtype=bool)]
            )
        horiz_by_tile = horizontal.reshape(n_groups, self.v, -1).any(axis=1)
        return vertical | horiz_by_tile

    def count_tile_violations(self, bm: BitMatrix) -> int:
        return int(self.tile_violation_mask(bm).sum())

    def matrix_conforms(self, bm: BitMatrix) -> bool:
        return self.count_tile_violations(bm) == 0


def parse_pattern(text: str) -> VNMPattern:
    """Parse ``"V:N:M"`` or ``"N:M"`` (V defaults to 1); ``ValueError`` if malformed."""
    try:
        nums = [int(p) for p in text.split(":")]
    except ValueError as exc:
        raise ValueError(f"bad pattern {text!r}") from exc
    if len(nums) == 2:
        return VNMPattern(1, nums[0], nums[1])
    if len(nums) == 3:
        return VNMPattern(nums[0], nums[1], nums[2])
    raise ValueError(f"bad pattern {text!r}; expected N:M or V:N:M")
