"""Bit-manipulation subroutines (the paper's supplementary-material family).

The CUDA library builds its hot paths from integer intrinsics (`__popc`,
`__brev`, shift/mask field extraction — Listing 1 and "more subroutines are
in the supplementary material").  These are the NumPy ports: vectorized,
word-parallel implementations with the same semantics, used by the bit-packed
matrix layer and available for building new kernels.

`popcount64` is a SWAR (SIMD-within-a-register) implementation kept as an
executable specification of what `np.bitwise_count` / `__popc` compute; the
library itself calls the NumPy builtin.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "popcount64",
    "bit_reverse",
    "extract_field",
    "deposit_field",
    "lowest_set_bit",
    "set_bit_positions",
]

_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)


def popcount64(x: np.ndarray | int) -> np.ndarray | int:
    """SWAR population count of 64-bit words (the `__popc` reference)."""
    scalar = np.isscalar(x)
    v = np.asarray(x, dtype=np.uint64)
    v = v - ((v >> np.uint64(1)) & _M1)
    v = (v & _M2) + ((v >> np.uint64(2)) & _M2)
    v = (v + (v >> np.uint64(4))) & _M4
    with np.errstate(over="ignore"):  # the byte-sum multiply wraps mod 2**64
        out = (v * _H01) >> np.uint64(56)
    return int(out) if scalar else out.astype(np.uint8)


def bit_reverse(x: np.ndarray | int, width: int = 64) -> np.ndarray | int:
    """Reverse the low ``width`` bits of each word (the `__brev` analogue)."""
    if not 1 <= width <= 64:
        raise ValueError("width must be in [1, 64]")
    scalar = np.isscalar(x)
    v = np.asarray(x, dtype=np.uint64)
    masks = [
        (np.uint64(0x5555555555555555), 1),
        (np.uint64(0x3333333333333333), 2),
        (np.uint64(0x0F0F0F0F0F0F0F0F), 4),
        (np.uint64(0x00FF00FF00FF00FF), 8),
        (np.uint64(0x0000FFFF0000FFFF), 16),
        (np.uint64(0x00000000FFFFFFFF), 32),
    ]
    for mask, shift in masks:
        s = np.uint64(shift)
        v = ((v & mask) << s) | ((v >> s) & mask)
    v = v >> np.uint64(64 - width)
    return int(v) if scalar else v


def extract_field(words: np.ndarray, offset: int, width: int) -> np.ndarray:
    """Extract a ``width``-bit field starting at bit ``offset`` (BFE)."""
    if width <= 0 or offset < 0 or offset + width > 64:
        raise ValueError("field out of range")
    mask = np.uint64((1 << width) - 1)
    return (np.asarray(words, dtype=np.uint64) >> np.uint64(offset)) & mask


def deposit_field(words: np.ndarray, values: np.ndarray, offset: int, width: int) -> np.ndarray:
    """Return words with the ``width``-bit field at ``offset`` replaced (BFI)."""
    if width <= 0 or offset < 0 or offset + width > 64:
        raise ValueError("field out of range")
    mask = np.uint64((1 << width) - 1)
    w = np.asarray(words, dtype=np.uint64)
    v = np.asarray(values, dtype=np.uint64) & mask
    cleared = w & ~(mask << np.uint64(offset))
    return cleared | (v << np.uint64(offset))


def lowest_set_bit(x: np.ndarray | int) -> np.ndarray | int:
    """Index of the lowest set bit (`__ffs` − 1); −1 for zero words."""
    scalar = np.isscalar(x)
    v = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):  # two's-complement negate wraps mod 2**64
        isolated = v & (~v + np.uint64(1))
    # log2 of a power of two via popcount of (isolated - 1); substitute 1 for
    # zero words so the subtraction never wraps (their result is masked off).
    safe = np.where(v == 0, np.uint64(1), isolated)
    idx = np.where(
        v == 0,
        np.int64(-1),
        np.bitwise_count(safe - np.uint64(1)).astype(np.int64),
    )
    return int(idx) if scalar else idx


def set_bit_positions(word: int, width: int = 64) -> list[int]:
    """All set-bit positions of one word, ascending (ballot-scan helper)."""
    out = []
    w = int(word)
    while w:
        low = w & -w
        out.append(low.bit_length() - 1)
        w ^= low
    return [p for p in out if p < width]
