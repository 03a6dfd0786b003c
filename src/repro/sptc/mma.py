"""Functional emulation of the SPTC ``mma.sp.sync`` warp instruction.

The paper's kernels issue ``mma.sp.sync`` with the default ``m16n8k32``
shape: a 16×32 operand A that is 2:4-sparse (stored as 16×16 values plus
2-bit metadata selecting each value's position inside its 4-wide group), a
dense 32×8 operand B, and a 16×8 accumulator C.  This module reproduces the
instruction's *semantics* — the hardware's dynamic non-zero compaction — so
kernels built on it are numerically exact; the *timing* lives in
:mod:`repro.sptc.costmodel`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MmaShape", "MMA_M16N8K32", "mma_sp", "compress_tile_2to4", "expand_tile_2to4"]


@dataclass(frozen=True)
class MmaShape:
    """``m × n × k`` tile shape of one sparse MMA instruction."""

    m: int
    n: int
    k: int
    sparsity_n: int = 2
    sparsity_m: int = 4

    @property
    def packed_k(self) -> int:
        """Stored (compressed) K extent of operand A."""
        return self.k * self.sparsity_n // self.sparsity_m

    def __str__(self) -> str:
        return f"m{self.m}n{self.n}k{self.k}"


MMA_M16N8K32 = MmaShape(16, 8, 32)


def compress_tile_2to4(a: np.ndarray,
                       shape: MmaShape = MMA_M16N8K32) -> tuple[np.ndarray, np.ndarray]:
    """Compress a conforming ``m × k`` tile into (values, metadata).

    ``values`` is ``m × packed_k``; ``meta`` holds, per value, its position
    (0..sparsity_m-1) within its group — the 2-bit hardware metadata.
    Raises ``ValueError`` if any group exceeds the N:M budget.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (shape.m, shape.k):
        raise ValueError(f"tile must be {shape.m}x{shape.k}, got {a.shape}")
    sn, sm = shape.sparsity_n, shape.sparsity_m
    groups = a.reshape(shape.m, shape.k // sm, sm)
    if ((groups != 0).sum(axis=2) > sn).any():
        raise ValueError(f"tile violates {sn}:{sm} sparsity")
    order = np.argsort(groups == 0, axis=2, kind="stable")
    meta = order[:, :, :sn].astype(np.uint8)
    values = np.take_along_axis(groups, order[:, :, :sn], axis=2)
    return values.reshape(shape.m, shape.packed_k), meta.reshape(shape.m, shape.packed_k)


def expand_tile_2to4(values: np.ndarray, meta: np.ndarray,
                     shape: MmaShape = MMA_M16N8K32) -> np.ndarray:
    """Inverse of :func:`compress_tile_2to4`."""
    sn, sm = shape.sparsity_n, shape.sparsity_m
    out = np.zeros((shape.m, shape.k), dtype=np.float64)
    groups = out.reshape(shape.m, shape.k // sm, sm)
    v = values.reshape(shape.m, shape.k // sm, sn)
    p = meta.reshape(shape.m, shape.k // sm, sn).astype(np.int64)
    np.put_along_axis(groups, p, v, axis=2)
    return out


def mma_sp(
    values: np.ndarray,
    meta: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    shape: MmaShape = MMA_M16N8K32,
) -> np.ndarray:
    """Sparse fused multiply-accumulate: ``C += A_sparse @ B``.

    ``values``/``meta`` are the compressed operand from
    :func:`compress_tile_2to4`; ``b`` is the dense ``k × n`` operand; ``c``
    the ``m × n`` accumulator (zeros if omitted).  Like the hardware, the
    computation reads only the packed non-zero slots and uses the metadata
    to select the matching B rows.
    """
    values = np.asarray(values, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (shape.k, shape.n):
        raise ValueError(f"B must be {shape.k}x{shape.n}, got {b.shape}")
    if values.shape != (shape.m, shape.packed_k) or meta.shape != values.shape:
        raise ValueError("compressed operand shape mismatch")
    out = (np.zeros((shape.m, shape.n), dtype=np.float64) if c is None
           else np.array(c, dtype=np.float64))
    sn, sm = shape.sparsity_n, shape.sparsity_m
    group_base = np.repeat(np.arange(shape.k // sm) * sm, sn)  # (packed_k,)
    rows_of_b = group_base[None, :] + meta.astype(np.int64)  # (m, packed_k)
    out += np.einsum("mj,mjn->mn", values, b[rows_of_b])
    return out
