"""Mixed-precision emulation of the tensor-core datapath.

The reordering itself is lossless, but the SPTC hardware multiplies fp16
operands into fp32 accumulators.  This module emulates that datapath so the
numeric side of "lossless" can be quantified: values and gathered B rows are
rounded to fp16, products are exact in fp32 (an fp16×fp16 product is
representable), and accumulation rounds in fp32 — exactly the `mma.sp`
behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .venom import VNMCompressed

__all__ = [
    "quantize_fp16",
    "venom_spmm_fp16",
    "PrecisionReport",
    "precision_report",
    "row_scaled_error",
    "FP32_ROW_SCALED_BOUND",
]

# Acceptance bound for the engine's opt-in fp32 compute path: fp32 keeps
# ~7 decimal digits and the serving reductions span at most a few thousand
# terms, so a healthy fp32 kernel stays orders of magnitude below 1e-4 of
# each row's scale.  Exceeding it means the operand's dynamic range defeats
# fp32 and the engine must stay on float64.
FP32_ROW_SCALED_BOUND = 1e-4


def _row_scaled(exact: np.ndarray, approx: np.ndarray) -> np.ndarray:
    """Per-cell error normalized by each exact row's infinity norm.

    Rows whose exact output is (near) zero carry no signal to lose and are
    masked out rather than dividing by noise.
    """
    abs_err = np.abs(exact - approx)
    row_scale = np.maximum(np.abs(exact).max(axis=1, keepdims=True), 1e-30)
    scaled = abs_err / row_scale
    live_rows = np.abs(exact).max(axis=1) > 1e-12
    return scaled[live_rows] if live_rows.any() else np.zeros((1, 1))


def row_scaled_error(exact: np.ndarray, approx: np.ndarray) -> float:
    """Maximum row-scaled error of ``approx`` against ``exact``.

    The scalar form of the :class:`PrecisionReport` normalization, used by
    :func:`repro.perf.engine.fp32_within_bound` to gate the engine's fp32
    compute path against :data:`FP32_ROW_SCALED_BOUND`.
    """
    return float(_row_scaled(np.asarray(exact), np.asarray(approx)).max(initial=0.0))


def quantize_fp16(x: np.ndarray) -> np.ndarray:
    """Round to the nearest fp16 value (returned as float64 for further math)."""
    return np.asarray(x, dtype=np.float64).astype(np.float16).astype(np.float64)


def venom_spmm_fp16(a: VNMCompressed, b: np.ndarray) -> np.ndarray:
    """V:N:M SpMM through the emulated fp16-multiply / fp32-accumulate path."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != a.shape[1]:
        raise ValueError("inner dimension mismatch")
    v = a.pattern.v
    h = b.shape[1]
    padded_rows = max(b.shape[0], int(a.col_ids.max(initial=0)) + 1)
    if padded_rows == b.shape[0]:
        padded_b = b  # aligned: gather straight from B, no zero-padded copy
    else:
        padded_b = np.zeros((padded_rows, h))
        padded_b[: b.shape[0]] = b
    if a.n_tiles == 0:
        return np.zeros((a.shape[0], h), dtype=np.float64)
    gather_cols = np.take_along_axis(
        a.col_ids[:, None, :].repeat(v, axis=1), a.meta.astype(np.int64), axis=2
    )
    vals16 = quantize_fp16(a.values).astype(np.float32)
    b16 = quantize_fp16(padded_b[gather_cols]).astype(np.float32)
    # fp16 products are exact in fp32; the einsum accumulates in fp32.
    contrib = np.einsum("tvn,tvnh->tvh", vals16, b16, dtype=np.float32)
    tile_rows = np.repeat(np.arange(a.n_tile_rows), np.diff(a.tile_ptr))
    out = np.zeros((a.n_tile_rows, v, h), dtype=np.float32)
    np.add.at(out, tile_rows, contrib)
    return out.reshape(a.n_tile_rows * v, h)[: a.shape[0]].astype(np.float64)


@dataclass
class PrecisionReport:
    """Error statistics of the fp16 path against the fp64 reference.

    Errors are normalized by each output row's infinity norm: element-wise
    relative error is meaningless where an exact output is incidentally near
    zero (catastrophic-cancellation cells), but row-scaled error measures
    how much of each row's signal the fp16 path loses.
    """

    max_abs_error: float
    max_row_scaled_error: float
    mean_row_scaled_error: float

    @property
    def within_fp16_expectations(self) -> bool:
        """fp16 has ~3 decimal digits; < 1% of the row scale is nominal."""
        return self.max_row_scaled_error < 1e-2


def precision_report(a: VNMCompressed, b: np.ndarray) -> PrecisionReport:
    """Compare the emulated fp16 datapath against exact fp64 SpMM."""
    from ..perf import engine  # lazy: repro.perf sits above repro.sptc

    exact = engine.execute(a, b)
    approx = venom_spmm_fp16(a, b)
    scaled = _row_scaled(exact, approx)
    return PrecisionReport(
        max_abs_error=float(np.abs(exact - approx).max(initial=0.0)),
        max_row_scaled_error=float(scaled.max(initial=0.0)),
        mean_row_scaled_error=float(scaled.mean()) if scaled.size else 0.0,
    )
