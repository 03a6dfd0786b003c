"""Analytical A100-class timing model for the emulated kernels.

The paper's performance results come from real A100 GPUs; this module is the
documented substitution (see DESIGN.md §3).  It models the two mechanisms the
paper attributes the speedups to:

* **CSR SpMM on CUDA cores** is bound by irregular memory access: effective
  throughput is a small fraction of peak (measured cuSPARSE SpMM on scattered
  graphs reaches a few hundred GFLOP/s), worsened by row-length imbalance,
  plus streaming traffic for the index/value arrays and the gathered B rows
  (with an L2-style reuse model).
* **SPTC SpMM** streams compact V:N:M tiles through ``mma.sp`` at tensor-core
  throughput, paying for every *stored* slot — including the padding slots in
  mostly-empty meta-blocks — plus structured (post-reorder, cache-friendly)
  fetches of each tile's live B columns.  The padding charge is what makes
  ultra-sparse scattered matrices slower after conversion to large-V
  patterns, reproducing the paper's slowdown-tail observation (see the
  selection-policy ablation bench).

Absolute times are not claims; ratios (who wins, by what factor, where the
crossover sits) are the reproduced quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

import math

from .csr import CSRMatrix
from .nm_format import NMCompressed
from ..core.patterns import VNMPattern
from .venom import VNMCompressed, vnm_storage_bytes

__all__ = ["A100Params", "Calibration", "CostModel", "SpmmWorkload", "DEFAULT_PARAMS"]


class Calibration:
    """Running predicted-vs-measured accounting for one cost model.

    Serving (with metrics enabled) feeds every kernel launch's
    ``(predicted, measured)`` pair in through :meth:`observe`; the running
    geometric-mean ratio becomes a multiplicative correction
    (:meth:`calibrated`) and the mean relative residual is exported as the
    ``costmodel_residual`` gauge — the model's accuracy is continuously
    observable instead of silently drifting.
    """

    __slots__ = ("count", "_sum_log_ratio", "_sum_residual", "last_predicted", "last_measured")

    def __init__(self):
        self.count = 0
        self._sum_log_ratio = 0.0
        self._sum_residual = 0.0
        self.last_predicted = 0.0
        self.last_measured = 0.0

    def observe(self, predicted: float, measured: float) -> None:
        """Record one ``(predicted, measured)`` seconds pair."""
        if predicted <= 0.0 or measured <= 0.0:
            return
        self.count += 1
        self._sum_log_ratio += math.log(measured / predicted)
        self._sum_residual += (measured - predicted) / predicted
        self.last_predicted = predicted
        self.last_measured = measured

    @property
    def factor(self) -> float:
        """Geometric-mean ``measured / predicted`` ratio (1.0 when empty)."""
        if self.count == 0:
            return 1.0
        return math.exp(self._sum_log_ratio / self.count)

    @property
    def mean_residual(self) -> float:
        """Mean relative residual ``(measured - predicted) / predicted``."""
        if self.count == 0:
            return 0.0
        return self._sum_residual / self.count

    def calibrated(self, predicted: float) -> float:
        """``predicted`` corrected by the running measured/predicted factor."""
        return predicted * self.factor

    def summary(self) -> dict:
        return {
            "count": self.count,
            "factor": self.factor,
            "mean_residual": self.mean_residual,
            "last_predicted": self.last_predicted,
            "last_measured": self.last_measured,
        }


@dataclass(frozen=True)
class A100Params:
    """Machine parameters; defaults approximate one NVIDIA A100-40GB."""

    mem_bandwidth: float = 1.555e12       # bytes/s HBM2e
    l2_bytes: float = 20e6                # effective reuse window (half of 40MB L2)
    kernel_launch: float = 4e-6           # seconds per kernel
    cuda_spmm_flops: float = 4.5e11       # effective FLOP/s of CSR SpMM on CUDA cores
    sptc_flops: float = 1.6e13            # effective FLOP/s of mma.sp pipelines
    tc_dense_flops: float = 1.9e14        # effective dense tensor-core FLOP/s
    cuda_dense_flops: float = 1.2e13      # effective dense FP32 CUDA-core FLOP/s
    csr_gather_miss_floor: float = 0.08   # min fraction of gathers missing L2
    sptc_gather_miss_floor: float = 0.05
    # Structured-access traffic discount: after reordering, tiles in the same
    # tile row share live columns and adjacent tile rows reference nearby
    # columns, so B-row fetches hit L2 far more often than CSR's scattered
    # gathers do.
    sptc_locality: float = 0.25
    imbalance_weight: float = 0.1         # row-length skew penalty weight
    value_bytes_dense: int = 4            # fp32 on CUDA cores
    value_bytes_tc: int = 2               # fp16 operands on tensor cores


DEFAULT_PARAMS = A100Params()


@dataclass(frozen=True)
class SpmmWorkload:
    """Shape summary of one SpMM ``A (n_rows × n_cols, sparse) @ B (n_cols × h)``."""

    n_rows: int
    n_cols: int
    nnz: int
    h: int
    max_degree: int = 1
    avg_degree: float = 1.0

    @classmethod
    def from_csr(cls, a: CSRMatrix, h: int) -> "SpmmWorkload":
        deg = a.row_nnz()
        return cls(
            a.shape[0], a.shape[1], a.nnz, h,
            int(deg.max(initial=1)), float(deg.mean()) if deg.size else 1.0,
        )


class CostModel:
    """Timing oracle shared by the emulated device and the benchmarks."""

    def __init__(self, params: A100Params = DEFAULT_PARAMS):
        self.params = params
        self.calibration = Calibration()

    def with_params(self, **overrides) -> "CostModel":
        return CostModel(replace(self.params, **overrides))

    # -- helpers -------------------------------------------------------------
    def _miss_fraction(self, b_bytes: float, floor: float) -> float:
        return float(np.clip(b_bytes / self.params.l2_bytes, floor, 1.0))

    def _imbalance_penalty(self, wl: SpmmWorkload) -> float:
        skew = wl.max_degree / max(wl.avg_degree, 1e-9)
        return 1.0 + self.params.imbalance_weight * float(np.log2(1.0 + skew))

    # -- CSR on CUDA cores -----------------------------------------------------
    def csr_traffic(self, wl: SpmmWorkload) -> float:
        """Bytes the CSR SpMM moves: the memory term of :meth:`time_csr_spmm`."""
        p = self.params
        b_bytes = wl.n_cols * wl.h * p.value_bytes_dense
        miss = self._miss_fraction(b_bytes, p.csr_gather_miss_floor)
        return (
            wl.nnz * (4 + p.value_bytes_dense)          # column index + value stream
            + (wl.n_rows + 1) * 4                        # indptr
            + wl.nnz * wl.h * p.value_bytes_dense * miss  # gathered B rows
            + wl.n_rows * wl.h * p.value_bytes_dense      # C write
        )

    def time_csr_spmm(self, wl: SpmmWorkload) -> float:
        p = self.params
        flops = 2.0 * wl.nnz * wl.h
        compute = flops / p.cuda_spmm_flops * self._imbalance_penalty(wl)
        return p.kernel_launch + max(compute, self.csr_traffic(wl) / p.mem_bandwidth)

    # -- SPTC structured kernels -------------------------------------------------
    def time_venom_spmm(self, a: VNMCompressed, h: int) -> float:
        return self.time_venom_tiles(a.pattern, a.shape, a.n_tiles, a.n_live_cols, h)

    def venom_traffic(self, a: VNMCompressed, h: int) -> float:
        """Bytes the V:N:M SpMM moves: the memory term of :meth:`time_venom_spmm`."""
        live, a_bytes = self._venom_tile_terms(a.pattern, a.shape, a.n_tiles, a.n_live_cols)
        return self._sptc_traffic(a.shape, live, a_bytes, h)

    def time_venom_tiles(
        self, pattern: VNMPattern, shape: tuple[int, int], n_tiles: int,
        n_live_cols: int, h: int,
    ) -> float:
        """V:N:M SpMM time from the operand's tile counts alone.

        ``n_tiles`` (non-empty meta-blocks) and ``n_live_cols`` (their live
        columns, summed) are all the model reads of a compressed operand, so
        a caller that has only the tile column masks need not compress.
        """
        live, a_bytes = self._venom_tile_terms(pattern, shape, n_tiles, n_live_cols)
        return self._time_sptc(
            n_rows=shape[0],
            n_cols=shape[1],
            stored_slots=n_tiles * pattern.v * pattern.n,
            live_b_rows=live,
            a_bytes=a_bytes,
            h=h,
        )

    @staticmethod
    def _venom_tile_terms(
        pattern: VNMPattern, shape: tuple[int, int], n_tiles: int, n_live_cols: int,
    ) -> tuple[int, int]:
        """``(live B rows fetched, operand bytes)`` from the tile counts."""
        live = n_live_cols if n_live_cols else n_tiles * pattern.k
        n_tile_rows = (shape[0] + pattern.v - 1) // pattern.v
        return live, vnm_storage_bytes(pattern, n_tile_rows, n_tiles)

    def time_nm_spmm(self, a: NMCompressed, h: int) -> float:
        return self._time_sptc(
            n_rows=a.shape[0],
            n_cols=a.shape[1],
            stored_slots=a.values.size,
            live_b_rows=a.values.size,
            a_bytes=a.storage_bytes(),
            h=h,
        )

    def _sptc_traffic(
        self, shape: tuple[int, int], live_b_rows: int, a_bytes: int, h: int,
    ) -> float:
        p = self.params
        b_bytes = shape[1] * h * p.value_bytes_tc
        miss = self._miss_fraction(b_bytes, p.sptc_gather_miss_floor) * p.sptc_locality
        return (
            a_bytes
            + live_b_rows * h * p.value_bytes_tc * miss  # per-tile live-column B fetch
            + shape[0] * h * p.value_bytes_tc             # C write
        )

    def _time_sptc(
        self, *, n_rows: int, n_cols: int, stored_slots: int,
        live_b_rows: int, a_bytes: int, h: int,
    ) -> float:
        p = self.params
        flops = 2.0 * stored_slots * h  # every stored slot computes, padding included
        compute = flops / p.sptc_flops
        traffic = self._sptc_traffic((n_rows, n_cols), live_b_rows, a_bytes, h)
        return p.kernel_launch + max(compute, traffic / p.mem_bandwidth)

    def time_bsr_spmm(self, a, h: int) -> float:
        """Dense-block SpMM over BSR: every stored block multiplies densely.

        Same mechanism as the TC-GNN model — block² slots compute regardless
        of the sparsity inside each block, and the full dense block values
        stream from memory.
        """
        p = self.params
        stored = a.blocks.size
        flops = 2.0 * stored * h
        compute = flops / p.tc_dense_flops
        b_bytes = a.shape[1] * h * p.value_bytes_tc
        miss = self._miss_fraction(b_bytes, p.sptc_gather_miss_floor) * p.sptc_locality
        traffic = (
            a.storage_bytes()
            + a.bcol_ind.size * a.block * h * p.value_bytes_tc * miss
            + a.shape[0] * h * p.value_bytes_tc
        )
        return p.kernel_launch + max(compute, traffic / p.mem_bandwidth)

    def time_sell_spmm(self, a, h: int) -> float:
        """SELL-C-σ SpMM on CUDA cores: regular slices, padded lanes compute.

        Padding removes the row-length imbalance penalty CSR pays but every
        padded slot still multiplies and its column index still streams.
        """
        p = self.params
        flops = 2.0 * a.padded_entries * h
        compute = flops / p.cuda_spmm_flops
        b_bytes = a.shape[1] * h * p.value_bytes_dense
        miss = self._miss_fraction(b_bytes, p.csr_gather_miss_floor)
        traffic = (
            a.storage_bytes()
            + a.padded_entries * h * p.value_bytes_dense * miss
            + a.shape[0] * h * p.value_bytes_dense
        )
        return p.kernel_launch + max(compute, traffic / p.mem_bandwidth)

    def time_tcgnn_spmm(self, a, h: int) -> float:
        """Dense-tensor-core SpMM over a TC-GNN-style blocked operand.

        Every stored tile runs a dense MMA (tile² slots compute regardless of
        sparsity inside the tile) and the full dense tile values stream from
        memory — the mechanism behind the format's memory-pressure problem.
        """
        p = self.params
        stored = a.blocks.size
        flops = 2.0 * stored * h
        compute = flops / p.tc_dense_flops
        b_bytes = a.shape[1] * h * p.value_bytes_tc
        miss = self._miss_fraction(b_bytes, p.sptc_gather_miss_floor) * p.sptc_locality
        traffic = (
            a.storage_bytes()
            + a.col_map.size * h * p.value_bytes_tc * miss
            + a.shape[0] * h * p.value_bytes_tc
        )
        return p.kernel_launch + max(compute, traffic / p.mem_bandwidth)

    # -- dense kernels ----------------------------------------------------------
    def time_dense_gemm(self, m: int, k: int, n: int, *, tensor_core: bool = True) -> float:
        p = self.params
        flops = 2.0 * m * k * n
        vb = p.value_bytes_tc if tensor_core else p.value_bytes_dense
        peak = p.tc_dense_flops if tensor_core else p.cuda_dense_flops
        traffic = (m * k + k * n + m * n) * vb
        return p.kernel_launch + max(flops / peak, traffic / p.mem_bandwidth)

    # -- element-wise / epilogue ---------------------------------------------------
    def time_elementwise(self, n_elements: int, *, reads: int = 1, writes: int = 1) -> float:
        p = self.params
        traffic = n_elements * p.value_bytes_dense * (reads + writes)
        return p.kernel_launch + traffic / p.mem_bandwidth

    # -- convenience ----------------------------------------------------------------
    def speedup_csr_to_venom(self, csr: CSRMatrix, venom: VNMCompressed, h: int) -> float:
        wl = SpmmWorkload.from_csr(csr, h)
        return self.time_csr_spmm(wl) / self.time_venom_spmm(venom, h)
