"""Roofline analysis of the emulated kernels.

Classifies each SpMM configuration as memory- or compute-bound under the
A100-class parameters and reports the arithmetic intensity (FLOP/byte) the
cost model implies.  This is the analysis layer that explains *why* the
paper's speedups look the way they do: CSR SpMM sits far below the CUDA-core
roof at any intensity (irregularity-limited), while the SPTC kernels climb
the memory roof and saturate at tensor-core throughput once H is large.
"""

from __future__ import annotations

from dataclasses import dataclass

from .costmodel import A100Params, CostModel, DEFAULT_PARAMS, SpmmWorkload
from .csr import CSRMatrix
from .venom import VNMCompressed

__all__ = ["RooflinePoint", "csr_roofline", "venom_roofline", "roofline_series"]


@dataclass(frozen=True)
class RooflinePoint:
    """One kernel configuration on the roofline plane."""

    kernel: str
    h: int
    flops: float
    bytes_moved: float
    modelled_seconds: float

    @property
    def arithmetic_intensity(self) -> float:
        """FLOP per byte of modelled traffic."""
        return self.flops / self.bytes_moved if self.bytes_moved else 0.0

    @property
    def achieved_flops(self) -> float:
        return self.flops / self.modelled_seconds if self.modelled_seconds else 0.0

    def bound(self, params: A100Params = DEFAULT_PARAMS, *, peak: float | None = None) -> str:
        """"memory" or "compute", by which roof the point sits under."""
        roof_peak = peak if peak is not None else params.sptc_flops
        ridge = roof_peak / params.mem_bandwidth
        return "memory" if self.arithmetic_intensity < ridge else "compute"


def csr_roofline(csr: CSRMatrix, h: int, model: CostModel | None = None) -> RooflinePoint:
    """Roofline point of the CUDA-core CSR SpMM on this operand."""
    cm = model or CostModel()
    wl = SpmmWorkload.from_csr(csr, h)
    flops = 2.0 * wl.nnz * h
    return RooflinePoint("csr", h, flops, cm.csr_traffic(wl), cm.time_csr_spmm(wl))


def venom_roofline(a: VNMCompressed, h: int, model: CostModel | None = None) -> RooflinePoint:
    """Roofline point of the SPTC V:N:M SpMM on this operand."""
    cm = model or CostModel()
    flops = 2.0 * a.values.size * h
    return RooflinePoint("venom", h, flops, cm.venom_traffic(a, h), cm.time_venom_spmm(a, h))


def roofline_series(
    csr: CSRMatrix,
    venom: VNMCompressed,
    hs: tuple[int, ...] = (64, 128, 256, 512),
    model: CostModel | None = None,
) -> list[RooflinePoint]:
    """Both kernels' points across the H sweep (for the analysis bench)."""
    out: list[RooflinePoint] = []
    for h in hs:
        out.append(csr_roofline(csr, h, model))
        out.append(venom_roofline(venom, h, model))
    return out
