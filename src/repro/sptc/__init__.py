"""Emulated Sparse Tensor Core substrate (DESIGN.md §3 substitution).

Sparse formats (CSR, BSR, N:M, VENOM V:N:M, hybrid, SELL-C-σ, TC-GNN
tiles), a functional ``mma.sp`` emulation, the dense reference SpMM, the
A100-class analytical cost model, and the virtual-clock device the
experiments run on.  The formats carry no SpMM kernel: each exposes its
exact ``to_coo()`` triplet, and :func:`repro.perf.engine.execute` computes
every product from it.
"""

from .bsr import BSRMatrix
from .conformance import topn_keep_mask
from .costmodel import A100Params, CostModel, DEFAULT_PARAMS, SpmmWorkload
from .csr import CSRMatrix
from .device import EmulatedDevice, KernelRecord
from .hybrid import HybridVNM, split_csr_to_pattern, split_to_pattern
from .mma import MMA_M16N8K32, MmaShape, compress_tile_2to4, expand_tile_2to4, mma_sp
from .nm_format import NMCompressed, NMFormatError
from .spmm import dense_spmm
from .sddmm import csr_sddmm, venom_sddmm
from .sell import SellCSigma
from .serialize import load_preprocessed, save_preprocessed
from .tcgnn import TCGNNBlocked
from .venom import VNMCompressed, VNMFormatError

__all__ = [
    "BSRMatrix",
    "CSRMatrix",
    "NMCompressed",
    "NMFormatError",
    "VNMCompressed",
    "VNMFormatError",
    "MmaShape",
    "MMA_M16N8K32",
    "mma_sp",
    "compress_tile_2to4",
    "expand_tile_2to4",
    "dense_spmm",
    "A100Params",
    "CostModel",
    "DEFAULT_PARAMS",
    "SpmmWorkload",
    "EmulatedDevice",
    "KernelRecord",
    "HybridVNM",
    "split_to_pattern",
    "split_csr_to_pattern",
    "topn_keep_mask",
    "TCGNNBlocked",
    "SellCSigma",
    "csr_sddmm",
    "venom_sddmm",
    "save_preprocessed",
    "load_preprocessed",
]
