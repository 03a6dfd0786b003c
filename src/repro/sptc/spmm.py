"""The dense reference SpMM.

Sparse operands have no host kernel of their own: every registered format
executes through :func:`repro.perf.engine.execute` (an exact CSR triplet
run by scipy.sparse), and where it *would* run on an A100 — sparse tensor
cores or CUDA cores — is the cost model's business
(:func:`repro.pipeline.registry.model_spmm_time`).  :func:`dense_spmm` is
the reference every path is checked against.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dense_spmm"]


def dense_spmm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense reference multiply."""
    return np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)
