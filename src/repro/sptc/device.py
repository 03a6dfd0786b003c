"""Emulated GPU device: a virtual clock beside the host's one SpMM path.

An :class:`EmulatedDevice` is a pure clock observer.  Every launch charges
the cost-model time of the kernel the A100 would run — sparse tensor cores
for V:N:M, CUDA cores for CSR, as the operand's registered backend says —
and the numbers themselves come from the same host path as every other
caller (:func:`repro.perf.engine.execute`), so experiments measure "A100
time" deterministically without a device-only kernel.  The multi-GPU
experiments (§5.2) instantiate several devices and take the makespan.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .costmodel import CostModel

__all__ = ["EmulatedDevice", "KernelRecord", "use_device", "active_device"]

_ACTIVE_DEVICE: list["EmulatedDevice"] = []


@contextmanager
def use_device(device: "EmulatedDevice"):
    """Make ``device`` the ambient compute device.

    Dense layers and element-wise ops inside the scope charge their modelled
    time to it, so end-to-end GNN forward times include the update phase.
    """
    _ACTIVE_DEVICE.append(device)
    try:
        yield device
    finally:
        _ACTIVE_DEVICE.pop()


def active_device() -> "EmulatedDevice | None":
    return _ACTIVE_DEVICE[-1] if _ACTIVE_DEVICE else None


@dataclass
class KernelRecord:
    """One launched kernel: name, modelled seconds, and a tag for grouping."""

    name: str
    seconds: float
    tag: str = ""


@dataclass
class EmulatedDevice:
    """A single emulated GPU with its own virtual clock."""

    cost_model: CostModel = field(default_factory=CostModel)
    device_id: int = 0
    clock: float = 0.0
    records: list[KernelRecord] = field(default_factory=list)

    def _launch(self, name: str, seconds: float, tag: str) -> None:
        self.clock += seconds
        self.records.append(KernelRecord(name, seconds, tag))

    def reset(self) -> None:
        self.clock = 0.0
        self.records.clear()

    def elapsed(self, tag: str | None = None) -> float:
        if tag is None:
            return self.clock
        return sum(r.seconds for r in self.records if r.tag == tag)

    # -- kernels ---------------------------------------------------------------
    def spmm(self, a, b: np.ndarray, *, tag: str = "spmm") -> np.ndarray:
        """Charge ``a``'s modelled SpMM time, then execute it on the host path.

        One registry lookup supplies the cost-model entry and the record
        label — any format registered via
        :func:`repro.pipeline.registry.register_backend` (including
        third-party ones) runs on the virtual clock without device changes.
        Execution goes through :func:`repro.perf.engine.execute`, so faults,
        breakers and the error taxonomy apply as on the host.
        """
        from ..perf import engine  # lazy: repro.perf sits above repro.sptc
        from ..pipeline.registry import backend_for

        backend = backend_for(a)
        seconds = 0.0
        if backend.model_time is not None:
            seconds = backend.model_time(self.cost_model, a, b.shape[1])
        self._launch(backend.kernel_name or backend.name, seconds, tag)
        return engine.execute(a, b)

    def gemm(self, a: np.ndarray, b: np.ndarray, *, tensor_core: bool = True, tag: str = "gemm") -> np.ndarray:
        m, k = a.shape
        n = b.shape[1]
        self._launch(
            "dense_gemm", self.cost_model.time_dense_gemm(m, k, n, tensor_core=tensor_core), tag
        )
        return a @ b

    def elementwise(self, x: np.ndarray, fn, *, tag: str = "elementwise") -> np.ndarray:
        self._launch("elementwise", self.cost_model.time_elementwise(x.size), tag)
        return fn(x)
