"""Pluggable SpMM backend registry — the pipeline's dispatch layer.

Every operand format the system can serve (CSR, N:M, V:N:M, hybrid, BSR,
SELL-C-σ, TC-GNN tiles, dense) is described by one :class:`Backend` record
bundling what the rest of the stack needs:

* ``compress`` — how to build the operand from a (reordered) CSR matrix,
* ``model_time`` — the cost-model entry charged by the virtual-clock device,
* ``fallbacks`` — the graceful-degradation ladder,
* ``spmm`` — optional: a kernel for an operand the engine cannot plan.

No built-in backend sets ``spmm``: :func:`repro.perf.engine.execute`
computes every built-in format from its exact CSR triplet.  Only the
``serving`` pseudo-backend and third-party formats register a kernel, and
the engine runs it through :func:`run_kernel`.  ``EmulatedDevice.spmm``,
``gnn.layers.Aggregator`` and ``ServingSession`` all resolve operands
through :func:`backend_for` instead of per-call-site ``isinstance``
chains, so a third party adding a format (:func:`register_backend`)
extends execution, the device's timing and the GNN aggregation path at
once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..core.patterns import NMPattern, VNMPattern
from ..sptc.bsr import BSRMatrix
from ..sptc.costmodel import CostModel, SpmmWorkload
from ..sptc.csr import CSRMatrix
from ..sptc.hybrid import HybridVNM
from ..sptc.nm_format import NMCompressed
from ..sptc.sell import SellCSigma
from ..sptc.tcgnn import TCGNNBlocked
from ..sptc.venom import VNMCompressed
from . import faults, guard
from .resilience import BackendExecutionError, PipelineError

__all__ = [
    "Backend",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "backend_for",
    "available_backends",
    "run_kernel",
    "model_spmm_time",
    "compress",
    "densify",
    "degrade",
    "fallback_chain",
]


@dataclass(frozen=True)
class Backend:
    """One serving backend: format name → (compressor, cost entry, fallbacks).

    ``compress(csr, pattern)`` builds the operand from a reordered CSR matrix
    (``pattern`` may be ignored by unstructured formats).  ``spmm(a, b)`` is
    an exact kernel for an operand the engine cannot plan; ``None`` (every
    built-in format) means :func:`repro.perf.engine.execute` plans it from
    its ``to_coo()`` triplet.  ``model_time(cost_model, a, h)`` is the
    modelled A100 launch time the emulated device charges; ``None`` means
    the backend owns its own timing (e.g. a
    :class:`~repro.pipeline.serving.ServingSession`).
    ``kernel_name`` labels the device's :class:`KernelRecord` entries.
    ``fallbacks`` is the ordered graceful-degradation ladder: backends a
    failing operand can be rebuilt for (via :func:`degrade`), fastest first,
    ending in a always-correct reference (HC-SpMM's hybrid-kernel argument —
    keep a CUDA-core/CSR path behind every SPTC path).
    """

    name: str
    operand_types: tuple[type, ...]
    spmm: Callable[[Any, np.ndarray], np.ndarray] | None = None
    compress: Callable[[CSRMatrix, VNMPattern | None], Any] | None = None
    model_time: Callable[[CostModel, Any, int], float] | None = None
    kernel_name: str = ""
    fallbacks: tuple[str, ...] = ()


_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend, *, overwrite: bool = False) -> Backend:
    """Add a backend; third parties use this to plug new formats in.

    Raises ``ValueError`` when the name or one of the operand types is
    already claimed, unless ``overwrite`` is set.
    """
    if not overwrite:
        if backend.name in _REGISTRY:
            raise ValueError(f"backend {backend.name!r} is already registered")
        for existing in _REGISTRY.values():
            taken = set(existing.operand_types) & set(backend.operand_types)
            if taken:
                raise ValueError(
                    f"operand type(s) {sorted(t.__name__ for t in taken)} already "
                    f"handled by backend {existing.name!r}"
                )
    _REGISTRY[backend.name] = backend
    return backend


def unregister_backend(name: str) -> None:
    _REGISTRY.pop(name, None)


def get_backend(name: str) -> Backend:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        ) from None


def backend_for(operand: Any) -> Backend:
    """Resolve the backend handling ``operand``'s type (the dispatch lookup)."""
    cls = type(operand)
    for backend in _REGISTRY.values():
        if cls in backend.operand_types:
            return backend
    # Subclass fallback (np.matrix-style subtypes, user format hierarchies).
    for backend in _REGISTRY.values():
        if isinstance(operand, backend.operand_types):
            return backend
    raise TypeError(f"unsupported operand type {cls.__name__}")


def available_backends() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def run_kernel(
    backend: Backend,
    a: Any,
    b: np.ndarray,
    *,
    kernel: Callable[[Any, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Run ``kernel(a, b)`` for ``backend``, classing failures as
    :class:`BackendExecutionError`.

    This is the single choke point for kernel execution (the engine and
    so the emulated device route through it), so the fault-injection hook
    and the error taxonomy cover every SpMM call site.  ``kernel`` is
    required: :func:`repro.perf.engine.execute` chooses it (the backend's
    registered ``spmm``, or the operand's execution plan), so planned
    execution stays inside the same fault-injection and error-wrapping
    envelope as registered kernels.
    The ``serving`` pseudo-backend is exempt from wrapping: a
    :class:`~repro.pipeline.serving.ServingSession` runs its own retry /
    degradation cycle and already raises taxonomy (or validation) errors.

    When a :class:`~repro.pipeline.guard.BreakerBoard` is installed
    (:func:`~repro.pipeline.guard.enable_breakers`), this is also the
    breaker choke point: an open breaker rejects the call with
    :class:`~repro.pipeline.resilience.CircuitOpenError` before the kernel
    runs, successes close the breaker, and kernel failures feed its
    consecutive-failure count.  With no board installed the guard costs
    a few ``is None`` tests.
    """
    if backend.name == "serving":
        return kernel(a, b)
    board = guard.active_breakers()
    if board is not None:
        board.before_call(backend.name)
    try:
        faults.maybe_fail_kernel(backend.name)
        out = kernel(a, b)
    except PipelineError:
        # Already-classified taxonomy errors pass through unwrapped and do
        # not feed the breaker; injected faults (InjectedFault is a plain
        # RuntimeError) are kernel failures and land in the branch below.
        raise
    except Exception as exc:
        if board is not None:
            board.record_failure(backend.name)
        raise BackendExecutionError(
            f"backend {backend.name!r} kernel "
            f"{(backend.kernel_name or backend.name)!r} failed: {exc}",
            backend=backend.name,
            kernel_name=backend.kernel_name or backend.name,
        ) from exc
    if board is not None:
        board.record_success(backend.name)
    return out


def model_spmm_time(cost_model: CostModel, a: Any, h: int) -> float:
    """Cost-model launch time of one SpMM on operand ``a`` with width ``h``."""
    backend = backend_for(a)
    if backend.model_time is None:
        return 0.0
    return backend.model_time(cost_model, a, h)


def compress(csr: CSRMatrix, backend: str, pattern: VNMPattern | None = None) -> Any:
    """Build backend ``backend``'s operand from a (reordered) CSR matrix."""
    entry = get_backend(backend)
    if entry.compress is None:
        raise ValueError(f"backend {backend!r} has no compressor")
    return entry.compress(csr, pattern)


def densify(operand: Any) -> np.ndarray:
    """Dense matrix of any registered operand — the degradation pivot."""
    if isinstance(operand, np.ndarray):
        return np.asarray(operand, dtype=np.float64)
    if hasattr(operand, "decompress"):
        return operand.decompress()
    if hasattr(operand, "to_dense"):
        return operand.to_dense()
    raise TypeError(f"cannot densify operand of type {type(operand).__name__}")


def degrade(operand: Any, target: str) -> Any:
    """Rebuild ``operand`` in fallback format ``target`` (slower but correct).

    The numeric content is preserved exactly: the operand is densified and
    recompressed, so a downgraded serving path stays bitwise-correct for
    exact inputs.  ``target="dense"`` is the terminal reference rung.
    """
    get_backend(target)  # fail fast on unknown fallback names
    dense = densify(operand)
    if target == "dense":
        return dense
    pattern = getattr(operand, "pattern", None)
    vnm_pattern = pattern if isinstance(pattern, VNMPattern) else None
    return compress(CSRMatrix.from_dense(dense), target, vnm_pattern)


def fallback_chain(operand: Any) -> tuple[str, ...]:
    """The degradation ladder registered for ``operand``'s backend."""
    return backend_for(operand).fallbacks


# -- built-in backends ---------------------------------------------------------

def _require_pattern(pattern: VNMPattern | None, backend: str) -> VNMPattern:
    if pattern is None:
        raise ValueError(f"backend {backend!r} needs a V:N:M pattern to compress")
    return pattern


def _compress_nm(csr: CSRMatrix, pattern: VNMPattern | None) -> NMCompressed:
    pat = _require_pattern(pattern, "nm")
    return NMCompressed.compress(csr.to_dense(), NMPattern(pat.n, pat.m))


def _compress_bsr(csr: CSRMatrix, pattern: VNMPattern | None) -> BSRMatrix:
    block = pattern.m if pattern is not None else 16
    return BSRMatrix.from_csr(csr, block)


register_backend(Backend(
    name="csr",
    operand_types=(CSRMatrix,),
    compress=lambda csr, pattern=None: csr,
    model_time=lambda cm, a, h: cm.time_csr_spmm(SpmmWorkload.from_csr(a, h)),
    kernel_name="csr_spmm",
    fallbacks=("dense",),
))

register_backend(Backend(
    name="nm",
    operand_types=(NMCompressed,),
    compress=_compress_nm,
    model_time=lambda cm, a, h: cm.time_nm_spmm(a, h),
    kernel_name="nm_spmm",
    fallbacks=("csr", "dense"),
))

register_backend(Backend(
    name="vnm",
    operand_types=(VNMCompressed,),
    compress=lambda csr, pattern=None: VNMCompressed.compress_csr(
        csr, _require_pattern(pattern, "vnm")),
    model_time=lambda cm, a, h: cm.time_venom_spmm(a, h),
    kernel_name="venom_spmm",
    fallbacks=("bsr", "csr", "dense"),
))

register_backend(Backend(
    name="hybrid",
    operand_types=(HybridVNM,),
    compress=lambda csr, pattern=None: HybridVNM.compress_csr(
        csr, _require_pattern(pattern, "hybrid")),
    model_time=lambda cm, a, h: a.model_time(cm, h),
    kernel_name="hybrid_spmm",
    fallbacks=("bsr", "csr", "dense"),
))

register_backend(Backend(
    name="bsr",
    operand_types=(BSRMatrix,),
    compress=_compress_bsr,
    model_time=lambda cm, a, h: cm.time_bsr_spmm(a, h),
    kernel_name="bsr_spmm",
    fallbacks=("csr", "dense"),
))

register_backend(Backend(
    name="sell",
    operand_types=(SellCSigma,),
    compress=lambda csr, pattern=None: SellCSigma.from_csr(csr),
    model_time=lambda cm, a, h: cm.time_sell_spmm(a, h),
    kernel_name="sell_spmm",
    fallbacks=("csr", "dense"),
))

register_backend(Backend(
    name="tcgnn",
    operand_types=(TCGNNBlocked,),
    compress=lambda csr, pattern=None: TCGNNBlocked.from_csr(csr),
    model_time=lambda cm, a, h: cm.time_tcgnn_spmm(a, h),
    kernel_name="tcgnn_spmm",
    fallbacks=("csr", "dense"),
))

register_backend(Backend(
    name="dense",
    operand_types=(np.ndarray,),
    compress=lambda csr, pattern=None: csr.to_dense(),
    model_time=lambda cm, a, h: cm.time_dense_gemm(a.shape[0], a.shape[1], h),
    kernel_name="dense_gemm",
))
