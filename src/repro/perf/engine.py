"""The one SpMM execution path: a scipy CSR plan for every operand.

Where aggregation *would* run on an A100 — sparse tensor cores for V:N:M,
CUDA cores for CSR — is decided by the compressed format and the cost
model (:func:`repro.pipeline.registry.model_spmm_time`), not by which host
kernel computes the numbers.  So every built-in format executes the same
way here: an :class:`ExecutionPlan` holds the operand's exact CSR triplet
(:meth:`to_coo` of the compressed format; the arrays themselves for a
:class:`~repro.sptc.csr.CSRMatrix`) and runs it with scipy.sparse's
compiled CSR matmat.  ndarray operands (the ``dense`` fallback rung and
the reference) run a BLAS GEMM.

The triplet and the scipy matrix over it are **scratch**: built on first
execute and dropped on pickling.  A plan's persistent state is only its
backend name and shape, so plan builds are O(1) (no plan build densifies
or walks the non-zeros), plans persist as tiny ``<key>.plan.pkl``
sidecars next to their operand in the
:class:`~repro.pipeline.cache.ArtifactCache`, and a loaded plan can never
disagree with the operand it serves.  ``dtype=np.float32`` selects an
opt-in fp32 compute path over a cached cast; :func:`fp32_within_bound`
guards it with the :mod:`repro.sptc.precision` row-scaled error model.

:func:`execute` is the integration point: it resolves the operand's plan
through a per-process id-keyed cache (``weakref.finalize`` eviction) and
runs it as the ``kernel`` of :func:`repro.pipeline.registry.run_kernel`,
so fault injection, breakers and the ``BackendExecutionError``
taxonomy cover planned execution.  This is the only host SpMM path for
the built-in formats: an operand is planned exactly when its registered
:class:`~repro.pipeline.registry.Backend` names no ``spmm`` kernel.  Only
operands whose backend does register one (the ``serving`` pseudo-backend,
third-party formats) run that kernel instead.
"""

from __future__ import annotations

import weakref

import numpy as np

__all__ = [
    "ExecutionPlan",
    "build_plan",
    "plan_for",
    "cached_plan",
    "adopt_plan",
    "clear_plan_cache",
    "execute",
    "fp32_within_bound",
]


def _backend_of(operand) -> str:
    """The registry backend name of a plannable ``operand``.

    ``TypeError`` when no backend handles the type, or when its backend
    registers its own kernel (:func:`execute` runs that kernel unplanned).
    """
    from ..pipeline import registry

    backend = registry.backend_for(operand)
    if backend.spmm is not None:
        raise TypeError(f"backend {backend.name!r} runs its own kernel; no execution plan")
    return backend.name


def _counters():
    from ..obs import metrics as obs_metrics

    reg = obs_metrics.default_registry()
    return (
        reg.counter("engine_plan_builds_total", help="execution plans built"),
        reg.counter("engine_plan_cache_hits_total", help="execution plan cache hits"),
    )


class ExecutionPlan:
    """How one operand executes: scipy CSR matmat, or a GEMM for ndarrays.

    Everything rebuildable lives in attributes prefixed with ``_``
    (scratch); ``__getstate__`` drops them.  Plans hold **no reference to
    their operand** — the operand is passed to :meth:`execute`, so a plan
    can outlive cache round-trips and be adopted by an equal operand
    loaded elsewhere (:func:`adopt_plan`).  Plans assume the operand's
    numeric content is immutable, which holds for everything the pipeline
    produces.
    """

    def __init__(self, backend: str, shape: tuple[int, int]):
        self.backend = backend
        self.shape = (int(shape[0]), int(shape[1]))

    @property
    def variant(self) -> str:
        """The host kernel: ``"gemm"`` for ndarrays, ``"csr"`` otherwise."""
        return "gemm" if self.backend == "dense" else "csr"

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def _operator(self, operand):
        """The float64 matrix the kernel multiplies (built once, cached)."""
        if self.backend == "dense":
            return np.asarray(operand, dtype=np.float64)
        matrix = getattr(self, "_matrix", None)
        if matrix is None:
            import scipy.sparse as sp

            if self.backend == "csr":
                triplet = (operand.data, operand.indices, operand.indptr)
            else:
                rows, cols, vals = operand.to_coo()
                triplet = (vals, (rows, cols))
            matrix = sp.csr_matrix(triplet, shape=self.shape)
            self._matrix = matrix
        return matrix

    def _operator32(self, operand):
        cast = getattr(self, "_matrix32", None)
        if cast is None:
            cast = self._operator(operand).astype(np.float32)
            self._matrix32 = cast
        return cast

    def execute(self, operand, b: np.ndarray, *, dtype=None) -> np.ndarray:
        """One SpMM ``operand @ b`` (float64 result either way)."""
        b = np.asarray(b, dtype=np.float64)
        if b.shape[0] != self.shape[1]:
            raise ValueError("inner dimension mismatch")
        if tuple(operand.shape) != self.shape:
            raise ValueError(
                f"plan shape {self.shape} does not match operand shape {operand.shape}"
            )
        if dtype == np.float32:
            out = self._operator32(operand) @ b.astype(np.float32)
            return np.asarray(out, dtype=np.float64)
        return np.asarray(self._operator(operand) @ b)

    def __repr__(self) -> str:
        return f"ExecutionPlan(backend={self.backend!r}, shape={self.shape})"


def build_plan(operand) -> ExecutionPlan:
    """A fresh plan for ``operand``; ``TypeError`` when unplannable."""
    return ExecutionPlan(_backend_of(operand), operand.shape)


# id-keyed plan cache: operand dataclasses define __eq__ (unhashable) but
# support weak references, so entries are keyed by id() and evicted by a
# weakref.finalize callback when the operand is collected.
_PLAN_CACHE: dict[int, ExecutionPlan] = {}


def plan_for(operand) -> ExecutionPlan:
    """The cached plan for ``operand``, building (and caching) on first use."""
    builds, hits = _counters()
    if isinstance(operand, np.ndarray):
        # ndarrays don't support weak references; their plan holds no
        # scratch worth keeping (the array itself is the operator).
        builds.inc()
        return build_plan(operand)
    plan = _PLAN_CACHE.get(id(operand))
    if plan is not None:
        hits.inc()
        return plan
    plan = build_plan(operand)
    builds.inc()
    _cache_plan(operand, plan)
    return plan


def _cache_plan(operand, plan: ExecutionPlan) -> None:
    oid = id(operand)
    try:
        weakref.finalize(operand, _PLAN_CACHE.pop, oid, None)
    except TypeError:
        return  # non-weakrefable operand: serve the plan uncached
    _PLAN_CACHE[oid] = plan


def cached_plan(operand) -> ExecutionPlan | None:
    """The already-built plan for ``operand``, or ``None`` (never builds)."""
    return _PLAN_CACHE.get(id(operand))


def adopt_plan(operand, plan: ExecutionPlan) -> ExecutionPlan:
    """Seed the plan cache with a plan built elsewhere (e.g. loaded from the
    :class:`~repro.pipeline.cache.ArtifactCache` next to its operand).

    Raises ``ValueError`` when the plan cannot belong to this operand and
    ``TypeError`` when the operand is unplannable.
    """
    backend = _backend_of(operand)
    if not isinstance(plan, ExecutionPlan) or plan.backend != backend:
        raise ValueError(
            f"{plan!r} cannot serve operand type {type(operand).__name__}"
        )
    if tuple(plan.shape) != tuple(operand.shape):
        raise ValueError(
            f"plan shape {plan.shape} does not match operand shape {operand.shape}"
        )
    _cache_plan(operand, plan)
    return plan


def clear_plan_cache() -> int:
    """Drop every cached plan (tests / memory pressure); returns the count."""
    n = len(_PLAN_CACHE)
    _PLAN_CACHE.clear()
    return n


def execute(operand, b: np.ndarray, *, dtype=None) -> np.ndarray:
    """One planned SpMM through the registry's kernel choke point.

    The one place that picks the kernel: operands whose backend registers
    its own kernel run that kernel, every other operand runs its plan;
    either way the call goes through
    :func:`~repro.pipeline.registry.run_kernel`, so fault injection and
    ``BackendExecutionError`` wrapping apply uniformly.
    """
    from ..pipeline import registry

    backend = registry.backend_for(operand)
    if backend.spmm is not None:
        kernel = backend.spmm
    else:
        plan = plan_for(operand)

        def kernel(a, x):
            return plan.execute(a, x, dtype=dtype)

    return registry.run_kernel(backend, operand, b, kernel=kernel)


def fp32_within_bound(operand, plan: ExecutionPlan | None = None, *,
                      h: int = 8, seed: int = 0, bound: float | None = None) -> bool:
    """Probe whether the fp32 path stays inside the precision-model bound.

    Runs the plan once in float64 and once in float32 on a seeded random B
    and compares the row-scaled error (the :mod:`repro.sptc.precision`
    normalization) against ``FP32_ROW_SCALED_BOUND``.
    """
    from ..sptc import precision

    if bound is None:
        bound = precision.FP32_ROW_SCALED_BOUND
    if plan is None:
        plan = plan_for(operand)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((operand.shape[1], h))
    exact = plan.execute(operand, b)
    approx = plan.execute(operand, b, dtype=np.float32)
    return precision.row_scaled_error(exact, approx) <= bound
