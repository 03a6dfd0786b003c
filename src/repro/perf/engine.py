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

The CSR kernel is row-parallel: above ``PARALLEL_MIN_WORK`` (non-zeros ×
feature columns) a plan splits its rows into contiguous blocks of about
equal non-zeros (``BLOCKS_PER_CORE`` per usable core), and the calling
thread plus one process-wide pool of helper threads claim blocks until
none is left.  Each block runs scipy's ``csr_matvecs`` (which releases
the GIL) on a row slice of the plan's triplet and writes, zero-filled
first, only its own rows of one preallocated output.  A row is summed in
the same order whichever thread runs it, so the result is bitwise the
serial kernel's.  The usable cores come from the process's CPU affinity
(``taskset``/cgroup cpusets cap them); on one core, and below the work
threshold, the kernel runs as one block on the caller.  The caller never
waits for a helper that has not started: it runs every unclaimed block
itself, so concurrent callers (router lanes) cannot stall one another.
Nor does it wait long for a helper that has stopped running mid-block:
after ``STALL_BLOCKS`` of its own block times it recomputes that block
into a copy of the finished rows, so a request's latency does not hang
on whether a second CPU is free at that moment.  The helper pool is
shut down before every ``fork`` and restarted lazily on next use, in
the parent and in the child.

The triplet, its fp32 cast and the row-block bounds are **scratch**:
built on first execute and dropped on pickling.  A plan's persistent
state is only its backend name and shape, so plan builds are O(1) (no
plan build densifies or walks the non-zeros), plans persist as tiny
``<key>.plan.pkl`` sidecars next to their operand in the
:class:`~repro.pipeline.cache.ArtifactCache`, and a loaded plan can never
disagree with the operand it serves.  ``dtype=np.float32`` selects an
opt-in fp32 compute path (the same kernel over a cached cast of the
values); :func:`fp32_within_bound` guards it with the
:mod:`repro.sptc.precision` row-scaled error model.

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

import os
import queue
import threading
import time
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
    "usable_cores",
    "PARALLEL_MIN_WORK",
    "BLOCKS_PER_CORE",
    "STALL_BLOCKS",
]

# Below this much work (stored non-zeros × feature columns) handing row
# blocks to helper threads costs more than it saves, so the kernel runs as
# one block on the caller.  From benchmarks/bench_spmm_engine.py's size
# sweep on a 2-core host (BENCH_spmm_engine.json): parallel took 1.1-1.9x
# the serial time up to 0.67M and 0.65x from 1.34M up.
PARALLEL_MIN_WORK = 1 << 20
# Row blocks per usable core: enough that a core slowed by another
# process or a concurrent request leaves its share to the others.
BLOCKS_PER_CORE = 4
# How long, in the caller's own time per block, the caller waits for a
# block a helper still holds before recomputing it itself.  A running
# helper finishes within about one block; one that has lost its CPU can
# hold a block for many milliseconds.
STALL_BLOCKS = 2
_THREAD_PREFIX = "repro-engine-"


def usable_cores() -> int:
    """CPUs this process may run on (its affinity mask; ``taskset`` caps it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


class _RowJob:
    """One SpMM's row blocks, claimed one at a time by whichever thread asks.

    ``run(target, lo, hi)`` computes rows ``[lo, hi)`` of ``target``; a
    claimed block is written into ``out``.  The caller works through the
    blocks too and then finishes the job in :meth:`result`, so a helper
    that never starts delays nothing, and a helper that has stopped
    running mid-block (its CPU taken by another thread, or by another
    guest on a shared host) delays the caller by about ``STALL_BLOCKS``
    blocks only: the caller then recomputes that block into a copy of
    the finished rows and leaves ``out`` to the stalled helper.
    """

    def __init__(self, bounds: list[int], run, out: np.ndarray):
        self._bounds = bounds
        self._run = run
        self._out = out
        self._next = 0
        self._left = len(bounds) - 1
        self._held: set[int] = set()  # claimed, not finished
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._errors: list[BaseException] = []

    def _claim(self) -> int | None:
        with self._lock:
            i = self._next
            if i >= len(self._bounds) - 1:
                return None
            self._next = i + 1
            self._held.add(i)
            return i

    def work(self) -> int:
        """Run blocks until none is left to claim; how many ran here."""
        ran = 0
        while (i := self._claim()) is not None:
            error = None
            try:
                self._run(self._out, self._bounds[i], self._bounds[i + 1])
            except BaseException as exc:  # handed to the caller by result()
                error = exc
                if not isinstance(exc, Exception):
                    raise
            finally:
                with self._lock:
                    self._held.discard(i)
                    if error is not None:
                        self._errors.append(error)
                    self._left -= 1
                    if self._left == 0:
                        self._done.set()
            ran += 1
        return ran

    def result(self) -> np.ndarray:
        """Work on the caller's thread, then return the finished output.

        Re-raises a block's failure.  Blocks a helper still holds after
        ``STALL_BLOCKS`` times the caller's own time per block are
        recomputed here, into a new array (see the class docstring).
        """
        start = time.perf_counter()
        ran = self.work()
        grace = STALL_BLOCKS * (time.perf_counter() - start) / max(ran, 1)
        if self._done.wait(grace):
            errors, stalled = self._errors, []
        else:
            with self._lock:
                errors, stalled = list(self._errors), sorted(self._held)
        if errors:
            raise errors[0]
        if not stalled:
            return self._out
        out = np.empty_like(self._out)
        lo = 0
        for i in stalled:
            out[lo:self._bounds[i]] = self._out[lo:self._bounds[i]]
            self._run(out, self._bounds[i], self._bounds[i + 1])
            lo = self._bounds[i + 1]
        out[lo:] = self._out[lo:]
        return out


class _HelperPool:
    """Daemon threads that work on every :class:`_RowJob` put on their queue."""

    def __init__(self, size: int):
        self.jobs: queue.SimpleQueue = queue.SimpleQueue()
        self.threads = [
            threading.Thread(target=self._loop, name=f"{_THREAD_PREFIX}{i}", daemon=True)
            for i in range(size)
        ]
        for thread in self.threads:
            thread.start()

    def _loop(self) -> None:
        while (job := self.jobs.get()) is not None:
            job.work()

    def close(self) -> None:
        for _ in self.threads:
            self.jobs.put(None)
        for thread in self.threads:
            thread.join()


# The process-wide helper pool: started on the first parallel SpMM, shut
# down before a fork (a forked child has none of its threads, and forking
# with live threads is unsafe) and started again lazily afterwards.
_POOL: _HelperPool | None = None
_POOL_LOCK = threading.Lock()


def _helper_pool() -> _HelperPool | None:
    """The running helper pool, started on demand; ``None`` on one core."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            size = usable_cores() - 1
            if size < 1:
                return None
            _POOL = _HelperPool(size)
        return _POOL


def _before_fork() -> None:
    global _POOL
    _POOL_LOCK.acquire()  # held across the fork: no pool starts meanwhile
    if _POOL is not None:
        _POOL.close()
        _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_before_fork, after_in_parent=_POOL_LOCK.release,
                        after_in_child=_POOL_LOCK.release)


def _row_blocks(indptr: np.ndarray, n_blocks: int) -> list[int]:
    """Row bounds of at most ``n_blocks`` contiguous blocks of ~equal nnz."""
    n_rows = len(indptr) - 1
    cuts = np.searchsorted(indptr, np.linspace(0, indptr[-1], n_blocks + 1))
    cuts[0], cuts[-1] = 0, n_rows
    return np.unique(cuts).tolist()


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

    def _triplet(self, operand):
        """The operand's exact CSR ``(indptr, indices, float64 data)`` (cached)."""
        triplet = getattr(self, "_csr", None)
        if triplet is None:
            import scipy.sparse as sp

            if self.backend == "csr":
                source = (operand.data, operand.indices, operand.indptr)
            else:
                rows, cols, vals = operand.to_coo()
                source = (vals, (rows, cols))
            matrix = sp.csr_matrix(source, shape=self.shape, dtype=np.float64)
            triplet = (matrix.indptr, matrix.indices, matrix.data)
            self._csr = triplet
        return triplet

    def _data32(self, data: np.ndarray) -> np.ndarray:
        cast = getattr(self, "_values32", None)
        if cast is None:
            cast = data.astype(np.float32)
            self._values32 = cast
        return cast

    def _matmat(self, indptr, indices, data, b: np.ndarray) -> np.ndarray:
        """``A @ b`` for the CSR triplet, in row blocks when the work is large."""
        from scipy.sparse import _sparsetools  # lazily, like scipy.sparse itself

        x = np.ascontiguousarray(b[:, None] if b.ndim == 1 else b, dtype=data.dtype)
        n_rows, n_cols = self.shape
        h = x.shape[1]
        out = np.empty((n_rows, h), dtype=data.dtype)
        flat_x = x.ravel()

        def rows(target: np.ndarray, lo: int, hi: int) -> None:
            block = target[lo:hi]
            block.fill(0)
            _sparsetools.csr_matvecs(hi - lo, n_cols, h, indptr[lo:hi + 1], indices,
                                     data, flat_x, block.ravel())

        pool = None
        if data.size * h >= PARALLEL_MIN_WORK and n_rows > 1:
            pool = _helper_pool()
        if pool is None:
            rows(out, 0, n_rows)
        else:
            bounds = getattr(self, "_bounds", None)
            if bounds is None:
                bounds = _row_blocks(indptr, BLOCKS_PER_CORE * (len(pool.threads) + 1))
                self._bounds = bounds
            job = _RowJob(bounds, rows, out)
            for _ in range(min(len(pool.threads), len(bounds) - 2)):
                pool.jobs.put(job)
            out = job.result()
        return out[:, 0] if b.ndim == 1 else out

    def execute(self, operand, b: np.ndarray, *, dtype=None) -> np.ndarray:
        """One SpMM ``operand @ b`` (float64 result either way)."""
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2) or b.shape[0] != self.shape[1]:
            raise ValueError("inner dimension mismatch")
        if tuple(operand.shape) != self.shape:
            raise ValueError(
                f"plan shape {self.shape} does not match operand shape {operand.shape}"
            )
        if self.backend == "dense":
            a = np.asarray(operand, dtype=np.float64)
            if dtype == np.float32:
                return (a.astype(np.float32) @ b.astype(np.float32)).astype(np.float64)
            return a @ b
        indptr, indices, data = self._triplet(operand)
        if dtype == np.float32:
            out = self._matmat(indptr, indices, self._data32(data), b)
            return out.astype(np.float64)
        return self._matmat(indptr, indices, data, b)

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
