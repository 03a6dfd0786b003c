"""The one SpMM execution path, and one helper pool for row-parallel work.

Where aggregation *would* run on an A100 — sparse tensor cores for V:N:M,
CUDA cores for CSR — is decided by the compressed format and the cost
model (:func:`repro.pipeline.registry.model_spmm_time`), not by which host
kernel computes the numbers.  So every built-in format executes the same
way here: an :class:`ExecutionPlan` holds the operand's exact CSR triplet
(:meth:`to_coo` of the compressed format; the arrays themselves for a
:class:`~repro.sptc.csr.CSRMatrix`) and runs it with scipy.sparse's
compiled CSR matmat.  ndarray operands (the ``dense`` fallback rung and
the reference) run the dense kernel, :func:`matmul`.

One pool, two block kernels.  :func:`parallel_rows` is the one entry
point for row-parallel work: it cuts an output into row blocks, and the
calling thread plus one process-wide pool of helper threads claim blocks
until none is left, each block written into its own rows of one
preallocated output.  Two block kernels run through it:

* **CSR** — above ``PARALLEL_MIN_WORK`` (non-zeros × feature columns) a
  plan's rows are cut into contiguous blocks of about equal non-zeros,
  and each block runs scipy's ``csr_matvecs`` (which releases the GIL)
  on a row slice of the plan's triplet, zero-filling its rows first.
* **Dense** — above ``DENSE_PARALLEL_MIN_WORK`` (m·k·n), :func:`matmul`
  cuts ``a @ b`` over the rows of ``a`` (for ``x.T @ dy``, the columns
  of ``x``) on multiples of ``DENSE_ROW_ALIGN`` rows, and each block is
  one BLAS call (which releases the GIL too).  Only when the BLAS
  library runs one thread itself (:func:`blas_threads`); a threaded BLAS
  already uses every core.  The GNN update phase
  (:class:`repro.gnn.linear.Linear`, :meth:`EmulatedDevice.gemm
  <repro.sptc.device.EmulatedDevice.gemm>`) runs every product here.

Neither kernel splits a sum: a CSR row, and a dense output element's
whole K-sum, are computed by one call whichever thread runs it, so
outputs are bitwise the serial kernel's.  Blocks are ``BLOCKS_PER_CORE``
per usable core.  The usable cores come from the process's CPU affinity
(``taskset``/cgroup cpusets cap them); on one core, and below either
work threshold, a kernel runs as one call on the caller.  The caller
never waits for a helper that has not started: it runs every unclaimed
block itself, so concurrent callers (router lanes) cannot stall one
another.  Nor does it wait long for a helper that has stopped running
mid-block: after ``STALL_BLOCKS`` of its own block times it recomputes
that block into a copy of the finished rows, so a caller's latency does
not hang on whether a second CPU is free at that moment.  The helper
pool is shut down before every ``fork`` and restarted lazily on next
use, in the parent and in the child.

A permuted request runs in the caller's vertex order with no copy:
``execute(..., order=)`` returns ``out[order] = A @ b[order]`` (the
serving session's gather → SpMM → scatter) as one kernel pass over a
**folded** triplet, where original row ``r`` holds reordered row
``inv[r]``'s entries in the same sequence and column ``j`` becomes
``order[j]``.  The products and each row's summation order are the
unfolded kernel's, so outputs are bitwise equal for any float input.

The triplet, the folded triplet of the latest ``order``, and each
one's fp32 cast and row-block bounds are **scratch**: built on first
execute and dropped on pickling.  A plan's persistent
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
    "matmul",
    "parallel_rows",
    "blas_threads",
    "fp32_within_bound",
    "usable_cores",
    "PARALLEL_MIN_WORK",
    "BLOCKS_PER_CORE",
    "STALL_BLOCKS",
    "DENSE_PARALLEL_MIN_WORK",
    "DENSE_ROW_ALIGN",
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
# Below this much work (m·k·n) a dense product runs as one BLAS call on
# the caller.  From benchmarks/bench_spmm_engine.py's dense sweep on a
# 2-core host, BLAS at one thread, over three runs: split took 0.90-1.06x
# one call at 4.2M, up to 1.16x at 6.3M (x.T @ dy with 5 output columns
# never won), and 0.47-0.93x from 8.4M up.
DENSE_PARALLEL_MIN_WORK = 1 << 23
# Dense row blocks are cut on multiples of this many rows, a multiple of
# the row tiles of OpenBLAS's x86-64 dgemm kernels (2 to 24 rows).  A cut
# inside a tile sends the rows before it through an edge kernel that can
# sum in another order; with aligned cuts float outputs came out bitwise
# equal to the unsplit product on every kernel tried (Haswell, SkylakeX,
# Cooperlake, SapphireRapids, Zen).
DENSE_ROW_ALIGN = 48
_THREAD_PREFIX = "repro-engine-"


def usable_cores() -> int:
    """CPUs this process may run on (its affinity mask; ``taskset`` caps it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


class _RowJob:
    """One output's row blocks, claimed one at a time by whichever thread asks.

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


# The process-wide helper pool: started on the first row-parallel job, shut
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


def parallel_rows(out: np.ndarray, run, blocks) -> np.ndarray:
    """Fill ``out`` by ``run(target, lo, hi)`` over row blocks on every usable core.

    The one entry point for row-parallel work: both block kernels (CSR
    :meth:`ExecutionPlan._matmat` and dense :func:`matmul`) run through
    it, on one helper pool with one claim loop and one ``STALL_BLOCKS``
    recompute rule.  ``blocks(n)`` returns the row bounds of at most
    ``n`` blocks.  Returns ``out``, or a new array holding the same rows
    when a stalled helper's block was recomputed (see :class:`_RowJob`).
    On one usable core, or when ``blocks`` gives one block, ``run`` fills
    ``out`` in one call on the caller.
    """
    pool = _helper_pool()
    bounds = None if pool is None else blocks(BLOCKS_PER_CORE * (len(pool.threads) + 1))
    if bounds is None or len(bounds) < 3:
        run(out, 0, len(out))
        return out
    job = _RowJob(bounds, run, out)
    for _ in range(min(len(pool.threads), len(bounds) - 2)):
        pool.jobs.put(job)
    return job.result()


# -- the dense block kernel ----------------------------------------------------------

# ``<library>_get_num_threads`` of the BLAS builds numpy ships with or links to.
_BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads",
                        "MKL_Get_Max_Threads", "bli_thread_get_num_threads")
_blas_getters: list | None = None


def _find_blas_getters() -> list:
    """The thread-count getter of every BLAS library mapped into this process."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:  # Linux; elsewhere no BLAS is found
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    paths = {f[5].strip() for f in fields if len(f) == 6}
    getters = []
    for path in sorted(paths):
        name = os.path.basename(path).lower()
        if not any(tag in name for tag in ("blas", "mkl_rt", "blis")):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, ()
                getters.append(getter)
                break
    return getters


def blas_threads() -> int | None:
    """Threads one BLAS call may use: the most any loaded BLAS library reports.

    ``None`` when no known BLAS library is found.  Asked on every large
    :func:`matmul`, so a thread limit set at run time counts.
    """
    global _blas_getters
    if _blas_getters is None:
        _blas_getters = _find_blas_getters()
    return max((int(get()) for get in _blas_getters), default=None)


def _dense_blocks(m: int, n_blocks: int) -> list[int]:
    """Row bounds of at most ``n_blocks`` blocks of ~equal rows: whole
    ``DENSE_ROW_ALIGN``-row units, the last block taking the remainder."""
    units = m // DENSE_ROW_ALIGN
    n_blocks = max(1, min(n_blocks, units))
    return [DENSE_ROW_ALIGN * (i * units // n_blocks) for i in range(n_blocks)] + [m]


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``: the engine's dense block kernel.

    Above ``DENSE_PARALLEL_MIN_WORK`` (m·k·n) a product of two 2-D float
    arrays of one dtype splits over the rows of ``a`` (for ``x.T @ dy``,
    the columns of ``x``) and runs its blocks through
    :func:`parallel_rows`.  Each block is one BLAS call
    ``a[lo:hi] @ b`` written into its own rows of the output, so every
    output element keeps its whole K-sum inside one BLAS call.  Below
    the threshold, for any other operands, and when the BLAS library
    itself runs more than one thread (or cannot be asked), it is the
    plain ``a @ b`` on the caller; so are operands that share memory,
    for which numpy may call another BLAS routine (``x.T @ x`` runs SYRK).
    """
    if (a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0] or a.dtype != b.dtype
            or a.dtype not in (np.float32, np.float64) or np.may_share_memory(a, b)
            or a.shape[0] * a.shape[1] * b.shape[1] < DENSE_PARALLEL_MIN_WORK
            or blas_threads() != 1):
        return a @ b
    m = a.shape[0]
    out = np.empty((m, b.shape[1]), dtype=a.dtype)

    def rows(target: np.ndarray, lo: int, hi: int) -> None:
        np.matmul(a[lo:hi], b, out=target[lo:hi])

    return parallel_rows(out, rows, lambda n_blocks: _dense_blocks(m, n_blocks))


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


class _Triplet:
    """One CSR triplet a plan runs, with its fp32 cast and row-block bounds.

    Both are cached on first use, per triplet: a folded triplet's rows hold
    other non-zeros than the unfolded one's, so it gets its own cuts.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray):
        self.indptr, self.indices, self.data = indptr, indices, data
        self._data32: np.ndarray | None = None
        self._bounds: list[int] | None = None

    def values(self, dtype=None) -> np.ndarray:
        """The values, or their cached float32 cast for ``dtype=np.float32``."""
        if dtype != np.float32:
            return self.data
        if self._data32 is None:
            self._data32 = self.data.astype(np.float32)
        return self._data32

    def blocks(self, n_blocks: int) -> list[int]:
        if self._bounds is None:
            self._bounds = _row_blocks(self.indptr, n_blocks)
        return self._bounds


def _fold(base: _Triplet, order: np.ndarray) -> tuple[np.ndarray, _Triplet]:
    """``(order, folded triplet)``: ``base`` relabelled into the caller's order.

    For ``A' = base`` and ``inv`` the inverse of ``order``, original row
    ``r`` takes reordered row ``inv[r]``'s entries in the same sequence,
    and column ``j`` becomes ``order[j]``; so ``folded @ b`` is
    ``out[order] = A' @ b[order]`` in one pass.
    """
    n = len(order)
    if order.dtype.kind not in "iu" or (n and (order.min() < 0 or order.max() >= n)):
        raise ValueError("order is not a permutation of the operand's rows")
    inv = np.full(n, -1, dtype=np.int64)
    inv[order] = np.arange(n)
    if (inv < 0).any():
        raise ValueError("order is not a permutation of the operand's rows")
    indptr, indices, data = base.indptr, base.indices, base.data
    counts = np.diff(indptr)[inv]
    folded_ptr = np.zeros(n + 1, dtype=indptr.dtype)
    np.cumsum(counts, out=folded_ptr[1:])
    src = np.arange(indptr[-1], dtype=np.int64)
    src += np.repeat(indptr[inv] - folded_ptr[:-1], counts)
    if order.flags.writeable:  # keyed by a copy; a read-only order by identity
        order = np.array(order)
        order.setflags(write=False)
    return order, _Triplet(folded_ptr, order[indices[src]].astype(indices.dtype), data[src])


def _permuted(kernel, b, order) -> np.ndarray:
    """``kernel(b)``, or with ``order`` the gathered-and-scattered
    ``out[order] = kernel(b[order])``: for operands with no triplet to fold."""
    if order is None:
        return kernel(b)
    out = kernel(np.asarray(b)[order])
    restored = np.empty_like(out)
    restored[order] = out
    return restored


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

    def _triplet(self, operand, order=None) -> _Triplet:
        """The operand's exact CSR triplet (cached); folded by ``order`` when given.

        One folded triplet is cached per plan, for the latest ``order``:
        a session serves one permutation for its whole life.  A read-only
        ``order`` (a :class:`~repro.core.permutation.Permutation`'s) is
        matched by identity, any other by value.
        """
        base = getattr(self, "_csr", None)
        if base is None:
            import scipy.sparse as sp

            if self.backend == "csr":
                source = (operand.data, operand.indices, operand.indptr)
            else:
                rows, cols, vals = operand.to_coo()
                source = (vals, (rows, cols))
            matrix = sp.csr_matrix(source, shape=self.shape, dtype=np.float64)
            base = _Triplet(matrix.indptr, matrix.indices, matrix.data)
            self._csr = base
        if order is None:
            return base
        fold = getattr(self, "_fold", None)
        if fold is None or not (fold[0] is order or np.array_equal(fold[0], order)):
            fold = _fold(base, order)
            self._fold = fold
        return fold[1]

    def _matmat(self, indptr, indices, data, b: np.ndarray, blocks) -> np.ndarray:
        """``A @ b`` for the CSR triplet, in row blocks when the work is large.

        ``blocks(n)`` gives the row bounds of at most ``n`` blocks (the
        triplet's cached :meth:`_Triplet.blocks`).
        """
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

        if data.size * h >= PARALLEL_MIN_WORK and n_rows > 1:
            out = parallel_rows(out, rows, blocks)
        else:
            rows(out, 0, n_rows)
        return out[:, 0] if b.ndim == 1 else out

    def execute(self, operand, b: np.ndarray, *, dtype=None, order=None) -> np.ndarray:
        """One SpMM ``operand @ b`` (float64 result either way).

        With ``order`` (a permutation of the rows, in gather form) it
        returns what gather → execute → scatter returns, ``out[order] =
        operand @ b[order]``, as one kernel pass over the folded triplet:
        no copy of ``b`` or of the output.  The products and each row's
        summation order are the unfolded kernel's, so the output is
        bitwise equal for any float input.  The ``dense`` plan has no
        triplet and gathers and scatters around its product.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2) or b.shape[0] != self.shape[1]:
            raise ValueError("inner dimension mismatch")
        if tuple(operand.shape) != self.shape:
            raise ValueError(
                f"plan shape {self.shape} does not match operand shape {operand.shape}"
            )
        if order is not None:
            order = np.asarray(order)
            if self.shape[0] != self.shape[1] or order.shape != (self.shape[0],):
                raise ValueError(f"order of shape {order.shape} cannot permute a "
                                 f"{self.shape[0]}x{self.shape[1]} operand")
        if self.backend == "dense":
            a = np.asarray(operand, dtype=np.float64)
            if dtype == np.float32:
                a32 = a.astype(np.float32)
                return _permuted(lambda x: matmul(a32, x.astype(np.float32)), b,
                                 order).astype(np.float64)
            return _permuted(lambda x: matmul(a, x), b, order)
        triplet = self._triplet(operand, order)
        out = self._matmat(triplet.indptr, triplet.indices, triplet.values(dtype), b,
                           triplet.blocks)
        return out.astype(np.float64) if dtype == np.float32 else out

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


def execute(operand, b: np.ndarray, *, dtype=None, order=None) -> np.ndarray:
    """One planned SpMM through the registry's kernel choke point.

    The one place that picks the kernel: operands whose backend registers
    its own kernel run that kernel, every other operand runs its plan;
    either way the call goes through
    :func:`~repro.pipeline.registry.run_kernel`, so fault injection and
    ``BackendExecutionError`` wrapping apply uniformly.  ``order`` (a
    permutation in gather form) returns ``out[order] = operand @
    b[order]``: a plan folds it into its triplet (:meth:`ExecutionPlan.
    execute`), and a registered kernel runs between a gather and a
    scatter, the only place left that copies for it.
    """
    from ..pipeline import registry

    backend = registry.backend_for(operand)
    if backend.spmm is not None:
        spmm = backend.spmm

        def kernel(a, x):
            return _permuted(lambda y: spmm(a, y), x, order)
    else:
        plan = plan_for(operand)

        def kernel(a, x):
            return plan.execute(a, x, dtype=dtype, order=order)

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
