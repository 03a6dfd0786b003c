"""repro.perf — the hot-path performance layer.

Three pieces, each consumed by the existing stack rather than replacing it:

* :mod:`repro.perf.engine` — the one SpMM execution path: an
  :class:`ExecutionPlan` per operand runs its exact CSR triplet through
  scipy.sparse's compiled CSR matmat (ndarrays: a BLAS GEMM) behind
  :func:`repro.perf.engine.execute`, which
  :class:`~repro.pipeline.serving.ServingSession`,
  :class:`~repro.gnn.layers.Aggregator` and
  :class:`~repro.sptc.device.EmulatedDevice` all run on;
* :mod:`repro.perf.shm` — zero-copy shared-memory transport for batch
  reordering: workers attach read-only views of the packed ``uint64``
  words instead of receiving pickled copies
  (:class:`SharedMatrixBatch`, used by :func:`repro.parallel.reorder_many`);
* :mod:`repro.perf.pool` — :class:`WorkerPool`, a persistent, restartable
  process pool with an explicit lifecycle, reused across
  ``reorder_many`` / ``preprocess_many`` calls (CLI ``--pool``), and
  :class:`Supervisor`, the one restart/timeout verdict of a
  :class:`SupervisionPolicy` (job timeouts, hung-worker kills, windowed
  crash-loop caps) that the pool and every process shard worker share.

See ``docs/performance.md`` for lifecycle rules, platform caveats and the
scaling benchmark (`benchmarks/bench_parallel_scaling.py`).
"""

from .engine import ExecutionPlan, build_plan, plan_for
from .pool import PoolStats, SupervisionPolicy, Supervisor, WorkerPool
from .shm import (
    SEGMENT_PREFIX,
    MatrixHandle,
    SharedMatrixBatch,
    attach_bitmatrix,
    create_segment,
    destroy_segment,
    invalidate_attachment,
    live_segments,
    sweep_leaked_segments,
)

__all__ = [
    "ExecutionPlan",
    "build_plan",
    "plan_for",
    "PoolStats",
    "SupervisionPolicy",
    "Supervisor",
    "WorkerPool",
    "MatrixHandle",
    "SharedMatrixBatch",
    "SEGMENT_PREFIX",
    "attach_bitmatrix",
    "create_segment",
    "destroy_segment",
    "invalidate_attachment",
    "live_segments",
    "sweep_leaked_segments",
]
