"""Process-parallel batch reordering.

The collection-scale experiments (Tables 7/8, Fig. 4) reorder hundreds of
independent matrices — embarrassingly parallel work.  This module fans the
batch out over a process pool; each worker reorders its share and returns
compact summaries (permutation order + scores), keeping pickling cheap.

The same pattern covers the paper's §4.4 deployment note: per-partition
reordering of a distributed graph is independent per device.

Performance (see :mod:`repro.perf` and ``docs/performance.md``): by default
the batch's packed ``uint64`` words are published once through a
shared-memory segment (:class:`repro.perf.shm.SharedMatrixBatch`) and
workers attach zero-copy read-only views instead of unpickling a copy per
job; jobs are submitted in chunks to amortize executor round-trips; and a
persistent :class:`repro.perf.pool.WorkerPool` can be passed as ``pool=``
so repeated batches reuse warm workers instead of re-spawning a
``ProcessPoolExecutor`` every call.

Fault tolerance: a job that raises surfaces as a
:class:`~repro.pipeline.resilience.WorkerCrashError` carrying the batch
index (or is returned in place with ``return_exceptions=True``, so one bad
matrix no longer aborts the batch), and a worker process that dies —
``BrokenProcessPool`` — or hangs past the pool's job timeout has its lost
jobs resubmitted to a restarted pool, under the pool's
:class:`~repro.perf.pool.Supervisor`.
Shared-memory segments are disposed (closed **and** unlinked) on every exit
path, including raised faults and broken pools.  The
:mod:`repro.pipeline.faults` harness can script every failure kind
deterministically, including segment-creation failure (which exercises the
pickled-payload fallback).
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import CancelledError
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from .core.bitmatrix import BitMatrix
from .core.patterns import VNMPattern
from .core.permutation import Permutation
from .core.reorder import reorder
from .core.scores import improvement_rate
from .obs import trace as obs_trace
from .obs.trace import SpanRecord

__all__ = ["ReorderSummary", "reorder_many", "default_workers"]

logger = logging.getLogger("repro.parallel")


@dataclass
class ReorderSummary:
    """Picklable result of one reordering job.

    ``trace`` carries the job's span tree (a picklable
    :class:`~repro.obs.trace.SpanRecord`) when the parent had tracing
    enabled at submission time; the parent grafts it back into its live
    trace, so profiling survives the process-pool boundary.
    """

    index: int
    pattern: str
    order: np.ndarray
    initial_invalid_vectors: int
    final_invalid_vectors: int
    initial_mbscore: int
    final_mbscore: int
    iterations: int
    elapsed_seconds: float
    trace: SpanRecord | None = None

    @property
    def improvement_rate(self) -> float:
        return improvement_rate(self.initial_invalid_vectors, self.final_invalid_vectors)

    @property
    def conforms(self) -> bool:
        return self.final_invalid_vectors == 0 and self.final_mbscore == 0

    @property
    def permutation(self) -> Permutation:
        return Permutation(self.order)


def default_workers() -> int:
    """Respect ``REPRO_WORKERS`` if set, else leave one core free.

    A malformed ``REPRO_WORKERS`` (non-integer, or ``<= 0``) is logged and
    ignored rather than exploding deep inside a batch call.
    """
    fallback = max(1, (os.cpu_count() or 2) - 1)
    env = os.environ.get("REPRO_WORKERS")
    if not env:
        return fallback
    try:
        value = int(env)
    except ValueError:
        logger.warning(
            "ignoring non-integer REPRO_WORKERS=%r; using %d worker(s)",
            env, fallback,
        )
        return fallback
    if value < 1:
        logger.warning(
            "ignoring non-positive REPRO_WORKERS=%r; using %d worker(s)",
            env, fallback,
        )
        return fallback
    return value


def _crash_error(index: int, failure):
    from .pipeline.resilience import WorkerCrashError  # lazy: pipeline imports us

    detail = failure if isinstance(failure, str) else repr(failure)
    return WorkerCrashError(
        f"reorder job {index} failed in worker: {detail}", index=index
    )


# -- job payloads ---------------------------------------------------------
#
# A job tuple is (index, payload, pattern_tuple, kwargs, want_trace, fault).
# ``payload`` is either ("words", words, n_rows, n_cols) — the packed array
# pickled into the job (inline mode, or the fallback when shared memory is
# unavailable) — or ("shm", MatrixHandle) — a tiny pointer into a
# SharedMatrixBatch segment the worker attaches zero-copy.

def _materialize(payload) -> BitMatrix:
    kind = payload[0]
    if kind == "words":
        _, words, n_rows, n_cols = payload
        return BitMatrix(words, n_rows, n_cols)
    if kind == "shm":
        from .perf.shm import attach_bitmatrix

        return attach_bitmatrix(payload[1])
    raise ValueError(f"unknown job payload kind {kind!r}")


def _job(args) -> ReorderSummary:
    index, payload, pattern_tuple, kwargs, want_trace, fault = args
    if fault == "exit":
        # Injected hard crash: the worker dies, breaking the pool so the
        # parent's resubmission path runs.  Never taken outside inject().
        os._exit(13)
    if fault == "hang":
        # Injected hang: the worker wedges (far past any reasonable job
        # timeout) so the parent's hung-worker watchdog runs.  Bounded so a
        # watchdog-less caller still terminates eventually.
        import time as _time

        _time.sleep(float(os.environ.get("REPRO_FAULT_HANG_SECONDS", "30")))
        raise RuntimeError(f"injected worker hang on job {index} timed out")
    if fault == "raise":
        raise RuntimeError(f"injected worker fault on job {index}")
    bm = _materialize(payload)
    pattern = VNMPattern(*pattern_tuple)
    record = None
    if want_trace:
        # The worker records into its own local tracer; the finished (and
        # picklable) root record rides back on the summary so the parent can
        # graft it into the live trace.
        with obs_trace.use_tracer() as tracer:
            res = reorder(bm, pattern, **kwargs)
        if tracer.roots:
            record = tracer.roots[0]
            record.attrs["job"] = index
    else:
        res = reorder(bm, pattern, **kwargs)
    return ReorderSummary(
        index=index,
        pattern=str(pattern),
        order=res.permutation.order,
        initial_invalid_vectors=res.initial_invalid_vectors,
        final_invalid_vectors=res.final_invalid_vectors,
        initial_mbscore=res.initial_mbscore,
        final_mbscore=res.final_mbscore,
        iterations=res.iterations,
        elapsed_seconds=res.elapsed_seconds,
        trace=record,
    )


def _job_chunk(jobs: list) -> list:
    """Run a chunk of jobs in one worker round-trip.

    Per-job outcomes are ``("ok", summary)`` or ``("err", repr)`` so one
    soft failure never voids its chunk-mates; an ``"exit"`` fault still
    kills the whole worker (the parent resubmits the lost chunk).
    """
    out = []
    for job in jobs:
        try:
            out.append(("ok", _job(job)))
        except Exception as exc:  # noqa: BLE001 - marker crosses the pickle boundary
            out.append(("err", f"{exc!r}"))
    return out


def _restart_pool(pool, lost: list[int], *, kill: bool) -> None:
    """Restart ``pool`` after losing the jobs ``lost``.

    A refused restart — the pool's restart budget is spent — raises the
    supervisor's crash-loop error with the first lost job's ``index``, so
    :func:`~repro.pipeline.preprocess.preprocess_many` can name the graph.
    """
    from .pipeline.resilience import WorkerCrashError  # lazy: pipeline imports us

    try:
        pool.restart(kill=kill)
    except WorkerCrashError as exc:
        exc.context["index"] = lost[0]
        raise


def _default_chunk_size(n_jobs: int, workers: int) -> int:
    # ~4 chunks per worker balances round-trip amortization against
    # stragglers; capped so one chunk never hoards a giant batch.
    return max(1, min(16, math.ceil(n_jobs / (workers * 4))))


def reorder_many(
    matrices: list[BitMatrix],
    pattern: VNMPattern,
    *,
    n_workers: int | None = None,
    pool=None,
    use_shared_memory: bool | None = None,
    chunk_size: int | None = None,
    return_exceptions: bool = False,
    **reorder_kwargs,
) -> list:
    """Reorder a batch of matrices in parallel worker processes.

    Results come back in input order.  ``n_workers=1`` (or a single-item
    batch) runs inline — no pool overhead, easier debugging.

    ``pool`` accepts a persistent :class:`repro.perf.pool.WorkerPool`; the
    pool is *borrowed* (its workers stay warm for the next batch) and its
    size wins over ``n_workers``.  Without one, an ephemeral pool is built
    and torn down around the call — the pre-``repro.perf`` behaviour.

    ``use_shared_memory`` (default: on whenever jobs go to worker
    processes) publishes the packed words through one shared-memory
    segment so workers attach zero-copy views instead of unpickling
    copies; when the platform cannot provide shared memory the call falls
    back to pickled payloads with a log line, and the segment is always
    disposed — normal completion, job fault, or broken pool — before this
    function returns.  ``chunk_size`` groups jobs per submission to
    amortize executor round-trips (default: auto).

    A job that raises is re-raised as ``WorkerCrashError`` with the batch
    index attached; with ``return_exceptions=True`` the error object is
    returned at the job's position instead, so the rest of the batch
    survives.

    The pool's :class:`~repro.perf.pool.SupervisionPolicy` supervises the
    batch.  Its ``job_timeout`` arms the hung-worker watchdog: a chunk
    whose result does not arrive in time is counted as a timeout
    (``pool.stats.timeouts``, ``pool_job_timeouts_total``) and the worker
    processes are **killed** (``pool.restart(kill=True)`` — a hung worker
    cannot be cancelled).  Jobs lost to a hang or a dead worker
    (``BrokenProcessPool``) are resubmitted to the restarted pool until
    its windowed restart cap refuses a restart; that crash-loop
    ``WorkerCrashError`` carries the first lost job's ``index``.  The
    ephemeral pool allows 2 restarts and has no job timeout.
    """
    from .pipeline import faults  # lazy: pipeline imports us

    want_trace = obs_trace.tracing_enabled()
    if pool is not None:
        workers = pool.n_workers
    else:
        workers = default_workers() if n_workers is None else n_workers

    def _merge_traces(results: list) -> list:
        """Graft worker span records into the caller's live trace, in order."""
        for res in results:
            if isinstance(res, ReorderSummary):
                obs_trace.adopt(res.trace)
        return results

    def _make_job(i: int, payload) -> tuple:
        return (
            i, payload, (pattern.v, pattern.n, pattern.m, pattern.k),
            reorder_kwargs, want_trace, faults.worker_directive(i),
        )

    inline = (pool is None and workers <= 1) or len(matrices) <= 1
    if inline:
        jobs = [
            _make_job(i, ("words", bm.words, bm.n_rows, bm.n_cols))
            for i, bm in enumerate(matrices)
        ]
        with obs_trace.span("parallel.reorder_many", jobs=len(jobs), workers=1):
            results = []
            for job in jobs:
                if job[-1] in ("exit", "hang"):
                    # Inline mode has no worker process to kill (or watch);
                    # degrade the injected hard crash/hang to a soft failure.
                    job = job[:-1] + ("raise",)
                try:
                    results.append(_job(job))
                except Exception as exc:
                    failure = _crash_error(job[0], exc)
                    if not return_exceptions:
                        raise failure from exc
                    results.append(failure)
            return _merge_traces(results)

    from .perf.pool import SupervisionPolicy, WorkerPool
    from .perf.shm import SharedMatrixBatch
    from .pipeline.resilience import DeadlineExceeded

    shared = None
    if use_shared_memory is None or use_shared_memory:
        try:
            shared = SharedMatrixBatch.pack(matrices)
        except (OSError, ValueError, faults.InjectedFault) as exc:
            logger.warning(
                "shared-memory unavailable (%s); falling back to pickled "
                "job payloads", exc,
            )
    jobs = [
        _make_job(
            i,
            ("shm", shared.handles[i]) if shared is not None
            else ("words", bm.words, bm.n_rows, bm.n_cols),
        )
        for i, bm in enumerate(matrices)
    ]
    chunk = chunk_size or _default_chunk_size(len(jobs), workers)

    owns_pool = pool is None
    if owns_pool:
        pool = WorkerPool(workers, supervision=SupervisionPolicy(max_restarts=2))
    timeout = pool.supervision.job_timeout
    try:
        with obs_trace.span(
            "parallel.reorder_many", jobs=len(jobs), workers=workers,
            shared_memory=shared is not None, chunk_size=chunk,
        ):
            results: list = [None] * len(jobs)
            pending = list(range(len(jobs)))
            while pending:
                lost: list[int] = []
                killed = False
                futures = {}
                chunks = [pending[at:at + chunk] for at in range(0, len(pending), chunk)]
                for n_submitted, indices in enumerate(chunks):
                    try:
                        futures[pool.submit(_job_chunk, [jobs[i] for i in indices])] = indices
                    except BrokenProcessPool:
                        # A worker from an earlier chunk already died and
                        # broke the pool: this chunk and every chunk not yet
                        # submitted are lost with it.
                        for rest in chunks[n_submitted:]:
                            lost.extend(rest)
                        break
                for fut, indices in futures.items():
                    if killed and not fut.done():
                        lost.extend(indices)  # its worker died in the kill
                        continue
                    try:
                        outcomes = fut.result(timeout=timeout)
                    except (BrokenProcessPool, CancelledError):
                        lost.extend(indices)
                        continue
                    except FuturesTimeoutError:
                        # Hung worker: the chunk's jobs are lost and the
                        # worker holding them must be killed, not joined;
                        # the kill takes every unfinished chunk with it.
                        lost.extend(indices)
                        try:
                            pool.supervisor.timed_out(
                                timeout, lambda: _restart_pool(pool, lost, kill=True))
                        except DeadlineExceeded:
                            killed = True
                        continue
                    for i, outcome in zip(indices, outcomes):
                        if outcome[0] == "ok":
                            results[i] = outcome[1]
                        else:
                            failure = _crash_error(i, outcome[1])
                            if not return_exceptions:
                                raise failure
                            results[i] = failure
                if not lost:
                    break
                if not killed:
                    _restart_pool(pool, lost, kill=False)
                # Resubmit the lost jobs, stripping any injected fault
                # directive so the retry runs clean.
                for i in sorted(lost):
                    jobs[i] = jobs[i][:-1] + (None,)
                pending = sorted(lost)
            return _merge_traces(results)
    finally:
        if shared is not None:
            shared.dispose()
        if owns_pool:
            pool.close()
