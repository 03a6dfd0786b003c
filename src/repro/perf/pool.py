"""A persistent, reusable process pool with an explicit lifecycle.

``reorder_many`` used to build a fresh ``ProcessPoolExecutor`` per call and
tear it down on exit — for a serving deployment that preprocesses batch
after batch (paper §4.4, "reorder once, serve many"), the spawn cost is
pure overhead paid every time.  :class:`WorkerPool` keeps the workers warm
across calls:

    with WorkerPool(4) as pool:
        pool.warm()                      # optional: pre-spawn the workers
        for batch in batches:
            reorder_many(batch, pattern, pool=pool)

The pool is lazy (no processes until the first submission), restartable
(``restart()`` swaps in a fresh executor after a ``BrokenProcessPool`` —
the resubmission machinery in ``reorder_many`` drives this), and owns an
explicit ``close()``/context-manager lifecycle so tests and CLIs never
leak worker processes.  :attr:`stats` counts spawns/jobs/restarts for the
observability layer and the scaling benchmark.

Supervision (:class:`SupervisionPolicy`) adds the watchdog a serving
deployment needs: :meth:`run` bounds each job with a timeout, a hung
worker is **killed** (``restart(kill=True)`` terminates the worker
processes outright — ``shutdown`` alone would wait on them forever) and
the job resubmitted, and a windowed restart cap turns a crash-looping pool
into a :class:`~repro.pipeline.resilience.WorkerCrashError` instead of an
infinite kill/respawn cycle.  All lifecycle transitions are guarded by an
``RLock``: any other thread can drive submissions concurrently with the
owning thread's restarts.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass

from ..obs.metrics import default_registry
from . import shm

__all__ = ["PoolStats", "RestartWindow", "SupervisionPolicy", "WorkerPool"]

logger = logging.getLogger("repro.perf.pool")


@dataclass
class PoolStats:
    """Lifecycle accounting for one :class:`WorkerPool`."""

    spawns: int = 0
    restarts: int = 0
    jobs: int = 0
    timeouts: int = 0
    kills: int = 0


@dataclass(frozen=True)
class SupervisionPolicy:
    """Watchdog knobs for a supervised :class:`WorkerPool`.

    ``job_timeout`` bounds one job's wall-clock seconds before the worker
    is presumed hung (``None`` disables the watchdog).  ``max_restarts``
    within ``restart_window`` seconds is the crash-loop cap: one more
    restart inside the window raises
    :class:`~repro.pipeline.resilience.WorkerCrashError` instead of
    respawning — a pool whose workers die on arrival must surface, not
    burn CPU forever.  ``backoff`` sleeps ``backoff * 2**k`` (capped at
    ``max_backoff``) before the k-th restart in the current window, giving
    a transiently-sick host room to recover.
    """

    job_timeout: float | None = None
    max_restarts: int = 16
    restart_window: float = 60.0
    backoff: float = 0.0
    max_backoff: float = 1.0

    def __post_init__(self):
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ValueError("job_timeout must be positive (or None)")
        if self.max_restarts < 1:
            raise ValueError("max_restarts must be >= 1")
        if self.restart_window <= 0:
            raise ValueError("restart_window must be positive")
        if self.backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff values must be non-negative")


class RestartWindow:
    """Windowed restart accounting: crash-loop detection plus backoff.

    The supervision logic every restartable worker shares — the pool's
    executor and each :class:`~repro.pipeline.procshard.ProcessShardWorker`
    lane alike: restarts recorded inside ``policy.restart_window`` seconds
    count toward ``policy.max_restarts``; :attr:`exhausted` means the next
    restart must surface as a crash instead of respawning, and
    :meth:`backoff_seconds` gives the exponential pre-restart delay for
    the *current* window depth.  Thread-safe; callers still decide what a
    cap breach raises (the pool and the shard worker both raise
    :class:`~repro.pipeline.resilience.WorkerCrashError`).
    """

    def __init__(self, policy: SupervisionPolicy):
        self.policy = policy
        self._times: deque[float] = deque()
        self._lock = threading.Lock()

    def prune(self, now: float | None = None) -> int:
        """Drop restarts older than the window; returns the live count."""
        now = time.monotonic() if now is None else now
        with self._lock:
            while self._times and now - self._times[0] > self.policy.restart_window:
                self._times.popleft()
            return len(self._times)

    @property
    def count(self) -> int:
        return self.prune()

    @property
    def exhausted(self) -> bool:
        """Whether the windowed cap is hit — the next restart is a crash."""
        return self.prune() >= self.policy.max_restarts

    def backoff_seconds(self) -> float:
        """Exponential delay before the next restart in this window."""
        if not self.policy.backoff:
            return 0.0
        return min(self.policy.backoff * 2 ** self.prune(),
                   self.policy.max_backoff)

    def record(self, now: float | None = None) -> None:
        """Count one restart at ``now`` (after any backoff sleep)."""
        now = time.monotonic() if now is None else now
        with self._lock:
            self._times.append(now)


def _noop() -> None:
    """Submitted by :meth:`WorkerPool.warm` to force worker spawn."""


def _worker_init() -> None:
    """Initializer for every fresh worker generation.

    A forked worker inherits the parent's (or the previous generation's)
    shared-memory attach memo; those entries hold mappings of segments the
    new generation never attached — drop them so the memo only ever caches
    this worker's own attachments.
    """
    shm.detach_all()


class WorkerPool:
    """Lazily-spawned, restartable, explicitly-closed process pool.

    Thread-safe: every lifecycle transition (spawn, submit, restart,
    close) holds one reentrant lock, so a flush-timer thread submitting
    while the main thread restarts after a crash can never race a
    half-built executor.
    """

    def __init__(self, n_workers: int | None = None, *, mp_context=None,
                 supervision: SupervisionPolicy | None = None):
        from ..parallel import default_workers  # lazy: parallel imports us

        self.n_workers = default_workers() if n_workers is None else max(1, n_workers)
        self._mp_context = mp_context
        self._executor: ProcessPoolExecutor | None = None
        self._closed = False
        self._lock = threading.RLock()
        self.supervision = supervision or SupervisionPolicy()
        self._restarts = RestartWindow(self.supervision)
        self.stats = PoolStats()

    # -- lifecycle ---------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Whether an executor currently exists (workers may be spawned)."""
        return self._executor is not None

    @property
    def crash_looping(self) -> bool:
        """Whether the pool is at its windowed restart cap *right now* —
        the next :meth:`restart` would raise
        :class:`~repro.pipeline.resilience.WorkerCrashError`.  ``/healthz``
        turns this into a 503."""
        return self._restarts.exhausted

    def _ensure(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.n_workers, mp_context=self._mp_context,
                    initializer=_worker_init,
                )
                self.stats.spawns += 1
            return self._executor

    def warm(self) -> None:
        """Pre-spawn every worker so the first batch pays no startup cost."""
        pool = self._ensure()
        wait([pool.submit(_noop) for _ in range(self.n_workers)])

    def submit(self, fn, /, *args, **kwargs):
        """Submit one job; spawns the executor on first use."""
        with self._lock:
            executor = self._ensure()
            self.stats.jobs += 1
            return executor.submit(fn, *args, **kwargs)

    def run(self, fn, /, *args, timeout: float | None = None,
            resubmit: int = 1, **kwargs):
        """One supervised job: submit, bound by a timeout, kill + retry.

        ``timeout`` (default: the supervision policy's ``job_timeout``)
        bounds the job's wall-clock seconds; on expiry the pool's workers
        are killed and restarted (the hung one cannot be cancelled — it is
        *running*) and the job resubmitted up to ``resubmit`` more times.
        A job still hanging after the last attempt raises
        :class:`~repro.pipeline.resilience.DeadlineExceeded`.  Worker
        exceptions propagate as-is on the first attempt — supervision
        guards against *hangs*, not against deterministic job errors.
        """
        timeout = self.supervision.job_timeout if timeout is None else timeout
        attempts = max(1, resubmit + 1) if timeout is not None else 1
        for attempt in range(attempts):
            future = self.submit(fn, *args, **kwargs)
            try:
                return future.result(timeout=timeout)
            except FuturesTimeoutError:
                self.stats.timeouts += 1
                default_registry().counter(
                    "pool_job_timeouts_total",
                    help="supervised pool jobs that exceeded their timeout",
                ).inc()
                logger.warning(
                    "pool job exceeded %.3fs timeout (attempt %d/%d); "
                    "killing workers", timeout, attempt + 1, attempts,
                )
                self.restart(kill=True)
        from ..pipeline.resilience import DeadlineExceeded  # lazy: cycle

        raise DeadlineExceeded(
            f"pool job still hung after {attempts} attempt(s) of "
            f"{timeout:.3f}s each; workers killed",
            attempts=attempts, deadline=timeout,
        )

    def restart(self, *, kill: bool = False) -> None:
        """Replace the executor with a fresh one (same size).

        ``kill=True`` terminates the old executor's worker processes
        outright — the hung-worker path, where ``shutdown`` would block on
        a job that never finishes.  ``kill=False`` (the broken-pool path)
        just abandons them: they are already dead or doomed.  Either way
        outstanding futures are cancelled.

        Restarts are counted against the supervision policy's window;
        exceeding ``max_restarts`` within ``restart_window`` seconds
        raises :class:`~repro.pipeline.resilience.WorkerCrashError`
        (crash-loop protection) *before* spawning yet another doomed
        generation of workers.
        """
        policy = self.supervision
        with self._lock:
            live = self._restarts.prune()
            if live >= policy.max_restarts:
                from ..obs import recorder as obs_recorder
                from ..pipeline.resilience import WorkerCrashError  # lazy: cycle

                # Dump the flight recorder *before* raising: the requests
                # that led up to the crash loop are exactly what the ring
                # still holds, and the raise may end the process.
                obs_recorder.crash_dump(
                    "worker_crash_loop",
                    error=f"{live} pool restarts within "
                          f"{policy.restart_window:.0f}s",
                )
                raise WorkerCrashError(
                    f"worker pool crash-looping: {live} "
                    f"restarts within {policy.restart_window:.0f}s "
                    f"(cap {policy.max_restarts}); refusing to respawn",
                    restarts=live,
                    window=policy.restart_window,
                )
            delay = self._restarts.backoff_seconds()
            if delay:
                time.sleep(delay)
            self._restarts.record()
            # The old generation's segments may be re-packed under recycled
            # names; a stale parent-side attach memo would alias them.
            shm.detach_all()
            old, self._executor = self._executor, None
            self.stats.restarts += 1
            if kill and old is not None:
                self.stats.kills += 1
                for proc in list(getattr(old, "_processes", {}).values()):
                    if proc.is_alive():
                        proc.terminate()
            if old is not None:
                old.shutdown(wait=False, cancel_futures=True)
        default_registry().counter(
            "pool_restarts_total", help="worker pool executor restarts",
        ).inc()
        logger.debug(
            "worker pool restarted (restart #%d%s)",
            self.stats.restarts, ", workers killed" if kill else "",
        )

    def close(self) -> None:
        """Shut the workers down and refuse further submissions; idempotent."""
        with self._lock:
            self._closed = True
            old, self._executor = self._executor, None
        if old is not None:
            old.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("warm" if self.alive else "cold")
        return (
            f"WorkerPool(n_workers={self.n_workers}, {state}, "
            f"jobs={self.stats.jobs}, restarts={self.stats.restarts})"
        )
