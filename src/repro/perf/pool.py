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
deployment needs, and :class:`Supervisor` is its one verdict — shared with
the process shard workers: ``reorder_many`` bounds each chunk by the
policy's ``job_timeout``, a hung worker is **killed**
(``restart(kill=True)`` terminates the worker processes outright —
``shutdown`` alone would wait on them forever) and its jobs resubmitted,
and a windowed restart cap turns a crash-looping pool into a
:class:`~repro.pipeline.resilience.WorkerCrashError` instead of an
infinite kill/respawn cycle.  All lifecycle transitions are guarded by an
``RLock``: any other thread can drive submissions concurrently with the
owning thread's restarts.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import NoReturn

from ..obs.metrics import default_registry
from . import shm

__all__ = ["PoolStats", "SupervisionPolicy", "Supervisor", "WorkerPool"]

logger = logging.getLogger("repro.perf.pool")


@dataclass
class PoolStats:
    """Lifecycle accounting for one supervised worker fleet.

    ``jobs`` counts a pool's submissions, or a shard worker's served ring
    round trips.
    """

    spawns: int = 0
    restarts: int = 0
    jobs: int = 0
    timeouts: int = 0
    kills: int = 0


@dataclass(frozen=True)
class SupervisionPolicy:
    """Watchdog knobs for one :class:`Supervisor`.

    ``job_timeout`` bounds one job's wall-clock seconds before the worker
    is presumed hung (``None`` disables the watchdog): a reorder chunk, or
    one shard-worker round trip.  ``max_restarts`` within
    ``restart_window`` seconds is the crash-loop cap: one more restart
    inside the window raises
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


class Supervisor:
    """One :class:`SupervisionPolicy`'s whole verdict for one worker fleet.

    The one restart/timeout path the pool and every
    :class:`~repro.pipeline.procshard.ProcessShardWorker` share.
    :meth:`restart` admits a restart within the windowed cap (after the
    exponential backoff) or refuses it as a crash loop; :meth:`timed_out`
    is the hung-job verdict.  :attr:`stats` holds the owner's counters.
    ``name`` leads every message; ``restarts`` / ``timeouts`` are the
    owner's metric counters (``None``: unmetered); ``context`` rides on
    every raised error.  Thread-safe.
    """

    def __init__(self, policy: SupervisionPolicy, name: str, *,
                 restarts=None, timeouts=None,
                 dump_reason: str = "worker_crash_loop", **context):
        self.policy = policy
        self.name = name
        self.stats = PoolStats()
        self.context = context
        self._restarts_total = restarts
        self._timeouts_total = timeouts
        self._dump_reason = dump_reason
        self._times: deque[float] = deque()
        self._lock = threading.Lock()

    def _live(self) -> int:
        """Drop restarts older than the window; returns the live count."""
        now = time.monotonic()
        with self._lock:
            while self._times and now - self._times[0] > self.policy.restart_window:
                self._times.popleft()
            return len(self._times)

    @property
    def crash_looping(self) -> bool:
        """Whether the windowed cap is hit — the next restart is refused."""
        return self._live() >= self.policy.max_restarts

    def restart(self) -> None:
        """Admit one restart, or refuse it: past ``policy.max_restarts``
        within ``policy.restart_window`` seconds, a flight-recorder crash
        dump, then ``WorkerCrashError(crash_loop=True)``."""
        policy = self.policy
        live = self._live()
        if live >= policy.max_restarts:
            from ..obs import recorder as obs_recorder
            from ..pipeline.resilience import WorkerCrashError  # lazy: cycle

            # Dump the flight recorder *before* raising: the requests that
            # led up to the crash loop are exactly what the ring still
            # holds, and the raise may end the process.
            obs_recorder.crash_dump(
                self._dump_reason,
                error=f"{self.name}: {live} restarts within "
                      f"{policy.restart_window:.0f}s",
            )
            raise WorkerCrashError(
                f"{self.name} crash-looping: {live} restarts within "
                f"{policy.restart_window:.0f}s (cap {policy.max_restarts}); "
                f"refusing to respawn",
                restarts=live, window=policy.restart_window, crash_loop=True,
                **self.context,
            )
        if policy.backoff:
            time.sleep(min(policy.backoff * 2 ** live, policy.max_backoff))
        with self._lock:
            self._times.append(time.monotonic())
            self.stats.restarts += 1
        if self._restarts_total is not None:
            self._restarts_total.inc()

    def timed_out(self, timeout: float, kill: Callable[[], None]) -> NoReturn:
        """The hung-job verdict: count the timeout, log it, ``kill()`` the
        worker, then raise ``DeadlineExceeded``."""
        from ..pipeline.resilience import DeadlineExceeded  # lazy: cycle

        with self._lock:
            self.stats.timeouts += 1
        if self._timeouts_total is not None:
            self._timeouts_total.inc()
        logger.warning("%s exceeded its %.3fs job timeout; killing",
                       self.name, timeout)
        kill()
        raise DeadlineExceeded(
            f"{self.name} exceeded its {timeout:.3f}s job timeout; "
            f"worker killed",
            deadline=timeout, **self.context,
        )


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
        registry = default_registry()
        self.supervisor = Supervisor(
            self.supervision, "worker pool",
            restarts=registry.counter(
                "pool_restarts_total", help="worker pool executor restarts"),
            timeouts=registry.counter(
                "pool_job_timeouts_total",
                help="supervised pool jobs that exceeded their timeout"),
        )
        self.stats = self.supervisor.stats

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
        return self.supervisor.crash_looping

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

    def restart(self, *, kill: bool = False) -> None:
        """Replace the executor with a fresh one (same size).

        ``kill=True`` terminates the old executor's worker processes
        outright — the hung-worker path, where ``shutdown`` would block on
        a job that never finishes.  ``kill=False`` (the broken-pool path)
        just abandons them: they are already dead or doomed.  Either way
        outstanding futures are cancelled.

        The :attr:`supervisor` admits the restart: past the policy's
        windowed cap it raises the crash-loop
        :class:`~repro.pipeline.resilience.WorkerCrashError` *before*
        spawning yet another doomed generation of workers.
        """
        with self._lock:
            self.supervisor.restart()
            # The old generation's segments may be re-packed under recycled
            # names; a stale parent-side attach memo would alias them.
            shm.detach_all()
            old, self._executor = self._executor, None
            if kill and old is not None:
                self.stats.kills += 1
                for proc in list(getattr(old, "_processes", {}).values()):
                    if proc.is_alive():
                        proc.terminate()
            if old is not None:
                old.shutdown(wait=False, cancel_futures=True)
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
