"""Deterministic fault injection for the pipeline's recovery paths.

A :class:`FaultPlan` scripts exactly which operations fail — the next N
kernel dispatches of a named backend, the next N artefact reads, specific
worker jobs — so every retry / fallback / quarantine path in
:mod:`repro.pipeline.resilience` is exercised by ordinary deterministic
tests instead of real hardware flakiness.

Three hook sites consult the active plan:

* **kernel dispatch** — :func:`repro.pipeline.registry.run_kernel` calls
  :func:`maybe_fail_kernel` before running a backend's SpMM;
* **cache reads** — :class:`repro.pipeline.cache.ArtifactCache.load` calls
  :func:`maybe_corrupt_cache_file`, which scribbles over the on-disk
  artefact so the *real* corruption-detection path runs;
* **worker jobs** — :func:`repro.parallel.reorder_many` asks
  :func:`worker_directive` per job; ``"raise"`` makes the job raise inside
  the worker, ``"exit"`` kills the worker process outright (breaking the
  pool, which exercises resubmission);
* **shared-memory packing** — :class:`repro.perf.shm.SharedMatrixBatch.pack`
  calls :func:`maybe_fail_shm`, so the pickled-payload fallback in
  ``reorder_many`` runs deterministically (as it would on a platform
  without ``/dev/shm``);
* **shard replicas** — :class:`repro.pipeline.sharded.ShardRouter`'s
  replicas call :func:`shard_directive` before serving a sub-request;
  ``"kill"`` makes the replica die (exercising replica failover and the
  degraded-health path), ``"slow"`` injects a stall (exercising
  deadline-aware fan-out merging);
* **process shard workers** — a process-mode shard replica
  (:class:`repro.pipeline.procshard.ProcessShardWorker`) also consults
  :func:`procshard_directive` before each ring round-trip; ``"sigkill"``
  sends the worker process a *real* ``SIGKILL`` mid-request (exercising
  death detection, replica failover, and respawn by re-fork), and
  ``"stall"`` makes the worker sleep inside the serve loop (exercising
  the job-timeout watchdog and deadline-bounded merging).

Every hook is a cheap no-op when no plan is active, and plans record what
they injected in :attr:`FaultPlan.events` so tests can assert the faults
actually fired.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import TimeoutError as FuturesTimeoutError
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "FaultPlan",
    "FaultEvent",
    "InjectedFault",
    "ChaosSchedule",
    "ChaosInvariants",
    "inject",
    "active_plan",
    "maybe_fail_kernel",
    "maybe_corrupt_cache_file",
    "maybe_fail_shm",
    "worker_directive",
    "shard_directive",
    "procshard_directive",
    "slow_shard_seconds",
]


class InjectedFault(RuntimeError):
    """The deliberate failure a :class:`FaultPlan` raises inside a hook."""


@dataclass(frozen=True)
class FaultEvent:
    """Record of one injected fault: where, on what, and which action."""

    site: str  # "kernel" | "cache" | "worker" | "shm" | "shard" | "procshard"
    target: str  # backend name, cache key, job/shard index, or fixed site tag
    action: str  # "raise" | "corrupt" | "exit" | "kill" | "slow" | "sigkill" | "stall"


@dataclass
class FaultPlan:
    """Scripted faults, consumed in order as the hooked operations run.

    ``kernel_failures`` maps a backend name to how many of its next kernel
    dispatches raise :class:`InjectedFault` before the backend "heals".
    ``cache_corruptions`` corrupts that many upcoming artefact reads by
    scribbling the file on disk.  ``worker_crashes`` maps a batch index to
    ``"raise"``, ``"exit"``, or ``"hang"`` (the worker wedges until the
    hung-worker watchdog kills it); directives are consumed when the job is
    first built, so jobs resubmitted after a pool break run clean.
    ``shm_failures`` fails that many upcoming shared-memory segment
    creations (forcing ``reorder_many``'s pickled-payload fallback).
    ``shard_faults`` maps a shard index to ``"kill"`` (the next replica
    serving that shard dies, exercising the router's replica failover) or
    ``"slow"`` (the next sub-request on that shard stalls, exercising
    deadline-aware fan-out); each directive fires once.  ``proc_faults``
    is the process-executor analogue: a shard index maps to ``"sigkill"``
    (the worker process is killed for real, mid-request) or ``"stall"``
    (the worker sleeps inside its serve loop); each fires once, on the
    next ring round-trip touching that shard.
    """

    kernel_failures: dict[str, int] = field(default_factory=dict)
    cache_corruptions: int = 0
    worker_crashes: dict[int, str] = field(default_factory=dict)
    shm_failures: int = 0
    shard_faults: dict[int, str] = field(default_factory=dict)
    proc_faults: dict[int, str] = field(default_factory=dict)
    events: list[FaultEvent] = field(default_factory=list)

    def take_kernel_failure(self, backend: str) -> bool:
        remaining = self.kernel_failures.get(backend, 0)
        if remaining <= 0:
            return False
        self.kernel_failures[backend] = remaining - 1
        self.events.append(FaultEvent("kernel", backend, "raise"))
        return True

    def take_cache_corruption(self, key: str) -> bool:
        if self.cache_corruptions <= 0:
            return False
        self.cache_corruptions -= 1
        self.events.append(FaultEvent("cache", key, "corrupt"))
        return True

    def take_worker_crash(self, index: int) -> str | None:
        action = self.worker_crashes.pop(index, None)
        if action is not None:
            if action not in ("raise", "exit", "hang"):
                raise ValueError(f"unknown worker fault action {action!r}")
            self.events.append(FaultEvent("worker", str(index), action))
        return action

    def take_shard_fault(self, index: int) -> str | None:
        action = self.shard_faults.pop(index, None)
        if action is not None:
            if action not in ("kill", "slow"):
                raise ValueError(f"unknown shard fault action {action!r}")
            self.events.append(FaultEvent("shard", str(index), action))
        return action

    def take_proc_fault(self, index: int) -> str | None:
        action = self.proc_faults.pop(index, None)
        if action is not None:
            if action not in ("sigkill", "stall"):
                raise ValueError(f"unknown procshard fault action {action!r}")
            self.events.append(FaultEvent("procshard", str(index), action))
        return action

    def take_shm_failure(self) -> bool:
        if self.shm_failures <= 0:
            return False
        self.shm_failures -= 1
        self.events.append(FaultEvent("shm", "segment", "raise"))
        return True

    def count(self, site: str) -> int:
        """How many faults fired at ``site`` so far."""
        return sum(1 for e in self.events if e.site == site)


_ACTIVE: list[FaultPlan] = []


def active_plan() -> FaultPlan | None:
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def inject(plan: FaultPlan | None = None):
    """Scope ``plan`` (default: a fresh empty plan) over the hooked operations."""
    plan = plan if plan is not None else FaultPlan()
    _ACTIVE.append(plan)
    try:
        yield plan
    finally:
        _ACTIVE.remove(plan)


# -- hook points (no-ops without an active plan) -------------------------------

def maybe_fail_kernel(backend: str) -> None:
    plan = active_plan()
    if plan is not None and plan.take_kernel_failure(backend):
        raise InjectedFault(f"injected kernel failure for backend {backend!r}")


def maybe_corrupt_cache_file(key: str, path) -> bool:
    """Scribble over the artefact at ``path``; returns whether it fired."""
    plan = active_plan()
    path = Path(path)
    if plan is None or not path.exists() or not plan.take_cache_corruption(key):
        return False
    raw = path.read_bytes()
    path.write_bytes(b"\x00CORRUPT\x00" + raw[: max(0, len(raw) // 2)])
    return True


def maybe_fail_shm() -> None:
    plan = active_plan()
    if plan is not None and plan.take_shm_failure():
        raise InjectedFault("injected shared-memory segment creation failure")


def worker_directive(index: int) -> str | None:
    plan = active_plan()
    if plan is None:
        return None
    return plan.take_worker_crash(index)


def shard_directive(index: int) -> str | None:
    """The scripted fault (``"kill"`` / ``"slow"``) for shard ``index``, if any."""
    plan = active_plan()
    if plan is None:
        return None
    return plan.take_shard_fault(index)


def procshard_directive(index: int) -> str | None:
    """The scripted process-worker fault (``"sigkill"`` / ``"stall"``) for
    shard ``index``, if any."""
    plan = active_plan()
    if plan is None:
        return None
    return plan.take_proc_fault(index)


def slow_shard_seconds() -> float:
    """How long a ``"slow"`` / ``"stall"`` shard fault stalls its sub-request:
    ``REPRO_FAULT_SHARD_SLOW_SECONDS``, default 0.25."""
    return float(os.environ.get("REPRO_FAULT_SHARD_SLOW_SECONDS", "0.25"))


# -- seeded chaos --------------------------------------------------------------

@dataclass
class ChaosSchedule(FaultPlan):
    """A :class:`FaultPlan` drawn from one RNG seed across every fault site.

    Deterministic per seed — the same seed always scripts the same faults,
    so a chaos failure is replayed by re-running its seed — but *randomized
    across seeds*: kernel failures on a random subset of backends, cache
    corruptions, worker crash/exit/hang directives, shared-memory faults
    and shard directives, all from one ``random.Random(seed)`` stream.  Build with
    :meth:`draw` and activate with :func:`inject` like any plan; the
    invariants a serving stack must hold under *any* schedule are checked
    by :class:`ChaosInvariants` (the ``pytest -m chaos`` corpus).
    """

    seed: int = 0

    @classmethod
    def draw(
        cls,
        seed: int,
        *,
        backends: tuple[str, ...] = ("hybrid", "vnm", "nm", "bsr", "csr"),
        n_jobs: int = 0,
        max_kernel_failures: int = 4,
        max_cache_corruptions: int = 2,
        max_shm_failures: int = 1,
        worker_actions: tuple[str, ...] = ("raise", "exit", "hang"),
        worker_crash_rate: float = 0.3,
        kernel_failure_rate: float = 0.6,
        n_shards: int = 0,
        shard_actions: tuple[str, ...] = ("kill", "slow"),
        shard_fault_rate: float = 0.5,
        n_proc_shards: int = 0,
        proc_actions: tuple[str, ...] = ("sigkill", "stall"),
        proc_fault_rate: float = 0.5,
    ) -> "ChaosSchedule":
        """Draw one schedule from ``seed``.

        ``backends`` are the kernel-fault candidates; ``"dense"`` is always
        excluded so every fallback ladder keeps a working terminal rung and
        the invariant "every request resolves" stays satisfiable.
        ``n_jobs`` sizes the worker-directive draw (0 = no worker faults);
        ``n_shards`` sizes the shard-directive draw (0 = no shard faults);
        ``n_proc_shards`` sizes the process-worker draw (0 = none).
        New draws always *append* to the stream — shard after every older
        site, procshard after shard — so a schedule that leaves the new
        knob at 0 is byte-identical to a pre-knob one for the same seed:
        the fixed replay corpus keeps its meaning.  For the same reason
        the retired coalesced-batch site's draw is still taken from the
        stream and discarded.
        """
        rng = random.Random(seed)
        plan = cls(seed=seed)
        for backend in backends:
            if backend == "dense":
                continue
            if rng.random() < kernel_failure_rate:
                plan.kernel_failures[backend] = rng.randint(1, max_kernel_failures)
        plan.cache_corruptions = rng.randint(0, max_cache_corruptions)
        plan.shm_failures = rng.randint(0, max_shm_failures)
        rng.randint(0, 2)  # retired batch-crash site: keep the stream aligned
        for index in range(n_jobs):
            if rng.random() < worker_crash_rate:
                plan.worker_crashes[index] = rng.choice(list(worker_actions))
        for index in range(n_shards):
            if rng.random() < shard_fault_rate:
                plan.shard_faults[index] = rng.choice(list(shard_actions))
        for index in range(n_proc_shards):
            if rng.random() < proc_fault_rate:
                plan.proc_faults[index] = rng.choice(list(proc_actions))
        return plan

    def describe(self) -> dict:
        """Compact summary for the invariant report (pre-consumption)."""
        return {
            "seed": self.seed,
            "kernel_failures": dict(self.kernel_failures),
            "cache_corruptions": self.cache_corruptions,
            "worker_crashes": {str(k): v for k, v in self.worker_crashes.items()},
            "shm_failures": self.shm_failures,
            "shard_faults": {str(k): v for k, v in self.shard_faults.items()},
            "proc_faults": {str(k): v for k, v in self.proc_faults.items()},
        }


class ChaosInvariants:
    """What must hold under *any* :class:`ChaosSchedule`.

    Three invariants, checked incrementally and summarized by
    :meth:`report`:

    1. **every future resolves** — a submitted request's future completes
       within a bounded wait with either a bit-identical result or an
       error from the :class:`~repro.pipeline.resilience.PipelineError`
       taxonomy; a hang, a wrong result, or a foreign exception type is a
       violation (:meth:`observe_future`);
    2. **health converges** — after faults stop, serving recovers
       (asserted by the test via :meth:`require`);
    3. **nothing leaks** — no worker processes or shared-memory segments
       survive the run (also via :meth:`require`).
    """

    def __init__(self):
        self.outcomes: dict[str, int] = {}
        self.violations: list[str] = []
        self.checks = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def _count(self, outcome: str) -> str:
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        return outcome

    def observe_future(self, future, expected, *, timeout: float = 30.0,
                       label: str = "") -> str:
        """Classify one submitted request's resolution; returns the outcome.

        ``expected`` is the reference result the future must match
        **bit-identically** when it succeeds.  Outcomes: ``"exact"``,
        ``"taxonomy:<ErrorType>"`` (an acceptable classified failure), or
        a recorded violation — ``"hang"``, ``"wrong_result"``,
        ``"foreign_error:<Type>"``.
        """
        import numpy as np

        from .resilience import PipelineError

        self.checks += 1
        try:
            out = future.result(timeout=timeout)
        except FuturesTimeoutError:
            self.violations.append(
                f"{label or 'request'}: future did not resolve within "
                f"{timeout:.0f}s (hang)")
            return self._count("hang")
        except PipelineError as exc:
            return self._count(f"taxonomy:{type(exc).__name__}")
        except BaseException as exc:  # noqa: BLE001 - classification is the point
            self.violations.append(
                f"{label or 'request'}: non-taxonomy error "
                f"{type(exc).__name__}: {exc}")
            return self._count(f"foreign_error:{type(exc).__name__}")
        if np.array_equal(np.asarray(out), np.asarray(expected)):
            return self._count("exact")
        self.violations.append(
            f"{label or 'request'}: result differs from the reference "
            f"(not bit-identical)")
        return self._count("wrong_result")

    def require(self, condition: bool, message: str) -> bool:
        """Record an arbitrary invariant check (convergence, leaks)."""
        self.checks += 1
        if not condition:
            self.violations.append(message)
        return bool(condition)

    def report(self) -> dict:
        """JSON-ready summary (the CI chaos job uploads these per seed)."""
        return {
            "ok": self.ok,
            "checks": self.checks,
            "outcomes": dict(sorted(self.outcomes.items())),
            "violations": list(self.violations),
        }
