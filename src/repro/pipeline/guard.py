"""Proactive serving guards: circuit breakers and admission control.

PR 2 made the pipeline *reactively* fault-tolerant — a failing backend is
retried and downgraded on every single request, and an overloaded queue
grows until latency is unbounded.  This module makes the fault story
*proactive* (HC-SpMM's "always have a correct slower kernel behind the
fast one" argued into a steady state, and BOBA's shed-what-you-cannot-
finish framing applied to serving):

* **Circuit breakers** (:class:`CircuitBreaker`, one per backend, grouped
  in a :class:`BreakerBoard`): after ``failure_threshold`` *consecutive*
  kernel failures a backend's breaker trips ``closed → open`` and
  :func:`repro.pipeline.registry.run_kernel` rejects its calls instantly
  with :class:`~repro.pipeline.resilience.CircuitOpenError` — the
  downgrade ladder skips the backend instead of re-failing per request.
  After ``cooldown`` seconds the breaker admits exactly one *probe*
  (``half_open``); a probe success heals it back to ``closed``, a probe
  failure re-opens it for another cooldown.

* **Admission control** (:class:`AdmissionPolicy`): a bounded queue depth
  and a deadline check driven by the live p95 of ``spmm_latency_seconds``
  — a request that cannot be finished in time is rejected *at the door*
  with :class:`~repro.pipeline.resilience.OverloadError` instead of
  queueing to death (consulted by the serving door,
  :class:`~repro.pipeline.sharded.ShardRouter`).

The process-wide board is **off by default**: ``run_kernel`` pays one
``is None`` test per call until :func:`enable_breakers` (or the
``REPRO_BREAKERS=1`` environment variable, or ``repro serve --breakers``)
installs one.  Tests scope a board with :func:`breaker_scope`, usually
with an injected clock so cooldowns are deterministic.

State transitions flow into observability: a ``breaker_state`` gauge per
backend (0 closed / 1 half-open / 2 open), ``breaker_transitions_total``
and ``breaker_open_skips_total`` counters, and ``breaker.transition``
events.  See ``docs/resilience.md`` for the operator's view.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from ..obs import events as obs_events
from ..obs.metrics import default_registry
from .resilience import CircuitOpenError, OverloadError

__all__ = [
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
    "BreakerConfig",
    "CircuitBreaker",
    "BreakerBoard",
    "AdmissionPolicy",
    "active_breakers",
    "enable_breakers",
    "disable_breakers",
    "breaker_scope",
]

logger = logging.getLogger("repro.pipeline.guard")

STATE_CLOSED = "closed"
STATE_HALF_OPEN = "half_open"
STATE_OPEN = "open"

# Gauge encoding of the state machine (exported as ``breaker_state``).
STATE_VALUES = {STATE_CLOSED: 0.0, STATE_HALF_OPEN: 1.0, STATE_OPEN: 2.0}


def _env_number(name: str, cast, default):
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = cast(raw)
    except ValueError:
        logger.warning("ignoring malformed %s=%r; using %r", name, raw, default)
        return default
    if value <= 0:
        logger.warning("ignoring non-positive %s=%r; using %r", name, raw, default)
        return default
    return value


@dataclass(frozen=True)
class BreakerConfig:
    """Knobs for one breaker: trip threshold and cooldown before a probe.

    ``failure_threshold`` is the number of *consecutive* kernel failures
    that trips the breaker (a single success resets the count — a flaky
    backend that still mostly works is retried, not banned).  ``cooldown``
    is how long an open breaker rejects calls before admitting one
    half-open probe.  ``probe_timeout`` bounds how long a half-open probe
    may stay unresolved before another probe is admitted (a probe whose
    caller vanished must not wedge the breaker half-open forever).
    """

    failure_threshold: int = 5
    cooldown: float = 5.0
    probe_timeout: float = 30.0

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown <= 0 or self.probe_timeout <= 0:
            raise ValueError("cooldown and probe_timeout must be positive")

    @classmethod
    def from_env(cls, failure_threshold: int | None = None,
                 cooldown: float | None = None) -> "BreakerConfig":
        """Defaults overridable by ``REPRO_BREAKER_THRESHOLD`` /
        ``REPRO_BREAKER_COOLDOWN``; explicit arguments win over both."""
        if failure_threshold is None:
            failure_threshold = _env_number("REPRO_BREAKER_THRESHOLD", int,
                                            cls.failure_threshold)
        if cooldown is None:
            cooldown = _env_number("REPRO_BREAKER_COOLDOWN", float, cls.cooldown)
        return cls(failure_threshold=failure_threshold, cooldown=cooldown)


class CircuitBreaker:
    """closed → open → half-open state machine guarding one backend.

    Thread-safe; every transition updates the ``breaker_state`` gauge and
    emits a ``breaker.transition`` event.  ``clock`` is injectable so
    tests drive cooldowns deterministically.
    """

    __slots__ = (
        "name", "config", "_clock", "_lock", "_metrics", "state",
        "consecutive_failures", "opened_at", "opens", "_probe_started",
    )

    def __init__(self, name: str, config: BreakerConfig | None = None, *,
                 clock: Callable[[], float] = time.monotonic, metrics=None):
        self.name = name
        self.config = config or BreakerConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._metrics = metrics
        self.state = STATE_CLOSED
        self.consecutive_failures = 0
        self.opened_at: float | None = None
        self.opens = 0  # lifetime count of closed/half-open → open trips
        self._probe_started: float | None = None

    # -- the guard consulted by run_kernel ---------------------------------
    def before_call(self) -> None:
        """Admit or reject one kernel call; raises :class:`CircuitOpenError`.

        Closed: always admitted.  Open: rejected until the cooldown
        expires, then the breaker turns half-open and admits one probe.
        Half-open: only the single in-flight probe is admitted; concurrent
        calls are rejected (they would all hammer a backend that just
        proved itself broken).
        """
        with self._lock:
            if self.state == STATE_CLOSED:
                return
            now = self._clock()
            if self.state == STATE_OPEN:
                opened = now if self.opened_at is None else self.opened_at
                remaining = self.config.cooldown - (now - opened)
                if remaining > 0:
                    self._count_skip()
                    raise CircuitOpenError(
                        f"circuit breaker for backend {self.name!r} is open "
                        f"({self.consecutive_failures} consecutive failure(s)); "
                        f"probe admitted in {remaining:.3f}s",
                        backend=self.name, state=STATE_OPEN, retry_after=remaining,
                    )
                self._transition(STATE_HALF_OPEN)
            # Half-open: admit one probe at a time, reclaiming a probe slot
            # whose caller never reported back.
            if (self._probe_started is not None
                    and now - self._probe_started < self.config.probe_timeout):
                self._count_skip()
                raise CircuitOpenError(
                    f"circuit breaker for backend {self.name!r} is half-open "
                    f"with a probe already in flight",
                    backend=self.name, state=STATE_HALF_OPEN, retry_after=0.0,
                )
            self._probe_started = now

    def record_success(self) -> None:
        with self._lock:
            self.consecutive_failures = 0
            self._probe_started = None
            if self.state != STATE_CLOSED:
                self._transition(STATE_CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._probe_started = None
            self.consecutive_failures += 1
            if self.state == STATE_HALF_OPEN:
                self._trip()  # the probe failed: straight back to open
            elif (self.state == STATE_CLOSED
                    and self.consecutive_failures >= self.config.failure_threshold):
                self._trip()

    # -- introspection -----------------------------------------------------
    def would_reject(self) -> bool:
        """Whether a call right now would be skipped (open, cooling down).

        The downgrade ladder uses this to step over an open rung without
        raising; a half-open breaker is *not* a rejection — the ladder is
        exactly the probe traffic that can heal it.
        """
        with self._lock:
            if self.state != STATE_OPEN:
                return False
            now = self._clock()
            opened = now if self.opened_at is None else self.opened_at
            return (now - opened) < self.config.cooldown

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self.state,
                "consecutive_failures": self.consecutive_failures,
                "opens": self.opens,
            }

    # -- internals (call with the lock held) -------------------------------
    def _trip(self) -> None:
        self.opened_at = self._clock()
        self.opens += 1
        self._transition(STATE_OPEN)

    def _transition(self, new: str) -> None:
        old, self.state = self.state, new
        if self._metrics is not None:
            self._metrics.gauge(
                "breaker_state",
                help="circuit breaker state per backend (0 closed, 1 half-open, 2 open)",
                backend=self.name,
            ).set(STATE_VALUES[new])
            self._metrics.counter(
                "breaker_transitions_total",
                help="circuit breaker state transitions",
                backend=self.name, to=new,
            ).inc()
        obs_events.emit("breaker.transition", backend=self.name, from_state=old,
                        to_state=new, failures=self.consecutive_failures)
        log = logger.warning if new == STATE_OPEN else logger.info
        log("circuit breaker for backend %r: %s -> %s (%d consecutive failure(s))",
            self.name, old, new, self.consecutive_failures)

    def _count_skip(self) -> None:
        if self._metrics is not None:
            self._metrics.counter(
                "breaker_open_skips_total",
                help="kernel calls rejected because the backend's breaker was open",
                backend=self.name,
            ).inc()

    def __repr__(self) -> str:
        return (f"CircuitBreaker({self.name!r}, state={self.state!r}, "
                f"failures={self.consecutive_failures}, opens={self.opens})")


class BreakerBoard:
    """Per-backend breakers behind one lookup, sharing a config and clock.

    Breakers are created lazily per backend name; an unseen backend is
    closed by definition.  ``metrics`` defaults to the process
    :func:`~repro.obs.metrics.default_registry` so breaker state is
    observable wherever the board is installed.
    """

    def __init__(self, config: BreakerConfig | None = None, *,
                 clock: Callable[[], float] = time.monotonic, metrics=None):
        self.config = config or BreakerConfig.from_env()
        self._clock = clock
        self._metrics = default_registry() if metrics is None else metrics
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def breaker(self, backend: str) -> CircuitBreaker:
        """The breaker for ``backend``, created (closed) on first use."""
        existing = self._breakers.get(backend)
        if existing is not None:
            return existing
        with self._lock:
            return self._breakers.setdefault(backend, CircuitBreaker(
                backend, self.config, clock=self._clock, metrics=self._metrics))

    # Hot-path delegates, inlined names for run_kernel.
    def before_call(self, backend: str) -> None:
        breaker = self._breakers.get(backend)
        if breaker is not None:
            breaker.before_call()

    def record_success(self, backend: str) -> None:
        breaker = self._breakers.get(backend)
        if breaker is not None and (breaker.consecutive_failures
                                    or breaker.state != STATE_CLOSED):
            breaker.record_success()

    def record_failure(self, backend: str) -> None:
        self.breaker(backend).record_failure()

    def state(self, backend: str) -> str:
        breaker = self._breakers.get(backend)
        return breaker.state if breaker is not None else STATE_CLOSED

    def would_reject(self, backend: str) -> bool:
        breaker = self._breakers.get(backend)
        return breaker is not None and breaker.would_reject()

    def snapshot(self) -> dict:
        """``{backend: {state, consecutive_failures, opens}}`` of every
        breaker the board has seen (``Aggregator.health()`` embeds this)."""
        return {name: b.snapshot() for name, b in sorted(self._breakers.items())}

    def open_backends(self) -> list[str]:
        """Backends whose breaker is currently *open* (half-open rungs are
        probing, hence healthy; ``/healthz`` keys its 503 off this list)."""
        return sorted(
            name for name, b in self._breakers.items() if b.state == STATE_OPEN
        )

    def reset(self) -> None:
        with self._lock:
            self._breakers.clear()

    def __repr__(self) -> str:
        states = {name: b.state for name, b in self._breakers.items()}
        return f"BreakerBoard({states or 'no breakers yet'})"


# -- the process-wide board (off by default) -----------------------------------

_BOARD: BreakerBoard | None = None


def active_breakers() -> BreakerBoard | None:
    """The installed board, or ``None`` (breakers disabled, zero overhead)."""
    return _BOARD


def enable_breakers(config: BreakerConfig | None = None, *,
                    board: BreakerBoard | None = None, metrics=None,
                    clock: Callable[[], float] = time.monotonic) -> BreakerBoard:
    """Install (and return) the process-wide breaker board.

    ``repro serve --breakers`` and long-lived services call this once at
    startup; installing a new board replaces the old one wholesale.
    """
    global _BOARD
    _BOARD = board if board is not None else BreakerBoard(
        config, metrics=metrics, clock=clock)
    return _BOARD


def disable_breakers() -> None:
    """Remove the process-wide board; ``run_kernel`` goes back to unguarded."""
    global _BOARD
    _BOARD = None


@contextmanager
def breaker_scope(config: BreakerConfig | None = None, *,
                  board: BreakerBoard | None = None, metrics=None,
                  clock: Callable[[], float] = time.monotonic):
    """Scope a breaker board over a block, restoring the previous one after.

    The unit of isolation tests (and the chaos harness) build on — the
    board never leaks across tests the way a bare :func:`enable_breakers`
    would.
    """
    global _BOARD
    previous = _BOARD
    installed = enable_breakers(config, board=board, metrics=metrics, clock=clock)
    try:
        yield installed
    finally:
        _BOARD = previous


if os.environ.get("REPRO_BREAKERS") == "1":  # opt-in process-wide default
    enable_breakers()


# -- admission control ---------------------------------------------------------

@dataclass(frozen=True)
class AdmissionPolicy:
    """Reject-fast bounds at the serving door (:class:`ShardRouter`).

    ``max_queue_depth`` rejects a request outright once that many
    requests are already queued ahead of it (:class:`OverloadError`,
    reason ``queue_full``) — shedding instead of queueing.
    ``deadline`` sheds a request whose *estimated* completion time —
    requests-ahead-plus-one times the live p95 of ``spmm_latency_seconds``
    — already exceeds it (reason ``deadline``); with no latency history yet
    the request is admitted (optimism until measured).  ``min_samples``
    is how many latency observations the p95 needs before it is trusted.
    """

    max_queue_depth: int | None = None
    deadline: float | None = None
    min_samples: int = 5

    def __post_init__(self):
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")

    @classmethod
    def from_env(cls, max_queue_depth: int | None = None,
                 deadline: float | None = None) -> "AdmissionPolicy":
        """Defaults overridable by ``REPRO_MAX_QUEUE_DEPTH`` /
        ``REPRO_SHED_DEADLINE``; explicit arguments win over both."""
        if max_queue_depth is None:
            max_queue_depth = _env_number("REPRO_MAX_QUEUE_DEPTH", int, None)
        if deadline is None:
            deadline = _env_number("REPRO_SHED_DEADLINE", float, None)
        return cls(max_queue_depth=max_queue_depth, deadline=deadline)

    def admit(self, *, depth: int, latency=None) -> None:
        """Admit one request or raise :class:`OverloadError`.

        ``depth`` is how many requests are queued ahead of it, ``latency``
        the live ``spmm_latency_seconds`` histogram or window (or ``None``).
        """
        if self.max_queue_depth is not None and depth >= self.max_queue_depth:
            raise OverloadError(
                f"serving queue is full ({depth} >= {self.max_queue_depth}); "
                f"request shed",
                reason="queue_full", depth=depth,
                max_queue_depth=self.max_queue_depth,
            )
        if self.deadline is None or latency is None:
            return
        if latency.count < self.min_samples:
            return
        p95 = latency.quantile(0.95)
        estimated = (depth + 1) * p95
        if estimated > self.deadline:
            raise OverloadError(
                f"estimated completion {estimated * 1e3:.2f}ms (p95 "
                f"{p95 * 1e3:.2f}ms x {depth + 1} request(s)) exceeds the "
                f"{self.deadline * 1e3:.2f}ms deadline; request shed",
                reason="deadline", depth=depth, estimated_wait=estimated,
                deadline=self.deadline,
            )
