"""Request flight recorder: a bounded ring of per-request exemplars.

Metrics aggregate away the *which*: a p99 spike says something was slow,
but not which operand, which backend, or whether the slow request also
downgraded or tripped a breaker.  The :class:`FlightRecorder` keeps a
bounded ring buffer of :class:`RequestExemplar` records — operand key,
backend, engine variant, feature width, latency, retry/downgrade/breaker
outcome, and a span tree — cheap enough to leave on in production:

* every request pays one sequence bump and a branch;
* one request in ``sample_every`` is **sampled**: it runs under a local
  :class:`~repro.obs.trace.Tracer` (installed only when no real tracer is
  active) so its exemplar carries the real span tree;
* every *failed* request is kept regardless of sampling — an unsampled
  failure gets a synthesized single-node error tree (the recorder cannot
  trace retroactively), a sampled one keeps its full tree.

Dumps are JSON and come three ways: on demand (``GET /debug/requests``
from :class:`repro.obs.server.TelemetryServer`, or :meth:`dump`), on
``SIGUSR1`` (:func:`install_signal_dump`), and automatically when the
worker pool declares a crash loop (:func:`crash_dump`, called by
:meth:`repro.perf.pool.WorkerPool.restart` before it raises
:class:`~repro.pipeline.resilience.WorkerCrashError`) — the black box
survives the crash that made it interesting.

Like tracing and events, the process-wide recorder is **off by default**:
:func:`current_recorder` returns ``None`` until :func:`set_recorder` (or
``repro serve --telemetry-port``) installs one.
"""

from __future__ import annotations

import itertools
import json
import logging
import signal
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from . import trace as obs_trace

__all__ = [
    "RequestExemplar",
    "RequestProbe",
    "FlightRecorder",
    "current_recorder",
    "set_recorder",
    "use_recorder",
    "crash_dump",
    "install_signal_dump",
]

logger = logging.getLogger("repro.obs.recorder")


@dataclass
class RequestExemplar:
    """One recorded request — plain data, JSON-able via :meth:`to_dict`."""

    seq: int
    ts: float
    status: str  # "ok" | "error" | "shed"
    latency: float
    h: int | None = None
    backend: str | None = None
    variant: str | None = None
    operand_key: str | None = None
    retries: int = 0
    downgrades: tuple = ()
    breaker_open: bool = False
    shed_reason: str | None = None
    error: str | None = None
    sampled: bool = False
    span_tree: dict | None = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {k: v for k, v in self.__dict__.items()
               if k != "extra" and v not in (None, (), {}, False)}
        out.setdefault("status", self.status)
        out.setdefault("latency", self.latency)
        out.setdefault("seq", self.seq)
        out.setdefault("ts", self.ts)
        out["downgrades"] = list(self.downgrades)
        out.update(self.extra)
        return out


def _error_tree(latency: float, error: str, **attrs) -> dict:
    """Synthesized single-node span tree for an untraced failure."""
    return {
        "name": "serve.request",
        "duration_seconds": latency,
        "attrs": attrs,
        "status": "error",
        "error": error,
        "children": [],
    }


class RequestProbe:
    """Per-request capture handle: decides sampling *before* execution.

    Used as a context manager around the serve cycle — a sampled probe
    installs a private tracer for the duration (only when no real tracer
    is active, so ``--trace-file`` runs keep their single tree) — then
    :meth:`finish` records the exemplar with whatever outcome the caller
    observed.
    """

    __slots__ = ("_recorder", "seq", "sampled", "t0", "_tracer", "_prev",
                 "_attrs", "_finished")

    def __init__(self, recorder: "FlightRecorder", seq: int, sampled: bool,
                 attrs: dict):
        self._recorder = recorder
        self.seq = seq
        self.sampled = sampled
        # Set on __enter__; 0.0 means the probe never wrapped execution,
        # in which case finish() reports zero latency rather than guessing.
        self.t0 = 0.0
        self._tracer = None
        self._prev = None
        self._attrs = attrs
        self._finished = False

    def __enter__(self) -> "RequestProbe":
        if self.sampled and not obs_trace.tracing_enabled():
            self._tracer = obs_trace.Tracer()
            self._prev = obs_trace.set_tracer(self._tracer)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        if self._tracer is not None:
            obs_trace.set_tracer(self._prev)
            self._prev = None
        return False

    def _span_tree(self, status: str, latency: float, error: str | None) -> dict | None:
        if self._tracer is not None and self._tracer.roots:
            return self._tracer.roots[0].to_dict()
        if status != "ok" and error is not None:
            return _error_tree(latency, error, **self._attrs)
        return None

    def finish(self, status: str = "ok", *, error: BaseException | str | None = None,
               **fields) -> None:
        """Record this request's outcome (idempotent; keep-or-drop applies)."""
        if self._finished:
            return
        self._finished = True
        if status == "ok" and not self.sampled:
            return  # the common case: one branch, nothing retained
        latency = (time.perf_counter() - self.t0) if self.t0 else 0.0
        error_text = None
        if error is not None:
            error_text = (error if isinstance(error, str)
                          else f"{type(error).__name__}: {error}")
        merged = {**self._attrs, **fields}  # finish-time fields win
        self._recorder._record(
            seq=self.seq, status=status, latency=latency, sampled=self.sampled,
            error=error_text,
            span_tree=self._span_tree(status, latency, error_text),
            **merged,
        )


class FlightRecorder:
    """Bounded ring buffer of request exemplars with JSON dumps."""

    def __init__(self, capacity: int = 256, sample_every: int = 16, *,
                 dump_dir=None, clock=time.time):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.capacity = capacity
        self.sample_every = sample_every
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self._clock = clock
        self._ring: deque[RequestExemplar] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        # itertools.count is C-implemented and therefore thread-safe to
        # advance without taking the lock on every request.
        self._seq = itertools.count(1)
        self.n_requests = 0
        self.n_recorded = 0
        self.n_failures = 0
        self.dumps: list[str] = []

    # -- the per-request path ----------------------------------------------
    def begin(self, **attrs) -> RequestProbe:
        """Open a probe for one request; sampling is decided here, up
        front, because tracing cannot be turned on retroactively."""
        seq = next(self._seq)
        self.n_requests += 1
        return RequestProbe(self, seq, seq % self.sample_every == 0, attrs)

    def observe(self, status: str = "ok", *, latency: float = 0.0,
                error: BaseException | str | None = None, **fields) -> None:
        """Record one already-measured request (no probe, no tracing).

        The path for outcomes measured elsewhere: the router's shed
        exemplars and process-shard round-trips report them directly.
        """
        seq = next(self._seq)
        self.n_requests += 1
        error_text = None
        if error is not None:
            error_text = (error if isinstance(error, str)
                          else f"{type(error).__name__}: {error}")
        sampled = seq % self.sample_every == 0
        span_tree = None
        if status != "ok" and error_text is not None:
            span_tree = _error_tree(latency, error_text)
        self._record(seq=seq, status=status, latency=latency, sampled=sampled,
                     error=error_text, span_tree=span_tree, **fields)

    def _record(self, *, seq: int, status: str, latency: float, sampled: bool,
                **fields) -> None:
        if status == "ok" and not sampled:
            return  # the common case: one branch, nothing retained
        known = {f for f in RequestExemplar.__dataclass_fields__}
        extra = {k: fields.pop(k) for k in list(fields) if k not in known}
        exemplar = RequestExemplar(seq=seq, ts=self._clock(), status=status,
                                   latency=latency, sampled=sampled,
                                   extra=extra, **fields)
        with self._lock:
            self._ring.append(exemplar)
            self.n_recorded += 1
            if status != "ok":
                self.n_failures += 1

    # -- introspection / dumps ---------------------------------------------
    def exemplars(self) -> list[RequestExemplar]:
        with self._lock:
            return list(self._ring)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def dump(self, reason: str = "on_demand") -> dict:
        """JSON-able snapshot of the ring and the recorder's accounting."""
        with self._lock:
            exemplars = [e.to_dict() for e in self._ring]
        return {
            "reason": reason,
            "generated_ts": self._clock(),
            "capacity": self.capacity,
            "sample_every": self.sample_every,
            "requests_seen": self.n_requests,
            "recorded": self.n_recorded,
            "failures": self.n_failures,
            "exemplars": exemplars,
        }

    def dump_json(self, path=None, *, reason: str = "on_demand") -> Path:
        """Write :meth:`dump` to ``path`` (default: ``dump_dir`` or cwd)."""
        if path is None:
            base = self.dump_dir if self.dump_dir is not None else Path(".")
            base.mkdir(parents=True, exist_ok=True)
            path = base / f"flight-recorder-{reason}-{int(self._clock())}.json"
        path = Path(path)
        path.write_text(json.dumps(self.dump(reason=reason), indent=2,
                                   default=str) + "\n")
        self.dumps.append(str(path))
        logger.info("flight recorder dumped %d exemplar(s) to %s (%s)",
                    len(self), path, reason)
        return path


# -- the process-wide recorder (off by default) ---------------------------------

_active: FlightRecorder | None = None


def current_recorder() -> FlightRecorder | None:
    """The installed recorder, or ``None`` (recording disabled)."""
    return _active


def set_recorder(recorder: FlightRecorder | None) -> FlightRecorder | None:
    """Install ``recorder`` process-wide; returns the previous one."""
    global _active
    previous = _active
    _active = recorder
    return previous


@contextmanager
def use_recorder(recorder: FlightRecorder | None = None):
    """Scope a recorder (default: a fresh one) over a block."""
    recorder = recorder if recorder is not None else FlightRecorder()
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)


def crash_dump(reason: str, error: str | None = None) -> Path | None:
    """Dump the active recorder because something just crash-looped.

    Called by the worker pool right before it raises
    :class:`~repro.pipeline.resilience.WorkerCrashError`; a no-op without
    an installed recorder, and never raises — the crash being reported
    must propagate, not a dump failure.
    """
    recorder = _active
    if recorder is None:
        return None
    if error is not None:
        recorder.observe(status="error", error=error, crash=reason)
    try:
        return recorder.dump_json(reason=reason)
    except OSError:
        logger.exception("flight recorder crash dump failed (%s)", reason)
        return None


def install_signal_dump(signum: int = signal.SIGUSR1) -> bool:
    """Dump the active recorder on ``signum`` (default ``SIGUSR1``).

    Returns ``False`` (without installing) off the main thread — signal
    handlers can only be registered there.  The previous handler is
    chained, so an application's own ``SIGUSR1`` behaviour survives.
    """
    if threading.current_thread() is not threading.main_thread():
        logger.warning("signal dump not installed: not on the main thread")
        return False

    previous = signal.getsignal(signum)

    def _handler(received, frame):
        crash_dump("signal")
        if callable(previous) and previous not in (signal.SIG_IGN, signal.SIG_DFL):
            previous(received, frame)

    signal.signal(signum, _handler)
    return True
