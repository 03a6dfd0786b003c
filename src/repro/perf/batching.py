"""Micro-batched SpMM serving: coalesce compatible requests, bound the tail.

HC-SpMM's observation — per-call dispatch overhead dominates small SpMMs —
applies directly to :class:`~repro.pipeline.serving.ServingSession`: every
request pays permute-in, kernel dispatch, retry bookkeeping and
permute-back.  Since ``A @ [x1 | x2 | … ]`` computes each feature block's
columns independently, requests against the *same* operand coalesce into
one stacked call with numerically identical per-request outputs.

:class:`MicroBatcher` implements that with a bounded request queue:

* ``submit(x)`` validates eagerly (bad requests fail at the door, never
  poison a batch), enqueues, and returns a ``concurrent.futures.Future``;
* a flusher thread coalesces whatever is queued once the batch is *full*
  (``max_requests`` requests or ``max_columns`` stacked columns) **or**
  the oldest request's ``max_delay`` flush deadline expires — p99 latency
  is bounded by ``max_delay`` plus one stacked call;
* the queue is bounded (``capacity``); ``submit`` blocks for backpressure.

Fault semantics compose with PR 2/3's machinery: the stacked call runs the
session's ordinary retry/downgrade cycle, and if it still fails (e.g. an
injected batch crash — :func:`repro.pipeline.faults.maybe_fail_batch`),
the batcher **re-serves each request individually**, so only requests that
fail on their own get their future's exception; the rest complete.  With
session metrics enabled, per-request latency (submit → resolve) feeds the
existing ``spmm_latency_seconds`` histogram, plus batch-shape counters.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from ..obs import trace as obs_trace

__all__ = ["BatchPolicy", "MicroBatcher"]

logger = logging.getLogger("repro.perf.batching")


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs for one session's micro-batching behaviour.

    ``max_delay`` is the flush deadline: the longest a request waits for
    companions before the batch goes out regardless (the p99 bound).
    ``max_requests`` / ``max_columns`` cap batch shape so one stacked call
    stays cache-friendly; ``capacity`` bounds the queue (backpressure).
    """

    max_delay: float = 0.002
    max_requests: int = 16
    max_columns: int = 1024
    capacity: int = 128

    def __post_init__(self):
        if self.max_delay < 0:
            raise ValueError("max_delay must be non-negative")
        if self.max_requests < 1 or self.max_columns < 1 or self.capacity < 1:
            raise ValueError("max_requests, max_columns and capacity must be >= 1")


class _Pending:
    """One queued request: validated features, its future, and its clock."""

    __slots__ = ("x", "squeeze", "future", "t0")

    def __init__(self, x: np.ndarray, squeeze: bool):
        self.x = x
        self.squeeze = squeeze
        self.future: Future = Future()
        self.t0 = time.perf_counter()


class MicroBatcher:
    """Bounded coalescing queue in front of one :class:`ServingSession`."""

    def __init__(self, session, policy: BatchPolicy | None = None):
        self._session = session
        self.policy = policy or BatchPolicy()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)   # new work / close
        self._space = threading.Condition(self._lock)  # queue shrank
        self._pending: deque[_Pending] = deque()
        self._thread: threading.Thread | None = None
        self._closed = False
        self.n_batches = 0
        self.n_coalesced = 0
        self.n_fallbacks = 0

    # -- public API --------------------------------------------------------
    def submit(self, x: np.ndarray) -> Future:
        """Enqueue one request; returns its future.

        Validation runs here, synchronously — a malformed request raises in
        the caller and never reaches a batch.  When the session has an
        :class:`~repro.pipeline.guard.AdmissionPolicy`, it is consulted
        here too: a request past the queue-depth bound, or whose estimated
        completion (live latency p95) misses the deadline, raises
        :class:`~repro.pipeline.resilience.OverloadError` immediately —
        shed at the door, before any queueing.  Otherwise blocks when the
        queue is at ``capacity`` until the flusher drains it.
        """
        x2, squeeze = self._session._validate_features(x)
        item = _Pending(x2, squeeze)
        admission = getattr(self._session, "admission", None)
        with self._lock:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            if admission is not None:
                self._admit_locked(admission)
            while len(self._pending) >= self.policy.capacity:
                self._space.wait()
                if self._closed:
                    raise RuntimeError("MicroBatcher is closed")
            self._pending.append(item)
            self._observe_depth_locked()
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="repro-microbatch", daemon=True
                )
                self._thread.start()
            self._wake.notify_all()
        return item.future

    def flush(self) -> None:
        """Serve everything queued right now, on the calling thread."""
        while True:
            with self._lock:
                batch = self._take_locked()
                self._observe_depth_locked()
                self._space.notify_all()
            if not batch:
                return
            self._run_batch(batch)

    def close(self, drain: bool = True) -> None:
        """Stop the flusher thread and refuse new requests.

        ``drain=True`` serves everything still queued (on the calling
        thread) before shutdown; ``drain=False`` abandons the queue,
        resolving pending futures with
        :class:`~repro.pipeline.resilience.OverloadError` (reason
        ``closed``).  In every case — including a drain whose flush itself
        raises — no queued future is left unresolved, so a caller blocked
        on ``.result()`` can never hang on a closed batcher.
        """
        with self._lock:
            self._closed = True
            self._wake.notify_all()
            self._space.notify_all()
            thread = self._thread
        try:
            if drain:
                self.flush()
            else:
                from ..pipeline.resilience import OverloadError  # lazy: cycle

                self._abort_pending(OverloadError(
                    "MicroBatcher closed without draining; request abandoned",
                    reason="closed",
                ))
        except BaseException as exc:
            # The drain itself failed: the error propagates to the closer,
            # but every still-queued future gets it too (satellite fix —
            # a raising flush used to leave them forever-pending).
            self._abort_pending(exc)
            raise
        finally:
            if thread is not None:
                thread.join(timeout=5.0)
            self._abort_pending(RuntimeError(
                "MicroBatcher closed with unserved requests"))

    def _abort_pending(self, exc: BaseException) -> None:
        """Resolve every queued future with ``exc`` (no-op when empty)."""
        with self._lock:
            abandoned = list(self._pending)
            self._pending.clear()
            self._observe_depth_locked()
            self._space.notify_all()
        for item in abandoned:
            if not item.future.done():
                item.future.set_exception(exc)

    def _admit_locked(self, admission) -> None:
        """Apply the session's admission policy; sheds raise OverloadError."""
        from ..pipeline.resilience import OverloadError  # lazy: cycle

        session = self._session
        # Prefer the session's rolling latency window (recent p95) over the
        # lifetime histogram — a backend that was slow an hour ago should
        # not shed traffic now, and one that is slow *now* should.
        latency = getattr(session, "latency_window", None)
        if latency is None:
            latency = session._m_latency if session._metrics is not None else None
        try:
            admission.admit(
                depth=len(self._pending),
                latency=latency,
                batch_size=self.policy.max_requests,
            )
        except OverloadError as exc:
            from ..obs import events as obs_events

            reason = exc.context.get("reason", "unknown")
            if session._metrics is not None:
                session._metrics.counter(
                    "serve_shed_total",
                    help="requests rejected by admission control",
                    reason=reason,
                ).inc()
            recorder = getattr(session, "recorder", None)
            if recorder is not None:
                recorder.observe("shed", shed_reason=reason,
                                 backend=session.backend_name,
                                 error=exc)
            obs_events.emit("serve.shed", reason=reason,
                            depth=len(self._pending))
            logger.debug("request shed (%s): %s", reason, exc)
            raise

    def _observe_depth_locked(self) -> None:
        session = self._session
        if session._metrics is not None:
            session._metrics.gauge(
                "serve_queue_depth", help="requests queued for micro-batching"
            ).set(float(len(self._pending)))

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    @property
    def queued(self) -> int:
        with self._lock:
            return len(self._pending)

    def __repr__(self) -> str:
        return (
            f"MicroBatcher(queued={self.queued}, batches={self.n_batches}, "
            f"coalesced={self.n_coalesced}, fallbacks={self.n_fallbacks})"
        )

    # -- internals ---------------------------------------------------------
    def _full_locked(self) -> bool:
        if len(self._pending) >= self.policy.max_requests:
            return True
        cols = 0
        max_columns = self.policy.max_columns
        for item in self._pending:
            cols += item.x.shape[1]
            if cols >= max_columns:
                return True
        return False

    def _take_locked(self) -> list[_Pending]:
        """Pop the next batch under the shape caps; leftovers stay queued."""
        batch: list[_Pending] = []
        cols = 0
        max_columns = self.policy.max_columns
        while self._pending and len(batch) < self.policy.max_requests:
            nxt = self._pending[0]
            if batch and cols + nxt.x.shape[1] > max_columns:
                break
            batch.append(self._pending.popleft())
            cols += nxt.x.shape[1]
        return batch

    def _loop(self) -> None:
        while True:
            with self._lock:
                while not self._pending and not self._closed:
                    self._wake.wait()
                if self._closed and not self._pending:
                    return
                # Batch window: wait for companions until the oldest
                # request's flush deadline, or until the batch fills.
                deadline = self._pending[0].t0 + self.policy.max_delay
                while self._pending and not self._closed and not self._full_locked():
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    self._wake.wait(remaining)
                batch = self._take_locked()
                self._observe_depth_locked()
                self._space.notify_all()
            if batch:
                try:
                    self._run_batch(batch)
                except Exception:  # noqa: BLE001 - futures already carry it
                    # The batch's futures were resolved with the error by
                    # _run_batch; the flusher thread itself keeps serving.
                    logger.exception("micro-batch flusher survived a batch error")

    def _resolve(self, item: _Pending, out: np.ndarray) -> None:
        session = self._session
        session.n_requests += 1
        if session._metrics is not None:
            session._m_requests.inc()
            session._m_latency.observe(time.perf_counter() - item.t0)
            session._path_rows_counter().inc(session.shape[0])
        recorder = getattr(session, "recorder", None)
        if recorder is not None:
            recorder.observe(
                "ok", latency=time.perf_counter() - item.t0,
                backend=session.backend_name, batched=True,
                h=int(item.x.shape[1]),
                operand_key=getattr(session, "operand_key", None),
            )
        item.future.set_result(out[:, 0] if item.squeeze else np.ascontiguousarray(out))

    def _run_batch(self, batch: list[_Pending]) -> None:
        """Serve one batch, guaranteeing its futures resolve.

        :meth:`_run_batch_inner` already routes per-request failures to
        their futures; this wrapper covers what escapes it (keyboard
        interrupt mid-drain, a resolve-path bug) — the batch's unresolved
        futures get the error before it propagates, so no caller blocked on
        ``.result()`` outlives the batch that carried its request.
        """
        try:
            self._run_batch_inner(batch)
        except BaseException as exc:
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(exc)
            raise

    def _run_batch_inner(self, batch: list[_Pending]) -> None:
        from ..pipeline import faults  # lazy: pipeline imports repro.perf users

        session = self._session
        self.n_batches += 1
        self.n_coalesced += len(batch)
        if session._metrics is not None:
            session._metrics.counter(
                "serve_batches_total", help="coalesced spmm batches executed"
            ).inc()
            session._metrics.counter(
                "serve_coalesced_requests_total",
                help="spmm requests served through a coalesced batch",
            ).inc(len(batch))
        try:
            faults.maybe_fail_batch()
            stacked = (
                batch[0].x if len(batch) == 1
                else np.concatenate([item.x for item in batch], axis=1)
            )
            with obs_trace.span(
                "serve.batch", requests=len(batch), h=stacked.shape[1]
            ):
                out = session._serve_cycle(stacked)
        except Exception as exc:
            # The stacked call failed even after the session's own
            # retry/downgrade cycle (or was injected to crash).  Serve each
            # request individually so only genuinely-failing requests fail.
            self.n_fallbacks += 1
            if session._metrics is not None:
                session._metrics.counter(
                    "serve_batch_fallbacks_total",
                    help="coalesced batches re-served request-by-request",
                ).inc()
            logger.debug(
                "coalesced batch of %d failed (%s); re-serving individually",
                len(batch), exc,
            )
            recorder = getattr(session, "recorder", None)
            for item in batch:
                try:
                    single = session._serve_cycle(item.x)
                except Exception as single_exc:  # noqa: BLE001 - routed to future
                    if recorder is not None:
                        recorder.observe(
                            "error", latency=time.perf_counter() - item.t0,
                            error=single_exc, backend=session.backend_name,
                            batched=True, h=int(item.x.shape[1]),
                        )
                    item.future.set_exception(single_exc)
                else:
                    self._resolve(item, single)
            return
        col = 0
        for item in batch:
            h = item.x.shape[1]
            self._resolve(item, out[:, col:col + h])
            col += h
