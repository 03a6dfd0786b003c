"""Cross-process shard serving: GIL-free workers over zero-copy shm rings.

The thread-lane :class:`~repro.pipeline.sharded.ShardRouter` fans one SpMM
request out over shard *threads* — correct, but every sub-request still
contends for one interpreter's GIL, so a CPU-bound (or C-extension-stalled)
shard serializes its peers and a crashed lane is a crashed process.  This
module is the process-isolation residual named by ROADMAP item 1: each
shard replica becomes one persistent **worker process** that

* inherits its shard's compressed operand **once at spawn**, through
  ``fork``, together with the parent engine's plan-cache entry for it
  (:func:`~repro.pipeline.sharded.shard_result` put that entry there),
  and never ships operand bytes per request;
* serves sub-requests over a per-lane **shared-memory ring**
  (:func:`repro.perf.shm.create_segment`): the parent writes the permuted
  feature block into a request slot and bumps the slot's sequence stamp,
  the worker computes and writes the row-partial into the paired response
  slot, stamping its sequence last — a seqlock-style protocol where the
  hot path is write-slice / bump-seq / read-slice with **no pickling and
  no per-request allocation** on the request side (the response pays one
  copy out of the ring, because the slot is recycled);
* wakes on a **doorbell pipe** instead of busy-polling (one byte per
  direction per request).  The pipe doubles as the death detector: a
  SIGKILLed worker's write end closes, the parent reads EOF, and the
  sub-request fails over to a replica instead of wedging the fabric.

Supervision is the worker pool's own: each worker's
:class:`~repro.perf.pool.Supervisor` bounds each round-trip by its
:class:`~repro.perf.pool.SupervisionPolicy` (``job_timeout`` → the hung
worker is killed) and caps respawns — a crash-looping lane surfaces as
:class:`~repro.pipeline.resilience.WorkerCrashError` (with
``crash_loop=True`` in its context, which the router uses to mark the
replica dead) after a flight-recorder crash dump, through the same code
path as the worker pool.  A worker that dies once self-heals: the serve
that detects the death fails fast (one failover), the *next* serve
respawns the worker by forking again from the parent, whose
:class:`~repro.pipeline.sharded.ShardSet` still holds the operand, and it
answers bit-identically.

Worker-side errors cross the boundary as structured JSON in the response
slot — type name, message, and context — and are rebuilt into the same
:class:`~repro.pipeline.resilience.PipelineError` taxonomy the thread path
raises, so the router's failover/degradation semantics are unchanged.

Observability (all parent-side, so one registry tells the whole story):
``procshard_worker_attach_total{shard}``,
``procshard_worker_restarts_total{shard}``,
``procshard_worker_deaths_total{shard}``,
``procshard_job_timeouts_total{shard}``, the
``procshard_ipc_seconds{shard}`` transport-overhead histogram, a
``procshard_ring_depth{shard}`` in-flight gauge, and — because the worker
stamps its own serve nanoseconds into the response header — flight-recorder
exemplars that carry per-request worker-side timings across the process
boundary.  The parent also feeds ``spmm_latency_seconds{shard=...}`` and
``serve_requests_total{shard=...}`` so admission windows and ``repro top``
keep working identically in both executors.

Requires the ``fork`` start method (operand inheritance and pipe fds);
constructing a worker on a platform without it raises
:class:`~repro.pipeline.resilience.PipelineError` with a clear message.
See ``docs/sharding.md`` ("Executors") for the operator's view and
``benchmarks/bench_procshard.py`` for the tracked wall-clock numbers.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import select
import signal
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..obs import events as obs_events
from ..perf import shm as shm_transport
from ..perf.pool import SupervisionPolicy, Supervisor
from . import faults
from .resilience import (
    ArtifactCorruptError,
    BackendExecutionError,
    CircuitOpenError,
    DeadlineExceeded,
    OverloadError,
    PipelineError,
    PreprocessError,
    WorkerCrashError,
)

__all__ = ["ProcessShardWorker", "RingGeometry"]

logger = logging.getLogger("repro.pipeline.procshard")

_MAGIC = 0x5250524F  # "RPRO"

# Slot-header field indices (int64 each; headers are 64-byte aligned).
_HDR_I64 = 8
_REQ_SEQ, _REQ_ROWS, _REQ_COLS, _REQ_STALL = 0, 1, 2, 3
_RESP_SEQ, _RESP_STATUS, _RESP_ROWS, _RESP_COLS, _RESP_SERVE_NS, _RESP_ERR = (
    0, 1, 2, 3, 4, 5)
# Control header (one per segment): magic, worker pid, attach
# nanoseconds, ready flag.
_CTRL_MAGIC, _CTRL_PID, _CTRL_ATTACH_NS, _CTRL_READY = 0, 1, 2, 3

# Session kwargs that only make sense in the parent process: the worker
# has no reachable registry/recorder, so shipping them is pure confusion.
_PARENT_ONLY_SESSION_KWARGS = ("metrics", "recorder", "shard")

# Taxonomy classes a worker-side error may rebuild into, by type name.
_TAXONOMY = {cls.__name__: cls for cls in (
    PipelineError, PreprocessError, ArtifactCorruptError,
    BackendExecutionError, CircuitOpenError, OverloadError,
    WorkerCrashError, DeadlineExceeded,
)}


@dataclass(frozen=True)
class RingGeometry:
    """Byte layout of one lane's request/response ring segment.

    ``req_rows`` is the operand's column count (every permuted feature
    block has that many rows); ``out_rows`` the shard's row count (every
    partial has at most that many rows); ``h_max`` caps one round-trip's
    feature width — wider requests are served in column chunks.  All
    region sizes are multiples of 8 bytes, so every numpy view over the
    segment is aligned.
    """

    n_slots: int = 4
    req_rows: int = 0
    out_rows: int = 0
    h_max: int = 256
    err_bytes: int = 4096

    def __post_init__(self):
        if self.n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        if self.req_rows < 1 or self.out_rows < 1:
            raise ValueError("ring geometry needs positive operand dims")
        if self.h_max < 1:
            raise ValueError("h_max must be >= 1")

    @property
    def hdr_bytes(self) -> int:
        return _HDR_I64 * 8

    @property
    def req_slot_bytes(self) -> int:
        return self.hdr_bytes + self.req_rows * self.h_max * 8

    @property
    def resp_slot_bytes(self) -> int:
        return self.hdr_bytes + self.out_rows * self.h_max * 8 + self.err_bytes

    @property
    def total_bytes(self) -> int:
        return (self.hdr_bytes  # control header
                + self.n_slots * (self.req_slot_bytes + self.resp_slot_bytes))

    def req_offset(self, slot: int) -> int:
        return self.hdr_bytes + slot * self.req_slot_bytes

    def resp_offset(self, slot: int) -> int:
        return (self.hdr_bytes + self.n_slots * self.req_slot_bytes
                + slot * self.resp_slot_bytes)


class _RingViews:
    """Typed numpy views over one ring segment (built once per side)."""

    def __init__(self, buf, geom: RingGeometry):
        self.ctrl = np.ndarray((_HDR_I64,), dtype=np.int64, buffer=buf)
        self.req_hdr, self.req_pay = [], []
        self.resp_hdr, self.resp_pay, self.resp_err = [], [], []
        for slot in range(geom.n_slots):
            off = geom.req_offset(slot)
            self.req_hdr.append(np.ndarray(
                (_HDR_I64,), dtype=np.int64, buffer=buf, offset=off))
            self.req_pay.append(np.ndarray(
                (geom.req_rows * geom.h_max,), dtype=np.float64, buffer=buf,
                offset=off + geom.hdr_bytes))
            off = geom.resp_offset(slot)
            self.resp_hdr.append(np.ndarray(
                (_HDR_I64,), dtype=np.int64, buffer=buf, offset=off))
            self.resp_pay.append(np.ndarray(
                (geom.out_rows * geom.h_max,), dtype=np.float64, buffer=buf,
                offset=off + geom.hdr_bytes))
            self.resp_err.append(np.ndarray(
                (geom.err_bytes,), dtype=np.uint8, buffer=buf,
                offset=off + geom.hdr_bytes + geom.out_rows * geom.h_max * 8))


@dataclass
class _WorkerSpec:
    """Everything the worker process needs; inherited via ``fork``, never
    pickled — the operand object rides along copy-on-write."""

    shard_index: int
    replica_index: int
    segment: str
    geometry: RingGeometry
    req_r: int
    req_w: int
    resp_r: int
    resp_w: int
    operand: object
    session_kwargs: dict


def _worker_main(spec: _WorkerSpec) -> None:
    """Worker process entry: attach once, then serve the ring until EOF."""
    # Close the parent's pipe ends we inherited: the parent must see EOF
    # the moment this process dies, and our read must EOF if the parent
    # vanishes without a shutdown byte.
    os.close(spec.req_w)
    os.close(spec.resp_r)
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # ^C belongs to the parent

    t_attach = time.perf_counter()
    seg = shm_transport._attach_untracked(spec.segment)
    views = _RingViews(seg.buf, spec.geometry)

    from .serving import ServingSession

    # The forked operand is the parent's object, so the engine's plan-cache
    # entry for it came along; without one, the first request builds the
    # plan from the operand's backend and shape.
    session = ServingSession(spec.operand, None, **spec.session_kwargs)

    views.ctrl[_CTRL_PID] = os.getpid()
    views.ctrl[_CTRL_ATTACH_NS] = int((time.perf_counter() - t_attach) * 1e9)
    views.ctrl[_CTRL_READY] = 1
    views.ctrl[_CTRL_MAGIC] = _MAGIC
    os.write(spec.resp_w, b"R")

    geom = spec.geometry
    ticket = 0
    try:
        while True:
            try:
                byte = os.read(spec.req_r, 1)
            except OSError:  # pragma: no cover - parent fd torn down
                break
            if not byte or byte == b"Q":
                break
            slot = ticket % geom.n_slots
            hdr = views.req_hdr[slot]
            if int(hdr[_REQ_SEQ]) != ticket + 1:
                # Seqlock mismatch: the parent and this worker disagree on
                # the stream position.  Serving a stale slot could merge
                # the wrong generation's bytes — die instead; the parent
                # classifies the EOF as a crash and respawns cleanly.
                logger.error("shard %d worker: ring desync at ticket %d",
                             spec.shard_index, ticket)
                break
            n_rows, h = int(hdr[_REQ_ROWS]), int(hdr[_REQ_COLS])
            stall_us = int(hdr[_REQ_STALL])
            if stall_us > 0:  # injected "stall": a wedged/GIL-bound worker
                time.sleep(stall_us / 1e6)
            xr = views.req_pay[slot][: n_rows * h].reshape(n_rows, h)
            rhdr = views.resp_hdr[slot]
            t0 = time.perf_counter()
            try:
                out = session.serve_block(xr)  # the router validated it
                serve_ns = int((time.perf_counter() - t0) * 1e9)
                flat = out.reshape(-1)
                views.resp_pay[slot][: flat.size] = flat
                rhdr[_RESP_STATUS] = 0
                rhdr[_RESP_ROWS] = out.shape[0]
                rhdr[_RESP_COLS] = out.shape[1] if out.ndim == 2 else 1
                rhdr[_RESP_ERR] = 0
            except BaseException as exc:  # noqa: BLE001 - marshalled to parent
                serve_ns = int((time.perf_counter() - t0) * 1e9)
                payload = json.dumps(
                    {"type": type(exc).__name__, "message": str(exc),
                     "context": getattr(exc, "context", {})},
                    default=str,
                ).encode()[: geom.err_bytes]
                views.resp_err[slot][: len(payload)] = np.frombuffer(
                    payload, dtype=np.uint8)
                rhdr[_RESP_STATUS] = 1
                rhdr[_RESP_ERR] = len(payload)
            rhdr[_RESP_SERVE_NS] = serve_ns
            rhdr[_RESP_SEQ] = ticket + 1  # seqlock: stamp after the payload
            try:
                os.write(spec.resp_w, b"\x01")
            except OSError:  # pragma: no cover - parent gone
                break
            ticket += 1
    finally:
        try:
            seg.close()
        except Exception:  # pragma: no cover
            pass


def _rebuild_error(payload: bytes, shard: int, replica: int) -> BaseException:
    """Worker-side error JSON → the same exception the thread path raises."""
    try:
        doc = json.loads(payload.decode("utf-8", "replace"))
    except ValueError:
        doc = {"type": "PipelineError",
               "message": payload[:200].decode("utf-8", "replace")}
    name = str(doc.get("type", "PipelineError"))
    message = str(doc.get("message", ""))
    context = doc.get("context") or {}
    if not isinstance(context, dict):
        context = {}
    context = {str(k): v for k, v in context.items()}
    context.setdefault("worker_shard", shard)
    context.setdefault("worker_replica", replica)
    cls = _TAXONOMY.get(name)
    if cls is not None:
        return cls(message, **context)
    import builtins

    bcls = getattr(builtins, name, None)
    if isinstance(bcls, type) and issubclass(bcls, Exception):
        return bcls(message)
    return BackendExecutionError(f"{name}: {message}", **context)


class ProcessShardWorker:
    """One shard replica as a supervised worker process behind a shm ring.

    The parent-side handle the router's process executor serves through:
    :meth:`serve` is one blocking ring round-trip (chunked by columns when
    the request is wider than the ring's ``h_max``), :meth:`kill` is the
    chaos hook's real SIGKILL, :meth:`close` the graceful shutdown that
    unlinks the segment.  Death is detected by pipe EOF; the serve that
    detects it raises :class:`WorkerCrashError` *fast* (one failover) and
    the next serve respawns the worker under its
    :class:`~repro.perf.pool.Supervisor`'s crash-loop cap.  :attr:`stats`
    is that supervisor's :class:`~repro.perf.pool.PoolStats`; ``jobs``
    counts served round trips.
    """

    def __init__(
        self,
        shard_index: int,
        replica_index: int,
        operand,
        *,
        session_kwargs: dict | None = None,
        supervision: SupervisionPolicy | None = None,
        metrics=None,
        recorder=None,
        h_max: int = 256,
        n_slots: int = 4,
        spawn_timeout: float = 30.0,
    ):
        if "fork" not in multiprocessing.get_all_start_methods():
            raise PipelineError(
                "executor='process' needs the fork start method (operand "
                "inheritance and pipe doorbells); this platform has none")
        if operand is None:
            raise ValueError("process shard worker needs an operand")
        self.shard_index = shard_index
        self.replica_index = replica_index
        self.operand = operand
        self._session_kwargs = {
            k: v for k, v in dict(session_kwargs or {}).items()
            if k not in _PARENT_ONLY_SESSION_KWARGS
        }
        self.supervision = supervision or SupervisionPolicy()
        self._metrics = metrics
        self._recorder = recorder
        self._spawn_timeout = float(spawn_timeout)
        rows, cols = operand.shape
        self.geometry = RingGeometry(n_slots=n_slots, req_rows=cols,
                                     out_rows=rows, h_max=h_max)
        self.alive = False
        self.pid: int | None = None
        self._closed = False
        self._lock = threading.RLock()
        self._seg = None
        self._views: _RingViews | None = None
        self._proc = None
        self._req_w = self._resp_r = -1
        self._ticket = 0
        restarts = timeouts = None
        if metrics is not None:
            shard = str(shard_index)
            restarts = metrics.counter(
                "procshard_worker_restarts_total", shard=shard,
                help="shard worker respawns after a death or kill")
            timeouts = metrics.counter(
                "procshard_job_timeouts_total", shard=shard,
                help="shard worker round-trips that exceeded the job timeout")
            self._m_ipc = metrics.histogram(
                "procshard_ipc_seconds", shard=shard,
                help="ring transport overhead (round-trip minus worker serve)")
            self._m_depth = metrics.gauge(
                "procshard_ring_depth", shard=shard,
                help="request slots in flight on the lane ring")
            self._m_latency = metrics.histogram(
                "spmm_latency_seconds", shard=shard,
                help="end-to-end serve request latency")
            self._m_served = metrics.counter(
                "serve_requests_total", shard=shard,
                help="spmm requests served")
        self.supervisor = Supervisor(
            self.supervision,
            f"shard {shard_index} replica {replica_index} worker",
            restarts=restarts, timeouts=timeouts,
            dump_reason="procshard_crash_loop",
            shard=shard_index, replica=replica_index)
        self.stats = self.supervisor.stats
        self._spawn()

    # -- lifecycle ----------------------------------------------------------
    def _spawn(self) -> None:
        geom = self.geometry
        seg = shm_transport.create_segment(
            geom.total_bytes,
            label=f"ring{self.shard_index}r{self.replica_index}")
        req_r, req_w = os.pipe()
        resp_r, resp_w = os.pipe()
        views = _RingViews(seg.buf, geom)
        views.ctrl[:] = 0
        spec = _WorkerSpec(
            shard_index=self.shard_index, replica_index=self.replica_index,
            segment=seg.name, geometry=geom,
            req_r=req_r, req_w=req_w, resp_r=resp_r, resp_w=resp_w,
            operand=self.operand, session_kwargs=self._session_kwargs,
        )
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(
            target=_worker_main, args=(spec,), daemon=True,
            name=f"repro-psw{self.shard_index}r{self.replica_index}")
        proc.start()
        os.close(req_r)
        os.close(resp_w)
        self._seg, self._views, self._proc = seg, views, proc
        self._req_w, self._resp_r = req_w, resp_r
        self._ticket = 0
        self.stats.spawns += 1
        byte = self._poll_byte(self._spawn_timeout)
        if byte != b"R" or int(views.ctrl[_CTRL_MAGIC]) != _MAGIC:
            self._teardown(reap=True)
            raise WorkerCrashError(
                f"shard {self.shard_index} replica {self.replica_index} "
                f"worker failed to start (no handshake within "
                f"{self._spawn_timeout:.1f}s)",
                shard=self.shard_index, replica=self.replica_index)
        self.pid = int(views.ctrl[_CTRL_PID])
        attach_seconds = int(views.ctrl[_CTRL_ATTACH_NS]) / 1e9
        self.alive = True
        if self._metrics is not None:
            self._metrics.counter(
                "procshard_worker_attach_total",
                help="shard worker operand attachments at spawn",
                shard=str(self.shard_index)).inc()
        obs_events.emit(
            "procshard.worker_attached", shard=self.shard_index,
            replica=self.replica_index, pid=self.pid,
            attach_seconds=attach_seconds)
        logger.debug(
            "shard %d replica %d worker pid %d up (%.1fms)",
            self.shard_index, self.replica_index, self.pid,
            attach_seconds * 1e3)

    def _poll_byte(self, timeout: float) -> bytes:
        """Read one doorbell byte within ``timeout``; ``b""`` on EOF/expiry."""
        deadline = time.perf_counter() + timeout
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return b""
            readable, _, _ = select.select([self._resp_r], [], [], remaining)
            if readable:
                try:
                    return os.read(self._resp_r, 1)
                except OSError:  # pragma: no cover - torn-down fd
                    return b""

    def kill(self) -> None:
        """SIGKILL the worker process (the chaos hook's real kill)."""
        proc = self._proc
        if proc is not None and proc.pid and proc.is_alive():
            self.stats.kills += 1
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover - already gone
                pass

    def _teardown(self, *, reap: bool) -> None:
        """Close fds, reap the process, unlink the segment; idempotent."""
        self.alive = False
        proc, self._proc = self._proc, None
        if proc is not None and reap:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck in a syscall
                proc.kill()
                proc.join(timeout=2.0)
        for fd in (self._req_w, self._resp_r):
            if fd >= 0:
                try:
                    os.close(fd)
                except OSError:  # pragma: no cover
                    pass
        self._req_w = self._resp_r = -1
        seg, self._seg = self._seg, None
        self._views = None
        if seg is not None:
            shm_transport.destroy_segment(seg)

    def _on_death(self, reason: str) -> None:
        """Classify a detected death and raise the failover error."""
        pid = self.pid
        self._teardown(reap=True)
        if self._metrics is not None:
            self._metrics.counter(
                "procshard_worker_deaths_total",
                help="shard worker processes that died mid-service",
                shard=str(self.shard_index)).inc()
        obs_events.emit("procshard.worker_died", shard=self.shard_index,
                        replica=self.replica_index, pid=pid, reason=reason)
        logger.warning("shard %d replica %d worker (pid %s) died: %s",
                       self.shard_index, self.replica_index, pid, reason)
        raise WorkerCrashError(
            f"shard {self.shard_index} replica {self.replica_index} worker "
            f"died ({reason})",
            shard=self.shard_index, replica=self.replica_index, pid=pid)

    def close(self) -> None:
        """Graceful shutdown: drain byte, join, unlink; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            proc = self._proc
            if self.alive and proc is not None and proc.is_alive():
                try:
                    os.write(self._req_w, b"Q")
                except OSError:  # pragma: no cover - worker already dead
                    pass
                proc.join(timeout=2.0)
                if proc.is_alive():
                    self.kill()
            self._teardown(reap=True)

    @property
    def crash_looping(self) -> bool:
        """Whether the next respawn would breach the crash-loop cap."""
        return self.supervisor.crash_looping

    # -- serving ------------------------------------------------------------
    def serve(self, xr: np.ndarray, *, timeout: float | None = None,
              action: str | None = None) -> np.ndarray:
        """One sub-request round-trip; returns the shard's row partial.

        ``timeout`` (default: the supervision policy's ``job_timeout``)
        bounds the wait; on expiry the worker is killed (it is presumed
        hung — a stalled C extension holds no Python signal handler) and
        :class:`DeadlineExceeded` raised, which the router's failover path
        absorbs like any replica failure.  ``action`` lets the router
        forward a scripted shard directive; the worker's own
        :func:`~repro.pipeline.faults.procshard_directive` is consulted
        too.
        """
        with self._lock:
            if self._closed:
                raise WorkerCrashError(
                    f"shard {self.shard_index} replica {self.replica_index} "
                    f"worker is closed",
                    shard=self.shard_index, replica=self.replica_index)
            directive = action or faults.procshard_directive(self.shard_index)
            if not self.alive:
                self.supervisor.restart()
                self._spawn()
            stall_us = 0
            if directive in ("kill", "sigkill"):
                # A real mid-request SIGKILL: the round-trip below detects
                # the EOF and fails over — one failover, not a dead fabric.
                self.kill()
            elif directive in ("slow", "stall"):
                stall_us = max(1, int(faults.slow_shard_seconds() * 1e6))
            xr = np.asarray(xr, dtype=np.float64)
            if xr.ndim != 2 or xr.shape[0] != self.geometry.req_rows:
                raise ValueError(
                    f"sub-request must be ({self.geometry.req_rows}, h), "
                    f"got {xr.shape}")
            timeout = (self.supervision.job_timeout if timeout is None
                       else timeout)
            h_max = self.geometry.h_max
            if xr.shape[1] <= h_max:
                return self._roundtrip(xr, stall_us, timeout)
            # Wider than one slot: serve in column chunks (each chunk is a
            # full ring round-trip; the stall directive burns on the first).
            parts = []
            for lo in range(0, xr.shape[1], h_max):
                parts.append(self._roundtrip(
                    xr[:, lo:lo + h_max], stall_us, timeout))
                stall_us = 0
            return np.concatenate(parts, axis=1)

    def _roundtrip(self, xr: np.ndarray, stall_us: int,
                   timeout: float | None) -> np.ndarray:
        geom, views = self.geometry, self._views
        ticket = self._ticket
        slot = ticket % geom.n_slots
        n_rows, h = xr.shape
        t0 = time.perf_counter()
        hdr = views.req_hdr[slot]
        views.req_pay[slot][: n_rows * h].reshape(n_rows, h)[...] = xr
        hdr[_REQ_ROWS] = n_rows
        hdr[_REQ_COLS] = h
        hdr[_REQ_STALL] = stall_us
        hdr[_REQ_SEQ] = ticket + 1  # seqlock: stamp after the payload
        if self._metrics is not None:
            self._m_depth.set(1.0)
        try:
            try:
                os.write(self._req_w, b"\x01")
            except OSError:
                self._on_death("request doorbell closed")
            byte = self._wait_response(t0, timeout)
            if byte == b"":
                self._on_death("response doorbell EOF")
            rhdr = views.resp_hdr[slot]
            if int(rhdr[_RESP_SEQ]) != ticket + 1:
                self.kill()
                self._on_death(
                    f"ring desync (expected seq {ticket + 1}, "
                    f"got {int(rhdr[_RESP_SEQ])})")
            self._ticket = ticket + 1
            wall = time.perf_counter() - t0
            serve_seconds = int(rhdr[_RESP_SERVE_NS]) / 1e9
            ipc_seconds = max(0.0, wall - serve_seconds)
            self._observe(wall, serve_seconds, ipc_seconds,
                          ok=int(rhdr[_RESP_STATUS]) == 0)
            if int(rhdr[_RESP_STATUS]) != 0:
                err_len = int(rhdr[_RESP_ERR])
                raise _rebuild_error(
                    bytes(views.resp_err[slot][:err_len]),
                    self.shard_index, self.replica_index)
            nr, nc = int(rhdr[_RESP_ROWS]), int(rhdr[_RESP_COLS])
            out = np.empty((nr, nc))
            out[...] = views.resp_pay[slot][: nr * nc].reshape(nr, nc)
            self.stats.jobs += 1
            return out
        finally:
            if self._metrics is not None:
                self._m_depth.set(0.0)

    def _wait_response(self, t0: float, timeout: float | None) -> bytes:
        """Block on the response doorbell; kill the worker on timeout."""
        while True:
            remaining = None
            if timeout is not None:
                remaining = timeout - (time.perf_counter() - t0)
                if remaining <= 0:
                    break
            readable, _, _ = select.select([self._resp_r], [], [], remaining)
            if readable:
                return os.read(self._resp_r, 1)
            if timeout is None:  # pragma: no cover - spurious wakeup only
                continue

        def kill_hung() -> None:
            self.kill()
            self._teardown(reap=True)

        self.supervisor.timed_out(timeout, kill_hung)

    def _observe(self, wall: float, serve_seconds: float,
                 ipc_seconds: float, *, ok: bool) -> None:
        if self._metrics is not None:
            self._m_ipc.observe(ipc_seconds)
            self._m_latency.observe(wall)
            if ok:
                self._m_served.inc()
        if self._recorder is not None:
            # The exemplar that crosses the process boundary: the worker
            # stamped its own serve time into the response header, so the
            # parent's flight recorder can tell kernel time from transport.
            self._recorder.observe(
                "ok" if ok else "error", latency=wall, kind="procshard",
                shard=self.shard_index, replica=self.replica_index,
                worker_pid=self.pid, serve_seconds=serve_seconds,
                ipc_seconds=ipc_seconds)

    def __enter__(self) -> "ProcessShardWorker":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        state = ("closed" if self._closed
                 else ("alive" if self.alive else "dead"))
        return (f"ProcessShardWorker(shard={self.shard_index}, "
                f"replica={self.replica_index}, pid={self.pid}, {state}, "
                f"served={self.stats.jobs}, restarts={self.stats.restarts})")
