"""The serving front door: partitioned operands behind a fan-out router.

:class:`ShardRouter` is the only request door.  It validates, admits or
sheds, enforces the deadline, owns ``submit``/close/drain and reports
health; an unsharded deployment is a 1-shard router, and concurrency comes
from ``replicas``.  Each replica executes sub-requests on a
:class:`~repro.pipeline.serving.ServingSession` (the shard executor) in a
lane thread or a forked worker.  ``repro.distributed`` only *simulates*
multi-device SpMM; this module is the production middle ground the paper's
§4.4 deployment implies: partition the **reordered** operand by row into
v-aligned contiguous shards (:func:`repro.distributed.partition.
partition_rows` with ``align = pattern.v``, so no V:N:M tile row straddles
two shards), preprocess each shard into its own cached artefact + plan
sidecar (:func:`repro.pipeline.cache.shard_cache_key`), and run one
:class:`ServingSession` per shard replica, each on its own serial
execution lane.

On top sits :class:`ShardRouter`: one SpMM request fans out as concurrent
sub-requests (every shard sees the same permuted feature block, each
computes its own row slice), the row partials merge back into a result
**bit-identical** to the single-session path, and the whole cycle is
guarded the same way single-session serving is — per-backend circuit
breakers and downgrade ladders still apply because every shard kernel goes
through :func:`repro.pipeline.registry.run_kernel`, while admission /
backpressure at the router door is driven by per-shard queue depth and the
windowed p95 of the shard-labelled ``spmm_latency_seconds`` series.

Why bit-identical: each output row is one dot product of an operand row
with the feature block; sharding changes *which session* computes a row,
never the row's own summation order.  The equivalence suite
(``tests/pipeline/test_sharded.py``) pins this per backend × shard count
with integer-valued features, where every partial sum is exact.

Operations hooks:

* **replica failover** — each shard serves from one or more replicas
  (least-in-flight pick, round-robin tie-break).  A replica that dies
  mid-request (:class:`~repro.pipeline.resilience.PipelineError`) is
  stepped over; the sub-request re-serves on a surviving replica.
* **health** — :meth:`ShardRouter.health` reports per-shard liveness;
  a *minority* of unhealthy shards marks the payload ``degraded`` while
  ``healthy`` stays true (``/healthz`` 200), a majority flips ``healthy``
  (503).  See :func:`repro.obs.server.session_health`.

See ``docs/sharding.md`` for the operator's view and
``benchmarks/bench_sharded_serving.py`` for the tracked multi-device
scaling, which is modelled (the makespan of per-shard virtual device
clocks), not measured throughput.
"""

from __future__ import annotations

import copy
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field

import numpy as np

from ..core.permutation import Permutation
from ..obs import events as obs_events
from . import faults, registry
from .cache import shard_cache_key
from .guard import AdmissionPolicy
from .preprocess import (
    _CACHEABLE_BACKENDS,
    PreprocessPlan,
    PreprocessResult,
    _plan_operand,
    preprocess,
)
from .resilience import (
    DeadlineExceeded,
    OverloadError,
    PipelineError,
    RetryPolicy,
    WorkerCrashError,
)
from .serving import ServingSession, validate_features

__all__ = [
    "ShardSpec",
    "ShardSet",
    "ShardRouter",
    "build_shards",
    "shard_result",
    "split_operand_rows",
]

logger = logging.getLogger("repro.pipeline.sharded")


@dataclass
class ShardSpec:
    """One shard's row block and cache identity."""

    index: int
    start: int
    stop: int
    cache_key: str | None = None
    cached: bool = False  # loaded from the artefact cache, not recompressed

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass
class ShardSet:
    """Row-partitioned shards of one preprocessed operand.

    ``operands[i]`` is the compressed ``(specs[i].size, n)`` row slice of
    the reordered operator; ``permutation`` is the *whole-operand* basis
    map (shard sessions serve in the reordered basis — the router permutes
    once per request, not once per shard).  ``plans`` carries each shard's
    execution plan (or ``None`` for unplannable backends),
    already adopted into the engine's plan cache.
    """

    pattern: object
    permutation: Permutation | None
    backend: str
    base_key: str | None
    specs: list[ShardSpec]
    operands: list = field(default_factory=list)
    plans: list = field(default_factory=list)

    @property
    def n_shards(self) -> int:
        return len(self.specs)

    @property
    def n_rows(self) -> int:
        return self.specs[-1].stop if self.specs else 0

    @property
    def align(self) -> int:
        return int(getattr(self.pattern, "v", 1) or 1)

    def summary(self) -> dict:
        """JSON-ready layout: per-shard rows, keys, and cache provenance."""
        return {
            "backend": self.backend,
            "pattern": str(self.pattern),
            "n_shards": self.n_shards,
            "n_rows": self.n_rows,
            "align": self.align,
            "base_key": self.base_key,
            "shards": [
                {
                    "index": s.index,
                    "rows": [s.start, s.stop],
                    "size": s.size,
                    "cache_key": s.cache_key,
                    "cached": s.cached,
                }
                for s in self.specs
            ],
        }


def split_operand_rows(operand, parts) -> list:
    """Row-slice one operand into per-partition CSR matrices.

    The numeric content of each slice is exact (densify round-trips the
    compressed values bit-for-bit), so recompressing a slice yields a shard
    whose SpMM rows equal the whole-operand rows.  ``parts`` is any
    iterable with ``start``/``stop`` attributes (``RowPartition``,
    :class:`ShardSpec`).
    """
    from ..sptc.csr import CSRMatrix

    if isinstance(operand, CSRMatrix):
        rows, cols, data = operand.to_coo()
        out = []
        for p in parts:
            keep = (rows >= p.start) & (rows < p.stop)
            out.append(CSRMatrix.from_coo(
                rows[keep] - p.start, cols[keep], data[keep],
                (p.stop - p.start, operand.shape[1]),
            ))
        return out
    dense = registry.densify(operand)
    return [CSRMatrix.from_dense(dense[p.start:p.stop]) for p in parts]


def shard_result(
    result: PreprocessResult,
    *,
    n_shards: int,
    cache=None,
) -> ShardSet:
    """Partition one :class:`PreprocessResult` into ``n_shards`` row shards.

    Boundaries come from :func:`~repro.distributed.partition.
    partition_rows` with ``align = pattern.v`` — every row lands in exactly
    one shard and no N:M tile row straddles a boundary, so a shard of a
    conforming operand is itself conforming and recompresses on the same
    backend.  With a ``cache``, each shard is stored (and later loaded)
    under its :func:`~repro.pipeline.cache.shard_cache_key`, with a
    ``<key>.plan.pkl`` execution-plan sidecar exactly like whole-operand
    preprocessing; re-sharding the same artefact under the same geometry
    is a set of file loads.  ``n_shards=1`` is the whole operand, served
    under the artefact's own key.
    """
    from ..distributed.partition import partition_rows

    pattern = result.pattern
    align = int(getattr(pattern, "v", 1) or 1)
    n = result.operand.shape[0]
    backend = result.backend or registry.backend_for(result.operand).name
    parts = partition_rows(n, n_shards, align=align)
    cacheable = (cache is not None and result.cache_key is not None
                 and backend in _CACHEABLE_BACKENDS)

    specs: list[ShardSpec] = []
    operands: list = []
    plans: list = []
    if n_shards == 1:
        # One shard is the whole operand (an unsharded deployment): serve
        # it as-is under the artefact's own cache key and plan — no slice,
        # no recompress, no second artefact on disk.
        specs.append(ShardSpec(0, 0, n, cache_key=result.cache_key if cacheable else None,
                               cached=bool(result.cached)))
        operands.append(result.operand)
        plans.append(getattr(result, "plan", None))
    else:
        slices = None  # cut lazily: an all-hit reload never densifies
        for p in parts:
            key = (shard_cache_key(result.cache_key, p.device, n_shards, align=align)
                   if cacheable else None)
            operand = None
            cached = False
            if key is not None:
                hit = cache.load(key)
                if hit is not None:
                    operand, _ = hit
                    cached = True
            if operand is None:
                if slices is None:
                    slices = split_operand_rows(result.operand, parts)
                operand = registry.compress(slices[p.device], backend, pattern)
                if key is not None:
                    cache.store(key, operand, None)
            plan = _plan_operand(operand, key, cache, stored=not cached)
            specs.append(ShardSpec(p.device, p.start, p.stop, cache_key=key,
                                   cached=cached))
            operands.append(operand)
            plans.append(plan)
    obs_events.emit(
        "shard.built", n_shards=n_shards, backend=backend, align=align,
        cached=sum(1 for s in specs if s.cached), base_key=result.cache_key,
    )
    return ShardSet(pattern=pattern, permutation=result.permutation,
                    backend=backend, base_key=result.cache_key, specs=specs,
                    operands=operands, plans=plans)


def build_shards(
    graph,
    plan: PreprocessPlan | None = None,
    *,
    n_shards: int,
    cache=None,
) -> ShardSet:
    """Preprocess ``graph`` under ``plan`` and partition it into shards.

    The whole-operand preprocess (reorder → compress) runs — or cache-hits
    — first, exactly as :func:`~repro.pipeline.preprocess.preprocess`
    does; the resulting reordered operand is then row-partitioned via
    :func:`shard_result`.  One reorder, ``n_shards`` serveable artefacts.
    """
    plan = plan or PreprocessPlan()
    result = preprocess(graph, plan, cache=cache)
    return shard_result(result, n_shards=n_shards, cache=cache)


class _Replica:
    """One shard replica: an executor back-end plus its serial lane.

    The back-end is either an in-process :class:`ServingSession`
    (``executor="thread"``) or a
    :class:`~repro.pipeline.procshard.ProcessShardWorker`
    (``executor="process"``); exactly one of ``session`` / ``worker`` is
    set.
    """

    __slots__ = ("shard_index", "replica_index", "session", "worker",
                 "lane", "alive", "in_flight", "served", "failures",
                 "serve_lock")

    def __init__(self, shard_index: int, replica_index: int,
                 session: ServingSession | None = None, *, worker=None):
        self.shard_index = shard_index
        self.replica_index = replica_index
        self.session = session
        self.worker = worker
        self.lane = ThreadPoolExecutor(
            max_workers=1,
            thread_name_prefix=f"repro-shard{shard_index}r{replica_index}")
        self.alive = True
        self.in_flight = 0
        self.served = 0
        self.failures = 0
        # Sessions are not thread-safe (retry, downgrade and counter state
        # is per-session): the lane serializes a replica's own queue, but a
        # failover from another replica's lane calls this session from a
        # foreign thread — the lock makes that path safe and stays
        # uncontended in normal operation.  (Process workers serialize on
        # their own ring lock; this lock still guards the ring's parent
        # side on the failover path.)
        self.serve_lock = threading.Lock()


class ShardRouter:
    """Fan-out / merge front-end over a :class:`ShardSet`.

    One request: validate → admit → permute the features into the reordered
    basis **once** → dispatch one sub-request per shard onto that shard's
    least-loaded live replica lane → merge the row partials, each written
    straight into its rows of the caller's order, into a result
    bit-identical to single-session serving.  :meth:`submit` pipelines
    synchronous callers (consecutive requests overlap across shard lanes)
    and runs the door — validation and admission — on the caller's thread,
    so a malformed or shed request raises from ``submit`` itself.

    ``replicas`` gives every shard that many replicas; it is where
    concurrency comes from (scipy's matmat runs in parallel across lane
    threads).  ``admission`` (or, without it, a policy built from
    ``deadline``) sheds at the door: per shard, the queue depth the new
    sub-request would wait behind (requests admitted by :meth:`submit` but
    not yet fanned out, plus the least-loaded replica's in-flight count)
    and the p95 of that shard's ``spmm_latency_seconds{shard=...}`` series
    — the rolling 60 s window when ``windows`` is given, else the lifetime
    histogram — estimate its completion; a request that cannot finish in
    time raises :class:`~repro.pipeline.resilience.OverloadError` before
    any lane sees it, and is counted on ``router_shed_total{reason}``,
    emitted as a ``router.shed`` event and kept as a ``shed`` exemplar on
    the ``recorder``.  ``deadline`` also hard-bounds the in-flight merge
    wait (:class:`~repro.pipeline.resilience.DeadlineExceeded` — a stalled
    shard can delay one answer, never wedge the caller).

    ``metrics`` labels every shard session's series with ``shard="<i>"``
    and adds router-level series (``router_requests_total``,
    ``router_in_flight{shard}``, ``router_shed_total{reason}``,
    ``router_failovers_total{shard}``, ``router_replicas{shard}``,
    ``router_latency_seconds``).  ``session_kwargs`` forwards to every
    shard :class:`ServingSession` (retry policy, recorder, precision, ...).
    ``devices`` optionally pins one compute device per shard (e.g. an
    :class:`~repro.sptc.device.EmulatedDevice` each): sub-requests then
    charge their kernel time to their shard's own virtual clock, so the
    multi-device makespan is ``max`` over the per-device clocks — the
    paper's §5.2 multi-GPU accounting.

    ``executor`` picks the replica back-end: ``"thread"`` (default) runs
    each replica as an in-process :class:`ServingSession` on its own lane;
    ``"process"`` runs each replica as a persistent
    :class:`~repro.pipeline.procshard.ProcessShardWorker` — a forked
    worker process that inherits the shard operand and its plan through
    ``fork`` and serves over a zero-copy shm ring,
    so CPU-bound shards escape the GIL and a SIGKILLed worker costs one
    failover, not the fabric.  Fan-out/merge, admission, deadline and
    failover semantics are identical in both modes, and so are the merged
    bits; see ``docs/sharding.md`` ("Executors").

    The shard layout (specs, operands, devices, replicas per shard) is
    fixed at construction; nothing on the request path changes it.
    ``cache`` is accepted and unused: shard artefacts are loaded by
    :func:`shard_result`, before the router exists.
    """

    def __init__(
        self,
        shards: ShardSet,
        *,
        metrics=None,
        windows=None,
        replicas: int = 1,
        devices=None,
        admission: AdmissionPolicy | None = None,
        deadline: float | None = None,
        retry_policy: RetryPolicy | None = None,
        recorder=None,
        max_pipeline: int | None = None,
        session_kwargs: dict | None = None,
        executor: str = "thread",
        cache=None,
    ):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if not shards.specs:
            raise ValueError("cannot route over an empty ShardSet")
        if executor not in ("thread", "process"):
            raise ValueError(
                f"executor must be 'thread' or 'process', got {executor!r}")
        if devices is not None and len(devices) != shards.n_shards:
            raise ValueError(
                f"devices list has {len(devices)} entries for "
                f"{shards.n_shards} shard(s)")
        self._devices = list(devices) if devices is not None else None
        self.shards = shards
        self.permutation = shards.permutation
        self.deadline = deadline
        if admission is None and deadline is not None:
            admission = AdmissionPolicy(deadline=deadline)
        self.admission = admission
        self._metrics = metrics
        self._windows = windows
        self._recorder = recorder
        self._retry_policy = retry_policy
        self._session_kwargs = dict(session_kwargs or {})
        self.executor = executor
        self._lock = threading.Lock()
        self._rr = 0
        self.n_requests = 0
        self.n_shed = 0
        self.n_failovers = 0
        self._closed = False
        # The door lock makes close-check, admission and submit's hand-off
        # to the front pool one step, so the admission depth counts every
        # request submit() admitted but has not yet fanned out.
        self._door_lock = threading.Lock()
        self._queued = 0
        self._n_cols = shards.operands[0].shape[1]
        self._latency_views: list = []
        self._replicas: list[list[_Replica]] = []
        for i in range(shards.n_shards):
            self._latency_views.append(self._latency_view(i))
            group = [self._make_replica(i, r, shards.operands[i])
                     for r in range(replicas)]
            self._replicas.append(group)
        if metrics is not None:
            for i in range(shards.n_shards):
                metrics.gauge("router_replicas", help="replicas per shard",
                              shard=str(i)).set(float(replicas))
            self._m_requests = metrics.counter(
                "router_requests_total", help="sharded spmm requests merged")
            self._m_latency = metrics.histogram(
                "router_latency_seconds",
                help="end-to-end fan-out/merge request latency")
        # The pipelining front: submit() callers park here while their
        # sub-requests run; threads block on shard futures, so the pool is
        # cheap — its size just bounds how many requests overlap.
        self._front = ThreadPoolExecutor(
            max_workers=(max_pipeline if max_pipeline is not None
                         else max(4, 2 * shards.n_shards)),
            thread_name_prefix="repro-router")

    # -- construction helpers ----------------------------------------------
    def _latency_view(self, shard_index: int):
        """The shard's admission latency signal: the rolling window when
        ``windows`` is given (shedding follows the last minute's p95),
        else the lifetime histogram, else ``None`` (no deadline shedding)."""
        if self._windows is not None:
            return self._windows.histogram_view(
                "spmm_latency_seconds", 60.0,
                shard=str(shard_index))
        if self._metrics is not None:
            return self._metrics.histogram(
                "spmm_latency_seconds", help="end-to-end serve request latency",
                shard=str(shard_index))
        return None

    def _make_replica(self, shard_index: int, replica_index: int,
                      operand) -> _Replica:
        if self.executor == "process":
            return self._make_process_replica(shard_index, replica_index,
                                              operand)
        if replica_index > 0:
            # Replicas get a private copy of the operand: the engine's plan
            # cache is keyed by operand identity, so each replica builds
            # its own plan and scratch instead of contending on one — and
            # a replica is real parallel capacity, not lock convoy.
            operand = copy.deepcopy(operand)
        kwargs = dict(self._session_kwargs)
        if self._devices is not None:
            # Each shard charges its kernels to its own (emulated) device;
            # replicas of a shard share that device's virtual clock, which
            # mirrors a spare process on the same accelerator.
            kwargs.setdefault("device", self._devices[shard_index])
        session = ServingSession(
            operand, None,
            metrics=self._metrics,
            shard=str(shard_index),
            retry_policy=self._retry_policy,
            recorder=self._recorder,
            **kwargs,
        )
        return _Replica(shard_index, replica_index, session)

    def _make_process_replica(self, shard_index: int, replica_index: int,
                              operand) -> _Replica:
        """One shard replica as a forked worker over a shm ring.

        No operand deepcopy even for extra replicas: each worker computes
        in its own address space, so plan scratch can never be shared.
        The worker inherits the shard operand through fork, and with it
        the plan :func:`shard_result` put in the engine's plan cache; a
        respawn forks again from this process, which still holds both.
        """
        from .procshard import ProcessShardWorker

        kwargs = dict(self._session_kwargs)
        if self._devices is not None:
            kwargs.setdefault("device", self._devices[shard_index])
        worker = ProcessShardWorker(
            shard_index, replica_index, operand,
            session_kwargs=kwargs, metrics=self._metrics,
            recorder=self._recorder,
        )
        return _Replica(shard_index, replica_index, worker=worker)

    # -- properties ---------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._replicas)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.shards.n_rows, self._n_cols)

    # -- the request cycle --------------------------------------------------
    def _admit_locked(self) -> None:
        """Door check (``_door_lock`` held): refuse when closed, then every
        shard must be able to take the sub-request."""
        if self._closed:
            raise OverloadError("router is closed", reason="closed")
        if self.admission is None:
            return
        try:
            for group, view in zip(self._replicas, self._latency_views):
                live = [rep for rep in group if rep.alive]
                if not live:
                    continue  # dispatch surfaces the dead shard, not admit
                depth = self._queued + min(rep.in_flight for rep in live)
                self.admission.admit(depth=depth, latency=view)
        except OverloadError as exc:
            self.n_shed += 1
            reason = str(exc.context.get("reason", "overload"))
            if self._metrics is not None:
                self._metrics.counter(
                    "router_shed_total", help="requests shed at the router door",
                    reason=reason,
                ).inc()
            if self._recorder is not None:
                self._recorder.observe("shed", shed_reason=reason,
                                       backend=self.shards.backend, error=exc)
            obs_events.emit("router.shed", reason=reason)
            logger.debug("request shed (%s): %s", reason, exc)
            raise

    def _pick(self, group: list[_Replica], tried: set | None = None) -> _Replica:
        """Least-in-flight live replica, round-robin on ties."""
        with self._lock:
            candidates = [rep for rep in group if rep.alive
                          and (tried is None or id(rep) not in tried)]
            if not candidates:
                raise WorkerCrashError(
                    "no live replicas left for shard "
                    f"{group[0].shard_index if group else '?'}",
                    shard=group[0].shard_index if group else None)
            self._rr += 1
            rr = self._rr
            return min(
                candidates,
                key=lambda rep: (rep.in_flight,
                                 (rep.replica_index - rr) % len(candidates)))

    def _inc(self, rep: _Replica) -> None:
        with self._lock:
            rep.in_flight += 1
            total = sum(r.in_flight for r in self._replicas[rep.shard_index])
        if self._metrics is not None:
            self._metrics.gauge(
                "router_in_flight", help="sub-requests in flight per shard",
                shard=str(rep.shard_index)).set(float(total))

    def _dec(self, rep: _Replica) -> None:
        with self._lock:
            rep.in_flight = max(0, rep.in_flight - 1)
            total = sum(r.in_flight for r in self._replicas[rep.shard_index])
        if self._metrics is not None:
            self._metrics.gauge(
                "router_in_flight", help="sub-requests in flight per shard",
                shard=str(rep.shard_index)).set(float(total))

    def _serve_replica(self, rep: _Replica, xr: np.ndarray) -> np.ndarray:
        action = faults.shard_directive(rep.shard_index)
        if rep.worker is not None:
            # Process mode: the directive crosses the boundary for real —
            # "kill" SIGKILLs the worker mid-request (the ring detects the
            # death and this raises WorkerCrashError for the failover
            # path; the *next* serve respawns it), "slow" stalls inside
            # the worker's serve loop.  The replica itself stays alive:
            # process deaths self-heal, unlike a thread-mode session.
            mapped = {"kill": "sigkill", "slow": "stall"}.get(action)
            with rep.serve_lock:
                out = rep.worker.serve(xr, action=mapped)
            rep.served += 1
            return out
        if action == "kill":
            rep.alive = False
            rep.failures += 1
            raise WorkerCrashError(
                f"shard {rep.shard_index} replica {rep.replica_index} killed "
                f"(injected fault)", shard=rep.shard_index,
                replica=rep.replica_index)
        if action == "slow":
            time.sleep(faults.slow_shard_seconds())
        with rep.serve_lock:
            out = rep.session.serve_block(xr)
        rep.served += 1
        return out

    def _serve_shard(self, group: list[_Replica], first: _Replica,
                     xr: np.ndarray) -> np.ndarray:
        """One shard sub-request with inline replica failover."""
        tried = {id(first)}
        rep = first
        while True:
            try:
                return self._serve_replica(rep, xr)
            except PipelineError as exc:
                rep.failures += 1
                self.n_failovers += 1
                if exc.context.get("crash_loop"):
                    # A crash-looping worker is done respawning: take the
                    # replica out of rotation so _pick stops offering it.
                    rep.alive = False
                if self._metrics is not None:
                    self._metrics.counter(
                        "router_failovers_total",
                        help="sub-requests re-served on another replica",
                        shard=str(rep.shard_index)).inc()
                obs_events.emit("router.failover", shard=rep.shard_index,
                                replica=rep.replica_index, error=str(exc))
                logger.warning(
                    "shard %d replica %d failed (%s); failing over",
                    rep.shard_index, rep.replica_index, exc)
                try:
                    rep = self._pick(group, tried)
                except WorkerCrashError:
                    raise exc from None
                tried.add(id(rep))

    def _dispatch(self, group: list[_Replica], xr: np.ndarray):
        rep = self._pick(group)
        self._inc(rep)
        fut = rep.lane.submit(self._serve_shard, group, rep, xr)
        fut.add_done_callback(lambda _f, rep=rep: self._dec(rep))
        return fut

    def _fan_out(self, x: np.ndarray, admitted: bool | None):
        """Pass the door (unless ``submit`` already did), permute once,
        dispatch to every shard.  ``admitted`` is the squeeze flag of a
        request :meth:`submit` validated and admitted; ``None`` means the
        request still has to pass the door."""
        if admitted is None:
            x2d, squeeze = validate_features(x, self._n_cols)
            with self._door_lock:
                self._admit_locked()
        else:
            x2d, squeeze = x, admitted
        try:
            xr = (x2d[self.permutation.order]
                  if self.permutation is not None else x2d)
            return [self._dispatch(group, xr) for group in self._replicas], squeeze
        finally:
            if admitted is not None:
                with self._door_lock:
                    self._queued -= 1

    def _merge(self, partials: list[np.ndarray], squeeze: bool) -> np.ndarray:
        """Stack the shards' row blocks; with a permutation, each block is
        written straight into its rows of the caller's vertex order."""
        if self.permutation is None:
            out = np.concatenate(partials, axis=0)
        else:
            order = self.permutation.order
            out = np.empty((len(order), partials[0].shape[1]), dtype=partials[0].dtype)
            lo = 0
            for partial in partials:
                out[order[lo:lo + len(partial)]] = partial
                lo += len(partial)
        return out[:, 0] if squeeze else out

    def _finish(self, t0: float) -> None:
        self.n_requests += 1
        if self._metrics is not None:
            self._m_requests.inc()
            self._m_latency.observe(time.perf_counter() - t0)

    def spmm(self, x: np.ndarray, *, deadline: float | None = None,
             _admitted: bool | None = None) -> np.ndarray:
        """One request: ``A @ x`` in the caller's vertex order (blocking).

        ``deadline`` (default: the router's) bounds the whole fan-out/merge
        wait; a miss raises :class:`DeadlineExceeded` while the straggler
        lane finishes in the background — the caller never hangs.
        ``_admitted`` is :meth:`submit`'s hand-off (the squeeze flag of a
        request that already passed the door), not a caller option.
        """
        t0 = time.perf_counter()
        budget = self.deadline if deadline is None else deadline
        futures, squeeze = self._fan_out(x, _admitted)
        partials = []
        for fut in futures:
            remaining = None
            if budget is not None:
                remaining = budget - (time.perf_counter() - t0)
            try:
                if remaining is not None and remaining <= 0:
                    raise FuturesTimeoutError()
                partials.append(fut.result(timeout=remaining))
            except FuturesTimeoutError:
                raise DeadlineExceeded(
                    f"sharded request missed its {budget:.3f}s deadline "
                    f"({len(partials)}/{len(futures)} shard(s) merged)",
                    deadline=budget, merged=len(partials),
                    n_shards=len(futures)) from None
        out = self._merge(partials, squeeze)
        self._finish(t0)
        return out

    def submit(self, x: np.ndarray):
        """Pipeline one request; returns a future of the merged result.

        The door runs here, on the caller's thread: a malformed request
        raises ``ValueError``, a closed router or a shed request raises
        :class:`~repro.pipeline.resilience.OverloadError` — nothing
        invalid reaches a lane or a worker ring.  An admitted request
        counts toward the admission depth until it fans out.  Consecutive
        submissions overlap: while one request's sub-requests drain
        through the shard lanes, the next request's are already queued
        behind them.  Serving failures arrive on the future.
        """
        x2d, squeeze = validate_features(x, self._n_cols)
        with self._door_lock:
            self._admit_locked()
            future = self._front.submit(self.spmm, x2d, _admitted=squeeze)
            self._queued += 1
        return future

    # -- load management ----------------------------------------------------
    def shard_load(self) -> list[dict]:
        """Live per-shard load: in-flight, served, failures, replicas."""
        out = []
        for i, group in enumerate(self._replicas):
            out.append({
                "shard": i,
                "rows": [self.shards.specs[i].start, self.shards.specs[i].stop],
                "replicas": len(group),
                "alive": sum(1 for rep in group if rep.alive),
                "in_flight": sum(rep.in_flight for rep in group),
                "served": sum(rep.served for rep in group),
                "failures": sum(rep.failures for rep in group),
            })
        return out

    # -- health --------------------------------------------------------------
    def health(self) -> dict:
        """Liveness verdict: majority rule over per-shard replica health.

        A shard is unhealthy when none of its replicas is alive.  An
        unhealthy *minority* leaves ``healthy`` true but sets
        ``degraded`` — ``/healthz`` stays 200 so a half-alive deployment
        is not pulled from rotation while it still serves (requests
        touching dead shards fail with the taxonomy; the rest is noise-
        free).  An unhealthy *majority* (or every shard, including the
        1-shard case) flips ``healthy`` — 503.
        """
        load = self.shard_load()
        unhealthy = sorted(s["shard"] for s in load if s["alive"] == 0)
        n = len(load)
        healthy = len(unhealthy) * 2 < n if unhealthy else True
        return {
            "healthy": healthy,
            "degraded": bool(unhealthy) and healthy,
            "n_shards": n,
            "unhealthy_shards": unhealthy,
            "shards": {
                str(s["shard"]): {
                    "healthy": s["alive"] > 0,
                    "replicas": s["replicas"],
                    "alive": s["alive"],
                    "rows": s["rows"],
                    "served": s["served"],
                    "in_flight": s["in_flight"],
                    "failures": s["failures"],
                }
                for s in load
            },
        }

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Drain the front and every lane; idempotent."""
        with self._door_lock:
            if self._closed:
                return
            self._closed = True  # every submit from here on is refused
        self._front.shutdown(wait=True)  # drains what the door admitted
        for group in self._replicas:
            for rep in group:
                rep.lane.shutdown(wait=True)
                if rep.worker is not None:
                    rep.worker.close()  # joins the process, unlinks the ring

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return (f"ShardRouter(n_shards={self.n_shards}, "
                f"backend={self.shards.backend!r}, shape={self.shape}, "
                f"executor={self.executor!r}, requests={self.n_requests})")
