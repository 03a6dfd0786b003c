"""Sharded async serving fabric: partitioned operands behind a fan-out router.

The single-process :class:`~repro.pipeline.serving.ServingSession` serves
one compressed operand end to end; ``repro.distributed`` only *simulates*
multi-device SpMM.  This module is the production middle ground the paper's
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
* **hot-shard replication** — :meth:`ShardRouter.replicate` adds a replica
  over the same shard operand; :meth:`ShardRouter.maybe_replicate` does it
  automatically when one shard's live load runs ahead of the mean.
* **online rebalance** — :meth:`ShardRouter.rebalance` splits the hottest
  shard at a v-aligned midpoint into two shards (densify → slice →
  recompress through the registry), without stopping traffic: in-flight
  requests finish on the old layout, new requests fan out over the new one.
* **health** — :meth:`ShardRouter.health` reports per-shard liveness;
  a *minority* of unhealthy shards marks the payload ``degraded`` while
  ``healthy`` stays true (``/healthz`` 200), a majority flips ``healthy``
  (503).  See :func:`repro.obs.server.session_health`.

See ``docs/sharding.md`` for the operator's view and
``benchmarks/bench_sharded_serving.py`` for the tracked throughput scaling
numbers.
"""

from __future__ import annotations

import asyncio
import copy
import logging
import os
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
from .serving import ServingSession

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
    is a set of file loads.
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


# How long an injected "slow" shard fault stalls a sub-request (seconds).
_SLOW_SHARD_ENV = "REPRO_FAULT_SHARD_SLOW_SECONDS"


class _Replica:
    """One shard replica: an executor back-end plus its serial lane.

    The back-end is either an in-process :class:`ServingSession`
    (``executor="thread"``) or a
    :class:`~repro.pipeline.procshard.ProcessShardWorker`
    (``executor="process"``); exactly one of ``session`` / ``worker`` is
    set.  ``operand`` is the shard operand this replica serves, kept here
    so replication and rebalance never need to reach into a back-end.
    """

    __slots__ = ("shard_index", "replica_index", "session", "worker",
                 "operand", "lane", "alive", "in_flight", "served",
                 "failures", "serve_lock")

    def __init__(self, shard_index: int, replica_index: int,
                 session: ServingSession | None = None, *, worker=None,
                 operand=None):
        self.shard_index = shard_index
        self.replica_index = replica_index
        self.session = session
        self.worker = worker
        self.operand = operand if operand is not None else (
            session.operand if session is not None else None)
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
    least-loaded live replica lane → merge the row partials (shard order,
    then permute back) into a result bit-identical to single-session
    serving.  :meth:`aspmm` is the asyncio face of the same cycle;
    :meth:`submit` pipelines synchronous callers (consecutive requests
    overlap across shard lanes).

    ``replicas`` seeds every shard with that many replicas.  ``admission``
    (or the ``max_queue_depth`` / ``deadline`` shorthands) sheds at the
    door: per shard, the queue depth the new sub-request would wait behind
    and — when ``windows`` is given — the rolling p95 of that shard's
    ``spmm_latency_seconds{shard=...}`` series estimate its completion;
    a request that cannot finish in time raises
    :class:`~repro.pipeline.resilience.OverloadError` before any lane sees
    it.  ``deadline`` also hard-bounds the in-flight merge wait
    (:class:`~repro.pipeline.resilience.DeadlineExceeded` — a stalled
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
    worker process that attaches the shard operand once (from ``cache``
    when the shard has a cache key) and serves over a zero-copy shm ring,
    so CPU-bound shards escape the GIL and a SIGKILLed worker costs one
    failover, not the fabric.  Fan-out/merge, admission, deadline,
    failover, and rebalance semantics are identical in both modes, and so
    are the merged bits.  ``executor_options`` forwards construction knobs
    to each worker (``supervision``, ``h_max``, ``n_slots``,
    ``spawn_timeout``); see ``docs/sharding.md`` ("Executors").
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
        max_queue_depth: int | None = None,
        deadline: float | None = None,
        retry_policy: RetryPolicy | None = None,
        recorder=None,
        window_seconds: float = 60.0,
        max_pipeline: int | None = None,
        session_kwargs: dict | None = None,
        executor: str = "thread",
        cache=None,
        executor_options: dict | None = None,
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
        if admission is None and (max_queue_depth is not None
                                  or deadline is not None):
            admission = AdmissionPolicy(max_queue_depth=max_queue_depth,
                                        deadline=deadline)
        self.admission = admission
        self._metrics = metrics
        self._windows = windows
        self._window_seconds = float(window_seconds)
        self._recorder = recorder
        self._retry_policy = retry_policy
        self._session_kwargs = dict(session_kwargs or {})
        self.executor = executor
        self._cache = cache
        self._executor_options = dict(executor_options or {})
        self._stall_seconds = float(os.environ.get(_SLOW_SHARD_ENV, "0.25"))
        self._retired: list[_Replica] = []
        self._lock = threading.Lock()
        self._rr = 0
        self.n_requests = 0
        self.n_shed = 0
        self.n_failovers = 0
        self.n_rebalances = 0
        self._closed = False
        self._n_cols = shards.operands[0].shape[1]
        self._latency_views: list = []
        self._replicas: list[list[_Replica]] = []
        for i in range(shards.n_shards):
            self._latency_views.append(self._latency_view(i))
            group = [self._make_replica(i, r, shards.operands[i])
                     for r in range(replicas)]
            self._replicas.append(group)
            self._set_replica_gauge(i, len(group))
        if metrics is not None:
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
        if self._windows is None:
            return None
        return self._windows.histogram_view(
            "spmm_latency_seconds", self._window_seconds,
            shard=str(shard_index))

    def _make_replica(self, shard_index: int, replica_index: int,
                      operand) -> _Replica:
        if self.executor == "process":
            return self._make_process_replica(shard_index, replica_index,
                                              operand)
        if replica_index > 0:
            # Replicas get a private copy of the operand: the engine's plan
            # cache is keyed by operand identity, so each replica builds
            # its own plan and scratch instead of contending on one — and
            # replication is real parallel capacity, not lock convoy.
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
            latency_window=self._latency_views[shard_index]
            if shard_index < len(self._latency_views) else None,
            **kwargs,
        )
        return _Replica(shard_index, replica_index, session)

    def _make_process_replica(self, shard_index: int, replica_index: int,
                              operand) -> _Replica:
        """One shard replica as a forked worker over a shm ring.

        No operand deepcopy even for extra replicas: each worker computes
        in its own address space, so plan scratch can never be shared.
        The worker prefers re-attaching the shard artefact from the cache
        (its sidecar plan included); post-rebalance shards have no cache
        key and fall back to inheriting the in-memory operand via fork.
        """
        from .procshard import ProcessShardWorker

        specs = self.shards.specs
        plans = self.shards.plans
        cache_key = (specs[shard_index].cache_key
                     if shard_index < len(specs) else None)
        cache_dir = (str(self._cache.cache_dir)
                     if self._cache is not None and cache_key else None)
        kwargs = dict(self._session_kwargs)
        if self._devices is not None:
            kwargs.setdefault("device", self._devices[shard_index])
        worker = ProcessShardWorker(
            shard_index, replica_index, operand,
            plan=plans[shard_index] if shard_index < len(plans) else None,
            cache_dir=cache_dir, cache_key=cache_key,
            session_kwargs=kwargs, metrics=self._metrics,
            recorder=self._recorder,
            **self._executor_options,
        )
        return _Replica(shard_index, replica_index, worker=worker,
                        operand=operand)

    def _set_replica_gauge(self, shard_index: int, count: int) -> None:
        if self._metrics is not None:
            self._metrics.gauge(
                "router_replicas", help="live replicas per shard",
                shard=str(shard_index)).set(float(count))

    # -- properties ---------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._replicas)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.shards.n_rows, self._n_cols)

    # -- the request cycle --------------------------------------------------
    def _validate(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim > 2:
            raise ValueError(
                f"features must be 1-D or 2-D (vertices[, channels]), got "
                f"{x.ndim}-D input of shape {x.shape}")
        if x.shape[0] != self._n_cols:
            raise ValueError(
                f"feature rows {x.shape[0]} != operand columns {self._n_cols}")
        squeeze = x.ndim == 1
        return (x[:, None] if squeeze else x), squeeze

    def _admit(self) -> None:
        """Door check: every shard must be able to take the sub-request."""
        if self.admission is None:
            return
        with self._lock:
            groups = list(self._replicas)
        try:
            for i, group in enumerate(groups):
                live = [rep for rep in group if rep.alive]
                if not live:
                    continue  # dispatch surfaces the dead shard, not admit
                depth = min(rep.in_flight for rep in live)
                latency = (self._latency_views[i]
                           if i < len(self._latency_views) else None)
                self.admission.admit(depth=depth, latency=latency,
                                     batch_size=1)
        except OverloadError as exc:
            self.n_shed += 1
            if self._metrics is not None:
                self._metrics.counter(
                    "router_shed_total", help="requests shed at the router door",
                    reason=str(exc.context.get("reason", "overload")),
                ).inc()
            obs_events.emit("router.shed",
                            reason=exc.context.get("reason"))
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
            total = sum(r.in_flight for r in self._replicas[rep.shard_index]
                        ) if rep.shard_index < len(self._replicas) else rep.in_flight
        if self._metrics is not None:
            self._metrics.gauge(
                "router_in_flight", help="sub-requests in flight per shard",
                shard=str(rep.shard_index)).set(float(total))

    def _dec(self, rep: _Replica) -> None:
        with self._lock:
            rep.in_flight = max(0, rep.in_flight - 1)
            group = (self._replicas[rep.shard_index]
                     if rep.shard_index < len(self._replicas) else [rep])
            total = sum(r.in_flight for r in group)
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
            time.sleep(self._stall_seconds)
        with rep.serve_lock:
            out = rep.session.spmm(xr)
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

    def _fan_out(self, x: np.ndarray):
        """Validate, admit, permute once, dispatch to every shard."""
        x2d, squeeze = self._validate(x)
        if self._closed:
            raise OverloadError("router is closed", reason="closed")
        self._admit()
        xr = (x2d[self.permutation.order]
              if self.permutation is not None else x2d)
        with self._lock:
            groups = list(self._replicas)  # layout snapshot: rebalance-safe
        return [self._dispatch(group, xr) for group in groups], squeeze

    def _merge(self, partials: list[np.ndarray], squeeze: bool) -> np.ndarray:
        out = np.concatenate(partials, axis=0)
        if self.permutation is not None:
            restored = np.empty_like(out)
            restored[self.permutation.order] = out
            out = restored
        return out[:, 0] if squeeze else out

    def _finish(self, t0: float) -> None:
        self.n_requests += 1
        if self._metrics is not None:
            self._m_requests.inc()
            self._m_latency.observe(time.perf_counter() - t0)

    def spmm(self, x: np.ndarray, *, deadline: float | None = None) -> np.ndarray:
        """One request: ``A @ x`` in the caller's vertex order (blocking).

        ``deadline`` (default: the router's) bounds the whole fan-out/merge
        wait; a miss raises :class:`DeadlineExceeded` while the straggler
        lane finishes in the background — the caller never hangs.
        """
        t0 = time.perf_counter()
        budget = self.deadline if deadline is None else deadline
        futures, squeeze = self._fan_out(x)
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

    async def aspmm(self, x: np.ndarray, *,
                    deadline: float | None = None) -> np.ndarray:
        """The same request cycle, awaitable: fan out, await, merge."""
        t0 = time.perf_counter()
        budget = self.deadline if deadline is None else deadline
        futures, squeeze = self._fan_out(x)
        gathered = asyncio.gather(*(asyncio.wrap_future(f) for f in futures))
        try:
            partials = await asyncio.wait_for(gathered, timeout=budget)
        except asyncio.TimeoutError:
            raise DeadlineExceeded(
                f"sharded request missed its {budget:.3f}s deadline",
                deadline=budget, n_shards=len(futures)) from None
        out = self._merge(partials, squeeze)
        self._finish(t0)
        return out

    def submit(self, x: np.ndarray):
        """Pipeline one request; returns a future of the merged result.

        Consecutive submissions overlap: while one request's sub-requests
        drain through the shard lanes, the next request's are already
        queued behind them — the throughput mode the scaling benchmark
        measures.  Admission applies per request at fan-out time.
        """
        if self._closed:
            raise OverloadError("router is closed", reason="closed")
        return self._front.submit(self.spmm, x)

    # -- load management ----------------------------------------------------
    def shard_load(self) -> list[dict]:
        """Live per-shard load: in-flight, served, failures, replicas."""
        with self._lock:
            groups = list(self._replicas)
        out = []
        for i, group in enumerate(groups):
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

    def hottest_shard(self) -> int:
        """The shard with the most live load (in-flight, then served)."""
        load = self.shard_load()
        return max(load, key=lambda s: (s["in_flight"], s["served"]))["shard"]

    def replicate(self, shard_index: int) -> int:
        """Add one replica over ``shard_index``'s operand; returns the count.

        The new replica shares the shard's operand (and therefore the
        engine's cached execution plan) but owns its own session and lane,
        so the shard's sub-requests immediately spread over one more
        serial queue.
        """
        with self._lock:
            group = self._replicas[shard_index]
            operand = group[0].operand
            rep = self._make_replica(shard_index, len(group), operand)
            group.append(rep)
            count = len(group)
        self._set_replica_gauge(shard_index, count)
        obs_events.emit("router.replicate", shard=shard_index, replicas=count)
        logger.info("shard %d replicated: %d replica(s)", shard_index, count)
        return count

    def maybe_replicate(self, *, factor: float = 1.5,
                        max_replicas: int = 4) -> int | None:
        """Replicate the hottest shard when its load runs ahead of the mean.

        Load is the live in-flight depth plus lifetime served count per
        shard; when the hottest shard's load exceeds ``factor`` times the
        mean (and it has fewer than ``max_replicas`` replicas), one replica
        is added.  Returns the replicated shard index, or ``None``.
        """
        load = self.shard_load()
        if len(load) < 2:
            return None
        scores = [s["in_flight"] + s["served"] for s in load]
        mean = sum(scores) / len(scores)
        hot = max(range(len(load)), key=lambda i: scores[i])
        if mean <= 0 or scores[hot] <= factor * mean:
            return None
        if load[hot]["replicas"] >= max_replicas:
            return None
        self.replicate(hot)
        return hot

    def rebalance(self) -> tuple[int, int] | None:
        """Split the hottest shard at a v-aligned midpoint into two shards.

        The hot shard's operand is row-sliced (densify → cut → recompress
        through the registry) into two conforming halves; the router's
        layout is swapped wholesale under the lock, so in-flight requests
        merge on the snapshot they fanned out over while new requests see
        the finer layout.  Shards after the split point are re-indexed
        (sessions rebuilt so their ``shard`` metric labels stay truthful).
        Returns the new ``(left, right)`` indices, or ``None`` when the
        hottest shard is a single tile and cannot split.
        """
        hot = self.hottest_shard()
        spec = self.shards.specs[hot]
        align = self.shards.align
        tiles = max(1, spec.size // align)
        mid = spec.start + (tiles // 2) * align
        if mid <= spec.start or mid >= spec.stop:
            return None
        with self._lock:
            old_groups = self._replicas
            operand = old_groups[hot][0].operand
            hot_replicas = len(old_groups[hot])
        halves = [ShardSpec(0, 0, mid - spec.start),
                  ShardSpec(1, mid - spec.start, spec.size)]
        compressed = [
            registry.compress(sl, self.shards.backend, self.shards.pattern)
            for sl in split_operand_rows(operand, halves)
        ]

        new_specs: list[ShardSpec] = []
        new_operands = []
        new_devices = [] if self._devices is not None else None
        for s, op in zip(self.shards.specs, self.shards.operands):
            if s.index != hot:
                new_specs.append(ShardSpec(len(new_specs), s.start, s.stop,
                                           cache_key=s.cache_key,
                                           cached=s.cached))
                new_operands.append(op)
                if new_devices is not None:
                    new_devices.append(self._devices[s.index])
                continue
            # The split halves are in-memory only (no cache key: their
            # geometry no longer matches the build-time shard layout).
            new_specs.append(ShardSpec(len(new_specs), spec.start, mid))
            new_specs.append(ShardSpec(len(new_specs), mid, spec.stop))
            new_operands.extend(compressed)
            if new_devices is not None:
                # Both halves stay on the parent shard's device until the
                # operator reassigns one — splitting does not conjure
                # hardware out of thin air.
                new_devices.extend([self._devices[s.index]] * 2)

        with self._lock:
            self._devices = new_devices
            self.shards.specs = new_specs
            self.shards.operands = new_operands
            self.shards.plans = [None] * len(new_specs)
            self._latency_views = [self._latency_view(i)
                                   for i in range(len(new_specs))]
            new_groups: list[list[_Replica]] = []
            retired: list[_Replica] = []
            for i, s in enumerate(new_specs):
                if i < hot:
                    new_groups.append(old_groups[i])
                    continue
                count = hot_replicas if i in (hot, hot + 1) else len(
                    old_groups[i - 1])
                new_groups.append([
                    self._make_replica(i, r, new_operands[i])
                    for r in range(count)
                ])
                if i > hot + 1:
                    retired.extend(old_groups[i - 1])
            retired.extend(old_groups[hot])
            self._replicas = new_groups
        for i, group in enumerate(self._replicas):
            self._set_replica_gauge(i, len(group))
        for rep in retired:
            if rep.worker is not None:
                # Queue the worker shutdown *behind* any in-flight ring
                # round-trip on its own lane: the old layout finishes its
                # requests, then the process exits and the segment unlinks.
                rep.lane.submit(rep.worker.close)
        with self._lock:
            self._retired.extend(retired)
        for rep in retired:
            rep.lane.shutdown(wait=False)  # drains queued work, then exits
        self.n_rebalances += 1
        obs_events.emit("router.rebalance", shard=hot, at=mid,
                        n_shards=len(new_specs))
        logger.info("rebalanced: split shard %d at row %d (%d shard(s) now)",
                    hot, mid, len(new_specs))
        return hot, hot + 1

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
        if self._closed:
            return
        self._closed = True
        self._front.shutdown(wait=True)
        with self._lock:
            groups = list(self._replicas)
            retired = list(self._retired)
            self._retired = []
        for group in groups:
            for rep in group:
                rep.lane.shutdown(wait=True)
                if rep.worker is not None:
                    rep.worker.close()  # joins the process, unlinks the ring
                else:
                    rep.session.close()
        for rep in retired:
            rep.lane.shutdown(wait=True)  # runs any queued worker.close
            if rep.worker is not None:
                rep.worker.close()  # idempotent: covers a skipped queue

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return (f"ShardRouter(n_shards={self.n_shards}, "
                f"backend={self.shards.backend!r}, shape={self.shape}, "
                f"executor={self.executor!r}, requests={self.n_requests})")
