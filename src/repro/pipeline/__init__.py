"""The preprocess → cache → serve pipeline (paper §4.4 as a subsystem).

* :mod:`repro.pipeline.registry` — pluggable backend registry: per format
  its compressor, cost-model entry and graceful-degradation ``fallbacks``
  chain, plus :func:`run_kernel`, the fault/breaker choke point every SpMM
  (planned by :mod:`repro.perf.engine` or not) runs through.
* :mod:`repro.pipeline.preprocess` — declarative offline preprocessing:
  pattern autoselect → reordering → hybrid split → compression, with batch
  mode over the process pool.
* :mod:`repro.pipeline.cache` — content-addressed artifact cache so the
  reorder search runs once per (graph, plan); checksummed, atomically
  written, with corrupt-entry quarantine.
* :mod:`repro.pipeline.serving` — the shard executor: the permute-in /
  SpMM / permute-back request cycle, consumable by
  :class:`repro.gnn.layers.Aggregator`, with retry/backoff/deadline and
  backend fallback.
* :mod:`repro.pipeline.resilience` — the shared error taxonomy
  (:class:`PipelineError` and friends) and :class:`RetryPolicy`.
* :mod:`repro.pipeline.guard` — proactive serving guards: per-backend
  circuit breakers (:class:`BreakerBoard`, consulted by ``run_kernel``)
  and :class:`AdmissionPolicy` load shedding.
* :mod:`repro.pipeline.faults` — deterministic fault injection
  (:class:`FaultPlan` + :func:`inject`) for testing every recovery path,
  plus the seeded chaos harness (:class:`ChaosSchedule` +
  :class:`ChaosInvariants`).
* :mod:`repro.pipeline.sharded` — the one request door and the sharded
  serving fabric: v-aligned row partitioning of one preprocessed operand
  into per-shard cached artefacts (:func:`build_shards`) and the
  fan-out/merge :class:`ShardRouter` — validation, admission, deadlines,
  ``submit``/close, health, replica failover, hot-shard replication, and
  online rebalance (an unsharded deployment is a 1-shard router).
* :mod:`repro.pipeline.procshard` — the router's ``executor="process"``
  back-end: one supervised, fork-spawned :class:`ProcessShardWorker` per
  shard replica, serving over zero-copy shared-memory rings so GIL-bound
  shards run truly in parallel and a killed worker costs one failover.
"""

from .cache import (
    ArtifactCache,
    CacheStats,
    adjacency_fingerprint,
    cache_key,
    shard_cache_key,
)
from .faults import (
    ChaosInvariants,
    ChaosSchedule,
    FaultEvent,
    FaultPlan,
    InjectedFault,
    inject,
)
from .guard import (
    AdmissionPolicy,
    BreakerBoard,
    BreakerConfig,
    CircuitBreaker,
    active_breakers,
    breaker_scope,
    disable_breakers,
    enable_breakers,
)
from .preprocess import PreprocessPlan, PreprocessResult, preprocess, preprocess_many
from .registry import (
    Backend,
    available_backends,
    backend_for,
    compress,
    degrade,
    densify,
    fallback_chain,
    get_backend,
    model_spmm_time,
    register_backend,
    unregister_backend,
)
from .resilience import (
    ArtifactCorruptError,
    BackendExecutionError,
    CircuitOpenError,
    DeadlineExceeded,
    DowngradeEvent,
    OverloadError,
    PipelineError,
    PreprocessError,
    ResilienceStats,
    RetryPolicy,
    WorkerCrashError,
)
from .procshard import ProcessShardWorker
from .serving import ServingSession
from .sharded import (
    ShardRouter,
    ShardSet,
    ShardSpec,
    build_shards,
    shard_result,
)

__all__ = [
    "Backend",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "backend_for",
    "available_backends",
    "model_spmm_time",
    "compress",
    "densify",
    "degrade",
    "fallback_chain",
    "PreprocessPlan",
    "PreprocessResult",
    "preprocess",
    "preprocess_many",
    "ArtifactCache",
    "CacheStats",
    "cache_key",
    "shard_cache_key",
    "adjacency_fingerprint",
    "ServingSession",
    "ProcessShardWorker",
    "ShardSpec",
    "ShardSet",
    "ShardRouter",
    "build_shards",
    "shard_result",
    "PipelineError",
    "PreprocessError",
    "ArtifactCorruptError",
    "BackendExecutionError",
    "CircuitOpenError",
    "OverloadError",
    "WorkerCrashError",
    "DeadlineExceeded",
    "RetryPolicy",
    "DowngradeEvent",
    "ResilienceStats",
    "BreakerConfig",
    "CircuitBreaker",
    "BreakerBoard",
    "AdmissionPolicy",
    "active_breakers",
    "enable_breakers",
    "disable_breakers",
    "breaker_scope",
    "FaultPlan",
    "FaultEvent",
    "InjectedFault",
    "ChaosSchedule",
    "ChaosInvariants",
    "inject",
]
