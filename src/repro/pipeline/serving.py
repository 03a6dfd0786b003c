"""The shard executor: one SpMM per request, in the caller's vertex order.

A :class:`ServingSession` owns the request cycle the paper's §4.4
deployment runs per inference: the compressed operand lives in the
reordered basis, and a request is answered in the original vertex order,
``out[perm] = A' @ x[perm]``.  The session passes the permutation's order
to :func:`repro.perf.engine.execute` (or a virtual-clock device), whose
plan folds it into the operand's CSR triplet, so a request is one kernel
pass with no gather of ``x`` and no scatter of the output.  Sessions are
themselves registered as a registry backend with their own kernel, so
:class:`repro.gnn.layers.Aggregator` — and anything else that executes
through the engine — consumes them like any other operand.

The request *door* — admission, shedding, deadlines, ``submit``/close and
health — belongs to :class:`repro.pipeline.sharded.ShardRouter`; a session
is what each shard replica (a router lane or a process worker) executes.
Both run the one feature validator, :func:`validate_features`.

Fault tolerance: each request runs under a :class:`RetryPolicy`
(exponential backoff + jitter, optional per-request deadline).  When the
kernel keeps failing, the session walks its backend's ``fallbacks`` ladder
(:func:`repro.pipeline.registry.degrade`) — e.g. ``vnm → bsr → csr →
dense`` — rebuilding the operand in a slower-but-correct format, recording
a :class:`DowngradeEvent` in :attr:`resilience`, and continuing to serve
instead of erroring.  Failures surface only as the
:class:`~repro.pipeline.resilience.PipelineError` taxonomy.
"""

from __future__ import annotations

import logging
import time

import numpy as np

from ..core.permutation import Permutation
from ..obs import events as obs_events
from ..obs import trace as obs_trace
from ..perf import engine as perf_engine
from ..sptc.costmodel import CostModel
from . import guard, registry
from .resilience import (
    BackendExecutionError,
    CircuitOpenError,
    DeadlineExceeded,
    DowngradeEvent,
    ResilienceStats,
    RetryPolicy,
)

__all__ = ["ServingSession", "validate_features"]

logger = logging.getLogger("repro.pipeline.serving")


def validate_features(x, n_cols: int) -> tuple[np.ndarray, bool]:
    """Coerce and validate one request's features; returns ``(x2d, squeeze)``.

    The one request validator, run on the caller's thread by
    :meth:`ServingSession.spmm` and by the router's door
    (:meth:`~repro.pipeline.sharded.ShardRouter.spmm` / ``submit``): a
    malformed request — wrong rank, wrong row count, non-finite values —
    raises ``ValueError`` before it reaches a lane, a kernel or a worker
    ring.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim > 2:
        raise ValueError(
            f"features must be 1-D or 2-D (vertices[, channels]), got "
            f"{x.ndim}-D input of shape {x.shape}"
        )
    if x.shape[0] != n_cols:
        raise ValueError(f"feature rows {x.shape[0]} != operand columns {n_cols}")
    if not np.isfinite(x).all():
        raise ValueError("features contain non-finite values (nan or inf)")
    squeeze = x.ndim == 1
    return (x[:, None] if squeeze else x), squeeze


class ServingSession:
    """SpMM in the caller's vertex order over one preprocessed, reordered operand.

    ``operand`` is any registry-dispatchable format (typically the
    ``HybridVNM`` or ``VNMCompressed`` a :func:`~repro.pipeline.preprocess.
    preprocess` run produced).  ``permutation`` maps the reordered basis back
    to the caller's vertex order; ``None`` serves in the operand's own basis.
    Every kernel attempt (retries and fallback rungs too) gets the
    permutation's order, and the engine folds it into the plan, so the
    session itself never copies a request or its result.
    With a ``device`` every request advances that device's virtual clock
    under ``tag``; without one, requests accumulate cost-model time locally
    in :attr:`modelled_seconds`.

    ``retry_policy`` governs per-request retry/backoff/deadline (default:
    3 attempts).  Downgrades are sticky: once a request forces a fallback,
    later requests serve from the degraded operand; :attr:`resilience`
    records every retry and :class:`DowngradeEvent`.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) turns on per-request
    observability: the ``spmm_latency_seconds`` histogram, request/retry/
    downgrade counters, and predicted-vs-measured feeding of the cost
    model's :class:`~repro.sptc.costmodel.Calibration`.  Left ``None`` (the
    default) the request path carries no timing or bookkeeping at all —
    the observability-off hot path is the unchanged pre-obs code path.

    Kernels run through :func:`repro.perf.engine.execute`, the one SpMM
    execution path (with a ``device``, through the device, which charges
    its clock and then runs the same path).  ``precision="float32"`` opts
    into the engine's fp32 compute path, taken only when
    :func:`repro.perf.engine.fp32_within_bound` admits the operand
    (otherwise the session stays on float64 and logs a warning).

    ``recorder`` (a :class:`repro.obs.FlightRecorder`) captures per-request
    exemplars: sampled requests carry a real span tree, every failure is
    kept.  Orthogonal to ``metrics`` — either, both, or neither may be on;
    only with both off does :meth:`spmm` take the unchanged zero-clock
    path.

    ``shard`` labels every metric series this session emits with
    ``{shard="<value>"}`` — the per-shard observability a
    :class:`repro.pipeline.sharded.ShardRouter` deployment needs to tell
    its row-partition sessions apart.  ``None`` (the default) keeps the
    label-less series of an unsharded session.
    """

    def __init__(
        self,
        operand,
        permutation: Permutation | None = None,
        *,
        device=None,
        cost_model: CostModel | None = None,
        tag: str = "serving",
        retry_policy: RetryPolicy | None = None,
        metrics=None,
        precision: str = "float64",
        recorder=None,
        shard: str | None = None,
    ):
        self.operand = operand
        self.permutation = permutation
        self.device = device
        self.cost_model = cost_model or CostModel()
        self.tag = tag
        self.retry_policy = retry_policy or RetryPolicy()
        self.resilience = ResilienceStats()
        self.original_backend = registry.backend_for(operand).name
        self.n_requests = 0
        self.modelled_seconds = 0.0
        self._metrics = metrics
        self.recorder = recorder
        # Per-shard metric series: the router labels each shard session's
        # latency/row series so `repro top`, windowed admission and the
        # router's health can tell the shards apart.  ``None`` (standalone
        # use) emits the label-less series.
        self.shard = None if shard is None else str(shard)
        self._shard_labels = {} if shard is None else {"shard": self.shard}
        self.operand_key = (
            f"{self.original_backend}:{operand.shape[0]}x{operand.shape[1]}"
        )
        self._path_key = None
        self._path_counter = None
        self._dtype = None
        if precision not in ("float64", "float32"):
            raise ValueError(f"precision must be 'float64' or 'float32', got {precision!r}")
        self.precision = "float64"
        if precision == "float32":
            self._enable_float32()
        if metrics is not None:
            self._m_latency = metrics.histogram(
                "spmm_latency_seconds", help="end-to-end serve request latency",
                **self._shard_labels,
            )
            self._m_requests = metrics.counter(
                "serve_requests_total", help="spmm requests served",
                **self._shard_labels,
            )
            self._m_retries = metrics.counter(
                "serve_retries_total", help="kernel attempts retried",
                **self._shard_labels,
            )
            self._m_downgrades = metrics.counter(
                "serve_downgrades_total", help="backend fallback downgrades",
                **self._shard_labels,
            )
            self._m_residual = metrics.gauge(
                "costmodel_residual",
                help="mean relative residual of predicted vs measured kernel time",
            )

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_artifact(cls, path, **kwargs) -> "ServingSession":
        """Open a session over a ``save_preprocessed`` artefact on disk."""
        from ..sptc.serialize import load_preprocessed

        operand, permutation = load_preprocessed(path)
        return cls(operand, permutation, **kwargs)

    @classmethod
    def from_result(cls, result, **kwargs) -> "ServingSession":
        """Open a session over a :class:`PreprocessResult`.

        :func:`~repro.pipeline.preprocess.preprocess` already put the
        result's plan (built fresh or loaded from the artefact cache) in
        the engine's plan cache, so the first request skips the plan build.
        """
        return cls(result.operand, result.permutation, **kwargs)

    # -- properties --------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.operand.shape

    @property
    def backend_name(self) -> str:
        return registry.backend_for(self.operand).name

    @property
    def degraded(self) -> bool:
        """Whether any request has forced this session down a fallback."""
        return self.resilience.degraded

    # -- the request cycle -------------------------------------------------
    def spmm(self, x: np.ndarray) -> np.ndarray:
        """One inference request: ``A @ x`` in the caller's vertex order."""
        x, squeeze = validate_features(x, self.shape[1])
        out = self.serve_block(x)
        return out[:, 0] if squeeze else out

    def serve_block(self, x: np.ndarray) -> np.ndarray:
        """Serve one already-validated ``(n_cols, h)`` float64 block.

        The shard-executor entry: the router's lanes and process workers
        call it after the router's door ran :func:`validate_features`, so
        a request is validated once, not once per hop.
        """
        if self._metrics is None and self.recorder is None:
            # Observability off: the unchanged hot path — no clocks, no
            # bookkeeping beyond the request counter.
            out = self._execute_with_recovery(x)
            self.n_requests += 1
            return out
        probe = None
        if self.recorder is not None:
            probe = self.recorder.begin(
                backend=self.backend_name, h=int(x.shape[1]),
                operand_key=self.operand_key,
            )
        retries0 = self.resilience.retries
        downgrades0 = len(self.resilience.downgrades)
        t0 = time.perf_counter()
        try:
            if probe is not None:
                # The probe installs a local tracer for sampled requests,
                # so the serve.request span tree lands on the exemplar.
                with probe, obs_trace.span("serve.request", h=x.shape[1]):
                    out = self._execute_with_recovery(x)
            else:
                with obs_trace.span("serve.request", h=x.shape[1]):
                    out = self._execute_with_recovery(x)
        except Exception as exc:
            if probe is not None:
                probe.finish("error", error=exc,
                             **self._request_outcome(retries0, downgrades0))
            raise
        self.n_requests += 1
        if self._metrics is not None:
            self._m_requests.inc()
            self._m_latency.observe(time.perf_counter() - t0)
            self._path_rows_counter().inc(self.shape[0])
        if probe is not None:
            probe.finish("ok", backend=self.backend_name,
                         **self._request_outcome(retries0, downgrades0))
        return out

    def _request_outcome(self, retries0: int, downgrades0: int) -> dict:
        """Exemplar fields describing what one request went through."""
        plan = perf_engine.cached_plan(self.operand)
        return {
            "variant": getattr(plan, "variant", None),
            "retries": self.resilience.retries - retries0,
            "downgrades": tuple(
                e.to_backend for e in self.resilience.downgrades[downgrades0:]
            ),
        }

    def _path_rows_counter(self):
        """The ``serve_path_rows_total`` series of the serving backend.

        Cached per backend, so the per-request cost is one compare plus
        the counter add; a sticky downgrade moves the rows to the new
        backend's series.
        """
        backend = self.backend_name
        if backend != self._path_key:
            self._path_key = backend
            self._path_counter = self._metrics.counter(
                "serve_path_rows_total",
                help="operand rows routed per kernel path, accumulated "
                     "per request",
                backend=backend, **self._shard_labels,
            )
        return self._path_counter

    def _enable_float32(self) -> None:
        """Turn on the engine's fp32 compute path if the precision model
        admits it for this operand; otherwise stay on float64 (logged)."""
        try:
            ok = perf_engine.fp32_within_bound(self.operand)
        except TypeError:
            ok = False  # unplannable operand: no fp32 path to enable
        if ok:
            self._dtype = np.float32
            self.precision = "float32"
        else:
            logger.warning(
                "float32 serving requested but the operand exceeds the "
                "fp32 row-scaled error bound (or has no plan); staying on float64"
            )

    def _execute(self, operand, x: np.ndarray) -> np.ndarray:
        """One kernel attempt on ``operand`` (device clock or local model),
        answered in the caller's vertex order."""
        order = None if self.permutation is None else self.permutation.order
        if self.device is not None:
            return self.device.spmm(operand, x, tag=self.tag, order=order)
        if self._metrics is None:
            out = perf_engine.execute(operand, x, dtype=self._dtype, order=order)
            self.modelled_seconds += registry.model_spmm_time(
                self.cost_model, operand, x.shape[1]
            )
            return out
        # Metrics on: measure the kernel and feed the cost model's
        # calibration so predicted-vs-measured residuals stay observable.
        t0 = time.perf_counter()
        out = perf_engine.execute(operand, x, dtype=self._dtype, order=order)
        measured = time.perf_counter() - t0
        predicted = registry.model_spmm_time(self.cost_model, operand, x.shape[1])
        self.modelled_seconds += predicted
        self.cost_model.calibration.observe(predicted, measured)
        self._m_residual.set(self.cost_model.calibration.mean_residual)
        return out

    def _execute_with_recovery(self, x: np.ndarray) -> np.ndarray:
        """Retry under the policy, then walk the fallback ladder."""

        def count_retry(attempt: int, exc: BaseException) -> None:
            self.resilience.retries += 1
            if self._metrics is not None:
                self._m_retries.inc()
            obs_events.emit(
                "serve.retry", backend=self.backend_name, attempt=attempt,
                error=str(exc),
            )
            logger.debug(
                "retrying spmm on backend %r (attempt %d): %s",
                self.backend_name, attempt, exc,
            )

        try:
            # CircuitOpenError is carved out of the retry budget: a skipped
            # call cannot succeed until the breaker's cooldown expires, so
            # the session degrades immediately with zero retries burned.
            return self.retry_policy.run(
                lambda: self._execute(self.operand, x),
                retry_on=(BackendExecutionError,),
                give_up_on=(CircuitOpenError,),
                on_retry=count_retry,
                describe=f"serving spmm on backend {self.backend_name!r}",
            )
        except DeadlineExceeded:
            raise
        except BackendExecutionError as failure:
            return self._degrade_and_serve(x, failure)

    def _degrade_and_serve(self, x: np.ndarray, failure: BackendExecutionError) -> np.ndarray:
        """Rebuild the operand down the fallback ladder until a kernel works.

        A successful rung replaces :attr:`operand` (sticky downgrade — the
        next request goes straight to the working backend) and is recorded;
        only when the whole ladder fails does the original error propagate.
        """
        failed = registry.backend_for(self.operand).name
        board = guard.active_breakers()
        for name in registry.fallback_chain(self.operand):
            if board is not None and board.would_reject(name):
                # An open rung cannot serve until its cooldown expires —
                # step over it instead of paying a rebuild just to be
                # rejected (a *half-open* rung is still tried: the ladder
                # is exactly the probe traffic that can heal it).
                obs_events.emit("serve.breaker_skip", backend=name,
                                from_backend=failed)
                logger.info(
                    "fallback ladder skipping backend %r: breaker open", name)
                continue
            try:
                operand = registry.degrade(self.operand, name)
                out = self._execute(operand, x)
            except (BackendExecutionError, TypeError, ValueError) as exc:
                if isinstance(exc, BackendExecutionError):
                    failure = exc
                continue
            self.operand = operand
            self.resilience.downgrades.append(
                DowngradeEvent(from_backend=failed, to_backend=name, reason=str(failure))
            )
            if self._metrics is not None:
                self._m_downgrades.inc()
            obs_events.emit(
                "serve.downgrade", from_backend=failed, to_backend=name,
                reason=str(failure),
            )
            logger.warning(
                "serving downgraded from backend %r to %r: %s",
                failed, name, failure,
            )
            return out
        raise failure

    # Aggregator (and any engine.execute caller) treats a session like an
    # operand, so mm/mm_t spell out the symmetric-operator convention.
    def mm(self, x: np.ndarray) -> np.ndarray:
        return self.spmm(x)

    def aggregator(self, **kwargs):
        """An :class:`~repro.gnn.layers.Aggregator` running on this session."""
        from ..gnn.layers import Aggregator

        return Aggregator(self, **kwargs)

    def metrics(self) -> dict:
        """Snapshot of this session's metric series (``{}`` when disabled)."""
        if self._metrics is None:
            return {}
        return self._metrics.snapshot()

    def model_request_seconds(self, h: int) -> float:
        """Cost-model time of one request at feature width ``h``.

        When served requests have fed the cost model's
        :class:`~repro.sptc.costmodel.Calibration` (metrics enabled), the
        raw prediction is corrected by the running measured/predicted
        factor and the residual gauge is refreshed — otherwise the estimate
        is returned as-is, flagged at debug level rather than silently.
        """
        predicted = registry.model_spmm_time(self.cost_model, self.operand, h)
        cal = self.cost_model.calibration
        if cal.count:
            if self._metrics is not None:
                self._m_residual.set(cal.mean_residual)
            return cal.calibrated(predicted)
        logger.debug(
            "model_request_seconds(h=%d): uncalibrated estimate %.3es "
            "(no measured kernel launches yet)", h, predicted,
        )
        return predicted

    def __repr__(self) -> str:
        degraded = (
            f", degraded_from={self.original_backend!r}" if self.degraded else ""
        )
        return (
            f"ServingSession(backend={self.backend_name!r}, shape={self.shape}, "
            f"requests={self.n_requests}{degraded})"
        )


# Sessions dispatch like operands: Aggregator and friends need no special
# case, and a session's own permutation/device handling stays in charge.
registry.register_backend(registry.Backend(
    name="serving",
    operand_types=(ServingSession,),
    spmm=lambda session, b: session.spmm(b),
    kernel_name="serving_session",
), overwrite=True)
