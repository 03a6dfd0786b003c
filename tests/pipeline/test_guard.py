"""Circuit breakers, admission control, and drain semantics (ISSUE 7).

Breaker clocks are injected, so cooldowns advance by assignment instead of
sleeping; serving tests script kernel failures through ``FaultPlan`` like
the rest of the faults suite.
"""

import threading

import numpy as np
import pytest

from repro.core import VNMPattern
from repro.obs import MetricsRegistry
from repro.perf import engine
from repro.pipeline import (
    AdmissionPolicy,
    BackendExecutionError,
    BreakerBoard,
    BreakerConfig,
    CircuitBreaker,
    CircuitOpenError,
    FaultPlan,
    OverloadError,
    PipelineError,
    PreprocessPlan,
    RetryPolicy,
    ServingSession,
    ShardRouter,
    active_breakers,
    breaker_scope,
    disable_breakers,
    enable_breakers,
    inject,
    preprocess,
    registry,
    shard_result,
)
from repro.pipeline import guard

pytestmark = pytest.mark.faults

PATTERN = VNMPattern(1, 2, 4)
FAST = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.004, jitter=0.0)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def make_bm(seed=0, n=48, density=0.06):
    from repro.core import BitMatrix

    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) < density
    a = (a | a.T).astype(np.uint8)
    np.fill_diagonal(a, 0)
    return BitMatrix.from_dense(a)


def int_features(n, h=6, seed=0):
    return np.random.default_rng(seed).integers(0, 1 << 10, size=(n, h)).astype(np.float64)


def session_for(bm, **kwargs):
    result = preprocess(bm, PreprocessPlan(pattern=PATTERN))
    kwargs.setdefault("retry_policy", FAST)
    return bm, ServingSession.from_result(result, **kwargs)


def router_for(bm, **kwargs):
    """An unsharded deployment: the 1-shard router in front of ``bm``."""
    result = preprocess(bm, PreprocessPlan(pattern=PATTERN))
    kwargs.setdefault("retry_policy", FAST)
    return bm, ShardRouter(shard_result(result, n_shards=1), **kwargs)


def hold_lanes(router):
    """Park every replica lane behind a gate; returns the gate to open.

    Requests submitted meanwhile stay queued (admitted, or dispatched to a
    parked lane), so depth-driven admission and close-time draining are
    deterministic.
    """
    gate = threading.Event()
    for group in router._replicas:
        for rep in group:
            rep.lane.submit(gate.wait, 10.0)
    return gate


def trip(breaker_or_board, backend=None, times=None):
    """Record enough consecutive failures to open a breaker."""
    if backend is not None:
        breaker = breaker_or_board.breaker(backend)
    else:
        breaker = breaker_or_board
    for _ in range(times or breaker.config.failure_threshold):
        breaker.record_failure()
    return breaker


class TestCircuitBreaker:
    def test_taxonomy(self):
        assert issubclass(CircuitOpenError, BackendExecutionError)
        assert issubclass(OverloadError, PipelineError)
        err = CircuitOpenError("open", backend="bsr", retry_after=1.5)
        assert err.context["backend"] == "bsr"
        assert err.context["retry_after"] == 1.5

    def test_opens_after_consecutive_threshold(self):
        clock = FakeClock()
        b = CircuitBreaker("bsr", BreakerConfig(failure_threshold=3), clock=clock)
        for _ in range(2):
            b.record_failure()
        assert b.state == "closed"
        b.before_call()  # still admitted while closed
        b.record_failure()
        assert b.state == "open"
        assert b.opens == 1
        with pytest.raises(CircuitOpenError) as exc_info:
            b.before_call()
        assert exc_info.value.context["backend"] == "bsr"
        assert exc_info.value.context["retry_after"] > 0

    def test_success_resets_consecutive_count(self):
        b = CircuitBreaker("csr", BreakerConfig(failure_threshold=3))
        b.record_failure()
        b.record_failure()
        b.record_success()
        b.record_failure()
        b.record_failure()
        assert b.state == "closed"  # never 3 *consecutive*

    def test_cooldown_probe_heals(self):
        clock = FakeClock()
        b = trip(CircuitBreaker("bsr", BreakerConfig(failure_threshold=2, cooldown=5.0),
                                clock=clock))
        assert b.state == "open"
        clock.advance(5.1)
        b.before_call()  # the probe is admitted
        assert b.state == "half_open"
        b.record_success()
        assert b.state == "closed"
        assert b.consecutive_failures == 0

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        b = trip(CircuitBreaker("bsr", BreakerConfig(failure_threshold=2, cooldown=5.0),
                                clock=clock))
        clock.advance(5.1)
        b.before_call()
        b.record_failure()
        assert b.state == "open"
        assert b.opens == 2
        with pytest.raises(CircuitOpenError):
            b.before_call()  # new cooldown started

    def test_half_open_admits_one_probe(self):
        clock = FakeClock()
        b = trip(CircuitBreaker("bsr", BreakerConfig(failure_threshold=1, cooldown=1.0),
                                clock=clock))
        clock.advance(1.1)
        b.before_call()  # probe in flight
        with pytest.raises(CircuitOpenError) as exc_info:
            b.before_call()
        assert exc_info.value.context["state"] == "half_open"

    def test_stale_probe_slot_is_reclaimed(self):
        clock = FakeClock()
        config = BreakerConfig(failure_threshold=1, cooldown=1.0, probe_timeout=10.0)
        b = trip(CircuitBreaker("bsr", config, clock=clock))
        clock.advance(1.1)
        b.before_call()  # probe whose caller vanishes
        clock.advance(10.1)
        b.before_call()  # reclaimed: a new probe is admitted, no error

    def test_would_reject_only_while_cooling(self):
        clock = FakeClock()
        b = trip(CircuitBreaker("bsr", BreakerConfig(failure_threshold=1, cooldown=2.0),
                                clock=clock))
        assert b.would_reject()
        clock.advance(2.1)
        assert not b.would_reject()  # cooldown over: a probe could go through

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(cooldown=0)

    def test_config_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "7")
        monkeypatch.setenv("REPRO_BREAKER_COOLDOWN", "0.25")
        config = BreakerConfig.from_env()
        assert config.failure_threshold == 7
        assert config.cooldown == 0.25
        # Explicit arguments win over the environment.
        assert BreakerConfig.from_env(failure_threshold=2).failure_threshold == 2
        monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "junk")
        assert BreakerConfig.from_env().failure_threshold == 5


class TestBreakerBoard:
    def test_lazy_per_backend_creation(self):
        board = BreakerBoard(BreakerConfig(failure_threshold=2), metrics=MetricsRegistry())
        assert board.state("bsr") == "closed"
        assert board.snapshot() == {}  # unseen backends are not materialized
        board.record_failure("bsr")
        assert board.snapshot()["bsr"]["consecutive_failures"] == 1

    def test_metrics_flow(self):
        metrics = MetricsRegistry()
        board = BreakerBoard(BreakerConfig(failure_threshold=1, cooldown=9.0),
                             metrics=metrics)
        board.record_failure("bsr")
        with pytest.raises(CircuitOpenError):
            board.before_call("bsr")
        snapshot = metrics.snapshot()
        gauge = snapshot["breaker_state"][0]
        assert gauge["labels"] == {"backend": "bsr"}
        assert gauge["value"] == 2.0  # open
        assert any(s["labels"]["to"] == "open" and s["value"] == 1
                   for s in snapshot["breaker_transitions_total"])
        assert snapshot["breaker_open_skips_total"][0]["value"] == 1

    def test_scope_installs_and_restores(self):
        assert active_breakers() is None
        with breaker_scope() as board:
            assert active_breakers() is board
            with breaker_scope() as inner:
                assert active_breakers() is inner
            assert active_breakers() is board
        assert active_breakers() is None

    def test_enable_disable(self):
        board = enable_breakers(BreakerConfig(failure_threshold=2))
        try:
            assert active_breakers() is board
        finally:
            disable_breakers()
        assert active_breakers() is None


class TestRunKernelBreakers:
    def test_failures_feed_the_breaker_and_open_skips_fast(self):
        bm = make_bm()
        result = preprocess(bm, PreprocessPlan(pattern=PATTERN))
        backend = registry.backend_for(result.operand)
        x = int_features(bm.n_cols)
        clock = FakeClock()
        with breaker_scope(BreakerConfig(failure_threshold=2, cooldown=60.0),
                           clock=clock) as board:
            with inject(FaultPlan(kernel_failures={backend.name: 2})) as plan:
                for _ in range(2):
                    with pytest.raises(BackendExecutionError):
                        engine.execute(result.operand, x)
                assert board.state(backend.name) == "open"
                # The open breaker rejects *before* the kernel (and before
                # the fault hook): no further plan events are consumed.
                events_before = plan.count("kernel")
                with pytest.raises(CircuitOpenError):
                    engine.execute(result.operand, x)
                assert plan.count("kernel") == events_before

    def test_success_closes_after_cooldown_probe(self):
        bm = make_bm()
        result = preprocess(bm, PreprocessPlan(pattern=PATTERN))
        backend = registry.backend_for(result.operand)
        x = int_features(bm.n_cols)
        clock = FakeClock()
        with breaker_scope(BreakerConfig(failure_threshold=1, cooldown=5.0),
                           clock=clock) as board:
            with inject(FaultPlan(kernel_failures={backend.name: 1})):
                with pytest.raises(BackendExecutionError):
                    engine.execute(result.operand, x)
            assert board.state(backend.name) == "open"
            clock.advance(5.1)
            out = engine.execute(result.operand, x)  # the probe
            assert board.state(backend.name) == "closed"
            assert np.array_equal(out, registry.densify(result.operand) @ x)

    def test_missing_kernel_is_a_caller_error_not_a_failure(self):
        bm = make_bm()
        result = preprocess(bm, PreprocessPlan(pattern=PATTERN))
        backend = registry.backend_for(result.operand)
        x = int_features(bm.n_cols)
        with breaker_scope(BreakerConfig(failure_threshold=1, cooldown=60.0),
                           clock=FakeClock()) as board:
            with pytest.raises(TypeError):
                registry.run_kernel(backend, result.operand, x)
            assert board.state(backend.name) == "closed"


class TestServingWithBreakers:
    def test_open_breaker_serves_on_fallback_with_one_event(self):
        """Acceptance: an operand whose backend breaker is open serves on
        its fallback with exactly one breaker-open event — zero per-request
        retries, zero additional failures."""
        bm, session = session_for(make_bm())
        clock = FakeClock()
        with breaker_scope(BreakerConfig(failure_threshold=2, cooldown=60.0),
                           clock=clock) as board:
            breaker = trip(board, session.backend_name)
            assert breaker.opens == 1
            x = int_features(bm.n_cols)
            out = session.spmm(x)  # no kernel faults scripted: only the breaker
            assert np.array_equal(out, bm.to_dense().astype(np.float64) @ x)
            assert session.degraded
            assert session.resilience.retries == 0  # give_up_on: no retry burn
            assert len(session.resilience.downgrades) == 1
            assert breaker.opens == 1  # still the one open event
            # Subsequent requests serve from the sticky fallback without
            # touching the open breaker again.
            skips_before = breaker.snapshot()
            session.spmm(x)
            assert breaker.snapshot() == skips_before

    def test_fallback_ladder_skips_open_rung(self):
        bm, session = session_for(make_bm())
        chain = registry.fallback_chain(session.operand)
        assert chain[0] == "bsr"  # hybrid → bsr → csr → dense
        clock = FakeClock()
        # High threshold so the *failing* backend's own breaker stays closed
        # — this test isolates the ladder's would_reject skip.
        with breaker_scope(BreakerConfig(failure_threshold=50, cooldown=60.0),
                           clock=clock) as board:
            trip(board, "bsr", times=50)
            assert board.would_reject("bsr")
            with inject(FaultPlan(kernel_failures={session.backend_name: 10})):
                x = int_features(bm.n_cols)
                out = session.spmm(x)
            assert np.array_equal(out, bm.to_dense().astype(np.float64) @ x)
            event = session.resilience.downgrades[0]
            assert event.to_backend == "csr"  # bsr was stepped over

    def test_sticky_downgrade_survives_breaker_heal(self):
        bm, session = session_for(make_bm())
        original = session.backend_name
        clock = FakeClock()
        with breaker_scope(BreakerConfig(failure_threshold=1, cooldown=1.0),
                           clock=clock) as board:
            trip(board, original, times=1)
            x = int_features(bm.n_cols)
            session.spmm(x)
            assert session.degraded
            fallback = session.backend_name
            clock.advance(10.0)  # the original backend's breaker may heal...
            assert not board.would_reject(original)
            session.spmm(x)
            # ...but the downgrade is sticky: serving stays on the fallback.
            assert session.backend_name == fallback

    def test_health_reports_breaker_states(self):
        bm, session = session_for(make_bm())
        agg = session.aggregator()
        assert "breakers" not in agg.health()  # no board installed
        with breaker_scope(BreakerConfig(failure_threshold=2)) as board:
            board.record_failure("bsr")
            report = agg.health()
            assert report["breakers"]["bsr"]["state"] == "closed"
            assert report["breakers"]["bsr"]["consecutive_failures"] == 1

    def test_give_up_on_carves_out_of_retry(self):
        calls = []

        def fn():
            calls.append(1)
            raise CircuitOpenError("open", backend="bsr")

        with pytest.raises(CircuitOpenError):
            FAST.run(fn, retry_on=(BackendExecutionError,),
                     give_up_on=(CircuitOpenError,))
        assert len(calls) == 1  # no retry burn on a skipped call


class TestAdmission:
    def test_queue_full(self):
        policy = AdmissionPolicy(max_queue_depth=2)
        policy.admit(depth=1)
        with pytest.raises(OverloadError) as exc_info:
            policy.admit(depth=2)
        assert exc_info.value.context["reason"] == "queue_full"

    def test_deadline_uses_live_p95(self):
        metrics = MetricsRegistry()
        latency = metrics.histogram("spmm_latency_seconds")
        policy = AdmissionPolicy(deadline=0.5, min_samples=5)
        # Below min_samples: optimistic admission.
        for _ in range(4):
            latency.observe(1.0)
        policy.admit(depth=10, latency=latency)
        latency.observe(1.0)
        with pytest.raises(OverloadError) as exc_info:
            policy.admit(depth=10, latency=latency)
        assert exc_info.value.context["reason"] == "deadline"
        assert exc_info.value.context["estimated_wait"] > 0.5
        # A fast histogram admits: 11 batches of ~1ms fit in 0.5s.
        fast = metrics.histogram("spmm_latency_seconds", route="fast")
        for _ in range(10):
            fast.observe(0.001)
        policy.admit(depth=10, latency=fast)

    def test_validation_and_env(self, monkeypatch):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_queue_depth=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(deadline=-1.0)
        monkeypatch.setenv("REPRO_MAX_QUEUE_DEPTH", "9")
        monkeypatch.setenv("REPRO_SHED_DEADLINE", "0.75")
        policy = AdmissionPolicy.from_env()
        assert policy.max_queue_depth == 9
        assert policy.deadline == 0.75

    def test_batcher_sheds_on_queue_depth(self):
        metrics = MetricsRegistry()
        bm, router = router_for(
            make_bm(), metrics=metrics,
            admission=AdmissionPolicy(max_queue_depth=1))
        gate = hold_lanes(router)  # the first request stays queued
        x = int_features(bm.n_cols)
        first = router.submit(x)
        with pytest.raises(OverloadError) as exc_info:
            router.submit(x)
        assert exc_info.value.context["reason"] == "queue_full"
        gate.set()
        router.close()
        assert np.array_equal(first.result(timeout=5),
                              bm.to_dense().astype(np.float64) @ x)
        shed = metrics.snapshot()["router_shed_total"]
        assert shed[0]["labels"] == {"reason": "queue_full"}
        assert shed[0]["value"] == 1

    def test_batcher_sheds_on_deadline(self):
        metrics = MetricsRegistry()
        bm, router = router_for(
            make_bm(), metrics=metrics,
            admission=AdmissionPolicy(deadline=0.5, min_samples=3))
        latency = metrics.histogram("spmm_latency_seconds", shard="0")
        for _ in range(3):
            latency.observe(1.0)  # a slow history: p95 ≈ 1s
        with pytest.raises(OverloadError) as exc_info:
            router.submit(int_features(bm.n_cols))
        assert exc_info.value.context["reason"] == "deadline"
        router.close()


class TestDrainAndClose:
    def test_close_drains_queued_futures(self):
        metrics = MetricsRegistry()
        bm, router = router_for(make_bm(), metrics=metrics)
        gate = hold_lanes(router)
        x = int_features(bm.n_cols)
        futures = [router.submit(x) for _ in range(3)]
        threading.Timer(0.05, gate.set).start()
        router.close()  # blocks until every admitted request is served
        reference = bm.to_dense().astype(np.float64) @ x
        for fut in futures:
            assert fut.done()
            assert np.array_equal(fut.result(timeout=0), reference)
        assert metrics.get("router_requests_total").value == 3

    def test_closed_batcher_refuses_submissions(self):
        bm, router = router_for(make_bm())
        router.submit(int_features(bm.n_cols)).result(timeout=5)
        router.close()
        with pytest.raises(OverloadError) as exc_info:
            router.submit(int_features(bm.n_cols))
        assert exc_info.value.context["reason"] == "closed"
        router.close()  # idempotent


class TestWorkerSupervision:
    def test_reorder_many_recovers_from_hung_worker(self, monkeypatch):
        """A scripted worker hang trips the supervised pool's job timeout;
        the hang is counted, the wedged worker is killed and the lost jobs
        are resubmitted clean."""
        from repro.obs.metrics import default_registry
        from repro.parallel import reorder_many
        from repro.perf.pool import SupervisionPolicy, WorkerPool
        # Bound the injected hang itself so a watchdog regression cannot
        # wedge the suite: the worker self-terminates after 10s regardless.
        monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "10")
        timeouts_total = default_registry().counter("pool_job_timeouts_total")
        before = timeouts_total.value
        mats = [make_bm(seed=i, n=24) for i in range(4)]
        policy = SupervisionPolicy(job_timeout=0.75)
        with WorkerPool(2, supervision=policy) as pool:
            with inject(FaultPlan(worker_crashes={1: "hang"})) as plan:
                out = reorder_many(mats, PATTERN, pool=pool, chunk_size=1,
                                   return_exceptions=True)
            assert plan.count("worker") == 1
            assert pool.stats.timeouts == 1
            assert pool.stats.kills == 1
        assert timeouts_total.value == before + 1
        assert len(out) == 4
        # The hung job was resubmitted without its directive: every result
        # is a real summary, in input order.
        assert all(not isinstance(r, Exception) for r in out)
        assert [r.index for r in out] == [0, 1, 2, 3]

    def test_supervised_pool_supplies_default_job_timeout(self, monkeypatch):
        """reorder_many takes no timeout of its own: the borrowed pool's
        policy bounds each job, well before the injected hang ends."""
        import time

        from repro.parallel import reorder_many
        from repro.perf.pool import SupervisionPolicy, WorkerPool

        monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "10")
        mats = [make_bm(seed=i, n=24) for i in range(3)]
        policy = SupervisionPolicy(job_timeout=0.75)
        with WorkerPool(2, supervision=policy) as pool:
            with inject(FaultPlan(worker_crashes={0: "hang"})):
                t0 = time.monotonic()
                out = reorder_many(mats, PATTERN, pool=pool, chunk_size=1,
                                   return_exceptions=True)
                elapsed = time.monotonic() - t0
            assert pool.stats.timeouts >= 1
            assert pool.stats.kills >= 1
        assert elapsed < 10
        assert all(not isinstance(r, Exception) for r in out)


class TestEnvDefaultBoard:
    def test_env_flag_installs_a_board(self):
        # The import-time REPRO_BREAKERS hook is exercised in-process via
        # the enable path it shares; a subprocess import would be slower.
        board = guard.enable_breakers()
        try:
            assert guard.active_breakers() is board
        finally:
            guard.disable_breakers()
