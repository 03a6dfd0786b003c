"""Fault-injection suite: every recovery path the resilience layer owns.

Each test scripts its faults through :class:`repro.pipeline.FaultPlan`, so
worker crashes, corrupt artefacts, failing kernels, and deadline expiry are
deterministic — no real hardware flakiness, no sleeps over 50 ms.
"""

import numpy as np
import pytest

from repro.core import BitMatrix, VNMPattern
from repro.parallel import reorder_many
from repro.pipeline import (
    ArtifactCache,
    ArtifactCorruptError,
    BackendExecutionError,
    DeadlineExceeded,
    FaultPlan,
    PipelineError,
    PreprocessError,
    PreprocessPlan,
    RetryPolicy,
    ServingSession,
    ShardRouter,
    WorkerCrashError,
    inject,
    preprocess,
    preprocess_many,
    registry,
    shard_result,
)
from repro.pipeline import cache as cache_mod
from repro.sptc import serialize

pytestmark = pytest.mark.faults

PATTERN = VNMPattern(1, 2, 4)
# Fast, jitter-free policy for tests: total backoff stays well under 50 ms.
FAST = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.004, jitter=0.0)


def make_bm(seed=0, n=48, density=0.06):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) < density
    a = (a | a.T).astype(np.uint8)
    np.fill_diagonal(a, 0)
    return BitMatrix.from_dense(a)


def int_features(n, h=6, seed=0):
    """Integer-valued features: every partial sum is exact, so served output
    must be bitwise-equal to the dense reference even after degradation."""
    return np.random.default_rng(seed).integers(0, 1 << 10, size=(n, h)).astype(np.float64)


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


def session_for(bm, **kwargs):
    result = preprocess(bm, PreprocessPlan(pattern=PATTERN))
    kwargs.setdefault("retry_policy", FAST)
    return bm, ServingSession.from_result(result, **kwargs)


def router_for(bm, **kwargs):
    """An unsharded deployment: the 1-shard router in front of ``bm``."""
    result = preprocess(bm, PreprocessPlan(pattern=PATTERN))
    kwargs.setdefault("retry_policy", FAST)
    return ShardRouter(shard_result(result, n_shards=1), **kwargs)


class TestTaxonomy:
    def test_subclass_relations(self):
        for err in (PreprocessError, ArtifactCorruptError, BackendExecutionError,
                    WorkerCrashError, DeadlineExceeded):
            assert issubclass(err, PipelineError)
        # Compat bridges for pre-taxonomy callers.
        assert issubclass(ArtifactCorruptError, ValueError)
        assert issubclass(DeadlineExceeded, TimeoutError)

    def test_context_payload(self):
        err = BackendExecutionError("boom", backend="vnm", kernel_name="venom_spmm")
        assert err.context == {"backend": "vnm", "kernel_name": "venom_spmm"}

    def test_no_conforming_pattern_is_preprocess_error(self, monkeypatch):
        import importlib

        # The package re-exports the preprocess *function* under the same
        # name, so fetch the submodule explicitly.
        preprocess_mod = importlib.import_module("repro.pipeline.preprocess")

        class Failed:
            succeeded = False
            attempts = []

        monkeypatch.setattr(preprocess_mod, "find_best_pattern", lambda *a, **k: Failed())
        with pytest.raises(PreprocessError):
            preprocess(make_bm(), PreprocessPlan(pattern=None))


class TestRetryPolicy:
    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise BackendExecutionError("transient")
            return "ok"

        retries = []
        out = FAST.run(flaky, on_retry=lambda attempt, exc: retries.append(attempt))
        assert out == "ok"
        assert calls["n"] == 3 and retries == [0, 1]

    def test_non_retryable_propagates_immediately(self):
        calls = {"n": 0}

        def typo():
            calls["n"] += 1
            raise KeyError("not retryable")

        with pytest.raises(KeyError):
            FAST.run(typo)
        assert calls["n"] == 1

    def test_exhausted_attempts_reraise_last(self):
        with pytest.raises(BackendExecutionError, match="persistent"):
            FAST.run(lambda: (_ for _ in ()).throw(BackendExecutionError("persistent")))

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(base_delay=0.001, multiplier=2.0, max_delay=0.003, jitter=0.0)
        delays = [policy.backoff_delay(a) for a in range(4)]
        assert delays == [0.001, 0.002, 0.003, 0.003]

    def test_jitter_is_bounded_and_seeded(self):
        policy = RetryPolicy(base_delay=0.01, jitter=0.5, seed=7)
        import random

        d = policy.backoff_delay(0, random.Random(7))
        assert 0.01 <= d <= 0.015
        assert d == policy.backoff_delay(0, random.Random(7))  # reproducible

    def test_deadline_cuts_off_backoff(self):
        policy = RetryPolicy(max_attempts=10, base_delay=0.02, multiplier=1.0,
                             max_delay=0.02, jitter=0.0, deadline=0.03)
        with pytest.raises(DeadlineExceeded) as info:
            policy.run(lambda: (_ for _ in ()).throw(BackendExecutionError("down")))
        assert info.value.context["deadline"] == 0.03
        assert info.value.context["attempts"] >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)


class TestServingValidation:
    def test_rejects_3d_features(self):
        bm, session = session_for(make_bm())
        with pytest.raises(ValueError, match="1-D or 2-D"):
            session.spmm(np.zeros((bm.n_rows, 4, 2)))

    def test_rejects_non_finite(self):
        bm, session = session_for(make_bm())
        x = np.ones((bm.n_rows, 4))
        x[3, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            session.spmm(x)
        x[3, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            session.spmm(x)

    def test_shape_mismatch_still_clear(self):
        _, session = session_for(make_bm())
        with pytest.raises(ValueError, match="feature rows"):
            session.spmm(np.zeros((3, 2)))


class TestKernelRetryAndDegradation:
    def test_transient_kernel_failure_retries(self):
        bm, session = session_for(make_bm())
        x = int_features(bm.n_rows)
        with inject(FaultPlan(kernel_failures={"hybrid": 1})) as plan:
            out = session.spmm(x)
        assert np.array_equal(out, bm.to_dense().astype(np.float64) @ x)
        assert session.resilience.retries == 1
        assert not session.degraded
        assert plan.count("kernel") == 1

    def test_persistent_failure_degrades_down_the_ladder(self):
        bm, session = session_for(make_bm())
        x = int_features(bm.n_rows)
        assert session.backend_name == "hybrid"
        with inject(FaultPlan(kernel_failures={"hybrid": 100})):
            out = session.spmm(x)
        # Still bitwise-correct, now served from the first working fallback.
        assert np.array_equal(out, bm.to_dense().astype(np.float64) @ x)
        assert session.degraded
        (event,) = session.resilience.downgrades
        assert event.from_backend == "hybrid" and event.to_backend == "bsr"
        assert session.backend_name == "bsr"
        assert session.original_backend == "hybrid"
        assert "degraded_from='hybrid'" in repr(session)

    def test_downgrade_is_sticky(self):
        bm, session = session_for(make_bm())
        x = int_features(bm.n_rows)
        with inject(FaultPlan(kernel_failures={"hybrid": 100})):
            session.spmm(x)
            out = session.spmm(x)  # second request: straight to the fallback
        assert np.array_equal(out, bm.to_dense().astype(np.float64) @ x)
        assert len(session.resilience.downgrades) == 1

    def test_failing_fallback_rung_is_skipped(self):
        bm, session = session_for(make_bm())
        x = int_features(bm.n_rows)
        with inject(FaultPlan(kernel_failures={"hybrid": 100, "bsr": 100})):
            out = session.spmm(x)
        (event,) = session.resilience.downgrades
        assert event.to_backend == "csr"
        assert np.array_equal(out, bm.to_dense().astype(np.float64) @ x)

    def test_whole_ladder_failing_raises_taxonomy_error(self):
        bm, session = session_for(make_bm())
        with inject(FaultPlan(kernel_failures={
                "hybrid": 100, "bsr": 100, "csr": 100, "dense": 100})):
            with pytest.raises(BackendExecutionError):
                session.spmm(int_features(bm.n_rows))

    def test_deadline_expiry_raises_deadline_exceeded(self):
        policy = RetryPolicy(max_attempts=10, base_delay=0.02, multiplier=1.0,
                             max_delay=0.02, jitter=0.0, deadline=0.03)
        result = preprocess(make_bm(), PreprocessPlan(pattern=PATTERN))
        session = ServingSession.from_result(result, retry_policy=policy)
        with inject(FaultPlan(kernel_failures={"hybrid": 100})):
            with pytest.raises(DeadlineExceeded):
                session.spmm(int_features(result.operand.shape[1]))

    def test_fallback_chains_registered(self):
        assert registry.get_backend("vnm").fallbacks == ("bsr", "csr", "dense")
        assert registry.get_backend("hybrid").fallbacks == ("bsr", "csr", "dense")
        assert registry.get_backend("csr").fallbacks == ("dense",)
        assert registry.get_backend("dense").fallbacks == ()

    def test_degrade_preserves_values_exactly(self):
        result = preprocess(make_bm(), PreprocessPlan(pattern=PATTERN))
        for target in registry.fallback_chain(result.operand):
            degraded = registry.degrade(result.operand, target)
            assert np.array_equal(registry.densify(degraded),
                                  result.operand.decompress()), target

    def test_aggregator_surfaces_degradation(self):
        bm, session = session_for(make_bm())
        agg = session.aggregator()
        baseline = agg.health()
        assert baseline.pop("kernel_variant", None) in ("csr", None)
        assert baseline == {
            "backend": "hybrid", "degraded": False, "retries": 0, "downgrades": ()}
        with inject(FaultPlan(kernel_failures={"hybrid": 100})):
            agg.mm(int_features(bm.n_rows))
        health = agg.health()
        assert health["degraded"] and agg.degraded
        assert health["backend"] == "bsr"
        assert health["downgrades"][0].to_backend == "bsr"


class TestCacheIntegrity:
    def test_store_is_atomic_under_mid_write_kill(self, cache, monkeypatch):
        result = preprocess(make_bm(), PreprocessPlan(pattern=PATTERN), cache=cache)
        key = result.cache_key

        def killed_mid_write(path, **kwargs):
            with open(path, "wb") as fh:
                fh.write(b"half-written garbage")
            raise OSError("simulated kill mid-write")

        cache.invalidate(key)
        monkeypatch.setattr(cache_mod.serialize, "save_preprocessed", killed_mid_write)
        with pytest.raises(OSError):
            cache.store(key, result.operand, result.permutation)
        # Neither a half-written artefact nor a stale temp file survives.
        assert key not in cache
        assert list(cache.cache_dir.glob("*.tmp")) == []

    def test_injected_corruption_quarantines_not_deletes(self, cache):
        result = preprocess(make_bm(), PreprocessPlan(pattern=PATTERN), cache=cache)
        key = result.cache_key
        with inject(FaultPlan(cache_corruptions=1)) as plan:
            assert cache.load(key) is None  # a miss, not an exception
        assert plan.count("cache") == 1
        assert cache.stats.quarantined == 1
        assert key not in cache
        quarantined = cache.quarantined()
        assert [p.name for p in quarantined] == [f"{key}.npz"]
        # The next preprocess recomputes and re-stores cleanly.
        again = preprocess(make_bm(), PreprocessPlan(pattern=PATTERN), cache=cache)
        assert not again.cached and key in cache

    def test_checksum_catches_silent_bit_rot(self, cache, tmp_path):
        result = preprocess(make_bm(), PreprocessPlan(pattern=PATTERN), cache=cache)
        path = cache.path(result.cache_key)
        raw = np.fromfile(path, dtype=np.uint8)
        header, data_start = serialize._header(raw)
        spec = header["arrays"]["values"]
        start = data_start + spec["offset"]
        values = raw[start:start + 8 * int(np.prod(spec["shape"]))].view("<f8")
        values *= -1  # flip payload in place, keep old checksum
        raw.tofile(path)
        with pytest.raises(ArtifactCorruptError):
            serialize.load_preprocessed(path)
        # Through the cache it is a quarantined miss, not a crash.
        assert cache.load(result.cache_key) is None
        assert cache.stats.quarantined == 1

    def test_fsck_reports_and_quarantines(self, cache):
        results = [preprocess(make_bm(seed), PreprocessPlan(pattern=PATTERN), cache=cache)
                   for seed in range(3)]
        bad_key = results[1].cache_key
        cache.path(bad_key).write_bytes(b"scribble")
        (cache.cache_dir / "orphan.npz.tmp").write_bytes(b"half-written")
        report = cache.fsck()
        assert report["checked"] == 3
        assert bad_key in report["corrupt"] and len(report["ok"]) == 2
        assert report["tmp_removed"] == ["orphan.npz.tmp"]
        assert cache.stats.quarantined == 1
        assert bad_key not in cache


class TestWorkerFaults:
    def test_soft_job_failure_carries_index(self):
        mats = [make_bm(seed) for seed in range(3)]
        with inject(FaultPlan(worker_crashes={1: "raise"})):
            with pytest.raises(WorkerCrashError) as info:
                reorder_many(mats, PATTERN, n_workers=2)
        assert info.value.context["index"] == 1

    def test_return_exceptions_mode_saves_the_batch(self):
        mats = [make_bm(seed) for seed in range(3)]
        clean = reorder_many(mats, PATTERN, n_workers=2)
        with inject(FaultPlan(worker_crashes={1: "raise"})):
            mixed = reorder_many(mats, PATTERN, n_workers=2, return_exceptions=True)
        assert isinstance(mixed[1], WorkerCrashError)
        assert mixed[1].context["index"] == 1
        for i in (0, 2):
            assert np.array_equal(mixed[i].order, clean[i].order)

    def test_dead_worker_jobs_are_resubmitted(self):
        mats = [make_bm(seed) for seed in range(3)]
        clean = reorder_many(mats, PATTERN, n_workers=2)
        with inject(FaultPlan(worker_crashes={0: "exit"})) as plan:
            recovered = reorder_many(mats, PATTERN, n_workers=2)
        assert plan.count("worker") == 1
        for a, b in zip(clean, recovered):
            assert np.array_equal(a.order, b.order)

    def test_inline_mode_degrades_hard_crash_to_soft(self):
        with inject(FaultPlan(worker_crashes={0: "exit"})):
            with pytest.raises(WorkerCrashError):
                reorder_many([make_bm()], PATTERN, n_workers=1)

    def test_preprocess_many_reports_graph_index(self, cache):
        graphs = [make_bm(seed) for seed in range(3)]
        plan = PreprocessPlan(pattern=PATTERN)
        preprocess(graphs[0], plan, cache=cache)  # graph 0 answered by cache
        with inject(FaultPlan(worker_crashes={0: "raise"})):
            with pytest.raises(WorkerCrashError) as info:
                preprocess_many(graphs, plan, n_workers=2, cache=cache)
        # Job 0 of the pending batch is graph 1 (graph 0 was a cache hit).
        assert info.value.context["index"] == 1


class TestSharedMemoryLifecycle:
    """Acceptance: segments are unlinked on every exit path — normal
    completion, a raised job fault, and a worker hard-crash alike."""

    def test_unlinked_after_normal_completion(self):
        from repro.perf import live_segments

        reorder_many([make_bm(s) for s in range(4)], PATTERN, n_workers=2)
        assert live_segments() == []

    def test_unlinked_after_raise_fault(self):
        from repro.perf import live_segments

        with inject(FaultPlan(worker_crashes={1: "raise"})):
            with pytest.raises(WorkerCrashError):
                reorder_many([make_bm(s) for s in range(3)], PATTERN, n_workers=2)
        assert live_segments() == []

    def test_unlinked_after_worker_exit_crash(self):
        from repro.perf import live_segments

        mats = [make_bm(s) for s in range(3)]
        clean = reorder_many(mats, PATTERN, n_workers=1)
        with inject(FaultPlan(worker_crashes={0: "exit"})):
            recovered = reorder_many(mats, PATTERN, n_workers=2)
        assert live_segments() == []
        for a, b in zip(clean, recovered):
            assert np.array_equal(a.order, b.order)

    def test_shm_failure_falls_back_to_pickled_payloads(self):
        from repro.perf import live_segments

        mats = [make_bm(s) for s in range(3)]
        clean = reorder_many(mats, PATTERN, n_workers=1)
        with inject(FaultPlan(shm_failures=1)) as plan:
            fallback = reorder_many(mats, PATTERN, n_workers=2)
        assert plan.count("shm") == 1
        assert live_segments() == []
        for a, b in zip(clean, fallback):
            assert np.array_equal(a.order, b.order)

    def test_worker_crash_with_persistent_pool(self):
        from repro.perf import WorkerPool, live_segments

        mats = [make_bm(s) for s in range(3)]
        clean = reorder_many(mats, PATTERN, n_workers=1)
        with WorkerPool(2) as pool:
            with inject(FaultPlan(worker_crashes={0: "exit"})):
                recovered = reorder_many(mats, PATTERN, pool=pool)
            # The pool restarted in place and stays usable for the next batch.
            assert pool.stats.restarts == 1
            again = reorder_many(mats, PATTERN, pool=pool)
        assert live_segments() == []
        for a, b, c in zip(clean, recovered, again):
            assert np.array_equal(a.order, b.order)
            assert np.array_equal(a.order, c.order)

    def test_preprocess_many_with_pool(self, cache):
        from repro.perf import WorkerPool

        graphs = [make_bm(s) for s in range(3)]
        plan = PreprocessPlan(pattern=PATTERN)
        direct = preprocess_many(graphs, plan, n_workers=1)
        with WorkerPool(2) as pool:
            pooled = preprocess_many(graphs, plan, pool=pool, cache=cache)
        for a, b in zip(direct, pooled):
            assert np.array_equal(a.permutation.order, b.permutation.order)


class TestMicroBatchFaults:
    """Submitted requests fail independently: a request that exhausts its
    retries and ladder fails alone, on the router's submit path."""

    def test_partial_failure_affects_only_failing_request(self):
        bm = make_bm()
        # One front thread: requests reach the lane in submit order.
        router = router_for(bm, max_pipeline=1)
        xs = [int_features(bm.n_rows, h=3, seed=s) for s in range(3)]
        dense = bm.to_dense().astype(np.float64)
        # The first request exhausts the hybrid retry budget and then finds
        # the whole ladder down, while the later requests see healed kernels.
        fault_plan = FaultPlan(
            kernel_failures={"hybrid": FAST.max_attempts,
                             "bsr": 100, "csr": 100, "dense": 100},
        )
        with inject(fault_plan):
            futures = [router.submit(x) for x in xs]
            with pytest.raises(BackendExecutionError):
                futures[0].result()
            for x, fut in zip(xs[1:], futures[1:]):
                assert np.array_equal(fut.result(), dense @ x)
        router.close()

    def test_batched_serving_after_downgrade_stays_correct(self):
        bm = make_bm()
        router = router_for(bm)
        session = router._replicas[0][0].session
        x = int_features(bm.n_rows, h=4, seed=9)
        dense = bm.to_dense().astype(np.float64)
        with inject(FaultPlan(kernel_failures={"hybrid": 100})):
            fut = router.submit(x)
            assert np.array_equal(fut.result(), dense @ x)
        assert session.degraded and session.backend_name == "bsr"
        # Sticky downgrade: the next submitted request serves from the fallback.
        assert np.array_equal(router.submit(x).result(), dense @ x)
        router.close()


class TestAcceptanceScenario:
    """ISSUE acceptance: corrupt cache entry + worker crash + kernel failure
    in one run, and the pipeline still answers bitwise-correct results with
    every event accounted for — no bare exception escapes the taxonomy."""

    def test_combined_faults_still_serve_bitwise_results(self, cache):
        graphs = [make_bm(seed, n=48) for seed in range(3)]
        plan = PreprocessPlan(pattern=PATTERN)
        # Pre-populate graph 0 so the injected cache corruption has a file
        # to scribble on.
        preprocess(graphs[0], plan, cache=cache)

        fault_plan = FaultPlan(
            kernel_failures={"hybrid": 1},
            cache_corruptions=1,
            worker_crashes={0: "exit"},
        )
        with inject(fault_plan):
            try:
                results = preprocess_many(graphs, plan, n_workers=2, cache=cache)
                sessions = [ServingSession.from_result(r, retry_policy=FAST)
                            for r in results]
                outputs = []
                for bm, session in zip(graphs, sessions):
                    outputs.append(session.spmm(int_features(bm.n_rows, seed=5)))
            except Exception as exc:  # noqa: BLE001 - the assertion IS the taxonomy
                assert isinstance(exc, PipelineError), (
                    f"non-taxonomy {type(exc).__name__} escaped: {exc}")
                raise AssertionError(
                    f"pipeline failed to recover from injected faults: {exc}")

        # Bitwise-correct against the dense reference, end to end.
        for bm, out in zip(graphs, outputs):
            ref = bm.to_dense().astype(np.float64) @ int_features(bm.n_rows, seed=5)
            assert np.array_equal(out, ref)

        # Every injected event is accounted for.
        assert cache.stats.quarantined == 1  # the corrupt entry, kept aside
        assert fault_plan.count("cache") == 1
        assert fault_plan.count("worker") == 1
        assert fault_plan.count("kernel") == 1
        assert sum(s.resilience.retries for s in sessions) == 1  # kernel retry
        assert not any(s.degraded for s in sessions)  # one failure < max_attempts
