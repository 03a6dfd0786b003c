"""End-to-end instrumentation: spans, events, and metrics emitted by the
reorder → preprocess → cache → serve stack, including the fault-injected
paths (``pytest -m faults`` runs those alongside the resilience suite)."""

import numpy as np
import pytest

from repro.core import BitMatrix, VNMPattern, reorder
from repro.obs import MetricsRegistry, use_events, use_tracer
from repro.parallel import reorder_many
from repro.pipeline import (
    ArtifactCache,
    FaultPlan,
    PreprocessPlan,
    RetryPolicy,
    ServingSession,
    inject,
    preprocess,
)

PATTERN = VNMPattern(1, 2, 4)
FAST = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.004, jitter=0.0)


def make_bm(seed=0, n=48, density=0.06):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) < density
    a = (a | a.T).astype(np.uint8)
    np.fill_diagonal(a, 0)
    return BitMatrix.from_dense(a)


def make_session(bm, **kwargs):
    result = preprocess(bm, PreprocessPlan(pattern=PATTERN))
    kwargs.setdefault("retry_policy", FAST)
    return ServingSession.from_result(result, **kwargs)


class TestReorderSpans:
    def test_reorder_span_tree(self):
        with use_tracer() as tracer:
            reorder(make_bm(), PATTERN, max_iter=4)
        (root,) = tracer.roots
        assert root.name == "reorder"
        assert root.attrs["pattern"] == "1:2:4"
        assert "iterations" in root.attrs and "final_invalid" in root.attrs
        # Scored at least twice (initial + per-iteration), stages inside iterations.
        assert len(root.find("reorder.scores")) >= 2

    def test_stage_timings_cover_the_root(self):
        # The profile contract: direct children of each span account for
        # (almost) all of its wall time, so the rendered tree is trustworthy.
        with use_tracer() as tracer:
            reorder(make_bm(seed=3, n=96, density=0.1), PATTERN, max_iter=6)
        (root,) = tracer.roots
        covered = sum(c.duration for c in root.children)
        assert covered <= root.duration * 1.001
        assert covered >= root.duration * 0.5

    def test_reorder_iteration_events(self):
        with use_events() as log:
            reorder(make_bm(seed=3, n=96, density=0.1), PATTERN, max_iter=6)
        for event in log.of_kind("reorder.iteration"):
            assert {"iteration", "pscore", "mbscore", "improvement_rate"} <= set(event)


class TestWorkerSpanMerging:
    def test_inline_path_adopts_job_traces(self):
        mats = [make_bm(seed=s) for s in range(3)]
        with use_tracer() as tracer:
            reorder_many(mats, PATTERN, n_workers=1, max_iter=2)
        (root,) = tracer.roots
        assert root.name == "parallel.reorder_many"
        jobs = sorted(r.attrs["job"] for r in root.find("reorder"))
        assert jobs == [0, 1, 2]

    def test_pool_path_ships_records_across_processes(self):
        mats = [make_bm(seed=s) for s in range(3)]
        with use_tracer() as tracer:
            summaries = reorder_many(mats, PATTERN, n_workers=2, max_iter=2)
        assert all(s.trace is not None for s in summaries)
        (root,) = tracer.roots
        jobs = sorted(r.attrs["job"] for r in root.find("reorder"))
        assert jobs == [0, 1, 2]
        # Worker-side children (scoring spans) survived pickling too.
        assert root.find("reorder.scores")

    def test_no_trace_payload_when_disabled(self):
        summaries = reorder_many([make_bm()], PATTERN, n_workers=1, max_iter=2)
        assert summaries[0].trace is None


class TestPreprocessSpans:
    def test_preprocess_span_and_event(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        with use_tracer() as tracer, use_events() as log:
            preprocess(make_bm(), PreprocessPlan(pattern=PATTERN), cache=cache)
        (root,) = tracer.roots
        assert root.name == "preprocess"
        names = {r.name for r in root.walk()}
        assert {"preprocess.cache_lookup", "preprocess.compress",
                "preprocess.cache_store"} <= names
        (done,) = log.of_kind("preprocess.done")
        assert done["cached"] is False

    def test_cache_hit_span(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        plan = PreprocessPlan(pattern=PATTERN)
        preprocess(make_bm(), plan, cache=cache)
        with use_tracer() as tracer, use_events() as log:
            res = preprocess(make_bm(), plan, cache=cache)
        assert res.cached
        assert tracer.roots[0].attrs["cached"] is True
        assert log.of_kind("preprocess.done")[0]["cached"] is True


class TestCacheMetrics:
    def test_hit_miss_store_counters_and_latency(self, tmp_path):
        reg = MetricsRegistry()
        cache = ArtifactCache(tmp_path / "cache", metrics=reg)
        plan = PreprocessPlan(pattern=PATTERN)
        preprocess(make_bm(), plan, cache=cache)   # miss + store
        preprocess(make_bm(), plan, cache=cache)   # hit
        assert reg.get("cache_misses_total").value == 1
        assert reg.get("cache_stores_total").value == 1
        assert reg.get("cache_hits_total").value == 1
        assert reg.get("cache_load_seconds").count == 1
        assert reg.get("cache_store_seconds").count == 1


class TestServingMetrics:
    def test_latency_histogram_and_request_counter(self):
        reg = MetricsRegistry()
        session = make_session(make_bm(), metrics=reg)
        x = np.ones((session.shape[1], 4))
        for _ in range(3):
            session.spmm(x)
        assert reg.get("serve_requests_total").value == 3
        hist = reg.get("spmm_latency_seconds")
        assert hist.count == 3 and hist.sum > 0
        snap = session.metrics()
        assert snap["spmm_latency_seconds"][0]["count"] == 3

    def test_metrics_disabled_returns_empty(self):
        session = make_session(make_bm())
        assert session.metrics() == {}

    def test_calibrated_model_request_seconds(self):
        reg = MetricsRegistry()
        session = make_session(make_bm(), metrics=reg)
        uncalibrated = session.model_request_seconds(4)
        session.spmm(np.ones((session.shape[1], 4)))
        cal = session.cost_model.calibration
        assert cal.count == 1
        calibrated = session.model_request_seconds(4)
        assert calibrated == pytest.approx(uncalibrated * cal.factor)
        assert reg.get("costmodel_residual").value == pytest.approx(cal.mean_residual)

    def test_uncalibrated_without_metrics(self):
        # metrics=None: nothing is measured, so the raw estimate comes back.
        session = make_session(make_bm())
        session.spmm(np.ones((session.shape[1], 4)))
        assert session.cost_model.calibration.count == 0

    def test_aggregator_health_includes_live_metrics(self):
        session = make_session(make_bm(), metrics=MetricsRegistry())
        agg = session.aggregator()
        agg.mm(np.ones((session.shape[1], 4)))
        health = agg.health()
        assert health["metrics"]["serve_requests_total"][0]["value"] == 1

    def test_aggregator_health_plain_operand_has_no_metrics_key(self):
        session = make_session(make_bm())
        assert "metrics" not in session.aggregator().health()


@pytest.mark.faults
class TestFaultInjectedObservability:
    def test_retry_counter_matches_fault_plan(self):
        reg = MetricsRegistry()
        session = make_session(make_bm(), metrics=reg)
        x = np.ones((session.shape[1], 4))
        with use_events() as log, inject(FaultPlan(kernel_failures={"hybrid": 1})) as plan:
            session.spmm(x)
        assert plan.count("kernel") == 1
        assert reg.get("serve_retries_total").value == plan.count("kernel")
        assert reg.get("serve_downgrades_total").value == 0
        (event,) = log.of_kind("serve.retry")
        assert event["backend"] == "hybrid" and event["attempt"] == 0

    def test_downgrade_counter_and_event(self):
        reg = MetricsRegistry()
        session = make_session(make_bm(), metrics=reg)
        x = np.ones((session.shape[1], 4))
        with use_events() as log, inject(FaultPlan(kernel_failures={"hybrid": 100})):
            session.spmm(x)
        assert session.degraded
        assert reg.get("serve_downgrades_total").value == len(
            session.resilience.downgrades
        )
        assert reg.get("serve_retries_total").value == session.resilience.retries
        (event,) = log.of_kind("serve.downgrade")
        assert event["from_backend"] == "hybrid"
        assert event["to_backend"] == session.backend_name

    def test_quarantine_counter_and_event(self, tmp_path):
        reg = MetricsRegistry()
        cache = ArtifactCache(tmp_path / "cache", metrics=reg)
        plan = PreprocessPlan(pattern=PATTERN)
        preprocess(make_bm(), plan, cache=cache)
        with use_events() as log, inject(FaultPlan(cache_corruptions=1)) as fplan:
            res = preprocess(make_bm(), plan, cache=cache)
        assert fplan.count("cache") == 1
        assert not res.cached  # corrupt read answered as a miss
        assert reg.get("cache_corrupt_total").value == 1
        assert cache.stats.quarantined == 1
        (event,) = log.of_kind("cache.quarantine")
        assert event["key"] and event["dest"]
