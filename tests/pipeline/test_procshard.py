"""Process shard workers: ring transport, supervision, attach lifecycle.

The contract mirrors the thread-lane fabric: a worker process serves the
same bits a :class:`ServingSession` would (integer features keep every
partial sum exact), errors cross the ring as the same taxonomy the thread
path raises, a SIGKILLed worker costs one :class:`WorkerCrashError` and
self-heals on the next serve — forking again from the parent, which still
holds the operand — and nothing leaks: no worker processes, no shared-memory segments.
"""

import os
import shutil
import signal
import time

import numpy as np
import pytest

from repro.core import BitMatrix, VNMPattern
from repro.obs import MetricsRegistry
from repro.perf import SupervisionPolicy
from repro.perf.shm import live_segments
from repro.pipeline import (
    ArtifactCache,
    DeadlineExceeded,
    PipelineError,
    PreprocessPlan,
    ProcessShardWorker,
    ServingSession,
    ShardRouter,
    WorkerCrashError,
    preprocess,
    shard_result,
)
from repro.pipeline.procshard import _rebuild_error

PATTERN = VNMPattern(1, 2, 4)


def make_bm(seed=0, n=48, density=0.08):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) < density
    a = (a | a.T).astype(np.uint8)
    np.fill_diagonal(a, 0)
    return BitMatrix.from_dense(a)


def int_features(n, h=6, seed=0):
    return np.random.default_rng(seed).integers(
        0, 1 << 10, size=(n, h)).astype(np.float64)


@pytest.fixture(scope="module")
def hybrid_result():
    return preprocess(make_bm(), PreprocessPlan(pattern=PATTERN, max_iter=4))


class TestRingRoundTrip:
    def test_serves_bitwise_identical_to_session(self, hybrid_result):
        operand = hybrid_result.operand
        session = ServingSession(operand, None)
        x = int_features(operand.shape[1], seed=11)
        with ProcessShardWorker(0, 0, operand) as worker:
            assert worker.alive and worker.pid != os.getpid()
            assert np.array_equal(worker.serve(x), session.spmm(x))

    def test_slots_recycle_across_many_requests(self, hybrid_result):
        # More round-trips than ring slots: the seqlock ticket must wrap
        # the slot index without ever serving a stale payload.
        operand = hybrid_result.operand
        session = ServingSession(operand, None)
        with ProcessShardWorker(0, 0, operand, n_slots=2) as worker:
            for i in range(7):
                x = int_features(operand.shape[1], seed=40 + i)
                assert np.array_equal(worker.serve(x), session.spmm(x))
            assert worker.stats.jobs == 7

    def test_wide_request_chunks_by_columns(self, hybrid_result):
        # h > h_max serves in column chunks; the reassembled result must
        # be the same bits as one unchunked serve.
        operand = hybrid_result.operand
        session = ServingSession(operand, None)
        x = int_features(operand.shape[1], h=11, seed=12)
        with ProcessShardWorker(0, 0, operand, h_max=4) as worker:
            assert np.array_equal(worker.serve(x), session.spmm(x))

    def test_rejects_wrong_shape(self, hybrid_result):
        operand = hybrid_result.operand
        with ProcessShardWorker(0, 0, operand) as worker:
            with pytest.raises(ValueError, match="sub-request"):
                worker.serve(np.ones((operand.shape[1] + 1, 2)))

    def test_closed_worker_refuses(self, hybrid_result):
        operand = hybrid_result.operand
        worker = ProcessShardWorker(0, 0, operand)
        worker.close()
        with pytest.raises(WorkerCrashError, match="closed"):
            worker.serve(int_features(operand.shape[1]))


class TestAttachLifecycle:
    def test_attach_counted_per_spawn(self, hybrid_result):
        metrics = MetricsRegistry()
        operand = hybrid_result.operand
        with ProcessShardWorker(0, 0, operand, metrics=metrics) as worker:
            x = int_features(operand.shape[1], seed=8)
            os.kill(worker.pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashError):
                worker.serve(x)
            worker.serve(x)  # respawns: a second attach
        text = metrics.to_prometheus()
        assert 'procshard_worker_attach_total{shard="0"} 2.0' in text

    def test_cache_attach_at_spawn(self, tmp_path):
        # Shards reloaded from the artefact cache are what each worker
        # attaches to when the router spawns it: one attach per shard.
        cache = ArtifactCache(tmp_path)
        result = preprocess(make_bm(seed=5),
                            PreprocessPlan(pattern=PATTERN, max_iter=3),
                            cache=cache)
        shard_result(result, n_shards=2, cache=cache)
        shards = shard_result(result, n_shards=2, cache=cache)
        assert all(spec.cached for spec in shards.specs)
        metrics = MetricsRegistry()
        with ShardRouter(shards, executor="process", cache=cache,
                         metrics=metrics) as router:
            x = int_features(result.operand.shape[1], seed=9)
            session = ServingSession.from_result(result)
            assert np.array_equal(router.spmm(x), session.spmm(x))
        text = metrics.to_prometheus()
        assert 'procshard_worker_attach_total{shard="0"} 1.0' in text
        assert 'procshard_worker_attach_total{shard="1"} 1.0' in text

    def test_sigkill_then_restart_reattaches_from_cache(self, tmp_path):
        # A killed worker's replacement re-attaches the cache-loaded shard
        # operand (forked again from this process) and serves the same bits.
        cache = ArtifactCache(tmp_path)
        result = preprocess(make_bm(seed=6),
                            PreprocessPlan(pattern=PATTERN, max_iter=3),
                            cache=cache)
        shard_result(result, n_shards=2, cache=cache)
        shards = shard_result(result, n_shards=2, cache=cache)
        assert shards.specs[0].cached
        worker = ProcessShardWorker(0, 0, shards.operands[0])
        try:
            x = int_features(result.operand.shape[1], seed=10)
            want = worker.serve(x)
            os.kill(worker.pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashError):
                worker.serve(x)  # death detected: one fast failure
            assert not worker.alive
            got = worker.serve(x)  # next serve respawns and re-attaches
            assert worker.alive
            assert worker.stats.restarts == 1
            assert np.array_equal(got, want)
        finally:
            worker.close()

    def test_sigkill_respawn_needs_no_cache(self, tmp_path):
        # A respawned worker forks again from the router's process, which
        # still holds the shard operand: the artefact cache it came from
        # may be gone entirely.
        cache_dir = tmp_path / "cache"
        cache = ArtifactCache(cache_dir)
        bm = make_bm(seed=6)
        result = preprocess(bm, PreprocessPlan(pattern=PATTERN, max_iter=3),
                            cache=cache)
        shards = shard_result(result, n_shards=2, cache=cache)
        x = int_features(result.operand.shape[1], seed=10)
        ref = bm.to_dense().astype(np.float64) @ x
        with ShardRouter(shards, executor="process", cache=cache) as router:
            shutil.rmtree(cache_dir)
            worker = router._replicas[0][0].worker
            os.kill(worker.pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashError):
                router.spmm(x)  # no spare replica: the death surfaces once
            assert np.array_equal(router.spmm(x), ref)  # respawned
            assert worker.alive
            assert worker.stats.restarts == 1

    def test_crash_loop_cap_surfaces_with_context(self, hybrid_result):
        worker = ProcessShardWorker(
            3, 0, hybrid_result.operand,
            supervision=SupervisionPolicy(max_restarts=1, restart_window=60.0))
        try:
            x = int_features(hybrid_result.operand.shape[1])
            # One kill -> detect -> respawn cycle consumes the whole window.
            os.kill(worker.pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashError):
                worker.serve(x)
            worker.serve(x)  # heals: 1 restart recorded
            os.kill(worker.pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashError):
                worker.serve(x)
            with pytest.raises(WorkerCrashError) as err:
                worker.serve(x)  # the respawn would breach the cap
            assert err.value.context.get("crash_loop") is True
            assert worker.crash_looping
        finally:
            worker.close()


class TestErrorsAndTimeouts:
    def test_rebuild_taxonomy_error(self):
        exc = _rebuild_error(
            b'{"type": "BackendExecutionError", "message": "boom",'
            b' "context": {"backend": "hybrid"}}', 2, 1)
        assert isinstance(exc, PipelineError)
        assert exc.context["backend"] == "hybrid"
        assert exc.context["worker_shard"] == 2
        assert exc.context["worker_replica"] == 1

    def test_rebuild_builtin_error(self):
        exc = _rebuild_error(b'{"type": "ValueError", "message": "bad"}', 0, 0)
        assert isinstance(exc, ValueError)

    def test_rebuild_unknown_and_junk_payloads(self):
        exc = _rebuild_error(b'{"type": "NoSuchError", "message": "x"}', 0, 0)
        assert isinstance(exc, PipelineError)
        exc = _rebuild_error(b"not json at all", 0, 0)
        assert isinstance(exc, PipelineError)

    def test_stall_past_job_timeout_kills_and_self_heals(
            self, hybrid_result, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SHARD_SLOW_SECONDS", "5.0")
        operand = hybrid_result.operand
        worker = ProcessShardWorker(
            0, 0, operand, supervision=SupervisionPolicy(job_timeout=0.25))
        try:
            x = int_features(operand.shape[1])
            first_pid = worker.pid
            t0 = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                worker.serve(x, action="stall")
            assert time.monotonic() - t0 < 2.0  # bounded, not a 5s hang
            assert worker.stats.timeouts == 1
            out = worker.serve(x)  # respawned worker answers clean
            assert worker.pid != first_pid
            session = ServingSession(operand, None)
            assert np.array_equal(out, session.spmm(x))
        finally:
            worker.close()


class TestLeaks:
    def test_close_unlinks_ring_segment(self, hybrid_result):
        worker = ProcessShardWorker(0, 0, hybrid_result.operand)
        name = worker._seg.name
        assert name in live_segments()
        worker.close()
        assert name not in live_segments()
        assert not os.path.exists(f"/dev/shm/{name}")

    def test_no_segments_survive_router_close(self, hybrid_result):
        before = set(live_segments())
        shards = shard_result(hybrid_result, n_shards=2)
        router = ShardRouter(shards, executor="process", replicas=2)
        assert len(set(live_segments()) - before) == 4
        router.close()
        assert set(live_segments()) == before
