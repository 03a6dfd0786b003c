"""Sharded serving fabric: bit-identity, cache reuse, failover, health.

The central contract: the fan-out/merge router's output is **bit-identical**
to the single-session path (and, for exact backends, to the dense graph
reference) for every backend × shard-count combination — sharding changes
which session computes a row, never the row's own summation order.  Integer-
valued features make every partial sum exact, so the checks are
``np.array_equal``, not ``allclose``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BitMatrix, VNMPattern
from repro.obs import MetricsRegistry
from repro.pipeline import (
    AdmissionPolicy,
    ArtifactCache,
    DeadlineExceeded,
    FaultPlan,
    OverloadError,
    PreprocessPlan,
    ServingSession,
    ShardRouter,
    build_shards,
    preprocess,
    shard_cache_key,
    shard_result,
)
from repro.pipeline.faults import inject
from repro.pipeline.sharded import split_operand_rows

PATTERN = VNMPattern(1, 2, 4)

# Every compressible backend the registry serves; the equivalence matrix
# runs all of them so a backend whose shard slices decompress differently
# can never hide.
BACKENDS = ["hybrid", "vnm", "nm", "csr", "bsr", "sell", "tcgnn", "dense"]


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


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_matches_single_session(self, backend, n_shards):
        bm = make_bm(seed=3, n=40)
        result = preprocess(
            bm, PreprocessPlan(pattern=PATTERN, backend=backend, max_iter=3))
        session = ServingSession.from_result(result)
        shards = shard_result(result, n_shards=n_shards)
        x = int_features(40, h=5, seed=7)
        with ShardRouter(shards) as router:
            out = router.spmm(x)
        # The single session and the router serve the same operand content:
        # bit-identical for every backend, including lossy compressions.
        assert np.array_equal(out, session.spmm(x))

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4])
    def test_matches_dense_reference(self, hybrid_result, n_shards):
        shards = shard_result(hybrid_result, n_shards=n_shards)
        bm = make_bm()
        x = int_features(bm.shape[0], h=6, seed=1)
        ref = bm.to_dense().astype(np.float64) @ x
        with ShardRouter(shards) as router:
            assert np.array_equal(router.spmm(x), ref)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_device_attached_matches_dense_reference(self, hybrid_result,
                                                     executor, n_shards):
        from repro.sptc.device import EmulatedDevice

        bm = make_bm()
        x = int_features(bm.shape[0], h=6, seed=4)
        ref = bm.to_dense().astype(np.float64) @ x
        devices = [EmulatedDevice(device_id=i) for i in range(n_shards)]
        with ShardRouter(shard_result(hybrid_result, n_shards=n_shards),
                         devices=devices, executor=executor) as router:
            assert np.array_equal(router.spmm(x), ref)
        if executor == "thread":  # process workers charge their own copies
            assert all(dev.records for dev in devices)

    def test_async_and_submit_paths_identical(self, hybrid_result):
        import asyncio

        shards = shard_result(hybrid_result, n_shards=3)
        x = int_features(48, h=4, seed=2)
        ref = make_bm().to_dense().astype(np.float64) @ x
        with ShardRouter(shards, replicas=2) as router:
            assert np.array_equal(asyncio.run(router.aspmm(x)), ref)
            futures = [router.submit(x) for _ in range(6)]
            assert all(np.array_equal(f.result(), ref) for f in futures)

    def test_vector_request(self, hybrid_result):
        shards = shard_result(hybrid_result, n_shards=2)
        x = int_features(48, h=1, seed=4)[:, 0]
        with ShardRouter(shards) as router:
            out = router.spmm(x)
        assert out.shape == (48,)
        assert np.array_equal(out, make_bm().to_dense().astype(np.float64) @ x)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=8, max_value=56),
        n_shards=st.integers(min_value=1, max_value=5),
        v=st.sampled_from([1, 2]),
    )
    def test_partition_boundaries_never_leak(self, seed, n, n_shards, v):
        """Hypothesis over (n, n_shards, v): any v-aligned cut merges exact."""
        pattern = VNMPattern(v, 2, 4)
        n_tiles = -(-n // v)
        if n_shards > n_tiles:
            n_shards = n_tiles
        bm = make_bm(seed=seed, n=n, density=0.12)
        result = preprocess(
            bm, PreprocessPlan(pattern=pattern, max_iter=2))
        shards = shard_result(result, n_shards=n_shards)
        # Every interior boundary lands on a tile edge.
        for spec in shards.specs[:-1]:
            assert spec.stop % v == 0
        x = int_features(n, h=3, seed=seed + 1)
        ref = bm.to_dense().astype(np.float64) @ x
        with ShardRouter(shards) as router:
            assert np.array_equal(router.spmm(x), ref)


class TestShardBuild:
    def test_slices_cover_operand_exactly(self, hybrid_result):
        shards = shard_result(hybrid_result, n_shards=3)
        from repro.pipeline import registry

        dense = registry.densify(hybrid_result.operand)
        for spec, operand in zip(shards.specs, shards.operands):
            assert np.array_equal(registry.densify(operand),
                                  dense[spec.start:spec.stop])

    def test_split_rows_on_csr_direct(self):
        from repro.sptc.csr import CSRMatrix

        rng = np.random.default_rng(5)
        dense = (rng.random((20, 20)) < 0.2) * rng.random((20, 20))
        csr = CSRMatrix.from_dense(dense)
        parts = shard_result(
            preprocess(make_bm(n=20, seed=5),
                       PreprocessPlan(pattern=PATTERN, backend="csr",
                                      max_iter=1)),
            n_shards=2).specs
        slices = split_operand_rows(csr, parts)
        stitched = np.vstack([s.to_dense() for s in slices])
        assert np.array_equal(stitched, dense)

    def test_cache_round_trip(self, tmp_path):
        bm = make_bm(seed=9)
        plan = PreprocessPlan(pattern=PATTERN, max_iter=3)
        cache = ArtifactCache(tmp_path)
        first = build_shards(bm, plan, n_shards=4, cache=cache)
        assert not any(s.cached for s in first.specs)
        assert all(s.cache_key for s in first.specs)
        # Shard artefacts and plan sidecars land next to the base artefact.
        second = build_shards(bm, plan, n_shards=4, cache=cache)
        assert all(s.cached for s in second.specs)
        assert ([s.cache_key for s in second.specs]
                == [s.cache_key for s in first.specs])
        x = int_features(48, seed=3)
        ref = bm.to_dense().astype(np.float64) @ x
        with ShardRouter(second) as router:
            assert np.array_equal(router.spmm(x), ref)

    def test_shard_cache_keys_are_distinct(self):
        base = "a" * 32
        keys = {shard_cache_key(base, i, 4, align=2) for i in range(4)}
        keys |= {shard_cache_key(base, 0, 2, align=2),
                 shard_cache_key(base, 0, 4, align=4)}
        assert len(keys) == 6  # index, geometry, and align all separate keys
        assert shard_cache_key(base, 1, 4) == shard_cache_key(base, 1, 4)
        assert all(len(k) == 32 for k in keys)

    def test_plan_sidecars_adopted(self, tmp_path):
        bm = make_bm(seed=11)
        plan = PreprocessPlan(pattern=PATTERN, max_iter=3)
        cache = ArtifactCache(tmp_path)
        build_shards(bm, plan, n_shards=2, cache=cache)
        reloaded = build_shards(bm, plan, n_shards=2, cache=cache)
        # Cached shards come back with their execution plans attached.
        assert all(p is not None for p in reloaded.plans)


class TestReplicasAndFailover:
    def test_injected_kill_fails_over(self, hybrid_result):
        x = int_features(48, seed=6)
        ref = make_bm().to_dense().astype(np.float64) @ x
        shards = shard_result(hybrid_result, n_shards=2)
        with ShardRouter(shards, replicas=2) as router:
            with inject(FaultPlan(shard_faults={0: "kill"})):
                assert np.array_equal(router.spmm(x), ref)
            assert router.n_failovers == 1
            load = router.shard_load()
            assert load[0]["alive"] == 1  # one replica died
            assert load[1]["alive"] == 2

    def test_kill_without_replica_surfaces_taxonomy(self, hybrid_result):
        from repro.pipeline import PipelineError, WorkerCrashError

        shards = shard_result(hybrid_result, n_shards=2)
        with ShardRouter(shards) as router:
            with inject(FaultPlan(shard_faults={1: "kill"})):
                with pytest.raises(WorkerCrashError):
                    router.spmm(int_features(48))
            # The shard stays dead: later requests fail fast, no hang.
            with pytest.raises(PipelineError):
                router.spmm(int_features(48))

    def test_replicate_adds_capacity(self, hybrid_result):
        shards = shard_result(hybrid_result, n_shards=2)
        with ShardRouter(shards) as router:
            assert router.replicate(1) == 2
            assert router.shard_load()[1]["replicas"] == 2
            x = int_features(48, seed=8)
            ref = make_bm().to_dense().astype(np.float64) @ x
            assert np.array_equal(router.spmm(x), ref)

    def test_maybe_replicate_follows_load(self, hybrid_result):
        shards = shard_result(hybrid_result, n_shards=3)
        with ShardRouter(shards) as router:
            assert router.maybe_replicate() is None  # no traffic yet
            # Skew the live load hard onto shard 2.
            router._replicas[2][0].served = 50
            assert router.maybe_replicate(factor=1.5) == 2
            assert router.shard_load()[2]["replicas"] == 2
            # Capped: no replication beyond max_replicas.
            assert router.maybe_replicate(factor=1.5, max_replicas=2) is None

    def test_rebalance_splits_hottest_and_stays_exact(self, hybrid_result):
        x = int_features(48, seed=9)
        ref = make_bm().to_dense().astype(np.float64) @ x
        shards = shard_result(hybrid_result, n_shards=2)
        with ShardRouter(shards, replicas=2) as router:
            router._replicas[0][0].served = 10
            split = router.rebalance()
            assert split == (0, 1)
            assert router.n_shards == 3
            # Specs re-indexed, contiguous, exhaustive.
            specs = router.shards.specs
            assert [s.index for s in specs] == [0, 1, 2]
            assert specs[0].start == 0 and specs[-1].stop == 48
            for prev, nxt in zip(specs, specs[1:]):
                assert prev.stop == nxt.start
            assert np.array_equal(router.spmm(x), ref)


class TestAdmissionAndDeadline:
    def test_queue_full_sheds(self, hybrid_result):
        shards = shard_result(hybrid_result, n_shards=2)
        with ShardRouter(shards,
                         admission=AdmissionPolicy(max_queue_depth=2)) as router:
            for rep in router._replicas[0]:
                rep.in_flight = 5  # simulate a backed-up shard lane
            with pytest.raises(OverloadError) as err:
                router.spmm(int_features(48))
            assert err.value.context["reason"] == "queue_full"
            assert router.n_shed == 1

    def test_deadline_bounds_slow_shard(self, hybrid_result, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SHARD_SLOW_SECONDS", "0.5")
        shards = shard_result(hybrid_result, n_shards=2)
        with ShardRouter(shards) as router:
            with inject(FaultPlan(shard_faults={1: "slow"})):
                with pytest.raises(DeadlineExceeded):
                    router.spmm(int_features(48), deadline=0.05)
            # The straggler drains in the background; the router still serves.
            x = int_features(48, seed=10)
            ref = make_bm().to_dense().astype(np.float64) @ x
            assert np.array_equal(router.spmm(x), ref)

    def test_closed_router_rejects(self, hybrid_result):
        shards = shard_result(hybrid_result, n_shards=2)
        router = ShardRouter(shards)
        router.close()
        with pytest.raises(OverloadError) as err:
            router.submit(int_features(48))
        assert err.value.context["reason"] == "closed"


class TestHealthAndObservability:
    def test_minority_dead_is_degraded_not_unhealthy(self, hybrid_result):
        shards = shard_result(hybrid_result, n_shards=4)
        with ShardRouter(shards) as router:
            for rep in router._replicas[3]:
                rep.alive = False
            health = router.health()
            assert health["healthy"] is True
            assert health["degraded"] is True
            assert health["unhealthy_shards"] == [3]
            assert health["shards"]["3"]["healthy"] is False

    def test_majority_dead_is_unhealthy(self, hybrid_result):
        shards = shard_result(hybrid_result, n_shards=4)
        with ShardRouter(shards) as router:
            for i in (0, 1, 2):
                for rep in router._replicas[i]:
                    rep.alive = False
            health = router.health()
            assert health["healthy"] is False
            assert health["unhealthy_shards"] == [0, 1, 2]

    def test_session_health_merges_router(self, hybrid_result):
        from repro.obs import session_health

        shards = shard_result(hybrid_result, n_shards=3)
        with ShardRouter(shards) as router:
            verdict = session_health(router=router)
            assert verdict["healthy"] is True and not verdict["degraded"]
            for rep in router._replicas[0]:
                rep.alive = False
            verdict = session_health(router=router)
            assert verdict["healthy"] is True  # minority: stay in rotation
            assert verdict["degraded"] is True
            assert verdict["unhealthy_shards"] == [0]

    def test_healthz_degraded_is_200_majority_is_503(self, hybrid_result):
        import json
        import urllib.error
        import urllib.request

        from repro.obs import MetricWindows, TelemetryServer, session_health

        metrics = MetricsRegistry()
        shards = shard_result(hybrid_result, n_shards=3)
        with ShardRouter(shards, metrics=metrics) as router:
            plane = TelemetryServer(
                metrics, port=0, windows=MetricWindows(metrics),
                health=lambda: session_health(router=router)).start()
            try:
                for rep in router._replicas[1]:
                    rep.alive = False  # 1 of 3: minority
                with urllib.request.urlopen(f"{plane.url}/healthz") as resp:
                    payload = json.load(resp)
                    assert resp.status == 200
                assert payload["degraded"] is True
                for rep in router._replicas[2]:
                    rep.alive = False  # 2 of 3: majority
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(f"{plane.url}/healthz")
                with err.value:
                    assert err.value.code == 503
            finally:
                plane.stop()

    def test_shard_labels_on_metric_series(self, hybrid_result):
        metrics = MetricsRegistry()
        shards = shard_result(hybrid_result, n_shards=2)
        with ShardRouter(shards, metrics=metrics) as router:
            router.spmm(int_features(48))
        text = metrics.to_prometheus()
        for shard in ("0", "1"):
            assert f'spmm_latency_seconds_count{{shard="{shard}"}}' in text
            assert (f'backend="hybrid",shard="{shard}"' in text
                    or f'shard="{shard}",backend="hybrid"' in text)
        assert "router_requests_total 1" in text

    def test_per_shard_windowed_latency_feeds_views(self, hybrid_result):
        from repro.obs import MetricWindows

        metrics = MetricsRegistry()
        windows = MetricWindows(metrics)
        shards = shard_result(hybrid_result, n_shards=2)
        with ShardRouter(shards, metrics=metrics, windows=windows) as router:
            for _ in range(3):
                router.spmm(int_features(48))
            view = windows.histogram_view("spmm_latency_seconds", 60.0,
                                          shard="1")
            assert view.count == 3
            assert view.quantile(0.95) > 0.0


class TestPerShardDevices:
    """``devices=`` pins each shard to its own (emulated) accelerator."""

    def test_kernels_charge_per_shard_clocks(self, hybrid_result):
        from repro.sptc.device import EmulatedDevice

        devices = [EmulatedDevice(device_id=i) for i in range(2)]
        x = int_features(48)
        with ShardRouter(shard_result(hybrid_result, n_shards=2),
                         devices=devices) as router:
            out = router.spmm(x)
        single = ServingSession.from_result(hybrid_result)
        assert np.array_equal(out, single.spmm(x))
        # Every shard served on its own clock, and each shard's clock is
        # below the whole-operand serial cost (the makespan argument).
        assert all(d.clock > 0.0 for d in devices)
        solo = EmulatedDevice(device_id=9)
        ServingSession.from_result(hybrid_result, device=solo).spmm(x)
        assert max(d.clock for d in devices) < solo.clock

    def test_replicas_share_their_shard_device(self, hybrid_result):
        from repro.sptc.device import EmulatedDevice

        devices = [EmulatedDevice(device_id=i) for i in range(2)]
        with ShardRouter(shard_result(hybrid_result, n_shards=2),
                         devices=devices, replicas=2) as router:
            router.spmm(int_features(48))
            before = [d.clock for d in devices]
            router.spmm(int_features(48, seed=1))
        # Two requests, whichever replica served them: exactly the two
        # shard clocks advanced, no hidden third device.
        assert all(d.clock > b for d, b in zip(devices, before))

    def test_length_mismatch_rejected(self, hybrid_result):
        from repro.sptc.device import EmulatedDevice

        with pytest.raises(ValueError, match="devices"):
            ShardRouter(shard_result(hybrid_result, n_shards=2),
                        devices=[EmulatedDevice()])

    def test_rebalance_inherits_parent_device(self, hybrid_result):
        from repro.sptc.device import EmulatedDevice

        devices = [EmulatedDevice(device_id=i) for i in range(2)]
        x = int_features(48)
        ref = make_bm().to_dense().astype(np.float64) @ x
        with ShardRouter(shard_result(hybrid_result, n_shards=2),
                         devices=devices) as router:
            router.spmm(x)
            assert router.rebalance() is not None
            assert np.array_equal(router.spmm(x), ref)
            # Split halves keep charging the parent shard's device: the
            # split rearranged rows, it did not conjure a new accelerator.
            assert len(router._devices) == router.n_shards
            known = [id(d) for d in devices]
            assert all(id(d) in known for d in router._devices)


class TestProcessExecutor:
    """The same fabric semantics when replicas are worker processes.

    The process executor must be observably interchangeable with the
    thread executor: same merged bits, same failover accounting, same
    rebalance behaviour — only the isolation boundary differs.
    """

    @pytest.mark.parametrize("backend", ["hybrid", "csr", "dense"])
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_matches_single_session(self, backend, n_shards):
        bm = make_bm(seed=3, n=40)
        result = preprocess(
            bm, PreprocessPlan(pattern=PATTERN, backend=backend, max_iter=3))
        session = ServingSession.from_result(result)
        x = int_features(40, h=5, seed=7)
        with ShardRouter(shard_result(result, n_shards=n_shards),
                         executor="process") as router:
            out = router.spmm(x)
        assert np.array_equal(out, session.spmm(x))
        session.close()

    def test_unknown_executor_rejected(self, hybrid_result):
        with pytest.raises(ValueError, match="executor"):
            ShardRouter(shard_result(hybrid_result, n_shards=2),
                        executor="fiber")

    def test_injected_kill_is_one_failover_then_self_heal(self, hybrid_result):
        x = int_features(48, seed=6)
        ref = make_bm().to_dense().astype(np.float64) @ x
        shards = shard_result(hybrid_result, n_shards=2)
        with ShardRouter(shards, executor="process", replicas=2) as router:
            with inject(FaultPlan(shard_faults={0: "kill"})):
                # A real SIGKILL mid-request: the spare replica absorbs it.
                assert np.array_equal(router.spmm(x), ref)
            assert router.n_failovers == 1
            # Unlike a thread-mode kill, the process replica self-heals:
            # the dead worker respawns on its next pick, so the shard is
            # back to full strength without an operator action.
            assert np.array_equal(router.spmm(x), ref)
            assert all(entry["alive"] == 2 for entry in router.shard_load())

    def test_rebalance_stays_exact_with_workers(self, hybrid_result):
        x = int_features(48, seed=2)
        ref = make_bm().to_dense().astype(np.float64) @ x
        with ShardRouter(shard_result(hybrid_result, n_shards=2),
                         executor="process") as router:
            router.spmm(x)
            assert router.rebalance() is not None
            assert router.n_shards == 3
            # Split halves have no cache key: the fresh workers fall back
            # to inheriting the in-memory operand through fork.
            for group in router._replicas:
                for rep in group:
                    assert rep.worker.attach_source in ("inherited", "cache")
            assert np.array_equal(router.spmm(x), ref)

    def test_pool_restart_reattaches_and_serves_identically(self, tmp_path):
        # The supervision machinery the workers reuse must itself keep the
        # attach lifecycle straight: after WorkerPool.restart(kill=True)
        # the fresh generation re-attaches shard artefacts from the cache
        # and a rebuilt router serves the same bits as before the kill.
        from repro.perf import WorkerPool

        bm = make_bm(seed=9)
        plan = PreprocessPlan(pattern=PATTERN, max_iter=3)
        cache = ArtifactCache(tmp_path)
        build_shards(bm, plan, n_shards=2, cache=cache)
        x = int_features(48, seed=3)
        ref = bm.to_dense().astype(np.float64) @ x

        with WorkerPool(1) as pool:
            pool.warm()
            shards = build_shards(bm, plan, n_shards=2, cache=cache)
            assert all(s.cached for s in shards.specs)
            with ShardRouter(shards, executor="process",
                             cache=cache) as router:
                want = router.spmm(x)
            assert np.array_equal(want, ref)
            pool.restart(kill=True)
            # The restarted generation (and a fresh set of shard workers)
            # must reload the same artefacts and serve the same bits.
            shards = build_shards(bm, plan, n_shards=2, cache=cache)
            with ShardRouter(shards, executor="process",
                             cache=cache) as router:
                sources = [rep.worker.attach_source
                           for group in router._replicas for rep in group]
                assert sources == ["cache", "cache"]
                assert np.array_equal(router.spmm(x), want)
