"""Seeded chaos corpus: the serving stack's invariants under any schedule.

Each seed draws one :class:`ChaosSchedule` — kernel failures, cache
corruptions, worker crash/exit/hang directives, shared-memory and batch
faults — and the suite checks the :class:`ChaosInvariants` that must hold
under *any* schedule: every submitted request resolves (bit-identical or a
taxonomy error, never a hang), health converges once faults stop, and no
worker processes or shared-memory segments leak.

A chaos failure is replayed by re-running its seed; the per-seed invariant
reports are written to ``$REPRO_CHAOS_REPORT`` for the CI artifact.
"""

import json
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import BitMatrix, VNMPattern
from repro.obs import MetricsRegistry
from repro.pipeline import (
    AdmissionPolicy,
    ArtifactCache,
    BreakerConfig,
    ChaosInvariants,
    ChaosSchedule,
    PipelineError,
    PreprocessPlan,
    RetryPolicy,
    ServingSession,
    breaker_scope,
    inject,
    preprocess,
)
from repro.pipeline import guard

pytestmark = pytest.mark.chaos

PATTERN = VNMPattern(1, 2, 4)
FAST = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.004, jitter=0.0)

# The fixed replay corpus.  Chosen (from the deterministic draw) to cover
# the fault space: seed 5 scripts no kernel faults at all, 8 hammers the
# primary backend past the breaker threshold, 13 is a light single-backend
# blip, and 0/2/3 mix cache corruption with batch crashes and worker
# raise/exit/hang directives.
SERVE_SEEDS = (0, 1, 2, 3, 5, 8, 13)
WORKER_SEEDS = (2, 3, 5)

_REPORTS: list[dict] = []


@pytest.fixture(scope="module", autouse=True)
def chaos_report():
    """Write the corpus invariant report where CI can pick it up."""
    yield
    path = os.environ.get("REPRO_CHAOS_REPORT")
    if path and _REPORTS:
        payload = {
            "ok": all(entry["report"]["ok"] for entry in _REPORTS),
            "seeds": _REPORTS,
        }
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def make_bm(seed=0, n=48, density=0.06):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) < density
    a = (a | a.T).astype(np.uint8)
    np.fill_diagonal(a, 0)
    return BitMatrix.from_dense(a)


def int_features(n, h=6, seed=0):
    return np.random.default_rng(seed).integers(0, 1 << 10, size=(n, h)).astype(np.float64)


def record(seed, phase, schedule, inv):
    _REPORTS.append({
        "seed": seed,
        "phase": phase,
        "schedule": schedule.describe(),
        "report": inv.report(),
    })
    assert inv.ok, inv.violations


class TestScheduleDeterminism:
    def test_same_seed_same_schedule(self):
        a = ChaosSchedule.draw(7, n_jobs=4).describe()
        b = ChaosSchedule.draw(7, n_jobs=4).describe()
        assert a == b

    def test_seeds_differ(self):
        draws = [ChaosSchedule.draw(s, n_jobs=4).describe() for s in SERVE_SEEDS]
        assert len({json.dumps(d, sort_keys=True) for d in draws}) == len(draws)

    def test_dense_is_never_scripted(self):
        # The terminal fallback rung must stay healthy or "every request
        # resolves" is unsatisfiable.
        for seed in range(50):
            plan = ChaosSchedule.draw(seed, backends=("hybrid", "dense", "csr"))
            assert "dense" not in plan.kernel_failures


class TestServingChaos:
    @pytest.mark.parametrize("seed", SERVE_SEEDS)
    def test_invariants_hold(self, seed, tmp_path):
        from repro.perf.batching import BatchPolicy
        from repro.perf.shm import live_segments

        schedule = ChaosSchedule.draw(seed)
        # describe() snapshots are taken inside record() *after* the run,
        # when counts are consumed — keep the scripted view for the report.
        scripted = ChaosSchedule.draw(seed)
        inv = ChaosInvariants()
        metrics = MetricsRegistry()
        cache = ArtifactCache(tmp_path / "cache", metrics=metrics)
        bm = make_bm(seed=seed)
        plan = PreprocessPlan(pattern=PATTERN)
        # Warm the artefact cache outside injection so the chaos run's
        # preprocess exercises the corrupted-read → quarantine → rebuild
        # path rather than a cold miss.
        preprocess(bm, plan, cache=cache)

        config = BreakerConfig(failure_threshold=2, cooldown=0.02)
        with breaker_scope(config, metrics=metrics):
            with inject(schedule):
                result = preprocess(bm, plan, cache=cache)
                session = ServingSession.from_result(
                    result,
                    retry_policy=FAST,
                    metrics=metrics,
                    batch_policy=BatchPolicy(max_delay=30.0, max_requests=4),
                    admission=AdmissionPolicy(max_queue_depth=16),
                )
                ref = bm.to_dense().astype(np.float64)
                xs = [int_features(bm.n_cols, seed=100 + i) for i in range(6)]
                futures = [(x, session.submit(x)) for x in xs]
                session.flush()
                for i, (x, fut) in enumerate(futures):
                    inv.observe_future(fut, ref @ x, timeout=30.0,
                                       label=f"seed{seed}/req{i}")

            # -- convergence: faults stopped, the stack must recover -------
            time.sleep(config.cooldown + 0.01)
            out = session.spmm(xs[0])
            inv.require(np.array_equal(out, ref @ xs[0]),
                        f"seed{seed}: post-fault request not bit-identical")
            board = guard.active_breakers()
            snapshot = board.snapshot()
            inv.require(
                all(not board.would_reject(name) for name in snapshot),
                f"seed{seed}: breaker still rejecting after cooldown "
                f"({snapshot})")
            health = session.aggregator().health()
            inv.require("breakers" in health,
                        f"seed{seed}: health() lost the breaker panel")
            session.close(drain=True)

        inv.require(live_segments() == [],
                    f"seed{seed}: shared-memory segments leaked")
        record(seed, "serving", scripted, inv)


class TestWorkerChaos:
    @pytest.mark.parametrize("seed", WORKER_SEEDS)
    def test_invariants_hold(self, seed, monkeypatch):
        from repro.parallel import reorder_many
        from repro.perf.pool import SupervisionPolicy, WorkerPool
        from repro.perf.shm import live_segments

        # Bound the injected hang itself so a watchdog regression cannot
        # wedge the suite: the worker self-terminates after 10s regardless.
        monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "10")
        n_jobs = 4
        schedule = ChaosSchedule.draw(seed, n_jobs=n_jobs)
        scripted = ChaosSchedule.draw(seed, n_jobs=n_jobs)
        inv = ChaosInvariants()
        mats = [make_bm(seed=seed * 100 + i, n=24) for i in range(n_jobs)]
        baseline = {p.pid for p in multiprocessing.active_children()}

        policy = SupervisionPolicy(job_timeout=0.75)
        with WorkerPool(2, supervision=policy) as pool:
            with inject(schedule):
                out = reorder_many(
                    mats, PATTERN, pool=pool, chunk_size=1,
                    return_exceptions=True, max_pool_restarts=n_jobs * 2,
                )
        inv.require(len(out) == n_jobs,
                    f"seed{seed}: {len(out)} results for {n_jobs} jobs")
        for i, res in enumerate(out):
            if isinstance(res, BaseException):
                # A job may fail, but only with a classified error.
                inv.require(
                    isinstance(res, PipelineError),
                    f"seed{seed}/job{i}: non-taxonomy error "
                    f"{type(res).__name__}: {res}")
            else:
                inv.require(getattr(res, "index", None) == i,
                            f"seed{seed}/job{i}: summary out of order")

        # -- leaks: the pool is closed; its workers and segments must go --
        inv.require(live_segments() == [],
                    f"seed{seed}: shared-memory segments leaked")
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            leaked = {p.pid for p in multiprocessing.active_children()} - baseline
            if not leaked:
                break
            time.sleep(0.05)
        inv.require(not leaked, f"seed{seed}: worker processes leaked {leaked}")
        record(seed, "worker", scripted, inv)


# Shard chaos corpus: drawn at n_shards=4 to cover the space — seed 5
# scripts kill+slow with no kernel faults (pure router recovery), 7 piles
# kills on two shards plus a slow one under heavy kernel faulting, 14 slows
# a majority of shards, and 2 is a light single-slow blip.
SHARD_SEEDS = (2, 5, 7, 14)


class TestShardChaos:
    """The fan-out router's invariants under shard-kill / slow-shard faults.

    With ``replicas=2`` a single scripted kill can never take a shard below
    one live replica, so *every* request must still resolve bit-identically
    (the replica-failover invariant); a slow shard may cost latency but
    never correctness while the deadline is generous, and a tight deadline
    fails the request with :class:`DeadlineExceeded` — taxonomy, not a
    hang (the deadline invariant).
    """

    @pytest.mark.parametrize("seed", SHARD_SEEDS)
    def test_invariants_hold(self, seed, monkeypatch):
        from repro.pipeline import ShardRouter, shard_result

        # Keep the injected stall cheap so the corpus stays fast; the
        # generous router deadline means a slow shard is latency, not error.
        monkeypatch.setenv("REPRO_FAULT_SHARD_SLOW_SECONDS", "0.1")
        n_shards = 4
        schedule = ChaosSchedule.draw(seed, n_shards=n_shards)
        scripted = ChaosSchedule.draw(seed, n_shards=n_shards)
        inv = ChaosInvariants()
        metrics = MetricsRegistry()
        bm = make_bm(seed=seed)
        result = preprocess(bm, PreprocessPlan(pattern=PATTERN))
        shards = shard_result(result, n_shards=n_shards)
        ref = bm.to_dense().astype(np.float64)
        kills = sum(1 for a in scripted.shard_faults.values() if a == "kill")

        config = BreakerConfig(failure_threshold=2, cooldown=0.02)
        with breaker_scope(config, metrics=metrics):
            with ShardRouter(shards, metrics=metrics, replicas=2,
                             retry_policy=FAST, deadline=30.0) as router:
                with inject(schedule):
                    xs = [int_features(bm.n_cols, seed=200 + i)
                          for i in range(6)]
                    futures = [(x, router.submit(x)) for x in xs]
                    for i, (x, fut) in enumerate(futures):
                        outcome = inv.observe_future(
                            fut, ref @ x, timeout=30.0,
                            label=f"seed{seed}/shardreq{i}")
                        # Failover must absorb every kill: with a spare
                        # replica per shard no request may fail at all.
                        inv.require(
                            outcome.startswith("exact")
                            or outcome.startswith("taxonomy"),
                            f"seed{seed}/shardreq{i}: outcome {outcome}")
                        inv.require(
                            outcome == "exact",
                            f"seed{seed}/shardreq{i}: request failed "
                            f"({outcome}) despite a spare replica per shard")

                # -- failover accounting: every kill was stepped over ------
                load = router.shard_load()
                inv.require(
                    all(entry["alive"] >= 1 for entry in load),
                    f"seed{seed}: a shard lost all replicas ({load})")
                inv.require(
                    router.n_failovers >= kills,
                    f"seed{seed}: {router.n_failovers} failover(s) for "
                    f"{kills} scripted kill(s)")

                # -- convergence: faults consumed, serving is exact again --
                time.sleep(config.cooldown + 0.01)
                out = router.spmm(xs[0])
                inv.require(
                    np.array_equal(out, ref @ xs[0]),
                    f"seed{seed}: post-fault request not bit-identical")
                health = router.health()
                inv.require(
                    health["healthy"] and not health["degraded"],
                    f"seed{seed}: router still degraded after faults "
                    f"stopped ({health['unhealthy_shards']})")
        record(seed, "shard", scripted, inv)

    def test_scripted_deadline_and_failover(self, monkeypatch):
        """Deterministic worst case: a killed shard *and* a slow shard.

        Under a tight deadline the slow shard fails the request with
        :class:`~repro.pipeline.resilience.DeadlineExceeded` (bounded, not
        a hang); once the faults are consumed the router serves exactly,
        the kill absorbed by the spare replica.
        """
        from repro.pipeline import DeadlineExceeded, ShardRouter, shard_result

        monkeypatch.setenv("REPRO_FAULT_SHARD_SLOW_SECONDS", "0.5")
        inv = ChaosInvariants()
        schedule = ChaosSchedule(seed=999)
        schedule.shard_faults = {0: "kill", 1: "slow"}
        scripted = ChaosSchedule(seed=999)
        scripted.shard_faults = {0: "kill", 1: "slow"}

        bm = make_bm(seed=21)
        result = preprocess(bm, PreprocessPlan(pattern=PATTERN))
        ref = bm.to_dense().astype(np.float64)
        x = int_features(bm.n_cols, seed=300)
        with ShardRouter(shard_result(result, n_shards=4),
                         replicas=2, retry_policy=FAST) as router:
            with inject(schedule):
                t0 = time.monotonic()
                try:
                    router.spmm(x, deadline=0.05)
                except DeadlineExceeded:
                    inv.require(time.monotonic() - t0 < 0.45,
                                "deadline did not bound the wait")
                else:
                    inv.require(False, "slow shard beat a 50ms deadline")
            # Faults consumed: the same request now merges exactly, and the
            # killed replica was stepped over without losing the shard.
            inv.require(np.array_equal(router.spmm(x), ref @ x),
                        "post-fault request not bit-identical")
            inv.require(router.n_failovers >= 1, "kill was not failed over")
            inv.require(router.shard_load()[0]["alive"] == 1,
                        "killed replica still counted alive")
            inv.require(router.health()["healthy"],
                        "router unhealthy with every shard alive")
        record(999, "shard-scripted", scripted, inv)


# Device corpus: seed 5 scripts no kernel faults (pure clock accounting),
# 8 hammers the primary backend past the breaker threshold, 0 and 3 mix
# faults across several ladder rungs.
DEVICE_SEEDS = (0, 3, 5, 8)


class TestDeviceChaos:
    """The device-attached path under kernel faults.

    Every shard charges a pinned :class:`~repro.sptc.EmulatedDevice`, which
    observes the clock and executes through the engine.  Faults must still
    resolve each request bit-identically or as a taxonomy error, never a
    hang, and every launch must land on the shard's virtual clock under a
    registered kernel name.
    """

    @pytest.mark.parametrize("seed", DEVICE_SEEDS)
    def test_invariants_hold(self, seed):
        from repro.pipeline import ShardRouter, registry, shard_result
        from repro.sptc import EmulatedDevice

        n_shards = 2
        schedule = ChaosSchedule.draw(seed)
        scripted = ChaosSchedule.draw(seed)
        inv = ChaosInvariants()
        bm = make_bm(seed=seed)
        result = preprocess(bm, PreprocessPlan(pattern=PATTERN))
        devices = [EmulatedDevice(device_id=i) for i in range(n_shards)]
        ref = bm.to_dense().astype(np.float64)
        kernel_names = {registry.get_backend(name).kernel_name
                        for name in registry.available_backends()}

        config = BreakerConfig(failure_threshold=2, cooldown=0.02)
        with breaker_scope(config):
            with ShardRouter(shard_result(result, n_shards=n_shards),
                             devices=devices, retry_policy=FAST,
                             deadline=30.0) as router:
                with inject(schedule):
                    xs = [int_features(bm.n_cols, seed=400 + i) for i in range(6)]
                    futures = [(x, router.submit(x)) for x in xs]
                    for i, (x, fut) in enumerate(futures):
                        inv.observe_future(fut, ref @ x, timeout=30.0,
                                           label=f"seed{seed}/devreq{i}")

                time.sleep(config.cooldown + 0.01)
                inv.require(np.array_equal(router.spmm(xs[0]), ref @ xs[0]),
                            f"seed{seed}: post-fault request not bit-identical")
        for dev in devices:
            inv.require(dev.records and dev.clock > 0.0,
                        f"seed{seed}: device {dev.device_id} charged nothing")
            unknown = {r.name for r in dev.records} - kernel_names
            inv.require(not unknown,
                        f"seed{seed}: device {dev.device_id} recorded "
                        f"unregistered kernels {unknown}")
        record(seed, "device", scripted, inv)


PROC_SEEDS = (2, 5, 7, 14)


class TestProcShardChaos:
    """Process-executor invariants: real SIGKILLs, stalls, and no leaks.

    The thread-mode shard corpus injects *simulated* kills; here the
    directives cross the process boundary for real — ``sigkill`` delivers
    ``SIGKILL`` to a worker mid-request, ``stall`` wedges one inside its
    serve loop.  With ``replicas=2`` every request must still resolve
    bit-identically via replica failover, peers' in-flight requests must
    be untouched, the killed worker must self-heal, and the shared-memory
    mount must be clean after ``close()``.
    """

    @pytest.mark.parametrize("seed", PROC_SEEDS)
    def test_invariants_hold(self, seed, monkeypatch):
        from repro.perf.shm import live_segments
        from repro.pipeline import ShardRouter, shard_result

        monkeypatch.setenv("REPRO_FAULT_SHARD_SLOW_SECONDS", "0.1")
        n_shards = 4
        schedule = ChaosSchedule.draw(seed, n_proc_shards=n_shards)
        scripted = ChaosSchedule.draw(seed, n_proc_shards=n_shards)
        inv = ChaosInvariants()
        bm = make_bm(seed=seed)
        result = preprocess(bm, PreprocessPlan(pattern=PATTERN))
        ref = bm.to_dense().astype(np.float64)
        sigkills = sum(1 for a in scripted.proc_faults.values()
                       if a == "sigkill")
        segments_before = set(live_segments())

        with ShardRouter(shard_result(result, n_shards=n_shards),
                         executor="process", replicas=2,
                         retry_policy=FAST, deadline=30.0) as router:
            with inject(schedule):
                xs = [int_features(bm.n_cols, seed=400 + i)
                      for i in range(6)]
                futures = [(x, router.submit(x)) for x in xs]
                for i, (x, fut) in enumerate(futures):
                    outcome = inv.observe_future(
                        fut, ref @ x, timeout=30.0,
                        label=f"seed{seed}/procreq{i}")
                    # A spare replica per shard absorbs every real kill:
                    # no request may fail, let alone hang.
                    inv.require(
                        outcome == "exact",
                        f"seed{seed}/procreq{i}: request failed "
                        f"({outcome}) despite a spare replica per shard")

            inv.require(
                router.n_failovers >= sigkills,
                f"seed{seed}: {router.n_failovers} failover(s) for "
                f"{sigkills} scripted sigkill(s)")

            # Self-heal: killed workers respawn on their next pick, so
            # after another round every replica is alive again.
            for i in range(2):
                out = router.spmm(int_features(bm.n_cols, seed=500 + i))
            inv.require(
                all(entry["alive"] == 2 for entry in router.shard_load()),
                f"seed{seed}: a killed worker did not self-heal "
                f"({router.shard_load()})")
            out = router.spmm(xs[0])
            inv.require(
                np.array_equal(out, ref @ xs[0]),
                f"seed{seed}: post-fault request not bit-identical")
            health = router.health()
            inv.require(
                health["healthy"] and not health["degraded"],
                f"seed{seed}: router degraded after faults stopped")
        inv.require(
            set(live_segments()) == segments_before,
            f"seed{seed}: shm segments leaked past close() "
            f"({sorted(set(live_segments()) - segments_before)})")
        record(seed, "procshard", scripted, inv)

    def test_sigkill_mid_request_peers_unaffected(self):
        """The acceptance scenario, deterministically scripted.

        One shard's worker is SIGKILLed *mid-request* while every shard
        has sub-requests in flight: the killed sub-request fails over to
        the spare replica within the deadline, the peers' in-flight
        sub-requests complete untouched, and the mount is clean after
        ``close()``.
        """
        from repro.perf.shm import live_segments
        from repro.pipeline import ShardRouter, shard_result

        inv = ChaosInvariants()
        schedule = ChaosSchedule(seed=998)
        schedule.proc_faults = {0: "sigkill"}
        scripted = ChaosSchedule(seed=998)
        scripted.proc_faults = {0: "sigkill"}

        bm = make_bm(seed=23)
        result = preprocess(bm, PreprocessPlan(pattern=PATTERN))
        ref = bm.to_dense().astype(np.float64)
        segments_before = set(live_segments())
        with ShardRouter(shard_result(result, n_shards=4),
                         executor="process", replicas=2) as router:
            killed_pids = [rep.worker.pid
                           for rep in router._replicas[0]]
            with inject(schedule):
                xs = [int_features(bm.n_cols, seed=600 + i)
                      for i in range(4)]
                t0 = time.monotonic()
                futures = [(x, router.submit(x)) for x in xs]
                for i, (x, fut) in enumerate(futures):
                    outcome = inv.observe_future(
                        fut, ref @ x, timeout=10.0, label=f"sigkill/req{i}")
                    inv.require(outcome == "exact",
                                f"sigkill/req{i}: outcome {outcome}")
                inv.require(time.monotonic() - t0 < 10.0,
                            "failover did not resolve within the deadline")
            inv.require(router.n_failovers == 1,
                        f"expected exactly one failover, saw "
                        f"{router.n_failovers}")
            # The real kill reached a real process: one of shard 0's
            # original worker pids is gone (its replica respawns lazily).
            gone = [pid for pid in killed_pids if not _pid_alive(pid)]
            inv.require(len(gone) >= 1, "no worker process was killed")
        inv.require(set(live_segments()) == segments_before,
                    "shm segments leaked past close()")
        record(998, "procshard-scripted", scripted, inv)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover
        return True
    return True
