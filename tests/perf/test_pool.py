"""WorkerPool: lazy spawn, warm reuse, restart, close, and supervision."""

import os
import threading
import time

import pytest

from repro.perf.pool import PoolStats, SupervisionPolicy, WorkerPool


def _square(x):
    return x * x


def _pid():
    return os.getpid()


def _sleep_forever():
    time.sleep(60.0)


class TestLifecycle:
    def test_lazy_until_first_submit(self):
        with WorkerPool(2) as pool:
            assert not pool.alive
            assert pool.submit(_square, 7).result() == 49
            assert pool.alive
        assert not pool.alive

    def test_warm_prespawns(self):
        with WorkerPool(2) as pool:
            pool.warm()
            assert pool.alive
            assert pool.stats.spawns == 1

    def test_reuse_across_submissions_is_one_spawn(self):
        with WorkerPool(2) as pool:
            results = [pool.submit(_square, i).result() for i in range(6)]
            assert results == [i * i for i in range(6)]
            assert pool.stats == PoolStats(spawns=1, restarts=0, jobs=6)

    def test_jobs_run_in_child_processes(self):
        with WorkerPool(1) as pool:
            assert pool.submit(_pid).result() != os.getpid()

    def test_close_is_idempotent_and_final(self):
        pool = WorkerPool(1)
        pool.submit(_square, 2).result()
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError):
            pool.submit(_square, 3)

    def test_restart_spawns_fresh_executor(self):
        with WorkerPool(1) as pool:
            first = pool.submit(_pid).result()
            pool.restart()
            assert not pool.alive
            second = pool.submit(_pid).result()
            assert first != second
            assert pool.stats.restarts == 1
            assert pool.stats.spawns == 2

    def test_default_size_comes_from_default_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert WorkerPool().n_workers == 3

    def test_repr_reflects_state(self):
        pool = WorkerPool(2)
        assert "cold" in repr(pool)
        pool.submit(_square, 1).result()
        assert "warm" in repr(pool)
        pool.close()
        assert "closed" in repr(pool)


class TestThreadSafety:
    def test_concurrent_submit_and_restart(self):
        """Another thread drives submissions while the owner restarts —
        the RLock must keep every job on a live executor (no race on a
        half-built one)."""
        errors = []
        with WorkerPool(2) as pool:
            pool.warm()
            stop = threading.Event()

            def submitter():
                while not stop.is_set():
                    try:
                        assert pool.submit(_square, 3).result(timeout=30) == 9
                    except Exception as exc:  # noqa: BLE001 - collected for assert
                        # A submission caught mid-restart may land on the
                        # cancelled executor; that surfaces as BrokenProcessPool
                        # or CancelledError, never as a deadlock or crash of
                        # the pool itself.
                        errors.append(exc)

            threads = [threading.Thread(target=submitter) for _ in range(3)]
            for t in threads:
                t.start()
            for _ in range(3):
                time.sleep(0.02)
                pool.restart()
            stop.set()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            # The pool itself must still work after the churn.
            assert pool.submit(_square, 4).result(timeout=30) == 16

    def test_single_spawn_under_concurrent_first_submits(self):
        with WorkerPool(2) as pool:
            barrier = threading.Barrier(4)

            def first_submit():
                barrier.wait()
                pool.submit(_square, 2).result(timeout=30)

            threads = [threading.Thread(target=first_submit) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert pool.stats.spawns == 1


class TestSupervision:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SupervisionPolicy(job_timeout=0)
        with pytest.raises(ValueError):
            SupervisionPolicy(max_restarts=0)
        with pytest.raises(ValueError):
            SupervisionPolicy(restart_window=-1)

    def test_hung_job_verdict_counts_kills_and_raises(self):
        from concurrent.futures import TimeoutError as FuturesTimeoutError

        from repro.obs.metrics import default_registry
        from repro.pipeline.resilience import DeadlineExceeded

        timeouts_total = default_registry().counter("pool_job_timeouts_total")
        before = timeouts_total.value
        policy = SupervisionPolicy(job_timeout=0.3)
        with WorkerPool(1, supervision=policy) as pool:
            pool.warm()
            future = pool.submit(_sleep_forever)
            with pytest.raises(FuturesTimeoutError):
                future.result(timeout=policy.job_timeout)
            with pytest.raises(DeadlineExceeded) as exc_info:
                pool.supervisor.timed_out(
                    policy.job_timeout, lambda: pool.restart(kill=True))
            assert exc_info.value.context["deadline"] == 0.3
            assert pool.stats.timeouts == 1
            assert pool.stats.kills == 1
            assert timeouts_total.value == before + 1
            # The pool recovered: fresh workers serve the next job.
            assert pool.submit(_square, 5).result(timeout=30) == 25

    def test_kill_restart_terminates_worker_processes(self):
        with WorkerPool(1) as pool:
            pid = pool.submit(_pid).result()
            pool.submit(_sleep_forever)  # wedge the worker
            time.sleep(0.1)
            pool.restart(kill=True)
            assert pool.stats.kills == 1
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break  # the hung worker is gone
                time.sleep(0.02)
            else:
                pytest.fail(f"killed worker {pid} still alive")
            assert pool.submit(_pid).result(timeout=30) != pid

    def test_crash_loop_cap_raises_worker_crash_error(self):
        from repro.pipeline.resilience import WorkerCrashError

        policy = SupervisionPolicy(max_restarts=3, restart_window=60.0)
        with WorkerPool(1, supervision=policy) as pool:
            for _ in range(3):
                pool.restart()
            with pytest.raises(WorkerCrashError) as exc_info:
                pool.restart()
            assert exc_info.value.context["restarts"] == 3
            assert exc_info.value.context["crash_loop"] is True
            assert pool.crash_looping
            assert pool.stats.restarts == 3  # the capped one never happened

    def test_restart_window_expires(self):
        policy = SupervisionPolicy(max_restarts=2, restart_window=0.1)
        with WorkerPool(1, supervision=policy) as pool:
            pool.restart()
            pool.restart()
            time.sleep(0.15)  # the window slides past the earlier restarts
            pool.restart()
            assert pool.stats.restarts == 3
