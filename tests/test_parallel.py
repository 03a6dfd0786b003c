"""Process-parallel batch reordering."""

import logging
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import BitMatrix, VNMPattern, reorder
from repro.parallel import ReorderSummary, default_workers, reorder_many
from repro.perf import SupervisionPolicy, WorkerPool, live_segments

PATTERN = VNMPattern(1, 2, 4)


@contextmanager
def _capture_warnings(logger_name):
    """Collect records on the named logger directly — immune to whatever
    handler/propagation setup other tests left on the ``repro`` root."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    target = logging.getLogger(logger_name)
    old_level = target.level
    target.addHandler(handler)
    target.setLevel(logging.WARNING)
    try:
        yield records
    finally:
        target.removeHandler(handler)
        target.setLevel(old_level)


def batch(count=4, n=48, seed=0):
    out = []
    for i in range(count):
        rng = np.random.default_rng(seed + i)
        a = rng.random((n, n)) < 0.06
        a = (a | a.T).astype(np.uint8)
        np.fill_diagonal(a, 0)
        out.append(BitMatrix.from_dense(a))
    return out


class TestReorderMany:
    def test_inline_matches_direct(self):
        mats = batch(3)
        summaries = reorder_many(mats, PATTERN, n_workers=1)
        for bm, s in zip(mats, summaries):
            direct = reorder(bm, PATTERN)
            assert s.final_invalid_vectors == direct.final_invalid_vectors
            assert np.array_equal(s.order, direct.permutation.order)

    def test_parallel_matches_inline(self):
        mats = batch(4)
        inline = reorder_many(mats, PATTERN, n_workers=1)
        parallel = reorder_many(mats, PATTERN, n_workers=2)
        for a, b in zip(inline, parallel):
            assert a.final_invalid_vectors == b.final_invalid_vectors
            assert np.array_equal(a.order, b.order)

    def test_results_in_input_order(self):
        summaries = reorder_many(batch(5), PATTERN, n_workers=2)
        assert [s.index for s in summaries] == list(range(5))

    def test_summary_properties(self):
        (s,) = reorder_many(batch(1), PATTERN, n_workers=1)
        assert isinstance(s, ReorderSummary)
        assert 0.0 <= s.improvement_rate <= 1.0
        s.permutation.validate()
        assert s.pattern == "1:2:4"

    def test_kwargs_forwarded(self):
        (s,) = reorder_many(batch(1), PATTERN, n_workers=1, max_iter=0)
        assert s.iterations == 0

    def test_empty_batch(self):
        assert reorder_many([], PATTERN) == []

    def test_default_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.delenv("REPRO_WORKERS")
        assert default_workers() >= 1

    @pytest.mark.parametrize("bad", ["banana", "3.5", "-2", "0"])
    def test_default_workers_invalid_env_warns_and_falls_back(
        self, monkeypatch, bad
    ):
        monkeypatch.setenv("REPRO_WORKERS", bad)
        with _capture_warnings("repro.parallel") as records:
            workers = default_workers()
        assert workers >= 1  # fell back instead of raising
        assert any("REPRO_WORKERS" in r.getMessage() for r in records)

    def test_default_workers_empty_env_is_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "")
        with _capture_warnings("repro.parallel") as records:
            assert default_workers() >= 1
        assert not records  # empty means "not configured", no noise


class TestSharedMemoryTransport:
    def test_shm_matches_pickled_and_inline(self):
        mats = batch(4)
        inline = reorder_many(mats, PATTERN, n_workers=1)
        shm = reorder_many(mats, PATTERN, n_workers=2, use_shared_memory=True)
        pickled = reorder_many(mats, PATTERN, n_workers=2, use_shared_memory=False)
        for a, b, c in zip(inline, shm, pickled):
            assert np.array_equal(a.order, b.order)
            assert np.array_equal(a.order, c.order)
            assert a.final_invalid_vectors == b.final_invalid_vectors == (
                c.final_invalid_vectors)

    def test_no_segment_leaks_after_parallel_run(self):
        reorder_many(batch(4), PATTERN, n_workers=2, use_shared_memory=True)
        assert live_segments() == []

    def test_chunk_size_forwarded(self):
        mats = batch(5)
        chunked = reorder_many(mats, PATTERN, n_workers=2, chunk_size=2)
        inline = reorder_many(mats, PATTERN, n_workers=1)
        for a, b in zip(inline, chunked):
            assert np.array_equal(a.order, b.order)


class TestPersistentPool:
    def test_pool_reused_across_calls(self):
        with WorkerPool(2) as pool:
            first = reorder_many(batch(3, seed=0), PATTERN, pool=pool)
            second = reorder_many(batch(3, seed=9), PATTERN, pool=pool)
            assert len(first) == len(second) == 3
            assert pool.stats.spawns == 1  # one executor served both batches
        assert live_segments() == []

    def test_pool_results_match_inline(self):
        mats = batch(4)
        inline = reorder_many(mats, PATTERN, n_workers=1)
        with WorkerPool(2) as pool:
            pooled = reorder_many(mats, PATTERN, pool=pool)
        for a, b in zip(inline, pooled):
            assert np.array_equal(a.order, b.order)

    def test_broken_pool_on_submit_resubmits_lost_chunks(self):
        """A submit that raises BrokenProcessPool (a worker of an earlier
        chunk already died) loses that chunk and every later one; they go
        through the restart/resubmit budget instead of escaping raw."""
        from concurrent.futures.process import BrokenProcessPool

        class BreaksOnSecondSubmit(WorkerPool):
            def __init__(self, n_workers):
                super().__init__(n_workers)
                self.calls = 0

            def submit(self, fn, /, *args, **kwargs):
                self.calls += 1
                if self.calls == 2:
                    raise BrokenProcessPool("worker died before submit")
                return super().submit(fn, *args, **kwargs)

        mats = batch(4)
        inline = reorder_many(mats, PATTERN, n_workers=1)
        with BreaksOnSecondSubmit(2) as pool:
            recovered = reorder_many(mats, PATTERN, pool=pool, chunk_size=1)
            assert pool.stats.restarts == 1
        for a, b in zip(inline, recovered):
            assert np.array_equal(a.order, b.order)

    def test_spent_restart_budget_fails_first_lost_job(self):
        """Every round loses its jobs: the pool's windowed restart cap is
        the budget, and its crash-loop refusal names the first lost job."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.pipeline import WorkerCrashError

        class AlwaysBroken(WorkerPool):
            def submit(self, fn, /, *args, **kwargs):
                raise BrokenProcessPool("every worker dies on arrival")

        policy = SupervisionPolicy(max_restarts=2)
        with AlwaysBroken(2, supervision=policy) as pool:
            with pytest.raises(WorkerCrashError) as exc_info:
                reorder_many(batch(3), PATTERN, pool=pool, chunk_size=1)
            assert exc_info.value.context["index"] == 0
            assert exc_info.value.context["crash_loop"] is True
            assert pool.stats.restarts == 2
        assert live_segments() == []

    def test_caller_owned_pool_stays_open(self):
        pool = WorkerPool(2)
        try:
            reorder_many(batch(2), PATTERN, pool=pool)
            assert not pool._closed  # reorder_many must not close a borrowed pool
            pool.submit(len, [1, 2]).result()
        finally:
            pool.close()
