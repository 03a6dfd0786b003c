"""The router's submit door: the request mechanics of an unsharded
deployment (a 1-shard ``ShardRouter``) — eager validation, closed-refuses,
close-drains, squeeze and request accounting on the ``submit`` path."""

import numpy as np
import pytest

from repro.core import VNMPattern
from repro.graphs import sbm_graph
from repro.pipeline import (
    OverloadError,
    PreprocessPlan,
    ServingSession,
    ShardRouter,
    preprocess,
    shard_result,
)

PATTERN = VNMPattern(1, 2, 4)


@pytest.fixture(scope="module")
def served():
    g, _ = sbm_graph(72, 3, 0.15, 0.01, np.random.default_rng(11))
    return g, preprocess(g, PreprocessPlan(pattern=PATTERN))


def unsharded(result, **kwargs):
    return ShardRouter(shard_result(result, n_shards=1), **kwargs)


class TestCoalescing:
    def test_flush_resolves_all_futures_identically(self, served):
        g, result = served
        session = ServingSession.from_result(result)
        rng = np.random.default_rng(0)
        xs = [rng.integers(0, 1 << 10, size=(g.n, 4)).astype(np.float64)
              for _ in range(5)]
        with unsharded(result, replicas=2) as router:
            futures = [router.submit(x) for x in xs]
            dense = g.dense_adjacency()
            for x, fut in zip(xs, futures):
                # Integer-valued features: every submitted output must be
                # bitwise identical to the dense reference and a solo spmm.
                assert np.array_equal(fut.result(), dense @ x)
                assert np.array_equal(fut.result(), session.spmm(x))
            assert router.n_requests == 5

    def test_vector_requests_squeeze_back(self, served):
        g, result = served
        x = np.random.default_rng(1).random(g.n)
        with unsharded(result) as router:
            out = router.submit(x).result()
        assert out.shape == (g.n,)
        assert np.allclose(out, g.dense_adjacency() @ x)


class TestQueueMechanics:
    def test_submit_validates_eagerly(self, served):
        _, result = served
        with unsharded(result) as router:
            for bad in (np.zeros((3, 2)),            # wrong row count
                        np.zeros((72, 2, 2)),        # wrong rank
                        np.full((72, 2), np.nan)):   # non-finite
                with pytest.raises(ValueError):
                    router.submit(bad)
            assert router.shard_load()[0]["served"] == 0
        assert router.n_requests == 0

    def test_closed_batcher_refuses_submissions(self, served):
        g, result = served
        router = unsharded(result)
        router.close()
        with pytest.raises(OverloadError) as err:
            router.submit(np.zeros(g.n))
        assert err.value.context["reason"] == "closed"

    def test_close_drains_queue(self, served):
        g, result = served
        router = unsharded(result)
        fut = router.submit(np.random.default_rng(5).random((g.n, 2)))
        router.close()
        assert fut.done()
        assert fut.result().shape == (g.n, 2)


class TestSessionSurface:
    def test_request_accounting_counts_batched_requests(self, served):
        g, result = served
        rng = np.random.default_rng(7)
        with unsharded(result, replicas=2) as router:
            futs = [router.submit(rng.random((g.n, 2))) for _ in range(3)]
            for fut in futs:
                fut.result()
        assert router.n_requests == 3
        assert router.shard_load()[0]["served"] == 3
