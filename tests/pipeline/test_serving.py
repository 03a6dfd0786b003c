"""ServingSession: request cycle, Aggregator consumption, artefact loading."""

import numpy as np
import pytest

from repro.core import VNMPattern
from repro.gnn.layers import Aggregator, GCNConv
from repro.graphs import sbm_graph
from repro.perf import engine as perf_engine
from repro.pipeline import PreprocessPlan, ServingSession, preprocess
from repro.sptc import EmulatedDevice

PATTERN = VNMPattern(1, 2, 4)


@pytest.fixture(scope="module")
def served():
    g, _ = sbm_graph(80, 3, 0.15, 0.01, np.random.default_rng(3))
    result = preprocess(g, PreprocessPlan(pattern=PATTERN))
    return g, result


class TestRequestCycle:
    def test_bitwise_equal_on_integer_features(self, served):
        g, result = served
        session = ServingSession.from_result(result)
        x = np.random.default_rng(0).integers(0, 1 << 10, size=(g.n, 8)).astype(np.float64)
        out = session.spmm(x)
        # Integer-valued features make every partial sum exact, so the
        # request, served in the caller's vertex order, must match the
        # dense reference bitwise.
        assert np.array_equal(out, g.dense_adjacency() @ x)

    def test_float_features_allclose(self, served):
        g, result = served
        session = ServingSession.from_result(result)
        x = np.random.default_rng(1).random((g.n, 5))
        assert np.allclose(session.spmm(x), g.dense_adjacency() @ x)

    def test_vector_request(self, served):
        g, result = served
        session = ServingSession.from_result(result)
        x = np.random.default_rng(2).random(g.n)
        out = session.spmm(x)
        assert out.shape == (g.n,)
        assert np.allclose(out, g.dense_adjacency() @ x)

    def test_request_accounting(self, served):
        g, result = served
        session = ServingSession.from_result(result)
        x = np.random.default_rng(3).random((g.n, 4))
        for _ in range(3):
            session.spmm(x)
        assert session.n_requests == 3
        assert session.modelled_seconds == pytest.approx(
            3 * session.model_request_seconds(4))

    def test_shape_check(self, served):
        _, result = served
        session = ServingSession.from_result(result)
        with pytest.raises(ValueError):
            session.spmm(np.zeros((3, 2)))

    def test_device_charges_virtual_clock(self, served):
        g, result = served
        device = EmulatedDevice()
        session = ServingSession.from_result(result, device=device, tag="serve")
        session.spmm(np.random.default_rng(4).random((g.n, 4)))
        assert device.elapsed("serve") > 0
        assert session.modelled_seconds == 0.0  # the device owns the clock


def gathered(operand, x, order):
    """A request answered by gather → SpMM in the reordered basis → scatter."""
    out = perf_engine.execute(operand, x[order])
    restored = np.empty_like(out)
    restored[order] = out
    return restored


def float_features(n, h=6, seed=0):
    return np.random.default_rng(seed).standard_normal((n, h))


class TestFoldedRequests:
    """A permuted session request is one kernel pass in the caller's order,
    bitwise equal to gather → execute → scatter on float features too."""

    def test_float_request_bitwise_equal_to_gather_execute_scatter(self, served):
        g, result = served
        session = ServingSession.from_result(result)
        order = result.permutation.order
        for seed in range(3):
            x = float_features(g.n, seed=seed)
            assert np.array_equal(session.spmm(x), gathered(result.operand, x, order))

    def test_no_gather_or_scatter_around_the_kernel(self, served, monkeypatch):
        g, result = served
        session = ServingSession.from_result(result)
        seen = []
        real = perf_engine.execute

        def spy(operand, x, **kwargs):
            seen.append((x, kwargs.get("order")))
            return real(operand, x, **kwargs)

        monkeypatch.setattr(perf_engine, "execute", spy)
        x = float_features(g.n, seed=4)
        out = session.spmm(x)
        ((passed, order),) = seen
        assert passed is x  # the caller's features reach the kernel uncopied
        assert order is result.permutation.order
        assert np.array_equal(out, gathered(result.operand, x, order))

    def test_device_session_bitwise_equal_to_host_session(self, served):
        g, result = served
        device = EmulatedDevice()
        with_device = ServingSession.from_result(result, device=device, tag="serve")
        host = ServingSession.from_result(result)
        for seed in range(3):
            x = float_features(g.n, seed=10 + seed)
            assert np.array_equal(with_device.spmm(x), host.spmm(x))
        assert len(device.records) == 3 and device.elapsed("serve") > 0

    def test_downgrade_mid_stream_keeps_outputs_bitwise_equal(self, served):
        g, result = served
        session = ServingSession.from_result(result, retry_policy=FAST)
        order = result.permutation.order
        requests = [float_features(g.n, seed=20 + i) for i in range(6)]
        # Request 2 forces hybrid → csr (bsr fails too), request 4 csr → dense.
        forced = {2: {"hybrid": 100, "bsr": 100}, 4: {"csr": 100}}
        served_by = []
        for i, x in enumerate(requests):
            with inject(FaultPlan(kernel_failures=forced.get(i, {}))):
                out = session.spmm(x)
            served_by.append(session.backend_name)
            assert np.array_equal(out, gathered(session.operand, x, order))
            if session.backend_name != "dense":
                # Every planned format runs the same canonical CSR triplet.
                assert np.array_equal(out, gathered(result.operand, x, order))
        assert served_by == ["hybrid", "hybrid", "csr", "csr", "dense", "dense"]

    def test_serving_backend_honours_order(self, served):
        # A session is an operand whose backend runs its own kernel: the
        # engine gathers and scatters around it.
        g, result = served
        session = ServingSession.from_result(result)
        x = float_features(g.n, seed=30)
        order = np.random.default_rng(31).permutation(g.n)
        out = perf_engine.execute(session, x, order=order)
        expected = np.empty_like(out)
        expected[order] = session.spmm(x[order])
        assert np.array_equal(out, expected)


class TestAggregatorConsumption:
    def test_aggregator_dispatches_session(self, served):
        g, result = served
        session = ServingSession.from_result(result)
        agg = Aggregator(session)
        x = np.random.default_rng(5).random((g.n, 6))
        assert np.allclose(agg.mm(x), g.dense_adjacency() @ x)
        assert session.n_requests >= 1

    def test_gcn_layer_on_session_matches_csr(self, served):
        g, result = served
        session = ServingSession.from_result(result)
        rng1, rng2 = np.random.default_rng(6), np.random.default_rng(6)
        conv_s = GCNConv(10, 4, rng1)
        conv_c = GCNConv(10, 4, rng2)
        x = np.random.default_rng(7).random((g.n, 10))
        out_session = conv_s.forward(x, session.aggregator())
        out_csr = conv_c.forward(x, Aggregator(g.csr()))
        assert np.allclose(out_session, out_csr)


class TestArtifacts:
    def test_from_artifact_roundtrip(self, served, tmp_path):
        g, result = served
        from repro.sptc import save_preprocessed

        path = tmp_path / "artifact.npz"
        save_preprocessed(path, operand=result.operand, permutation=result.permutation)
        session = ServingSession.from_artifact(path)
        assert session.backend_name == "hybrid"
        x = np.random.default_rng(8).random((g.n, 3))
        assert np.allclose(session.spmm(x), g.dense_adjacency() @ x)

    def test_repr(self, served):
        _, result = served
        assert "hybrid" in repr(ServingSession.from_result(result))


# -- telemetry wiring: flight recorder, per-path rows, windowed admission ----

from repro.obs import FlightRecorder, MetricsRegistry  # noqa: E402
from repro.pipeline import (  # noqa: E402
    AdmissionPolicy,
    FaultPlan,
    OverloadError,
    RetryPolicy,
    ShardRouter,
    inject,
    shard_result,
)

FAST = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.004, jitter=0.0)


def int_features(n, h=6, seed=0):
    return np.random.default_rng(seed).integers(0, 1 << 10, size=(n, h)).astype(np.float64)


class TestFlightRecorderWiring:
    def test_recorder_only_session_records_exemplars(self, served):
        g, result = served
        rec = FlightRecorder(sample_every=1)
        session = ServingSession.from_result(result, recorder=rec)
        x = int_features(g.n)
        out = session.spmm(x)
        assert np.array_equal(out, g.dense_adjacency() @ x)
        (e,) = rec.exemplars()
        assert e.status == "ok"
        assert e.backend == "hybrid"
        assert e.operand_key == f"hybrid:{g.n}x{g.n}"
        assert e.h == 6
        assert e.retries == 0 and e.downgrades == ()
        # sampled request carries the real span tree
        assert e.span_tree["name"] == "serve.request"

    def test_failure_recorded_even_when_unsampled(self, served):
        g, result = served
        rec = FlightRecorder(sample_every=1000)
        session = ServingSession.from_result(
            result, recorder=rec, retry_policy=FAST)
        with inject(FaultPlan(kernel_failures={
                "hybrid": 100, "bsr": 100, "csr": 100, "dense": 100})):
            with pytest.raises(Exception):
                session.spmm(int_features(g.n))
        (e,) = rec.exemplars()
        assert e.status == "error"
        assert "BackendExecutionError" in e.error
        assert e.retries == 2  # FAST burns its two retries first

    def test_exemplar_carries_downgrade_path(self, served):
        g, result = served
        rec = FlightRecorder(sample_every=1)
        session = ServingSession.from_result(
            result, recorder=rec, retry_policy=FAST)
        with inject(FaultPlan(kernel_failures={"hybrid": 100, "bsr": 100})):
            out = session.spmm(int_features(g.n))
        assert np.array_equal(out, g.dense_adjacency() @ int_features(g.n))
        (e,) = rec.exemplars()
        assert e.status == "ok"
        assert e.downgrades == ("csr",)
        assert e.retries == 2


class TestPathRowCounters:
    def test_plain_plan_charges_all_rows_to_backend(self, served):
        g, result = served
        reg = MetricsRegistry()
        session = ServingSession.from_result(result, metrics=reg)
        x = int_features(g.n)
        session.spmm(x)
        session.spmm(x)
        c = reg.get("serve_path_rows_total", backend="hybrid")
        assert c is not None and c.value == 2.0 * g.n

    def test_sticky_downgrade_moves_rows_to_fallback_backend(self, served):
        g, result = served
        reg = MetricsRegistry()
        session = ServingSession.from_result(result, metrics=reg, retry_policy=FAST)
        x = int_features(g.n)
        with inject(FaultPlan(kernel_failures={"hybrid": 100})):
            session.spmm(x)
        session.spmm(x)
        fallback = session.backend_name
        assert fallback != "hybrid"
        c = reg.get("serve_path_rows_total", backend=fallback)
        assert c is not None and c.value == 2.0 * g.n


class TestWindowedAdmission:
    """The router door's admission signal, on an unsharded (1-shard)
    deployment of the same operand."""

    class _SlowWindow:
        """Duck-typed recent-latency view: plenty of samples, terrible p95."""
        count = 100

        @staticmethod
        def quantile(q):
            return 10.0

    class _SlowWindows:
        def histogram_view(self, name, window, **labels):
            return TestWindowedAdmission._SlowWindow()

    def test_latency_window_preferred_over_lifetime(self, served):
        g, result = served
        reg = MetricsRegistry()
        # Lifetime histogram says "fast" (no observations at all), but the
        # rolling window says "slow now" -> the window must win and shed.
        rec = FlightRecorder(sample_every=1000)
        with ShardRouter(shard_result(result, n_shards=1), metrics=reg,
                         admission=AdmissionPolicy(deadline=0.5),
                         recorder=rec, windows=self._SlowWindows()) as router:
            with pytest.raises(OverloadError):
                router.submit(int_features(g.n))
        (e,) = rec.exemplars()
        assert e.status == "shed"
        assert e.shed_reason == "deadline"
        assert reg.get("router_shed_total", reason="deadline").value == 1.0

    def test_no_window_falls_back_to_lifetime_histogram(self, served):
        g, result = served
        reg = MetricsRegistry()
        with ShardRouter(shard_result(result, n_shards=1), metrics=reg,
                         admission=AdmissionPolicy(deadline=0.5)) as router:
            # Lifetime histogram is empty -> optimistic admission, no shed.
            fut = router.submit(int_features(g.n))
            assert np.array_equal(fut.result(), g.dense_adjacency() @ int_features(g.n))
            # A slow lifetime history now sheds: it is the signal in use.
            for _ in range(5):
                reg.histogram("spmm_latency_seconds", shard="0").observe(1.0)
            with pytest.raises(OverloadError) as err:
                router.submit(int_features(g.n))
            assert err.value.context["reason"] == "deadline"

    def test_batched_requests_reach_recorder_and_path_counters(self, served):
        g, result = served
        reg = MetricsRegistry()
        rec = FlightRecorder(sample_every=1)
        with ShardRouter(shard_result(result, n_shards=1), metrics=reg,
                         recorder=rec) as router:
            router.submit(int_features(g.n)).result()
        assert any(e.status == "ok" for e in rec.exemplars())
        c = reg.get("serve_path_rows_total", backend="hybrid", shard="0")
        assert c is not None and c.value == float(g.n)
