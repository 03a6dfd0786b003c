"""Telemetry HTTP server: exposition, health semantics, flight dumps."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import (
    SLO,
    FlightRecorder,
    MetricsRegistry,
    MetricWindows,
    SLOEvaluator,
    TelemetryServer,
    parse_prometheus,
    session_health,
)
from repro.pipeline.guard import breaker_scope


@pytest.fixture
def reg():
    return MetricsRegistry()


def _get(url: str):
    """(status, decoded body) even for error statuses."""
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.read().decode()


class TestEndpoints:
    def test_metrics_text_and_round_trip(self, reg):
        reg.counter("requests_total", backend="vnm").inc(5)
        h = reg.histogram("lat")
        h.observe(0.01)
        windows = MetricWindows(reg)
        with TelemetryServer(reg, windows=windows) as srv:
            status, body = _get(srv.url + "/metrics")
        assert status == 200
        types, samples = parse_prometheus(body)
        assert types["requests_total"] == "counter"
        assert samples["requests_total"][0] == ({"backend": "vnm"}, 5.0)
        assert types["lat"] == "histogram"
        # windowed derived gauges ride the same exposition
        assert "lat_p95" in samples

    def test_readyz_flips_with_set_ready(self, reg):
        with TelemetryServer(reg) as srv:
            assert _get(srv.url + "/readyz")[0] == 503
            srv.set_ready()
            assert _get(srv.url + "/readyz")[0] == 200
            srv.set_ready(False)
            assert _get(srv.url + "/readyz")[0] == 503

    def test_healthz_defaults_healthy(self, reg):
        with TelemetryServer(reg) as srv:
            status, body = _get(srv.url + "/healthz")
        assert status == 200
        assert json.loads(body)["healthy"] is True

    def test_debug_requests_with_and_without_recorder(self, reg):
        with TelemetryServer(reg) as srv:
            assert _get(srv.url + "/debug/requests")[0] == 404
        rec = FlightRecorder(sample_every=1)
        rec.observe("error", error="boom")
        with TelemetryServer(reg, recorder=rec) as srv:
            status, body = _get(srv.url + "/debug/requests")
        assert status == 200
        payload = json.loads(body)
        assert payload["failures"] == 1
        assert payload["exemplars"][0]["error"] == "boom"

    def test_unknown_path_404(self, reg):
        with TelemetryServer(reg) as srv:
            assert _get(srv.url + "/nope")[0] == 404

    def test_port_zero_binds_any_free_port(self, reg):
        with TelemetryServer(reg) as srv:
            assert srv.port > 0


class TestHealthSemantics:
    def test_open_breaker_turns_healthz_503(self, reg):
        clock = [0.0]
        with breaker_scope(clock=lambda: clock[0]) as board:
            with TelemetryServer(reg, health=session_health) as srv:
                assert _get(srv.url + "/healthz")[0] == 200
                for _ in range(5):
                    board.record_failure("vnm")
                assert board.state("vnm") == "open"
                status, body = _get(srv.url + "/healthz")
                assert status == 503
                payload = json.loads(body)
                assert payload["open_breakers"] == ["vnm"]
                # breaker heals -> healthy again
                clock[0] += 100.0
                board.breaker("vnm").before_call()  # half-open probe
                board.record_success("vnm")
                assert _get(srv.url + "/healthz")[0] == 200

    def test_crash_looping_pool_turns_healthz_503(self, reg):
        class FakePool:
            crash_looping = True

        health = lambda: session_health(pool=FakePool())  # noqa: E731
        with TelemetryServer(reg, health=health) as srv:
            status, body = _get(srv.url + "/healthz")
        assert status == 503
        assert json.loads(body)["pool_crash_looping"] is True

    def test_slo_alerts_surface_in_healthz(self, reg):
        windows = MetricWindows(reg)
        slo = SLO(name="lat", kind="latency", threshold=0.001, objective=0.9)
        ev = SLOEvaluator([slo], windows)
        with TelemetryServer(reg, windows=windows, evaluator=ev) as srv:
            status, body = _get(srv.url + "/healthz")
        assert status == 200
        assert json.loads(body)["slo_alerting"] == []


class TestSampler:
    def test_sample_ticks_windows_and_slos(self, reg):
        windows = MetricWindows(reg)
        slo = SLO(name="lat", kind="latency", threshold=0.01)
        ev = SLOEvaluator([slo], windows)
        srv = TelemetryServer(reg, windows=windows, evaluator=ev)
        try:
            srv.sample()
            assert len(windows) == 1
            assert reg.get("slo_burn_rate", slo="lat", window="fast") is not None
        finally:
            srv.stop()  # never started: releases the bound socket

    def test_start_takes_baseline_snapshot(self, reg):
        windows = MetricWindows(reg)
        with TelemetryServer(reg, windows=windows):
            assert len(windows) >= 1

    def test_double_start_rejected(self, reg):
        srv = TelemetryServer(reg).start()
        try:
            with pytest.raises(RuntimeError):
                srv.start()
        finally:
            srv.stop()

    def test_validation(self, reg):
        with pytest.raises(ValueError):
            TelemetryServer(reg, sample_interval=0.0)
