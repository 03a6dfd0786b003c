"""In-process telemetry HTTP server: exposition, health, flight dumps.

One stdlib :class:`~http.server.ThreadingHTTPServer` on a daemon thread
turns the process's observability state into four scrape-able endpoints:

* ``GET /metrics`` — Prometheus text exposition: the cumulative registry
  (:meth:`~repro.obs.metrics.MetricsRegistry.to_prometheus`) followed by
  the derived windowed gauges
  (:meth:`~repro.obs.window.MetricWindows.to_prometheus`);
* ``GET /healthz`` — liveness JSON; **503** while any circuit breaker is
  open or the worker pool is crash-looping, 200 otherwise;
* ``GET /readyz`` — readiness JSON; **503** until the owner calls
  :meth:`TelemetryServer.set_ready` (and again after ``set_ready(False)``
  during drain), independent of health;
* ``GET /debug/requests`` — the flight recorder's current ring as JSON
  (404 when no recorder is attached).

A second daemon thread — the **sampler** — drives the pull side of the
plane: every ``sample_interval`` seconds it snapshots the registry into
the rolling windows and re-evaluates the SLOs, so burn-rate gauges are
fresh in the very exposition that reports them.  Nothing here touches the
serving hot path; a process that never starts a :class:`TelemetryServer`
pays nothing.

The server binds ``host:port`` with ``port=0`` meaning "any free port"
(the bound port is on :attr:`TelemetryServer.port` — tests and
``repro top`` use this).
"""

from __future__ import annotations

import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .metrics import MetricsRegistry
from .recorder import FlightRecorder
from .slo import SLOEvaluator
from .window import MetricWindows

__all__ = ["TelemetryServer", "session_health"]

logger = logging.getLogger("repro.obs.server")


def session_health(session=None, pool=None, router=None) -> dict:
    """Liveness verdict for a serving process: breakers, pool, shards.

    ``healthy`` is False iff any registered circuit breaker is open, the
    pool has hit its crash-loop cap, or — with a ``router`` (a
    :class:`repro.pipeline.sharded.ShardRouter`) — a *majority* of shards
    has no live replica.  A dead shard minority only marks the payload
    ``degraded``: ``/healthz`` keeps answering 200 so the deployment is
    not pulled from rotation while most rows still serve.  Half-open
    breakers (probing) leave the process healthy — traffic is flowing,
    just carefully.  Importable without a session (a bare telemetry plane
    is always healthy).
    """
    # Late import: obs must stay importable below the pipeline layer.
    from ..pipeline.guard import active_breakers

    board = active_breakers()
    breakers = ({name: snap["state"] for name, snap in board.snapshot().items()}
                if board is not None else {})
    open_backends = sorted(n for n, s in breakers.items() if s == "open")
    crash_looping = bool(pool is not None
                         and getattr(pool, "crash_looping", False))
    health = {
        "healthy": not open_backends and not crash_looping,
        "breakers": breakers,
        "open_breakers": open_backends,
        "pool_crash_looping": crash_looping,
    }
    if router is not None:
        shard_health = router.health()
        health["healthy"] = health["healthy"] and shard_health["healthy"]
        health["degraded"] = shard_health.get("degraded", False)
        health["shards"] = shard_health["shards"]
        health["unhealthy_shards"] = shard_health["unhealthy_shards"]
        health["n_shards"] = shard_health["n_shards"]
    return health


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-telemetry/1"

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload: dict) -> None:
        body = (json.dumps(payload, indent=2, default=str) + "\n").encode()
        self._send(code, body, "application/json")

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        plane: "TelemetryServer" = self.server.plane  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                self._send(200, plane.render_metrics().encode(),
                           "text/plain; version=0.0.4; charset=utf-8")
            elif path == "/healthz":
                health = plane.health()
                self._send_json(200 if health.get("healthy", True) else 503,
                                health)
            elif path == "/readyz":
                ready = plane.ready
                self._send_json(200 if ready else 503, {"ready": ready})
            elif path == "/debug/requests":
                if plane.recorder is None:
                    self._send_json(404, {"error": "no flight recorder attached"})
                else:
                    self._send_json(200, plane.recorder.dump(reason="http"))
            else:
                self._send_json(404, {"error": f"unknown path {path!r}"})
        except BrokenPipeError:  # scraper went away mid-response
            pass
        except Exception as exc:  # never kill the handler thread
            logger.exception("telemetry handler failed for %s", path)
            try:
                self._send_json(500, {"error": str(exc)})
            except OSError:
                pass

    def log_message(self, format, *args):  # noqa: A002 - http.server API
        logger.debug("%s %s", self.address_string(), format % args)


class TelemetryServer:
    """The process's telemetry plane: HTTP exposition plus the sampler.

    Composes whatever observability pieces the owner hands over — only
    ``metrics`` is required; windows/evaluator/recorder/health are each
    optional and their endpoints degrade gracefully when absent.  ``health``
    is a zero-argument callable returning the ``/healthz`` payload
    (typically ``lambda: session_health(session, pool)``); without one the
    process always reports healthy.
    """

    def __init__(self, metrics: MetricsRegistry, *, host: str = "127.0.0.1",
                 port: int = 0, windows: MetricWindows | None = None,
                 evaluator: SLOEvaluator | None = None,
                 recorder: FlightRecorder | None = None,
                 health=None, sample_interval: float = 1.0,
                 prom_windows: tuple[float, ...] = (60.0, 600.0)):
        if sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        self.metrics = metrics
        self.windows = windows
        self.evaluator = evaluator
        self.recorder = recorder
        self._health_fn = health
        self.sample_interval = float(sample_interval)
        self.prom_windows = tuple(prom_windows)
        self.ready = False
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.plane = self  # type: ignore[attr-defined]
        self._serve_thread: threading.Thread | None = None
        self._sampler_thread: threading.Thread | None = None
        self._stop = threading.Event()

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "TelemetryServer":
        if self._serve_thread is not None:
            raise RuntimeError("telemetry server already started")
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.1},
            name="repro-telemetry", daemon=True)
        self._serve_thread.start()
        if self.windows is not None or self.evaluator is not None:
            # Baseline snapshot at time zero: deltas for traffic served
            # before the first periodic tick are measured against startup,
            # not lost to a window that began after them.
            self.sample()
            self._sampler_thread = threading.Thread(
                target=self._sample_loop, name="repro-telemetry-sampler",
                daemon=True)
            self._sampler_thread.start()
        logger.info("telemetry server listening on %s", self.url)
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._serve_thread is not None:
            # shutdown() waits for serve_forever to exit, so a server that
            # never started must skip it (it would block forever).
            self._httpd.shutdown()
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None
        if self._sampler_thread is not None:
            self._sampler_thread.join(timeout=5.0)
            self._sampler_thread = None
        self._httpd.server_close()

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    def set_ready(self, ready: bool = True) -> None:
        """Flip ``/readyz`` — call once serving can accept traffic, and
        again with ``False`` when draining."""
        self.ready = bool(ready)

    # -- the sampler ---------------------------------------------------------
    def _sample_loop(self) -> None:
        while not self._stop.wait(self.sample_interval):
            self.sample()

    def sample(self) -> None:
        """One sampler tick: snapshot windows, re-evaluate SLOs.

        Public so tests and synchronous callers can tick deterministically
        instead of sleeping against the background thread.
        """
        try:
            if self.windows is not None:
                self.windows.record()
            if self.evaluator is not None:
                self.evaluator.evaluate()
        except Exception:
            logger.exception("telemetry sampler tick failed")

    # -- endpoint bodies (exposed for in-process use) ------------------------
    def render_metrics(self) -> str:
        text = self.metrics.to_prometheus()
        if self.windows is not None and len(self.windows) > 0:
            text += self.windows.to_prometheus(self.prom_windows)
        return text

    def health(self) -> dict:
        payload = self._health_fn() if self._health_fn is not None else {"healthy": True}
        payload = dict(payload)
        payload.setdefault("healthy", True)
        payload["ts"] = time.time()
        if self.evaluator is not None:
            alerting = self.evaluator.alerting()
            payload["slo_alerting"] = list(alerting)
        return payload
