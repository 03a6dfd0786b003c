"""Overhead guard for the live telemetry plane (CI ``perf-smoke`` job).

The telemetry contract extends the obs one: a serving process that turns
on the flight recorder and the rolling-window latency view must keep its
hot SpMM path (nearly) unchanged.  Per request the recorder adds one
``begin`` (a lock-protected sequence bump and a modulo) plus one
``finish`` — and for the common *unsampled ok* request the record call is
a single early-returning branch; the windowed-admission view adds one
bucket-delta quantile per admission check at the router door.  Sampler ticks and HTTP scrapes run
on their own threads and never touch the request path.

This script measures those residues directly — against an empty loop, so
loop overhead cancels — and fails (exit 1) when either the recorder
bookkeeping or the windowed-quantile admission signal exceeds
``REPRO_TELEMETRY_MAX_OVERHEAD`` (default 2%) of the median bare spmm
request.  It also hard-fails, in any mode, when an instrumented request
is not bit-identical to a bare one, or when a live ``/metrics`` scrape
does not parse back into the series the requests just produced.

``--quick`` shrinks the workload for CI smoke runs (the CI job relaxes
the threshold to 5% for shared-runner noise); the tracked
``BENCH_telemetry.json`` carries the enforced full-mode numbers.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_telemetry.py --json-out .
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import VNMPattern
from repro.graphs import sbm_graph
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    MetricWindows,
    TelemetryServer,
    parse_prometheus,
)
from repro.pipeline import PreprocessPlan, ServingSession, preprocess

PATTERN = VNMPattern(1, 2, 4)


def _median_seconds(fn, *, repeat: int = 7, inner: int = 20) -> float:
    """Median per-call wall time of ``fn`` over ``repeat`` batches."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return statistics.median(times)


def _residue_seconds(fn, iterations: int) -> float:
    """Per-iteration cost of ``fn`` with empty-loop overhead subtracted."""
    sentinel = None
    t0 = time.perf_counter()
    for _ in range(iterations):
        if sentinel is not None:
            pass
    empty = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(iterations):
        fn()
        if sentinel is not None:
            pass
    loaded = time.perf_counter() - t0
    return max(0.0, (loaded - empty) / iterations)


def _scrape_smoke(session: ServingSession, metrics: MetricsRegistry,
                  windows: MetricWindows, features: np.ndarray) -> None:
    """A live scrape must parse back into the series the traffic produced."""
    with TelemetryServer(metrics, windows=windows) as srv:
        srv.sample()
        import urllib.request

        with urllib.request.urlopen(srv.url + "/metrics", timeout=5) as resp:
            assert resp.status == 200
            body = resp.read().decode()
        with urllib.request.urlopen(srv.url + "/healthz", timeout=5) as resp:
            assert json.loads(resp.read().decode())["healthy"] is True
    types, samples = parse_prometheus(body)
    assert types.get("serve_requests_total") == "counter"
    assert types.get("spmm_latency_seconds") == "histogram"
    served = samples["serve_requests_total"][0][1]
    assert served == session.n_requests, (
        f"scrape reports {served} requests, session served {session.n_requests}")
    assert "serve_path_rows_total" in samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small smoke configuration for CI runners")
    parser.add_argument("--json-out", metavar="DIR", default=None,
                        help="write BENCH_telemetry.json into DIR")
    args = parser.parse_args()

    max_overhead = float(os.environ.get("REPRO_TELEMETRY_MAX_OVERHEAD", "0.02"))
    n, h = (64, 16) if args.quick else (128, 32)
    # The residue targets cost ~1us each; a short loop is all timer noise.
    iters = 50000 if args.quick else 200000

    rng = np.random.default_rng(7)
    g, _ = sbm_graph(n, 4, 0.12, 0.01, rng)
    result = preprocess(g, PreprocessPlan(pattern=PATTERN, max_iter=4))
    features = rng.integers(0, 1 << 10, size=(g.n, h)).astype(np.float64)

    bare = ServingSession.from_result(result)
    reference = bare.spmm(features)
    t_bare = _median_seconds(lambda: bare.spmm(features))

    metrics = MetricsRegistry()
    windows = MetricWindows(metrics)
    recorder = FlightRecorder(capacity=256, sample_every=16)
    latency_window = windows.histogram_view("spmm_latency_seconds", 60.0)
    instrumented = ServingSession.from_result(
        result, metrics=metrics, recorder=recorder)
    out = instrumented.spmm(features)
    assert np.array_equal(out, reference), (
        "instrumented request is not bit-identical to the bare one")
    t_inst = _median_seconds(lambda: instrumented.spmm(features))
    windows.record()

    # Per-request recorder bookkeeping, measured as primitives: begin()
    # (sequence bump + sampling decision) and the unsampled-ok finish()
    # (one early-returning branch).  sample_every is large so the loop
    # measures the common path, not span capture.
    probe_rec = FlightRecorder(capacity=256, sample_every=1_000_000)

    def recorder_cycle():
        probe = probe_rec.begin(backend="hybrid", h=h, operand_key="bench")
        with probe:
            pass
        probe.finish("ok", retries=0, downgrades=())

    residue_recorder = _residue_seconds(recorder_cycle, iters)

    # What the router's admission pays per request for the *windowed* latency
    # signal: one bucket-delta p95 over the recorded snapshots.
    residue_window = _residue_seconds(
        lambda: (latency_window.count, latency_window.quantile(0.95)), iters)

    overhead_recorder = residue_recorder / t_bare
    overhead_window = residue_window / t_bare
    ratio = t_inst / t_bare

    print(f"bare         request latency : {t_bare * 1e6:10.2f} us (median)")
    print(f"instrumented request latency : {t_inst * 1e6:10.2f} us (median, "
          f"{ratio:.3f}x, informational)")
    print(f"recorder residue             : {residue_recorder * 1e9:10.1f} "
          f"ns/request ({overhead_recorder:.4%} of a request)")
    print(f"windowed-quantile residue    : {residue_window * 1e9:10.1f} "
          f"ns/submit  ({overhead_window:.4%} of a request)")
    print(f"threshold                    : < {max_overhead:.1%}")

    ok = True
    if overhead_recorder >= max_overhead:
        print(f"FAIL: recorder bookkeeping {overhead_recorder:.4%} >= "
              f"{max_overhead:.1%}")
        ok = False
    if overhead_window >= max_overhead:
        print(f"FAIL: windowed admission signal {overhead_window:.4%} >= "
              f"{max_overhead:.1%}")
        ok = False

    _scrape_smoke(instrumented, metrics, windows, features)
    if ok:
        print("OK: telemetry plane is within budget on the hot spmm path")

    if args.json_out:
        payload = {
            "benchmark": "telemetry_overhead",
            "config": {"n": n, "h": h, "iterations": iters,
                       "quick": args.quick, "pattern": str(PATTERN),
                       "sample_every": 16, "cpu_count": os.cpu_count()},
            "median_seconds": {"bare": t_bare, "instrumented": t_inst},
            "instrumented_ratio": ratio,
            "residue_ns": {
                "recorder_begin_finish": residue_recorder * 1e9,
                "windowed_quantile": residue_window * 1e9,
            },
            "overhead_of_request": {"recorder": overhead_recorder,
                                    "windowed_quantile": overhead_window},
            "max_overhead_threshold": max_overhead,
            "bitwise_identical": True,
            "passed": ok,
        }
        out_path = Path(args.json_out) / "BENCH_telemetry.json"
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out_path}")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
