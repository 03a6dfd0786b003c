"""Zero-overhead guard for the observability layer (CI ``obs`` job).

The obs contract is that *disabled* instrumentation is free: with the
default :class:`~repro.obs.trace.NullTracer`, no event log, and
``metrics=None``, a serving request executes the pre-obs hot path plus a
couple of ``is None`` branches and one shared null span.  This script
measures that residue directly and fails (exit 1) when it exceeds
``REPRO_OBS_MAX_OVERHEAD`` (default 2%) of the median request latency —
the acceptance bound — or when an instrumented request costs more than
``REPRO_OBS_MAX_ENABLED_RATIO`` (default 2.0×, informational headroom) of
a disabled one.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import numpy as np

from repro.core import VNMPattern, reorder
from repro.graphs import sbm_graph
from repro.obs import MetricsRegistry, use_tracer
from repro.obs import events as obs_events
from repro.obs import trace as obs_trace
from repro.pipeline import ServingSession, preprocess, PreprocessPlan


def _median_seconds(fn, *, repeat: int = 7, inner: int = 20) -> float:
    """Median per-call wall time of ``fn`` over ``repeat`` batches."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return statistics.median(times)


def _primitive_residue_seconds(iterations: int = 20000) -> float:
    """Per-request cost of the *disabled* obs primitives.

    One serve request with obs off pays: one null span (enter/exit), one
    module-level ``emit`` no-op, and a handful of ``is None`` checks.
    Measured against an empty loop so loop overhead cancels.
    """
    sentinel = None

    t0 = time.perf_counter()
    for _ in range(iterations):
        if sentinel is not None:
            pass
    empty = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(iterations):
        with obs_trace.span("bench.null"):
            pass
        obs_events.emit("bench.null")
        if sentinel is not None:
            pass
    loaded = time.perf_counter() - t0
    return max(0.0, (loaded - empty) / iterations)


def main() -> int:
    max_overhead = float(os.environ.get("REPRO_OBS_MAX_OVERHEAD", "0.02"))
    max_enabled_ratio = float(os.environ.get("REPRO_OBS_MAX_ENABLED_RATIO", "2.0"))

    rng = np.random.default_rng(7)
    g, _ = sbm_graph(128, 4, 0.12, 0.01, rng)
    result = preprocess(g, PreprocessPlan(pattern=VNMPattern(1, 2, 4), max_iter=4))
    features = rng.standard_normal((g.n, 32))

    disabled = ServingSession.from_result(result)
    t_disabled = _median_seconds(lambda: disabled.spmm(features))

    instrumented = ServingSession.from_result(result, metrics=MetricsRegistry())
    with use_tracer():
        t_enabled = _median_seconds(lambda: instrumented.spmm(features))

    residue = _primitive_residue_seconds()
    overhead = residue / t_disabled
    enabled_ratio = t_enabled / t_disabled

    print(f"disabled request latency : {t_disabled * 1e6:10.2f} us (median)")
    print(f"enabled  request latency : {t_enabled * 1e6:10.2f} us (median, "
          f"{enabled_ratio:.3f}x)")
    print(f"disabled obs residue     : {residue * 1e9:10.1f} ns/request "
          f"({overhead:.4%} of a request)")
    print(f"thresholds               : residue < {max_overhead:.1%}, "
          f"enabled < {max_enabled_ratio:.2f}x")

    ok = True
    if overhead >= max_overhead:
        print(f"FAIL: disabled-obs residue {overhead:.4%} >= {max_overhead:.1%}")
        ok = False
    if enabled_ratio >= max_enabled_ratio:
        print(f"FAIL: instrumented request {enabled_ratio:.3f}x >= "
              f"{max_enabled_ratio:.2f}x disabled")
        ok = False
    if ok:
        print("OK: observability is zero-overhead when disabled")

    # The reorder path shares the same contract; exercise it once under a
    # tracer so a span-nesting regression (unbalanced enter/exit) fails here
    # rather than in production profiling.
    with use_tracer() as tracer:
        reorder(g.bitmatrix(), VNMPattern(1, 2, 4), max_iter=2)
    assert tracer.roots and tracer.roots[0].name == "reorder"

    # Optional (CI perf-smoke job): the same contract must hold with the
    # repro.perf machinery engaged — a warm WorkerPool + shared-memory
    # reorder_many under a live tracer, and router-submitted serving (an
    # unsharded deployment: 1 shard x 2 replicas) under metrics, both
    # numerically identical to their direct counterparts.
    if os.environ.get("REPRO_OBS_WITH_POOL") == "1":
        from repro.parallel import reorder_many
        from repro.perf import WorkerPool, live_segments
        from repro.pipeline import ShardRouter, shard_result

        mats = [g.bitmatrix() for _ in range(4)]
        direct = reorder_many(mats, VNMPattern(1, 2, 4), n_workers=1, max_iter=2)
        with WorkerPool(2) as pool, use_tracer() as tracer:
            pooled = reorder_many(mats, VNMPattern(1, 2, 4), pool=pool, max_iter=2)
        assert all(np.array_equal(a.order, b.order)
                   for a, b in zip(direct, pooled))
        assert live_segments() == []
        root = tracer.roots[0]
        assert root.name == "parallel.reorder_many"
        assert any(c.name == "reorder" for c in root.children), (
            "worker traces were not grafted back")

        with ShardRouter(shard_result(result, n_shards=1), replicas=2,
                         metrics=MetricsRegistry()) as router:
            futures = [router.submit(features) for _ in range(3)]
            outs = [f.result() for f in futures]
        expect = disabled.spmm(features)
        assert all(np.array_equal(out, expect) for out in outs)
        print("OK: pooled reorder and router-submitted serving preserve "
              "tracing, metrics, and numerics")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
