"""Overhead guard for the serving resilience layer (CI ``perf-smoke`` job).

The resilience contract mirrors the obs one: guarding the hot SpMM path
must be (nearly) free.  With no breaker board installed, ``run_kernel``
pays one ``active_breakers() is None`` check per dispatch; with a board
installed and every breaker closed, a request adds one ``before_call`` +
one ``record_success`` dict-and-lock hop; admission control adds one
``admit()`` per request at the router door.  This script measures those residues
directly — against an empty loop, so loop overhead cancels — and fails
(exit 1) when either the disabled residue or the enabled breaker+admission
bookkeeping exceeds ``REPRO_RESILIENCE_MAX_OVERHEAD`` (default 2%) of the
median unguarded request.  It also hard-fails, in any mode, when a guarded
request is not bit-identical to an unguarded one or when an open breaker /
full queue does not raise its taxonomy error.

``--quick`` shrinks the workload for CI smoke runs (the CI job relaxes
the threshold to 5% for shared-runner noise); the tracked
``BENCH_resilience.json`` carries the enforced full-mode numbers.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_resilience.py --json-out .
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
from repro.obs import MetricsRegistry
from repro.pipeline import (
    AdmissionPolicy,
    BreakerConfig,
    CircuitOpenError,
    OverloadError,
    PreprocessPlan,
    ServingSession,
    breaker_scope,
    preprocess,
)
from repro.pipeline import guard

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


def _taxonomy_smoke() -> None:
    """The guard rails must actually trip: open breaker and full queue."""
    board = guard.BreakerBoard(BreakerConfig(failure_threshold=1, cooldown=60.0))
    board.record_failure("bsr")
    try:
        board.before_call("bsr")
    except CircuitOpenError:
        pass
    else:
        raise AssertionError("open breaker admitted a call")

    policy = AdmissionPolicy(max_queue_depth=1)
    try:
        policy.admit(depth=1)
    except OverloadError as exc:
        assert exc.context["reason"] == "queue_full"
    else:
        raise AssertionError("zero-depth admission admitted a request")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small smoke configuration for CI runners")
    parser.add_argument("--json-out", metavar="DIR", default=None,
                        help="write BENCH_resilience.json into DIR")
    args = parser.parse_args()

    max_overhead = float(os.environ.get("REPRO_RESILIENCE_MAX_OVERHEAD", "0.02"))
    n, h = (64, 16) if args.quick else (128, 32)
    iters = 5000 if args.quick else 20000

    rng = np.random.default_rng(7)
    g, _ = sbm_graph(n, 4, 0.12, 0.01, rng)
    result = preprocess(g, PreprocessPlan(pattern=PATTERN, max_iter=4))
    features = rng.integers(0, 1 << 10, size=(g.n, h)).astype(np.float64)

    guard.disable_breakers()
    unguarded = ServingSession.from_result(result)
    reference = unguarded.spmm(features)
    t_off = _median_seconds(lambda: unguarded.spmm(features))

    with breaker_scope(BreakerConfig()) as board:
        guarded = ServingSession.from_result(result)
        out = guarded.spmm(features)
        assert np.array_equal(out, reference), (
            "guarded request is not bit-identical to the unguarded one")
        t_on = _median_seconds(lambda: guarded.spmm(features))
        # Per-request guarded bookkeeping, measured as primitives: one
        # before_call + record_success on a closed breaker, plus one
        # admission check against a live latency histogram.
        residue_on = _residue_seconds(
            lambda: (board.before_call("hybrid"), board.record_success("hybrid")),
            iters)
    metrics = MetricsRegistry()
    hist = metrics.histogram("spmm_latency_seconds", help="bench")
    for _ in range(8):
        hist.observe(t_off)
    policy = AdmissionPolicy(max_queue_depth=64, deadline=30.0)
    residue_admit = _residue_seconds(
        lambda: policy.admit(depth=3, latency=hist), iters)

    # What run_kernel pays per dispatch when no board is installed.
    residue_off = _residue_seconds(lambda: guard.active_breakers() is None, iters)

    overhead_off = residue_off / t_off
    overhead_on = (residue_on + residue_admit) / t_off
    ratio = t_on / t_off

    print(f"unguarded request latency : {t_off * 1e6:10.2f} us (median)")
    print(f"guarded   request latency : {t_on * 1e6:10.2f} us (median, "
          f"{ratio:.3f}x, informational)")
    print(f"disabled-guard residue    : {residue_off * 1e9:10.1f} ns/request "
          f"({overhead_off:.4%} of a request)")
    print(f"breaker+admission residue : {(residue_on + residue_admit) * 1e9:10.1f}"
          f" ns/request ({overhead_on:.4%} of a request)")
    print(f"threshold                 : < {max_overhead:.1%}")

    ok = True
    if overhead_off >= max_overhead:
        print(f"FAIL: disabled-guard residue {overhead_off:.4%} >= "
              f"{max_overhead:.1%}")
        ok = False
    if overhead_on >= max_overhead:
        print(f"FAIL: breaker+admission bookkeeping {overhead_on:.4%} >= "
              f"{max_overhead:.1%}")
        ok = False

    _taxonomy_smoke()
    if ok:
        print("OK: resilience layer is within budget on the hot spmm path")

    if args.json_out:
        payload = {
            "benchmark": "resilience_overhead",
            "config": {"n": n, "h": h, "iterations": iters,
                       "quick": args.quick, "pattern": str(PATTERN),
                       "cpu_count": os.cpu_count()},
            "median_seconds": {"unguarded": t_off, "guarded": t_on},
            "guarded_ratio": ratio,
            "residue_ns": {
                "disabled_guard": residue_off * 1e9,
                "closed_breaker": residue_on * 1e9,
                "admission": residue_admit * 1e9,
            },
            "overhead_of_request": {"disabled": overhead_off,
                                    "enabled": overhead_on},
            "max_overhead_threshold": max_overhead,
            "bitwise_identical": True,
            "passed": ok,
        }
        out_path = Path(args.json_out) / "BENCH_resilience.json"
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out_path}")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
