"""Sharded serving scaling benchmark (CI ``perf-smoke`` job).

Measures the :class:`~repro.pipeline.sharded.ShardRouter` fan-out/merge
fabric against a single :class:`~repro.pipeline.serving.ServingSession`
on the same preprocessed hybrid operand.  Each shard is pinned to its own
:class:`~repro.sptc.device.EmulatedDevice`, so the sharded configuration
is scored the way the paper scores multi-GPU runs (§5.2): the **makespan**
— the max over the per-device virtual clocks — against the single
device's total clock.  The virtual clocks are deterministic, so the
speedup is a property of the partition, not of runner noise; wall-clock
throughput is also reported, but only as context (this container may
have a single CPU, where thread fan-out cannot beat a sequential loop).

Every configuration must produce outputs byte-identical to the dense
reference *and* to the single session — the benchmark fails hard
otherwise.  In full mode it also fails when the 4-shard modelled
speedup is below ``REPRO_SHARD_MIN_SPEEDUP`` (default 1.5x); ``--quick``
runs a small smoke configuration where the fixed kernel-launch charge
dominates, and relaxes the default floor to 1.1x.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_sharded_serving.py --json-out .

writes ``BENCH_sharded_serving.json`` next to the other tracked
``BENCH_*.json`` result files.
"""

from __future__ import annotations

import os

# Pin BLAS pools before numpy loads: the single-session baseline must be
# genuinely single-threaded, or the wall-clock comparison is meaningless.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import VNMPattern
from repro.graphs import sbm_graph
from repro.pipeline import (
    PreprocessPlan,
    ServingSession,
    ShardRouter,
    preprocess,
    shard_result,
)
from repro.sptc.device import EmulatedDevice

PATTERN = VNMPattern(1, 2, 4)
SHARD_COUNTS = (1, 2, 4)


def serve_single(result, xs):
    """Sequential baseline: every request on one session, one device."""
    device = EmulatedDevice(device_id=0)
    session = ServingSession.from_result(result, device=device)
    t0 = time.perf_counter()
    outs = [session.spmm(x) for x in xs]
    wall = time.perf_counter() - t0
    return outs, device.clock, wall


def serve_sharded(result, xs, n_shards):
    """Router configuration: per-shard devices, pipelined submits."""
    devices = [EmulatedDevice(device_id=i) for i in range(n_shards)]
    with ShardRouter(shard_result(result, n_shards=n_shards),
                     devices=devices) as router:
        t0 = time.perf_counter()
        futures = [router.submit(x) for x in xs]
        outs = [f.result() for f in futures]
        wall = time.perf_counter() - t0
        clocks = [d.clock for d in devices]
    return outs, clocks, wall


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small smoke configuration for CI runners")
    parser.add_argument("--json-out", metavar="DIR", default=None,
                        help="write BENCH_sharded_serving.json into DIR")
    args = parser.parse_args()

    if args.quick:
        n, blocks, p_in, h, requests = 1024, 8, 0.06, 512, 2
        default_floor = 1.1
    else:
        n, blocks, p_in, h, requests = 2048, 8, 0.05, 1024, 3
        default_floor = 1.5
    min_speedup = float(os.environ.get("REPRO_SHARD_MIN_SPEEDUP",
                                       str(default_floor)))

    rng = np.random.default_rng(7)
    g, _ = sbm_graph(n, blocks, p_in, 0.004, rng)
    result = preprocess(g, PreprocessPlan(pattern=PATTERN, max_iter=2))
    dense = g.dense_adjacency().astype(np.float64)
    xs = [rng.integers(0, 1 << 10, size=(g.n, h)).astype(np.float64)
          for _ in range(requests)]
    refs = [dense @ x for x in xs]

    single_outs, single_clock, single_wall = serve_single(result, xs)
    ok = True
    for out, ref in zip(single_outs, refs):
        if not np.array_equal(out, ref):
            print("FAIL: single session is not bit-identical to dense")
            ok = False

    print(f"graph: n={g.n} edges={g.n_edges} h={h} requests={requests} "
          f"pattern={PATTERN} cpus={os.cpu_count()}")
    print(f"{'config':>12} | {'modelled s':>11} | {'speedup':>7} | "
          f"{'wall s':>7} | {'req/s':>7} | bitwise")
    print(f"{'single':>12} | {single_clock:11.3e} | {1.0:7.2f} | "
          f"{single_wall:7.2f} | {requests / single_wall:7.2f} | "
          f"{all(np.array_equal(o, r) for o, r in zip(single_outs, refs))}")

    scaling = {}
    speedup_at = {}
    for n_shards in SHARD_COUNTS:
        outs, clocks, wall = serve_sharded(result, xs, n_shards)
        makespan = max(clocks)
        bitwise = all(
            np.array_equal(o, r) and np.array_equal(o, s)
            for o, r, s in zip(outs, refs, single_outs))
        if not bitwise:
            print(f"FAIL: {n_shards}-shard outputs are not bit-identical")
            ok = False
        speedup = single_clock / makespan
        speedup_at[n_shards] = speedup
        scaling[str(n_shards)] = {
            "device_clocks_seconds": clocks,
            "makespan_seconds": makespan,
            "modelled_speedup": speedup,
            "wall_seconds": wall,
            "wall_requests_per_second": requests / wall,
            "bitwise_identical": bitwise,
        }
        print(f"{n_shards:>10}sh | {makespan:11.3e} | {speedup:7.2f} | "
              f"{wall:7.2f} | {requests / wall:7.2f} | {bitwise}")

    gate = speedup_at[4]
    print(f"modelled 4-shard speedup {gate:.3f}x "
          f"(floor {min_speedup:.2f}x{', quick' if args.quick else ''})")
    if gate < min_speedup:
        print(f"FAIL: 4-shard modelled speedup {gate:.3f}x < "
              f"{min_speedup:.2f}x floor")
        ok = False
    if ok:
        print("OK: sharded serving scales and merges bit-identically")

    if args.json_out:
        payload = {
            "benchmark": "sharded_serving",
            "config": {"n": g.n, "edges": g.n_edges, "blocks": blocks,
                       "p_in": p_in, "h": h, "requests": requests,
                       "quick": args.quick, "pattern": str(PATTERN),
                       "cpu_count": os.cpu_count()},
            "single": {"device_clock_seconds": single_clock,
                       "wall_seconds": single_wall,
                       "wall_requests_per_second": requests / single_wall},
            "scaling": scaling,
            "speedup_4_shards": gate,
            "min_speedup_threshold": min_speedup,
            "bitwise_identical": all(
                s["bitwise_identical"] for s in scaling.values()),
            "passed": ok,
        }
        out_path = Path(args.json_out) / "BENCH_sharded_serving.json"
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out_path}")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
