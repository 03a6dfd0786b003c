"""Process-executor wall-clock benchmark (CI ``perf-smoke`` job).

``bench_sharded_serving.py`` scores the :class:`ShardRouter` on *modelled*
device clocks; this benchmark scores what that one cannot — **real**
wall-clock req/s — by comparing the thread-lane router against the
``executor="process"`` router on a deliberately GIL-bound operand.

The GIL-bound operand is a :class:`GILBoundDevice` wrapper: every shard
kernel runs the real engine SpMM, then holds the interpreter lock
for a fixed charge.  Two charge modes:

* ``stall`` — ``ctypes.PyDLL(None).usleep(...)``: a foreign call made
  *without* releasing the GIL, the signature of a non-cooperative C
  extension.  Thread lanes serialize on the one interpreter lock
  (~``requests × n_shards × charge``); process workers each hold their
  own (~``requests × charge``) — the honest comparison even on a
  single-CPU runner.
* ``spin`` — a pure-Python busy loop: GIL-bound *compute*, which needs
  real cores to parallelize.

``auto`` (the default) picks ``spin`` when the runner has ≥4 CPUs and
``stall`` otherwise; the chosen mode is recorded in the JSON payload.

Every configuration must stay bit-identical: the process router's merged
outputs are checked against the dense reference *and* the single-session
baseline across a backend × shard-count matrix (no GIL charge there —
correctness is executor-independent).  The benchmark fails hard when the
4-worker wall-clock speedup is below ``REPRO_PROCSHARD_MIN_SPEEDUP``
(default 1.5x; ``--quick`` relaxes to 1.3x for CI smoke runners).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_procshard.py --json-out .

writes ``BENCH_procshard.json`` next to the other tracked
``BENCH_*.json`` result files.
"""

from __future__ import annotations

import os

# Pin BLAS pools before numpy loads: the thread-lane baseline must not get
# hidden multicore help from BLAS, or the executor comparison is noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import ctypes
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import VNMPattern
from repro.graphs import sbm_graph
from repro.perf import engine
from repro.pipeline import (
    PreprocessPlan,
    ServingSession,
    ShardRouter,
    preprocess,
    shard_result,
)

PATTERN = VNMPattern(1, 2, 4)
N_WORKERS = 4
BACKENDS = ("hybrid", "csr", "dense")
SHARD_COUNTS = (1, 2, 4)


class GILBoundDevice:
    """A device whose kernels hold the GIL for a fixed charge.

    ``stall`` calls ``usleep`` through :class:`ctypes.PyDLL` — unlike
    ``CDLL``, PyDLL does **not** release the GIL around the foreign call,
    so the sleeping thread blocks every other thread in its interpreter
    (exactly what a non-cooperative C extension does to a shard lane).
    ``spin`` burns the charge in Python bytecode.  Either way the numeric
    result is the untouched :func:`repro.perf.engine.execute` output, so
    bit-identity holds.
    """

    def __init__(self, charge_us: int, mode: str, device_id: int = 0):
        if mode not in ("stall", "spin"):
            raise ValueError(f"mode must be 'stall' or 'spin', got {mode!r}")
        self.charge_us = int(charge_us)
        self.mode = mode
        self.device_id = device_id
        self.calls = 0
        self._libc = ctypes.PyDLL(None) if mode == "stall" else None

    def _hold_gil(self) -> None:
        if self.mode == "stall":
            self._libc.usleep(self.charge_us)
        else:
            deadline = time.perf_counter() + self.charge_us / 1e6
            x = 0
            while time.perf_counter() < deadline:
                x += 1

    def spmm(self, a, b, *, tag: str = "spmm", order=None) -> np.ndarray:
        out = engine.execute(a, b, order=order)
        self._hold_gil()
        self.calls += 1
        return out


def serve_router(result, xs, *, executor: str, charge_us: int, mode: str):
    """Pipelined requests through a 4-shard router on GIL-bound devices."""
    devices = [GILBoundDevice(charge_us, mode, device_id=i)
               for i in range(N_WORKERS)]
    with ShardRouter(shard_result(result, n_shards=N_WORKERS),
                     devices=devices, executor=executor) as router:
        t0 = time.perf_counter()
        futures = [router.submit(x) for x in xs]
        outs = [f.result() for f in futures]
        wall = time.perf_counter() - t0
    return outs, wall


def bitwise_matrix(g, xs, refs, single_outs) -> tuple[dict, bool]:
    """Process-router outputs vs dense + single session, per backend × shards."""
    matrix: dict = {}
    ok = True
    for backend in BACKENDS:
        result = preprocess(g, PreprocessPlan(pattern=PATTERN,
                                              backend=backend, max_iter=2))
        matrix[backend] = {}
        for n_shards in SHARD_COUNTS:
            with ShardRouter(shard_result(result, n_shards=n_shards),
                             executor="process") as router:
                outs = [router.spmm(x) for x in xs]
            bitwise = all(
                np.array_equal(o, r) and np.array_equal(o, s)
                for o, r, s in zip(outs, refs, single_outs))
            matrix[backend][str(n_shards)] = bitwise
            if not bitwise:
                print(f"FAIL: {backend} x {n_shards}-shard process outputs "
                      f"are not bit-identical")
                ok = False
    return matrix, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small smoke configuration for CI runners")
    parser.add_argument("--mode", choices=["auto", "stall", "spin"],
                        default="auto",
                        help="how the GIL charge is held (default: spin on "
                             ">=4 CPUs, else stall)")
    parser.add_argument("--json-out", metavar="DIR", default=None,
                        help="write BENCH_procshard.json into DIR")
    args = parser.parse_args()

    cpus = os.cpu_count() or 1
    mode = args.mode
    if mode == "auto":
        mode = "spin" if cpus >= N_WORKERS else "stall"
    if args.quick:
        n, blocks, h, requests, charge_us = 256, 4, 16, 4, 10_000
        default_floor = 1.3
    else:
        n, blocks, h, requests, charge_us = 256, 4, 16, 6, 20_000
        default_floor = 1.5
    min_speedup = float(os.environ.get("REPRO_PROCSHARD_MIN_SPEEDUP",
                                       str(default_floor)))

    rng = np.random.default_rng(7)
    g, _ = sbm_graph(n, blocks, 0.12, 0.01, rng)
    result = preprocess(g, PreprocessPlan(pattern=PATTERN, max_iter=2))
    dense = g.dense_adjacency().astype(np.float64)
    xs = [rng.integers(0, 1 << 10, size=(g.n, h)).astype(np.float64)
          for _ in range(requests)]
    refs = [dense @ x for x in xs]

    session = ServingSession.from_result(result)
    single_outs = [session.spmm(x) for x in xs]
    ok = all(np.array_equal(o, r) for o, r in zip(single_outs, refs))
    if not ok:
        print("FAIL: single session is not bit-identical to dense")

    print(f"graph: n={g.n} edges={g.n_edges} h={h} requests={requests} "
          f"pattern={PATTERN} cpus={cpus} mode={mode} "
          f"charge={charge_us / 1e3:.0f}ms")

    rows = {}
    for executor in ("thread", "process"):
        outs, wall = serve_router(result, xs, executor=executor,
                                  charge_us=charge_us, mode=mode)
        bitwise = all(
            np.array_equal(o, r) and np.array_equal(o, s)
            for o, r, s in zip(outs, refs, single_outs))
        if not bitwise:
            print(f"FAIL: {executor} router outputs are not bit-identical")
            ok = False
        rows[executor] = {
            "wall_seconds": wall,
            "wall_requests_per_second": requests / wall,
            "bitwise_identical": bitwise,
        }
        print(f"{executor:>8} x{N_WORKERS} | wall {wall:7.3f}s | "
              f"{requests / wall:7.2f} req/s | bitwise {bitwise}")

    speedup = (rows["process"]["wall_requests_per_second"]
               / rows["thread"]["wall_requests_per_second"])
    print(f"process/thread wall-clock speedup {speedup:.3f}x at "
          f"{N_WORKERS} workers (floor {min_speedup:.2f}x"
          f"{', quick' if args.quick else ''})")
    if speedup < min_speedup:
        print(f"FAIL: wall-clock speedup {speedup:.3f}x < "
              f"{min_speedup:.2f}x floor")
        ok = False

    matrix, matrix_ok = bitwise_matrix(g, xs, refs, single_outs)
    ok = ok and matrix_ok

    from repro.perf.shm import live_segments

    leaked = live_segments()
    if leaked:
        print(f"FAIL: {len(leaked)} shm segment(s) leaked: {leaked}")
        ok = False
    if ok:
        print("OK: process executor beats thread lanes on wall clock and "
              "merges bit-identically")

    if args.json_out:
        payload = {
            "benchmark": "procshard",
            "measurement": (
                "synthetic: wall clock of a GIL-bound stand-in kernel (real engine "
                "SpMM plus a fixed interpreter-lock charge per shard call); the gain "
                "comes from that charge and is not serving throughput on real compute"),
            "config": {"n": g.n, "edges": g.n_edges, "blocks": blocks,
                       "h": h, "requests": requests, "quick": args.quick,
                       "pattern": str(PATTERN), "cpu_count": cpus,
                       "gil_charge_us": charge_us, "gil_mode": mode,
                       "n_workers": N_WORKERS},
            "thread": rows["thread"],
            "process": rows["process"],
            "wall_speedup_4_workers": speedup,
            "min_speedup_threshold": min_speedup,
            "bitwise_matrix": matrix,
            "bitwise_identical": matrix_ok and all(
                r["bitwise_identical"] for r in rows.values()),
            "leaked_segments": leaked,
            "passed": ok,
        }
        out_path = Path(args.json_out) / "BENCH_procshard.json"
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out_path}")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
