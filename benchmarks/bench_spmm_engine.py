"""SpMM execution-engine benchmark (CI ``perf-smoke`` job).

Measures three ways to run the same compressed operands:

* ``naive``   — the registry's per-format reference kernels
  (:func:`repro.pipeline.registry.dispatch_spmm`), gather + einsum;
* ``planned`` — :func:`repro.perf.engine.execute`, the one execution
  path: the operand's :class:`~repro.perf.engine.ExecutionPlan` runs its
  exact CSR triplet through scipy.sparse's compiled CSR matmat;
* ``floor``   — scipy.sparse CSR matmat on a ``csr_matrix`` built directly
  from the operand's dense content, outside the engine: the fastest
  kernel available offline, and the baseline every speed claim is quoted
  against.  ``planned / floor`` is the engine's overhead over it.

Correctness gates every timing: features are integer-valued so all fp64
partial sums are exact, and every mode must be **bitwise** identical to
the dense reference — the benchmark fails hard otherwise.  In full mode
(h >= 64) it also fails when ``planned`` is not at least
``REPRO_ENGINE_MIN_SPEEDUP`` (default 1.3) x faster than ``naive`` on the
serving-default hybrid backend; ``--quick`` runs a tiny smoke
configuration and skips the speedup assertions (CI machines are too noisy
for them).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_spmm_engine.py --json-out .

writes ``BENCH_spmm_engine.json`` next to the other tracked
``BENCH_*.json`` result files.
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
import scipy.sparse as sp

from repro.core import VNMPattern
from repro.perf import engine
from repro.pipeline import registry
from repro.sptc import CSRMatrix, HybridVNM
from repro.sptc.spmm import dense_spmm

PATTERN = VNMPattern(1, 2, 4)
BACKENDS = ("csr", "bsr", "vnm", "hybrid")


def make_operand(n: int, density: float, seed: int = 0) -> HybridVNM:
    """A hybrid-compressed random operator (residual CSR catches overflow)."""
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < density).astype(np.float64)
    a *= rng.integers(1, 8, size=(n, n))
    return HybridVNM.compress_csr(CSRMatrix.from_dense(a), PATTERN)


def timed_rounds(fn, rounds: int) -> list[float]:
    fn()  # warm (plan scratch, BLAS init)
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1024, help="operator dimension")
    parser.add_argument("--h", type=int, default=64,
                        help="feature width (acceptance floor: 64)")
    parser.add_argument("--density", type=float, default=0.05)
    parser.add_argument("--rounds", type=int, default=5,
                        help="timed repetitions per mode")
    parser.add_argument("--quick", action="store_true",
                        help="tiny smoke configuration; no speedup assertion")
    parser.add_argument("--json-out", metavar="DIR", default=None,
                        help="write BENCH_spmm_engine.json into DIR")
    args = parser.parse_args()

    if args.quick:
        args.n, args.h, args.rounds = min(args.n, 192), min(args.h, 16), 2

    min_speedup = float(os.environ.get("REPRO_ENGINE_MIN_SPEEDUP", "1.3"))
    hybrid = make_operand(args.n, args.density)
    dense = hybrid.decompress()
    rng = np.random.default_rng(1)
    b = rng.integers(0, 1 << 10, size=(args.n, args.h)).astype(np.float64)
    reference = dense_spmm(dense, b)
    print(f"n={args.n} h={args.h} density={args.density} rounds={args.rounds} "
          f"pattern={PATTERN}")

    ok = True
    results: dict[str, dict] = {}
    for name in BACKENDS:
        try:
            operand = hybrid if name == "hybrid" else registry.degrade(hybrid, name)
        except Exception as exc:  # noqa: BLE001 - e.g. vnm on a non-conforming matrix
            print(f"{name:<8} unavailable for this operand ({exc})")
            results[name] = {"unavailable": str(exc)}
            continue
        floor_matrix = sp.csr_matrix(registry.densify(operand))
        naive = timed_rounds(lambda op=operand: registry.dispatch_spmm(op, b),
                             args.rounds)
        planned = timed_rounds(lambda op=operand: engine.execute(op, b),
                               args.rounds)
        floor = timed_rounds(lambda: floor_matrix @ b, args.rounds)
        outputs = (registry.dispatch_spmm(operand, b), engine.execute(operand, b),
                   floor_matrix @ b)
        exact = all(np.array_equal(out, reference) for out in outputs)
        if not exact:
            print(f"FAIL: {name} outputs differ from the dense reference")
            ok = False
        med = {mode: statistics.median(times) for mode, times in
               (("naive", naive), ("planned", planned), ("floor", floor))}
        speedup = med["naive"] / med["planned"] if med["planned"] > 0 else float("inf")
        over_floor = med["planned"] / med["floor"] if med["floor"] > 0 else float("inf")
        results[name] = {
            "seconds": {"naive": naive, "planned": planned, "floor": floor},
            "median_seconds": med,
            "speedup_planned_vs_naive": speedup,
            "planned_over_floor": over_floor,
            "variant": engine.plan_for(operand).variant,
            "bitwise_vs_dense": exact,
        }
        print(f"{name:<8} naive {med['naive'] * 1e3:8.3f} ms | planned "
              f"{med['planned'] * 1e3:8.3f} ms | scipy floor "
              f"{med['floor'] * 1e3:8.3f} ms | {speedup:6.2f}x vs naive, "
              f"{over_floor:5.2f}x of floor")

    gate = results["hybrid"]["speedup_planned_vs_naive"]
    print(f"planned vs naive (hybrid)    : {gate:8.2f}x "
          f"(threshold {min_speedup:.2f}x, "
          f"{'skipped' if args.quick else 'enforced'})")
    if not args.quick:
        if args.h < 64:
            print(f"FAIL: full mode requires h >= 64 (got {args.h})")
            ok = False
        if gate < min_speedup:
            print(f"FAIL: planned-path speedup {gate:.2f}x < {min_speedup:.2f}x "
                  f"over the naive hybrid kernel")
            ok = False
    if ok:
        print("OK: all kernel paths bitwise-match the dense reference")

    if args.json_out:
        payload = {
            "benchmark": "spmm_engine",
            "config": {"n": args.n, "h": args.h, "density": args.density,
                       "rounds": args.rounds, "quick": args.quick,
                       "pattern": str(PATTERN), "cpu_count": os.cpu_count()},
            "baseline": "floor: scipy.sparse csr_matrix @ B on the same matrix",
            "backends": results,
            "min_speedup_threshold": None if args.quick else min_speedup,
            "passed": ok,
        }
        out_path = Path(args.json_out) / "BENCH_spmm_engine.json"
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out_path}")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
