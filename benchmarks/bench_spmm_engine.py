"""SpMM execution-engine benchmark (CI ``perf-smoke`` job).

Measures two ways to run the same compressed operand, in every built-in
sparse format the serving default's hybrid operand can be rebuilt in
(:func:`repro.pipeline.registry.degrade`):

* ``planned`` — :func:`repro.perf.engine.execute`, the one execution
  path: the operand's :class:`~repro.perf.engine.ExecutionPlan` runs its
  exact CSR triplet through scipy.sparse's compiled CSR matmat;
* ``floor``   — scipy.sparse CSR matmat on a ``csr_matrix`` built directly
  from the operand's dense content, outside the engine: the fastest
  kernel available offline, and the baseline every speed claim is quoted
  against.  ``planned / floor`` is the engine's overhead over it.

Correctness gates every timing: features are integer-valued so all fp64
partial sums are exact, and both modes must be **bitwise** identical to
the dense reference — the benchmark fails hard otherwise.  In full mode
(h >= 64) it also fails when ``planned / floor`` on the hybrid backend
exceeds ``MAX_PLANNED_OVER_FLOOR``.  That ratio is host-dependent, so the
gate is skipped when this host's CPU count differs from the tracked
``BENCH_spmm_engine.json``'s.  ``--quick`` runs a tiny smoke
configuration and skips the gate too (CI machines are too noisy for it).

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

TRACKED = Path(__file__).resolve().parents[1] / "BENCH_spmm_engine.json"
PATTERN = VNMPattern(1, 2, 4)
BACKENDS = ("csr", "bsr", "vnm", "hybrid", "sell", "tcgnn")
MAX_PLANNED_OVER_FLOOR = 1.5


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
                        help="tiny smoke configuration; no overhead gate")
    parser.add_argument("--json-out", metavar="DIR", default=None,
                        help="write BENCH_spmm_engine.json into DIR")
    args = parser.parse_args()

    if args.quick:
        args.n, args.h, args.rounds = min(args.n, 192), min(args.h, 16), 2

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
        planned = timed_rounds(lambda op=operand: engine.execute(op, b),
                               args.rounds)
        floor = timed_rounds(lambda: floor_matrix @ b, args.rounds)
        outputs = (engine.execute(operand, b), floor_matrix @ b)
        exact = all(np.array_equal(out, reference) for out in outputs)
        if not exact:
            print(f"FAIL: {name} outputs differ from the dense reference")
            ok = False
        med = {mode: statistics.median(times) for mode, times in
               (("planned", planned), ("floor", floor))}
        over_floor = med["planned"] / med["floor"] if med["floor"] > 0 else float("inf")
        results[name] = {
            "seconds": {"planned": planned, "floor": floor},
            "median_seconds": med,
            "planned_over_floor": over_floor,
            "variant": engine.plan_for(operand).variant,
            "bitwise_vs_dense": exact,
        }
        print(f"{name:<8} planned {med['planned'] * 1e3:8.3f} ms | scipy floor "
              f"{med['floor'] * 1e3:8.3f} ms | {over_floor:5.2f}x of floor")

    gated = not args.quick
    tracked_cpus = (json.loads(TRACKED.read_text())["config"].get("cpu_count")
                    if TRACKED.exists() else None)
    if gated and tracked_cpus != os.cpu_count():
        print(f"overhead gate not comparable: {TRACKED.name} recorded on cpu_count="
              f"{tracked_cpus}, this host has {os.cpu_count()}; skipped")
        gated = False
    gate = results["hybrid"]["planned_over_floor"]
    print(f"planned / floor (hybrid)     : {gate:8.2f}x "
          f"(threshold {MAX_PLANNED_OVER_FLOOR:.2f}x, "
          f"{'enforced' if gated else 'skipped'})")
    if not args.quick and args.h < 64:
        print(f"FAIL: full mode requires h >= 64 (got {args.h})")
        ok = False
    if gated and gate > MAX_PLANNED_OVER_FLOOR:
        print(f"FAIL: planned hybrid path {gate:.2f}x of the scipy floor > "
              f"{MAX_PLANNED_OVER_FLOOR:.2f}x")
        ok = False
    if ok:
        print("OK: every backend bitwise-matches the dense reference")

    if args.json_out:
        payload = {
            "benchmark": "spmm_engine",
            "config": {"n": args.n, "h": args.h, "density": args.density,
                       "rounds": args.rounds, "quick": args.quick,
                       "pattern": str(PATTERN), "cpu_count": os.cpu_count()},
            "baseline": "floor: scipy.sparse csr_matrix @ B on the same matrix",
            "backends": results,
            "max_planned_over_floor": MAX_PLANNED_OVER_FLOOR if gated else None,
            "passed": ok,
        }
        out_path = Path(args.json_out) / "BENCH_spmm_engine.json"
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out_path}")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
