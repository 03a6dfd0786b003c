"""SpMM execution-engine benchmark (CI ``perf-smoke`` job).

Measures two ways to run the same compressed operand, in every built-in
sparse format the serving default's hybrid operand can be rebuilt in
(:func:`repro.pipeline.registry.degrade`):

* ``planned`` — :func:`repro.perf.engine.execute`, the one execution
  path: the operand's :class:`~repro.perf.engine.ExecutionPlan` runs its
  exact CSR triplet through scipy.sparse's compiled CSR matmat, in
  nnz-balanced row blocks on every usable core above
  ``engine.PARALLEL_MIN_WORK``;
* ``floor``   — scipy.sparse CSR matmat on a ``csr_matrix`` built directly
  from the operand's dense content, outside the engine: the fastest
  kernel available offline, and the baseline every speed claim is quoted
  against.  ``planned / floor`` is the engine's overhead over it.

A size sweep then times the engine's kernel serial (one block on the
caller) against row-parallel on CSR operands of growing ``nnz × h``;
``engine.PARALLEL_MIN_WORK`` is chosen from where parallel starts to win.

Correctness gates every timing: features are integer-valued so all fp64
partial sums are exact, and every mode must be **bitwise** identical to
the dense reference — the benchmark fails hard otherwise.  In full mode
(h >= 64) it also fails when ``planned / floor`` on the hybrid backend
exceeds ``MAX_PLANNED_OVER_FLOOR``, or, on a host with two or more usable
cores, is not below ``MAX_PARALLEL_PLANNED_OVER_FLOOR`` (the row-parallel
kernel must beat the serial scipy floor).  That ratio is host-dependent,
so both gates are skipped when this host's CPU count differs from the
tracked ``BENCH_spmm_engine.json``'s.  ``--quick`` runs a tiny smoke
configuration and skips the gates too (CI machines are too noisy for
them).

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
# With a second core the planned hybrid run must beat the one-core floor.
MAX_PARALLEL_PLANNED_OVER_FLOOR = 1.0
# (n, density, h) of the serial-vs-parallel sweep, smallest work first.
SWEEP = ((1024, 0.01, 16), (1024, 0.02, 16), (1024, 0.02, 32), (2048, 0.01, 32),
         (2048, 0.02, 32), (2048, 0.02, 64), (4096, 0.011, 64))
QUICK_SWEEP = ((256, 0.05, 8), (512, 0.05, 32))
WARMUP_SECONDS = 3.0  # full mode only; see warm_helpers


def make_operand(n: int, density: float, seed: int = 0) -> HybridVNM:
    """A hybrid-compressed random operator (residual CSR catches overflow)."""
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < density).astype(np.float64)
    a *= rng.integers(1, 8, size=(n, n))
    return HybridVNM.compress_csr(CSRMatrix.from_dense(a), PATTERN)


def timed_rounds(fns: dict, rounds: int) -> dict[str, list[float]]:
    """Seconds per call of each mode, alternating modes round by round so
    that a change in host load hits every mode alike."""
    for fn in fns.values():
        fn()  # warm (plan scratch, BLAS init)
    times: dict[str, list[float]] = {mode: [] for mode in fns}
    for _ in range(rounds):
        for mode, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            times[mode].append(time.perf_counter() - t0)
    return times


def sweep_operand(n: int, density: float, h: int, rng):
    a = sp.random(n, n, density=density, format="csr", random_state=n,
                  data_rvs=lambda k: rng.integers(1, 8, size=k))
    b = rng.integers(0, 1 << 10, size=(n, h)).astype(np.float64)
    return a, CSRMatrix(a.indptr, a.indices, a.data, a.shape), b


def with_min_work(min_work: int, fn):
    """``fn`` run with the kernel's serial/parallel threshold at ``min_work``."""
    def run():
        engine.PARALLEL_MIN_WORK = min_work
        return fn()
    return run


def size_sweep(configs, rounds: int) -> tuple[list[dict], bool]:
    """Serial (one block) against row-parallel kernel time per work size."""
    rows, exact = [], True
    threshold = engine.PARALLEL_MIN_WORK
    rng = np.random.default_rng(2)
    modes = {"serial": 1 << 62, "parallel": 0}
    try:
        for n, density, h in configs:
            a, operand, b = sweep_operand(n, density, h, rng)
            reference = a @ b
            plan = engine.build_plan(operand)
            fns = {mode: with_min_work(w, lambda: plan.execute(operand, b))
                   for mode, w in modes.items()}
            times = timed_rounds(fns, rounds)
            exact &= all(np.array_equal(fn(), reference) for fn in fns.values())
            med = {mode: statistics.median(t) for mode, t in times.items()}
            work = a.nnz * h
            rows.append({"n": n, "density": density, "h": h, "nnz": a.nnz, "work": work,
                         "median_seconds": med,
                         "parallel_over_serial": med["parallel"] / med["serial"]})
            print(f"sweep nnz*h={work / 1e6:7.2f}M  serial {med['serial'] * 1e3:8.3f} ms | "
                  f"parallel {med['parallel'] * 1e3:8.3f} ms | "
                  f"{med['parallel'] / med['serial']:5.2f}x")
    finally:
        engine.PARALLEL_MIN_WORK = threshold
    return rows, exact


def warm_helpers(seconds: float) -> None:
    """Keep the row-parallel kernel busy for ``seconds`` before any timing.

    A serving process is long-lived.  In a fresh one, on the 2-vCPU VM
    this was tuned on, the helper thread kept being woken on the caller's
    CPU for the first 1-3 s, so parallel read no faster than serial until
    then.  Timing starts after that, as in a warm server.
    """
    _, operand, b = sweep_operand(2048, 0.02, 64, np.random.default_rng(3))
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        engine.execute(operand, b)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1024, help="operator dimension")
    parser.add_argument("--h", type=int, default=64,
                        help="feature width (acceptance floor: 64)")
    parser.add_argument("--density", type=float, default=0.05)
    parser.add_argument("--rounds", type=int, default=10,
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

    warmup = 0.0 if args.quick else WARMUP_SECONDS
    warm_helpers(warmup)
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
        times = timed_rounds({"planned": lambda op=operand: engine.execute(op, b),
                              "floor": lambda: floor_matrix @ b}, args.rounds)
        planned, floor = times["planned"], times["floor"]
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

    threads = engine.usable_cores()
    print(f"kernel threads: {threads} (caller + {threads - 1} helpers); parallel from "
          f"nnz*h >= {engine.PARALLEL_MIN_WORK}")
    sweep, sweep_exact = size_sweep(QUICK_SWEEP if args.quick else SWEEP, args.rounds)
    if not sweep_exact:
        print("FAIL: serial and parallel sweep outputs differ from scipy")
        ok = False

    gated = not args.quick
    tracked_cpus = (json.loads(TRACKED.read_text())["config"].get("cpu_count")
                    if TRACKED.exists() else None)
    if gated and tracked_cpus != os.cpu_count():
        print(f"overhead gate not comparable: {TRACKED.name} recorded on cpu_count="
              f"{tracked_cpus}, this host has {os.cpu_count()}; skipped")
        gated = False
    gate = results["hybrid"]["planned_over_floor"]
    limit = (f"< {MAX_PARALLEL_PLANNED_OVER_FLOOR:.2f}x" if threads >= 2
             else f"<= {MAX_PLANNED_OVER_FLOOR:.2f}x")
    print(f"planned / floor (hybrid)     : {gate:8.2f}x "
          f"(threshold {limit}, {'enforced' if gated else 'skipped'})")
    if not args.quick and args.h < 64:
        print(f"FAIL: full mode requires h >= 64 (got {args.h})")
        ok = False
    if gated and gate > MAX_PLANNED_OVER_FLOOR:
        print(f"FAIL: planned hybrid path {gate:.2f}x of the scipy floor > "
              f"{MAX_PLANNED_OVER_FLOOR:.2f}x")
        ok = False
    if gated and threads >= 2 and gate >= MAX_PARALLEL_PLANNED_OVER_FLOOR:
        print(f"FAIL: planned hybrid path on {threads} cores {gate:.2f}x of the "
              f"one-core scipy floor, not below {MAX_PARALLEL_PLANNED_OVER_FLOOR:.2f}x")
        ok = False
    if ok:
        print("OK: every backend bitwise-matches the dense reference")

    if args.json_out:
        payload = {
            "benchmark": "spmm_engine",
            "config": {"n": args.n, "h": args.h, "density": args.density,
                       "rounds": args.rounds, "quick": args.quick,
                       "pattern": str(PATTERN), "cpu_count": os.cpu_count(),
                       "threads": threads, "warmup_seconds": warmup,
                       "parallel_min_work": engine.PARALLEL_MIN_WORK},
            "baseline": "floor: scipy.sparse csr_matrix @ B on the same matrix "
                        "(one core); sweep: the engine kernel as one block",
            "backends": results,
            "size_sweep": sweep,
            "max_planned_over_floor": MAX_PLANNED_OVER_FLOOR if gated else None,
            "max_parallel_planned_over_floor": (MAX_PARALLEL_PLANNED_OVER_FLOOR
                                                if gated and threads >= 2 else None),
            "passed": ok,
        }
        out_path = Path(args.json_out) / "BENCH_spmm_engine.json"
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out_path}")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
