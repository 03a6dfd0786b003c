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
A dense sweep does the same for the engine's dense block kernel
(:func:`repro.perf.engine.matmul` against one plain ``a @ b`` BLAS call)
over GEMM shapes ``(m, k, n)`` of growing ``m·k·n``, among them the GNN
update phase's products; ``engine.DENSE_PARALLEL_MIN_WORK`` is chosen
from it.  BLAS is pinned to one thread, as in the end-to-end benchmark,
so the only parallelism measured is the engine's own.

A permuted request closes the run: on the facebook stand-in (seed 1,
1:2:32 hybrid, h=64, standard-normal features) a
:class:`~repro.pipeline.serving.ServingSession` request, whose plan folds
the permutation into its triplet (``folded``), against the reference
cycle ``reference``: gather ``x[order]``, serve it in the reordered
basis, scatter the output back.  The two must be bitwise equal in every
mode, on float features; in full mode on two or more usable cores the
run fails unless ``folded / reference`` is below
``MAX_FOLDED_OVER_REFERENCE``.

Correctness gates every timing: features are integer-valued so all fp64
partial sums are exact, and every mode must be **bitwise** identical to
the dense reference — the benchmark fails hard otherwise.  In full mode
(h >= 64) it also fails when ``planned / floor`` on the hybrid backend
exceeds ``MAX_PLANNED_OVER_FLOOR``, or, on a host with two or more usable
cores, is not below ``MAX_PARALLEL_PLANNED_OVER_FLOOR`` (the row-parallel
kernel must beat the serial scipy floor), or when a dense product at or
above ``engine.DENSE_PARALLEL_MIN_WORK`` is not faster split than as one
BLAS call (``MAX_DENSE_PARALLEL_OVER_SERIAL``).  These ratios are
host-dependent, so the gates are skipped when this host's CPU count
differs from the tracked ``BENCH_spmm_engine.json``'s (and the dense one
when BLAS does not report one thread).  Every mode fails when a split
dense product is not bitwise the single call's.  ``--quick`` runs a
tiny smoke configuration and skips the speed gates too (CI machines are
too noisy for them).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_spmm_engine.py --json-out .

writes ``BENCH_spmm_engine.json`` next to the other tracked
``BENCH_*.json`` result files.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: a BLAS that runs its own threads
# already uses every core, and the engine then leaves dense products whole.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402

from repro.core import VNMPattern  # noqa: E402
from repro.perf import engine  # noqa: E402
from repro.pipeline import registry  # noqa: E402
from repro.sptc import CSRMatrix, HybridVNM  # noqa: E402
from repro.sptc.spmm import dense_spmm  # noqa: E402

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
# (m, k, n, layout) of the dense sweep, smallest m·k·n first.  "rows": a is
# a C-contiguous (m, k) array; "cols": a is x.T for a C-contiguous (k, m)
# x, split over x's columns.  The GNN update phase of gnn-train (hidden
# 128, 300 features, 5 classes, 9796 vertices) runs x @ W at
# (9796, 300, 128) and (9796, 128, 5), x.T @ dy at (300, 9796, 128) and
# (128, 9796, 5), dy @ W.T at (9796, 128, 300) and (9796, 5, 128).
DENSE_SWEEP = ((256, 64, 32, "rows"), (512, 64, 64, "rows"), (1024, 64, 64, "rows"),
               (1024, 128, 64, "rows"), (2048, 128, 32, "rows"), (9796, 5, 128, "rows"),
               (9796, 128, 5, "rows"), (128, 9796, 5, "cols"), (2048, 128, 64, "rows"),
               (4096, 128, 64, "rows"), (9796, 300, 128, "rows"),
               (300, 9796, 128, "cols"), (9796, 128, 300, "rows"))
QUICK_DENSE_SWEEP = ((96, 32, 8, "rows"), (200, 48, 16, "cols"))
# Above the dense threshold a split product must beat one BLAS call.
MAX_DENSE_PARALLEL_OVER_SERIAL = 1.0
# m·k·n each dense timing sample repeats a product up to: the gated
# products at the threshold (m·k·n = 2^23) run 16 back-to-back calls, so
# each of their samples lasts several ms instead of one or two calls.
DENSE_SAMPLE_WORK = 1 << 27
# The permuted request: folded into the plan, it must beat gather → SpMM → scatter.
PERMUTED_GRAPH, PERMUTED_SEED, PERMUTED_PATTERN = "facebook", 1, VNMPattern(1, 2, 32)
PERMUTED_H = 64
PERMUTED_ROUNDS, QUICK_PERMUTED_ROUNDS = 40, 3
MAX_FOLDED_OVER_REFERENCE = 1.0
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


def dense_operands(m: int, k: int, n: int, layout: str, rng):
    """Integer-valued ``(a, b)`` for the product ``a @ b`` of shape (m, k, n)."""
    b = rng.integers(0, 64, size=(k, n)).astype(np.float64)
    if layout == "cols":
        return rng.integers(0, 64, size=(k, m)).astype(np.float64).T, b
    return rng.integers(0, 64, size=(m, k)).astype(np.float64), b


def dense_sweep(configs, rounds: int) -> tuple[list[dict], bool]:
    """One BLAS call against the engine's row-split dense kernel per shape."""
    rows, exact = [], True
    threshold = engine.DENSE_PARALLEL_MIN_WORK
    rng = np.random.default_rng(4)
    try:
        engine.DENSE_PARALLEL_MIN_WORK = 0
        for m, k, n, layout in configs:
            a, b = dense_operands(m, k, n, layout, rng)
            work = m * k * n
            calls = max(1, DENSE_SAMPLE_WORK // work)

            def repeat(fn):
                def run():
                    for _ in range(calls):
                        out = fn()
                    return out
                return run

            fns = {"serial": repeat(lambda: a @ b),
                   "parallel": repeat(lambda: engine.matmul(a, b))}
            times = timed_rounds(fns, rounds)
            exact &= np.array_equal(fns["parallel"](), fns["serial"]())
            med = {mode: statistics.median(t) / calls for mode, t in times.items()}
            rows.append({"m": m, "k": k, "n": n, "layout": layout, "work": work,
                         "calls_per_sample": calls, "median_seconds": med,
                         "parallel_over_serial": med["parallel"] / med["serial"]})
            print(f"dense ({m:5d}, {k:5d}, {n:3d}) {layout:4s} m*k*n={work / 1e6:7.2f}M  "
                  f"serial {med['serial'] * 1e3:8.3f} ms | parallel "
                  f"{med['parallel'] * 1e3:8.3f} ms | {med['parallel'] / med['serial']:5.2f}x")
    finally:
        engine.DENSE_PARALLEL_MIN_WORK = threshold
    return rows, exact


def permuted_request(rounds: int) -> dict:
    """A folded session request against gather → execute → scatter."""
    from repro import pipeline
    from repro.graphs import load_dataset

    graph = load_dataset(PERMUTED_GRAPH, seed=PERMUTED_SEED)
    result = pipeline.preprocess(graph, pipeline.PreprocessPlan(pattern=PERMUTED_PATTERN,
                                                                backend="hybrid"))
    order = result.permutation.order
    folded = pipeline.ServingSession(result.operand, result.permutation)
    unpermuted = pipeline.ServingSession(result.operand)
    x = np.random.default_rng(5).standard_normal((graph.n, PERMUTED_H))

    def reference() -> np.ndarray:
        out = unpermuted.spmm(x[order])
        restored = np.empty_like(out)
        restored[order] = out
        return restored

    times = timed_rounds({"folded": lambda: folded.spmm(x), "reference": reference}, rounds)
    exact = bool(np.array_equal(folded.spmm(x), reference()))
    med = {mode: statistics.median(t) for mode, t in times.items()}
    ratio = med["folded"] / med["reference"]
    print(f"permuted request ({PERMUTED_GRAPH}, {graph.n} rows, h={PERMUTED_H}): "
          f"folded {med['folded'] * 1e3:7.3f} ms | "
          f"gather+execute+scatter {med['reference'] * 1e3:7.3f} ms | {ratio:5.2f}x")
    return {"graph": PERMUTED_GRAPH, "seed": PERMUTED_SEED, "pattern": str(PERMUTED_PATTERN),
            "h": PERMUTED_H, "rounds": rounds, "seconds": times, "median_seconds": med,
            "folded_over_reference": ratio, "bitwise_equal": exact}


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
    blas = engine.blas_threads()
    print(f"dense kernel: BLAS threads {blas}; split from m*k*n >= "
          f"{engine.DENSE_PARALLEL_MIN_WORK}")
    dense, dense_exact = dense_sweep(QUICK_DENSE_SWEEP if args.quick else DENSE_SWEEP,
                                     args.rounds)
    if not dense_exact:
        print("FAIL: split dense products differ from one BLAS call")
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
    dense_gated = gated and threads >= 2 and blas == 1
    above = [row for row in dense if row["work"] >= engine.DENSE_PARALLEL_MIN_WORK]
    worst = max((row["parallel_over_serial"] for row in above), default=float("nan"))
    slow = [row for row in above
            if row["parallel_over_serial"] >= MAX_DENSE_PARALLEL_OVER_SERIAL]
    print(f"dense parallel / serial above the threshold: {worst:5.2f}x at worst "
          f"(threshold < {MAX_DENSE_PARALLEL_OVER_SERIAL:.2f}x, "
          f"{'enforced' if dense_gated else 'skipped'})")
    if dense_gated and slow:
        for row in slow:
            print(f"FAIL: dense ({row['m']}, {row['k']}, {row['n']}) split took "
                  f"{row['parallel_over_serial']:.2f}x one BLAS call")
        ok = False
    permuted = permuted_request(QUICK_PERMUTED_ROUNDS if args.quick else PERMUTED_ROUNDS)
    if not permuted["bitwise_equal"]:
        print("FAIL: the folded permuted request differs from gather -> execute -> scatter")
        ok = False
    permuted_gated = not args.quick and threads >= 2
    print(f"permuted request folded / reference: {permuted['folded_over_reference']:5.2f}x "
          f"(threshold < {MAX_FOLDED_OVER_REFERENCE:.2f}x, "
          f"{'enforced' if permuted_gated else 'skipped'})")
    if permuted_gated and permuted["folded_over_reference"] >= MAX_FOLDED_OVER_REFERENCE:
        print(f"FAIL: the folded permuted request took {permuted['folded_over_reference']:.2f}x "
              "the gather -> execute -> scatter reference")
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
                       "blas_threads": blas,
                       "parallel_min_work": engine.PARALLEL_MIN_WORK,
                       "dense_parallel_min_work": engine.DENSE_PARALLEL_MIN_WORK},
            "baseline": "floor: scipy.sparse csr_matrix @ B on the same matrix "
                        "(one core); sweep: the engine kernel as one block; "
                        "dense_sweep: one a @ b BLAS call (BLAS at one thread); "
                        "permuted_request: gather x[order], serve, scatter the output",
            "backends": results,
            "size_sweep": sweep,
            "dense_sweep": dense,
            "permuted_request": permuted,
            "max_folded_over_reference": (MAX_FOLDED_OVER_REFERENCE if permuted_gated
                                          else None),
            "max_dense_parallel_over_serial": (MAX_DENSE_PARALLEL_OVER_SERIAL
                                               if dense_gated else None),
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
