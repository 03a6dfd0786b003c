"""Artefact store/load wall-clock benchmark (CI ``perf-smoke``).

Times, per e2ebench stand-in graph (cora, facebook, amazon-ratings at seed
1), the artefact a preprocess-cold run caches — the auto-selected pattern
with the lossless ``hybrid`` backend, plus its permutation:

* ``store_s``  — :meth:`ArtifactCache.store` (serialize + atomic replace);
* ``load_s``   — :meth:`ArtifactCache.load`, a warm open with the checksum
  verified, as every cache hit does;
* ``verify_s`` — the artefact sha256 alone (:func:`file_digest` over the
  file's bytes, already in memory), reported as its own number so the
  integrity check's share of ``load_s`` stays visible;
* ``key_s``    — :func:`repro.pipeline.cache_key` on the graph (its CSR
  already built, as a warm open finds it), the fingerprint every cache
  lookup pays before it can load anything;
* ``first_execute_s`` — a :class:`ServingSession` opened on the loaded
  artefact, timed through its first ``spmm`` (an integer-feature request of
  width 4): the plan and the CSR triplet the engine rebuilds from the
  operand's ``to_coo`` are what a first request after a warm open pays.

It also records each artefact's size on disk.  Every run hard-fails when a
loaded operand or permutation differs from the stored one (array bytes,
dtypes, shapes, pattern), when a session opened on the loaded artefact
answers that first integer-feature ``spmm`` differently from scipy, or
when the graph's cache key differs from the one its bit matrix gives.

The baseline is a recorded run of this script on the reference commit:
``--record-baseline LABEL`` stores that run's medians, labelled, as the
baseline block, and later runs carry it forward from the tracked
``BENCH_artifact.json``; a timed column the baseline lacks is shown
without one.  Full mode runs ``ROUNDS`` timed rounds and fails
when the summed ``load_s`` median is not at least ``MIN_SPEEDUP`` x faster
than the baseline's.  That gate compares against seconds recorded once, so
it is only meaningful on the host that recorded the baseline: when this
host's CPU count differs from the baseline's, the gate is reported as not
comparable and skipped.  ``--quick`` runs ``QUICK_ROUNDS`` rounds and skips
the gate too (shared runners are too noisy for it) but keeps the
bit-equality checks.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_artifact.py --json-out .

writes ``BENCH_artifact.json`` next to the other tracked ``BENCH_*.json``.
The JSON records the sha256 of this file (``benchmark_sha256``), and a
tier-1 test checks it against the committed script, so the tracked numbers
are regenerated whenever the benchmark changes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import pipeline
from repro.graphs import load_dataset
from repro.sptc import HybridVNM
from repro.sptc.serialize import file_digest

ROOT = Path(__file__).resolve().parents[1]
TRACKED = ROOT / "BENCH_artifact.json"
GRAPHS = ("cora", "facebook", "amazon-ratings")
SEED = 1
PLAN = pipeline.PreprocessPlan(pattern=None, backend="hybrid")
TIMED = ("store_s", "load_s", "verify_s", "key_s", "first_execute_s")
ROUNDS = 20
QUICK_ROUNDS = 3
MIN_SPEEDUP = 2.0


def operand_arrays(operand, permutation) -> dict:
    """Every array an artefact round-trip must reproduce, by name."""
    main = operand.main if isinstance(operand, HybridVNM) else operand
    arrays = {name: getattr(main, name)
              for name in ("tile_ptr", "tile_seg", "col_ids", "values", "meta")}
    if isinstance(operand, HybridVNM) and operand.residual is not None:
        for name in ("indptr", "indices", "data"):
            arrays[f"residual_{name}"] = getattr(operand.residual, name)
    if permutation is not None:
        arrays["permutation"] = permutation.order
    return arrays


def same_artefact(stored, loaded) -> bool:
    """Bit-equality of two ``(operand, permutation)`` pairs."""
    (op_a, perm_a), (op_b, perm_b) = stored, loaded
    if type(op_a) is not type(op_b):
        return False
    main_a = op_a.main if isinstance(op_a, HybridVNM) else op_a
    main_b = op_b.main if isinstance(op_b, HybridVNM) else op_b
    if (main_a.pattern, tuple(main_a.shape), main_a.n_live_cols) != (
            main_b.pattern, tuple(main_b.shape), main_b.n_live_cols):
        return False
    a, b = operand_arrays(op_a, perm_a), operand_arrays(op_b, perm_b)
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
        and a[k].tobytes() == b[k].tobytes() for k in a)


def timed(call):
    t0 = time.perf_counter()
    out = call()
    return time.perf_counter() - t0, out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_ROUNDS} rounds; bit-equality checks only, no speed gate")
    parser.add_argument("--record-baseline", metavar="LABEL", default=None,
                        help="store this run's medians as the baseline, labelled LABEL")
    parser.add_argument("--json-out", metavar="DIR", default=None,
                        help="write BENCH_artifact.json into DIR")
    args = parser.parse_args()
    rounds = QUICK_ROUNDS if args.quick else ROUNDS
    print(f"rounds={rounds} quick={args.quick} cpu_count={os.cpu_count()}")

    graphs = {name: load_dataset(name, seed=SEED) for name in GRAPHS}
    ok = True
    seconds = {name: {t: [] for t in TIMED} for name in GRAPHS}
    file_bytes, selected = {}, {}
    with tempfile.TemporaryDirectory(prefix="bench-artifact-") as tmp:
        cache = pipeline.ArtifactCache(tmp)
        for name, g in graphs.items():
            result = pipeline.preprocess(g, PLAN)
            result_key = pipeline.cache_key(g.bitmatrix(), PLAN)  # the slow, independent route
            stored = (result.operand, result.permutation)
            selected[name] = str(result.pattern)
            adj = g.csr().to_scipy()  # also the CSR a warm open fingerprints
            x = np.random.default_rng([SEED, 3]).integers(
                -8, 9, size=(adj.shape[1], 4)).astype(np.float64)
            expected = adj @ x
            for _ in range(rounds):
                took, path = timed(lambda: cache.store(name, *stored))
                seconds[name]["store_s"].append(took)
                file_bytes[name] = path.stat().st_size
                took, loaded = timed(lambda: cache.load(name))
                seconds[name]["load_s"].append(took)
                if loaded is None or not same_artefact(stored, loaded):
                    print(f"FAIL: {name}: loaded artefact differs from the stored one")
                    ok = False
                    continue
                took, y = timed(lambda: pipeline.ServingSession(*loaded).spmm(x))
                seconds[name]["first_execute_s"].append(took)
                if not np.array_equal(y, expected):
                    print(f"FAIL: {name}: spmm on the loaded artefact differs from scipy")
                    ok = False
                raw = path.read_bytes()
                took, digest = timed(lambda: file_digest(raw))
                seconds[name]["verify_s"].append(took)
                if digest != raw[8:40]:
                    print(f"FAIL: {name}: the stored digest does not match the file")
                    ok = False
                took, key = timed(lambda: pipeline.cache_key(g, PLAN))
                seconds[name]["key_s"].append(took)
                if key != result_key:
                    print(f"FAIL: {name}: the graph and bit-matrix cache keys differ")
                    ok = False

    if not ok:
        return 1
    medians = {name: {t: statistics.median(seconds[name][t]) for t in TIMED}
               for name in GRAPHS}
    if args.record_baseline is not None:
        baseline = {"source": args.record_baseline, "median_seconds": medians,
                    "file_bytes": file_bytes, "cpu_count": os.cpu_count()}
    elif TRACKED.exists():
        baseline = json.loads(TRACKED.read_text())["baseline"]
    else:
        baseline = None

    gated = not args.quick and args.record_baseline is None
    if gated and baseline is not None and baseline.get("cpu_count") != os.cpu_count():
        print(f"speed gate not comparable: baseline recorded on cpu_count="
              f"{baseline.get('cpu_count')}, this host has {os.cpu_count()}; skipped")
        gated = False
    totals = {t: sum(medians[name][t] for name in GRAPHS) for t in TIMED}
    for name in GRAPHS:
        line = f"{name:<15} {file_bytes[name] / 1e6:6.2f} MB"
        for t in TIMED:
            line += f"  {t} {medians[name][t] * 1e3:7.2f} ms"
            if baseline is not None and t in baseline["median_seconds"][name]:
                line += f" (baseline {baseline['median_seconds'][name][t] * 1e3:7.2f})"
        print(line)
    speedups = {}
    for t in TIMED:
        line = f"total {t:<15} {totals[t] * 1e3:7.2f} ms"
        if baseline is not None and t in baseline["median_seconds"][GRAPHS[0]]:
            before = sum(baseline["median_seconds"][name][t] for name in GRAPHS)
            speedups[t] = before / totals[t] if totals[t] > 0 else float("inf")
            line += f" vs baseline {before * 1e3:7.2f} ms: {speedups[t]:5.2f}x"
        print(line)
    if gated:
        if baseline is None:
            print(f"FAIL: full mode needs a baseline ({TRACKED} not found)")
            ok = False
        elif speedups["load_s"] < MIN_SPEEDUP:
            print(f"FAIL: load_s {speedups['load_s']:.2f}x < {MIN_SPEEDUP:.2f}x over the baseline")
            ok = False
    print(f"load_s gate (>= {MIN_SPEEDUP:.2f}x): {'enforced' if gated else 'skipped'}")
    print("OK: every loaded artefact is bit-equal to the stored one and serves like scipy")

    if args.json_out:
        payload = {
            "benchmark": "artifact",
            "benchmark_sha256": hashlib.sha256(Path(__file__).read_bytes()).hexdigest(),
            "config": {"rounds": rounds, "quick": args.quick, "seed": SEED,
                       "graphs": list(GRAPHS), "plan": "pattern=auto backend=hybrid",
                       "cpu_count": os.cpu_count()},
            "baseline": baseline,
            "graphs": {
                name: {
                    "file_bytes": file_bytes[name],
                    "selected_pattern": selected[name],
                    "measured_seconds": seconds[name],
                    "median_seconds": medians[name],
                }
                for name in GRAPHS
            },
            "total_median_seconds": totals,
            "speedup_vs_baseline": speedups,
            "min_speedup_threshold": MIN_SPEEDUP if gated else None,
            "bit_equal": True,
            "passed": ok,
        }
        out_path = Path(args.json_out) / "BENCH_artifact.json"
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out_path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
