"""Stage-2 reorder and pattern-search wall-clock benchmark (CI ``perf-smoke``).

Times, per e2ebench stand-in graph (cora, facebook, amazon-ratings at seed
1), the two preprocessing calls Stage-2 dominates:

* ``find_best_pattern`` — the paper's §5 progressive-doubling search with
  the default ``"fastest"`` selection, as ``preprocess(pattern=None)`` runs it;
* ``stage2_reorder``    — Stage-2 alone at 2:32 on the raw graph.

Both run with no time budget, so their output never depends on wall clock.
Every run hard-fails when a returned permutation's sha256 differs from the
golden permutation corpus (``tests/core/data/stage2_golden.json``): the
speed work this benchmark tracks must not change one output bit.

The baseline is a recorded run of this script on the reference commit:
``--record-baseline LABEL`` stores that run's medians, labelled, as the
baseline block, and later runs carry it forward from the tracked
``BENCH_stage2.json``.  Full mode runs ``ROUNDS`` timed rounds and fails
when the summed ``find_best_pattern`` or ``stage2_reorder`` median is not
at least ``MIN_SPEEDUP`` x faster than the baseline's.  That gate compares
against seconds recorded once, so it is only meaningful on the host that
recorded the baseline: when this host's CPU count differs from the
baseline's, the gate is reported as not comparable and skipped.
``--quick`` runs one round and skips the gate too (shared runners are too
noisy for it) but keeps the sha check.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_stage2.py --json-out .

writes ``BENCH_stage2.json`` next to the other tracked ``BENCH_*.json``.
The JSON records the sha256 of this file (``benchmark_sha256``), and a
tier-1 test checks it against the committed script, so a tracked result
always names the code that wrote it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

from repro.core import NMPattern, find_best_pattern
from repro.core.stage2 import stage2_reorder
from repro.graphs import load_dataset

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "core" / "data" / "stage2_golden.json"
TRACKED = ROOT / "BENCH_stage2.json"
GRAPHS = ("cora", "facebook", "amazon-ratings")
SEED = 1
STAGE2_PATTERN = NMPattern(2, 32)
CALLS = ("find_best_pattern", "stage2_reorder")
ROUNDS = 5
MIN_SPEEDUP = 2.0


def order_sha(perm) -> str:
    return hashlib.sha256(perm.order.astype("<i8").tobytes()).hexdigest()


def run_call(call: str, bm):
    """Run one timed call; returns ``(seconds, sha256, selected pattern)``."""
    t0 = time.perf_counter()
    if call == "find_best_pattern":
        best = find_best_pattern(bm, attempt_time_budget=None)
        seconds = time.perf_counter() - t0
        return seconds, order_sha(best.result.permutation), str(best.pattern)
    res = stage2_reorder(bm, STAGE2_PATTERN)
    seconds = time.perf_counter() - t0
    return seconds, order_sha(res.permutation), None


def golden_id(call: str, name: str) -> str:
    if call == "find_best_pattern":
        return f"search/{name}"
    return f"stage2/{name}/{STAGE2_PATTERN.n}:{STAGE2_PATTERN.m}/freshtop"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="one round; sha check only, no speed gate")
    parser.add_argument("--record-baseline", metavar="LABEL", default=None,
                        help="store this run's medians as the baseline, labelled LABEL")
    parser.add_argument("--json-out", metavar="DIR", default=None,
                        help="write BENCH_stage2.json into DIR")
    args = parser.parse_args()
    rounds = 1 if args.quick else ROUNDS

    golden = json.loads(GOLDEN.read_text())["cases"]
    graphs = {name: load_dataset(name, seed=SEED).bitmatrix() for name in GRAPHS}
    print(f"rounds={rounds} quick={args.quick} cpu_count={os.cpu_count()}")

    sha_ok = True
    seconds = {name: {call: [] for call in CALLS} for name in GRAPHS}
    selected = {}
    for _ in range(rounds):
        for name, bm in graphs.items():
            for call in CALLS:
                took, sha, pattern = run_call(call, bm)
                seconds[name][call].append(took)
                if pattern is not None:
                    selected[name] = pattern
                if sha != golden[golden_id(call, name)]["sha256"]:
                    print(f"FAIL: {name} {call} permutation differs from the golden corpus")
                    sha_ok = False

    medians = {name: {call: statistics.median(seconds[name][call]) for call in CALLS}
               for name in GRAPHS}
    if args.record_baseline is not None:
        baseline = {"source": args.record_baseline, "median_seconds": medians,
                    "cpu_count": os.cpu_count()}
    elif TRACKED.exists():
        baseline = json.loads(TRACKED.read_text())["baseline"]
    else:
        baseline = None

    gated = not args.quick and args.record_baseline is None
    if gated and baseline is not None and baseline.get("cpu_count") != os.cpu_count():
        print(f"speed gate not comparable: baseline recorded on cpu_count="
              f"{baseline.get('cpu_count')}, this host has {os.cpu_count()}; skipped")
        gated = False
    totals = {call: sum(medians[name][call] for name in GRAPHS) for call in CALLS}
    speedups = {}
    for name in GRAPHS:
        line = f"{name:<15}"
        for call in CALLS:
            line += f" {call} {medians[name][call]:7.3f} s"
            if baseline is not None:
                before = baseline["median_seconds"][name][call]
                line += f" (baseline {before:7.3f} s)"
        print(line)
    for call in CALLS:
        line = f"total {call:<18} {totals[call]:7.3f} s"
        if baseline is not None:
            before = sum(baseline["median_seconds"][name][call] for name in GRAPHS)
            speedups[call] = before / totals[call] if totals[call] > 0 else float("inf")
            line += (f" vs baseline {before:7.3f} s: {speedups[call]:5.2f}x "
                     f"(threshold {MIN_SPEEDUP:.2f}x, "
                     f"{'enforced' if gated else 'skipped'})")
        print(line)
    ok = sha_ok
    if gated:
        if baseline is None:
            print(f"FAIL: full mode needs a baseline ({TRACKED} not found)")
            ok = False
        for call, speedup in speedups.items():
            if speedup < MIN_SPEEDUP:
                print(f"FAIL: {call} {speedup:.2f}x < {MIN_SPEEDUP:.2f}x over the baseline")
                ok = False
    if sha_ok:
        print("OK: every permutation matches the golden corpus")

    if args.json_out:
        payload = {
            "benchmark": "stage2",
            "benchmark_sha256": hashlib.sha256(Path(__file__).read_bytes()).hexdigest(),
            "config": {"rounds": rounds, "quick": args.quick, "seed": SEED,
                       "graphs": list(GRAPHS), "stage2_pattern": str(STAGE2_PATTERN),
                       "cpu_count": os.cpu_count()},
            "baseline": baseline,
            "graphs": {
                name: {
                    "measured_seconds": seconds[name],
                    "median_seconds": medians[name],
                    "selected_pattern": selected[name],
                }
                for name in GRAPHS
            },
            "total_median_seconds": totals,
            "speedup_vs_baseline": speedups,
            "min_speedup_threshold": MIN_SPEEDUP if gated else None,
            "sha256_match": sha_ok,
            "passed": ok,
        }
        out_path = Path(args.json_out) / "BENCH_stage2.json"
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out_path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
