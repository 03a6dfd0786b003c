#!/usr/bin/env python3
"""End-to-end wall-clock benchmark of the SOGRE pipeline, graph in to features out.

Run from the repository root:

    python3 e2ebench/run.py --workload serve-session --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` prints the end-to-end metrics (``workloads.END_TO_END``),
``--trace 1`` the per-layer metrics (``layers.PER_LAYER``) of a separate
traced run.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full result, with
provenance and (traced runs) the span list, is written under
``e2ebench/out/``.  Any wrong output makes the run exit with status 1.
``--workload all`` runs every workload in its own process and prints each
end-to-end metric by name and unit, per workload.
"""

import ctypes
import os

# One BLAS/OpenMP thread, set before numpy loads: the only parallelism the
# benchmark measures is the program's own (the two shard worker processes).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"


def retain_freed_heap() -> bool:
    """Keep freed memory in the process heap instead of returning it.

    On a shared virtual machine a page fault on fresh memory costs up to
    twice as much from one minute to the next, and the naive kernels
    allocate large temporaries on every call: GNN epochs swung 1.7x between
    runs.  Reusing freed memory keeps the cost of an allocation (the memset
    of ``np.zeros``) and drops the host's paging.  glibc only; forked shard
    workers inherit it.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(libc.mallopt(m_mmap_threshold, 1 << 30)
                and libc.mallopt(m_trim_threshold, 2**31 - 1))


HEAP_RETAINED = retain_freed_heap()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("preprocess-cold", "serve-session", "serve-sharded", "gnn-train")


def provenance(workload: str, seed: int, seconds: float, reason: str) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload, "why": reason, "seed": seed, "seconds": seconds,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "heap_retained": HEAP_RETAINED,
    }


def named_view_lines(workload: str, result: dict) -> list[str]:
    """Each end-to-end metric under its workload-specific name (e.g. epoch_ms)."""
    from workloads import NAMED_VIEW

    e2e = result["end_to_end"]
    rows = [(name, e2e[key], unit) for name, key, unit in NAMED_VIEW[workload]]
    rows.append(("failed_frac", result["failed"] / max(result["attempted"], 1), "ratio"))
    rows.append(("peak_rss_mb", e2e["peak_rss_mb"], "MB"))
    return [f"{workload:16s} {name:18s} {value:14.6g} {unit}" for name, value, unit in rows]


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker process and wait for it.

    The shard workers' shared-memory rings start the tracker on first use.
    Left alone it outlives this process for a moment after exit; stopping
    it here means the benchmark leaves no process behind.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_one(args) -> int:
    try:
        return _run_one(args)
    finally:
        stop_resource_tracker()


def _run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reason = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    prov = provenance(args.workload, args.seed, args.seconds, reason)
    result = workloads.run_workload(args.workload, args.seed, float(args.seconds),
                                    bool(args.trace), OUT_DIR)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans")
    if spans:
        with open(f"{stem}.spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    with open(f"{stem}.json", "w") as fh:
        json.dump({"provenance": prov, **result}, fh, indent=1)
    for err in result["errors"]:
        print("CHECK FAILED:", err, file=sys.stderr)
    print("provenance", json.dumps(prov))
    if not args.trace:
        print("\n".join(named_view_lines(args.workload, result)))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process (separate peak RSS), then a table."""
    status = 0
    lines = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            status = 1
        lines += [ln for ln in out if ln.startswith(name)]
    print("\n".join(lines))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
