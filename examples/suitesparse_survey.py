"""Survey a matrix collection for V:N:M conformity — the paper's §5.3 sweep.

For each matrix in a (synthetic) SuiteSparse-like class: how many violations
does it start with, which best pattern does the doubling search find, how
long does reordering take, and what SpMM speedup does the cost model predict?

Run:  python examples/suitesparse_survey.py [class] [count]
"""

import sys
import time

from repro.bench import geomean, render_table
from repro.core import VNMPattern, find_best_pattern, total_pscore
from repro.sptc import CSRMatrix, CostModel, HybridVNM, SpmmWorkload
from repro.graphs import suitesparse_like_collection


def main(class_name: str = "small", count: int = 12) -> None:
    graphs = suitesparse_like_collection(class_name, count, seed=1)
    cm = CostModel()
    rows = []
    speedups = []
    for g in graphs:
        bm = g.bitmatrix()
        init = total_pscore(bm, VNMPattern(1, 2, 4).nm)
        t0 = time.perf_counter()
        best = find_best_pattern(bm, max_iter=6)
        dt = time.perf_counter() - t0
        if best.succeeded:
            pattern = best.pattern
            reordered = best.result.matrix
        else:
            pattern = VNMPattern(1, 2, 4)
            reordered = bm
        csr = CSRMatrix.from_scipy(reordered.to_scipy())
        hy = HybridVNM.compress_csr(csr, pattern)
        speedup = cm.time_csr_spmm(SpmmWorkload.from_csr(csr, 128)) / hy.model_time(cm, 128)
        speedups.append(speedup)
        rows.append([
            g.name, g.n, bm.nnz(), f"{g.density():.3%}", init,
            str(pattern) if best.succeeded else "(none)", f"{dt:.2f}", speedup,
        ])
    print(render_table(
        f"Survey of the {class_name!r} class",
        ["Matrix", "#V", "nnz", "density", "init viol.", "best V:N:M", "reorder s",
         "SpMM speedup H=128"],
        rows,
    ))
    conforming = sum(1 for r in rows if r[5] != "(none)")
    print(f"\n{conforming}/{len(rows)} matrices reach full conformance; "
          f"geomean modelled speedup {geomean(speedups):.2f}x")


if __name__ == "__main__":
    cls = sys.argv[1] if len(sys.argv) > 1 else "small"
    cnt = int(sys.argv[2]) if len(sys.argv) > 2 else 12
    main(cls, cnt)
