"""Figure 4 — SpMM speedup over cuSPARSE after reordering to the best V:N:M.

For every matrix in the collection: find its best pattern with the paper's
doubling procedure, compress to the (hybrid) V:N:M form, and compare the
cost-model SpMM time against the CSR baseline for H ∈ {64, 128, 256, 512}.

Shape claims (paper §5.3):
* geometric-mean speedups sit in the 2.3–7.5× band overall, growing with H;
* medium/large classes gain more than small;
* a small tail of ultra-sparse matrices (density < 0.01%) slows down;
* the best single speedup is an order of magnitude above the geomean.
"""

import numpy as np
import pytest

from _parallel_search import search_best_patterns
from repro.bench import geomean, render_table
from repro.core import VNMPattern
from repro.perf import engine
from repro.sptc import CostModel, CSRMatrix, HybridVNM, SpmmWorkload

HS = (64, 128, 256, 512)


@pytest.fixture(scope="module")
def fig4(collections):
    cm = CostModel()
    out = {}
    for cls, graphs in collections.items():
        matrices = [g.bitmatrix() for g in graphs]
        outcomes = search_best_patterns(matrices, max_iter=6)
        rows = []
        for g, bm, outcome in zip(graphs, matrices, outcomes):
            pattern = outcome.fastest_pattern()
            if pattern is not None:
                reordered = bm.permute_symmetric(outcome.fastest_order)
            else:
                pattern, reordered = VNMPattern(1, 2, 4), bm
            csr = CSRMatrix.from_scipy(reordered.to_scipy())
            hy = HybridVNM.compress_csr(csr, pattern)
            speeds = {}
            for h in HS:
                t_csr = cm.time_csr_spmm(SpmmWorkload.from_csr(csr, h))
                t_sptc = hy.model_time(cm, h)
                speeds[h] = t_csr / t_sptc
            rows.append(
                {
                    "name": g.name,
                    "pattern": str(pattern),
                    "density": g.density(),
                    "speedups": speeds,
                }
            )
        out[cls] = rows
    return out


def test_fig4_print(fig4):
    rows = []
    for cls in ("small", "medium", "large"):
        recs = fig4[cls]
        for h in HS:
            vals = [r["speedups"][h] for r in recs]
            rows.append(
                [cls, f"H={h}", geomean(vals), min(vals), max(vals),
                 f"{np.mean([v < 1 for v in vals]):.1%}"]
            )
    print()
    print(
        render_table(
            "Figure 4: SpMM speedup over cuSPARSE (best V:N:M after reordering)",
            ["Class", "H", "geomean", "min", "max", "slowdown frac"],
            rows,
        )
    )
    allv = [r["speedups"][h] for recs in fig4.values() for r in recs for h in HS]
    print(f"overall geomean {geomean(allv):.2f}x, max {max(allv):.1f}x, "
          f"slowdowns {np.mean([v < 1 for v in allv]):.1%}")


def test_geomean_in_paper_band(fig4):
    allv = [r["speedups"][h] for recs in fig4.values() for r in recs for h in HS]
    g = geomean(allv)
    assert 1.8 < g < 10.0, g  # paper band: 2.3–7.5x


def test_speedup_grows_with_h(fig4):
    for cls, recs in fig4.items():
        series = [geomean(r["speedups"][h] for r in recs) for h in HS]
        assert series[-1] > series[0], (cls, series)


def test_larger_classes_gain_more(fig4):
    small = geomean(r["speedups"][128] for r in fig4["small"])
    large = geomean(r["speedups"][128] for r in fig4["large"])
    assert large > small


def test_max_speedup_is_large(fig4):
    allv = [r["speedups"][h] for recs in fig4.values() for r in recs for h in HS]
    assert max(allv) > 8.0  # paper: up to 43x


def test_slowdown_tail_small(fig4):
    allv = [r["speedups"][128] for recs in fig4.values() for r in recs]
    frac = np.mean([v < 1 for v in allv])
    assert frac < 0.25  # paper: ~3.9%


def test_bench_venom_spmm_wall_time(benchmark, collections):
    from repro.core import find_best_pattern

    rng = np.random.default_rng(0)
    g = collections["medium"][0]
    found = find_best_pattern(g.bitmatrix(), max_iter=4)
    pattern = found.pattern if found.succeeded else VNMPattern(1, 2, 4)
    bm = found.result.matrix if found.succeeded else g.bitmatrix()
    csr = CSRMatrix.from_scipy(bm.to_scipy())
    hy = HybridVNM.compress_csr(csr, pattern)
    b = rng.random((g.n, 64))
    out = benchmark(engine.execute, hy, b)
    assert out.shape == (g.n, 64)
