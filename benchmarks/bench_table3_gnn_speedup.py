"""Table 3 — GNN speedups of revised-reordered over default-original.

Regenerates the paper's main GNN table: for each dataset, the best V:N:M
pattern, and for both frameworks × four models the per-layer (LYR,
aggregation) and end-to-end (ALL) speedups.

Shape claims checked (paper §5.1):
* every LYR and ALL speedup > 1;
* LYR ≥ ALL (our optimization targets the aggregation SpMM);
* SGC gains at least as much as GCN (more aggregation work per linear work);
* SAGE gains at least as much as GCN (aggregates before its linear layers).
"""

import pytest

from repro.bench import geomean, render_table
from repro.gnn import MODEL_NAMES, gnn_speedups

HIDDEN = 128


@pytest.fixture(scope="module")
def table3(prepared_settings, best_patterns):
    rows = {}
    for name, settings in prepared_settings.items():
        base = settings["default-original"]
        treat = settings["revised-reordered"]
        cells = {}
        for fw in ("pyg", "dgl"):
            for model in MODEL_NAMES:
                cells[(fw, model)] = gnn_speedups(fw, model, base, treat, hidden=HIDDEN)
        rows[name] = cells
    return rows


def test_table3_print(table3, best_patterns):
    headers = ["Dataset", "Best V:N:M"]
    for fw in ("PYG", "DGL"):
        for model in ("GCN", "SAGE", "Cheb", "SGC"):
            headers += [f"{fw}-{model}-LYR", f"{fw}-{model}-ALL"]
    rows = []
    for name, cells in table3.items():
        row = [name, str(best_patterns[name])]
        for fw in ("pyg", "dgl"):
            for model in MODEL_NAMES:
                s = cells[(fw, model)]
                row += [s["LYR"], s["ALL"]]
        rows.append(row)
    print()
    print(render_table("Table 3: GNN speedup (revised-reordered vs default-original)",
                       headers, rows))
    lyr = [c["LYR"] for cells in table3.values() for c in cells.values()]
    alls = [c["ALL"] for cells in table3.values() for c in cells.values()]
    print(f"geomean LYR {geomean(lyr):.2f}x  geomean ALL {geomean(alls):.2f}x")


def test_all_speedups_above_one(table3):
    for name, cells in table3.items():
        for key, s in cells.items():
            assert s["LYR"] > 1.0, (name, key, s)
            assert s["ALL"] > 1.0, (name, key, s)


def test_lyr_at_least_all(table3):
    for name, cells in table3.items():
        for key, s in cells.items():
            assert s["LYR"] >= s["ALL"] * 0.98, (name, key, s)


def test_sgc_gains_at_least_gcn(table3):
    for name, cells in table3.items():
        for fw in ("pyg", "dgl"):
            assert cells[(fw, "sgc")]["LYR"] >= cells[(fw, "gcn")]["LYR"] * 0.9, (name, fw)


def test_sage_gains_at_least_gcn(table3):
    for name, cells in table3.items():
        for fw in ("pyg", "dgl"):
            assert cells[(fw, "sage")]["LYR"] >= cells[(fw, "gcn")]["LYR"] * 0.9, (name, fw)


def test_geomean_in_paper_band(table3):
    # Paper: average layer-wise speedups between 1.4x and 8.6x.
    lyr = geomean(c["LYR"] for cells in table3.values() for c in cells.values())
    assert 1.2 < lyr < 12.0


def test_bench_timed_forward(benchmark, prepared_settings):
    from repro.gnn import timed_forward

    prep = next(iter(prepared_settings.values()))["revised-reordered"]
    out = benchmark(timed_forward, "pyg", "gcn", prep, hidden=64)
    assert out.total_seconds > 0
