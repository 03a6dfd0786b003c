"""Analysis bench — fp16 tensor-core datapath error on GNN operators.

"Lossless" in the paper means *structural* (no edges dropped); the SPTC
hardware still computes in fp16-multiply / fp32-accumulate.  This bench
quantifies that numeric side on the actual GNN operators (normalized
adjacency × features): relative errors stay in fp16's nominal range and
argmax predictions are unaffected.
"""

import pytest

from repro.bench import render_table
from repro.core import VNMPattern
from repro.gnn.frameworks import reorder_for_graph
from repro.perf import engine
from repro.sptc import HybridVNM
from repro.sptc.precision import precision_report, venom_spmm_fp16

PATTERN = VNMPattern(1, 2, 4)
DATASETS = ("cora", "citeseer", "facebook")


@pytest.fixture(scope="module")
def precision(gnn_datasets):
    rows = []
    for name in DATASETS:
        g = gnn_datasets[name]
        perm = reorder_for_graph(g, PATTERN)
        reordered = g.relabel(perm)
        op = reordered.csr(normalized=True, add_self_loops=True)
        hy = HybridVNM.compress_csr(op, PATTERN)
        rep = precision_report(hy.main, reordered.features)
        exact = engine.execute(hy.main, reordered.features)
        approx = venom_spmm_fp16(hy.main, reordered.features)
        argmax_agree = float((exact.argmax(1) == approx.argmax(1)).mean())
        rows.append(
            {
                "name": name,
                "max_rel": rep.max_row_scaled_error,
                "mean_rel": rep.mean_row_scaled_error,
                "max_abs": rep.max_abs_error,
                "argmax_agree": argmax_agree,
            }
        )
    return rows


def test_precision_print(precision):
    table = [
        [r["name"], f"{r['max_rel']:.2e}", f"{r['mean_rel']:.2e}",
         f"{r['max_abs']:.2e}", f"{r['argmax_agree']:.1%}"]
        for r in precision
    ]
    print()
    print(render_table(
        "fp16 datapath error on GNN aggregation operators",
        ["Dataset", "max row-scaled err", "mean row-scaled err", "max abs err", "argmax agreement"],
        table,
    ))


def test_error_within_fp16_range(precision):
    for r in precision:
        assert r["max_rel"] < 2e-2, r
        assert r["mean_rel"] < 2e-3, r


def test_predictions_essentially_unchanged(precision):
    for r in precision:
        assert r["argmax_agree"] > 0.95, r


def test_bench_fp16_spmm(benchmark, gnn_datasets):
    g = gnn_datasets["cora"]
    perm = reorder_for_graph(g, PATTERN)
    reordered = g.relabel(perm)
    op = reordered.csr(normalized=True, add_self_loops=True)
    hy = HybridVNM.compress_csr(op, PATTERN)
    out = benchmark(venom_spmm_fp16, hy.main, reordered.features)
    assert out.shape[0] == g.n
