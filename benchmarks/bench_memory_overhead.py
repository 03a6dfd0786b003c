"""Related-work claim (§6) — dense-tensor-core formats vs V:N:M memory.

"TC-GNN and DTC-SpMM tackle sparse workloads by employing specialized
formats ... on dense tensor cores.  The use of dense formats significantly
increases memory usage, adding tens to hundreds of times more space."

For every matrix in the collection: bytes to store it as CSR (fp16 values),
as the best-pattern V:N:M (+ residual), and as TC-GNN-style dense tiles.
"""

import pytest

from repro.bench import geomean, render_table
from repro.core import VNMPattern, find_best_pattern
from repro.sptc import CSRMatrix, HybridVNM, TCGNNBlocked
from repro.sptc.sell import SellCSigma


def _csr_bytes(csr: CSRMatrix) -> int:
    return csr.nnz * (2 + 4) + (csr.shape[0] + 1) * 8


def _hybrid_bytes(hy: HybridVNM) -> int:
    total = hy.main.storage_bytes()
    if hy.residual is not None:
        total += _csr_bytes(hy.residual)
    return total


@pytest.fixture(scope="module")
def memory(collections):
    rows = []
    for cls in ("small", "medium"):
        for g in collections[cls]:
            bm = g.bitmatrix()
            found = find_best_pattern(bm, max_iter=4)
            pattern = found.pattern if found.succeeded else VNMPattern(1, 2, 4)
            matrix = found.result.matrix if found.succeeded else bm
            csr = CSRMatrix.from_scipy(matrix.to_scipy())
            hy = HybridVNM.compress_csr(csr, pattern)
            tc = TCGNNBlocked.from_csr(csr, tile=16)
            sell = SellCSigma.from_csr(csr, c=8, sigma=64)
            rows.append(
                {
                    "name": g.name,
                    "nnz": csr.nnz,
                    "csr": _csr_bytes(csr),
                    "vnm": _hybrid_bytes(hy),
                    "sell": sell.storage_bytes(value_bytes=2),
                    "tcgnn": tc.storage_bytes(),
                    "tcgnn_slots": tc.blocks.size,
                }
            )
    return rows


def test_memory_print(memory):
    table = [
        [r["name"], r["nnz"], r["csr"], r["vnm"], r["sell"], r["tcgnn"],
         r["tcgnn"] / r["csr"], r["tcgnn_slots"] / max(r["nnz"], 1)]
        for r in memory
    ]
    print()
    print(render_table(
        "Memory: CSR vs V:N:M vs SELL-8-64 vs TC-GNN dense tiles (bytes)",
        ["Matrix", "nnz", "CSR", "V:N:M", "SELL", "TC-GNN", "TC/CSR", "slots/nnz"],
        table,
    ))
    print(f"geomean TC-GNN/CSR byte overhead: "
          f"{geomean(r['tcgnn'] / r['csr'] for r in memory):.1f}x; "
          f"geomean stored-slots/nnz: "
          f"{geomean(r['tcgnn_slots'] / max(r['nnz'], 1) for r in memory):.1f}x")


def test_tcgnn_always_larger_than_csr(memory):
    for r in memory:
        assert r["tcgnn"] >= r["csr"] * 0.8, r  # dense tiles never cheaper


def test_tcgnn_overhead_substantial_on_sparse(memory):
    sparse = [r for r in memory if r["tcgnn_slots"] / max(r["nnz"], 1) > 4]
    assert sparse, "collection should contain scatter-dominated matrices"
    worst = max(r["tcgnn_slots"] / max(r["nnz"], 1) for r in memory)
    assert worst > 8.0  # "tens of times more space" territory


def test_sell_between_csr_and_tcgnn(memory):
    # SELL pads rows within a slice; on skewed graphs it sits between the
    # compact sparse formats and the dense-tile blowup.
    for r in memory:
        assert r["sell"] >= r["csr"] * 0.4
        assert r["sell"] <= max(r["tcgnn"], r["csr"]) * 4


def test_vnm_compact(memory):
    # V:N:M (with its small metadata) stays within a small factor of CSR.
    ratios = [r["vnm"] / r["csr"] for r in memory]
    assert geomean(ratios) < 4.0


def test_bench_tcgnn_convert(benchmark, collections):
    g = collections["small"][0]
    csr = CSRMatrix.from_scipy(g.bitmatrix().to_scipy())
    out = benchmark(TCGNNBlocked.from_csr, csr, 16)
    assert out.shape == csr.shape
