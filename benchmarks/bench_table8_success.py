"""Table 8 — reordering success rate by V on the SuiteSparse stand-in.

For each class and each V ∈ {1, 4, 8, 16, 32} × {V:2:8, V:2:16}: the
fraction of matrices that can be reordered to *full* conformance.

Shape claims (paper Table 8):
* success rates decrease as V grows (stricter meta-block constraints);
* V:2:16 is harder than V:2:8 at V = 1.
"""

import pytest

from _parallel_search import success_rates
from repro.bench import render_table
from repro.core import VNMPattern, reordering_succeeds

VS = (1, 4, 8, 16, 32)
MS = (8, 16)


@pytest.fixture(scope="module")
def table8(collections):
    patterns = [VNMPattern(v, 2, m) for m in MS for v in VS]
    out = {}
    for cls, graphs in collections.items():
        results = success_rates([g.bitmatrix() for g in graphs], patterns, max_iter=6)
        rates = {}
        for m in MS:
            for v in VS:
                oks = results[str(VNMPattern(v, 2, m))]
                rates[(v, m)] = sum(oks) / len(oks)
        out[cls] = rates
    return out


def test_table8_print(table8):
    headers = ["V"] + [f"{cls}-V:2:{m}" for cls in ("small", "medium", "large") for m in MS]
    rows = []
    for v in VS:
        row = [f"V={v}"]
        for cls in ("small", "medium", "large"):
            for m in MS:
                row.append(f"{table8[cls][(v, m)]:.1%}")
        rows.append(row)
    print()
    print(render_table("Table 8: reordering success rate", headers, rows))


def test_success_decreases_with_v(table8):
    for cls, rates in table8.items():
        for m in MS:
            series = [rates[(v, m)] for v in VS]
            # Monotone non-increasing up to small-sample noise.
            assert series[0] >= series[-1], (cls, m, series)
            assert all(b <= a + 0.15 for a, b in zip(series, series[1:])), (cls, m, series)


def test_v1_rates_substantial(table8):
    # Paper: 49–72% of matrices succeed at V=1.
    for cls, rates in table8.items():
        assert rates[(1, 8)] > 0.3, (cls, rates[(1, 8)])


def test_wider_m_is_harder_at_v1(table8):
    for cls, rates in table8.items():
        assert rates[(1, 16)] <= rates[(1, 8)] + 0.1, cls


def test_bench_success_check(benchmark, collections):
    g = collections["small"][1]
    bm = g.bitmatrix()
    benchmark.pedantic(
        reordering_succeeds, args=(bm, VNMPattern(4, 2, 8)), kwargs={"max_iter": 4},
        iterations=1, rounds=3,
    )
