"""Table 1 — SuiteSparse collection statistics.

Regenerates the population-statistics rows (#V, #E, average/max degree,
diameter) for the small/medium/large classes of the synthetic stand-in
collection and checks they land in the published regimes.
"""

import pytest

from repro.bench import render_table
from repro.graphs import SUITESPARSE_CLASSES, collection_stats


@pytest.fixture(scope="module")
def stats(collections):
    return {
        cls: collection_stats(graphs, with_diameter=True)
        for cls, graphs in collections.items()
    }


def test_table1_print(stats):
    rows = []
    for cls in ("small", "medium", "large"):
        s = stats[cls]
        for agg in ("avg", "med"):
            rows.append(
                [
                    cls if agg == "avg" else "",
                    agg.capitalize(),
                    s["n_vertices"][agg],
                    s["n_edges"][agg],
                    s["avg_degree"][agg],
                    s["max_degree"][agg],
                    s["diameter"][agg],
                    s["n_graphs"] if agg == "avg" else "",
                ]
            )
    print()
    print(
        render_table(
            "Table 1: SuiteSparse-like collection",
            ["Class", "", "#V", "#E", "Avg Degree", "Max Degree", "Diameter", "#Graphs"],
            rows,
        )
    )


def test_class_sizes_are_ordered(stats):
    v = [stats[c]["n_vertices"]["avg"] for c in ("small", "medium", "large")]
    assert v[0] < v[1] < v[2]
    e = [stats[c]["n_edges"]["avg"] for c in ("small", "medium", "large")]
    assert e[0] < e[1] < e[2]


def test_vertex_scale_matches_table1(stats):
    # Published averages: 426 / 3.6k / 22.6k — match within a small factor.
    for cls in ("small", "medium", "large"):
        spec = SUITESPARSE_CLASSES[cls]
        got = stats[cls]["n_vertices"]["avg"]
        assert 0.25 < got / spec.avg_vertices < 4.0, (cls, got)


def test_median_below_average(stats):
    # The published distributions are right-skewed (avg > med for #V and #E).
    for cls in ("small", "medium", "large"):
        assert stats[cls]["n_edges"]["med"] <= stats[cls]["n_edges"]["avg"]


def test_bench_collection_generation(benchmark):
    from repro.graphs import suitesparse_like_collection

    out = benchmark(suitesparse_like_collection, "small", 8, 7)
    assert len(out) == 8
