"""Substrate bench — partitioning quality for the distributed setting (§4.4).

Compares contiguous 1-D row blocking (what the paper's simple deployment
implies) against the multilevel partitioner on community-structured graphs:
edge cut, balance, and the induced share of off-diagonal (CSR-path) work in
:func:`repro.distributed.distributed_spmm`.
"""

import numpy as np
import pytest

from repro.bench import render_table
from repro.distributed import (
    edge_cut,
    multilevel_partition,
    partition_rows,
)
from repro.graphs import load_dataset, sbm_graph

N_PARTS = 4


@pytest.fixture(scope="module")
def partitioning():
    rows = []
    cases = []
    rng = np.random.default_rng(0)
    g, _ = sbm_graph(1200, 8, 0.05, 0.002, rng, name="sbm-8")
    cases.append(g)
    cases.append(load_dataset("cora", seed=0, scale=0.3))
    cases.append(load_dataset("computers", seed=0, scale=0.08))
    for g in cases:
        blocked_cut = edge_cut(g, partition_rows(g.n, N_PARTS))
        ml = multilevel_partition(g, N_PARTS, seed=0)
        rows.append(
            {
                "name": g.name,
                "edges": g.n_edges,
                "blocked_cut": blocked_cut,
                "ml_cut": ml.edge_cut,
                "ml_imbalance": ml.imbalance,
            }
        )
    return rows


def test_partitioning_print(partitioning):
    table = [
        [r["name"], r["edges"], r["blocked_cut"], r["ml_cut"],
         r["blocked_cut"] / max(r["ml_cut"], 1), f"{r['ml_imbalance']:.1%}"]
        for r in partitioning
    ]
    print()
    print(render_table(
        "Partitioning: 1-D blocking vs multilevel (4 parts)",
        ["Graph", "#edges", "blocked cut", "multilevel cut", "cut ratio", "imbalance"],
        table,
    ))


def test_multilevel_cuts_less_on_community_graphs(partitioning):
    sbm = partitioning[0]
    assert sbm["ml_cut"] < sbm["blocked_cut"]


def test_multilevel_balanced(partitioning):
    for r in partitioning:
        assert r["ml_imbalance"] < 0.15, r


def test_bench_multilevel(benchmark):
    rng = np.random.default_rng(1)
    g, _ = sbm_graph(600, 6, 0.06, 0.003, rng)
    res = benchmark.pedantic(multilevel_partition, args=(g, 4), kwargs={"seed": 0},
                             iterations=1, rounds=3)
    assert res.part_sizes().sum() == g.n
