"""Distributed large-graph GNN — the paper's §5.2 experiment.

A large OGBN-style graph is sampled into subgraphs with NeighborSampler;
each sample is reordered offline; the SGC model then runs over all samples
on a 4-device emulated cluster, comparing the SPTC pipeline against the CSR
baseline.

Run:  python examples/distributed_ogbn.py [dataset]
"""

import sys

from repro.bench import render_table
from repro.core import VNMPattern
from repro.distributed import Cluster, edge_cut, partition_rows
from repro.gnn import prepare_setting, reorder_for_graph
from repro.graphs import OGBN_SAMPLE_SIZES, load_dataset, sample_ogbn_like_subgraphs

PATTERN = VNMPattern(1, 2, 4)


def main(dataset: str = "ogbn-arxiv") -> None:
    graph = load_dataset(dataset, seed=0)
    print(f"{dataset} stand-in: {graph.n} vertices, {graph.n_edges} edges")

    # 1-D partition diagnostics (the §4.4 deployment mode).
    parts = partition_rows(graph.n, 4)
    print(f"4-way 1-D partition: edge cut {edge_cut(graph, parts)} of {graph.n_edges}")

    # Sample subgraphs like the paper does for multi-GPU runs.
    target = max(64, OGBN_SAMPLE_SIZES.get(dataset, 2000) // 50)
    samples = sample_ogbn_like_subgraphs(graph, target, 4, seed=0)
    avg = sum(s.n for s in samples) / len(samples)
    print(f"sampled {len(samples)} subgraphs, avg {avg:.0f} vertices")

    # Offline reordering per sample, then parallel execution on 4 devices.
    perms = [reorder_for_graph(s, PATTERN) for s in samples]
    base_prep = [prepare_setting(s, "default-original", PATTERN) for s in samples]
    fast_prep = [
        prepare_setting(s, "revised-reordered", PATTERN, permutation=p)
        for s, p in zip(samples, perms)
    ]
    cluster = Cluster(n_devices=4, framework="pyg")
    base = cluster.run_gnn(samples, "sgc", "default-original", PATTERN, prepared=base_prep)
    fast = cluster.run_gnn(samples, "sgc", "revised-reordered", PATTERN, prepared=fast_prep)

    rows = [
        ["aggregation (LYR)", base.aggregation_seconds * 1e6, fast.aggregation_seconds * 1e6,
         base.aggregation_seconds / fast.aggregation_seconds],
        ["end-to-end (ALL)", base.total_seconds * 1e6, fast.total_seconds * 1e6,
         base.total_seconds / fast.total_seconds],
        ["makespan (4 devices)", base.makespan * 1e6, fast.makespan * 1e6,
         base.makespan / fast.makespan],
    ]
    print()
    print(render_table(
        f"{dataset}: SGC on 4 emulated A100s",
        ["metric", "CSR baseline (us)", "SPTC reordered (us)", "speedup"],
        rows,
    ))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "ogbn-arxiv")
