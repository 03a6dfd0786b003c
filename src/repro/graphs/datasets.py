"""GNN dataset registry — synthetic stand-ins for the paper's Table 2.

Each entry records the published dataset characteristics (#V, #E, #features,
#classes).  :func:`load_dataset` materializes a seeded SBM graph with those
shapes: labels are block ids and features are class-informative Gaussians, so
edges genuinely carry label information (pruning them costs accuracy, as the
paper's Table 5 requires).  The huge OGBN graphs are represented by their
*sampled subgraphs* — the paper itself only ever feeds NeighborSampler
outputs of the listed average sizes to the kernels (§5.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import sbm_graph
from .graph import Graph

__all__ = ["DatasetSpec", "TABLE2_DATASETS", "OGBN_SAMPLE_SIZES", "load_dataset", "dataset_names"]


@dataclass(frozen=True)
class DatasetSpec:
    """Published characteristics of one GNN dataset (paper Table 2)."""

    name: str
    n_vertices: int
    n_edges: int
    n_features: int
    n_classes: int
    # Scale applied when materializing the synthetic stand-in (1.0 = full
    # size).  Large graphs are downscaled for laptop-class experiments; the
    # sampled-subgraph path (Table 6) uses OGBN_SAMPLE_SIZES instead.
    materialize_scale: float = 1.0
    feature_scale: float = 1.0


TABLE2_DATASETS: dict[str, DatasetSpec] = {
    "cora": DatasetSpec("cora", 2708, 10556, 1433, 7, feature_scale=0.25),
    "citeseer": DatasetSpec("citeseer", 3327, 9104, 3703, 6, feature_scale=0.1),
    "facebook": DatasetSpec("facebook", 4039, 88234, 1283, 193, feature_scale=0.25),
    "computers": DatasetSpec("computers", 13752, 491722, 767, 10, materialize_scale=0.5),
    "cs": DatasetSpec("cs", 18333, 163788, 6805, 15, materialize_scale=0.4, feature_scale=0.05),
    "corafull": DatasetSpec("corafull", 19793, 126842, 8710, 70, materialize_scale=0.4,
                            feature_scale=0.04),
    "amazon-ratings": DatasetSpec("amazon-ratings", 24492, 93050, 300, 5, materialize_scale=0.4),
    "physics": DatasetSpec("physics", 34493, 495924, 8415, 5, materialize_scale=0.25,
                           feature_scale=0.04),
    "ogbn-proteins": DatasetSpec("ogbn-proteins", 132534, 39561252, 128, 2, materialize_scale=0.05),
    "ogbn-products": DatasetSpec("ogbn-products", 2449029, 61859140, 100, 47,
                                 materialize_scale=0.004),
    "ogbn-arxiv": DatasetSpec("ogbn-arxiv", 169343, 1166243, 128, 40, materialize_scale=0.03),
    "ogbn-papers100m": DatasetSpec("ogbn-papers100M", 111059956, 1615685872, 128, 172,
                                   materialize_scale=0.0001),
}

# Average sampled-subgraph vertex counts the paper reports for §5.2.
OGBN_SAMPLE_SIZES = {
    "ogbn-proteins": 24604,
    "ogbn-arxiv": 2514,
    "ogbn-products": 19833,
    "ogbn-papers100M": 7607,
}


def dataset_names() -> list[str]:
    """Names of the 12 registered Table-2 datasets."""
    return list(TABLE2_DATASETS)


def _attach_payload(
    g: Graph, blocks: np.ndarray, spec: DatasetSpec, rng: np.random.Generator
) -> Graph:
    n = g.n
    n_feat = max(8, int(spec.n_features * spec.feature_scale))
    centers = rng.normal(0.0, 1.0, size=(spec.n_classes, n_feat))
    feats = centers[blocks] * 0.6 + rng.normal(0.0, 1.0, size=(n, n_feat))
    labels = blocks.astype(np.int64)
    order = rng.permutation(n)
    n_train = max(spec.n_classes * 4, int(0.3 * n))
    n_val = max(1, int(0.2 * n))
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    train[order[:n_train]] = True
    val[order[n_train : n_train + n_val]] = True
    test[order[n_train + n_val :]] = True
    g.features = feats.astype(np.float64)
    g.labels = labels
    g.train_mask = train
    g.val_mask = val
    g.test_mask = test
    return g


def load_dataset(name: str, *, seed: int = 0, scale: float | None = None) -> Graph:
    """Materialize a synthetic stand-in with the dataset's published shape.

    ``scale`` overrides the spec's default materialization scale (1.0 builds
    the full published vertex count — feasible for the eight Table-3/5
    datasets, expensive for OGBN).
    """
    key = name.lower()
    if key not in TABLE2_DATASETS:
        raise KeyError(f"unknown dataset {name!r}; known: {dataset_names()}")
    spec = TABLE2_DATASETS[key]
    eff_scale = spec.materialize_scale if scale is None else scale
    n = max(64, int(spec.n_vertices * eff_scale))
    target_edges = max(n, int(spec.n_edges * eff_scale))
    # Keep the published average degree when downscaling.
    avg_degree = 2.0 * spec.n_edges / spec.n_vertices
    target_edges = int(n * avg_degree / 2)
    rng = np.random.default_rng(seed + (sum(map(ord, key)) % 7919))
    blocks_needed = spec.n_classes
    # 85% of edge mass intra-block: strong label signal in the structure.
    # When blocks are small the intra probability saturates; the remainder of
    # the edge budget spills into the inter-block rate so the published edge
    # count is preserved either way.
    block_size = n / blocks_needed
    intra_pairs = n * max(block_size - 1, 0.0) / 2.0
    inter_pairs = max(n * (n - 1) / 2.0 - intra_pairs, 1.0)
    p_in = min(0.9, 0.85 * target_edges / max(intra_pairs, 1.0))
    expected_intra = p_in * intra_pairs
    p_out = min(0.9, max(target_edges - expected_intra, 0.0) / inter_pairs)
    g, blocks = sbm_graph(n, blocks_needed, p_in, p_out, rng, name=spec.name)
    return _attach_payload(g, blocks, spec, rng)
