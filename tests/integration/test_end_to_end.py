"""End-to-end pipeline: dataset → reorder → compress → GNN on the device."""

import numpy as np
import pytest

from repro.core import VNMPattern, find_best_pattern
from repro.gnn import (
    SETTINGS,
    gnn_speedups,
    prepare_setting,
    reorder_for_graph,
    timed_forward,
)
from repro.graphs import load_dataset

PATTERN = VNMPattern(1, 2, 4)


@pytest.fixture(scope="module")
def ds():
    return load_dataset("citeseer", seed=0, scale=0.15)


@pytest.fixture(scope="module")
def prepared(ds):
    perm = reorder_for_graph(ds, PATTERN)
    return {s: prepare_setting(ds, s, PATTERN, permutation=perm) for s in SETTINGS}


class TestFullPipeline:
    def test_best_pattern_search_on_dataset(self, ds):
        out = find_best_pattern(ds.bitmatrix(), max_iter=4)
        assert out.succeeded  # real-ish sparse graphs reach at least 1:2:4

    @pytest.mark.parametrize("model_name", ["gcn", "sage", "cheb", "sgc"])
    def test_speedup_hierarchy(self, prepared, model_name):
        s = gnn_speedups(
            "pyg", model_name, prepared["default-original"], prepared["revised-reordered"],
            hidden=64,
        )
        assert s["LYR"] > 1.0
        assert s["ALL"] >= 0.9  # end-to-end never collapses

    def test_sgc_gains_at_least_gcn(self, prepared):
        gcn = gnn_speedups("pyg", "gcn", prepared["default-original"],
                           prepared["revised-reordered"], hidden=64)
        sgc = gnn_speedups("pyg", "sgc", prepared["default-original"],
                           prepared["revised-reordered"], hidden=64)
        assert sgc["LYR"] >= gcn["LYR"] * 0.9

    def test_all_settings_produce_finite_logits(self, prepared):
        for setting, prep in prepared.items():
            t = timed_forward("dgl", "gcn", prep, hidden=32)
            assert np.isfinite(t.logits).all(), setting

    def test_reordered_logits_are_permuted_originals(self, prepared):
        base = timed_forward("pyg", "sage", prepared["default-original"], hidden=32, seed=1)
        reord = timed_forward("pyg", "sage", prepared["revised-reordered"], hidden=32, seed=1)
        perm = prepared["revised-reordered"].permutation
        assert np.allclose(reord.logits, base.logits[perm.order], atol=1e-8)

    def test_pruned_logits_differ(self, prepared):
        base = timed_forward("pyg", "gcn", prepared["default-original"], hidden=32, seed=1)
        pruned = timed_forward("pyg", "gcn", prepared["revised-pruned"], hidden=32, seed=1)
        if prepared["revised-pruned"].prune_ratio > 0:
            assert not np.allclose(pruned.logits, base.logits, atol=1e-8)
