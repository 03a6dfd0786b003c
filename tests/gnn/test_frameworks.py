"""Experiment settings and framework timing harness (Table 3/4 machinery)."""

import numpy as np
import pytest

from repro.core import VNMPattern
from repro.gnn import (
    FRAMEWORKS,
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
    return load_dataset("cora", seed=2, scale=0.15)


@pytest.fixture(scope="module")
def prepared(ds):
    perm = reorder_for_graph(ds, PATTERN)
    return {
        s: prepare_setting(ds, s, PATTERN, permutation=perm)
        for s in SETTINGS
    }


class TestPrepare:
    def test_unknown_setting(self, ds):
        with pytest.raises(KeyError):
            prepare_setting(ds, "bogus", PATTERN)

    def test_default_original_uses_csr(self, prepared):
        from repro.sptc import CSRMatrix

        op, _ = prepared["default-original"].operators["gcn"]
        assert isinstance(op, CSRMatrix)

    def test_revised_uses_hybrid(self, prepared):
        from repro.sptc import HybridVNM

        op, _ = prepared["revised-reordered"].operators["gcn"]
        assert isinstance(op, HybridVNM)

    def test_reordered_graph_is_relabelled(self, prepared, ds):
        p = prepared["revised-reordered"]
        assert p.permutation is not None
        assert p.graph.n == ds.n
        assert p.graph.n_edges == ds.n_edges

    def test_prune_ratio_recorded(self, prepared):
        assert prepared["revised-pruned"].prune_ratio >= 0.0

    def test_pruned_operator_loses_mass(self, prepared):
        lossless = prepared["revised-reordered"].operators["gcn"][0]
        pruned = prepared["revised-pruned"].operators["gcn"][0]
        assert pruned.residual is None
        if prepared["revised-pruned"].prune_ratio > 0:
            kept = int((pruned.main.values != 0).sum())
            full = int((lossless.main.values != 0).sum()) + lossless.residual_nnz
            assert kept < full


class TestTimedForward:
    @pytest.mark.parametrize("framework", list(FRAMEWORKS))
    @pytest.mark.parametrize("model_name", ["gcn", "sgc"])
    def test_runs_and_separates_phases(self, prepared, framework, model_name):
        t = timed_forward(framework, model_name, prepared["default-original"], hidden=32)
        assert t.aggregation_seconds > 0
        assert t.update_seconds > 0
        assert t.total_seconds == pytest.approx(t.aggregation_seconds + t.update_seconds)

    def test_logits_identical_across_kernels(self, prepared):
        base = timed_forward("pyg", "gcn", prepared["default-original"], hidden=32, seed=0)
        rev = timed_forward("pyg", "gcn", prepared["revised-reordered"], hidden=32, seed=0)
        perm = prepared["revised-reordered"].permutation
        # Same trained weights (same seed): reordered logits are the permuted
        # original logits — reordering is lossless.
        assert np.allclose(rev.logits, base.logits[perm.order], atol=1e-8)

    def test_dgl_baseline_faster_than_pyg(self, prepared):
        pyg = timed_forward("pyg", "gcn", prepared["default-original"], hidden=32)
        dgl = timed_forward("dgl", "gcn", prepared["default-original"], hidden=32)
        assert dgl.aggregation_seconds <= pyg.aggregation_seconds


class TestSpeedups:
    def test_revised_reordered_speeds_up(self, prepared):
        s = gnn_speedups("pyg", "sgc", prepared["default-original"],
                         prepared["revised-reordered"], hidden=64)
        assert s["LYR"] > 1.0
        assert s["ALL"] > 1.0

    def test_lyr_at_least_all(self, prepared):
        s = gnn_speedups("pyg", "gcn", prepared["default-original"],
                         prepared["revised-reordered"], hidden=64)
        assert s["LYR"] >= s["ALL"] * 0.99

    def test_default_reordered_is_neutral(self, prepared):
        s = gnn_speedups("pyg", "gcn", prepared["default-original"],
                         prepared["default-reordered"], hidden=64)
        assert s["LYR"] == pytest.approx(1.0, abs=0.1)
        assert s["ALL"] == pytest.approx(1.0, abs=0.1)

    def test_pruned_speedup_close_to_reordered(self, prepared):
        a = gnn_speedups("pyg", "gcn", prepared["default-original"],
                         prepared["revised-pruned"], hidden=64)
        b = gnn_speedups("pyg", "gcn", prepared["default-original"],
                         prepared["revised-reordered"], hidden=64)
        assert a["LYR"] == pytest.approx(b["LYR"], rel=0.25)
