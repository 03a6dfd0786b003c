"""Table 5 — accuracy: lossless reordering vs lossy magnitude pruning.

Trains each model once per dataset, then evaluates the trained weights on
(a) the reordered graph — accuracy must be *identical* (reordering only
renames vertices) — and (b) the magnitude-pruned graph — accuracy drops
because removed edges carry label information.

Reported per dataset: adjacency sparsity, prune ratio, and per-model
reorder/prune accuracies with the loss in brackets, exactly like the paper.
"""

import os

import numpy as np
import pytest

from repro.bench import render_table
from repro.gnn import evaluate, make_aggregator, train_node_classifier
from repro.gnn.frameworks import reorder_for_graph
from repro.gnn.training import aggregator_kind_for
from repro.prune import prune_graph

MODELS = ("gcn", "sage", "cheb", "sgc")
# facebook is omitted at CI scale: its published shape (193 classes) cannot
# be learned by a 300-vertex stand-in, so every setting scores ~0 and the
# reorder-vs-prune contrast is vacuous.  REPRO_FULL-scale runs include it.
_FULL = os.environ.get("REPRO_FULL", "0") not in ("", "0", "false")
DATASETS = (
    ("cora", "citeseer", "facebook", "computers")
    if _FULL
    else ("cora", "citeseer", "cs", "computers")
)
EPOCHS = 30


@pytest.fixture(scope="module")
def table5(gnn_datasets, best_patterns):
    out = {}
    for name in DATASETS:
        g = gnn_datasets[name]
        pattern = best_patterns[name]
        perm = reorder_for_graph(g, pattern)
        reordered = g.relabel(perm)
        pruned, prune_stats = prune_graph(g, pattern)
        per_model = {}
        for model_name in MODELS:
            trained = train_node_classifier(g, model_name, epochs=EPOCHS, seed=0)
            kind = aggregator_kind_for(model_name)
            acc_reorder = evaluate(trained.model, reordered, make_aggregator(reordered, kind))["test"]
            acc_pruned = evaluate(trained.model, pruned, make_aggregator(pruned, kind))["test"]
            per_model[model_name] = {
                "base": trained.test_accuracy,
                "reorder": acc_reorder,
                "prune": acc_pruned,
            }
        out[name] = {
            "sparsity": g.density(),
            "prune_ratio": prune_stats.prune_ratio,
            "models": per_model,
        }
    return out


def test_table5_print(table5):
    headers = ["Dataset", "Sparsity", "Prune ratio"]
    for m in MODELS:
        headers += [f"{m}-reorder", f"{m}-prune"]
    rows = []
    for name, rec in table5.items():
        row = [name, f"{rec['sparsity']:.2%}", f"{rec['prune_ratio']:.2%}"]
        for m in MODELS:
            cell = rec["models"][m]
            drop = (cell["prune"] - cell["reorder"]) / max(cell["reorder"], 1e-9)
            row += [f"{cell['reorder']:.4f}", f"{cell['prune']:.4f} ({drop:+.2%})"]
        rows.append(row)
    print()
    print(render_table("Table 5: accuracy — reorder (lossless) vs prune (lossy)", headers, rows))


def test_reorder_accuracy_identical(table5):
    for name, rec in table5.items():
        for m, cell in rec["models"].items():
            assert cell["reorder"] == pytest.approx(cell["base"], abs=1e-12), (name, m)


def test_prune_never_systematically_better(table5):
    drops = [
        cell["reorder"] - cell["prune"]
        for rec in table5.values()
        for cell in rec["models"].values()
    ]
    # On average pruning loses accuracy; individual cells may tie when the
    # prune ratio is tiny.
    assert np.mean(drops) > 0.0


def test_some_datasets_show_clear_loss(table5):
    worst = min(
        cell["prune"] - cell["reorder"]
        for rec in table5.values()
        for cell in rec["models"].values()
    )
    assert worst < -0.005


def test_bench_training_epoch(benchmark, gnn_datasets):
    g = gnn_datasets["cora"]
    out = benchmark.pedantic(
        train_node_classifier, args=(g, "gcn"), kwargs={"epochs": 2, "seed": 0},
        iterations=1, rounds=3,
    )
    assert out.losses
