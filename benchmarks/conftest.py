"""Shared fixtures for the benchmark harness.

Heavy preprocessing (collection generation, reordering, setting preparation)
is session-scoped so each table/figure bench reuses it — mirroring the
paper's offline-preprocessing methodology (§4.4: reorder once, reuse often).

Scale: CI-sized populations by default; set ``REPRO_FULL=1`` for paper-scale
runs (SuiteSparse class sizes of Table 1, full dataset vertex counts).
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

from repro.bench import collection_counts
from repro.core import VNMPattern, find_best_pattern
from repro.gnn import SETTINGS, prepare_setting, reorder_for_graph
from repro.graphs import load_dataset, suitesparse_like_collection

TABLE3_DATASETS = (
    "cora",
    "citeseer",
    "facebook",
    "computers",
    "cs",
    "corafull",
    "amazon-ratings",
    "physics",
)

# Dataset scales used by the GNN benches (kept modest so that preprocessing
# across 8 datasets stays in CI budget; REPRO_FULL bumps them).
BENCH_SCALE = {name: 0.08 for name in TABLE3_DATASETS}


def pytest_addoption(parser):
    parser.addoption(
        "--json-out",
        default=None,
        metavar="DIR",
        help="write one BENCH_<name>.json per bench case (wall time + a "
             "snapshot of repro's default metrics registry) into DIR",
    )


def _slug(nodeid: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", nodeid.split("::", 1)[-1]).strip("_")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """With ``--json-out DIR``, record each case's wall time and the delta
    of the process-wide metrics registry as ``DIR/BENCH_<name>.json``."""
    out_dir = item.config.getoption("--json-out")
    if not out_dir:
        yield
        return
    from repro.obs import default_registry

    before = default_registry().snapshot()
    t0 = time.perf_counter()
    outcome = yield
    duration = time.perf_counter() - t0
    payload = {
        "nodeid": item.nodeid,
        "duration_seconds": duration,
        "passed": outcome.excinfo is None,
        "metrics_before": before,
        "metrics_after": default_registry().snapshot(),
    }
    dest = Path(out_dir)
    dest.mkdir(parents=True, exist_ok=True)
    (dest / f"BENCH_{_slug(item.nodeid)}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    )


@pytest.fixture(scope="session")
def collections():
    """The synthetic SuiteSparse stand-in, one list of graphs per class.

    CI runs cap the per-class graph sizes so the reordering-heavy benches
    finish in minutes; ``REPRO_FULL=1`` removes the caps (and raises the
    population counts to Table 1's).
    """
    from repro.bench import full_scale

    counts = collection_counts()
    caps = {"small": None, "medium": 4000, "large": 9000} if not full_scale() else {}
    return {
        cls: suitesparse_like_collection(
            cls, counts[cls], seed=42, max_vertices=caps.get(cls)
        )
        for cls in ("small", "medium", "large")
    }


@pytest.fixture(scope="session")
def gnn_datasets():
    """The eight Table-3 datasets at bench scale."""
    import os

    full = os.environ.get("REPRO_FULL", "0") not in ("", "0", "false")
    out = {}
    for name in TABLE3_DATASETS:
        scale = None if full else BENCH_SCALE[name]
        out[name] = load_dataset(name, seed=0, scale=scale)
    return out


@pytest.fixture(scope="session")
def best_patterns(gnn_datasets):
    """Best V:N:M per dataset, found with the paper's doubling procedure."""
    out = {}
    for name, g in gnn_datasets.items():
        found = find_best_pattern(g.bitmatrix(), max_iter=6)
        out[name] = found.pattern if found.succeeded else VNMPattern(1, 2, 4)
    return out


@pytest.fixture(scope="session")
def prepared_settings(gnn_datasets, best_patterns):
    """All four experiment settings, prepared once per dataset."""
    out = {}
    for name, g in gnn_datasets.items():
        pattern = best_patterns[name]
        perm = reorder_for_graph(g, pattern)
        out[name] = {
            s: prepare_setting(g, s, pattern, permutation=perm) for s in SETTINGS
        }
    return out
