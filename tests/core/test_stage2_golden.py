"""Golden permutation corpus: Stage-2 speed work must not change one output bit.

Each case maps (graph × pattern × gain policy) to the sha256 of the returned
``permutation.order`` plus the final violation counts and iteration counts.
The fixture ``data/stage2_golden.json`` was generated before Stage-2's gain
products moved to float64 and ``_freshtop`` was vectorised; every later
change to the reorder path must reproduce it byte for byte.

Every case runs with no time budget, so no result depends on wall clock.

Regenerate (only for a change that is *meant* to alter reorder output, and
say so in the change log)::

    PYTHONPATH=src python tests/core/test_stage2_golden.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core import NMPattern, VNMPattern, find_best_pattern, reorder
from repro.core.stage2 import stage2_reorder
from repro.graphs import load_dataset, suitesparse_like_collection

FIXTURE = Path(__file__).parent / "data" / "stage2_golden.json"

# (class, count, max_vertices) of the seeded collection graphs.
COLLECTION_SEED = 3
COLLECTION = (("small", 8, None), ("medium", 6, 1500))
REORDER_PATTERNS = ("1:2:4", "1:2:8", "1:2:16", "4:2:16", "1:2:32")
STAGE2_PATTERNS = ("2:4",)
POLICIES = {"freshtop": False, "positive": True}
STAND_INS = ("cora", "facebook", "amazon-ratings")
STAND_IN_SEED = 1


def order_sha(perm) -> str:
    """sha256 of a permutation's gather order as little-endian int64."""
    return hashlib.sha256(perm.order.astype("<i8").tobytes()).hexdigest()


@functools.lru_cache(maxsize=None)
def collection() -> dict:
    """The seeded collection graphs by name."""
    return {
        g.name: g
        for cls, count, max_vertices in COLLECTION
        for g in suitesparse_like_collection(
            cls, count=count, seed=COLLECTION_SEED, max_vertices=max_vertices
        )
    }


@functools.lru_cache(maxsize=None)
def graph_bitmatrix(name: str):
    """The case graph ``name``: a stand-in dataset or a collection graph."""
    if name in STAND_INS:
        return load_dataset(name, seed=STAND_IN_SEED).bitmatrix()
    return collection()[name].bitmatrix()


def _vnm(text: str) -> VNMPattern:
    return VNMPattern(*map(int, text.split(":")))


def _nm(text: str) -> NMPattern:
    return NMPattern(*map(int, text.split(":")))


def compute_case(case_id: str) -> dict:
    """Run one case: ``<kind>/<graph>/<pattern>[/<policy>]``."""
    kind, graph, *rest = case_id.split("/")
    bm = graph_bitmatrix(graph)
    if kind == "reorder":
        res = reorder(bm, _vnm(rest[0]), time_budget=None)
        return {
            "sha256": order_sha(res.permutation),
            "final_invalid_vectors": res.final_invalid_vectors,
            "final_mbscore": res.final_mbscore,
            "iterations": res.iterations,
        }
    if kind == "stage2":
        res = stage2_reorder(bm, _nm(rest[0]), require_positive_gain=POLICIES[rest[1]])
        return {
            "sha256": order_sha(res.permutation),
            "pscore_history": [int(s) for s in res.pscore_history],
            "iterations": res.iterations,
        }
    if kind == "search":
        best = find_best_pattern(bm, attempt_time_budget=None)
        return {
            "sha256": order_sha(best.result.permutation),
            "pattern": str(best.pattern),
            "attempts": [[str(pat), ok] for pat, ok in best.attempts],
            "final_invalid_vectors": best.result.final_invalid_vectors,
            "final_mbscore": best.result.final_mbscore,
            "iterations": best.result.iterations,
        }
    raise ValueError(case_id)


def case_ids() -> list[str]:
    ids = []
    for name in collection():
        ids += [f"reorder/{name}/{pat}" for pat in REORDER_PATTERNS]
        ids += [
            f"stage2/{name}/{pat}/{policy}" for pat in STAGE2_PATTERNS for policy in POLICIES
        ]
    for name in STAND_INS:
        ids += [
            f"reorder/{name}/1:2:32",
            f"stage2/{name}/2:32/freshtop",
            f"search/{name}",
        ]
    return ids


def load_golden() -> dict:
    return json.loads(FIXTURE.read_text())["cases"]


def test_fixture_covers_corpus():
    assert sorted(load_golden()) == sorted(case_ids())


@pytest.mark.parametrize("case_id", case_ids())
def test_matches_golden(case_id):
    assert compute_case(case_id) == load_golden()[case_id]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    cases = {}
    for cid in case_ids():
        cases[cid] = compute_case(cid)
        print(cid, cases[cid]["sha256"][:12], file=sys.stderr)
    FIXTURE.write_text(json.dumps({"cases": cases}, indent=1, sort_keys=True) + "\n")
