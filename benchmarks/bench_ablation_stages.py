"""Ablation — the design choices behind the dual-level algorithm.

The paper motivates (§4.1) iterating Stage-1 (vertical) and Stage-2
(horizontal) because the stages influence each other, and (§4.2) negating
position codes of invalid vectors so they don't contaminate healthy
meta-blocks.  This bench quantifies both choices on the medium class.
"""

import pytest

from repro.bench import render_table
from repro.core import VNMPattern, reorder

PATTERN = VNMPattern(4, 2, 8)


@pytest.fixture(scope="module")
def ablation(collections):
    out = []
    for g in collections["medium"]:
        bm = g.bitmatrix()
        variants = {
            "dual": reorder(bm, PATTERN, max_iter=5),
            "stage1-only": reorder(bm, PATTERN, max_iter=5, use_stage2=False),
            "stage2-only": reorder(bm, PATTERN, max_iter=5, use_stage1=False),
            "no-taint": reorder(bm, PATTERN, max_iter=5, taint_invalid=False),
        }
        out.append(
            {
                "name": g.name,
                "init": variants["dual"].initial_invalid_vectors
                + variants["dual"].initial_mbscore,
                **{
                    k: v.final_invalid_vectors + v.final_mbscore
                    for k, v in variants.items()
                },
            }
        )
    return out


def _total(ablation, key):
    return sum(r[key] for r in ablation)


def test_ablation_print(ablation):
    rows = [
        [r["name"], r["init"], r["dual"], r["stage1-only"], r["stage2-only"], r["no-taint"]]
        for r in ablation
    ]
    rows.append(
        ["TOTAL", _total(ablation, "init"), _total(ablation, "dual"),
         _total(ablation, "stage1-only"), _total(ablation, "stage2-only"),
         _total(ablation, "no-taint")]
    )
    print()
    print(
        render_table(
            "Ablation: remaining violations (PScore + MBScore) per variant",
            ["Matrix", "initial", "dual", "stage1-only", "stage2-only", "no-taint"],
            rows,
        )
    )


def test_dual_beats_single_stages(ablation):
    assert _total(ablation, "dual") <= _total(ablation, "stage1-only")
    assert _total(ablation, "dual") <= _total(ablation, "stage2-only")


def test_dual_no_worse_than_no_taint(ablation):
    # The negative-code taint should help (or at worst tie) in aggregate.
    assert _total(ablation, "dual") <= _total(ablation, "no-taint") * 1.05 + 5


def test_every_variant_improves(ablation):
    for r in ablation:
        for key in ("dual", "stage1-only", "stage2-only", "no-taint"):
            assert r[key] <= r["init"]


def test_bench_dual_reorder(benchmark, collections):
    g = collections["medium"][1]
    bm = g.bitmatrix()
    benchmark.pedantic(reorder, args=(bm, PATTERN), kwargs={"max_iter": 3}, iterations=1, rounds=3)
