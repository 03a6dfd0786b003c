"""Benchmark-harness utilities."""

import pytest

from repro.bench import collection_counts, format_cell, full_scale, geomean, render_table


class TestGeomean:
    def test_basic(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single(self):
        assert geomean([5.0]) == pytest.approx(5.0)

    def test_ignores_nonpositive(self):
        assert geomean([4.0, 0.0, -1.0]) == pytest.approx(4.0)

    def test_empty(self):
        assert geomean([]) == 0.0

    def test_generator_input(self):
        assert geomean(x for x in (1.0, 4.0)) == pytest.approx(2.0)


class TestScaleFlags:
    def test_full_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert full_scale()
        assert collection_counts() == {"small": 444, "medium": 724, "large": 188}

    def test_default_ci_counts(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert not full_scale()
        counts = collection_counts()
        assert counts["small"] < 444


class TestRenderTable:
    def test_contains_title_headers_rows(self):
        out = render_table("My Table", ["a", "bb"], [[1, 2.5], ["x", 10000.0]])
        assert "== My Table ==" in out
        assert "a" in out and "bb" in out
        assert "2.50" in out
        assert "10,000" in out

    def test_column_alignment(self):
        out = render_table("t", ["col"], [[123456.0]])
        lines = out.splitlines()
        assert len(lines[1]) == len(lines[3])

    def test_format_cell(self):
        assert format_cell(0.0) == "0"
        assert format_cell(3.14159) == "3.14"
        assert format_cell(42.0) == "42.0"
        assert format_cell(1234567.0) == "1,234,567"
        assert format_cell("text") == "text"
        assert format_cell(7) == "7"


def test_bench_stage2_json_names_its_script():
    # A tracked result must come from the committed benchmark: regenerate
    # BENCH_stage2.json whenever benchmarks/bench_stage2.py changes.
    import hashlib
    import json
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    tracked = json.loads((root / "BENCH_stage2.json").read_text())
    script = (root / "benchmarks" / "bench_stage2.py").read_bytes()
    assert tracked["benchmark_sha256"] == hashlib.sha256(script).hexdigest()


def test_bench_artifact_json_names_its_script():
    # Same provenance rule for the artefact benchmark: regenerate
    # BENCH_artifact.json whenever benchmarks/bench_artifact.py changes.
    import hashlib
    import json
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    tracked = json.loads((root / "BENCH_artifact.json").read_text())
    script = (root / "benchmarks" / "bench_artifact.py").read_bytes()
    assert tracked["benchmark_sha256"] == hashlib.sha256(script).hexdigest()
