"""Command-line interface."""

import pytest

from repro.cli import build_parser, main, parse_pattern
from repro.core import VNMPattern
from repro.graphs import graph_to_mtx, sbm_graph


@pytest.fixture
def mtx_file(tmp_path, rng):
    g, _ = sbm_graph(80, 3, 0.15, 0.01, rng)
    path = tmp_path / "g.mtx"
    graph_to_mtx(g, path)
    return str(path)


class TestParsePattern:
    def test_nm(self):
        assert parse_pattern("2:4") == VNMPattern(1, 2, 4)

    def test_vnm(self):
        assert parse_pattern("16:2:8") == VNMPattern(16, 2, 8)

    def test_bad(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_pattern("abc")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_pattern("1:2:3:4")


class TestCommands:
    def test_reorder_roundtrip(self, mtx_file, tmp_path, capsys):
        out = str(tmp_path / "out.mtx")
        code = main(["reorder", mtx_file, "--pattern", "2:4", "--output", out])
        text = capsys.readouterr().out
        assert "improvement_rate" in text
        assert (tmp_path / "out.mtx").exists()
        assert code in (0, 1)

    def test_reorder_output_is_symmetric(self, mtx_file, tmp_path):
        from repro.graphs import graph_from_mtx

        out = str(tmp_path / "out.mtx")
        main(["reorder", mtx_file, "--output", out])
        g = graph_from_mtx(out)
        assert g.bitmatrix().is_symmetric()

    def test_survey(self, mtx_file, capsys):
        code = main(["survey", mtx_file, "--max-iter", "3"])
        text = capsys.readouterr().out
        assert "best pattern" in text or "no conforming" in text
        assert code in (0, 1)

    def test_collection(self, capsys):
        code = main(["collection", "small", "--count", "5"])
        text = capsys.readouterr().out
        assert "small class (5 graphs)" in text
        assert code == 0

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestPipelineCommands:
    def test_preprocess_miss_then_hit(self, mtx_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ["preprocess", mtx_file, "--pattern", "2:4",
                "--cache-dir", cache_dir, "--workers", "1"]
        code = main(args)
        first = capsys.readouterr().out
        assert code == 0
        assert "preprocessed" in first
        assert "cache hit" not in first

        code = main(args)
        second = capsys.readouterr().out
        assert code == 0
        assert "cache hit" in second

    def test_preprocess_autoselect(self, mtx_file, tmp_path, capsys):
        code = main(["preprocess", mtx_file, "--max-iter", "3",
                     "--cache-dir", str(tmp_path / "cache")])
        text = capsys.readouterr().out
        assert code == 0
        assert "pattern" in text

    def test_serve_is_bitwise_exact(self, mtx_file, tmp_path, capsys):
        code = main(["serve", mtx_file, "--pattern", "2:4",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--requests", "2", "--h", "16"])
        text = capsys.readouterr().out
        assert code == 0
        assert "bitwise-equal to dense reference: True" in text
        assert "False" not in text

    def test_stats_counts_plan_sidecars(self, mtx_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["preprocess", mtx_file, "--pattern", "2:4",
                     "--cache-dir", cache_dir, "--max-iter", "3"]) == 0
        capsys.readouterr()
        code = main(["stats", "--cache-dir", cache_dir])
        text = capsys.readouterr().out
        assert code == 0
        assert "plan sidecars: 1" in text


class TestTelemetryCommands:
    def test_serve_with_telemetry_plane(self, mtx_file, tmp_path, capsys):
        code = main(["serve", mtx_file, "--pattern", "2:4",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--requests", "2", "--h", "8",
                     "--telemetry-port", "0",
                     "--slo", "latency:0.5", "--slo", "vnm_rows:0.5"])
        text = capsys.readouterr().out
        assert code == 0
        assert "telemetry" in text
        assert "bitwise-equal to dense reference: True" in text

    def test_bad_slo_spec_is_usage_error(self, mtx_file, tmp_path, capsys):
        code = main(["serve", mtx_file, "--pattern", "2:4",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--requests", "1",
                     "--telemetry-port", "0", "--slo", "bogus:spec"])
        text = capsys.readouterr().out
        assert code == 2
        assert "bad --slo spec" in text

    def test_top_renders_frames_from_live_plane(self, capsys):
        from repro.obs import MetricsRegistry, MetricWindows, TelemetryServer

        reg = MetricsRegistry()
        reg.counter("serve_path_rows_total", backend="vnm").inc(80)
        reg.counter("serve_path_rows_total", backend="csr").inc(20)
        with TelemetryServer(reg, windows=MetricWindows(reg)) as srv:
            # A two-shard deployment whose requests are far slower than
            # either shard's sub-requests (a straggling merge).
            reg.counter("router_requests_total").inc(3)
            for _ in range(3):
                reg.histogram("router_latency_seconds").observe(0.4)
            for shard in ("0", "1"):
                reg.counter("serve_requests_total", shard=shard).inc(3)
                for _ in range(3):
                    reg.histogram("spmm_latency_seconds", shard=shard).observe(0.002)
                reg.gauge("router_in_flight", shard=shard).set(1.0)
            srv.sample()
            code = main(["top", "--url", srv.url, "--frames", "2",
                         "--interval", "0.01", "--no-clear"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("repro top") == 2
        assert "rows by path" in out
        assert "vnm" in out and "80.0%" in out
        # The header reads the router's request series, not shard 0's
        # sub-request series; in-flight is summed over the shards.
        header = next(line for line in out.splitlines() if line.startswith("qps("))
        header_p95 = header.split("p95(60s) ")[1].split()[0]
        shard_row = next(line for line in out.splitlines()
                         if line.split()[:1] == ["0"])
        assert header_p95.endswith("ms") and float(header_p95[:-2]) >= 100.0
        assert header_p95 not in shard_row
        assert "inflight 2" in header

    def test_top_scrape_failure_is_an_error(self, capsys):
        code = main(["top", "--url", "http://127.0.0.1:1",  # nothing there
                     "--frames", "1", "--no-clear"])
        assert code == 1
        assert "failed" in capsys.readouterr().out

    def test_stats_trace_file_renders_tree(self, tmp_path, capsys):
        import json

        from repro.obs import SpanRecord

        root = SpanRecord("serve.request", duration=0.01,
                          children=[SpanRecord("kernel", duration=0.008)])
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps([root.to_dict()]))
        code = main(["stats", "--trace-file", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "serve.request" in out and "kernel" in out

    def test_stats_chrome_export(self, tmp_path, capsys):
        import json

        from repro.obs import SpanRecord

        root = SpanRecord("serve.request", duration=0.01,
                          children=[SpanRecord("kernel", duration=0.008)])
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(root.to_dict()))  # single dict also fine
        chrome = tmp_path / "chrome.json"
        code = main(["stats", "--trace-file", str(trace),
                     "--chrome-out", str(chrome)])
        assert code == 0
        doc = json.loads(chrome.read_text())
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert names == ["serve.request", "kernel"]

    def test_chrome_out_requires_trace_file(self, capsys):
        code = main(["stats", "--chrome-out", "x.json"])
        assert code == 2
