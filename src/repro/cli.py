"""Command-line interface.

Usage::

    python -m repro reorder  INPUT.mtx [--pattern V:N:M] [--output OUT.mtx]
    python -m repro survey   INPUT.mtx [--h 128]
    python -m repro collection CLASS [--count N] [--seed S]
    python -m repro preprocess INPUT.mtx [...] --cache-dir DIR [--workers N]
                          [--pool] [--profile]
    python -m repro serve INPUT.mtx --cache-dir DIR [--h 64] [--requests N]
                          [--shards N] [--replicas R] [--executor thread|process]
                          [--max-retries N] [--deadline SECONDS]
                          [--breakers] [--breaker-threshold N] [--breaker-cooldown S]
                          [--max-queue-depth N] [--shed-deadline SECONDS]
                          [--metrics-file M.json] [--trace-file T.json]
                          [--telemetry-port P] [--slo SPEC] [--hold SECONDS]
    python -m repro top [--url http://127.0.0.1:9464] [--interval S] [--frames N]
    python -m repro stats [--metrics-file M.json] [--cache-dir DIR]
                          [--trace-file T.json [--chrome-out C.json]]
    python -m repro doctor --cache-dir DIR [--selftest] [--shm-sweep]

``reorder`` writes the reordered (still symmetric) matrix and prints the
conformity report; ``survey`` runs the best-pattern search and the modelled
SpMM comparison for one matrix; ``collection`` prints Table-1-style stats of
the synthetic SuiteSparse stand-in; ``preprocess`` runs the offline
pipeline (autoselect → reorder → compress) into a content-addressed
artifact cache, fanning batches out over ``--workers`` processes
(``--pool`` keeps a warm shared-memory worker pool, ``--profile`` prints
the run's span tree); ``serve`` answers SpMM requests from those artefacts
through the :class:`~repro.pipeline.sharded.ShardRouter` front door
(``--shards`` row shards × ``--replicas`` replicas per shard on
``--executor`` lanes; retrying/degrading per ``--max-retries`` /
``--deadline``, ``--breakers`` guarding every kernel call with per-backend circuit
breakers, ``--max-queue-depth`` / ``--shed-deadline`` shedding overload at
admission — see ``docs/resilience.md``, ``--telemetry-port`` starting the
live telemetry plane — ``/metrics``, ``/healthz``, ``/readyz``,
``/debug/requests`` plus the request flight recorder, with ``--slo``
declaring burn-rate objectives and ``--hold`` keeping the server
scrapeable after the demo requests — see ``docs/telemetry.md``) and
verifies the output against the dense reference,
optionally exporting metrics/trace files; ``top`` polls a telemetry
server's ``/metrics`` and renders a live qps / windowed-p95 / row-share /
breaker / SLO-burn frame per interval; ``stats`` pretty-prints a metrics
export and/or cache-directory statistics (including execution-plan
sidecars), and with ``--trace-file`` renders
a span-tree export (``--chrome-out`` converts it to Chrome trace-event
JSON for chrome://tracing or Perfetto); ``doctor`` fsck-checks a cache
directory, quarantining corrupt artefacts and cleaning half-written temp
files, with ``--selftest`` runs a tiny operand through every
compressible backend under a scoped breaker board, and with
``--shm-sweep`` reclaims shared-memory segments orphaned by killed
workers (``serve --executor process`` runs each shard replica as a forked
worker over a zero-copy shm ring — see ``docs/sharding.md``).

Output goes through the ``repro`` logger hierarchy (see
:func:`repro.obs.logging_setup`); ``-v/--verbose`` raises it to DEBUG and
``-q/--quiet`` lowers it to WARNING.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from .bench import render_table
from .core import VNMPattern, find_best_pattern, patterns, reorder
from .graphs import collection_stats, graph_from_mtx, graph_to_mtx, suitesparse_like_collection
from .obs import MetricsRegistry, logging_setup, use_tracer
from .sptc import CSRMatrix, CostModel, HybridVNM, SpmmWorkload

__all__ = ["main", "parse_pattern"]

logger = logging.getLogger("repro.cli")


def parse_pattern(text: str) -> VNMPattern:
    """``--pattern``'s argparse type: :func:`repro.core.patterns.parse_pattern`."""
    try:
        return patterns.parse_pattern(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _cmd_reorder(args) -> int:
    graph = graph_from_mtx(args.input)
    res = reorder(graph.bitmatrix(), args.pattern, max_iter=args.max_iter,
                  time_budget=args.time_budget)
    for key, value in res.summary().items():
        logger.info(f"{key}: {value}")
    if args.output:
        reordered = graph.relabel(res.permutation)
        graph_to_mtx(reordered, args.output)
        logger.info(f"wrote {args.output}")
    return 0 if res.conforms else 1


def _cmd_survey(args) -> int:
    graph = graph_from_mtx(args.input)
    bm = graph.bitmatrix()
    logger.info(
        f"{args.input}: {graph.n} vertices, nnz {bm.nnz()}, density {bm.density():.4%}"
    )
    best = find_best_pattern(bm, max_iter=args.max_iter)
    if not best.succeeded:
        logger.info("no conforming V:N:M pattern found")
        return 1
    logger.info(f"best pattern: {best.pattern}")
    for pat, ok in best.attempts:
        logger.info(f"  tried {pat}: {'conforms' if ok else 'fails'}")
    cm = CostModel()
    csr = CSRMatrix.from_scipy(best.result.matrix.to_scipy())
    hy = HybridVNM.compress_csr(csr, best.pattern)
    t_csr = cm.time_csr_spmm(SpmmWorkload.from_csr(csr, args.h))
    t_sptc = hy.model_time(cm, args.h)
    logger.info(f"modelled SpMM (H={args.h}): CSR {t_csr * 1e6:.1f}us, "
                f"SPTC {t_sptc * 1e6:.1f}us, speedup {t_csr / t_sptc:.2f}x")
    return 0


def _cmd_collection(args) -> int:
    graphs = suitesparse_like_collection(args.cls, args.count, seed=args.seed)
    stats = collection_stats(graphs, with_diameter=args.diameter)
    rows = []
    for key, agg in stats.items():
        if key == "n_graphs":
            continue
        rows.append([key, agg["avg"], agg["med"]])
    logger.info(render_table(f"{args.cls} class ({stats['n_graphs']} graphs)",
                             ["stat", "avg", "med"], rows))
    return 0


def _build_plan(args):
    from .pipeline import PreprocessPlan

    return PreprocessPlan(
        pattern=args.pattern,
        backend=args.backend,
        max_iter=args.max_iter,
        time_budget=args.time_budget,
    )


def _cmd_preprocess(args) -> int:
    from .pipeline import ArtifactCache, preprocess_many

    graphs = [graph_from_mtx(path) for path in args.inputs]
    cache = ArtifactCache(args.cache_dir)
    pool = None
    if args.pool:
        from .perf import WorkerPool

        pool = WorkerPool(args.workers)
        pool.warm()
        logger.info(f"warmed persistent pool: {pool.n_workers} worker(s)")
    try:
        if args.profile:
            with use_tracer() as tracer:
                results = preprocess_many(
                    graphs, _build_plan(args), n_workers=args.workers,
                    pool=pool, cache=cache,
                )
        else:
            tracer = None
            results = preprocess_many(
                graphs, _build_plan(args), n_workers=args.workers,
                pool=pool, cache=cache,
            )
    finally:
        if pool is not None:
            pool.close()
    for path, res in zip(args.inputs, results):
        status = "cache hit" if res.cached else "preprocessed"
        logger.info(f"{path}: {status} — pattern {res.pattern}, backend {res.backend}, "
                    f"key {res.cache_key}")
        if not res.cached and res.summary:
            logger.info(f"  reorder: {res.summary.get('iterations')} iterations, "
                        f"improvement {res.summary.get('improvement_rate', 0.0):.2%}, "
                        f"conforms {res.summary.get('conforms')}")
    logger.info(f"cache {cache.cache_dir}: {len(cache)} artefact(s), "
                f"{cache.stats.hits} hit(s), {cache.stats.misses} miss(es)")
    if tracer is not None:
        logger.info("profile (wall time per span):")
        logger.info(tracer.render())
    return 0


def _cmd_shard(args) -> int:
    """Offline shard build: preprocess once, cache one artefact per shard."""
    from .pipeline import ArtifactCache, preprocess
    from .pipeline.sharded import shard_result

    graph = graph_from_mtx(args.input)
    cache = ArtifactCache(args.cache_dir)
    result = preprocess(graph, _build_plan(args), cache=cache)
    logger.info(
        f"{args.input}: {'loaded cached artefact' if result.cached else 'preprocessed'} "
        f"(pattern {result.pattern}, backend {result.backend}, key {result.cache_key})"
    )
    shards = shard_result(result, n_shards=args.shards, cache=cache)
    for entry in shards.summary()["shards"]:
        status = "cache hit" if entry["cached"] else "compressed"
        logger.info(f"shard {entry['index']}: rows {entry['rows'][0]}-"
                    f"{entry['rows'][1]} ({entry['size']}), {status}, "
                    f"key {entry['cache_key']}")
    logger.info(f"{shards.n_shards} shard(s), tile align {shards.align}, "
                f"cache {cache.cache_dir}: {len(cache)} artefact(s)")
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(shards.summary(), indent=2) + "\n")
        logger.info(f"wrote shard layout to {args.json_out}")
    return 0


def _cmd_serve(args) -> int:
    from .pipeline import ArtifactCache, RetryPolicy, preprocess, registry
    from .pipeline.guard import (
        AdmissionPolicy,
        BreakerConfig,
        active_breakers,
        enable_breakers,
    )
    from .pipeline.sharded import ShardRouter, shard_result

    # The telemetry plane needs a live registry even without --metrics-file.
    metrics = (MetricsRegistry()
               if args.metrics_file or args.telemetry_port is not None
               else None)

    telemetry = None
    recorder = None
    windows = None
    holder: dict = {}  # the router, once built, for /healthz
    if args.telemetry_port is not None:
        from .obs import (
            SLO,
            FlightRecorder,
            MetricWindows,
            SLOEvaluator,
            TelemetryServer,
            session_health,
            set_recorder,
        )

        try:
            slos = [SLO.parse(spec) for spec in (args.slo or [])]
        except ValueError as exc:
            logger.error(f"bad --slo spec: {exc}")
            return 2
        # The router's load shedding consults these rolling windows' p95;
        # the baseline sample makes the held plane's windows cover the
        # demo requests.
        windows = MetricWindows(metrics)
        windows.record()
        recorder = FlightRecorder()
        evaluator = SLOEvaluator(slos, windows) if slos else None
        # Bound now (a busy port fails before any work), served once the
        # demo requests are done: a scrape that connects early waits for
        # their results instead of racing them.
        telemetry = TelemetryServer(
            metrics, port=args.telemetry_port, windows=windows,
            evaluator=evaluator, recorder=recorder,
            health=lambda: session_health(router=holder.get("router")),
        )
        set_recorder(recorder)  # crash_dump / SIGUSR1 find it

    if args.breakers:
        # The board shares the serve run's registry so breaker gauges and
        # transition counters land in --metrics-file alongside latency.
        enable_breakers(
            BreakerConfig.from_env(args.breaker_threshold, args.breaker_cooldown),
            metrics=metrics,
        )
    admission = None
    if args.max_queue_depth is not None or args.shed_deadline is not None:
        admission = AdmissionPolicy.from_env(args.max_queue_depth, args.shed_deadline)

    graph = graph_from_mtx(args.input)
    cache = ArtifactCache(args.cache_dir, metrics=metrics)

    def run():
        result = preprocess(graph, _build_plan(args), cache=cache)
        logger.info(
            f"{args.input}: {'loaded cached artefact' if result.cached else 'preprocessed'} "
            f"(pattern {result.pattern}, backend {result.backend})"
        )
        policy = RetryPolicy(max_attempts=args.max_retries + 1, deadline=args.deadline)
        shards = shard_result(result, n_shards=args.shards, cache=cache)
        cached = sum(1 for s in shards.specs if s.cached)
        logger.info(
            f"router: {shards.n_shards} shard(s) x {args.replicas} "
            f"replica(s) on {args.executor} lanes, align {shards.align}, "
            f"rows {[s.size for s in shards.specs]}, "
            f"{cached} shard artefact(s) cache-hit"
        )
        router = ShardRouter(
            shards, metrics=metrics, windows=windows,
            replicas=args.replicas, retry_policy=policy,
            admission=admission, deadline=args.deadline,
            recorder=recorder, executor=args.executor,
        )
        holder["router"] = router

        # Integer-valued features keep every partial sum exact, so the served
        # output must match the dense reference bitwise, not just approximately.
        rng = np.random.default_rng(args.seed)
        reference_op = graph.dense_adjacency()
        ok = True
        batches = [
            rng.integers(0, 1 << 10, size=(graph.n, args.h)).astype(np.float64)
            for _ in range(args.requests)
        ]
        # Submit everything, then verify each output: consecutive requests
        # overlap across shard lanes and replicas.
        futures = [router.submit(features) for features in batches]
        outputs = [fut.result() for fut in futures]
        for i, (features, out) in enumerate(zip(batches, outputs)):
            reference = reference_op @ features
            bitwise = bool(np.array_equal(out, reference))
            ok &= bitwise
            logger.info(f"request {i}: output {out.shape}, "
                        f"bitwise-equal to dense reference: {bitwise}")
        return result, ok

    try:
        if args.trace_file:
            with use_tracer() as tracer:
                result, ok = run()
        else:
            tracer = None
            result, ok = run()

        if telemetry is not None:
            telemetry.start().set_ready()
            logger.info(f"telemetry: {telemetry.url}/metrics  /healthz  /readyz  "
                        f"/debug/requests  (try `repro top --url {telemetry.url}`)")
        if telemetry is not None and args.hold:
            logger.info(f"holding for {args.hold:g}s for scrapes "
                        f"(`repro top --url {telemetry.url}`; ctrl-c to stop)")
            try:
                time.sleep(args.hold)
            except KeyboardInterrupt:
                logger.info("hold interrupted; shutting down")
    finally:
        if telemetry is not None:
            from .obs import set_recorder

            telemetry.set_ready(False)
            telemetry.stop()
            set_recorder(None)
        router = holder.get("router")
        if router is not None:
            router.close()

    health = router.health()
    for entry in router.shard_load():
        logger.info(
            f"shard {entry['shard']}: rows {entry['rows'][0]}-{entry['rows'][1]}, "
            f"{entry['alive']}/{entry['replicas']} replica(s) alive, "
            f"{entry['served']} served, {entry['failures']} failure(s)"
        )
    verdict = ("healthy" if health["healthy"] else "UNHEALTHY") + (
        ", degraded" if health["degraded"] else "")
    logger.info(f"router: {router.n_requests} request(s) merged, "
                f"{router.n_failovers} failover(s), {router.n_shed} shed; {verdict}")
    cm = CostModel()
    t_csr = cm.time_csr_spmm(SpmmWorkload.from_csr(graph.csr(), args.h))
    t_req = registry.model_spmm_time(cm, result.operand, args.h)
    logger.info(f"modelled per-request time {t_req * 1e6:.1f}us "
                f"({t_csr / t_req:.2f}x vs CSR baseline)")
    if cache.stats.quarantined:
        logger.info(f"resilience: {cache.stats.quarantined} quarantined artefact(s)")
    board = active_breakers()
    if board is not None:
        snapshot = board.snapshot()
        states = ", ".join(
            f"{name}={info['state']}" for name, info in snapshot.items()
        ) or "no backends guarded yet"
        logger.info(f"breakers: {states}")

    if metrics is not None and args.metrics_file:
        path = Path(args.metrics_file)
        if path.suffix == ".prom":
            path.write_text(metrics.to_prometheus())
        else:
            path.write_text(metrics.to_json(indent=2) + "\n")
        logger.info(f"wrote metrics to {path}")
    if tracer is not None:
        path = Path(args.trace_file)
        path.write_text(json.dumps(tracer.to_dicts(), indent=2) + "\n")
        logger.info(f"wrote trace to {path}")
    return 0 if ok else 1


_BREAKER_STATE_NAMES = {0.0: "closed", 1.0: "half_open", 2.0: "open"}


def _scrape_json(url: str, timeout: float = 5.0):
    """GET a JSON endpoint, returning the payload even on a 503 verdict."""
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return json.load(resp)
    except urllib.error.HTTPError as exc:  # /healthz 503 still carries JSON
        with exc:
            try:
                return json.loads(exc.read().decode() or "{}")
            except (ValueError, OSError):
                return None
    except (OSError, ValueError):
        return None


def _top_frame(samples: dict, health: dict | None) -> str:
    """Render one `repro top` frame from parsed /metrics samples."""

    def first(name: str, **match):
        for labels, value in samples.get(name, []):
            if all(labels.get(k) == v for k, v in match.items()):
                return value
        return None

    lines = []
    # The header is the request as the router door sees it; the per-shard
    # sub-request series are the shard table's business.
    qps = first("router_requests_rate", window="60s")
    p95 = first("router_latency_seconds_p95", window="60s")
    in_flight = samples.get("router_in_flight")
    head = [f"qps(60s) {qps:8.1f}" if qps is not None else "qps(60s)      n/a"]
    head.append(f"p95(60s) {_fmt_seconds(p95)}" if p95 is not None
                else "p95(60s) n/a")
    if in_flight:
        head.append(f"inflight {int(sum(v for _, v in in_flight))}")
    if health is not None:
        if not health.get("healthy"):
            detail = ", ".join(health.get("open_breakers", []))
            if health.get("pool_crash_looping"):
                detail += " pool-crash-loop"
            if health.get("unhealthy_shards"):
                detail += (" shards " + ",".join(
                    str(s) for s in health["unhealthy_shards"]))
            head.append(f"UNHEALTHY ({detail.strip()})")
        elif health.get("degraded"):
            head.append("DEGRADED (shards " + ",".join(
                str(s) for s in health.get("unhealthy_shards", [])) + ")")
        else:
            head.append("healthy")
    lines.append("  ".join(head))

    rows = samples.get("serve_path_rows_total", [])
    total_rows = sum(v for _, v in rows)
    if total_rows > 0:
        share = "  ".join(
            f"{labels.get('backend', '?')} {value / total_rows:6.1%}"
            for labels, value in sorted(rows,
                                        key=lambda s: -s[1])
        )
        lines.append(f"rows by path: {share}")

    # Sharded serving: one row per shard, keyed off the shard="<i>" label
    # the router's per-shard sessions put on their series.
    shard_rows: dict[str, dict] = {}

    def shard_col(name: str, field: str, **match):
        for labels, value in samples.get(name, []):
            shard = labels.get("shard")
            if shard is None:
                continue
            if all(labels.get(k) == v for k, v in match.items()):
                row = shard_rows.setdefault(shard, {})
                row[field] = row.get(field, 0.0) + value

    shard_col("serve_requests_total", "req")
    shard_col("spmm_latency_seconds_p95", "p95", window="60s")
    shard_col("router_in_flight", "in_flight")
    shard_col("router_replicas", "replicas")
    shard_col("router_failovers_total", "failovers")
    if shard_rows:
        lines.append("shard   req     p95(60s)  inflight  repl  failover")
        for shard in sorted(shard_rows, key=lambda s: (len(s), s)):
            row = shard_rows[shard]
            p95s = (_fmt_seconds(row["p95"]) if "p95" in row else "     n/a")
            lines.append(
                f"{shard:>5}  {int(row.get('req', 0)):6d}  {p95s:>9}  "
                f"{int(row.get('in_flight', 0)):8d}  "
                f"{int(row.get('replicas', 0)):4d}  "
                f"{int(row.get('failovers', 0)):8d}")

    breakers = samples.get("breaker_state", [])
    if breakers:
        states = "  ".join(
            f"{labels.get('backend', '?')}="
            f"{_BREAKER_STATE_NAMES.get(value, value)}"
            for labels, value in sorted(breakers, key=lambda s: str(s[0]))
        )
        lines.append(f"breakers: {states}")

    burns = samples.get("slo_burn_rate", [])
    if burns:
        by_slo: dict[str, dict] = {}
        for labels, value in burns:
            by_slo.setdefault(labels.get("slo", "?"), {})[
                labels.get("window", "?")] = value
        text = "  ".join(
            f"{slo} fast={windows.get('fast', 0.0):.2f} "
            f"slow={windows.get('slow', 0.0):.2f}"
            for slo, windows in sorted(by_slo.items())
        )
        lines.append(f"slo burn: {text}")
    return "\n".join(lines)


def _cmd_top(args) -> int:
    import urllib.request

    from .obs import parse_prometheus

    url = args.url.rstrip("/")
    frame = 0
    while args.frames is None or frame < args.frames:
        if frame:
            time.sleep(args.interval)
        frame += 1
        try:
            with urllib.request.urlopen(f"{url}/metrics", timeout=5) as resp:
                body = resp.read().decode()
        except (OSError, ValueError) as exc:
            logger.error(f"scrape of {url}/metrics failed: {exc}")
            return 1
        _, samples = parse_prometheus(body)
        health = _scrape_json(f"{url}/healthz")
        # A live screen, not a log line: top owns the terminal like its
        # namesake (the only CLI path that prints to stdout directly).
        if not args.no_clear and sys.stdout.isatty():
            print("\x1b[2J\x1b[H", end="")
        print(f"repro top — {url}  (frame {frame})")
        print(_top_frame(samples, health))
        sys.stdout.flush()
    return 0


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.3f}ms"
    return f"{value * 1e6:.1f}us"


def _cmd_stats(args) -> int:
    if not args.metrics_file and not args.cache_dir and not args.trace_file:
        logger.warning("stats: pass --metrics-file, --cache-dir and/or --trace-file")
        return 2
    if args.chrome_out and not args.trace_file:
        logger.warning("stats: --chrome-out needs --trace-file")
        return 2
    if args.trace_file:
        from .obs import SpanRecord, render_tree, to_chrome_trace

        payload = json.loads(Path(args.trace_file).read_text())
        roots = [SpanRecord.from_dict(d)
                 for d in (payload if isinstance(payload, list) else [payload])]
        if args.chrome_out:
            chrome = to_chrome_trace(roots)
            Path(args.chrome_out).write_text(json.dumps(chrome) + "\n")
            logger.info(
                f"wrote {len(chrome['traceEvents'])} trace event(s) to "
                f"{args.chrome_out} (open in chrome://tracing or Perfetto)")
        else:
            logger.info(f"trace from {args.trace_file}:")
            logger.info(render_tree(roots))
    if args.metrics_file:
        snapshot = json.loads(Path(args.metrics_file).read_text())
        logger.info(f"metrics from {args.metrics_file}:")
        for name in sorted(snapshot):
            for series in snapshot[name]:
                labels = series.get("labels") or {}
                label_text = (
                    "{" + ", ".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                    if labels else ""
                )
                if series.get("type") == "histogram":
                    logger.info(
                        f"  {name}{label_text} (histogram): count={series['count']} "
                        f"avg={_fmt_seconds(series['avg'])} "
                        f"p50={_fmt_seconds(series['p50'])} "
                        f"p95={_fmt_seconds(series['p95'])} "
                        f"p99={_fmt_seconds(series['p99'])}"
                    )
                else:
                    logger.info(
                        f"  {name}{label_text} ({series.get('type')}): "
                        f"{series.get('value')}"
                    )
    if args.cache_dir:
        from .pipeline import ArtifactCache

        cache = ArtifactCache(args.cache_dir)
        artefacts = sorted(cache.cache_dir.glob("*.npz"))
        total_bytes = sum(p.stat().st_size for p in artefacts)
        logger.info(f"cache {cache.cache_dir}: {len(artefacts)} artefact(s), "
                    f"{total_bytes} bytes, {len(cache.quarantined())} quarantined")
        for p in artefacts:
            logger.info(f"  {p.stem}  {p.stat().st_size} bytes")
        plans = list(cache.cache_dir.glob("*.plan.pkl"))
        if plans:
            logger.info(f"plan sidecars: {len(plans)}")
    return 0


def _backend_selftest() -> int:
    """Run a tiny operand through every compressible backend.

    Each backend compresses a small reference matrix and serves one SpMM
    through :func:`repro.perf.engine.execute` (and so ``run_kernel``) under
    a scoped breaker board, so the report shows both kernel correctness and
    the breaker state each backend ends in.  Returns the number of
    *failing* backends (``unavailable`` — the operand cannot be built, e.g.
    a non-conforming matrix for ``vnm`` — is not a failure).
    """
    from .perf import engine
    from .pipeline import registry
    from .pipeline.guard import breaker_scope

    rng = np.random.default_rng(0)
    dense = (rng.random((16, 16)) < 0.4).astype(np.float64)
    csr = CSRMatrix.from_dense(dense)
    x = rng.integers(0, 8, size=(16, 4)).astype(np.float64)
    reference = dense @ x
    pattern = VNMPattern(1, 2, 4)
    failures = 0
    logger.info("backend self-test (16x16 reference operand):")
    with breaker_scope() as board:
        for name in registry.available_backends():
            backend = registry.get_backend(name)
            if backend.compress is None or name == "serving":
                continue
            try:
                operand = registry.compress(csr, name, pattern)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                logger.info(f"  {name:<8} unavailable ({type(exc).__name__}: {exc})")
                continue
            try:
                out = engine.execute(operand, x)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                failures += 1
                logger.warning(f"  {name:<8} FAIL ({type(exc).__name__}: {exc})")
                continue
            bitwise = bool(np.array_equal(out, reference))
            if not bitwise:
                failures += 1
            logger.info(
                f"  {name:<8} {'ok' if bitwise else 'FAIL (result mismatch)'} "
                f"(breaker {board.state(name)})"
            )
    return failures


def _cmd_doctor(args) -> int:
    from .pipeline import ArtifactCache

    cache = ArtifactCache(args.cache_dir)
    report = cache.fsck()
    logger.info(f"cache {cache.cache_dir}: checked {report['checked']} artefact(s)")
    for name in report["tmp_removed"]:
        logger.info(f"  removed half-written temp file {name}")
    for key in report["ok"]:
        logger.info(f"  ok       {key}")
    for key in report["corrupt"]:
        logger.info(f"  corrupt  {key} -> quarantined in {cache.quarantine_dir}")
    if report["corrupt"]:
        logger.info(f"{len(report['corrupt'])} corrupt artefact(s) quarantined; "
                    f"rerun `repro preprocess` to rebuild them")
    if args.shm_sweep:
        from .perf.shm import sweep_leaked_segments

        reclaimed = sweep_leaked_segments(max_age_seconds=args.shm_age)
        if reclaimed:
            logger.info(f"reclaimed {len(reclaimed)} leaked shared-memory "
                        f"segment(s) older than {args.shm_age:.0f}s:")
            for name in reclaimed:
                logger.info(f"  unlinked {name}")
        else:
            logger.info(f"no leaked shared-memory segments older than "
                        f"{args.shm_age:.0f}s")
    failures = _backend_selftest() if args.selftest else 0
    if failures:
        logger.warning(f"{failures} backend(s) failed the self-test")
    return 1 if report["corrupt"] or failures else 0


_EPILOGUE = """\
live telemetry:
  `repro serve --telemetry-port 9464 --hold 60` starts an HTTP server with
  /metrics (Prometheus text + rolling-window gauges), /healthz (503 while a
  breaker is open or the pool crash-loops), /readyz and /debug/requests
  (the flight recorder ring).  `repro top --url http://127.0.0.1:9464`
  renders a live frame per --interval: qps and windowed p95, per-path row
  share, breaker states, queue depth and SLO burn rates.  See
  docs/telemetry.md.
"""


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro", description=__doc__, epilog=_EPILOGUE,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("-v", "--verbose", action="count", default=0,
                   help="more output (DEBUG); repeatable")
    p.add_argument("-q", "--quiet", action="count", default=0,
                   help="less output (WARNING only)")
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("reorder", help="reorder a MatrixMarket adjacency matrix")
    r.add_argument("input")
    r.add_argument("--pattern", type=parse_pattern, default=VNMPattern(1, 2, 4))
    r.add_argument("--output", default=None)
    r.add_argument("--max-iter", type=int, default=10)
    r.add_argument("--time-budget", type=float, default=None)
    r.set_defaults(fn=_cmd_reorder)

    s = sub.add_parser("survey", help="best-pattern search + modelled speedup")
    s.add_argument("input")
    s.add_argument("--h", type=int, default=128)
    s.add_argument("--max-iter", type=int, default=6)
    s.set_defaults(fn=_cmd_survey)

    c = sub.add_parser("collection", help="synthetic SuiteSparse class stats")
    c.add_argument("cls", choices=["small", "medium", "large"])
    c.add_argument("--count", type=int, default=None)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--diameter", action="store_true")
    c.set_defaults(fn=_cmd_collection)

    def add_plan_args(sp, *, default_backend="hybrid"):
        sp.add_argument("--pattern", type=parse_pattern, default=None,
                        help="target V:N:M pattern (default: autoselect)")
        sp.add_argument("--backend", default=default_backend,
                        choices=["hybrid", "vnm", "nm", "csr", "bsr", "sell", "tcgnn", "dense"])
        sp.add_argument("--cache-dir", default=".repro-cache")
        sp.add_argument("--max-iter", type=int, default=10)
        sp.add_argument("--time-budget", type=float, default=None)

    pp = sub.add_parser("preprocess",
                        help="offline pipeline: reorder + compress into the artifact cache")
    pp.add_argument("inputs", nargs="+")
    add_plan_args(pp)
    pp.add_argument("--workers", type=int, default=None,
                    help="process-pool size for batch preprocessing "
                         "(default: REPRO_WORKERS or cores-1)")
    pp.add_argument("--pool", action="store_true",
                    help="pre-spawn a persistent shared-memory worker pool "
                         "(repro.perf.WorkerPool) instead of an ephemeral one")
    pp.add_argument("--profile", action="store_true",
                    help="trace the run and print the span tree (wall time per stage)")
    pp.set_defaults(fn=_cmd_preprocess)

    sv = sub.add_parser("serve",
                        help="serve SpMM requests from cached artefacts; verifies vs dense")
    sv.add_argument("input")
    add_plan_args(sv)
    sv.add_argument("--h", type=int, default=64)
    sv.add_argument("--requests", type=int, default=3)
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument("--max-retries", type=int, default=2,
                    help="kernel retries per request before degrading (default 2)")
    sv.add_argument("--deadline", type=float, default=None,
                    help="per-request deadline in seconds (default: none)")
    sv.add_argument("--breakers", action="store_true",
                    help="install per-backend circuit breakers around every "
                         "kernel call (repro.pipeline.guard)")
    sv.add_argument("--breaker-threshold", type=int, default=None,
                    help="consecutive failures before a breaker opens "
                         "(default 5, or REPRO_BREAKER_THRESHOLD)")
    sv.add_argument("--breaker-cooldown", type=float, default=None,
                    help="seconds an open breaker rejects calls before its "
                         "half-open probe (default 5.0, or REPRO_BREAKER_COOLDOWN)")
    sv.add_argument("--max-queue-depth", type=int, default=None,
                    help="admission control: shed requests queued beyond "
                         "this depth at the router door (OverloadError)")
    sv.add_argument("--shed-deadline", type=float, default=None,
                    help="admission control: shed requests whose estimated "
                         "completion (live p95) exceeds this many seconds")
    sv.add_argument("--metrics-file", default=None,
                    help="export request metrics here (.json snapshot, or "
                         ".prom Prometheus text)")
    sv.add_argument("--trace-file", default=None,
                    help="trace the run and write the span tree here as JSON")
    sv.add_argument("--telemetry-port", type=int, default=None,
                    help="start the telemetry HTTP server on this port "
                         "(0 = any free port): /metrics, /healthz, /readyz, "
                         "/debug/requests, plus the request flight recorder "
                         "and rolling-window admission (docs/telemetry.md)")
    sv.add_argument("--slo", action="append", default=None, metavar="SPEC",
                    help="declare an SLO for burn-rate alerting (repeatable): "
                         "'latency:SECONDS[:OBJECTIVE]', "
                         "'vnm_rows[:OBJECTIVE]', or 'kind=...,key=value,...' "
                         "(needs --telemetry-port)")
    sv.add_argument("--hold", type=float, default=None, metavar="SECONDS",
                    help="after serving, keep the telemetry server up this "
                         "long for scrapes / `repro top`")
    sv.add_argument("--shards", type=int, default=1,
                    help="partition the operand into this many v-aligned "
                         "row shards behind the fan-out router "
                         "(docs/sharding.md; default 1 = the whole operand)")
    sv.add_argument("--replicas", type=int, default=1,
                    help="replicas per shard: concurrent requests, failover "
                         "and hot-shard throughput (default 1)")
    sv.add_argument("--executor", choices=["thread", "process"],
                    default="thread",
                    help="shard replica back-end: "
                         "'thread' = in-process session lanes; 'process' = "
                         "one forked worker per replica, inheriting its "
                         "shard operand, over a zero-copy shm ring — fault "
                         "isolation: a killed worker costs one failover "
                         "(docs/sharding.md; default %(default)s)")
    sv.set_defaults(fn=_cmd_serve)

    sh = sub.add_parser("shard",
                        help="offline shard build: partition a preprocessed "
                             "operand into per-shard cached artefacts")
    sh.add_argument("input")
    add_plan_args(sh)
    sh.add_argument("--shards", type=int, default=4,
                    help="number of v-aligned row shards (default %(default)s)")
    sh.add_argument("--json-out", default=None,
                    help="write the shard layout summary here as JSON")
    sh.set_defaults(fn=_cmd_shard)

    tp = sub.add_parser("top",
                        help="live serving dashboard polled from a telemetry "
                             "server's /metrics")
    tp.add_argument("--url", default="http://127.0.0.1:9464",
                    help="telemetry server base URL (repro serve "
                         "--telemetry-port; default %(default)s)")
    tp.add_argument("--interval", type=float, default=2.0,
                    help="seconds between frames (default %(default)s)")
    tp.add_argument("--frames", type=int, default=None,
                    help="stop after N frames (default: run until ctrl-c)")
    tp.add_argument("--no-clear", action="store_true",
                    help="append frames instead of clearing the screen")
    tp.set_defaults(fn=_cmd_top)

    st = sub.add_parser("stats",
                        help="pretty-print a metrics export and/or cache statistics")
    st.add_argument("--metrics-file", default=None,
                    help="metrics JSON written by `repro serve --metrics-file`")
    st.add_argument("--cache-dir", default=None,
                    help="artifact cache directory to summarize")
    st.add_argument("--trace-file", default=None,
                    help="span-tree JSON written by `repro serve --trace-file`; "
                         "rendered as a text tree unless --chrome-out is given")
    st.add_argument("--chrome-out", default=None,
                    help="convert --trace-file to Chrome trace-event JSON "
                         "(chrome://tracing / Perfetto); worker-adopted "
                         "subtrees get their own process track")
    st.set_defaults(fn=_cmd_stats)

    dr = sub.add_parser("doctor",
                        help="fsck a cache directory: verify checksums, quarantine corrupt entries")
    dr.add_argument("--cache-dir", default=".repro-cache")
    dr.add_argument("--selftest", action="store_true",
                    help="additionally run a tiny operand through every "
                         "compressible backend under a scoped breaker board")
    dr.add_argument("--shm-sweep", action="store_true",
                    help="reclaim shared-memory segments orphaned by killed "
                         "workers: unlink repro-prefixed /dev/shm entries "
                         "older than --shm-age not owned by this process "
                         "(counted in shm_segments_leaked_total)")
    dr.add_argument("--shm-age", type=float, default=300.0, metavar="SECONDS",
                    help="minimum age before an orphaned segment is swept "
                         "(default %(default)s)")
    dr.set_defaults(fn=_cmd_doctor)
    return p


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    logging_setup(args.verbose - args.quiet)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
