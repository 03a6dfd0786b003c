"""The four benchmark workloads, run through the program's public API.

Every input is generated from the run's seed.  Each workload times its
set-up, a warm restart and a measured loop of its unit of work, checks
every output against an independent reference (scipy.sparse, or the
default-original GNN), and returns its end-to-end metrics; a traced run
adds the per-layer metrics of :mod:`layers`.

Why these four (``BENCHMARK.json`` holds the one-line reasons): the reorder
search and the artefact cache do all the work in ``preprocess-cold``; the
engine kernel does almost all of it in ``serve-session``; ``serve-sharded``
runs the same kernel work as ``serve-session`` through two worker
processes, so the two differ only by fan-out, lane queueing, ring copies and
merge; ``gnn-train`` is the paper's Table-3 path on the emulated device,
which bypasses the engine, at a size above the engine's dense-panel budget.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import resource
import shutil
import statistics
import tempfile
import time
import traceback

import numpy as np

import layers
from tracer import SpanTree, Tracer

from repro.core.patterns import VNMPattern
from repro.core.scores import mbscore, total_pscore
from repro.gnn import frameworks
from repro.gnn.functional import cross_entropy_grad
from repro.gnn.models import build_model
from repro.gnn.optim import Adam
from repro.graphs.datasets import load_dataset
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.perf import engine
from repro import pipeline
from repro.sptc.costmodel import CostModel, SpmmWorkload
from repro.sptc.csr import CSRMatrix
from repro.sptc.device import use_device

# Workload-specific metric names (the human-readable view), mapped to the
# contract metric that carries each value.
NAMED_VIEW = {
    "preprocess-cold": [("setup_s", "setup_s", "s"), ("reload_s", "reload_s", "s"),
                        ("modelled_a100_ms", "modelled_a100_ms", "ms")],
    "serve-session": [("setup_s", "setup_s", "s"), ("latency_p50_ms", "latency_p50_ms", "ms"),
                      ("latency_p95_ms", "latency_p95_ms", "ms"),
                      ("throughput_rps", "throughput_rps", "req/s"),
                      ("modelled_a100_ms", "modelled_a100_ms", "ms")],
    "gnn-train": [("setup_s", "setup_s", "s"), ("epoch_ms", "latency_p50_ms", "ms"),
                  ("baseline_epoch_ms", "baseline_ms", "ms"),
                  ("modelled_a100_ms", "modelled_a100_ms", "ms"),
                  ("modelled_speedup", "modelled_speedup", "x")],
}
NAMED_VIEW["serve-sharded"] = NAMED_VIEW["serve-session"]

END_TO_END = {
    "setup_s": "s", "reload_s": "s", "latency_p50_ms": "ms", "latency_p95_ms": "ms",
    "throughput_rps": "1/s", "baseline_ms": "ms", "modelled_a100_ms": "ms",
    "modelled_speedup": "x", "peak_rss_mb": "MB",
}

PATTERN = VNMPattern(1, 2, 32)  # what the pattern search picks on all three shapes
H = 64                          # request width
N_REQUESTS = 8                  # distinct requests in the cycled pool
# Fewest units a measured loop runs, whatever --seconds says: a p95 needs
# >= 10 samples beyond it, and the pipelined sharded tail needs twice that to
# repeat from run to run; GNN epochs vary +-15% from one to the next.
MIN_UNITS = {"preprocess-cold": 200, "serve-session": 200, "serve-sharded": 400,
             "gnn-train": 6}
SETUP_REPEATS = {"preprocess-cold": 1, "serve-session": 2, "serve-sharded": 2, "gnn-train": 3}
RELOAD_REPEATS = 15
GNN_HIDDEN = 128
GNN_MODELS = ("gcn", "sage")
P95_BLOCK = 40        # consecutive units per block of the p95 estimate
FLOOR_EVERY = 10       # serve requests between two scipy floor windows
FLOOR_WINDOW_S = 0.05  # length of one floor window


def _p95(values) -> float:
    """95th percentile: the median of the p95s of blocks of ``P95_BLOCK`` units.

    A tail the program makes (say, one slow request in twenty) shows in every
    block.  A burst of load on a shared host lands in one or two blocks: it
    moves the p95 of the whole run, but not this median.  With fewer than two
    blocks (GNN epochs) it is the plain percentile.
    """
    n_blocks = len(values) // P95_BLOCK
    if n_blocks < 2:
        return float(np.percentile(values, 95))
    return float(statistics.median(
        np.percentile(values[i * P95_BLOCK:(i + 1) * P95_BLOCK], 95)
        for i in range(n_blocks)))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Run:
    """One benchmark run: seed, clock, oracle counts and the tracer."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, out_dir):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer()
        self.metrics = MetricsRegistry() if trace else None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.retries = 0
        self._tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
        self._req_ids = itertools.count(1)
        reg = default_registry()
        self._plan_counters = (reg.counter("engine_plan_builds_total"),
                               reg.counter("engine_plan_cache_hits_total"))
        self._plan_base = tuple(c.value for c in self._plan_counters)

    # -- tracing -----------------------------------------------------------
    def tracing(self, on: bool) -> None:
        """Install (or remove) the layer wrappers; no-op in untraced runs."""
        if not self.trace or on == self.tracer.enabled:
            return
        if on:
            layers.install(self.tracer)
        else:
            self.tracer.restore()
        self.tracer.enabled = on

    @contextlib.contextmanager
    def unit(self, kind: str, samples: list):
        """Time one unit of work into ``samples``; a root span when traced."""
        scope = (self.tracer.span(f"unit.{kind}", req=next(self._req_ids))
                 if self.tracer.enabled else contextlib.nullcontext())
        t0 = time.perf_counter()
        with scope:
            yield
        samples.append(time.perf_counter() - t0)

    def layer(self, name: str):
        """A span around a call the benchmark makes into a layer, when traced."""
        if not self.tracer.enabled:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def open_unit(self, kind: str):
        """A unit span left open across threads (pipelined requests)."""
        if not self.tracer.enabled:
            return None
        scope = self.tracer.span(f"unit.{kind}", req=next(self._req_ids))
        scope.__enter__()
        return scope

    # -- oracle ------------------------------------------------------------
    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(what + "\n" + traceback.format_exc())

    def check_permutation(self, perm, what: str) -> None:
        order = np.asarray(perm.order)
        self.check(np.array_equal(np.sort(order), np.arange(order.size)),
                   f"{what}: permutation is not a bijection")

    def check_reorder(self, bm, perm, pattern, summary: dict | None, what: str) -> None:
        """Lossless, symmetric, and no more violations than it started with."""
        self.check_permutation(perm, what)
        if summary:
            self.check(summary["final_invalid_vectors"] <= summary["initial_invalid_vectors"],
                       f"{what}: reorder increased violations {summary}")
            return
        reordered = bm.permute_rows(perm.order).permute_columns(perm.order)
        before = total_pscore(bm, pattern.nm) + mbscore(bm, pattern)
        after = total_pscore(reordered, pattern.nm) + mbscore(reordered, pattern)
        self.check(after <= before, f"{what}: violations {before} -> {after}")

    def check_symmetric(self, adj, what: str) -> None:
        self.check((adj != adj.T).nnz == 0, f"{what}: adjacency is not symmetric")

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(dir=self._tmp)

    def cache(self, path: str) -> pipeline.ArtifactCache:
        return pipeline.ArtifactCache(path, metrics=self.metrics)

    def plan_cache_hit_frac(self) -> float:
        builds, hits = (c.value - b for c, b in zip(self._plan_counters, self._plan_base))
        return hits / (builds + hits) if builds + hits else 0.0

    def close(self) -> None:
        self.tracing(False)
        shutil.rmtree(self._tmp, ignore_errors=True)


# -- shared pieces ------------------------------------------------------------------

def request_pool(adj, seed: int):
    """Integer-valued requests (exact float sums) and their scipy answers."""
    rng = np.random.default_rng([seed, 7])
    pool = [rng.integers(-8, 9, size=(adj.shape[1], H)).astype(np.float64)
            for _ in range(N_REQUESTS)]
    return pool, [adj @ x for x in pool]


def floor_samples(adj, pool, times: list, seconds: float) -> None:
    """Append scipy CSR matmat times on the request pool: the compiled floor.

    One untimed call first brings the operands back into cache.
    """
    adj @ pool[0]
    t_end = time.perf_counter() + seconds
    for k in itertools.count():
        t0 = time.perf_counter()
        adj @ pool[k % len(pool)]
        times.append(time.perf_counter() - t0)
        if t0 >= t_end:
            return


def modelled_csr_ms(csr: CSRMatrix, h: int = H) -> float:
    return CostModel().time_csr_spmm(SpmmWorkload.from_csr(csr, h)) * 1e3


def modelled_ms(operand, h: int = H) -> float:
    return pipeline.model_spmm_time(CostModel(), operand, h) * 1e3


def _phases(run: Run):
    """Measured-loop phases: one untraced phase, or (traced run) an untraced
    half then a traced half, whose medians give ``trace.overhead_frac``."""
    min_units = MIN_UNITS[run.workload]
    if not run.trace:
        return [(False, run.seconds, min_units)]
    return [(False, run.seconds / 2, min_units // 2),
            (True, run.seconds / 2, min_units // 2)]


def closed_loop(run: Run, call, adj, pool, expected, in_flight: int) -> tuple[dict, float]:
    """Closed loop of ``in_flight`` clients cycling the request pool.

    ``call(x)`` returns the answer (``in_flight == 1``) or a future of it.
    Every ``FLOOR_EVERY`` requests the loop drains and times the scipy floor
    for ``FLOOR_WINDOW_S``, so the floor sees the machine as the requests did
    over the whole run; that time is left out of the loop's.  Returns
    per-phase latencies (seconds) and wall times, and the median floor in ms.
    """
    out = {}
    floor: list[float] = []
    for traced, seconds, min_n in _phases(run):
        run.tracing(traced)
        lat: list[float] = []
        pending = collections.deque()
        i = 0
        paused = 0.0
        next_pause = FLOOR_EVERY
        t_start = time.perf_counter()

        def launch():
            nonlocal i
            idx = i % len(pool)
            i += 1
            scope = run.open_unit("request")
            t0 = time.perf_counter()
            try:
                fut = call(pool[idx])
            except Exception as exc:  # counted as a failed request below
                fut = exc
            if scope is not None:
                scope.detach()
            pending.append((fut, t0, idx, scope))

        def complete():
            fut, t0, idx, scope = pending.popleft()
            try:
                if isinstance(fut, Exception):
                    raise fut
                y = fut.result() if in_flight > 1 else fut
            except Exception:
                run.fail(f"request {idx} raised")
                y = None
            lat.append(time.perf_counter() - t0)
            if scope is not None:
                scope.finish(error=y is None)
            if y is not None:
                run.check(np.array_equal(y, expected[idx]),
                          f"request {idx}: output differs from scipy A @ x")

        while (time.perf_counter() - t_start - paused < seconds or len(lat) < min_n):
            while len(pending) < in_flight:
                launch()
            complete()
            if len(lat) >= next_pause:
                while pending:
                    complete()
                t0 = time.perf_counter()
                floor_samples(adj, pool, floor, FLOOR_WINDOW_S)
                paused += time.perf_counter() - t0
                next_pause += FLOOR_EVERY
        while pending:
            complete()
        out[traced] = (lat, time.perf_counter() - t_start - paused)
    run.tracing(False)
    return out, statistics.median(floor) * 1e3


def finish_loop(run: Run, phases: dict) -> tuple[dict, float]:
    """End-to-end latency metrics and the traced-vs-untraced overhead."""
    lat, wall = phases[False]
    metrics = {"latency_p50_ms": statistics.median(lat) * 1e3,
               "latency_p95_ms": _p95(lat) * 1e3,
               "throughput_rps": len(lat) / wall}
    overhead = 0.0
    if True in phases:
        overhead = statistics.median(phases[True][0]) / statistics.median(lat) - 1.0
    return metrics, overhead


def trace_summary(run: Run, unit_names: tuple[str, ...], overhead: float) -> dict:
    tree = SpanTree(run.tracer.spans)
    units = [s for s in tree.spans if s.name in unit_names]
    return {"trace.overhead_frac": overhead,
            "trace.covered_frac": layers.covered_frac(tree, units),
            "trace.spans": float(len(tree.spans))}


def setup_layer_metrics(view: layers.UnitView) -> dict:
    return {
        "core.autoselect.s": view.median_sum("core.autoselect"),
        "core.autoselect.attempts": view.median_attr("core.autoselect", "attempts"),
        "core.reorder.s": view.median_sum("core.reorder"),
        "core.reorder.iterations": view.median_attr("core.reorder", "iterations"),
        "core.stage1.s": view.median_sum("core.stage1"),
        "core.stage2.s": view.median_sum("core.stage2"),
        "core.scores.s": view.median_sum("core.scores"),
        "sptc.compress.s": view.median_sum("sptc.compress"),
        "perf.engine.plan_s": view.median_sum("perf.engine.plan"),
        "pipeline.cache.store_s": view.median_sum("pipeline.cache.store"),
    }


def cache_hit_frac(run: Run) -> float:
    hits = run.metrics.counter("cache_hits_total").value
    misses = run.metrics.counter("cache_misses_total").value
    return hits / (hits + misses) if hits + misses else 0.0


# -- preprocess-cold -----------------------------------------------------------------

BATCH = ("cora", "facebook", "amazon-ratings")


def preprocess_cold(run: Run) -> tuple[dict, dict]:
    graphs = [load_dataset(name, seed=run.seed) for name in BATCH]
    csrs = [g.csr() for g in graphs]
    adjs = [c.to_scipy() for c in csrs]
    for name, adj in zip(BATCH, adjs):
        run.check_symmetric(adj, name)
    plan = pipeline.PreprocessPlan(pattern=None, backend="hybrid")
    cache_dir = run.fresh_dir()

    def open_batch(per_graph=None):
        cache = run.cache(cache_dir)
        results, sessions = [], []
        for g in graphs:
            t0 = time.perf_counter()
            r = pipeline.preprocess(g, plan, cache=cache)
            sessions.append(pipeline.ServingSession.from_result(r))
            results.append(r)
            if per_graph is not None:
                per_graph.append(time.perf_counter() - t0)
        return results, sessions

    def check_sessions(results, sessions, what):
        for name, adj, r, s in zip(BATCH, adjs, results, sessions):
            x = np.random.default_rng([run.seed, 3]).integers(-8, 9, size=(adj.shape[1], 4))
            try:
                y = s.spmm(x.astype(np.float64))
            except Exception:
                run.fail(f"{what} {name}: request raised")
                continue
            run.check(np.array_equal(y, adj @ x), f"{what} {name}: output differs from scipy")

    run.tracing(True)
    setup: list[float] = []
    with run.unit("setup", setup):
        results, sessions = open_batch()
    for name, g, r in zip(BATCH, graphs, results):
        run.check(not r.cached, f"{name}: cold preprocess hit the cache")
        run.check_reorder(g.bitmatrix(), r.permutation, r.pattern, r.summary, name)
    check_sessions(results, sessions, "cold")
    operands = [r.operand for r in results]
    plans = [r.plan for r in results]
    del results, sessions

    # Measured loop: warm reloads of the whole batch, each followed by the
    # no-reorder baseline open of every graph (CSR operator, plan, session).
    # The cold set-up counts towards the measured time.
    phases = {}
    spent = setup[0]
    for traced, seconds, min_n in _phases(run):
        run.tracing(traced)
        reloads, opens, base = [], [], []
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < seconds - spent or len(opens) < min_n:
            with run.unit("reload", reloads):
                results, sessions = open_batch(opens)
            for adj in adjs:
                t0 = time.perf_counter()
                csr = CSRMatrix.from_scipy(adj)
                engine.build_plan(csr)
                pipeline.ServingSession(csr)
                base.append(time.perf_counter() - t0)
            run.check(all(r.cached for r in results), "warm reload missed the cache")
        phases[traced] = (reloads, opens, base, time.perf_counter() - t_start)
        spent = 0.0
    run.tracing(False)
    check_sessions(results, sessions, "warm")

    reloads, opens, base, wall = phases[False]
    metrics = {
        "setup_s": setup[0],
        "reload_s": statistics.median(reloads),
        "latency_p50_ms": statistics.median(opens) * 1e3,
        "latency_p95_ms": _p95(opens) * 1e3,
        "throughput_rps": len(opens) / wall,
        "baseline_ms": statistics.median(base) * 1e3,
        "modelled_a100_ms": sum(modelled_ms(op) for op in operands),
        "modelled_speedup": sum(modelled_csr_ms(c) for c in csrs)
        / sum(modelled_ms(op) for op in operands),
    }
    layer = {}
    if run.trace:
        overhead = (statistics.median(phases[True][0]) / metrics["reload_s"] - 1.0)
        tree = SpanTree(run.tracer.spans)
        setup_view = layers.UnitView(tree, tree.roots("unit.setup"))
        reload_view = layers.UnitView(tree, tree.roots("unit.reload"))
        flops, nbytes = zip(*(layers.roofline_work(op, H) for op in operands))
        layer.update(setup_layer_metrics(setup_view))
        layer.update({
            "sptc.hybrid.sptc_nnz_frac": layers.sptc_nnz_frac(operands),
            "perf.engine.plan_cache_hit_frac": run.plan_cache_hit_frac(),
            "pipeline.cache.load_s": reload_view.median_sum("pipeline.cache.load"),
            "pipeline.cache.hit_frac": cache_hit_frac(run),
            "perf.engine.useful_flop_frac": sum(layers.useful_nnz(op) for op in operands)
            / sum(layers.executed_slots(op, p) for op, p in zip(operands, plans)),
            "pipeline.registry.kernel_failures": setup_view.failures("pipeline.registry.kernel"),
            "sptc.roofline.computed_flops": sum(flops),
            "sptc.roofline.computed_bytes": sum(nbytes),
        })
        layer.update(trace_summary(run, ("unit.setup", "unit.reload"), overhead))
    return metrics, layer


# -- serve-session / serve-sharded ----------------------------------------------------

def _serve_inputs(run: Run):
    g = load_dataset("facebook", seed=run.seed)
    csr = g.csr()
    adj = csr.to_scipy()
    run.check_symmetric(adj, "facebook")
    pool, expected = request_pool(adj, run.seed)
    plan = pipeline.PreprocessPlan(pattern=PATTERN, backend="hybrid")
    return g, csr, adj, pool, expected, plan


def _check_warm(run: Run, y, expected, what: str) -> None:
    run.check(np.array_equal(y, expected), f"{what}: first request differs from scipy")


def serve_session(run: Run) -> tuple[dict, dict]:
    g, csr, adj, pool, expected, plan = _serve_inputs(run)
    run.tracing(True)
    setup: list[float] = []
    session = result = None
    for _ in range(SETUP_REPEATS[run.workload]):
        session = result = None  # release the previous operand and panel
        cache_dir = run.fresh_dir()
        with run.unit("setup", setup):
            result = pipeline.preprocess(g, plan, cache=run.cache(cache_dir))
            session = pipeline.ServingSession.from_result(result)
            y = session.spmm(pool[0])
        _check_warm(run, y, expected[0], "setup")
        run.check_reorder(g.bitmatrix(), result.permutation, PATTERN, result.summary, "facebook")
    reloads: list[float] = []
    for _ in range(RELOAD_REPEATS):
        with run.unit("reload", reloads):
            warm = pipeline.preprocess(g, plan, cache=run.cache(cache_dir))
            warm_session = pipeline.ServingSession.from_result(warm)
            y = warm_session.spmm(pool[0])
        run.check(warm.cached, "warm restart missed the cache")
        _check_warm(run, y, expected[0], "reload")
        del warm, warm_session
    run.tracing(False)

    # Look the method up per call, so the traced phase sees the wrapper.
    phases, floor = closed_loop(run, lambda x: session.spmm(x), adj, pool, expected,
                                in_flight=1)
    operand = result.operand
    metrics, overhead = finish_loop(run, phases)
    metrics.update({
        "setup_s": statistics.median(setup),
        "reload_s": statistics.median(reloads),
        "baseline_ms": floor,
        "modelled_a100_ms": modelled_ms(operand),
        "modelled_speedup": modelled_csr_ms(csr) / modelled_ms(operand),
    })
    run.retries += session.resilience.retries
    layer = {}
    if run.trace:
        tree = SpanTree(run.tracer.spans)
        setup_view = layers.UnitView(tree, tree.roots("unit.setup"))
        req_view = layers.UnitView(tree, tree.roots("unit.request"))
        execute_ms = req_view.median_sum("perf.engine.execute") * 1e3
        flops, nbytes = layers.roofline_work(operand, H)
        layer.update(setup_layer_metrics(setup_view))
        layer.update({
            "sptc.hybrid.sptc_nnz_frac": layers.sptc_nnz_frac([operand]),
            "perf.engine.plan_cache_hit_frac": run.plan_cache_hit_frac(),
            "pipeline.cache.load_s": layers.UnitView(
                tree, tree.roots("unit.reload")).median_sum("pipeline.cache.load"),
            "pipeline.cache.hit_frac": cache_hit_frac(run),
            "perf.engine.execute_ms": execute_ms,
            "perf.engine.useful_flop_frac": layers.useful_nnz(operand)
            / layers.executed_slots(operand, engine.cached_plan(operand)),
            "perf.engine.execute_over_floor": execute_ms / floor,
            "floor.scipy_spmm_ms": floor,
            "pipeline.serving.self_ms": req_view.median_self("pipeline.serving") * 1e3,
            "pipeline.registry.kernel_failures": req_view.failures("pipeline.registry.kernel"),
            "ledger.perf.engine.execute.modelled_ms": modelled_ms(operand),
            "ledger.perf.engine.execute.measured_over_modelled":
                execute_ms / modelled_ms(operand),
            "sptc.roofline.computed_flops": flops,
            "sptc.roofline.computed_bytes": nbytes,
        })
        layer.update(trace_summary(
            run, ("unit.setup", "unit.reload", "unit.request"), overhead))
    return metrics, layer


def _open_router(run: Run, g, plan, cache_dir, pool):
    cache = run.cache(cache_dir)
    result = pipeline.preprocess(g, plan, cache=cache)
    shards = pipeline.shard_result(result, n_shards=2, cache=cache)
    router = pipeline.ShardRouter(shards, executor="process", cache=cache,
                                  metrics=run.metrics)
    return result, shards, router, router.spmm(pool[0])


def _ring_histograms(run: Run, n_shards: int):
    """Summed ``(wall, ipc, count)`` of the workers' ring round-trips.

    The worker stamps its own serve time into each response, and the parent
    records the round trip and the rest (``ipc``), so means of round trip,
    worker serve and transport add up.
    """
    wall = ipc = count = 0.0
    for shard in range(n_shards):
        _, w, c = run.metrics.histogram("spmm_latency_seconds", shard=str(shard)).state()
        _, i, _ = run.metrics.histogram("procshard_ipc_seconds", shard=str(shard)).state()
        wall, ipc, count = wall + w, ipc + i, count + c
    return wall, ipc, count


def serve_sharded(run: Run) -> tuple[dict, dict]:
    g, csr, adj, pool, expected, plan = _serve_inputs(run)
    setup: list[float] = []
    router = None
    try:
        run.tracing(True)
        for _ in range(SETUP_REPEATS[run.workload]):
            if router is not None:
                router.close()
                router = None
            cache_dir = run.fresh_dir()
            with run.unit("setup", setup):
                result, shards, router, y = _open_router(run, g, plan, cache_dir, pool)
            _check_warm(run, y, expected[0], "setup")
            run.check_reorder(g.bitmatrix(), result.permutation, PATTERN, result.summary,
                              "facebook")
        run.tracing(False)
        ring_before = _ring_histograms(run, shards.n_shards) if run.trace else None
        phases, floor = closed_loop(run, lambda x: router.submit(x), adj, pool, expected,
                                    in_flight=2)
        ring_after = _ring_histograms(run, shards.n_shards) if run.trace else None
        run.retries += router.n_failovers
    finally:
        if router is not None:
            router.close()

    reloads: list[float] = []
    run.tracing(True)
    for _ in range(RELOAD_REPEATS):
        warm_router = None
        try:
            with run.unit("reload", reloads):
                warm, _, warm_router, y = _open_router(run, g, plan, cache_dir, pool)
        finally:
            if warm_router is not None:
                warm_router.close()
        run.check(warm.cached, "warm restart missed the cache")
        _check_warm(run, y, expected[0], "reload")
    run.tracing(False)

    operand = result.operand
    shard_models = [modelled_ms(op) for op in shards.operands]
    metrics, overhead = finish_loop(run, phases)
    metrics.update({
        "setup_s": statistics.median(setup),
        "reload_s": statistics.median(reloads),
        "baseline_ms": floor,
        # The shards run on parallel devices: the request's modelled time
        # is the slowest shard's.
        "modelled_a100_ms": max(shard_models),
        "modelled_speedup": modelled_csr_ms(csr) / modelled_ms(operand),
    })
    layer = {}
    if run.trace:
        tree = SpanTree(run.tracer.spans)
        setup_view = layers.UnitView(tree, tree.roots("unit.setup"))
        req_units = tree.roots("unit.request")
        req_view = layers.UnitView(tree, req_units)
        waits = []
        for unit in req_units:
            for spmm in req_view.spans(unit, "pipeline.sharded"):
                serves = tree.children.get(spmm.sid, [])
                if serves:
                    waits.append(statistics.mean(s.start - spmm.start for s in serves))
        wall = ring_after[0] - ring_before[0]
        ipc = ring_after[1] - ring_before[1]
        count = max(ring_after[2] - ring_before[2], 1.0)
        worker_serve_ms = (wall - ipc) / count * 1e3
        flops, nbytes = zip(*(layers.roofline_work(op, H) for op in shards.operands))
        layer.update(setup_layer_metrics(setup_view))
        layer.update({
            "sptc.hybrid.sptc_nnz_frac": layers.sptc_nnz_frac([operand]),
            "perf.engine.plan_cache_hit_frac": run.plan_cache_hit_frac(),
            "pipeline.cache.load_s": layers.UnitView(
                tree, tree.roots("unit.reload")).median_sum("pipeline.cache.load"),
            "pipeline.cache.hit_frac": cache_hit_frac(run),
            "perf.engine.useful_flop_frac": layers.useful_nnz(operand) / sum(
                layers.executed_slots(op, p) for op, p in zip(shards.operands, shards.plans)),
            "perf.engine.execute_over_floor": worker_serve_ms * shards.n_shards / floor,
            "floor.scipy_spmm_ms": floor,
            "pipeline.sharded.self_ms": req_view.median_self("pipeline.sharded") * 1e3,
            "pipeline.sharded.lane_wait_ms": statistics.median(waits) * 1e3 if waits else 0.0,
            "pipeline.procshard.roundtrip_ms": wall / count * 1e3,
            "pipeline.procshard.worker_serve_ms": worker_serve_ms,
            "pipeline.procshard.ipc_ms": ipc / count * 1e3,
            "pipeline.procshard.spawn_s": setup_view.median_sum("pipeline.procshard.spawn"),
            "ledger.pipeline.procshard.worker_serve.modelled_ms": statistics.mean(shard_models),
            "ledger.pipeline.procshard.worker_serve.measured_over_modelled":
                worker_serve_ms / statistics.mean(shard_models),
            "sptc.roofline.computed_flops": sum(flops),
            "sptc.roofline.computed_bytes": sum(nbytes),
        })
        layer.update(trace_summary(
            run, ("unit.setup", "unit.reload", "unit.request"), overhead))
    return metrics, layer


# -- gnn-train --------------------------------------------------------------------------

class Trainer:
    """GCN and SAGE, each with its own Adam, on one setting's operators."""

    def __init__(self, run: Run, prepared, n_classes: int):
        self.layer = run.layer
        self.prepared = prepared
        self.device = frameworks.make_device("dgl")
        graph = prepared.graph
        self.models = {}
        with self.layer("gnn.models.build"):
            for name in GNN_MODELS:
                model = build_model(name, graph.features.shape[1], GNN_HIDDEN, n_classes,
                                    seed=run.seed)
                self.models[name] = (model, Adam(model.parameters(), lr=0.01),
                                     prepared.aggregator(name, self.device))

    def epoch(self) -> dict:
        """One full-batch training step of every model; returns logits."""
        graph = self.prepared.graph
        logits = {}
        with use_device(self.device):
            for name, (model, opt, agg) in self.models.items():
                with self.layer("gnn.models.forward"):
                    out = model.forward(graph.features, agg)
                with self.layer("gnn.functional.loss_grad"):
                    dlogits = cross_entropy_grad(out, graph.labels, graph.train_mask)
                with self.layer("gnn.models.backward"):
                    model.zero_grad()
                    model.backward(dlogits)
                opt.step()
                logits[name] = out
        return logits


def gnn_train(run: Run) -> tuple[dict, dict]:
    g = load_dataset("amazon-ratings", seed=run.seed)
    n_classes = int(g.labels.max()) + 1
    bm = g.bitmatrix().copy()
    for i in range(g.n):
        bm.set(i, i, 1)
    run.check_symmetric(g.csr().to_scipy(), "amazon-ratings")

    def prepare(permutation=None):
        base = Trainer(run, frameworks.prepare_setting(g, "default-original", PATTERN),
                       n_classes)
        rev = Trainer(run, frameworks.prepare_setting(g, "revised-reordered", PATTERN,
                                                      permutation=permutation),
                      n_classes)
        return base, rev

    run.tracing(True)
    setup: list[float] = []
    for _ in range(SETUP_REPEATS[run.workload]):
        with run.unit("setup", setup):
            base, rev = prepare()
    perm = rev.prepared.permutation
    run.tracing(False)
    run.check_reorder(bm, perm, PATTERN, None, "amazon-ratings")
    reloads: list[float] = []
    for _ in range(RELOAD_REPEATS):
        with run.unit("reload", reloads):
            base, rev = prepare(perm)

    order = np.asarray(perm.order)
    phases = {}
    for traced, seconds, min_epochs in _phases(run):
        run.tracing(traced)
        epochs, base_epochs = [], []
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < seconds or len(epochs) < min_epochs:
            clocks = (base.device.clock, rev.device.clock, len(rev.device.records))
            with run.unit("baseline_epoch", base_epochs):
                want = base.epoch()
            with run.unit("epoch", epochs):
                got = rev.epoch()
            for name in GNN_MODELS:
                run.check(np.allclose(got[name], want[name][order], rtol=1e-6, atol=1e-9),
                          f"epoch {len(epochs)} {name}: revised-reordered logits differ "
                          "from default-original")
            records = rev.device.records[clocks[2]:]
            modelled = (base.device.clock - clocks[0], rev.device.clock - clocks[1],
                        sum(r.seconds for r in records if r.tag == "aggregation"),
                        sum(r.seconds for r in records if r.name == "dense_gemm"))
        phases[traced] = (epochs, base_epochs, time.perf_counter() - t_start)
    run.tracing(False)

    epochs, base_epochs, _ = phases[False]
    metrics = {
        "setup_s": statistics.median(setup),
        "reload_s": statistics.median(reloads),
        "latency_p50_ms": statistics.median(epochs) * 1e3,
        "latency_p95_ms": _p95(epochs) * 1e3,
        "throughput_rps": len(epochs) / sum(epochs),
        "baseline_ms": statistics.median(base_epochs) * 1e3,
        "modelled_a100_ms": modelled[1] * 1e3,
        "modelled_speedup": modelled[0] / modelled[1],
    }
    layer = {}
    if run.trace:
        overhead = statistics.median(phases[True][0]) / statistics.median(epochs) - 1.0
        tree = SpanTree(run.tracer.spans)
        setup_view = layers.UnitView(tree, tree.roots("unit.setup"))
        epoch_view = layers.UnitView(tree, tree.roots("unit.epoch"))
        base_view = layers.UnitView(tree, tree.roots("unit.baseline_epoch"))
        spmm_ms = epoch_view.median_sum("sptc.device.spmm") * 1e3
        gemm_ms = epoch_view.median_sum("sptc.device.gemm") * 1e3
        rev_ops = [op for pair in rev.prepared.operators.values() for op in pair]
        layer.update(setup_layer_metrics(setup_view))
        layer.update({
            "sptc.hybrid.sptc_nnz_frac": layers.sptc_nnz_frac(rev_ops),
            "perf.engine.plan_cache_hit_frac": run.plan_cache_hit_frac(),
            "perf.engine.useful_flop_frac": sum(layers.useful_nnz(op) for op in rev_ops)
            / sum(layers.executed_slots(op, None) for op in rev_ops),
            "sptc.device.spmm_ms": spmm_ms,
            "sptc.device.spmm_baseline_ms": base_view.median_sum("sptc.device.spmm") * 1e3,
            "sptc.device.gemm_ms": gemm_ms,
            "gnn.layers.aggregate_ms": epoch_view.median_sum("gnn.layers.aggregate") * 1e3,
            "gnn.linear.update_ms": epoch_view.median_sum("gnn.linear.update") * 1e3,
            "gnn.optim.step_ms": epoch_view.median_sum("gnn.optim.step") * 1e3,
            "pipeline.registry.kernel_failures": epoch_view.failures("pipeline.registry.kernel"),
            "ledger.sptc.device.spmm.modelled_ms": modelled[2] * 1e3,
            "ledger.sptc.device.spmm.measured_over_modelled": spmm_ms / (modelled[2] * 1e3),
            "ledger.sptc.device.gemm.modelled_ms": modelled[3] * 1e3,
            "ledger.sptc.device.gemm.measured_over_modelled": gemm_ms / (modelled[3] * 1e3),
            "sptc.roofline.computed_flops": epoch_view.median_attr("sptc.device.spmm", "flops"),
            "sptc.roofline.computed_bytes": epoch_view.median_attr("sptc.device.spmm", "bytes"),
        })
        layer.update(trace_summary(
            run, ("unit.setup", "unit.epoch", "unit.baseline_epoch"), overhead))
    return metrics, layer


RUNNERS = {
    "preprocess-cold": preprocess_cold,
    "serve-session": serve_session,
    "serve-sharded": serve_sharded,
    "gnn-train": gnn_train,
}


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir) -> dict:
    """Run one workload; returns the result dict (metrics by name)."""
    run = Run(name, seed, seconds, trace, out_dir)
    try:
        e2e, layer = RUNNERS[name](run)
    finally:
        run.close()
    e2e["peak_rss_mb"] = peak_rss_mb()
    if trace:
        per_layer = {k: 0.0 for k in layers.PER_LAYER}
        per_layer.update(layer)
        per_layer["pipeline.registry.retries"] = float(run.retries)
        metrics = {k: {"value": float(per_layer[k]), "unit": u}
                   for k, u in layers.PER_LAYER.items()}
    else:
        metrics = {k: {"value": float(e2e[k]), "unit": u} for k, u in END_TO_END.items()}
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "end_to_end": e2e,
        "errors": run.errors[:20],
        "spans": [s.to_json() for s in run.tracer.spans] if trace else [],
    }
