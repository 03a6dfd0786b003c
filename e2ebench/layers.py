"""The program's layers as the traced run sees them, and their metrics.

:func:`install` wraps the public entry point of every layer the benchmark
reports on; span names are the layer names the per-layer metrics use.
:data:`PER_LAYER` is the full list of per-layer metrics (name -> unit) that a
traced run prints, in the order ``BENCHMARK.json`` lists them.  A layer a
workload does not exercise reports 0.

Conventions: ``*.s`` / ``*_ms`` are inclusive wall time of the layer's
calls (its own work plus what it calls), summed over one unit of work and
reported as the median over units; ``self_ms`` is the layer's own time,
its span minus the union of its child spans.  Set-up layers (``core.*``,
``sptc.compress``, ``perf.engine.plan``, ``pipeline.cache.store``) are
summed over one set-up; request and epoch layers over one request or epoch.
The ``pipeline.procshard`` round trip, worker serve and ipc figures are
means per sub-request, from the worker-stamped ring histograms.
"""

from __future__ import annotations

import importlib
import statistics

from tracer import Span, SpanTree, Tracer

PER_LAYER: dict[str, str] = {
    "core.autoselect.s": "s",
    "core.autoselect.attempts": "count",
    "core.reorder.s": "s",
    "core.reorder.iterations": "count",
    "core.stage1.s": "s",
    "core.stage2.s": "s",
    "core.scores.s": "s",
    "sptc.compress.s": "s",
    "sptc.hybrid.sptc_nnz_frac": "ratio",
    "perf.engine.plan_s": "s",
    "perf.engine.plan_cache_hit_frac": "ratio",
    "pipeline.cache.store_s": "s",
    "pipeline.cache.load_s": "s",
    "pipeline.cache.hit_frac": "ratio",
    "perf.engine.execute_ms": "ms",
    "perf.engine.useful_flop_frac": "ratio",
    "perf.engine.execute_over_floor": "x",
    "floor.scipy_spmm_ms": "ms",
    "pipeline.serving.self_ms": "ms",
    "pipeline.sharded.self_ms": "ms",
    "pipeline.sharded.lane_wait_ms": "ms",
    "pipeline.procshard.roundtrip_ms": "ms",
    "pipeline.procshard.worker_serve_ms": "ms",
    "pipeline.procshard.ipc_ms": "ms",
    "pipeline.procshard.spawn_s": "s",
    "sptc.device.spmm_ms": "ms",
    "sptc.device.spmm_baseline_ms": "ms",
    "sptc.device.gemm_ms": "ms",
    "gnn.layers.aggregate_ms": "ms",
    "gnn.linear.update_ms": "ms",
    "gnn.optim.step_ms": "ms",
    "pipeline.registry.kernel_failures": "count",
    "pipeline.registry.retries": "count",
    "ledger.perf.engine.execute.modelled_ms": "ms",
    "ledger.perf.engine.execute.measured_over_modelled": "x",
    "ledger.pipeline.procshard.worker_serve.modelled_ms": "ms",
    "ledger.pipeline.procshard.worker_serve.measured_over_modelled": "x",
    "ledger.sptc.device.spmm.modelled_ms": "ms",
    "ledger.sptc.device.spmm.measured_over_modelled": "x",
    "ledger.sptc.device.gemm.modelled_ms": "ms",
    "ledger.sptc.device.gemm.measured_over_modelled": "x",
    "sptc.roofline.computed_flops": "flop",
    "sptc.roofline.computed_bytes": "B",
    "trace.overhead_frac": "ratio",
    "trace.covered_frac": "ratio",
    "trace.spans": "count",
}


def _roofline_of_call(args, kwargs, out) -> dict:
    """Computed kernel work of one ``EmulatedDevice.spmm(a, b)`` call."""
    flops, nbytes = roofline_work(args[1], args[2].shape[1])
    return {"flops": flops, "bytes": nbytes}


def install(tracer: Tracer) -> None:
    """Wrap every traced layer's public entry points."""
    mod = importlib.import_module
    autoselect = mod("repro.core.autoselect")
    reorder = mod("repro.core.reorder")
    tracer.wrap_function(autoselect.find_best_pattern, "core.autoselect",
                         lambda a, k, out: {"attempts": len(out.attempts)})
    tracer.wrap_function(reorder.reorder, "core.reorder",
                         lambda a, k, out: {"iterations": out.iterations})
    tracer.wrap_function(mod("repro.core.stage1").stage1_reorder, "core.stage1")
    tracer.wrap_function(mod("repro.core.stage2").stage2_reorder, "core.stage2")
    scores = mod("repro.core.scores")
    tracer.wrap_function(scores.total_pscore, "core.scores")
    tracer.wrap_function(scores.mbscore, "core.scores")

    registry = mod("repro.pipeline.registry")
    tracer.wrap_function(registry.compress, "sptc.compress")
    tracer.wrap_function(registry.run_kernel, "pipeline.registry.kernel")
    engine = mod("repro.perf.engine")
    tracer.wrap_function(engine.plan_for, "perf.engine.plan")
    tracer.wrap_function(engine.adopt_plan, "perf.engine.plan")
    tracer.wrap_function(engine.execute, "perf.engine.execute")

    tracer.wrap_function(mod("repro.pipeline.preprocess").preprocess,
                         "pipeline.preprocess")
    cache = mod("repro.pipeline.cache").ArtifactCache
    for attr in ("load", "load_plan"):
        tracer.wrap_method(cache, attr, "pipeline.cache.load")
    for attr in ("store", "store_plan"):
        tracer.wrap_method(cache, attr, "pipeline.cache.store")
    session = mod("repro.pipeline.serving").ServingSession
    tracer.wrap_method(session, "from_result", "pipeline.serving.open")
    tracer.wrap_method(session, "spmm", "pipeline.serving")
    sharded = mod("repro.pipeline.sharded")
    tracer.wrap_function(sharded.shard_result, "pipeline.sharded.shard")
    tracer.wrap_method(sharded.ShardRouter, "__init__", "pipeline.procshard.spawn")
    tracer.wrap_method(sharded.ShardRouter, "spmm", "pipeline.sharded")
    tracer.wrap_method(mod("repro.pipeline.procshard").ProcessShardWorker,
                       "serve", "pipeline.procshard.serve")

    device = mod("repro.sptc.device").EmulatedDevice
    tracer.wrap_method(device, "spmm", "sptc.device.spmm", _roofline_of_call)
    tracer.wrap_method(device, "gemm", "sptc.device.gemm")
    tracer.wrap_function(mod("repro.gnn.frameworks").prepare_setting,
                         "gnn.frameworks.prepare")
    aggregator = mod("repro.gnn.layers").Aggregator
    tracer.wrap_method(aggregator, "mm", "gnn.layers.aggregate")
    tracer.wrap_method(aggregator, "mm_t", "gnn.layers.aggregate")
    linear = mod("repro.gnn.linear").Linear
    tracer.wrap_method(linear, "forward", "gnn.linear.update")
    tracer.wrap_method(linear, "backward", "gnn.linear.update")
    tracer.wrap_method(mod("repro.gnn.optim").Adam, "step", "gnn.optim.step")
    tracer.propagate_context()


# -- computed (not measured) kernel work ------------------------------------------

def roofline_work(operand, h: int) -> tuple[float, float]:
    """``(flops, bytes)`` one SpMM on ``operand`` at width ``h`` performs,
    as :mod:`repro.sptc.roofline` computes them for the A100 model."""
    from repro.sptc import roofline
    from repro.sptc.csr import CSRMatrix
    from repro.sptc.hybrid import HybridVNM
    from repro.sptc.venom import VNMCompressed

    points = []
    if isinstance(operand, HybridVNM):
        points.append(roofline.venom_roofline(operand.main, h))
        if operand.residual is not None and operand.residual.nnz:
            points.append(roofline.csr_roofline(operand.residual, h))
    elif isinstance(operand, VNMCompressed):
        points.append(roofline.venom_roofline(operand, h))
    elif isinstance(operand, CSRMatrix):
        points.append(roofline.csr_roofline(operand, h))
    return (sum(p.flops for p in points), sum(p.bytes_moved for p in points))


def executed_slots(operand, plan) -> int:
    """Multiply-adds per output column the chosen kernel path performs.

    The engine's dense panel multiplies every cell; the gathered plan and
    the naive kernels multiply every stored slot, padding included.
    """
    from repro.sptc.csr import CSRMatrix
    from repro.sptc.hybrid import HybridVNM

    if plan is not None and plan.variant == "panel":
        return int(operand.shape[0]) * int(operand.shape[1])
    if isinstance(operand, HybridVNM):
        return int(operand.main.values.size) + int(operand.residual_nnz)
    if isinstance(operand, CSRMatrix):
        return int(operand.nnz)
    return int(operand.values.size)


def useful_nnz(operand) -> int:
    from repro.sptc.hybrid import HybridVNM

    if isinstance(operand, HybridVNM):
        return int((operand.main.values != 0).sum()) + int(operand.residual_nnz)
    return int(operand.nnz)


def sptc_nnz_frac(operands) -> float:
    """Share of the operands' nonzeros served on the SPTC (V:N:M) path."""
    total = sum(useful_nnz(op) for op in operands)
    residual = sum(int(getattr(op, "residual_nnz", 0)) for op in operands)
    return (total - residual) / total if total else 0.0


# -- span-tree reductions -------------------------------------------------------------

class UnitView:
    """Per-unit reductions over the spans under a set of unit root spans."""

    def __init__(self, tree: SpanTree, units: list[Span]):
        self.tree = tree
        self.units = units
        self._desc = {u.sid: tree.descendants(u) for u in units}

    def spans(self, unit: Span, name: str) -> list[Span]:
        return [s for s in self._desc[unit.sid] if s.name == name]

    def sums(self, name: str) -> list[float]:
        """Per unit: summed inclusive duration of the layer's spans."""
        return [sum(s.duration for s in self.spans(u, name)) for u in self.units]

    def median_sum(self, name: str) -> float:
        return statistics.median(self.sums(name)) if self.units else 0.0

    def median_attr(self, name: str, attr: str) -> float:
        if not self.units:
            return 0.0
        return statistics.median(
            sum(s.attrs.get(attr, 0) for s in self.spans(u, name))
            for u in self.units)

    def median_self(self, name: str) -> float:
        vals = [sum(self.tree.self_time(s) for s in self.spans(u, name))
                for u in self.units]
        return statistics.median(vals) if vals else 0.0

    def failures(self, name: str) -> float:
        """Calls of the layer that raised, over all units."""
        return float(sum(s.error for u in self.units for s in self.spans(u, name)))


def covered_frac(tree: SpanTree, units: list[Span]) -> float:
    """Share of the units' wall time that named layer spans account for."""
    total = sum(u.duration for u in units)
    if not total:
        return 0.0
    uncovered = sum(tree.self_time(u) for u in units)
    return (total - uncovered) / total
