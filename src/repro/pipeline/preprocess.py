"""Offline preprocessing: autoselect → reorder → split → compress.

One :class:`PreprocessPlan` describes everything the offline step does to a
graph — which V:N:M pattern to target (or to auto-search), how hard to try,
which operator structure to build (raw / normalized / self-looped adjacency)
and which serving backend to compress for.  :func:`preprocess` executes the
plan on one graph; :func:`preprocess_many` fans a batch out through
:mod:`repro.parallel`'s process pool.  Both consult an optional
:class:`~repro.pipeline.cache.ArtifactCache` first, so repeated
preprocessing of the same graph is a load, not a re-search (paper §4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.autoselect import find_best_pattern
from ..core.bitmatrix import BitMatrix
from ..obs import events as obs_events
from ..obs import trace as obs_trace
from ..core.patterns import VNMPattern, parse_pattern
from ..core.permutation import Permutation
from ..core.reorder import reorder
from ..core.scores import improvement_rate
from ..graphs.graph import Graph
from ..parallel import reorder_many
from ..sptc.csr import CSRMatrix
from . import registry
from .resilience import PipelineError, PreprocessError, WorkerCrashError

__all__ = ["PreprocessPlan", "PreprocessResult", "preprocess", "preprocess_many"]

# Backends whose operands the artifact cache can persist (see sptc/serialize).
_CACHEABLE_BACKENDS = ("vnm", "hybrid")


@dataclass(frozen=True)
class PreprocessPlan:
    """Declarative description of one offline preprocessing run.

    ``pattern=None`` runs the paper's §5 progressive-doubling search
    (:func:`find_best_pattern`) with the ``select`` policy; a concrete
    :class:`VNMPattern` — or its ``"V:N:M"`` / ``"N:M"`` string, parsed
    here — skips the search.  ``normalized`` /
    ``add_self_loops`` choose the operator structure that gets compressed
    (GCN's Â needs both; plain SpMM serving wants the raw adjacency).
    """

    pattern: VNMPattern | str | None = None
    backend: str = "hybrid"
    max_iter: int = 10
    time_budget: float | None = None
    select: str = "fastest"
    normalized: bool = False
    add_self_loops: bool = False
    reorder_kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        if isinstance(self.pattern, str):
            object.__setattr__(self, "pattern", parse_pattern(self.pattern))
        elif self.pattern is not None and not isinstance(self.pattern, VNMPattern):
            raise TypeError(
                f"pattern must be a VNMPattern, a 'V:N:M' string or None, "
                f"got {type(self.pattern).__name__}")

    def key_fields(self) -> dict:
        """The plan fields that determine the artifact — the cache-key input."""
        return {
            "pattern": str(self.pattern) if self.pattern is not None else "auto",
            "backend": self.backend,
            "max_iter": self.max_iter,
            "time_budget": self.time_budget,
            "select": self.select,
            "normalized": self.normalized,
            "add_self_loops": self.add_self_loops,
            "reorder_kwargs": sorted(self.reorder_kwargs.items()),
        }


@dataclass
class PreprocessResult:
    """Everything serving needs: the operand, its basis, and provenance.

    ``plan`` carries the operand's
    :class:`~repro.perf.engine.ExecutionPlan` (built here, or loaded from
    the artefact cache's ``<key>.plan.pkl`` sidecar), adopted into the
    engine's plan cache by serving; ``None`` when the backend is
    unplannable.
    """

    pattern: VNMPattern
    permutation: Permutation
    operand: Any
    backend: str
    cached: bool = False
    cache_key: str | None = None
    summary: dict = field(default_factory=dict)
    plan: Any = None

    @property
    def improvement_rate(self) -> float:
        return improvement_rate(
            self.summary.get("initial_invalid_vectors", 0),
            self.summary.get("final_invalid_vectors", 0),
        )


def _reorder_target(graph: Graph | BitMatrix, plan: PreprocessPlan) -> BitMatrix:
    """The bit structure the reordering optimizes: A, or A + I with loops."""
    bm = graph.bitmatrix() if isinstance(graph, Graph) else graph
    if plan.add_self_loops:
        bm = bm.copy()
        bm.set_diagonal()
    return bm


def _operator_csr(graph: Graph | BitMatrix, perm: Permutation, plan: PreprocessPlan) -> CSRMatrix:
    """The reordered numeric operator that gets compressed."""
    if isinstance(graph, Graph):
        return graph.relabel(perm).csr(
            normalized=plan.normalized, add_self_loops=plan.add_self_loops
        )
    reordered = graph.permute_rows(perm.order).permute_columns(perm.order)
    if plan.add_self_loops:
        reordered.set_diagonal()
    return CSRMatrix.from_scipy(reordered.to_scipy())


def _plan_operand(operand, key, cache, *, stored: bool):
    """Build (or load) the operand's execution plan; persist it as a sidecar.

    On a cache hit (``stored=True`` means the artefact was just written;
    ``False`` means it was loaded) the ``<key>.plan.pkl`` sidecar is tried
    first and adopted into the engine's per-operand cache — a stale or
    mismatched sidecar falls back to a fresh build, which is then persisted
    so the next load hits.  Unplannable operands return ``None``.
    """
    from ..perf import engine

    if cache is not None and key is not None and not stored:
        sidecar = cache.load_plan(key)
        if sidecar is not None:
            try:
                return engine.adopt_plan(operand, sidecar)
            except (TypeError, ValueError):
                pass  # geometry drifted from the artefact: rebuild below
    try:
        built = engine.plan_for(operand)
    except TypeError:
        return None
    if cache is not None and key is not None:
        cache.store_plan(key, built)
    return built


def _search_or_reorder(bm: BitMatrix, plan: PreprocessPlan):
    """Run the pattern search (pattern=None) or a direct reorder; returns
    ``(pattern, permutation, summary)``.

    Offline-stage failures — a search that finds nothing, or a reorder that
    raises — surface as :class:`PreprocessError` so callers catch one
    taxonomy instead of stage-specific exceptions.
    """
    if plan.pattern is None:
        # reorder_kwargs are reorder()-specific knobs; the pattern search
        # drives reorder() itself, so they do not apply here.
        try:
            best = find_best_pattern(
                bm, max_iter=plan.max_iter, select=plan.select,
                attempt_time_budget=plan.time_budget or 30.0,
            )
        except PipelineError:
            raise
        except Exception as exc:
            raise PreprocessError(f"pattern search failed: {exc}") from exc
        if not best.succeeded:
            raise PreprocessError(
                "no conforming V:N:M pattern found; pass an explicit pattern",
                attempts=[str(pat) for pat, _ in best.attempts],
            )
        return best.pattern, best.result.permutation, best.result.summary()
    try:
        res = reorder(
            bm, plan.pattern, max_iter=plan.max_iter,
            time_budget=plan.time_budget, **plan.reorder_kwargs,
        )
    except PipelineError:
        raise
    except Exception as exc:
        raise PreprocessError(
            f"reorder failed for pattern {plan.pattern}: {exc}",
            pattern=str(plan.pattern),
        ) from exc
    return plan.pattern, res.permutation, res.summary()


def preprocess(
    graph: Graph | BitMatrix,
    plan: PreprocessPlan | None = None,
    *,
    cache=None,
) -> PreprocessResult:
    """Execute ``plan`` on one graph, going through ``cache`` when given."""
    plan = plan or PreprocessPlan()
    with obs_trace.span("preprocess", backend=plan.backend) as sp:
        key = None
        if cache is not None and plan.backend in _CACHEABLE_BACKENDS:
            from .cache import cache_key

            key = cache_key(graph, plan)
            with obs_trace.span("preprocess.cache_lookup"):
                hit = cache.load(key)
            if hit is not None:
                operand, perm = hit
                sp.set(cached=True)
                obs_events.emit("preprocess.done", cached=True, cache_key=key)
                return PreprocessResult(
                    pattern=operand.pattern, permutation=perm, operand=operand,
                    backend=plan.backend, cached=True, cache_key=key,
                    plan=_plan_operand(operand, key, cache, stored=False),
                )

        pattern, perm, summary = _search_or_reorder(_reorder_target(graph, plan), plan)
        with obs_trace.span("preprocess.compress", backend=plan.backend):
            csr = _operator_csr(graph, perm, plan)
            operand = registry.compress(csr, plan.backend, pattern)

        if key is not None:
            with obs_trace.span("preprocess.cache_store"):
                cache.store(key, operand, perm)
        sp.set(cached=False, pattern=str(pattern))
        obs_events.emit(
            "preprocess.done", cached=False, cache_key=key, pattern=str(pattern),
            iterations=summary.get("iterations"),
            improvement_rate=summary.get("improvement_rate"),
        )
        return PreprocessResult(
            pattern=pattern, permutation=perm, operand=operand,
            backend=plan.backend, cached=False, cache_key=key, summary=summary,
            plan=_plan_operand(operand, key, cache, stored=True),
        )


def preprocess_many(
    graphs: list,
    plan: PreprocessPlan | None = None,
    *,
    n_workers: int | None = None,
    pool=None,
    cache=None,
) -> list[PreprocessResult]:
    """Batch preprocessing; the reorder stage fans out over a process pool.

    Cache hits are answered up front; only the misses go to the workers.
    ``pool`` accepts a persistent :class:`repro.perf.pool.WorkerPool` so
    repeated batches reuse warm workers (and the batch's packed words
    travel by shared memory — see :mod:`repro.parallel`); without one an
    ephemeral pool is built per call.  With ``plan.pattern=None`` the
    per-graph pattern search runs inline (the search's candidate
    reorderings are themselves the expensive part and differ per graph, so
    there is no shared batch to fan out).
    """
    plan = plan or PreprocessPlan()
    results: list[PreprocessResult | None] = [None] * len(graphs)

    batch_span = obs_trace.span("preprocess_many", graphs=len(graphs), backend=plan.backend)
    with batch_span:
        pending: list[int] = []
        keys: list[str | None] = [None] * len(graphs)
        with obs_trace.span("preprocess.cache_lookup", graphs=len(graphs)):
            for i, graph in enumerate(graphs):
                if cache is not None and plan.backend in _CACHEABLE_BACKENDS:
                    from .cache import cache_key

                    key = cache_key(graph, plan)
                    keys[i] = key
                    hit = cache.load(key)
                    if hit is not None:
                        operand, perm = hit
                        results[i] = PreprocessResult(
                            pattern=operand.pattern, permutation=perm, operand=operand,
                            backend=plan.backend, cached=True, cache_key=key,
                            plan=_plan_operand(operand, key, cache, stored=False),
                        )
                        continue
                pending.append(i)
        batch_span.set(hits=len(graphs) - len(pending))

        if pending and plan.pattern is not None:
            mats = [_reorder_target(graphs[i], plan) for i in pending]
            try:
                # reorder_many runs each job under a worker-local tracer and
                # grafts the picklable span records back here (see
                # repro.parallel), so per-graph reorder spans survive the
                # process-pool boundary.
                summaries = reorder_many(
                    mats, plan.pattern,
                    n_workers=n_workers,
                    pool=pool,
                    max_iter=plan.max_iter,
                    time_budget=plan.time_budget,
                    **plan.reorder_kwargs,
                )
            except WorkerCrashError as exc:
                # Translate the batch-local job index into the caller's graph
                # index before the error leaves the pipeline.
                job = exc.context.get("index")
                graph_index = pending[job] if isinstance(job, int) and job < len(pending) else None
                raise WorkerCrashError(
                    f"preprocessing worker failed on graph {graph_index}: {exc}",
                    index=graph_index, job_index=job,
                ) from exc
            for i, summ in zip(pending, summaries):
                perm = summ.permutation
                with obs_trace.span("preprocess.compress", index=i, backend=plan.backend):
                    csr = _operator_csr(graphs[i], perm, plan)
                    operand = registry.compress(csr, plan.backend, plan.pattern)
                if keys[i] is not None:
                    with obs_trace.span("preprocess.cache_store", index=i):
                        cache.store(keys[i], operand, perm)
                obs_events.emit(
                    "preprocess.done", cached=False, cache_key=keys[i],
                    pattern=summ.pattern, iterations=summ.iterations,
                    improvement_rate=summ.improvement_rate,
                )
                results[i] = PreprocessResult(
                    pattern=plan.pattern, permutation=perm, operand=operand,
                    backend=plan.backend, cached=False, cache_key=keys[i],
                    plan=_plan_operand(operand, keys[i], cache, stored=True),
                    summary={
                        "pattern": summ.pattern,
                        "iterations": summ.iterations,
                        "initial_invalid_vectors": summ.initial_invalid_vectors,
                        "final_invalid_vectors": summ.final_invalid_vectors,
                        "improvement_rate": summ.improvement_rate,
                        "conforms": summ.conforms,
                        "elapsed_seconds": summ.elapsed_seconds,
                    },
                )
        else:
            for i in pending:
                results[i] = preprocess(graphs[i], plan, cache=cache)

    return results  # type: ignore[return-value]
