"""Content-addressed cache of preprocessing artefacts.

Reordering is the expensive offline step; its outputs (permutation +
compressed operand) are pure functions of the adjacency structure and the
preprocessing plan.  This cache keys artefacts by a sha256 over the
structure's fingerprint, the plan knobs and the serialize format version,
and stores them via :mod:`repro.sptc.serialize`, so preprocessing the same
graph twice is a file load, not a re-search — the paper's §4.4 "reorder
once, reuse across many inferences" deployment story made automatic.

The key covers everything that changes the artefact:

* the sparsity structure the reordering optimises (the adjacency, with
  self-loops when the plan adds them), fingerprinted as
  ``sha256(b"<rows>x<cols>:" + indptr + indices)`` over its CSR ``indptr``
  and ``indices`` as little-endian int64 (column indices sorted within each
  row, duplicates merged, explicit zeros kept as structure).  A
  :class:`~repro.graphs.Graph` supplies its cached
  ``csr(add_self_loops=...)``; a :class:`BitMatrix` supplies its
  ``nonzero()`` coordinates.  Both routes give the same key for the same
  structure; the graph's is the cheap one (it never builds the dense bit
  matrix on a warm open);
* the target pattern (or ``"auto"`` plus the selection policy),
* every reorder knob (``max_iter``, ``time_budget``, extra kwargs),
* the backend name and the on-disk ``_FORMAT_VERSION`` — bumping the
  serializer invalidates every stale artefact at once.

Integrity (robustness PR): stores are **atomic** (written to a ``.tmp``
sibling, then ``os.replace``'d into place) so a killed preprocess never
leaves a half-written artefact, and artefacts carry an embedded sha256
verified on every load (see :mod:`repro.sptc.serialize`).  A corrupt or
unreadable entry — including a leftover zip-based artefact of an older
format — is **quarantined** to a ``.corrupt/`` sidecar directory — counted
in :attr:`CacheStats.quarantined`, never silently deleted — and the read is
answered as a miss.  :meth:`ArtifactCache.fsck` checks every entry offline
(the CLI ``doctor`` subcommand).  Files keep the ``.npz`` suffix of the
older zip formats; it is now only a name, so ``clear``, ``fsck`` and
quarantine cover old and new artefacts alike.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.bitmatrix import BitMatrix
from ..graphs.graph import Graph
from ..obs import events as obs_events
from ..sptc.csr import CSRMatrix
from ..sptc import serialize
from . import faults
from .preprocess import PreprocessPlan, _reorder_target

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "cache_key",
    "adjacency_fingerprint",
    "shard_cache_key",
]

# Failure modes a damaged artefact can surface: an unreadable file
# (OSError) or content-level damage (ValueError, which includes serialize's
# ArtifactCorruptError for every structural and checksum failure).
_CORRUPT_ERRORS = (ValueError, OSError)


def adjacency_fingerprint(structure: BitMatrix | CSRMatrix) -> str:
    """Hex digest of a sparsity structure: shape, CSR ``indptr``, ``indices``.

    A :class:`CSRMatrix` must be canonical (sorted column indices within
    each row, no duplicate entries), as every ``CSRMatrix.from_coo`` and
    ``Graph.csr`` is; its values are ignored.  A :class:`BitMatrix` is
    turned into the same arrays from its set bits.
    """
    if isinstance(structure, BitMatrix):
        rows, indices = structure.nonzero()
        indptr = np.zeros(structure.n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=structure.n_rows), out=indptr[1:])
    else:
        indptr, indices = structure.indptr, structure.indices
    n_rows, n_cols = structure.shape
    digest = hashlib.sha256(f"{n_rows}x{n_cols}:".encode())
    digest.update(np.ascontiguousarray(indptr, dtype="<i8"))
    digest.update(np.ascontiguousarray(indices, dtype="<i8"))
    return digest.hexdigest()


def cache_key(graph: Graph | BitMatrix, plan: PreprocessPlan) -> str:
    """Content address of the artefact ``plan`` would produce for ``graph``."""
    if isinstance(graph, Graph):
        structure = graph.csr(add_self_loops=plan.add_self_loops)
    else:
        structure = _reorder_target(graph, plan)
    payload = {
        "adjacency": adjacency_fingerprint(structure),
        "format_version": serialize._FORMAT_VERSION,
        **plan.key_fields(),
    }
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:32]


def shard_cache_key(base_key: str, index: int, n_shards: int, *, align: int = 1) -> str:
    """Content address of one row shard of a cached artefact.

    Derived from the whole-operand ``base_key`` (which already covers the
    adjacency bits, the plan knobs, and the serialize format version) plus
    the shard geometry: its index, the shard count, and the row-block
    alignment (the pattern's tile height ``v``).  Changing any of these
    re-addresses every shard, so a re-partitioned deployment never loads a
    stale slice; shards of the same artefact under the same geometry are
    cache hits across sessions.
    """
    blob = f"{base_key}:shard:{index}/{n_shards}:align{align}".encode()
    return hashlib.sha256(blob).hexdigest()[:32]


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    quarantined: int = 0
    # Sidecar accounting: execution-plan (<key>.plan.pkl) lookups next to
    # the artefacts.
    plan_hits: int = 0
    plan_misses: int = 0


class ArtifactCache:
    """A directory of ``<key>.npz`` artefacts with hit/miss accounting.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) turns on hit/miss/
    corrupt/store counters plus load/store latency histograms; without it
    only the cheap :class:`CacheStats` fields are kept.
    """

    def __init__(self, cache_dir, *, metrics=None):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self.metrics = metrics
        if metrics is not None:
            self._m_hits = metrics.counter("cache_hits_total", help="artefact cache hits")
            self._m_misses = metrics.counter("cache_misses_total", help="artefact cache misses")
            self._m_corrupt = metrics.counter(
                "cache_corrupt_total", help="corrupt artefacts quarantined"
            )
            self._m_stores = metrics.counter("cache_stores_total", help="artefacts stored")
            self._m_load = metrics.histogram(
                "cache_load_seconds", help="artefact load latency"
            )
            self._m_store = metrics.histogram(
                "cache_store_seconds", help="artefact store latency"
            )

    @property
    def quarantine_dir(self) -> Path:
        return self.cache_dir / ".corrupt"

    def path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.npz"

    def __contains__(self, key: str) -> bool:
        return self.path(key).exists()

    def __len__(self) -> int:
        return len(list(self.cache_dir.glob("*.npz")))

    def _quarantine(self, path: Path) -> Path:
        """Move a corrupt artefact aside (never silently delete the evidence)."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        dest = self.quarantine_dir / path.name
        os.replace(path, dest)
        self.stats.quarantined += 1
        if self.metrics is not None:
            self._m_corrupt.inc()
        obs_events.emit("cache.quarantine", key=path.stem, dest=str(dest))
        return dest

    def quarantined(self) -> list[Path]:
        """The artefacts quarantined so far (this cache dir, any session)."""
        if not self.quarantine_dir.is_dir():
            return []
        return sorted(self.quarantine_dir.glob("*.npz"))

    def load(self, key: str):
        """Return ``(operand, permutation)`` or ``None`` on a miss.

        A corrupt or version-mismatched artefact counts as a miss; the bad
        file is quarantined to ``.corrupt/`` (and counted) rather than
        failing the preprocessing run or being silently dropped.
        """
        path = self.path(key)
        if not path.exists():
            self.stats.misses += 1
            if self.metrics is not None:
                self._m_misses.inc()
            return None
        faults.maybe_corrupt_cache_file(key, path)
        t0 = time.perf_counter() if self.metrics is not None else 0.0
        try:
            artefact = serialize.load_preprocessed(path)
        except _CORRUPT_ERRORS:
            self._quarantine(path)
            self.stats.misses += 1
            if self.metrics is not None:
                self._m_misses.inc()
            return None
        self.stats.hits += 1
        if self.metrics is not None:
            self._m_hits.inc()
            self._m_load.observe(time.perf_counter() - t0)
        return artefact

    def store(self, key: str, operand, permutation) -> Path:
        """Atomically persist one artefact.

        The file is written to a ``.tmp`` sibling and ``os.replace``'d into
        place, so a preprocess killed mid-write leaves no half-written
        ``<key>.npz`` that a later run would load as corrupt.
        """
        path = self.path(key)
        tmp = Path(f"{path}.tmp")
        t0 = time.perf_counter() if self.metrics is not None else 0.0
        try:
            serialize.save_preprocessed(tmp, operand=operand, permutation=permutation)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        self.stats.stores += 1
        if self.metrics is not None:
            self._m_stores.inc()
            self._m_store.observe(time.perf_counter() - t0)
        return path

    # -- sidecars: execution plans ------------------------------------------
    def plan_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.plan.pkl"

    # The envelope's version: sidecars written by an older plan layout
    # (bare pickled plans, or envelopes below this version) are
    # quarantined on load and rebuilt from the operand.
    _PLAN_SIDECAR_VERSION = 3

    def store_plan(self, key: str, plan) -> Path:
        """Persist an execution plan next to its artefact (atomic write).

        Plans drop their scratch on pickling (see :mod:`repro.perf.engine`),
        so the sidecar holds only the plan's backend and shape.
        """
        import pickle

        envelope = {"sidecar_version": self._PLAN_SIDECAR_VERSION, "plan": plan}
        path = self.plan_path(key)
        tmp = Path(f"{path}.tmp")
        try:
            tmp.write_bytes(pickle.dumps(envelope))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    def load_plan(self, key: str):
        """The persisted plan for ``key``, or ``None``.

        An unreadable sidecar, or one from another sidecar version, is
        quarantined and answered as a miss — the caller rebuilds the plan
        from the operand, so a damaged or stale sidecar never blocks
        serving.  The cache directory is trusted local state (same trust
        level as the ``.npz`` artefacts it sits beside), which is what
        makes pickle acceptable here.
        """
        import pickle

        path = self.plan_path(key)
        if not path.exists():
            self.stats.plan_misses += 1
            return None
        try:
            envelope = pickle.loads(path.read_bytes())
            if envelope["sidecar_version"] != self._PLAN_SIDECAR_VERSION:
                raise ValueError("plan sidecar version mismatch")
            plan = envelope["plan"]
        except Exception:  # noqa: BLE001 - any unpickling damage is a miss
            self._quarantine(path)
            self.stats.plan_misses += 1
            return None
        self.stats.plan_hits += 1
        return plan

    def invalidate(self, key: str) -> bool:
        """Drop one artefact (and its sidecars); returns whether it existed."""
        path = self.path(key)
        existed = path.exists()
        path.unlink(missing_ok=True)
        self.plan_path(key).unlink(missing_ok=True)
        return existed

    def clear(self) -> int:
        """Drop every artefact and sidecar; returns how many artefacts were removed."""
        removed = 0
        for path in self.cache_dir.glob("*.npz"):
            path.unlink(missing_ok=True)
            removed += 1
        for path in self.cache_dir.glob("*.plan.pkl"):
            path.unlink(missing_ok=True)
        return removed

    def fsck(self, *, quarantine: bool = True) -> dict:
        """Integrity-check every artefact (the ``doctor`` subcommand's core).

        Tries a full checksum-verified load of each ``<key>.npz``; corrupt
        entries are quarantined (unless ``quarantine=False``) and orphaned
        ``.tmp`` files from killed writers are removed.  Returns
        ``{"checked", "ok", "corrupt", "tmp_removed"}`` with key lists.
        """
        import pickle

        report: dict = {
            "checked": 0, "ok": [], "corrupt": [], "tmp_removed": [],
            "plan_corrupt": [],
        }
        for pattern in ("*.npz.tmp", "*.plan.pkl.tmp"):
            for tmp in sorted(self.cache_dir.glob(pattern)):
                tmp.unlink(missing_ok=True)
                report["tmp_removed"].append(tmp.name)
        for path in sorted(self.cache_dir.glob("*.npz")):
            key = path.stem
            report["checked"] += 1
            try:
                serialize.load_preprocessed(path)
            except _CORRUPT_ERRORS:
                report["corrupt"].append(key)
                if quarantine:
                    self._quarantine(path)
            else:
                report["ok"].append(key)
        for path in sorted(self.cache_dir.glob("*.plan.pkl")):
            try:
                pickle.loads(path.read_bytes())
            except Exception:  # noqa: BLE001 - any unpickling damage counts
                report["plan_corrupt"].append(path.name.removesuffix(".plan.pkl"))
                if quarantine:
                    self._quarantine(path)
        return report
