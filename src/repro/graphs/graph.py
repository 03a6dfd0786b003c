"""The Graph container used across the library.

A :class:`Graph` is an undirected graph with optional edge weights, node
features, labels, and train/val/test masks — everything a GNN node
classification experiment needs.  Its adjacency is exposed in each of the
representations the pipeline consumes (BitMatrix for reordering, CSR for the
baseline SpMM, dense for compression), and :meth:`relabel` applies a vertex
permutation losslessly to *all* attached data, which is the paper's central
"reordering changes nothing but the numbering" property.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.bitmatrix import BitMatrix
from ..core.permutation import Permutation
from ..sptc.csr import CSRMatrix

__all__ = ["Graph"]


@dataclass
class Graph:
    """An undirected graph with GNN node-classification payload."""

    n: int
    edges: np.ndarray                       # (E, 2) undirected, each pair once, u < v
    weights: np.ndarray | None = None       # (E,) positive edge weights
    features: np.ndarray | None = None      # (n, F)
    labels: np.ndarray | None = None        # (n,)
    train_mask: np.ndarray | None = None
    val_mask: np.ndarray | None = None
    test_mask: np.ndarray | None = None
    name: str = ""
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_edge_list(
        cls,
        n: int,
        edges: np.ndarray,
        *,
        weights: np.ndarray | None = None,
        dedup: bool = True,
        **kwargs,
    ) -> "Graph":
        """Build from an arbitrary (possibly directed/duplicated) edge list.

        Edges are symmetrized to canonical ``u < v`` pairs; self-loops drop.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
        if weights is not None:
            weights = weights[keep]
        if dedup and lo.size:
            key = lo * np.int64(n) + hi
            order = np.argsort(key, kind="stable")
            key, lo, hi = key[order], lo[order], hi[order]
            first = np.ones(key.size, dtype=bool)
            first[1:] = key[1:] != key[:-1]
            lo, hi = lo[first], hi[first]
            if weights is not None:
                weights = weights[order][first]
        return cls(n=n, edges=np.stack([lo, hi], axis=1), weights=weights, **kwargs)

    @classmethod
    def from_dense(cls, a: np.ndarray, **kwargs) -> "Graph":
        a = np.asarray(a)
        rows, cols = np.nonzero(np.triu(a, 1))
        w = a[rows, cols].astype(np.float64)
        return cls(n=a.shape[0], edges=np.stack([rows, cols], axis=1), weights=w, **kwargs)

    # -- basic stats ------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def n_directed_edges(self) -> int:
        """Directed (adjacency-matrix) non-zero count: 2 per undirected edge."""
        return 2 * self.n_edges

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        np.add.at(deg, self.edges[:, 0], 1)
        np.add.at(deg, self.edges[:, 1], 1)
        return deg

    def density(self) -> float:
        return self.n_directed_edges / (self.n * self.n) if self.n else 0.0

    # -- adjacency views -----------------------------------------------------------
    def _sym_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        u, v = self.edges[:, 0], self.edges[:, 1]
        w = self.weights if self.weights is not None else np.ones(self.n_edges)
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        data = np.concatenate([w, w])
        return rows, cols, data

    def bitmatrix(self) -> BitMatrix:
        bm = self._cache.get("bitmatrix")
        if bm is None:
            rows, cols, _ = self._sym_coo()
            bm = BitMatrix.from_edges(self.n, rows, cols)
            self._cache["bitmatrix"] = bm
        return bm

    def csr(self, *, normalized: bool = False, add_self_loops: bool = False) -> CSRMatrix:
        key = ("csr", normalized, add_self_loops)
        out = self._cache.get(key)
        if out is None:
            rows, cols, data = self._sym_coo()
            if add_self_loops:
                loops = np.arange(self.n)
                rows = np.concatenate([rows, loops])
                cols = np.concatenate([cols, loops])
                data = np.concatenate([data, np.ones(self.n)])
            if normalized:
                deg = np.zeros(self.n)
                np.add.at(deg, rows, data)
                inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-12)), 0.0)
                data = data * inv_sqrt[rows] * inv_sqrt[cols]
            out = CSRMatrix.from_coo(rows, cols, data, (self.n, self.n))
            self._cache[key] = out
        return out

    def dense_adjacency(self, *, normalized: bool = False,
                        add_self_loops: bool = False) -> np.ndarray:
        return self.csr(normalized=normalized, add_self_loops=add_self_loops).to_dense()

    # -- transformations ----------------------------------------------------------
    def relabel(self, perm: Permutation) -> "Graph":
        """Apply a vertex permutation to the whole graph — lossless.

        ``perm`` is in gather form (``perm[new] = old``); every per-vertex
        array is gathered and edge endpoints are renumbered via the inverse.
        """
        if perm.n != self.n:
            raise ValueError("permutation size does not match graph")
        new_of_old = perm.inverse().order

        def gather(x):
            return None if x is None else np.asarray(x)[perm.order]

        return Graph.from_edge_list(
            self.n,
            new_of_old[self.edges],
            weights=None if self.weights is None else self.weights.copy(),
            dedup=False,
            features=gather(self.features),
            labels=gather(self.labels),
            train_mask=gather(self.train_mask),
            val_mask=gather(self.val_mask),
            test_mask=gather(self.test_mask),
            name=self.name,
        )

    def induced_subgraph(self, vertices: np.ndarray) -> "Graph":
        """Subgraph on ``vertices`` (relabelled 0..len-1, original order kept)."""
        vertices = np.asarray(vertices, dtype=np.int64)
        new_id = -np.ones(self.n, dtype=np.int64)
        new_id[vertices] = np.arange(vertices.size)
        u, v = self.edges[:, 0], self.edges[:, 1]
        keep = (new_id[u] >= 0) & (new_id[v] >= 0)

        def gather(x):
            return None if x is None else np.asarray(x)[vertices]

        return Graph.from_edge_list(
            vertices.size,
            np.stack([new_id[u[keep]], new_id[v[keep]]], axis=1),
            weights=None if self.weights is None else self.weights[keep],
            dedup=False,
            features=gather(self.features),
            labels=gather(self.labels),
            train_mask=gather(self.train_mask),
            val_mask=gather(self.val_mask),
            test_mask=gather(self.test_mask),
            name=self.name,
        )

    def to_networkx(self):
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(map(tuple, self.edges))
        return g

    def __repr__(self) -> str:
        return f"Graph(name={self.name!r}, n={self.n}, edges={self.n_edges})"
