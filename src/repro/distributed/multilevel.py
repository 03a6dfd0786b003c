"""Multilevel graph partitioning (the §4.4 distributed-GNN substrate).

The paper's distributed deployment partitions large graphs across devices
and cites the partitioning literature [6, 10, 33, 56, 64] for balance and
cut quality.  This is a compact multilevel partitioner in that family:

1. **Coarsen** — repeated heavy-edge matching collapses the graph until it
   is small;
2. **Initial partition** — greedy BFS region growing on the coarsest graph;
3. **Uncoarsen + refine** — project the assignment back up, fixing balance
   and applying a Kernighan–Lin-style boundary refinement at each level.

It is not METIS, but it produces balanced partitions with materially lower
edge cuts than contiguous 1-D blocking on clustered graphs, which is what
the distributed benches need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.graph import Graph

__all__ = ["PartitionResult", "multilevel_partition", "partition_quality"]


@dataclass
class PartitionResult:
    """Vertex → part assignment plus quality metrics."""

    assignment: np.ndarray
    n_parts: int
    edge_cut: int
    imbalance: float

    def part_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_parts)


def partition_quality(graph: Graph, assignment: np.ndarray, n_parts: int) -> tuple[int, float]:
    """(edge cut, imbalance) of an assignment; imbalance = max/ideal − 1."""
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    cut = int((assignment[u] != assignment[v]).sum())
    sizes = np.bincount(assignment, minlength=n_parts)
    ideal = graph.n / n_parts
    imbalance = float(sizes.max() / ideal - 1.0) if graph.n else 0.0
    return cut, imbalance


# ---------------------------------------------------------------------------
# coarsening
# ---------------------------------------------------------------------------

def _heavy_edge_matching(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray, rng) -> np.ndarray:
    """Greedy matching preferring heavy edges; returns coarse-vertex map."""
    order = np.argsort(-w, kind="stable")
    matched = np.full(n, -1, dtype=np.int64)
    for e in order:
        a, b = int(u[e]), int(v[e])
        if matched[a] == -1 and matched[b] == -1 and a != b:
            matched[a] = b
            matched[b] = a
    coarse_id = np.full(n, -1, dtype=np.int64)
    nxt = 0
    for x in range(n):
        if coarse_id[x] != -1:
            continue
        coarse_id[x] = nxt
        if matched[x] != -1:
            coarse_id[matched[x]] = nxt
        nxt += 1
    return coarse_id


def _contract(n_coarse: int, u, v, w, coarse_id):
    cu, cv = coarse_id[u], coarse_id[v]
    keep = cu != cv
    cu, cv, cw = cu[keep], cv[keep], w[keep]
    lo = np.minimum(cu, cv)
    hi = np.maximum(cu, cv)
    key = lo * np.int64(n_coarse) + hi
    order = np.argsort(key, kind="stable")
    key, lo, hi, cw = key[order], lo[order], hi[order], cw[order]
    first = np.ones(key.size, dtype=bool)
    if key.size:
        first[1:] = key[1:] != key[:-1]
    group = np.cumsum(first) - 1
    summed = np.zeros(int(group[-1]) + 1 if key.size else 0)
    np.add.at(summed, group, cw)
    return lo[first], hi[first], summed


# ---------------------------------------------------------------------------
# initial partition + refinement
# ---------------------------------------------------------------------------

def _bfs_grow(n: int, adj_ptr, adj_idx, vweight, n_parts: int, rng) -> np.ndarray:
    """Greedy region growing from spread-out seeds, balanced by vertex weight."""
    assignment = np.full(n, -1, dtype=np.int64)
    total = float(vweight.sum())
    target = total / n_parts
    seeds = rng.choice(n, size=min(n_parts, n), replace=False)
    frontiers = [[int(s)] for s in seeds]
    sizes = np.zeros(n_parts, dtype=np.float64)
    for p, s in enumerate(seeds):
        assignment[s] = p
        sizes[p] += vweight[s]
    progress = True
    while progress:
        progress = False
        for p in range(n_parts):
            if sizes[p] >= target or not frontiers[p]:
                continue
            nxt = []
            for x in frontiers[p]:
                for y in adj_idx[adj_ptr[x] : adj_ptr[x + 1]]:
                    y = int(y)
                    if assignment[y] == -1 and sizes[p] < target:
                        assignment[y] = p
                        sizes[p] += vweight[y]
                        nxt.append(y)
            frontiers[p] = nxt
            progress = progress or bool(nxt)
    # Unreached vertices: fill lightest parts.
    for x in np.nonzero(assignment == -1)[0]:
        p = int(np.argmin(sizes))
        assignment[x] = p
        sizes[p] += vweight[x]
    return assignment


def _refine(
    n: int, adj_ptr, adj_idx, adj_w, vweight, assignment, n_parts: int, passes: int = 3
) -> np.ndarray:
    """Greedy boundary refinement with a weighted balance guard."""
    assignment = assignment.copy()
    sizes = np.zeros(n_parts, dtype=np.float64)
    np.add.at(sizes, assignment, vweight)
    max_size = float(vweight.sum()) / n_parts * 1.05
    for _ in range(passes):
        moved = 0
        for x in range(n):
            nbrs = adj_idx[adj_ptr[x] : adj_ptr[x + 1]]
            if nbrs.size == 0:
                continue
            wts = adj_w[adj_ptr[x] : adj_ptr[x + 1]]
            cur = assignment[x]
            gain_to = np.zeros(n_parts)
            np.add.at(gain_to, assignment[nbrs], wts)
            best = int(np.argmax(gain_to))
            if (
                best != cur
                and gain_to[best] > gain_to[cur]
                and sizes[best] + vweight[x] <= max_size
                and sizes[cur] > vweight[x]
            ):
                assignment[x] = best
                sizes[cur] -= vweight[x]
                sizes[best] += vweight[x]
                moved += 1
        if moved == 0:
            break
    return assignment


def _rebalance(
    n: int, adj_ptr, adj_idx, adj_w, vweight, assignment, n_parts: int
) -> np.ndarray:
    """Force every part under the balance cap, moving the cheapest vertices."""
    assignment = assignment.copy()
    sizes = np.zeros(n_parts, dtype=np.float64)
    np.add.at(sizes, assignment, vweight)
    cap = float(vweight.sum()) / n_parts * 1.05
    for _ in range(4 * n):
        over = int(np.argmax(sizes))
        if sizes[over] <= cap:
            break
        under = int(np.argmin(sizes))
        members = np.nonzero(assignment == over)[0]
        # Cheapest member to move: least internal connectivity to `over`.
        best_x, best_loss = int(members[0]), np.inf
        for x in members:
            nbrs = adj_idx[adj_ptr[x] : adj_ptr[x + 1]]
            wts = adj_w[adj_ptr[x] : adj_ptr[x + 1]]
            internal = float(wts[assignment[nbrs] == over].sum())
            toward = float(wts[assignment[nbrs] == under].sum())
            loss = internal - toward
            if loss < best_loss:
                best_loss, best_x = loss, int(x)
        assignment[best_x] = under
        sizes[over] -= vweight[best_x]
        sizes[under] += vweight[best_x]
    return assignment


def _csr_arrays(n, u, v, w):
    du = np.concatenate([u, v])
    dv = np.concatenate([v, u])
    dw = np.concatenate([w, w])
    order = np.argsort(du, kind="stable")
    du, dv, dw = du[order], dv[order], dw[order]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(ptr, du + 1, 1)
    np.cumsum(ptr, out=ptr)
    return ptr, dv, dw


def multilevel_partition(
    graph: Graph,
    n_parts: int,
    *,
    coarsen_to: int = 64,
    seed: int = 0,
    refine_passes: int = 3,
) -> PartitionResult:
    """Partition ``graph`` into ``n_parts`` balanced parts, minimizing cut."""
    if n_parts < 1:
        raise ValueError("n_parts must be positive")
    if n_parts == 1 or graph.n <= n_parts:
        assignment = (np.arange(graph.n) % n_parts).astype(np.int64)
        cut, imb = partition_quality(graph, assignment, n_parts)
        return PartitionResult(assignment, n_parts, cut, imb)

    rng = np.random.default_rng(seed)
    levels = []
    u = graph.edges[:, 0].astype(np.int64)
    v = graph.edges[:, 1].astype(np.int64)
    w = (graph.weights if graph.weights is not None else np.ones(u.size)).astype(np.float64)
    n = graph.n
    vweight = np.ones(n, dtype=np.float64)
    vweights = [vweight]
    # Coarsening phase.
    while n > max(coarsen_to, 4 * n_parts) and u.size:
        coarse_id = _heavy_edge_matching(n, u, v, w, rng)
        n_coarse = int(coarse_id.max()) + 1
        if n_coarse >= n:  # no progress (e.g. empty matching)
            break
        levels.append(coarse_id)
        new_weight = np.zeros(n_coarse, dtype=np.float64)
        np.add.at(new_weight, coarse_id, vweight)
        vweight = new_weight
        vweights.append(vweight)
        u, v, w = _contract(n_coarse, u, v, w, coarse_id)
        n = n_coarse

    # Initial partition on the coarsest graph.
    ptr, idx, wts = _csr_arrays(n, u, v, w)
    assignment = _bfs_grow(n, ptr, idx, vweight, n_parts, rng)
    assignment = _refine(n, ptr, idx, wts, vweight, assignment, n_parts, refine_passes)

    # Uncoarsen with refinement at every level.  The fine graph at level i is
    # the original edge set projected through the first i contraction maps.
    base_u = graph.edges[:, 0].astype(np.int64)
    base_v = graph.edges[:, 1].astype(np.int64)
    base_w = (graph.weights if graph.weights is not None
              else np.ones(base_u.size)).astype(np.float64)
    for i in range(len(levels) - 1, -1, -1):
        coarse_id = levels[i]
        assignment = assignment[coarse_id]
        n_fine = coarse_id.shape[0]
        fu, fv = base_u, base_v
        for cid in levels[:i]:
            fu, fv = cid[fu], cid[fv]
        keep = fu != fv
        ptr, idx, wts = _csr_arrays(n_fine, fu[keep], fv[keep], base_w[keep])
        vw = vweights[i]
        assignment = _refine(n_fine, ptr, idx, wts, vw, assignment, n_parts, refine_passes)
        assignment = _rebalance(n_fine, ptr, idx, wts, vw, assignment, n_parts)

    cut, imb = partition_quality(graph, assignment, n_parts)
    return PartitionResult(assignment.astype(np.int64), n_parts, cut, imb)
