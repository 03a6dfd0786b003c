"""Property tests (hypothesis): one cache key from either structure route.

``cache_key`` fingerprints the reordering target from a :class:`Graph`'s
cached CSR or from a :class:`BitMatrix`'s set bits.  The two must agree on
every structure, including the edge lists that exercise CSR canonicalisation:
duplicate edges (merged), self-loop edges (one diagonal entry, also when the
plan adds self-loops), zero weights (still structure), isolated vertices and
sizes that are not a multiple of the 64-bit word.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BitMatrix, VNMPattern
from repro.graphs import Graph
from repro.pipeline import PreprocessPlan, cache_key


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=1, max_value=150))
    n_edges = draw(st.integers(min_value=0, max_value=3 * n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    # Endpoints from a prefix of the vertices, so the tail is isolated.
    used = int(rng.integers(1, n + 1))
    edges = rng.integers(0, used, size=(n_edges, 2))
    if n_edges and draw(st.booleans()):
        edges = np.concatenate([edges, edges[: n_edges // 2 + 1]])  # duplicates
    if draw(st.booleans()):
        loops = rng.integers(0, n, size=(int(rng.integers(1, 4)), 1))
        edges = np.concatenate([edges, np.repeat(loops, 2, axis=1)])  # self-loops
    weights = rng.integers(0, 3, size=len(edges)).astype(np.float64)  # some zero
    return n, edges.reshape(-1, 2), weights


def _dense_bitmatrix(n, edges):
    """The symmetric structure, built independently of both routes."""
    dense = np.zeros((n, n), dtype=np.uint8)
    dense[edges[:, 0], edges[:, 1]] = 1
    dense[edges[:, 1], edges[:, 0]] = 1
    return BitMatrix.from_dense(dense)


class TestCacheKeyRoutes:
    @settings(max_examples=60, deadline=None)
    @given(edge_lists(), st.booleans(), st.sampled_from([None, VNMPattern(1, 2, 8)]))
    def test_graph_and_bitmatrix_routes_agree(self, case, add_self_loops, pattern):
        n, edges, weights = case
        plan = PreprocessPlan(pattern=pattern, add_self_loops=add_self_loops)
        # The raw constructor keeps duplicates and self-loops as given.
        graph = Graph(n=n, edges=edges, weights=weights)
        key = cache_key(graph, plan)
        assert key == cache_key(graph.bitmatrix(), plan)
        assert key == cache_key(_dense_bitmatrix(n, edges), plan)
        # Canonicalised edge lists give the same structure without loops.
        if not (edges[:, 0] == edges[:, 1]).any():
            canonical = Graph.from_edge_list(n, edges, weights=weights)
            assert cache_key(canonical, plan) == key
