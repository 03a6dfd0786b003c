"""Graph container: construction, views, relabelling."""

import numpy as np
import pytest

from repro.core import Permutation
from repro.graphs import Graph


class TestConstruction:
    def test_from_edge_list_symmetrizes_and_dedups(self):
        g = Graph.from_edge_list(4, [[0, 1], [1, 0], [2, 3], [2, 2]])
        assert g.n_edges == 2
        assert g.n_directed_edges == 4

    def test_self_loops_dropped(self):
        g = Graph.from_edge_list(3, [[0, 0], [1, 1]])
        assert g.n_edges == 0

    def test_weights_follow_dedup(self):
        g = Graph.from_edge_list(3, [[0, 1], [1, 2]], weights=[0.5, 2.0])
        d = g.dense_adjacency()
        assert d[0, 1] == 0.5 and d[1, 0] == 0.5
        assert d[1, 2] == 2.0

    def test_from_dense(self, weighted_sym_dense):
        g = Graph.from_dense(weighted_sym_dense)
        assert np.allclose(g.dense_adjacency(), weighted_sym_dense)


class TestViews:
    def test_bitmatrix_symmetric(self, small_community_graph):
        bm = small_community_graph.bitmatrix()
        assert bm.is_symmetric()
        assert bm.nnz() == small_community_graph.n_directed_edges

    def test_csr_matches_dense(self, small_community_graph):
        csr = small_community_graph.csr()
        assert np.allclose(csr.to_dense(), small_community_graph.dense_adjacency())

    def test_normalized_adjacency_rows(self, small_community_graph):
        a_hat = small_community_graph.dense_adjacency(normalized=True, add_self_loops=True)
        # Symmetric normalization: eigenvalues within [-1, 1]; check symmetry
        # and that isolated-free rows are properly scaled.
        assert np.allclose(a_hat, a_hat.T)
        deg = (small_community_graph.dense_adjacency() != 0).sum(1) + 1
        assert a_hat.max() <= 1.0 + 1e-9
        assert (np.diag(a_hat) > 0).sum() == (deg > 0).sum()

    def test_self_loops_on_diagonal(self, small_community_graph):
        a = small_community_graph.dense_adjacency(add_self_loops=True)
        assert (np.diag(a) == 1.0).all()

    def test_cache_reuse(self, small_community_graph):
        assert small_community_graph.csr() is small_community_graph.csr()
        assert small_community_graph.bitmatrix() is small_community_graph.bitmatrix()

    def test_degrees(self):
        g = Graph.from_edge_list(4, [[0, 1], [0, 2], [0, 3]])
        assert g.degrees().tolist() == [3, 1, 1, 1]


class TestRelabel:
    def test_relabel_permutes_adjacency(self, small_community_graph, rng):
        g = small_community_graph
        p = Permutation.random(g.n, rng)
        g2 = g.relabel(p)
        assert np.array_equal(g2.bitmatrix().to_dense(),
                              p.apply_to_matrix(g.bitmatrix().to_dense()))

    def test_relabel_carries_payload(self, cora_like, rng):
        p = Permutation.random(cora_like.n, rng)
        g2 = cora_like.relabel(p)
        assert np.array_equal(g2.labels, cora_like.labels[p.order])
        assert np.array_equal(g2.features, cora_like.features[p.order])
        assert np.array_equal(g2.train_mask, cora_like.train_mask[p.order])

    def test_relabel_preserves_edge_count(self, small_community_graph, rng):
        p = Permutation.random(small_community_graph.n, rng)
        assert small_community_graph.relabel(p).n_edges == small_community_graph.n_edges

    def test_relabel_size_mismatch(self, small_community_graph):
        with pytest.raises(ValueError):
            small_community_graph.relabel(Permutation.identity(3))

    def test_relabel_roundtrip(self, small_community_graph, rng):
        g = small_community_graph
        p = Permutation.random(g.n, rng)
        back = g.relabel(p).relabel(p.inverse())
        assert np.array_equal(back.bitmatrix().to_dense(), g.bitmatrix().to_dense())


class TestSubgraph:
    def test_induced_subgraph(self):
        g = Graph.from_edge_list(5, [[0, 1], [1, 2], [2, 3], [3, 4]])
        sub = g.induced_subgraph(np.array([1, 2, 3]))
        assert sub.n == 3
        assert sub.n_edges == 2  # (1,2) and (2,3) survive

    def test_subgraph_payload(self, cora_like):
        vids = np.arange(0, 100)
        sub = cora_like.induced_subgraph(vids)
        assert np.array_equal(sub.labels, cora_like.labels[:100])
        assert sub.features.shape == (100, cora_like.features.shape[1])

    def test_to_networkx(self, small_community_graph):
        nx_g = small_community_graph.to_networkx()
        assert nx_g.number_of_nodes() == small_community_graph.n
        assert nx_g.number_of_edges() == small_community_graph.n_edges
