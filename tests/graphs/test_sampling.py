"""Neighbour sampling."""

import numpy as np

from repro.graphs import NeighborSampler, sample_ogbn_like_subgraphs


class TestNeighborSampler:
    def test_sample_is_subgraph(self, cora_like):
        sampler = NeighborSampler(cora_like, [5, 5], seed=0)
        sub = sampler.sample(20)
        assert 20 <= sub.n <= cora_like.n
        assert sub.features is not None
        assert sub.labels is not None

    def test_fanout_bounds_growth(self, cora_like):
        tight = NeighborSampler(cora_like, [2], seed=0).sample(10)
        loose = NeighborSampler(cora_like, [20], seed=0).sample(10)
        assert tight.n <= loose.n

    def test_deterministic_with_seed(self, cora_like):
        a = NeighborSampler(cora_like, [5, 5], seed=3).sample(15)
        b = NeighborSampler(cora_like, [5, 5], seed=3).sample(15)
        assert a.n == b.n and a.n_edges == b.n_edges

    def test_batches(self, cora_like):
        sampler = NeighborSampler(cora_like, [4], seed=1)
        batches = list(sampler.batches(3, 10))
        assert len(batches) == 3

    def test_seed_count_capped_at_n(self, small_community_graph):
        sampler = NeighborSampler(small_community_graph, [3], seed=0)
        sub = sampler.sample(10_000)
        assert sub.n <= small_community_graph.n


class TestOgbnLikeSampling:
    def test_target_size_roughly_met(self, cora_like):
        subs = sample_ogbn_like_subgraphs(cora_like, 400, 3, seed=0)
        assert len(subs) == 3
        sizes = np.array([s.n for s in subs])
        assert (sizes > 50).all()
        assert (sizes <= cora_like.n).all()

    def test_subgraphs_carry_payload(self, cora_like):
        (sub,) = sample_ogbn_like_subgraphs(cora_like, 300, 1, seed=1)
        assert sub.features.shape[0] == sub.n
        assert sub.labels.shape == (sub.n,)
