"""Row partitioning and per-partition reordering (§4.4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import VNMPattern
from repro.distributed import edge_cut, partition_rows, reorder_partitions
from repro.graphs import Graph


class TestPartitionRows:
    def test_balanced(self):
        parts = partition_rows(100, 4)
        assert [p.size for p in parts] == [25, 25, 25, 25]
        assert parts[0].start == 0 and parts[-1].stop == 100

    def test_uneven(self):
        parts = partition_rows(10, 3)
        assert sum(p.size for p in parts) == 10
        assert max(p.size for p in parts) - min(p.size for p in parts) <= 1

    def test_single(self):
        parts = partition_rows(7, 1)
        assert parts[0].size == 7

    def test_invalid(self):
        with pytest.raises(ValueError):
            partition_rows(4, 0)


class TestAlignedPartitionRows:
    """The sharding contract: v-aligned boundaries, exhaustive coverage."""

    def test_aligned_boundaries(self):
        parts = partition_rows(100, 3, align=8)
        # Interior boundaries are tile multiples; the last stop is n itself.
        for p in parts[:-1]:
            assert p.stop % 8 == 0
        assert parts[0].start == 0 and parts[-1].stop == 100

    def test_partial_tail_tile_stays_whole(self):
        # 13 rows at v=4 is 4 tiles; the 1-row tail tile must not be split
        # off into its own boundary crossing.
        parts = partition_rows(13, 2, align=4)
        assert [(p.start, p.stop) for p in parts] == [(0, 8), (8, 13)]

    def test_too_many_parts_for_tiles_rejected(self):
        # 8 rows = 2 tiles of height 4: a third aligned partition would be
        # empty, and an empty shard serves nothing and merges wrong.
        with pytest.raises(ValueError):
            partition_rows(8, 3, align=4)

    def test_bad_align_rejected(self):
        with pytest.raises(ValueError):
            partition_rows(8, 2, align=0)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=4096),
        n_parts=st.integers(min_value=1, max_value=12),
        align=st.integers(min_value=1, max_value=16),
    )
    def test_coverage_is_exhaustive_and_aligned(self, n, n_parts, align):
        n_tiles = -(-n // align)
        if n_parts > n_tiles:
            with pytest.raises(ValueError):
                partition_rows(n, n_parts, align=align)
            return
        parts = partition_rows(n, n_parts, align=align)
        # Exhaustive disjoint coverage: contiguous, ordered, no gaps.
        assert parts[0].start == 0
        assert parts[-1].stop == n
        for prev, nxt in zip(parts, parts[1:]):
            assert prev.stop == nxt.start
        # Every partition is non-empty and v-aligned at both interior ends.
        for p in parts:
            assert p.size > 0
            assert p.start % align == 0
        for p in parts[:-1]:
            assert p.stop % align == 0
        # Whole-tile balance: sizes differ by at most one tile.
        tile_counts = [-(-p.size // align) for p in parts]
        assert max(tile_counts) - min(tile_counts) <= 1
        # Devices are numbered in order.
        assert [p.device for p in parts] == list(range(n_parts))


class TestEdgeCut:
    def test_no_cut_within_partition(self):
        g = Graph.from_edge_list(8, [[0, 1], [2, 3], [4, 5], [6, 7]])
        assert edge_cut(g, partition_rows(8, 4)) == 0

    def test_all_cut(self):
        g = Graph.from_edge_list(8, [[0, 4], [1, 5], [2, 6], [3, 7]])
        assert edge_cut(g, partition_rows(8, 2)) == 4


class TestReorderPartitions:
    def test_permutation_stays_within_partitions(self, small_community_graph):
        n_parts = 4
        perm, results = reorder_partitions(small_community_graph, n_parts, VNMPattern(1, 2, 4),
                                           max_iter=3)
        perm.validate()
        parts = partition_rows(small_community_graph.n, n_parts)
        for p in parts:
            segment = perm.order[p.start : p.stop]
            assert segment.min() >= p.start and segment.max() < p.stop

    def test_local_blocks_improve(self, small_community_graph):
        _, results = reorder_partitions(small_community_graph, 2, VNMPattern(1, 2, 4), max_iter=5)
        for r in results:
            assert r.final_invalid_vectors <= r.initial_invalid_vectors

    def test_global_relabel_preserves_graph(self, small_community_graph):
        perm, _ = reorder_partitions(small_community_graph, 2, VNMPattern(1, 2, 4), max_iter=2)
        g2 = small_community_graph.relabel(perm)
        assert g2.n_edges == small_community_graph.n_edges
