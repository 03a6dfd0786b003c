"""Multi-device cluster simulation (§5.2)."""

import pytest

from repro.core import VNMPattern
from repro.distributed import Cluster
from repro.gnn import prepare_setting
from repro.graphs import NeighborSampler, load_dataset

PATTERN = VNMPattern(1, 2, 4)


@pytest.fixture(scope="module")
def samples():
    g = load_dataset("ogbn-arxiv", seed=0)
    sampler = NeighborSampler(g, [8, 8], seed=0)
    return [sampler.sample(30) for _ in range(4)]


class TestCluster:
    def test_devices_created(self):
        c = Cluster(n_devices=4)
        assert len(c.devices) == 4
        assert [d.device_id for d in c.devices] == [0, 1, 2, 3]

    def test_run_distributes_samples(self, samples):
        c = Cluster(n_devices=2)
        run = c.run_gnn(samples, "sgc", "default-original", PATTERN, hidden=32)
        assert run.n_samples == len(samples)
        assert all(t > 0 for t in run.per_device_seconds)
        assert run.makespan <= run.total_seconds

    def test_more_devices_lower_makespan(self, samples):
        one = Cluster(n_devices=1).run_gnn(samples, "sgc", "default-original", PATTERN, hidden=32)
        four = Cluster(n_devices=4).run_gnn(samples, "sgc", "default-original", PATTERN, hidden=32)
        assert four.makespan < one.makespan

    def test_reordered_setting_faster(self, samples):
        base_prep = [prepare_setting(s, "default-original", PATTERN) for s in samples]
        reor_prep = [prepare_setting(s, "revised-reordered", PATTERN) for s in samples]
        c = Cluster(n_devices=4)
        base = c.run_gnn(samples, "sgc", "default-original", PATTERN, hidden=32,
                         prepared=base_prep)
        fast = c.run_gnn(samples, "sgc", "revised-reordered", PATTERN, hidden=32,
                         prepared=reor_prep)
        assert fast.aggregation_seconds < base.aggregation_seconds
        assert fast.total_seconds < base.total_seconds
