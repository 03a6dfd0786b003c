"""Artifact cache: content addressing, hit/miss/invalidation semantics."""

import numpy as np
import pytest

from repro.core import BitMatrix, VNMPattern
from repro.pipeline import (
    ArtifactCache,
    PreprocessPlan,
    adjacency_fingerprint,
    cache_key,
    preprocess,
)
from repro.pipeline import cache as cache_mod

PATTERN = VNMPattern(1, 2, 4)


def make_bm(seed=0, n=48, density=0.06):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) < density
    a = (a | a.T).astype(np.uint8)
    np.fill_diagonal(a, 0)
    return BitMatrix.from_dense(a)


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


class TestCacheKey:
    def test_deterministic(self):
        bm = make_bm()
        plan = PreprocessPlan(pattern=PATTERN)
        assert cache_key(bm, plan) == cache_key(make_bm(), plan)

    def test_sensitive_to_adjacency(self):
        plan = PreprocessPlan(pattern=PATTERN)
        assert cache_key(make_bm(0), plan) != cache_key(make_bm(1), plan)

    def test_sensitive_to_plan_knobs(self):
        bm = make_bm()
        base = cache_key(bm, PreprocessPlan(pattern=PATTERN))
        assert base != cache_key(bm, PreprocessPlan(pattern=VNMPattern(1, 2, 8)))
        assert base != cache_key(bm, PreprocessPlan(pattern=PATTERN, max_iter=3))
        assert base != cache_key(bm, PreprocessPlan(pattern=PATTERN, backend="vnm"))
        assert base != cache_key(
            bm, PreprocessPlan(pattern=PATTERN, reorder_kwargs={"use_stage1": False}))
        assert base != cache_key(bm, PreprocessPlan())  # autoselect keys differently

    def test_sensitive_to_format_version(self, monkeypatch):
        bm = make_bm()
        plan = PreprocessPlan(pattern=PATTERN)
        before = cache_key(bm, plan)
        monkeypatch.setattr(cache_mod.serialize, "_FORMAT_VERSION", 999)
        assert cache_key(bm, plan) != before

    def test_fingerprint_covers_shape_and_bits(self):
        assert adjacency_fingerprint(make_bm(0)) == adjacency_fingerprint(make_bm(0))
        assert adjacency_fingerprint(make_bm(0)) != adjacency_fingerprint(make_bm(2))


class TestHitMissInvalidate:
    def test_miss_then_hit(self, cache):
        bm = make_bm()
        plan = PreprocessPlan(pattern=PATTERN)
        first = preprocess(bm, plan, cache=cache)
        assert not first.cached
        assert cache.stats.misses == 1 and cache.stats.stores == 1
        assert first.cache_key in cache

        second = preprocess(bm, plan, cache=cache)
        assert second.cached
        assert cache.stats.hits == 1
        assert second.permutation == first.permutation
        assert np.allclose(second.operand.decompress(), first.operand.decompress())

    def test_invalidation_forces_recompute(self, cache):
        bm = make_bm()
        plan = PreprocessPlan(pattern=PATTERN)
        first = preprocess(bm, plan, cache=cache)
        assert cache.invalidate(first.cache_key)
        assert first.cache_key not in cache
        assert not cache.invalidate(first.cache_key)  # already gone
        third = preprocess(bm, plan, cache=cache)
        assert not third.cached

    def test_corrupt_artifact_is_a_miss(self, cache):
        bm = make_bm()
        plan = PreprocessPlan(pattern=PATTERN)
        first = preprocess(bm, plan, cache=cache)
        cache.path(first.cache_key).write_bytes(b"not an npz")
        assert cache.load(first.cache_key) is None
        assert first.cache_key not in cache  # corrupt entry was dropped

    def test_compressed_stream_damage_is_a_miss(self, cache):
        # Scribbling mid-file keeps the zip structure readable but damages
        # a stored (uncompressed, format v3) member: the read surfaces as a
        # crc32 BadZipFile, or a ValueError when it hits an npy header.
        bm = make_bm()
        plan = PreprocessPlan(pattern=PATTERN)
        first = preprocess(bm, plan, cache=cache)
        path = cache.path(first.cache_key)
        raw = bytearray(path.read_bytes())
        raw[100:120] = b"\xff" * 20
        path.write_bytes(bytes(raw))
        assert cache.load(first.cache_key) is None
        assert cache.stats.quarantined == 1
        assert first.cache_key not in cache

    def test_clear_and_len(self, cache):
        for seed in range(3):
            preprocess(make_bm(seed), PreprocessPlan(pattern=PATTERN), cache=cache)
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_uncacheable_backend_bypasses(self, cache):
        res = preprocess(make_bm(), PreprocessPlan(pattern=PATTERN, backend="csr"),
                         cache=cache)
        assert res.cache_key is None
        assert len(cache) == 0
