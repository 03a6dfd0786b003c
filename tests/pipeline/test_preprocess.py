"""PreprocessPlan execution: single, autoselect, and batch modes."""

import numpy as np
import pytest

from repro.core import BitMatrix, VNMPattern, reorder
from repro.graphs import sbm_graph
from repro.pipeline import ArtifactCache, PreprocessPlan, preprocess, preprocess_many

PATTERN = VNMPattern(1, 2, 4)


def make_graph(seed=0, n=80):
    g, _ = sbm_graph(n, 3, 0.15, 0.01, np.random.default_rng(seed))
    return g


def make_bms(count, seed=0, n=48):
    out = []
    for i in range(count):
        rng = np.random.default_rng(seed + i)
        a = rng.random((n, n)) < 0.06
        a = (a | a.T).astype(np.uint8)
        np.fill_diagonal(a, 0)
        out.append(BitMatrix.from_dense(a))
    return out


class TestPreprocess:
    def test_explicit_pattern_is_lossless(self):
        g = make_graph()
        res = preprocess(g, PreprocessPlan(pattern=PATTERN))
        assert res.pattern == PATTERN
        res.permutation.validate()
        # The operand is the reordered adjacency, exactly.
        reordered = g.relabel(res.permutation).dense_adjacency()
        assert np.allclose(res.operand.decompress(), reordered)

    def test_matches_direct_reorder(self):
        bm = make_bms(1)[0]
        res = preprocess(bm, PreprocessPlan(pattern=PATTERN))
        direct = reorder(bm, PATTERN, max_iter=10)
        assert np.array_equal(res.permutation.order, direct.permutation.order)
        assert res.summary["final_invalid_vectors"] == direct.final_invalid_vectors

    def test_autoselect(self):
        g = make_graph()
        res = preprocess(g, PreprocessPlan(max_iter=4))
        assert res.pattern is not None
        assert res.summary.get("conforms")

    def test_add_self_loops_targets_a_plus_i(self):
        g = make_graph()
        res = preprocess(g, PreprocessPlan(pattern=PATTERN, add_self_loops=True,
                                           normalized=True))
        ref = g.relabel(res.permutation).dense_adjacency(
            normalized=True, add_self_loops=True)
        assert np.allclose(res.operand.decompress(), ref)

    def test_self_loops_match_per_element_loop(self):
        """The vectorised diagonal set gives the bits the per-row loop gave."""
        from repro.core import Permutation
        from repro.pipeline.preprocess import _operator_csr, _reorder_target

        bm = make_bms(1, n=70)[0]
        plan = PreprocessPlan(pattern=PATTERN, add_self_loops=True)
        looped = bm.copy()
        for i in range(looped.n_rows):
            looped.set(i, i, 1)
        assert _reorder_target(bm, plan) == looped
        assert bm.get(5, 5) == 0  # the caller's matrix is left alone

        perm = Permutation(np.random.default_rng(2).permutation(bm.n_rows))
        reordered = looped.permute_rows(perm.order).permute_columns(perm.order)
        got = _operator_csr(bm, perm, plan)
        assert np.array_equal(got.to_dense(), reordered.to_dense().astype(np.float64))

    def test_backend_choice(self):
        g = make_graph()
        res = preprocess(g, PreprocessPlan(pattern=PATTERN, backend="vnm"))
        from repro.sptc import VNMCompressed

        assert isinstance(res.operand, VNMCompressed)


class TestPreprocessMany:
    def test_matches_individual(self):
        bms = make_bms(3)
        plan = PreprocessPlan(pattern=PATTERN)
        batch = preprocess_many(bms, plan, n_workers=1)
        for bm, res in zip(bms, batch):
            single = preprocess(bm, plan)
            assert np.array_equal(res.permutation.order, single.permutation.order)
            assert np.allclose(res.operand.decompress(), single.operand.decompress())

    def test_parallel_workers_agree(self):
        bms = make_bms(4)
        plan = PreprocessPlan(pattern=PATTERN)
        inline = preprocess_many(bms, plan, n_workers=1)
        pooled = preprocess_many(bms, plan, n_workers=2)
        for a, b in zip(inline, pooled):
            assert np.array_equal(a.permutation.order, b.permutation.order)

    def test_batch_cache_integration(self, tmp_path):
        bms = make_bms(3)
        plan = PreprocessPlan(pattern=PATTERN)
        cache = ArtifactCache(tmp_path / "c")
        first = preprocess_many(bms, plan, n_workers=1, cache=cache)
        assert not any(r.cached for r in first)
        second = preprocess_many(bms, plan, n_workers=1, cache=cache)
        assert all(r.cached for r in second)
        # Partial hit: one new matrix alongside two cached ones.
        mixed = preprocess_many(bms[:2] + make_bms(1, seed=9), plan,
                                n_workers=1, cache=cache)
        assert [r.cached for r in mixed] == [True, True, False]

    def test_improvement_rate_property(self):
        bm = make_bms(1)[0]
        res = preprocess(bm, PreprocessPlan(pattern=PATTERN))
        assert 0.0 <= res.improvement_rate <= 1.0


class TestErrors:
    def test_unknown_backend(self):
        with pytest.raises(KeyError):
            preprocess(make_graph(), PreprocessPlan(pattern=PATTERN, backend="nope"))

    def test_pattern_string_parses_at_construction(self):
        for text, pattern in (("2:4", PATTERN), ("1:2:32", VNMPattern(1, 2, 32))):
            plan = PreprocessPlan(pattern=text)
            assert plan.pattern == pattern
            assert plan.key_fields() == PreprocessPlan(pattern=pattern).key_fields()

    def test_bad_pattern_raises_at_construction(self):
        for bad in ("abc", "1:2:3:4", "0:2:4"):
            with pytest.raises(ValueError):
                PreprocessPlan(pattern=bad)
        with pytest.raises(TypeError):
            PreprocessPlan(pattern=(1, 2, 4))


class TestPlanPersistence:
    """Execution plans ride the artefact cache as <key>.plan.pkl sidecars."""

    def test_fresh_preprocess_builds_and_persists_plan(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        res = preprocess(make_graph(), PreprocessPlan(pattern=PATTERN), cache=cache)
        assert res.plan is not None
        assert res.plan.shape == res.operand.shape
        assert cache.plan_path(res.cache_key).exists()

    def test_cache_hit_loads_plan_sidecar(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        g = make_graph()
        plan = PreprocessPlan(pattern=PATTERN)
        preprocess(g, plan, cache=cache)
        res = preprocess(g, plan, cache=cache)
        assert res.cached
        assert res.plan is not None
        assert cache.stats.plan_hits == 1

    def test_damaged_sidecar_rebuilds_plan(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        g = make_graph()
        plan = PreprocessPlan(pattern=PATTERN)
        first = preprocess(g, plan, cache=cache)
        cache.plan_path(first.cache_key).write_bytes(b"garbage")
        res = preprocess(g, plan, cache=cache)
        assert res.cached and res.plan is not None
        # The rebuilt plan was re-persisted over the quarantined sidecar.
        assert cache.plan_path(first.cache_key).exists()

    def test_no_cache_still_builds_plan(self):
        res = preprocess(make_graph(), PreprocessPlan(pattern=PATTERN))
        assert res.plan is not None

    def test_from_result_adopts_plan(self, tmp_path):
        from repro.perf import engine
        from repro.pipeline import ServingSession

        res = preprocess(make_graph(), PreprocessPlan(pattern=PATTERN))
        session = ServingSession.from_result(res)
        assert engine.cached_plan(session.operand) is res.plan

    def test_preprocess_many_attaches_plans(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        bms = make_bms(3)
        plan = PreprocessPlan(pattern=PATTERN)
        first = preprocess_many(bms, plan, n_workers=1, cache=cache)
        again = preprocess_many(bms, plan, n_workers=1, cache=cache)
        assert all(r.plan is not None for r in first)
        assert all(r.cached and r.plan is not None for r in again)
