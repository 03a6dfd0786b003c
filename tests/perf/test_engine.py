"""Execution engine: the one SpMM path, pickling, caching, fault composition.

Feature matrices are integer-valued throughout the exactness tests, so all
float64 partial sums are exact regardless of accumulation order and every
execution path must match the dense reference **bitwise**, not just
approximately.
"""

import gc
import multiprocessing
import pickle
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import VNMPattern
from repro.core.patterns import NMPattern
from repro.obs import metrics as obs_metrics
from repro.perf import engine
from repro.pipeline import ArtifactCache, PreprocessPlan, faults, preprocess, registry
from repro.pipeline.resilience import BackendExecutionError
from repro.sptc import CSRMatrix, EmulatedDevice, HybridVNM
from repro.sptc.bsr import BSRMatrix
from repro.sptc.nm_format import NMCompressed
from repro.sptc.sell import SellCSigma
from repro.sptc.spmm import dense_spmm
from repro.sptc.tcgnn import TCGNNBlocked
from repro.sptc.venom import VNMCompressed

NM = NMPattern(2, 4)
VNM = VNMPattern(1, 2, 4)


def conforming(n_rows, n_cols, rng, n=2, m=4):
    """An integer-valued matrix obeying the N:M row constraint exactly."""
    a = np.zeros((n_rows, n_cols))
    n_segs = (n_cols + m - 1) // m
    for i in range(n_rows):
        for s in range(n_segs):
            width = min(m, n_cols - s * m)
            k = min(n, width)
            cols = rng.choice(width, size=k, replace=False) + s * m
            a[i, cols] = rng.integers(1, 8, size=k)
    return a


def sprinkled(n_rows, n_cols, rng, density=0.15):
    mask = rng.random((n_rows, n_cols)) < density
    return mask * rng.integers(1, 8, size=(n_rows, n_cols)).astype(np.float64)


_RNG = np.random.default_rng(7)
A_CONF = conforming(48, 48, _RNG)
A_ANY = sprinkled(48, 48, _RNG)
# The dense matrix each backend's operand is compressed from: the
# reference every path is checked against, independent of the formats'
# own index arithmetic.
SOURCE = {"dense": A_ANY, "csr": A_ANY, "bsr": A_ANY, "nm": A_CONF, "vnm": A_CONF,
          "hybrid": A_ANY, "sell": A_ANY, "tcgnn": A_ANY}


@pytest.fixture(scope="module")
def operands():
    return {
        "dense": np.asarray(A_ANY, dtype=np.float64),
        "csr": CSRMatrix.from_dense(A_ANY),
        "bsr": BSRMatrix.from_dense(A_ANY, 4),
        "nm": NMCompressed.compress(A_CONF, NM),
        "vnm": VNMCompressed.compress(A_CONF, VNM),
        "hybrid": HybridVNM.compress(A_ANY, VNM),
        "sell": SellCSigma.from_csr(CSRMatrix.from_dense(A_ANY), c=4, sigma=8),
        "tcgnn": TCGNNBlocked.from_csr(CSRMatrix.from_dense(A_ANY), tile=8),
    }


def plan_counter_total() -> float:
    reg = obs_metrics.default_registry()
    return (reg.counter("engine_plan_builds_total").value
            + reg.counter("engine_plan_cache_hits_total").value)


BACKENDS = ("dense", "csr", "bsr", "nm", "vnm", "hybrid", "sell", "tcgnn")
# Two feature layouts reach the kernel: a contiguous row-major panel, and a
# strided column gather out of a wider table whose other columns are NaN
# (a non-contiguous view; a stray read of a neighbouring column breaks
# bitwise equality).
LAYOUTS = ("panel", "gathered")


def features(b: np.ndarray, layout: str) -> np.ndarray:
    if layout == "panel":
        return np.ascontiguousarray(b)
    wide = np.full((b.shape[0], 2 * b.shape[1]), np.nan)
    wide[:, ::2] = b
    return wide[:, ::2]


class TestExactness:
    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_bitwise_vs_dense(self, operands, name, layout):
        """backend × layout × (device off/on): one path, bit-equal to ``dense @ x``."""
        op = operands[name]
        assert engine.plan_for(op).backend == name  # every built-in format is planned
        raw = np.random.default_rng(3).integers(-(1 << 10), 1 << 10, size=(48, 16))
        raw = raw.astype(np.float64)
        b = features(raw, layout)
        for device in (False, True):
            before = plan_counter_total()
            if device:
                dev = EmulatedDevice()
                out = dev.spmm(op, b)
                (rec,) = dev.records
                assert rec.name == registry.backend_for(op).kernel_name
                assert rec.seconds == registry.model_spmm_time(dev.cost_model, op, 16)
            else:
                out = engine.execute(op, b)
            assert np.array_equal(out, SOURCE[name] @ raw), f"device={device}"
            assert plan_counter_total() > before  # the engine served the launch

    @pytest.mark.parametrize("name", BACKENDS)
    def test_float_features_allclose(self, operands, name):
        op = operands[name]
        b = np.random.default_rng(4).standard_normal((48, 8))
        reference = dense_spmm(SOURCE[name], b)
        out = engine.build_plan(op).execute(op, b)
        assert np.allclose(out, reference, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n_cols", [42, 100])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_ragged_columns(self, n_cols, layout):
        # n_cols % M != 0: padding slots must not leak phantom columns.
        rng = np.random.default_rng(n_cols)
        a = conforming(20, n_cols, rng)
        raw = rng.integers(0, 256, size=(n_cols, 6)).astype(np.float64)
        b = features(raw, layout)
        for op in (NMCompressed.compress(a, NM), VNMCompressed.compress(a, VNM),
                   BSRMatrix.from_dense(a, 8)):
            assert np.array_equal(engine.build_plan(op).execute(op, b), a @ raw)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_batched_wide_features(self, operands, name):
        op = operands[name]
        b = np.random.default_rng(5).integers(0, 64, size=(48, 24)).astype(np.float64)
        reference = dense_spmm(SOURCE[name], b)
        assert np.array_equal(engine.build_plan(op).execute(op, b), reference)

    def test_shape_mismatch_raises(self, operands):
        plan = engine.build_plan(operands["csr"])
        with pytest.raises(ValueError):
            plan.execute(operands["csr"], np.ones((7, 3)))

    def test_large_sparse_operands_never_densify(self):
        # A dense copy of this operand would need 320 GB: building and
        # executing its plans must stay proportional to nnz.
        n = 200_000
        rng = np.random.default_rng(12)
        rows = rng.integers(0, n, size=2000)
        cols = rng.integers(0, n, size=2000)
        csr = CSRMatrix.from_coo(np.concatenate([rows, cols]), np.concatenate([cols, rows]),
                                 None, (n, n))
        b = rng.integers(0, 8, size=(n, 2)).astype(np.float64)
        reference = csr.to_scipy() @ b
        for op in (csr, VNMCompressed.compress_csr(csr, VNMPattern(1, 2, 32)),
                   HybridVNM.compress_csr(csr, VNM)):
            assert np.array_equal(engine.execute(op, b), reference)


class TestFloat32:
    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_fp32_close_to_fp64(self, operands, name, layout):
        op = operands[name]
        plan = engine.build_plan(op)
        b = features(np.random.default_rng(6).standard_normal((48, 8)), layout)
        exact = plan.execute(op, b)
        approx = plan.execute(op, b, dtype=np.float32)
        assert approx.dtype == np.float64  # cast back at the boundary
        assert np.allclose(approx, exact, rtol=1e-4, atol=1e-3)

    def test_fp32_within_bound_probe(self, operands):
        assert isinstance(engine.fp32_within_bound(operands["csr"]), bool)


class TestPickling:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_roundtrip_drops_scratch(self, operands, name):
        op = operands[name]
        plan = engine.build_plan(op)
        b = np.random.default_rng(8).integers(0, 64, size=(48, 4)).astype(np.float64)
        before = plan.execute(op, b)  # builds scratch
        state = plan.__getstate__()
        assert set(state) == {"backend", "shape"}
        loaded = pickle.loads(pickle.dumps(plan))
        assert np.array_equal(loaded.execute(op, b), before)


class TestPlanCache:
    def test_identity_hit(self, operands):
        engine.clear_plan_cache()
        op = operands["csr"]
        assert engine.plan_for(op) is engine.plan_for(op)
        assert engine.cached_plan(op) is not None

    def test_weakref_eviction(self):
        engine.clear_plan_cache()
        op = CSRMatrix.from_dense(np.eye(8))
        engine.plan_for(op)
        assert engine.cached_plan(op) is not None
        del op
        gc.collect()
        assert engine.clear_plan_cache() == 0

    def test_dense_operands_skip_cache(self):
        a = np.eye(6)
        assert engine.plan_for(a) is not engine.plan_for(a)

    def test_adopt_plan_validates(self, operands):
        plan = engine.build_plan(operands["csr"])
        with pytest.raises(ValueError):
            engine.adopt_plan(CSRMatrix.from_dense(np.eye(5)), plan)  # shape
        with pytest.raises(ValueError):
            engine.adopt_plan(operands["nm"], plan)  # wrong backend
        with pytest.raises(TypeError):
            engine.adopt_plan(object(), plan)  # unplannable operand


class OpaqueOperand:
    def __init__(self, a):
        self.a = a
        self.shape = a.shape


class TestExecuteIntegration:
    def test_unplannable_falls_back_to_naive(self):
        # A third-party operand whose backend registers its own kernel is
        # not planned: execute runs that kernel through run_kernel.
        rng = np.random.default_rng(9)
        a = sprinkled(24, 24, rng)
        b = rng.integers(0, 64, size=(24, 4)).astype(np.float64)
        registry.register_backend(registry.Backend(
            name="opaque", operand_types=(OpaqueOperand,),
            spmm=lambda op, x: op.a @ x, kernel_name="opaque_spmm"))
        try:
            op = OpaqueOperand(a)
            with pytest.raises(TypeError):
                engine.plan_for(op)
            assert np.array_equal(engine.execute(op, b), dense_spmm(a, b))
            assert engine.cached_plan(op) is None
        finally:
            registry.unregister_backend("opaque")

    def test_fault_injection_covers_planned_path(self, operands):
        op = operands["nm"]
        b = np.random.default_rng(11).integers(0, 64, size=(48, 4)).astype(np.float64)
        with faults.inject(faults.FaultPlan(kernel_failures={"nm": 1})):
            with pytest.raises(BackendExecutionError):
                engine.execute(op, b)
            # The injected failure is consumed; the next launch heals.
            assert np.array_equal(engine.execute(op, b), dense_spmm(A_CONF, b))

    def test_counters_flow_to_default_registry(self, operands):
        engine.clear_plan_cache()
        op = CSRMatrix.from_dense(np.eye(12))
        engine.plan_for(op)
        engine.plan_for(op)
        snapshot = obs_metrics.default_registry().snapshot()
        assert "engine_plan_builds_total" in snapshot
        assert "engine_plan_cache_hits_total" in snapshot


def row_parallel_cases():
    """(name, dense matrix, features) edge cases of the row-block split."""
    rng = np.random.default_rng(21)

    def ints(*shape):
        return rng.integers(-64, 64, size=shape).astype(np.float64)

    one_row = np.zeros((64, 40))
    one_row[17] = rng.integers(1, 8, size=40)
    # Empty rows wherever nnz-balanced cuts land: only every 9th row is
    # populated, so most blocks start or end on a run of empty rows.
    edges = sprinkled(90, 30, rng, density=0.6)
    edges[np.arange(90) % 9 != 0] = 0
    edges[-5:] = 0
    few = sprinkled(3, 50, rng, density=0.5)  # fewer rows than blocks
    wide = sprinkled(120, 80, rng, density=0.2)
    return [
        ("one_row", one_row, ints(40, 5)),
        ("empty_edges", edges, ints(30, 7)),
        ("few_rows", few, ints(50, 4)),
        ("h1", wide, ints(80, 1)),
        ("vector", wide, ints(80)),
        ("fortran", wide, np.asfortranarray(ints(80, 6))),
    ]


ROW_PARALLEL_CASES = row_parallel_cases()
# Both sides of the serial/parallel threshold: everything parallel, or
# nothing (on a one-core host both run serially).
SIDES = {"parallel": 0, "serial": 1 << 62}


class TestRowParallelKernel:
    @pytest.fixture(params=sorted(SIDES))
    def side(self, request, monkeypatch):
        monkeypatch.setattr(engine, "PARALLEL_MIN_WORK", SIDES[request.param])
        return request.param

    @pytest.mark.parametrize("case", ROW_PARALLEL_CASES, ids=lambda c: c[0])
    def test_bitwise_vs_scipy_and_dense(self, side, case):
        _, a, b = case
        op = CSRMatrix.from_dense(a)
        out = engine.build_plan(op).execute(op, b)
        assert out.shape == (a @ b).shape
        assert np.array_equal(out, sp.csr_matrix(a) @ b)
        assert np.array_equal(out, a @ b)

    @pytest.mark.parametrize("case", ROW_PARALLEL_CASES, ids=lambda c: c[0])
    def test_fp32_bitwise_vs_scipy(self, side, case):
        _, a, b = case
        op = HybridVNM.compress(a, VNM)
        out = engine.build_plan(op).execute(op, b, dtype=np.float32)
        reference = sp.csr_matrix(a, dtype=np.float32) @ b.astype(np.float32)
        assert out.dtype == np.float64
        assert np.array_equal(out, reference.astype(np.float64))
        assert np.array_equal(out, a @ b)  # small integers: exact in fp32 too

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_index_dtypes(self, side, index_dtype):
        # scipy stores int32 indices unless a matrix passes 2**31 entries,
        # so int64 is fed to the kernel directly rather than built.
        _, a, b = ROW_PARALLEL_CASES[1]
        op = CSRMatrix.from_dense(a)
        plan = engine.build_plan(op)
        t = plan._triplet(op)
        out = plan._matmat(t.indptr.astype(index_dtype), t.indices.astype(index_dtype), t.data, b,
                           t.blocks)
        assert np.array_equal(out, a @ b)

    def test_blocks_balance_nnz_and_cover_every_row(self):
        a = sprinkled(400, 60, np.random.default_rng(22), density=0.3)
        a[:100] = 0
        indptr = sp.csr_matrix(a).indptr
        bounds = engine._row_blocks(indptr, 8)
        assert bounds[0] == 0 and bounds[-1] == 400
        assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))
        per_block = np.diff(indptr[bounds])
        assert per_block.max() <= indptr[-1] / 8 + a.shape[1]  # within one row of even
        assert engine._row_blocks(np.zeros(6, dtype=np.int32), 8) == [0, 5]

    def test_concurrent_callers_all_exact(self, monkeypatch):
        monkeypatch.setattr(engine, "PARALLEL_MIN_WORK", 0)
        rng = np.random.default_rng(23)
        a = sprinkled(300, 200, rng, density=0.1)
        op = CSRMatrix.from_dense(a)
        features = [rng.integers(0, 256, size=(200, 16)).astype(np.float64) for _ in range(8)]
        start = threading.Barrier(8)
        results: dict[int, bool] = {}

        def caller(i):
            start.wait(timeout=10)
            results[i] = all(np.array_equal(engine.execute(op, features[i]), a @ features[i])
                             for _ in range(25))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert results == {i: True for i in range(8)}

    def test_helper_failure_is_a_backend_execution_error(self, monkeypatch):
        if engine.usable_cores() < 2:
            pytest.skip("one usable core: no helper threads")
        monkeypatch.setattr(engine, "PARALLEL_MIN_WORK", 0)
        from scipy.sparse import _sparsetools

        real = _sparsetools.csr_matvecs
        helper_ran = threading.Event()

        def failing_in_helpers(*args):
            if threading.current_thread().name.startswith(engine._THREAD_PREFIX):
                helper_ran.set()
                raise MemoryError("helper block failed")
            helper_ran.wait(timeout=10)  # hold the caller's first block
            return real(*args)

        monkeypatch.setattr(_sparsetools, "csr_matvecs", failing_in_helpers)
        op = CSRMatrix.from_dense(sprinkled(200, 50, np.random.default_rng(24), density=0.3))
        with pytest.raises(BackendExecutionError, match="helper block failed"):
            engine.execute(op, np.ones((50, 4)))
        assert helper_ran.is_set()
        monkeypatch.setattr(_sparsetools, "csr_matvecs", real)
        assert np.array_equal(engine.execute(op, np.ones((50, 4))),
                              registry.densify(op) @ np.ones((50, 4)))

    def test_stalled_helper_block_is_recomputed_by_caller(self, monkeypatch):
        if engine.usable_cores() < 2:
            pytest.skip("one usable core: no helper threads")
        monkeypatch.setattr(engine, "PARALLEL_MIN_WORK", 0)
        from scipy.sparse import _sparsetools

        real = _sparsetools.csr_matvecs
        first = threading.Lock()
        held, release, late_write = threading.Event(), threading.Event(), threading.Event()

        def one_helper_stalls(*args):
            in_helper = threading.current_thread().name.startswith(engine._THREAD_PREFIX)
            if in_helper and first.acquire(blocking=False):
                held.set()
                release.wait(timeout=30)  # the block's rows are zero-filled already
                real(*args)
                late_write.set()
                return
            held.wait(timeout=10)  # the caller starts once a helper holds a block
            real(*args)

        rng = np.random.default_rng(26)
        a = sprinkled(200, 50, rng, density=0.3)
        op = CSRMatrix.from_dense(a)
        b = rng.integers(0, 64, size=(50, 4)).astype(np.float64)
        monkeypatch.setattr(_sparsetools, "csr_matvecs", one_helper_stalls)
        try:
            out = engine.execute(op, b)
            assert held.is_set() and not late_write.is_set()
            assert np.array_equal(out, a @ b)
        finally:
            release.set()
        # The stalled helper finishes later, into rows nobody returns.
        assert late_write.wait(timeout=30)
        assert np.array_equal(out, a @ b)
        monkeypatch.setattr(_sparsetools, "csr_matvecs", real)
        assert np.array_equal(engine.execute(op, b), a @ b)


def gathered(op, b, order, dtype=None):
    """The reference a folded ``execute(order=)`` must equal bitwise:
    gather, execute in the operand's basis, scatter."""
    out = engine.execute(op, b[order], dtype=dtype)
    restored = np.empty_like(out)
    restored[order] = out
    return restored


ORDER = np.random.default_rng(30).permutation(48)


class TestFoldedOrder:
    """``execute(order=)``: the permutation folded into the plan's triplet."""

    @pytest.fixture(params=sorted(SIDES))
    def side(self, request, monkeypatch):
        monkeypatch.setattr(engine, "PARALLEL_MIN_WORK", SIDES[request.param])
        return request.param

    @pytest.mark.parametrize("dtype", [None, np.float32], ids=["fp64", "fp32"])
    @pytest.mark.parametrize("name", BACKENDS)
    def test_bitwise_equal_to_gather_execute_scatter(self, operands, side, name, dtype):
        # Standard-normal features: partial sums round, so only the same
        # products summed in the same order per row come out bitwise equal.
        op = operands[name]
        b = np.random.default_rng(31).standard_normal((48, 6))
        out = engine.execute(op, b, order=ORDER, dtype=dtype)
        assert np.array_equal(out, gathered(op, b, ORDER, dtype))
        # The operand is A in the basis ORDER gathers into: A[ix_(o, o)] = op.
        original = np.empty_like(SOURCE[name])
        original[np.ix_(ORDER, ORDER)] = SOURCE[name]
        assert np.allclose(out, original @ b, atol=1e-3 if dtype else 1e-12)

    @pytest.mark.parametrize("name", ["csr", "hybrid", "dense"])
    def test_vector_and_strided_features(self, operands, side, name):
        op = operands[name]
        b = np.random.default_rng(32).standard_normal((48, 4))
        for x in (b[:, 1], features(b, "gathered")):
            assert np.array_equal(engine.execute(op, x, order=ORDER), gathered(op, x, ORDER))

    def test_plan_alternating_with_and_without_order(self, monkeypatch):
        if engine.usable_cores() < 2:
            pytest.skip("one usable core: no row blocks")
        monkeypatch.setattr(engine, "PARALLEL_MIN_WORK", 0)
        rng = np.random.default_rng(33)
        a = sprinkled(200, 200, rng, density=0.1)
        a[:60] = sprinkled(60, 200, rng, density=0.8)  # dense rows first
        op = CSRMatrix.from_dense(a)
        order = rng.permutation(200)
        plan = engine.build_plan(op)
        b = rng.standard_normal((200, 8))
        plain = sp.csr_matrix(a) @ b
        folded = gathered(op, b, order)
        for _ in range(3):
            assert np.array_equal(plan.execute(op, b), plain)
            assert np.array_equal(plan.execute(op, b, order=order), folded)
        base, fold = plan._triplet(op), plan._triplet(op, order)
        assert base is not fold
        n_blocks = engine.BLOCKS_PER_CORE * engine.usable_cores()
        assert base._bounds == engine._row_blocks(base.indptr, n_blocks)
        assert fold._bounds == engine._row_blocks(fold.indptr, n_blocks)
        assert base._bounds != fold._bounds  # the heavy rows moved

    def test_concurrent_callers_with_different_orders_all_exact(self, monkeypatch):
        # One plan, callers alternating between two orders and none: the
        # cached fold is replaced under them, and every answer stays exact.
        monkeypatch.setattr(engine, "PARALLEL_MIN_WORK", 0)
        rng = np.random.default_rng(39)
        a = sprinkled(300, 300, rng, density=0.1)
        op = CSRMatrix.from_dense(a)
        orders = [None, rng.permutation(300), rng.permutation(300)]
        b = rng.standard_normal((300, 8))
        expected = [gathered(op, b, o) if o is not None else engine.execute(op, b)
                    for o in orders]
        start = threading.Barrier(6)
        results: dict[int, bool] = {}

        def caller(i):
            start.wait(timeout=10)
            results[i] = all(np.array_equal(engine.execute(op, b, order=orders[(i + k) % 3]),
                                            expected[(i + k) % 3]) for k in range(30))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert results == {i: True for i in range(6)}

    def test_fold_built_once_per_order(self, operands):
        op = operands["hybrid"]
        plan = engine.build_plan(op)
        b = np.random.default_rng(34).standard_normal((48, 3))
        frozen = np.array(ORDER)
        frozen.setflags(write=False)
        plan.execute(op, b, order=frozen)
        fold = plan._fold
        assert fold[0] is frozen  # a read-only order is the key itself
        plan.execute(op, b, order=frozen)
        plan.execute(op, b, order=ORDER.copy())  # an equal order, by value
        assert plan._fold is fold
        other = ORDER[::-1].copy()
        assert np.array_equal(plan.execute(op, b, order=other), gathered(op, b, other))
        assert plan._fold is not fold and np.array_equal(plan._fold[0], other)
        other[:] = ORDER  # the cached key is a copy: mutating the caller's array
        assert np.array_equal(plan._fold[0], ORDER[::-1])  # changes nothing

    @pytest.mark.parametrize("order", [np.arange(47), np.zeros(48, dtype=np.int64),
                                       np.arange(48) - 1, np.arange(48.0)],
                             ids=["short", "repeated", "negative", "float"])
    def test_invalid_order_raises(self, operands, order):
        op = operands["hybrid"]
        with pytest.raises(ValueError):
            engine.build_plan(op).execute(op, np.ones((48, 2)), order=order)

    def test_non_square_operand_rejects_order(self):
        op = CSRMatrix.from_dense(sprinkled(20, 30, np.random.default_rng(35)))
        with pytest.raises(ValueError, match="cannot permute"):
            engine.build_plan(op).execute(op, np.ones((30, 2)), order=np.arange(20))

    def test_pickling_drops_the_fold(self, operands):
        op = operands["vnm"]
        plan = engine.build_plan(op)
        b = np.random.default_rng(36).standard_normal((48, 3))
        before = plan.execute(op, b, order=ORDER)
        assert set(plan.__getstate__()) == {"backend", "shape"}
        loaded = pickle.loads(pickle.dumps(plan))
        assert not hasattr(loaded, "_fold")
        assert np.array_equal(loaded.execute(op, b, order=ORDER), before)

    def test_own_kernel_backend_gathers_and_scatters(self):
        rng = np.random.default_rng(37)
        a = sprinkled(48, 48, rng)
        b = rng.standard_normal((48, 4))
        seen = []

        def kernel(op, x):
            seen.append(x)
            return op.a @ x

        registry.register_backend(registry.Backend(
            name="opaque", operand_types=(OpaqueOperand,), spmm=kernel,
            kernel_name="opaque_spmm"))
        try:
            out = engine.execute(OpaqueOperand(a), b, order=ORDER)
        finally:
            registry.unregister_backend("opaque")
        assert np.array_equal(seen[0], b[ORDER])
        expected = np.empty_like(out)
        expected[ORDER] = a @ b[ORDER]
        assert np.array_equal(out, expected)

    def test_device_passes_order_at_the_same_charge(self, operands):
        op = operands["hybrid"]
        b = np.random.default_rng(38).standard_normal((48, 5))
        plain, folded = EmulatedDevice(), EmulatedDevice()
        plain.spmm(op, b[ORDER], tag="t")
        out = folded.spmm(op, b, tag="t", order=ORDER)
        assert np.array_equal(out, gathered(op, b, ORDER))
        assert folded.records == plain.records and folded.clock == plain.clock

    def test_faults_cover_the_folded_path(self, operands):
        b = np.ones((48, 2))
        with faults.inject(faults.FaultPlan(kernel_failures={"hybrid": 1})):
            with pytest.raises(BackendExecutionError):
                engine.execute(operands["hybrid"], b, order=ORDER)


def dense_cases():
    """(name, a, b) products for the dense block kernel, integer-valued."""
    rng = np.random.default_rng(31)

    def ints(*shape):
        return rng.integers(-32, 32, size=shape).astype(np.float64)

    x, dy, w = ints(1000, 37), ints(1000, 9), ints(37, 9)
    wide = ints(120, 300)
    return [
        ("rows", x, w),  # x @ W: C-contiguous operands, 1000 rows not a multiple of 48
        ("transposed_a", wide.T, ints(120, 9)),  # x.T @ dy: split over the columns of x
        ("transposed_b", dy, w.T),  # dy @ W.T
        ("fortran_a", np.asfortranarray(x), w),
        ("one_block", ints(60, 37), w),  # fewer rows than two aligned blocks
        ("n1", x, ints(37, 1)),
        ("k1", ints(500, 1), ints(1, 7)),
        ("fp32", x.astype(np.float32), w.astype(np.float32)),
    ]


DENSE_CASES = dense_cases()


@pytest.fixture
def dense_parallel(monkeypatch):
    """Split every dense product, as if BLAS ran one thread; counts splits."""
    monkeypatch.setattr(engine, "DENSE_PARALLEL_MIN_WORK", 0)
    monkeypatch.setattr(engine, "blas_threads", lambda: 1)
    splits = []
    real = engine.parallel_rows

    def counting(out, run, blocks):
        splits.append(out.shape)
        return real(out, run, blocks)

    monkeypatch.setattr(engine, "parallel_rows", counting)
    return splits


def hold_in_helper(monkeypatch, hook):
    """Run each dense block as ``hook(in_helper, call)``, where ``call()``
    runs the block's real ``np.matmul``; returns the real one."""
    real = np.matmul

    def patched(*args, **kwargs):
        in_helper = threading.current_thread().name.startswith(engine._THREAD_PREFIX)
        return hook(in_helper, lambda: real(*args, **kwargs))

    monkeypatch.setattr(np, "matmul", patched)
    return real


class TestDenseKernel:
    @pytest.mark.parametrize("side", ["parallel", "serial"])
    @pytest.mark.parametrize("case", DENSE_CASES, ids=lambda c: c[0])
    def test_bitwise_vs_one_blas_call(self, monkeypatch, side, case):
        _, a, b = case
        monkeypatch.setattr(engine, "blas_threads", lambda: 1)
        monkeypatch.setattr(engine, "DENSE_PARALLEL_MIN_WORK", 0 if side == "parallel" else 1 << 62)
        out = engine.matmul(a, b)
        assert out.dtype == (a @ b).dtype
        assert np.array_equal(out, a @ b)

    def test_large_products_split(self, dense_parallel):
        _, a, b = DENSE_CASES[0]
        assert np.array_equal(engine.matmul(a, b), a @ b)
        assert dense_parallel == [(1000, 9)]

    def test_blocks_are_aligned_and_cover_every_row(self):
        for m, n_blocks in ((9796, 8), (300, 8), (1000, 3), (97, 8), (47, 4)):
            bounds = engine._dense_blocks(m, n_blocks)
            assert bounds[0] == 0 and bounds[-1] == m
            assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))
            assert len(bounds) - 1 <= n_blocks
            assert all(cut % engine.DENSE_ROW_ALIGN == 0 for cut in bounds[:-1])
        assert engine._dense_blocks(9796, 8)[1:-1] == [1200, 2448, 3648, 4896, 6096,
                                                       7344, 8544]
        assert engine._dense_blocks(60, 8) == [0, 60]

    @pytest.mark.parametrize("blas", [2, None])
    def test_threaded_or_unknown_blas_runs_one_call(self, monkeypatch, blas):
        monkeypatch.setattr(engine, "DENSE_PARALLEL_MIN_WORK", 0)
        monkeypatch.setattr(engine, "blas_threads", lambda: blas)
        monkeypatch.setattr(engine, "parallel_rows", None)  # any split would fail
        _, a, b = DENSE_CASES[0]
        assert np.array_equal(engine.matmul(a, b), a @ b)

    def test_other_operands_run_one_call(self, dense_parallel):
        _, x, w = DENSE_CASES[0]
        for a, b in ((x, w[:, 0]), (x, w.astype(np.float32)), (x.T, x),
                     (x.astype(np.int64), w.astype(np.int64))):
            assert np.array_equal(engine.matmul(a, b), a @ b)
        with pytest.raises(ValueError):
            engine.matmul(x, w.T)
        assert dense_parallel == []

    def test_below_threshold_runs_one_call(self, dense_parallel, monkeypatch):
        _, a, b = DENSE_CASES[0]
        work = a.shape[0] * a.shape[1] * b.shape[1]
        monkeypatch.setattr(engine, "DENSE_PARALLEL_MIN_WORK", work + 1)
        assert np.array_equal(engine.matmul(a, b), a @ b)
        assert dense_parallel == []

    @pytest.mark.parametrize("dtype", [None, np.float32])
    def test_dense_plan_runs_the_dense_kernel(self, dense_parallel, dtype):
        _, a, b = DENSE_CASES[0]
        out = engine.build_plan(a).execute(a, b, dtype=dtype)
        assert out.dtype == np.float64
        assert np.array_equal(out, a @ b)
        assert dense_parallel == [(1000, 9)]

    def test_device_gemm_charges_then_runs_the_dense_kernel(self, dense_parallel):
        _, a, b = DENSE_CASES[0]
        device = EmulatedDevice()
        out = device.gemm(a, b, tag="update")
        assert np.array_equal(out, a @ b)
        assert dense_parallel == [(1000, 9)]
        assert [(r.name, r.tag) for r in device.records] == [("dense_gemm", "update")]
        assert device.clock == device.cost_model.time_dense_gemm(1000, 37, 9)

    def test_helper_failure_reraises_in_caller(self, dense_parallel, monkeypatch):
        if engine.usable_cores() < 2:
            pytest.skip("one usable core: no helper threads")
        helper_ran = threading.Event()

        def fail_in_helper(in_helper, call):
            if in_helper:
                helper_ran.set()
                raise MemoryError("helper block failed")
            helper_ran.wait(timeout=10)  # hold the caller's first block
            return call()

        hold_in_helper(monkeypatch, fail_in_helper)
        _, a, b = DENSE_CASES[0]
        with pytest.raises(MemoryError, match="helper block failed"):
            engine.matmul(a, b)
        assert helper_ran.is_set()

    def test_stalled_helper_block_is_recomputed_by_caller(self, dense_parallel, monkeypatch):
        if engine.usable_cores() < 2:
            pytest.skip("one usable core: no helper threads")
        first = threading.Lock()
        held, release, late_write = threading.Event(), threading.Event(), threading.Event()

        def one_helper_stalls(in_helper, call):
            if in_helper and first.acquire(blocking=False):
                held.set()
                release.wait(timeout=30)
                call()
                late_write.set()
                return None
            held.wait(timeout=10)  # the caller starts once a helper holds a block
            return call()

        real = hold_in_helper(monkeypatch, one_helper_stalls)
        _, a, b = DENSE_CASES[1]  # x.T @ dy
        try:
            out = engine.matmul(a, b)
            assert held.is_set() and not late_write.is_set()
            assert np.array_equal(out, a @ b)
        finally:
            release.set()
        # The stalled helper finishes later, into rows nobody returns.
        assert late_write.wait(timeout=30)
        assert np.array_equal(out, a @ b)
        monkeypatch.setattr(np, "matmul", real)
        assert np.array_equal(engine.matmul(a, b), a @ b)

    def test_blas_threads_is_read_from_the_loaded_library(self):
        threads = engine.blas_threads()
        assert threads is None or threads >= 1


def engine_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith(engine._THREAD_PREFIX)]


def _child_execute(op, b, expected, helpers_expected):
    ok = np.array_equal(engine.execute(op, b), expected)
    restarted = bool(engine_threads()) == helpers_expected
    sys.exit(0 if ok and restarted else 1)


def _child_matmul(a, b, expected, helpers_expected):
    ok = np.array_equal(engine.matmul(a, b), expected)
    restarted = bool(engine_threads()) == helpers_expected
    sys.exit(0 if ok and restarted else 1)


class TestForkSafety:
    def test_forked_child_executes_after_parent_pool_ran(self, monkeypatch):
        monkeypatch.setattr(engine, "PARALLEL_MIN_WORK", 0)
        rng = np.random.default_rng(25)
        a = sprinkled(256, 64, rng, density=0.2)
        op = CSRMatrix.from_dense(a)
        b = rng.integers(0, 64, size=(64, 8)).astype(np.float64)
        assert np.array_equal(engine.execute(op, b), a @ b)
        helpers = engine.usable_cores() > 1
        assert bool(engine_threads()) == helpers  # the parent's pool is running
        proc = multiprocessing.get_context("fork").Process(
            target=_child_execute, args=(op, b, a @ b, helpers))
        proc.start()
        # Shut down before the fork, restarted only on the next parallel run.
        assert engine_threads() == []
        proc.join(timeout=60)
        assert not proc.is_alive(), "forked child hung in execute"
        assert proc.exitcode == 0
        assert np.array_equal(engine.execute(op, b), a @ b)
        assert bool(engine_threads()) == helpers

    def test_forked_child_runs_dense_work_after_parent_dense_work(self, dense_parallel):
        _, a, b = DENSE_CASES[1]
        assert np.array_equal(engine.matmul(a, b), a @ b)
        helpers = engine.usable_cores() > 1
        assert bool(engine_threads()) == helpers
        proc = multiprocessing.get_context("fork").Process(
            target=_child_matmul, args=(a, b, a @ b, helpers))
        proc.start()
        assert engine_threads() == []
        proc.join(timeout=60)
        assert not proc.is_alive(), "forked child hung in matmul"
        assert proc.exitcode == 0
        assert np.array_equal(engine.matmul(a, b), a @ b)


def make_operand(seed=0, n=48, density=0.15):
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < density) * rng.integers(1, 8, size=(n, n)).astype(np.float64)
    return HybridVNM.compress(a, VNM)


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


class TestEnginePlanSidecars:
    def test_plan_store_load_roundtrip(self, cache):
        op = make_operand()
        plan = engine.build_plan(op)
        cache.store_plan("k1", plan)
        loaded = cache.load_plan("k1")
        assert type(loaded) is type(plan)
        b = np.random.default_rng(6).integers(0, 64, size=(48, 4)).astype(np.float64)
        assert np.array_equal(loaded.execute(op, b), plan.execute(op, b))
        assert cache.stats.plan_hits == 1

    def test_corrupt_plan_is_quarantined_miss(self, cache):
        cache.plan_path("bad").write_bytes(b"not a pickle")
        assert cache.load_plan("bad") is None
        assert cache.stats.plan_misses == 1
        assert not cache.plan_path("bad").exists()

    def test_older_sidecar_layouts_are_quarantined_miss(self, cache):
        # A bare pickled plan (the first layout) and an envelope of an
        # older version both answer as a miss, never as a crash.
        cache.plan_path("v1").write_bytes(pickle.dumps(engine.build_plan(make_operand())))
        cache.plan_path("v2").write_bytes(pickle.dumps(
            {"sidecar_version": 2, "plan": engine.build_plan(make_operand())}))
        assert cache.load_plan("v1") is None
        assert cache.load_plan("v2") is None
        assert cache.stats.plan_misses == 2
        assert cache.stats.quarantined == 2

    def test_preprocess_rebuilds_over_an_old_sidecar(self, cache):
        rng = np.random.default_rng(13)
        a = rng.random((40, 40)) < 0.1
        from repro.core import BitMatrix

        bm = BitMatrix.from_dense((a | a.T).astype(np.uint8))
        plan = PreprocessPlan(pattern=VNM, max_iter=2)
        first = preprocess(bm, plan, cache=cache)
        cache.plan_path(first.cache_key).write_bytes(b"\x80\x04junk from an old layout")
        again = preprocess(bm, plan, cache=cache)
        assert again.cached and again.plan is not None
        assert cache.stats.quarantined == 1
        assert cache.load_plan(first.cache_key) is not None  # rebuilt and re-stored
        x = rng.integers(0, 64, size=(40, 3)).astype(np.float64)
        assert np.array_equal(engine.execute(again.operand, x), again.operand.decompress() @ x)

    def test_fsck_reports_corrupt_plan_sidecars(self, cache):
        cache.store_plan("ok", engine.build_plan(make_operand()))
        cache.plan_path("bad").write_bytes(b"junk")
        report = cache.fsck()
        assert report["plan_corrupt"] == ["bad"]
        assert cache.plan_path("ok").exists()

    def test_invalidate_and_clear_remove_sidecars(self, cache):
        op = make_operand()
        cache.store_plan("k", engine.build_plan(op))
        cache.invalidate("k")
        assert not cache.plan_path("k").exists()
        cache.store_plan("k2", engine.build_plan(op))
        cache.clear()
        assert not cache.plan_path("k2").exists()
