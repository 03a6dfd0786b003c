"""Backend registry: engine execution per backend, cost entries, plug-in hook."""

import numpy as np
import pytest

from repro.core import BitMatrix, NMPattern, VNMPattern, reorder
from repro.perf import engine
from repro.pipeline import registry
from repro.sptc import (
    BSRMatrix,
    CostModel,
    CSRMatrix,
    EmulatedDevice,
    HybridVNM,
    NMCompressed,
    SellCSigma,
    SpmmWorkload,
    TCGNNBlocked,
    VNMCompressed,
)

PATTERN = VNMPattern(1, 2, 4)


@pytest.fixture(scope="module")
def conforming():
    """A weighted symmetric matrix reordered to full 1:2:4 conformance."""
    rng = np.random.default_rng(21)
    n = 64
    mask = rng.random((n, n)) < 0.04
    mask |= mask.T
    np.fill_diagonal(mask, False)
    w = np.triu(rng.random((n, n)) + 0.05, 1) * np.triu(mask, 1)
    w = w + w.T
    res = reorder(BitMatrix.from_dense((w != 0).astype(np.uint8)), PATTERN)
    assert res.conforms
    wp = res.permutation.apply_to_matrix(w)
    b = rng.random((n, 9))
    return wp, b


def all_operands(wp):
    """One operand instance of every built-in backend type."""
    csr = CSRMatrix.from_dense(wp)
    return {
        "csr": csr,
        "nm": NMCompressed.compress(wp, NMPattern(2, 4)),
        "vnm": VNMCompressed.compress(wp, PATTERN),
        "hybrid": HybridVNM.compress_csr(csr, PATTERN),
        "bsr": BSRMatrix.from_csr(csr, 4),
        "sell": SellCSigma.from_csr(csr),
        "tcgnn": TCGNNBlocked.from_csr(csr),
        "dense": wp,
    }


class TestDispatchAgreement:
    def test_every_builtin_backend_is_exact(self, conforming):
        wp, b = conforming
        ref = wp @ b
        for name, op in all_operands(wp).items():
            out = engine.execute(op, b)
            assert np.allclose(out, ref), name
            assert registry.backend_for(op).name == name

    def test_registry_agrees_with_legacy_dispatch(self, conforming):
        """Every operand type the old isinstance chains supported produces
        output bit-identical to the dense source through the engine, on
        integer features (exact partial sums in any order)."""
        wp, b = conforming
        a = np.ceil(wp * 8)  # integer weights on the same conforming mask
        x = np.rint(b * 64)
        for name, op in all_operands(a).items():
            assert registry.backend_for(op).spmm is None, name
            assert np.array_equal(engine.execute(op, x), a @ x), name

    def test_dispatch_rejects_unknown(self):
        with pytest.raises(TypeError):
            engine.execute(object(), np.zeros((2, 2)))


class TestCostEntries:
    def test_model_time_matches_cost_model(self, conforming):
        wp, b = conforming
        h = b.shape[1]
        cm = CostModel()
        ops = all_operands(wp)
        assert registry.model_spmm_time(cm, ops["csr"], h) == pytest.approx(
            cm.time_csr_spmm(SpmmWorkload.from_csr(ops["csr"], h)))
        assert registry.model_spmm_time(cm, ops["vnm"], h) == pytest.approx(
            cm.time_venom_spmm(ops["vnm"], h))
        assert registry.model_spmm_time(cm, ops["hybrid"], h) == pytest.approx(
            ops["hybrid"].model_time(cm, h))
        for name in ("nm", "bsr", "sell", "tcgnn", "dense"):
            assert registry.model_spmm_time(cm, ops[name], h) > 0, name


class TestCompress:
    def test_compressors_roundtrip(self, conforming):
        wp, _ = conforming
        csr = CSRMatrix.from_dense(wp)
        for name in ("csr", "nm", "vnm", "hybrid", "bsr", "sell", "tcgnn", "dense"):
            op = registry.compress(csr, name, PATTERN)
            assert registry.backend_for(op).name == name
            dense = op if isinstance(op, np.ndarray) else (
                op.decompress() if hasattr(op, "decompress") else op.to_dense())
            assert np.allclose(dense, wp), name

    def test_pattern_required_for_structured(self, conforming):
        wp, _ = conforming
        csr = CSRMatrix.from_dense(wp)
        with pytest.raises(ValueError):
            registry.compress(csr, "vnm", None)

    def test_unknown_backend(self, conforming):
        wp, _ = conforming
        with pytest.raises(KeyError):
            registry.get_backend("nope")
        with pytest.raises(KeyError):
            registry.compress(CSRMatrix.from_dense(wp), "nope")


class FancyOperand:
    def __init__(self, a):
        self.a = np.asarray(a, dtype=np.float64)
        self.shape = self.a.shape


class TestRegisterBackendHook:
    def test_third_party_backend(self, conforming):
        wp, b = conforming
        backend = registry.Backend(
            name="fancy",
            operand_types=(FancyOperand,),
            spmm=lambda op, x: op.a @ x,
            compress=lambda csr, pattern=None: FancyOperand(csr.to_dense()),
            model_time=lambda cm, op, h: 1e-6,
            kernel_name="fancy_spmm",
        )
        registry.register_backend(backend)
        try:
            op = registry.compress(CSRMatrix.from_dense(wp), "fancy")
            assert np.allclose(engine.execute(op, b), wp @ b)
            # The emulated device launches it with no device-side changes.
            dev = EmulatedDevice()
            dev.spmm(op, b)
            assert dev.records[0].name == "fancy_spmm"
            assert dev.clock == pytest.approx(1e-6)
        finally:
            registry.unregister_backend("fancy")
        with pytest.raises(TypeError):
            engine.execute(FancyOperand(wp), b)

    def test_duplicate_name_rejected(self):
        backend = registry.Backend(
            name="csr", operand_types=(FancyOperand,), spmm=lambda a, b: b)
        with pytest.raises(ValueError):
            registry.register_backend(backend)

    def test_duplicate_operand_type_rejected(self):
        backend = registry.Backend(
            name="csr2", operand_types=(CSRMatrix,), spmm=lambda a, b: b)
        with pytest.raises(ValueError):
            registry.register_backend(backend)
        assert "csr2" not in registry.available_backends()
