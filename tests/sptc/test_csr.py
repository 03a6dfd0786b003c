"""From-scratch CSR matrix."""

import numpy as np
import pytest

from repro.perf import engine
from repro.pipeline.resilience import BackendExecutionError
from repro.sptc import CSRMatrix


class TestConstruction:
    def test_from_dense_roundtrip(self, weighted_sym_dense):
        csr = CSRMatrix.from_dense(weighted_sym_dense)
        assert np.allclose(csr.to_dense(), weighted_sym_dense)

    def test_from_coo_sums_duplicates(self):
        csr = CSRMatrix.from_coo([0, 0], [1, 1], [2.0, 3.0], (2, 2))
        assert csr.nnz == 1
        assert csr.to_dense()[0, 1] == 5.0

    def test_from_coo_no_dedup(self):
        csr = CSRMatrix.from_coo([0, 0], [1, 1], [2.0, 3.0], (2, 2), sum_duplicates=False)
        assert csr.nnz == 2

    def test_from_coo_default_data(self):
        csr = CSRMatrix.from_coo([0, 1], [1, 0], None, (2, 2))
        assert np.allclose(csr.data, 1.0)

    def test_identity(self):
        eye = CSRMatrix.identity(4)
        assert np.allclose(eye.to_dense(), np.eye(4))

    def test_scipy_roundtrip(self, weighted_sym_dense):
        import scipy.sparse as sp

        csr = CSRMatrix.from_scipy(sp.csr_matrix(weighted_sym_dense))
        assert np.allclose(csr.to_dense(), weighted_sym_dense)
        assert np.allclose(csr.to_scipy().toarray(), weighted_sym_dense)

    def test_validation(self):
        with pytest.raises(ValueError):
            CSRMatrix(np.array([0, 1]), np.array([5]), np.array([1.0]), (1, 3))
        with pytest.raises(ValueError):
            CSRMatrix(np.array([0, 1, 1]), np.array([0]), np.array([1.0]), (1, 3))
        with pytest.raises(ValueError):
            CSRMatrix(np.array([0, 1]), np.array([0, 1]), np.array([1.0]), (1, 3))


class TestOps:
    def test_matvec(self, weighted_sym_dense, rng):
        csr = CSRMatrix.from_dense(weighted_sym_dense)
        x = rng.random(weighted_sym_dense.shape[1])
        assert np.allclose(engine.execute(csr, x), weighted_sym_dense @ x)

    def test_matmat(self, weighted_sym_dense, rng):
        csr = CSRMatrix.from_dense(weighted_sym_dense)
        b = rng.random((weighted_sym_dense.shape[1], 17))
        assert np.allclose(engine.execute(csr, b), weighted_sym_dense @ b)

    def test_matmat_with_empty_rows(self, rng):
        a = np.zeros((6, 6))
        a[0, 1] = 2.0
        a[5, 0] = 3.0  # rows 1-4 empty
        csr = CSRMatrix.from_dense(a)
        b = rng.random((6, 3))
        assert np.allclose(engine.execute(csr, b), a @ b)

    def test_matmat_empty_matrix(self, rng):
        csr = CSRMatrix.from_coo([], [], [], (4, 4))
        assert np.allclose(engine.execute(csr, rng.random((4, 2))), 0.0)

    def test_matmat_dim_mismatch(self, rng):
        csr = CSRMatrix.identity(3)
        with pytest.raises(BackendExecutionError, match="inner dimension mismatch"):
            engine.execute(csr, rng.random((4, 2)))

    def test_transpose(self, rng):
        a = rng.random((5, 8)) * (rng.random((5, 8)) < 0.4)
        csr = CSRMatrix.from_dense(a)
        assert np.allclose(csr.transpose().to_dense(), a.T)

    def test_permute_symmetric(self, weighted_sym_dense, rng):
        csr = CSRMatrix.from_dense(weighted_sym_dense)
        order = rng.permutation(weighted_sym_dense.shape[0])
        out = csr.permute_symmetric(order)
        assert np.allclose(out.to_dense(), weighted_sym_dense[np.ix_(order, order)])

    def test_permute_symmetric_rect_rejected(self):
        csr = CSRMatrix.from_coo([0], [1], [1.0], (2, 3))
        with pytest.raises(ValueError):
            csr.permute_symmetric(np.arange(2))

    def test_is_symmetric(self, weighted_sym_dense):
        assert CSRMatrix.from_dense(weighted_sym_dense).is_symmetric(tol=1e-12)
        asym = weighted_sym_dense.copy()
        asym[0, 1] += 1.0
        assert not CSRMatrix.from_dense(asym).is_symmetric(tol=1e-12)


class TestStats:
    def test_row_nnz_and_density(self, weighted_sym_dense):
        csr = CSRMatrix.from_dense(weighted_sym_dense)
        assert np.array_equal(csr.row_nnz(), (weighted_sym_dense != 0).sum(axis=1))
        assert csr.density() == pytest.approx((weighted_sym_dense != 0).mean())

    def test_to_coo_roundtrip(self, weighted_sym_dense):
        csr = CSRMatrix.from_dense(weighted_sym_dense)
        r, c, d = csr.to_coo()
        back = CSRMatrix.from_coo(r, c, d, csr.shape)
        assert np.allclose(back.to_dense(), weighted_sym_dense)
