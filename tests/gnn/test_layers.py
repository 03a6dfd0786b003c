"""Graph convolution layers: forward correctness and gradient checks."""

import contextlib

import numpy as np
import pytest

from repro.gnn import Aggregator, ChebConv, GCNConv, Linear, SAGEConv, SGConv
from repro.perf import engine
from repro.sptc import CSRMatrix, EmulatedDevice
from repro.sptc.device import use_device


@pytest.fixture
def sym_operator(rng):
    a = rng.random((12, 12)) * (rng.random((12, 12)) < 0.4)
    a = (a + a.T) / 2
    return a, Aggregator(CSRMatrix.from_dense(a))


def numerical_param_grad(layer, forward, param, idx, eps=1e-6):
    orig = param.value.flat[idx]
    param.value.flat[idx] = orig + eps
    up = forward()
    param.value.flat[idx] = orig - eps
    down = forward()
    param.value.flat[idx] = orig
    return (up - down) / (2 * eps)


class TestLinear:
    def test_forward(self, rng):
        lin = Linear(3, 2, rng)
        x = rng.random((5, 3))
        assert np.allclose(lin.forward(x), x @ lin.weight.value + lin.bias.value)

    def test_backward_grads(self, rng):
        lin = Linear(3, 2, rng)
        x = rng.random((4, 3))
        y = lin.forward(x)
        dy = rng.random(y.shape)
        dx = lin.backward(dy)
        assert np.allclose(dx, dy @ lin.weight.value.T)
        assert np.allclose(lin.weight.grad, x.T @ dy)
        assert np.allclose(lin.bias.grad, dy.sum(0))

    def test_backward_before_forward_rejected(self, rng):
        with pytest.raises(RuntimeError):
            Linear(2, 2, rng).backward(np.zeros((1, 2)))

    def test_host_and_device_paths_bitwise_equal_when_split(self, monkeypatch):
        # Above the engine's dense threshold every product of the layer is
        # split over output rows; integer-valued inputs make each K-sum exact.
        monkeypatch.setattr(engine, "DENSE_PARALLEL_MIN_WORK", 0)
        monkeypatch.setattr(engine, "blas_threads", lambda: 1)
        splits = []
        real = engine.parallel_rows

        def counting(out, run, blocks):
            splits.append(out.shape)
            return real(out, run, blocks)

        monkeypatch.setattr(engine, "parallel_rows", counting)
        data = np.random.default_rng(7)
        x, dy, w = (data.integers(-8, 8, size=shape).astype(np.float64)
                    for shape in ((500, 150), (500, 40), (150, 40)))
        results = []
        for device in (None, EmulatedDevice()):
            lin = Linear(150, 40, np.random.default_rng(3))
            lin.weight.value = w.copy()
            with use_device(device) if device else contextlib.nullcontext():
                y = lin.forward(x)
            dx = lin.backward(dy)
            results.append((y, dx, lin.weight.grad))
        for host, dev, reference in zip(*results, (x @ w + lin.bias.value, dy @ w.T, x.T @ dy)):
            assert np.array_equal(host, dev)
            assert np.array_equal(host, reference)
        # x @ W, x.T @ dy (150 rows), dy @ W.T, on each path
        assert splits == [(500, 40), (150, 40), (500, 150)] * 2


class TestGCNConv:
    def test_forward_matches_definition(self, sym_operator, rng):
        a, agg = sym_operator
        conv = GCNConv(6, 4, rng)
        x = rng.random((12, 6))
        y = conv.forward(x, agg)
        assert np.allclose(y, a @ (x @ conv.linear.weight.value + conv.linear.bias.value))

    def test_gradcheck_weight(self, sym_operator, rng):
        a, agg = sym_operator
        conv = GCNConv(3, 2, rng)
        x = rng.random((12, 3))
        dy = rng.random((12, 2))

        def loss():
            return float((conv.forward(x, agg) * dy).sum())

        loss_val = loss()  # populates cache
        conv.backward(dy)
        for idx in (0, 3, 5):
            num = numerical_param_grad(conv, loss, conv.linear.weight, idx)
            assert conv.linear.weight.grad.flat[idx] == pytest.approx(num, rel=1e-4, abs=1e-7)
        del loss_val


class TestSAGEConv:
    def test_forward_matches_definition(self, sym_operator, rng):
        a, agg = sym_operator
        conv = SAGEConv(5, 3, rng)
        x = rng.random((12, 5))
        y = conv.forward(x, agg)
        expect = (
            x @ conv.lin_root.weight.value
            + conv.lin_root.bias.value
            + (a @ x) @ conv.lin_nbr.weight.value
        )
        assert np.allclose(y, expect)

    def test_gradcheck_input(self, sym_operator, rng):
        a, agg = sym_operator
        conv = SAGEConv(3, 2, rng)
        x = rng.random((12, 3))
        dy = rng.random((12, 2))
        conv.forward(x, agg)
        dx = conv.backward(dy)
        eps = 1e-6
        for idx in (0, 7, 20):
            xp = x.copy()
            xp.flat[idx] += eps
            xm = x.copy()
            xm.flat[idx] -= eps
            num = ((conv.forward(xp, agg) * dy).sum()
                   - (conv.forward(xm, agg) * dy).sum()) / (2 * eps)
            assert dx.flat[idx] == pytest.approx(num, rel=1e-4, abs=1e-7)


class TestChebConv:
    def test_k1_is_linear(self, sym_operator, rng):
        _, agg = sym_operator
        conv = ChebConv(4, 3, 1, rng)
        x = rng.random((12, 4))
        y = conv.forward(x, agg)
        assert np.allclose(y, x @ conv.linears[0].weight.value + conv.linears[0].bias.value)

    def test_forward_matches_recurrence(self, sym_operator, rng):
        a, agg = sym_operator
        conv = ChebConv(4, 3, 3, rng)
        x = rng.random((12, 4))
        lhat = -a
        t0, t1 = x, lhat @ x
        t2 = 2 * lhat @ t1 - t0
        expect = (
            t0 @ conv.linears[0].weight.value
            + conv.linears[0].bias.value
            + t1 @ conv.linears[1].weight.value
            + t2 @ conv.linears[2].weight.value
        )
        assert np.allclose(conv.forward(x, agg), expect)

    def test_gradcheck_input(self, sym_operator, rng):
        _, agg = sym_operator
        conv = ChebConv(3, 2, 3, rng)
        x = rng.random((12, 3))
        dy = rng.random((12, 2))
        conv.forward(x, agg)
        dx = conv.backward(dy)
        eps = 1e-6
        for idx in (1, 11, 30):
            xp = x.copy()
            xp.flat[idx] += eps
            xm = x.copy()
            xm.flat[idx] -= eps
            num = ((conv.forward(xp, agg) * dy).sum()
                   - (conv.forward(xm, agg) * dy).sum()) / (2 * eps)
            assert dx.flat[idx] == pytest.approx(num, rel=1e-4, abs=1e-7)

    def test_invalid_order(self, rng):
        with pytest.raises(ValueError):
            ChebConv(2, 2, 0, rng)


class TestSGConv:
    def test_forward_matches_definition(self, sym_operator, rng):
        a, agg = sym_operator
        conv = SGConv(4, 2, 2, rng)
        x = rng.random((12, 4))
        expect = (a @ (a @ x)) @ conv.linear.weight.value + conv.linear.bias.value
        assert np.allclose(conv.forward(x, agg), expect)

    def test_gradcheck_weight(self, sym_operator, rng):
        _, agg = sym_operator
        conv = SGConv(3, 2, 2, rng)
        x = rng.random((12, 3))
        dy = rng.random((12, 2))

        def loss():
            return float((conv.forward(x, agg) * dy).sum())

        loss()
        conv.backward(dy)
        for idx in (0, 4):
            num = numerical_param_grad(conv, loss, conv.linear.weight, idx)
            assert conv.linear.weight.grad.flat[idx] == pytest.approx(num, rel=1e-4, abs=1e-7)

    def test_invalid_power(self, rng):
        with pytest.raises(ValueError):
            SGConv(2, 2, 0, rng)


class TestAsymmetricAggregator:
    def test_mean_operator_backward_uses_transpose(self, rng):
        a = rng.random((8, 8)) * (rng.random((8, 8)) < 0.5)
        deg = np.maximum(a.sum(1, keepdims=True), 1e-12)
        mean = a / deg
        agg = Aggregator(CSRMatrix.from_dense(mean), CSRMatrix.from_dense(mean.T))
        conv = SAGEConv(3, 2, rng)
        x = rng.random((8, 3))
        dy = rng.random((8, 2))
        conv.forward(x, agg)
        dx = conv.backward(dy)
        eps = 1e-6
        for idx in (0, 10):
            xp = x.copy()
            xp.flat[idx] += eps
            xm = x.copy()
            xm.flat[idx] -= eps
            num = ((conv.forward(xp, agg) * dy).sum()
                   - (conv.forward(xm, agg) * dy).sum()) / (2 * eps)
            assert dx.flat[idx] == pytest.approx(num, rel=1e-4, abs=1e-7)
