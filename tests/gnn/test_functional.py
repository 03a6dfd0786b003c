"""Activation / loss primitives, with numerical-gradient checks."""

import numpy as np
import pytest

from repro.gnn import (
    accuracy,
    cross_entropy,
    cross_entropy_grad,
    dropout_mask,
    log_softmax,
    relu,
    relu_grad,
    softmax,
)


class TestActivations:
    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert relu(x).tolist() == [0.0, 0.0, 2.0]

    def test_relu_grad(self):
        x = np.array([-1.0, 0.5])
        dy = np.array([3.0, 3.0])
        assert relu_grad(x, dy).tolist() == [0.0, 3.0]

    def test_softmax_rows_sum_to_one(self, rng):
        p = softmax(rng.random((5, 7)) * 10)
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_log_softmax_stable_for_large_logits(self):
        x = np.array([[1000.0, 1000.0]])
        out = log_softmax(x)
        assert np.isfinite(out).all()
        assert np.allclose(out, np.log(0.5))


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        labels = np.array([0, 1])
        assert cross_entropy(logits, labels) < 1e-4

    def test_masked(self):
        logits = np.array([[10.0, -10.0], [10.0, -10.0]])
        labels = np.array([0, 1])
        mask = np.array([True, False])
        assert cross_entropy(logits, labels, mask) < 1e-4

    def test_empty_mask(self):
        logits = np.zeros((2, 2))
        assert cross_entropy(logits, np.zeros(2, dtype=int), np.zeros(2, dtype=bool)) == 0.0

    def test_grad_matches_numerical(self, rng):
        logits = rng.random((4, 3))
        labels = np.array([0, 2, 1, 1])
        mask = np.array([True, True, False, True])
        g = cross_entropy_grad(logits, labels, mask)
        eps = 1e-6
        for i in range(4):
            for j in range(3):
                lp = logits.copy()
                lp[i, j] += eps
                lm = logits.copy()
                lm[i, j] -= eps
                num = (cross_entropy(lp, labels, mask)
                       - cross_entropy(lm, labels, mask)) / (2 * eps)
                assert g[i, j] == pytest.approx(num, abs=1e-5)


class TestAccuracy:
    def test_basic(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        labels = np.array([0, 1, 1])
        assert accuracy(logits, labels) == pytest.approx(2 / 3)

    def test_masked(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 0])
        assert accuracy(logits, labels, np.array([True, False])) == 1.0


class TestDropout:
    def test_zero_rate_identity(self, rng):
        assert np.allclose(dropout_mask((4, 4), 0.0, rng), 1.0)

    def test_scaling_preserves_expectation(self, rng):
        mask = dropout_mask((100_000,), 0.4, rng)
        assert mask.mean() == pytest.approx(1.0, abs=0.02)

    def test_invalid_rate(self, rng):
        with pytest.raises(ValueError):
            dropout_mask((2,), 1.0, rng)
