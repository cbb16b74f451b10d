"""Unit tests for repro.nn.functional: correctness vs naive references, gradients."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor
from repro.nn import functional as F

from .gradcheck import assert_gradcheck


def t64(rng, *shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


def naive_conv2d(x, w, b, stride, padding):
    """Direct-loop reference convolution."""
    n, c, h, wd = x.shape
    oc, ic, kh, kw = w.shape
    x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow))
    for ni in range(n):
        for oi in range(oc):
            for yi in range(oh):
                for xi in range(ow):
                    patch = x[ni, :, yi * stride : yi * stride + kh, xi * stride : xi * stride + kw]
                    out[ni, oi, yi, xi] = (patch * w[oi]).sum() + (b[oi] if b is not None else 0.0)
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_naive_reference(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 7, 7))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        expected = naive_conv2d(x, w, b, stride, padding)
        np.testing.assert_allclose(out.data, expected, rtol=1e-10)

    def test_no_bias(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.data, naive_conv2d(x, w, None, 1, 0), rtol=1e-10)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 5, 5)))
        w = Tensor(rng.standard_normal((2, 4, 3, 3)))
        with pytest.raises(ValueError, match="channels"):
            F.conv2d(x, w)

    def test_gradients(self, rng):
        x = t64(rng, 2, 2, 5, 5)
        w = t64(rng, 3, 2, 3, 3)
        b = t64(rng, 3)
        assert_gradcheck(
            lambda: (F.conv2d(x, w, b, stride=2, padding=1) ** 2).sum(), [x, w, b]
        )

    def test_im2col_col2im_adjoint(self, rng):
        # col2im is the transpose of im2col: <im2col(x), c> == <x, col2im(c)>
        x = rng.standard_normal((2, 3, 6, 6))
        cols, _ = F.im2col(x, (3, 3), (2, 2), (1, 1))
        c = rng.standard_normal(cols.shape)
        lhs = (cols * c).sum()
        rhs = (x * F.col2im(c, x.shape, (3, 3), (2, 2), (1, 1))).sum()
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2)
        np.testing.assert_array_equal(out.data.reshape(-1), [5, 7, 13, 15])

    def test_max_pool_gradient(self, rng):
        x = t64(rng, 2, 3, 6, 6)
        assert_gradcheck(lambda: (F.max_pool2d(x, 2) ** 2).sum(), [x])

    def test_max_pool_stride(self, rng):
        x = rng.standard_normal((1, 1, 5, 5))
        out = F.max_pool2d(Tensor(x), 3, stride=2)
        assert out.shape == (1, 1, 2, 2)
        assert out.data[0, 0, 0, 0] == x[0, 0, :3, :3].max()

    def test_avg_pool_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = F.avg_pool2d(x, 2)
        np.testing.assert_allclose(out.data.reshape(-1), [2.5, 4.5, 10.5, 12.5])

    def test_avg_pool_gradient(self, rng):
        x = t64(rng, 2, 2, 4, 4)
        assert_gradcheck(lambda: (F.avg_pool2d(x, 2) ** 2).sum(), [x])

    def test_adaptive_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
        out = F.adaptive_avg_pool2d(Tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3), keepdims=True), rtol=1e-6)
        with pytest.raises(NotImplementedError):
            F.adaptive_avg_pool2d(Tensor(x), output_size=2)


class TestActivations:
    def test_relu(self):
        x = Tensor(np.float32([-1.0, 0.0, 2.0]), requires_grad=True)
        out = F.relu(x)
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_gelu_matches_reference(self, rng):
        x = rng.standard_normal(100)
        out = F.gelu(Tensor(x))
        ref = 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x ** 3)))
        np.testing.assert_allclose(out.data, ref, rtol=1e-6)

    def test_gelu_gradient(self, rng):
        x = t64(rng, 10)
        assert_gradcheck(lambda: F.gelu(x).sum(), [x])

    def test_sigmoid_gradient(self, rng):
        x = t64(rng, 8)
        assert_gradcheck(lambda: F.sigmoid(x).sum(), [x])

    def test_softmax_rows_sum_to_one(self, rng):
        x = Tensor(rng.standard_normal((4, 7)).astype(np.float32))
        out = F.softmax(x)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), rtol=1e-6)

    def test_softmax_shift_invariance(self, rng):
        x = rng.standard_normal((3, 5)).astype(np.float32)
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        # adding 100 in float32 rounds the inputs at the ~1e-5 level
        np.testing.assert_allclose(a, b, atol=1e-4)

    def test_softmax_gradient(self, rng):
        x = t64(rng, 3, 5)
        assert_gradcheck(lambda: (F.softmax(x) ** 2).sum(), [x])

    def test_log_softmax_consistency(self, rng):
        x = rng.standard_normal((3, 6)).astype(np.float32)
        np.testing.assert_allclose(
            F.log_softmax(Tensor(x)).data, np.log(F.softmax(Tensor(x)).data), atol=1e-6
        )

    def test_log_softmax_gradient(self, rng):
        x = t64(rng, 2, 4)
        assert_gradcheck(lambda: (F.log_softmax(x) ** 2).sum(), [x])


class TestNormalization:
    def test_batch_norm_training_normalizes(self, rng):
        x = Tensor(rng.standard_normal((8, 3, 4, 4)).astype(np.float32) * 5 + 2)
        rm, rv = np.zeros(3, np.float32), np.ones(3, np.float32)
        w = nn.Parameter(np.ones(3, np.float32))
        b = nn.Parameter(np.zeros(3, np.float32))
        out = F.batch_norm(x, rm, rv, w, b, training=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), np.zeros(3), atol=1e-5)
        np.testing.assert_allclose(out.data.var(axis=(0, 2, 3)), np.ones(3), atol=1e-3)
        assert not np.allclose(rm, 0)  # running stats updated

    def test_batch_norm_eval_uses_running_stats(self, rng):
        x = Tensor(rng.standard_normal((4, 2, 3, 3)).astype(np.float32))
        rm = np.float32([1.0, -1.0])
        rv = np.float32([4.0, 0.25])
        w = nn.Parameter(np.ones(2, np.float32))
        b = nn.Parameter(np.zeros(2, np.float32))
        out = F.batch_norm(x, rm.copy(), rv.copy(), w, b, training=False)
        expected = (x.data - rm.reshape(1, 2, 1, 1)) / np.sqrt(rv.reshape(1, 2, 1, 1) + 1e-5)
        np.testing.assert_allclose(out.data, expected, rtol=1e-5)

    def test_batch_norm_gradients_training(self, rng):
        x = t64(rng, 4, 2, 3, 3)
        w = Tensor(np.abs(rng.standard_normal(2)) + 0.5, requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)

        def run():
            rm, rv = np.zeros(2), np.ones(2)
            return (F.batch_norm(x, rm, rv, w, b, training=True) ** 2).sum()

        assert_gradcheck(run, [x, w, b], atol=1e-5, rtol=1e-3)

    def test_layer_norm_normalizes_last_axis(self, rng):
        x = Tensor(rng.standard_normal((2, 5, 8)).astype(np.float32) * 3)
        w = nn.Parameter(np.ones(8, np.float32))
        b = nn.Parameter(np.zeros(8, np.float32))
        out = F.layer_norm(x, w, b)
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros((2, 5)), atol=1e-5)

    def test_layer_norm_gradients(self, rng):
        x = t64(rng, 3, 6)
        w = Tensor(np.abs(rng.standard_normal(6)) + 0.5, requires_grad=True)
        b = Tensor(rng.standard_normal(6), requires_grad=True)
        assert_gradcheck(lambda: (F.layer_norm(x, w, b) ** 2).sum(), [x, w, b],
                         atol=1e-5, rtol=1e-3)


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        x = Tensor(rng.standard_normal(100).astype(np.float32))
        out = F.dropout(x, 0.5, training=False)
        assert out is x

    def test_training_zeroes_and_scales(self):
        x = Tensor(np.ones(10000, dtype=np.float32))
        out = F.dropout(x, 0.25, training=True, rng=np.random.default_rng(0))
        zeros = (out.data == 0).mean()
        assert 0.2 < zeros < 0.3
        nonzero = out.data[out.data != 0]
        np.testing.assert_allclose(nonzero, 1.0 / 0.75, rtol=1e-6)

    def test_p_zero_is_identity(self, rng):
        x = Tensor(rng.standard_normal(10).astype(np.float32))
        assert F.dropout(x, 0.0, training=True) is x


class TestLosses:
    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((4, 10), dtype=np.float32))
        loss = F.cross_entropy(logits, np.zeros(4, dtype=np.int64))
        np.testing.assert_allclose(loss.item(), np.log(10), rtol=1e-6)

    def test_cross_entropy_confident_correct_is_small(self):
        logits = np.full((2, 5), -10.0, dtype=np.float32)
        logits[:, 3] = 10.0
        loss = F.cross_entropy(Tensor(logits), np.array([3, 3]))
        assert loss.item() < 1e-4

    def test_cross_entropy_gradient(self, rng):
        x = t64(rng, 4, 6)
        labels = np.array([0, 5, 2, 3])
        assert_gradcheck(lambda: F.cross_entropy(x, labels), [x])

    def test_cross_entropy_reductions(self, rng):
        x = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
        labels = np.array([0, 1, 2, 0])
        per = F.cross_entropy(x, labels, reduction="none")
        assert per.shape == (4,)
        np.testing.assert_allclose(F.cross_entropy(x, labels, reduction="sum").item(),
                                   per.data.sum(), rtol=1e-6)
        np.testing.assert_allclose(F.cross_entropy(x, labels).item(),
                                   per.data.mean(), rtol=1e-6)
        with pytest.raises(ValueError, match="reduction"):
            F.cross_entropy(x, labels, reduction="bogus")

    def test_cross_entropy_rejects_column_labels(self, rng):
        """A (B, 1) label column would pick a (B, B) block and score it."""
        x = Tensor(rng.standard_normal((8, 5)).astype(np.float32))
        labels = rng.integers(0, 5, size=8)
        F.cross_entropy(x, labels)
        for bad in (labels[:, None], labels[:4], labels[0]):
            with pytest.raises(ValueError, match="one class per row"):
                F.cross_entropy(x, bad)

    def test_mse_loss(self, rng):
        a = Tensor(rng.standard_normal(5).astype(np.float32))
        b = rng.standard_normal(5).astype(np.float32)
        np.testing.assert_allclose(F.mse_loss(a, b).item(),
                                   np.mean((a.data - b) ** 2), rtol=1e-6)

    def test_one_hot(self):
        oh = F.one_hot(np.array([0, 2]), 3)
        np.testing.assert_array_equal(oh, [[1, 0, 0], [0, 0, 1]])
