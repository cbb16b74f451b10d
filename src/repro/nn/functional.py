"""Differentiable neural-network operations for the :mod:`repro.nn` substrate.

Convolution is implemented with an im2col lowering so the heavy lifting is a
single GEMM — the same strategy real DL frameworks use on CPU, which keeps the
FP32 "compute fabric" of this simulator reasonably fast in pure numpy.
"""

from __future__ import annotations

import numpy as np

from .lanes import lane_matmul
from .tensor import Tensor

__all__ = [
    "relu",
    "gelu",
    "sigmoid",
    "softmax",
    "log_softmax",
    "linear",
    "conv2d",
    "conv2d_region",
    "max_pool2d",
    "avg_pool2d",
    "adaptive_avg_pool2d",
    "batch_norm",
    "layer_norm",
    "dropout",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "one_hot",
    "im2col",
    "col2im",
]


# ----------------------------------------------------------------------
# activations
# ----------------------------------------------------------------------
def relu(x: Tensor) -> Tensor:
    """Rectified linear unit, ``max(x, 0)``."""
    out = x._make(np.maximum(x.data, 0.0), (x,))
    if out.requires_grad:
        mask = (x.data > 0).astype(x.data.dtype)

        def _backward():
            x._accumulate(out.grad * mask)

        out._backward = _backward
    return out


_GELU_C = np.float32(np.sqrt(2.0 / np.pi))


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation, as in DeiT/BERT)."""
    inner = _GELU_C * (x.data + 0.044715 * x.data ** 3)
    t = np.tanh(inner)
    out = x._make(0.5 * x.data * (1.0 + t), (x,))
    if out.requires_grad:

        def _backward():
            dt = (1.0 - t ** 2) * _GELU_C * (1.0 + 3 * 0.044715 * x.data ** 2)
            x._accumulate(out.grad * (0.5 * (1.0 + t) + 0.5 * x.data * dt))

        out._backward = _backward
    return out


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid ``1 / (1 + exp(-x))``."""
    s = 1.0 / (1.0 + np.exp(-x.data))
    out = x._make(s, (x,))
    if out.requires_grad:

        def _backward():
            x._accumulate(out.grad * s * (1.0 - s))

        out._backward = _backward
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    out = x._make(s, (x,))
    if out.requires_grad:

        def _backward():
            dot = (out.grad * s).sum(axis=axis, keepdims=True)
            x._accumulate(s * (out.grad - dot))

        out._backward = _backward
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    ls = shifted - log_z
    out = x._make(ls, (x,))
    if out.requires_grad:
        s = np.exp(ls)

        def _backward():
            x._accumulate(out.grad - s * out.grad.sum(axis=axis, keepdims=True))

        out._backward = _backward
    return out


# ----------------------------------------------------------------------
# linear / convolution
# ----------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight.T + bias`` with PyTorch's (out_features, in_features) layout."""
    out = x @ weight.swapaxes(-1, -2) if weight.ndim > 2 else x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def im2col(
    x: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int], padding: tuple[int, int]
) -> tuple[np.ndarray, tuple[int, int]]:
    """Lower NCHW image patches into a matrix of shape (N*OH*OW, C*KH*KW).

    The input is padded once into an NHWC buffer, so each of the ``kh*kw``
    kernel taps is one strided copy of whole channel rows into the
    ``(n, oh, ow, c, kh, kw)`` patch buffer whose rows are the matrix rows.
    The taps are copied one image at a time, so the image's patch rows stay
    in cache across all ``kh*kw`` passes.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    if ph or pw:
        nhwc = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=x.dtype)
        nhwc[:, ph : ph + h, pw : pw + w, :] = x.transpose(0, 2, 3, 1)
    else:
        nhwc = x.transpose(0, 2, 3, 1)
    cols = np.empty((n, oh, ow, c, kh, kw), dtype=x.dtype)
    for b in range(n):
        for i in range(kh):
            for j in range(kw):
                cols[b, ..., i, j] = nhwc[b, i : i + sh * oh : sh, j : j + sw * ow : sw]
    return cols.reshape(n * oh * ow, c * kh * kw), (oh, ow)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
) -> np.ndarray:
    """Scatter-add the inverse of :func:`im2col` (used by conv backward)."""
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    patches = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += patches[:, :, :, :, i, j]
    if ph or pw:
        return padded[:, :, ph : ph + h, pw : pw + w]
    return padded


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int | tuple[int, int] = 1,
    padding: int | tuple[int, int] = 0,
    groups: int = 1,
) -> Tensor:
    """2D convolution (NCHW, OIHW weights) via im2col + GEMM.

    ``groups > 1`` splits channels into independent groups (weights shaped
    ``(out_channels, in_channels // groups, kh, kw)``); ``groups ==
    in_channels`` gives a depthwise convolution.
    """
    stride = (stride, stride) if isinstance(stride, int) else tuple(stride)
    padding = (padding, padding) if isinstance(padding, int) else tuple(padding)
    n = x.shape[0]
    oc, icg, kh, kw = weight.shape
    ic = x.shape[1]
    if groups < 1 or ic % groups or oc % groups:
        raise ValueError(f"groups={groups} must divide in/out channels ({ic}/{oc})")
    if icg != ic // groups:
        raise ValueError(
            f"conv2d: input has {ic} channels over {groups} groups, "
            f"weight expects {icg} per group")
    cols, (oh, ow) = im2col(x.data, (kh, kw), stride, padding)
    w_mat = weight.data.reshape(oc, -1)
    chunk = icg * kh * kw
    ocg = oc // groups
    if groups == 1:
        out_data = lane_matmul(cols, w_mat.T)
    else:
        # cols rows are channel-major, so each group's patch slice is contiguous
        out_data = np.empty((cols.shape[0], oc), dtype=cols.dtype)
        for g in range(groups):
            out_data[:, g * ocg : (g + 1) * ocg] = lane_matmul(
                cols[:, g * chunk : (g + 1) * chunk],
                w_mat[g * ocg : (g + 1) * ocg].T)
    if bias is not None:
        out_data = out_data + bias.data
    out_data = out_data.reshape(n, oh, ow, oc).transpose(0, 3, 1, 2)
    parents = (x, weight) if bias is None else (x, weight, bias)
    out = x._make(out_data, parents)
    if out.requires_grad:

        def _backward():
            grad = out.grad.transpose(0, 2, 3, 1).reshape(-1, oc)
            if weight.requires_grad:
                if groups == 1:
                    dw = grad.T @ cols
                else:
                    dw = np.empty_like(w_mat)
                    for g in range(groups):
                        dw[g * ocg : (g + 1) * ocg] = (
                            grad[:, g * ocg : (g + 1) * ocg].T
                            @ cols[:, g * chunk : (g + 1) * chunk])
                weight._accumulate(dw.reshape(weight.shape))
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad.sum(axis=0))
            if x.requires_grad:
                if groups == 1:
                    dcols = grad @ w_mat
                else:
                    dcols = np.empty_like(cols)
                    for g in range(groups):
                        dcols[:, g * chunk : (g + 1) * chunk] = (
                            grad[:, g * ocg : (g + 1) * ocg]
                            @ w_mat[g * ocg : (g + 1) * ocg])
                x._accumulate(col2im(dcols, x.shape, (kh, kw), stride, padding))

        out._backward = _backward
    return out


def conv2d_region(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: tuple[int, int],
    padding: tuple[int, int],
    rows: tuple[int, int],
    cols: tuple[int, int],
) -> np.ndarray:
    """Output rows ``[rows[0], rows[1])`` x columns ``[cols[0], cols[1])``
    of :func:`conv2d` (``groups=1``, no autograd), every image and channel.

    The padded-input window those outputs read is gathered into an NHWC
    buffer and lowered by the same :func:`im2col` and multiplied by the
    same :func:`~repro.nn.lanes.lane_matmul`, with the same operand
    layouts, so each output row is the row the full convolution computes
    as long as BLAS takes the same kernel for both row counts (see
    :data:`repro.core.goldeneye.CONE_GEMM_FLOOR`).  Returns an
    ``(n, oc, rows, cols)`` view of NHWC memory, like :func:`conv2d`.
    """
    n, c, h, w = x.shape
    oc, _, kh, kw = weight.shape
    (sh, sw), (ph, pw) = stride, padding
    (r0, r1), (c0, c1) = rows, cols
    top, left = r0 * sh - ph, c0 * sw - pw
    wh, ww = (r1 - r0 - 1) * sh + kh, (c1 - c0 - 1) * sw + kw
    window = np.zeros((n, wh, ww, c), dtype=x.dtype)
    y0, y1 = max(top, 0), min(top + wh, h)
    x0, x1 = max(left, 0), min(left + ww, w)
    window[:, y0 - top : y1 - top, x0 - left : x1 - left] = (
        x[:, :, y0:y1, x0:x1].transpose(0, 2, 3, 1))
    patches, _ = im2col(window.transpose(0, 3, 1, 2), (kh, kw), stride, (0, 0))
    out = lane_matmul(patches, weight.reshape(oc, -1).T)
    if bias is not None:
        out = out + bias
    return out.reshape(n, r1 - r0, c1 - c0, oc).transpose(0, 3, 1, 2)


# ----------------------------------------------------------------------
# pooling
# ----------------------------------------------------------------------
def max_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Max pooling over NCHW spatial windows (stride defaults to the kernel).

    The ``k*k`` taps are reduced by comparison: a later tap replaces the
    running maximum only when it is greater, or when it is NaN and the
    running value is not.  That is ``argmax``'s first-occurrence rule, so
    ties between ±0 and NaN payloads keep the first tap's bits.  The loop
    keeps each tap's replacement mask; the backward pass reads the winning
    tap from them (the last tap that replaced the maximum).
    """
    stride = stride or kernel_size
    n, c, h, w = x.shape
    k, s = kernel_size, stride
    oh = (h - k) // s + 1
    ow = (w - k) // s + 1
    data = x.data
    taps = [data[:, :, i : i + s * (oh - 1) + 1 : s, j : j + s * (ow - 1) + 1 : s]
            for i in range(k) for j in range(k)]
    out_data = taps[0].copy()
    nan = data.size and np.isnan(data.max())
    takes = []
    for tap in taps[1:]:
        take = np.greater(tap, out_data)
        if nan:
            take |= np.isnan(tap) & ~np.isnan(out_data)
        np.copyto(out_data, tap, where=take)
        takes.append(take)
    out = x._make(out_data, (x,))
    if out.requires_grad:

        def _backward():
            idx = np.zeros(out_data.shape, dtype=np.intp)
            for t, take in enumerate(takes, start=1):
                idx[take] = t
            grad = np.zeros_like(x.data)
            ii, jj = np.unravel_index(idx, (k, k))
            ns, cs, ohs, ows = np.indices((n, c, oh, ow))
            np.add.at(grad, (ns, cs, ohs * s + ii, ows * s + jj), out.grad)
            x._accumulate(grad)

        out._backward = _backward
    return out


def avg_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Average pooling over NCHW spatial windows."""
    stride = stride or kernel_size
    n, c, h, w = x.shape
    k, s = kernel_size, stride
    oh = (h - k) // s + 1
    ow = (w - k) // s + 1
    sn, sc, sh, sw = x.data.strides
    patches = np.lib.stride_tricks.as_strided(
        x.data,
        shape=(n, c, oh, ow, k, k),
        strides=(sn, sc, sh * s, sw * s, sh, sw),
        writeable=False,
    )
    out_data = patches.mean(axis=(-1, -2))
    out = x._make(out_data, (x,))
    if out.requires_grad:
        scale = 1.0 / (k * k)

        def _backward():
            grad = np.zeros_like(x.data)
            for i in range(k):
                for j in range(k):
                    grad[:, :, i : i + oh * s : s, j : j + ow * s : s] += out.grad * scale
            x._accumulate(grad)

        out._backward = _backward
    return out


def adaptive_avg_pool2d(x: Tensor, output_size: int = 1) -> Tensor:
    """Average-pool to a fixed output size (only 1x1 needed by our models)."""
    if output_size != 1:
        raise NotImplementedError("only 1x1 adaptive average pooling is supported")
    return x.mean(axis=(2, 3), keepdims=True)


# ----------------------------------------------------------------------
# normalization / regularization
# ----------------------------------------------------------------------
def batch_norm(
    x: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    weight: Tensor,
    bias: Tensor,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over the channel axis of an NCHW tensor."""
    axes = (0, 2, 3) if x.ndim == 4 else (0,)
    shape = (1, -1, 1, 1) if x.ndim == 4 else (1, -1)
    if training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean, var = running_mean, running_var

    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mean.reshape(shape)) * inv_std.reshape(shape)
    out_data = x_hat * weight.data.reshape(shape) + bias.data.reshape(shape)
    out = x._make(out_data, (x, weight, bias))
    if out.requires_grad:
        count = x.size / x.shape[1]

        def _backward():
            g = out.grad
            if weight.requires_grad:
                weight._accumulate((g * x_hat).sum(axis=axes))
            if bias.requires_grad:
                bias._accumulate(g.sum(axis=axes))
            if x.requires_grad:
                gw = g * weight.data.reshape(shape)
                if training:
                    gsum = gw.sum(axis=axes, keepdims=True)
                    gxsum = (gw * x_hat).sum(axis=axes, keepdims=True)
                    dx = (gw - gsum / count - x_hat * gxsum / count) * inv_std.reshape(shape)
                else:
                    dx = gw * inv_std.reshape(shape)
                x._accumulate(dx)

        out._backward = _backward
    return out


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis."""
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mean) * inv_std
    out_data = x_hat * weight.data + bias.data
    out = x._make(out_data, (x, weight, bias))
    if out.requires_grad:
        d = x.shape[-1]
        reduce_axes = tuple(range(x.ndim - 1))

        def _backward():
            g = out.grad
            if weight.requires_grad:
                weight._accumulate((g * x_hat).sum(axis=reduce_axes))
            if bias.requires_grad:
                bias._accumulate(g.sum(axis=reduce_axes))
            if x.requires_grad:
                gw = g * weight.data
                gsum = gw.sum(axis=-1, keepdims=True)
                gxsum = (gw * x_hat).sum(axis=-1, keepdims=True)
                x._accumulate((gw - gsum / d - x_hat * gxsum / d) * inv_std)

        out._backward = _backward
    return out


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability ``p``, rescale survivors."""
    if not training or p <= 0.0:
        return x
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    out = x._make(x.data * mask, (x,))
    if out.requires_grad:

        def _backward():
            x._accumulate(out.grad * mask)

        out._backward = _backward
    return out


# ----------------------------------------------------------------------
# losses
# ----------------------------------------------------------------------
def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode integer ``labels`` into float32 rows."""
    eye = np.eye(num_classes, dtype=np.float32)
    return eye[np.asarray(labels, dtype=np.int64)]


def nll_loss(log_probs: Tensor, target: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood of ``target`` classes under ``log_probs``."""
    target = np.asarray(target, dtype=np.int64)
    if target.shape != log_probs.shape[:1]:  # a (B, 1) column picks (B, B)
        raise ValueError(f"target of shape {target.shape} does not fit "
                         f"log-probabilities of shape {log_probs.shape}: "
                         "need one class per row")
    picked = log_probs[np.arange(len(target)), target]
    loss = -picked
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    if reduction == "none":
        return loss
    raise ValueError(f"unknown reduction {reduction!r}")


def cross_entropy(logits: Tensor, target: np.ndarray, reduction: str = "mean") -> Tensor:
    """Cross-entropy on raw logits — the loss behind the paper's ΔLoss metric."""
    return nll_loss(log_softmax(logits, axis=-1), target, reduction=reduction)


def mse_loss(pred: Tensor, target: Tensor | np.ndarray, reduction: str = "mean") -> Tensor:
    """Mean squared error between ``pred`` and ``target``."""
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred - target_t
    sq = diff * diff
    if reduction == "mean":
        return sq.mean()
    if reduction == "sum":
        return sq.sum()
    return sq
