"""Frozen reference copies of three hot numpy kernels, used as test oracles.

These are the straightforward implementations the library's fewer-pass
kernels replaced: BFP and FP ``real_to_format_tensor`` (float64 working
copies, one full-tensor temporary per step) and the NCHW ``as_strided``
im2col.  ``tests/test_kernel_oracles.py`` checks that the library kernels
return the same bits, metadata and numeric-health counts as these.  Do not
optimise them: their value is that they are obviously the algorithm.
"""

from __future__ import annotations

import numpy as np

from repro.formats.bfp import BfpMetadata


def bfp_real_to_format_tensor(fmt, tensor: np.ndarray) -> np.ndarray:
    """Reference ``BlockFloatingPoint.real_to_format_tensor`` (sets metadata)."""
    x = np.asarray(tensor, dtype=np.float32)
    flat = x.reshape(-1).astype(np.float64)
    numel = flat.size
    block_size = fmt.block_size or max(numel, 1)
    num_blocks = max((numel + block_size - 1) // block_size, 1)
    padded = np.zeros(num_blocks * block_size, dtype=np.float64)
    padded[:numel] = flat
    blocks = padded.reshape(num_blocks, block_size)

    magnitude = np.where(np.isfinite(blocks), np.abs(blocks), 0.0)
    peak = np.max(magnitude, axis=1)
    with np.errstate(divide="ignore"):
        _, raw_exp = np.frexp(peak)
    shared_exp = raw_exp - 1
    exp_fields = np.clip(shared_exp + fmt.exp_bias, 0, fmt.max_exp_field).astype(np.int64)
    shared_exp = exp_fields - fmt.exp_bias

    granularity_1d = np.exp2(shared_exp - fmt.mantissa_bits + 1)
    carry = np.round(peak / granularity_1d) > fmt.max_mantissa
    bump = carry & (exp_fields < fmt.max_exp_field)
    if bump.any():
        exp_fields = exp_fields + bump.astype(np.int64)
        shared_exp = exp_fields - fmt.exp_bias

    fmt.metadata = BfpMetadata(exp_fields=exp_fields, block_size=block_size, numel=numel)

    granularity = np.exp2(shared_exp - fmt.mantissa_bits + 1)[:, None]
    raw_mantissas = np.round(np.abs(blocks) / granularity)
    mantissas = np.nan_to_num(raw_mantissas, nan=0.0, posinf=fmt.max_mantissa)
    mantissas = np.clip(mantissas, 0, fmt.max_mantissa)
    signs = np.where(np.isnan(blocks), 0.0, np.sign(blocks))
    quantized = signs * mantissas * granularity
    zero_block = peak == 0.0
    if zero_block.any():
        quantized[zero_block] = 0.0
    result = quantized.reshape(-1)[:numel].reshape(x.shape).astype(np.float32)
    if fmt.stats_sink is not None:
        saturated = int(np.count_nonzero(raw_mantissas > fmt.max_mantissa))
        flushed = int(np.count_nonzero(
            (mantissas == 0) & np.isfinite(blocks) & (blocks != 0.0)))
        nan_remapped = int(np.count_nonzero(np.isnan(blocks)))
        fmt.stats_sink.record(fmt, x, result,
                              saturated=saturated, flushed=flushed,
                              nan_remapped=nan_remapped)
    return result


def fp_real_to_format_tensor(fmt, tensor: np.ndarray) -> np.ndarray:
    """Reference ``FloatingPoint.real_to_format_tensor``."""
    x = np.asarray(tensor, dtype=np.float32)
    xd = x.astype(np.float64)
    magnitude = np.abs(xd)
    with np.errstate(divide="ignore"):
        _, raw_exp = np.frexp(magnitude)
    exp = raw_exp - 1
    exp = np.maximum(exp, fmt.min_exp)
    granularity = np.ldexp(1.0, exp - fmt.mantissa_bits)
    quantized = np.round(magnitude / granularity) * granularity
    if not fmt.denormals:
        below = quantized < fmt.min_normal
        quantized = np.where(
            below, np.where(quantized >= fmt.min_normal / 2, fmt.min_normal, 0.0), quantized
        )
    quantized = np.minimum(quantized, fmt.max_value)
    quantized = np.where(magnitude == 0.0, 0.0, quantized)
    result = (np.sign(xd) * quantized).astype(np.float32)
    if fmt.stats_sink is not None:
        saturated = int(np.count_nonzero(magnitude > fmt.max_value))
        flushed = int(np.count_nonzero(
            (quantized == 0.0) & (magnitude > 0.0) & np.isfinite(magnitude)))
        fmt.stats_sink.record(fmt, x, result,
                              saturated=saturated, flushed=flushed,
                              nan_remapped=0)
    return result


def im2col(x: np.ndarray, kernel, stride, padding):
    """Reference NCHW im2col: ``(N*OH*OW, C*KH*KW)`` patch matrix."""
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    sn, sc, sh_, sw_ = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, kh, kw),
        strides=(sn, sc, sh_ * sh, sw_ * sw, sh_, sw_),
        writeable=False,
    )
    cols = patches.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols), (oh, ow)
