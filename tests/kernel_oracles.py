"""Frozen reference copies of hot numpy kernels, used as test oracles.

These are the straightforward implementations the library's fewer-pass
kernels replaced: BFP and FP ``real_to_format_tensor`` (float64 working
copies, one full-tensor temporary per step), the NCHW ``as_strided``
im2col, the per-sample cross-entropy and prediction terms of outcome
scoring (full softmax, ``nan_to_num`` before every argmax), and scoring
one faulty run at a time.
``tests/test_kernel_oracles.py`` checks that the library kernels return the
same bits, metadata and numeric-health counts as these.  Do not optimise
them: their value is that they are obviously the algorithm.
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


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Reference row-wise softmax (+inf saturates, NaN gets probability 0)."""
    logits = np.asarray(logits, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        shifted = logits - logits.max(axis=-1, keepdims=True)
    if not np.isfinite(logits).all():
        shifted = np.where(np.isposinf(logits), 0.0, shifted)
        shifted = np.where(np.isnan(shifted), -np.inf, shifted)
    e = np.exp(shifted)
    denom = e.sum(axis=-1, keepdims=True)
    denom = np.where(denom == 0.0, 1.0, denom)
    return e / denom


def cross_entropy_values(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Reference per-sample cross-entropy (non-finite logits clipped to ±1e4)."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    finite = np.isfinite(logits)
    if not finite.all():
        big = 1e4
        logits = np.where(np.isnan(logits), -big, logits)
        logits = np.clip(logits, -big, big)
    probs = softmax_probs(logits)
    picked = probs[np.arange(len(labels)), labels]
    return -np.log(np.maximum(picked, 1e-300))


def predictions(logits: np.ndarray) -> np.ndarray:
    """Reference per-sample argmax (NaN → -inf, ±inf → ±largest finite)."""
    with np.errstate(invalid="ignore"):
        return np.nan_to_num(logits, nan=-np.inf).argmax(axis=-1)


def compare_outcomes(golden_logits: np.ndarray, faulty_logits: np.ndarray,
                     labels: np.ndarray) -> dict[str, float]:
    """Reference scoring of one faulty run against the golden run.

    The golden prediction is the raw argmax (a NaN wins); an all-NaN faulty
    row always counts as changed and never as correct.
    """
    faulty = np.asarray(faulty_logits)
    golden_pred = np.asarray(golden_logits).argmax(axis=-1)
    faulty_pred = predictions(faulty)
    all_nan = np.isnan(faulty.astype(np.float64)).all(axis=-1)
    changed = (golden_pred != faulty_pred) | all_nan
    correct = (faulty_pred == labels) & ~all_nan
    mismatches = int(np.count_nonzero(changed))
    total = len(labels)
    gaps = np.abs(cross_entropy_values(faulty, labels)
                  - cross_entropy_values(golden_logits, labels))
    return {
        "mismatches": float(mismatches),
        "mismatch_rate": mismatches / total,
        "delta_loss": float(np.mean(gaps)),
        "sdc_rate": int(np.count_nonzero(changed & ~correct)) / total,
        "faulty_accuracy": float(np.mean(faulty_pred == labels)),
    }
