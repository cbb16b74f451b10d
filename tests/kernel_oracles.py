"""Frozen reference copies of hot numpy kernels, used as test oracles.

These are the straightforward implementations the library's fewer-pass
kernels replaced: BFP and FP ``real_to_format_tensor`` (float64 working
copies, one full-tensor temporary per step), AdaptivFloat's own rounding
pass and fused flip kernel (FloatingPoint's field arithmetic re-derived
under the shared bias, before AFP ran on FloatingPoint's kernels), the
NCHW ``as_strided`` im2col, the gather-and-``argmax`` max pool, the
per-sample cross-entropy and prediction terms of outcome scoring (full
softmax, ``nan_to_num`` before every argmax), and scoring one faulty run
at a time.
``tests/test_kernel_oracles.py`` checks that the library kernels return the
same bits, metadata and numeric-health counts as these.  Do not optimise
them: their value is that they are obviously the algorithm.
"""

from __future__ import annotations

import math

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


def _afp_max_value(fmt, bias: int) -> float:
    e_max = (1 << fmt.exp_bits) - 1 - bias
    top = math.inf if e_max >= np.finfo(np.float64).maxexp else 2.0 ** e_max
    return float((2.0 - 2.0 ** -fmt.mantissa_bits) * top)


def afp_quantize_with_bias(fmt, xd: np.ndarray, bias: int) -> np.ndarray:
    """Reference AdaptivFloat rounding of float64 ``xd`` under ``bias``."""
    e_min = 1 - bias
    magnitude = np.abs(xd)
    with np.errstate(divide="ignore"):
        _, raw_exp = np.frexp(magnitude)
    exp = np.maximum(raw_exp - 1, e_min)
    granularity = np.exp2(exp - fmt.mantissa_bits)
    quantized = np.round(magnitude / granularity) * granularity
    if not fmt.denormals:
        min_normal = 2.0 ** e_min
        quantized = np.where(
            quantized < min_normal,
            np.where(quantized >= min_normal / 2, min_normal, 0.0),
            quantized,
        )
    # AFP reserves no inf/NaN encodings: inf saturates, NaN becomes zero
    quantized = np.nan_to_num(quantized, nan=0.0, posinf=np.inf)
    quantized = np.minimum(quantized, _afp_max_value(fmt, bias))
    quantized = np.where(magnitude == 0.0, 0.0, quantized)
    signs = np.where(np.isnan(xd), 0.0, np.sign(xd))
    return signs * quantized


def afp_real_to_format_tensor(fmt, tensor: np.ndarray) -> np.ndarray:
    """Reference ``AdaptivFloat.real_to_format_tensor`` (sets the bias)."""
    x = np.asarray(tensor, dtype=np.float32)
    xd = x.astype(np.float64)
    magnitude = np.where(np.isfinite(xd), np.abs(xd), 0.0)
    peak = float(np.max(magnitude, initial=0.0))
    if peak == 0.0:
        fmt.metadata = np.int64(0)
        result = np.zeros_like(x)
        if fmt.stats_sink is not None:
            fmt.stats_sink.record(
                fmt, x, result,
                saturated=int(np.count_nonzero(np.isinf(xd))),
                flushed=0,
                nan_remapped=int(np.count_nonzero(np.isnan(xd))))
        return result
    bias = ((1 << fmt.exp_bits) - 1) - int(np.floor(np.log2(peak)))
    bias = int(np.clip(bias, -128, 127))
    fmt.metadata = np.int64(bias)
    result = afp_quantize_with_bias(fmt, xd, bias).astype(np.float32)
    if fmt.stats_sink is not None:
        abs_xd = np.abs(xd)
        saturated = int(np.count_nonzero(abs_xd > _afp_max_value(fmt, bias)))
        flushed = int(np.count_nonzero(
            (result == 0.0) & (abs_xd > 0.0) & np.isfinite(xd)))
        nan_remapped = int(np.count_nonzero(np.isnan(xd)))
        fmt.stats_sink.record(fmt, x, result,
                              saturated=saturated, flushed=flushed,
                              nan_remapped=nan_remapped)
    return result


def afp_flip(fmt, values: np.ndarray, masks, op: str = "xor") -> np.ndarray:
    """Reference fused AdaptivFloat flip under the captured bias.

    ``masks`` is one int or a per-element int64 array of packed-word masks;
    ``op`` is ``xor``, ``set`` or ``clear``.
    """
    if np.isnan(values).any():
        raise ValueError("AdaptivFloat has no NaN encoding")
    bias = int(fmt.metadata)
    e, m = fmt.exp_bits, fmt.mantissa_bits
    e_min = 1 - bias
    v64 = values.astype(np.float64)
    sign = (v64 < 0).astype(np.int64)  # scalar semantics: -0.0 -> sign 0
    mag = np.minimum(np.abs(v64), _afp_max_value(fmt, bias))
    with np.errstate(divide="ignore"):
        exp = np.floor(np.log2(mag))
    exp = np.maximum(exp, e_min).astype(np.int64)
    gran = np.exp2((exp - m).astype(np.float64))
    code = np.round(mag / gran).astype(np.int64)
    carry = code >= (1 << (m + 1))
    exp = exp + carry
    code = np.where(carry, code >> 1, code)
    normal = code >= (1 << m)
    exp_field = np.where(normal, exp + bias, 0)
    mant = np.where(normal, code - (1 << m), np.minimum(code, (1 << m) - 1))
    if not fmt.denormals:
        flush = ~normal
        exp_field = np.where(flush & (mag >= 2.0 ** e_min / 2), 1, exp_field)
        mant = np.where(flush, 0, mant)

    packed = (sign << (e + m)) | (exp_field << m) | mant
    if op == "xor":
        packed = packed ^ masks
    elif op == "set":
        packed = packed | masks
    else:
        packed = packed & ~masks

    sign_bit = (packed >> (e + m)) & 1
    sign_f = np.where(sign_bit == 1, -1.0, 1.0)
    ef = (packed >> m) & ((1 << e) - 1)
    mf = packed & ((1 << m) - 1)
    if fmt.denormals:
        denorm_val = mf.astype(np.float64) * (2.0 ** (e_min - m))
    else:
        denorm_val = np.float64(0.0)
    with np.errstate(over="ignore"):
        normal_val = (1.0 + mf / (1 << m)) * np.exp2(
            (ef - bias).astype(np.float64))
    out = sign_f * np.where(ef == 0, denorm_val, normal_val)
    return out.astype(np.float32)


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


def max_pool2d(x: np.ndarray, k: int, s: int, grad: np.ndarray | None = None):
    """Frozen argmax max-pool kernel: ``(out, input gradient of grad)``.

    Gathers each window into a ``k*k`` row, picks ``argmax`` (first
    occurrence; NaN wins) and scatters ``grad`` back to the winners.
    """
    n, c, h, w = x.shape
    oh = (h - k) // s + 1
    ow = (w - k) // s + 1
    sn, sc, sh, sw = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, oh, ow, k, k),
        strides=(sn, sc, sh * s, sw * s, sh, sw), writeable=False)
    flat = patches.reshape(n, c, oh, ow, k * k)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    if grad is None:
        return out, None
    dx = np.zeros_like(x)
    ii, jj = np.unravel_index(idx, (k, k))
    ns, cs, ohs, ows = np.indices((n, c, oh, ow))
    np.add.at(dx, (ns, cs, ohs * s + ii, ows * s + jj), grad)
    return out, dx
