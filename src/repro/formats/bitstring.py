"""Bit-level encode/decode helpers shared by all number formats.

A *bitstring* is a plain ``list[int]`` of 0/1 values, most-significant bit
first — the representation returned by the paper's ``real_to_format`` API
(§III-B, Method 3) and consumed by ``format_to_real`` (Method 4).  Keeping it
a list makes single-bit flips trivial for the error-injection engine.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = [
    "Bitstring",
    "flip_bit",
    "set_bit",
    "apply_bit_op",
    "bits_to_uint",
    "uint_to_bits",
    "int_to_twos_complement",
    "twos_complement_to_int",
    "float32_to_bits",
    "bits_to_float32",
    "validate_bits",
]

Bitstring = list  # list[int] of 0/1, MSB first


def validate_bits(bits: Bitstring, width: int | None = None) -> None:
    """Raise ``ValueError`` unless ``bits`` is a 0/1 list (of ``width`` if given)."""
    if width is not None and len(bits) != width:
        raise ValueError(f"expected a {width}-bit string, got {len(bits)} bits")
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bitstring may contain only 0/1, found {b!r}")


def flip_bit(bits: Bitstring, position: int) -> Bitstring:
    """Return a copy of ``bits`` with the bit at ``position`` flipped.

    ``position`` counts from the MSB (position 0), matching how the paper
    describes injection sites ("bit position from the LSB" is the paper's
    radix convention; for injections we index from the MSB so position 0 is
    always the sign bit of a signed format).
    """
    if not 0 <= position < len(bits):
        raise IndexError(f"bit position {position} out of range for {len(bits)}-bit value")
    flipped = list(bits)
    flipped[position] ^= 1
    return flipped


def set_bit(bits: Bitstring, position: int, value: int) -> Bitstring:
    """Return a copy of ``bits`` with the bit at ``position`` forced to ``value``.

    The stuck-at fault model's primitive: unlike :func:`flip_bit` (XOR), a
    stuck-at corruption is idempotent — forcing a bit to the value it
    already holds leaves the word unchanged.
    """
    if not 0 <= position < len(bits):
        raise IndexError(f"bit position {position} out of range for {len(bits)}-bit value")
    if value not in (0, 1):
        raise ValueError(f"bit value must be 0 or 1, got {value!r}")
    forced = list(bits)
    forced[position] = value
    return forced


def apply_bit_op(bits: Bitstring, positions, op: str = "xor") -> Bitstring:
    """Return ``bits`` with ``op`` applied at every position (MSB first).

    ``"xor"`` flips each bit (the transient SEU model); ``"set"`` /
    ``"clear"`` force it to 1 / 0 (the stuck-at model).  The one bitstring
    fault primitive: metadata registers and the scalar reference flip
    (:func:`repro.formats.vectorized.flip_value`) both corrupt through it.
    """
    if op not in ("xor", "set", "clear"):
        raise ValueError(f"unknown bit operation {op!r}; valid: xor, set, clear")
    for position in positions:
        bits = (flip_bit(bits, position) if op == "xor"
                else set_bit(bits, position, int(op == "set")))
    return bits


def bits_to_uint(bits: Bitstring) -> int:
    """Interpret an MSB-first bitstring as an unsigned integer."""
    validate_bits(bits)
    value = 0
    for b in bits:
        value = (value << 1) | b
    return value


def uint_to_bits(value: int, width: int) -> Bitstring:
    """Encode an unsigned integer as an MSB-first bitstring of ``width`` bits."""
    if value < 0:
        raise ValueError(f"expected unsigned value, got {value}")
    if value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def int_to_twos_complement(value: int, width: int) -> Bitstring:
    """Encode a signed integer as ``width``-bit two's complement (MSB first)."""
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    if not lo <= value <= hi:
        raise ValueError(f"value {value} outside two's-complement range [{lo}, {hi}]")
    return uint_to_bits(value & ((1 << width) - 1), width)


def twos_complement_to_int(bits: Bitstring) -> int:
    """Decode an MSB-first two's-complement bitstring to a signed integer."""
    raw = bits_to_uint(bits)
    width = len(bits)
    if bits[0] == 1:
        raw -= 1 << width
    return raw


def float32_to_bits(value: float) -> Bitstring:
    """IEEE-754 binary32 encoding of ``value`` (used for FP32 metadata registers)."""
    packed = struct.pack(">I", struct.unpack(">I", struct.pack(">f", np.float32(value)))[0])
    raw = struct.unpack(">I", packed)[0]
    return uint_to_bits(raw, 32)


def bits_to_float32(bits: Bitstring) -> float:
    """Decode a 32-bit IEEE-754 bitstring back to a Python float."""
    validate_bits(bits, 32)
    raw = bits_to_uint(bits)
    return float(struct.unpack(">f", struct.pack(">I", raw))[0])
