"""Bitstring helpers: messages and keys are numpy uint8 arrays of 0/1."""
from __future__ import annotations

import numpy as np

_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
# Digit value of each code point below 256, either case; 16 marks a
# non-digit, and larger code points are clipped onto entry 255.
_HEX_VALUE = np.full(256, 16, dtype=np.uint8)
_HEX_VALUE[_HEX_DIGITS] = np.arange(16, dtype=np.uint8)
_HEX_VALUE[np.frombuffer(b"ABCDEF", dtype=np.uint8)] = np.arange(10, 16, dtype=np.uint8)
# Row v holds the 4 bits of digit value v, most significant first.
_NIBBLE_BITS = np.unpackbits(np.arange(16, dtype=np.uint8)[:, None], axis=1)[:, 4:].copy()


def as_bits(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("bitstrings must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise ValueError("bitstrings may contain only 0 and 1")
    return arr


def xor_bits(a, b) -> np.ndarray:
    x = as_bits(a)
    y = as_bits(b)
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return np.bitwise_xor(x, y)


def bits_from_hex(text: str) -> np.ndarray:
    """Each hex digit, of either case, expands to 4 bits, most significant
    first. A bad digit is named as written."""
    # One code point per character, so an index into codes is one into text.
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    values = _HEX_VALUE.take(codes, mode="clip")
    bad = values > 15
    if bad.any():
        raise ValueError(f"invalid hex digit {text[int(bad.argmax())]!r}")
    return _NIBBLE_BITS.take(values, axis=0).ravel()


def hex_from_bits(bits) -> str:
    arr = as_bits(bits)
    if len(arr) % 4 != 0:
        raise ValueError("bit length must be a multiple of 4")
    values = np.packbits(arr.reshape(-1, 4), axis=1)[:, 0] >> 4
    return _HEX_DIGITS[values].tobytes().decode("ascii")
