"""Bitstring helpers: messages and keys are numpy uint8 arrays of 0/1.

The public helpers check what they are given, then call a private core that
trusts its arrays. The network checks key bits once, where they enter its
key plane, and calls the cores on them from then on.
"""
from __future__ import annotations

import re

import numpy as np

# A run of hex digits, of either case. bytes.fromhex alone would also take
# whitespace between digit pairs.
_HEX_RE = re.compile(r"[0-9A-Fa-f]*")


def as_bits(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("bitstrings must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise ValueError("bitstrings may contain only 0 and 1")
    return arr


def xor_bits(a, b) -> np.ndarray:
    """Both bitstrings, checked by ``as_bits`` and for equal length, XORed."""
    x = as_bits(a)
    y = as_bits(b)
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return x ^ y


def bits_from_hex(text: str) -> np.ndarray:
    """Each hex digit, of either case, expands to 4 bits, most significant
    first. A bad digit is named as written."""
    digits = _HEX_RE.match(text).end()
    if digits < len(text):
        raise ValueError(f"invalid hex digit {text[digits]!r}")
    packed = bytes.fromhex(text + "0" if digits % 2 else text)
    return np.unpackbits(np.frombuffer(packed, dtype=np.uint8))[: 4 * digits]


def hex_from_bits(bits) -> str:
    arr = as_bits(bits)
    if len(arr) % 4 != 0:
        raise ValueError("bit length must be a multiple of 4")
    return _hex(arr)


def _hex(arr: np.ndarray) -> str:
    """Hex of checked bits whose length is a multiple of 4."""
    return np.packbits(arr).tobytes().hex()[: len(arr) // 4]


def _binary(arr: np.ndarray) -> str:
    """Checked bits as the digits 0 and 1."""
    return (arr + 48).tobytes().decode()
