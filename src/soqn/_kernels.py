"""Numpy kernels: the per-pulse transmit kernel and the Toeplitz hash.

Kernels never draw randomness themselves. Sessions sample their sifted
clicks directly (``qkd._sifted_keys``); the transmit kernel is the per-gate
detection of the dense per-pulse model the tests compare them against, and
takes boolean masks thresholded from pre-drawn uniform arrays.
"""
from __future__ import annotations

import numpy as np
from numpy.fft import irfft, rfft


def backend_name() -> str:
    return "numpy"


# --- transmit kernel -------------------------------------------------------
#
# One gated detection opportunity per pulse. The caller draws one uniform
# array per random choice and passes it thresholded into a boolean mask:
#   coin        u < 0.5      the bit read in a mismatched basis
#   sig_click   u < eta      the signal photon clicks
#   noise_click u < p_noise  a dark or background click
#   flip        u < p_flip   a signal click reads the flipped bit
#   noise_bit   u < 0.5      the bit of a noise-only click
# Per pulse i: ideal bit = tx_bit if bases match else coin; on a signal
# click the bit is ideal ^ flip; a noise-only click reads noise_bit;
# simultaneous clicks resolve to the signal bit.


def transmit_pulses(tx_bits, tx_bases, rx_bases, coin, sig_click, noise_click, flip, noise_bit):
    """Return (detected, bits) as uint8 arrays, one entry per pulse."""
    ideal = np.where(tx_bases == rx_bases, tx_bits, coin)
    bits = np.where(sig_click, ideal ^ flip, noise_click & noise_bit).astype(np.uint8, copy=False)
    return (sig_click | noise_click).astype(np.uint8), bits


# --- Toeplitz-style universal hash -----------------------------------------
#
# out[i] = parity( sum_j t[i+j] * key[j] ), t holds n+m-1 random bits.
# Rows of the implied binary matrix are sliding windows of t, which is a
# Toeplitz matrix up to row order, hence a universal family.

# Every exact sum is an integer, so a float result further than this from
# the nearest integer means the FFT lost the precision needed to round it.
ROUNDING_MARGIN = 0.25


def toeplitz_hash(key_bits, t_bits, m):
    """Hash ``key_bits`` (n bits) to ``m`` bits with the window rows of
    ``t_bits`` (n+m-1 bits).

    The integer sums are the correlation of t with the key, computed as one
    linear convolution of t with the reversed key by real FFTs, then rounded
    and reduced mod 2 (the technique of fast QKD privacy amplification,
    Hayashi & Tsurumaru, IEEE TIT 62(4), 2016). Raises ``ArithmeticError``
    when a sum lands further than ``ROUNDING_MARGIN`` from an integer.
    """
    n = key_bits.shape[0]
    size = 1 << max(2 * n + m - 3, 0).bit_length()  # power of two >= 2n+m-2
    c = irfft(rfft(t_bits, size) * rfft(key_bits[::-1], size), size)[n - 1 : n - 1 + m]
    r = np.rint(c)
    err = float(np.max(np.abs(c - r), initial=0.0))
    if err > ROUNDING_MARGIN:
        raise ArithmeticError(f"FFT rounding error {err:.3g} exceeds {ROUNDING_MARGIN} "
                              f"(n={n}, m={m})")
    return (r.astype(np.int64) & 1).astype(np.uint8)
