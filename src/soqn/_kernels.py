"""Hot per-pulse kernels, in numpy.

Kernels consume pre-drawn uniform arrays and never draw randomness
themselves, so a session replays bit for bit from its stream.
"""
from __future__ import annotations

import numpy as np
from numpy.fft import irfft, rfft


def backend_name() -> str:
    return "numpy"


# --- transmit kernel -------------------------------------------------------
#
# One gated detection opportunity per pulse. Per pulse i:
#   ideal bit  = tx_bit if bases match else fair coin (u_mismatch)
#   signal click iff u_sig < eta
#   noise click  iff u_noise < p_noise
#   on signal click the bit flips with p_flip; a noise-only click draws a
#   uniform bit; simultaneous clicks resolve to the signal bit.


def transmit_pulses(tx_bits, tx_bases, rx_bases, eta, p_noise, p_flip,
                    u_mismatch, u_sig, u_noise, u_flip, u_noisebit):
    """Return (detected, bits) as uint8 arrays, one entry per pulse."""
    match = tx_bases == rx_bases
    ideal = np.where(match, tx_bits, (u_mismatch < 0.5).astype(np.uint8))
    sig_click = u_sig < eta
    noise_click = u_noise < p_noise
    detected = sig_click | noise_click
    flipped = ideal ^ (u_flip < p_flip).astype(np.uint8)
    noise_bit = (u_noisebit < 0.5).astype(np.uint8)
    bits = np.where(sig_click, flipped, np.where(noise_click, noise_bit, 0)).astype(np.uint8)
    return detected.astype(np.uint8), bits


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
