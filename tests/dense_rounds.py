"""The dense per-pulse QKD rounds, kept as the reference the sifted-click
sampler (``qkd._sifted_keys``) is tested against: every pulse draws its
bits, bases and channel outcomes, and sifting keeps the detected pulses
measured in the sender's basis."""
import numpy as np

from soqn._kernels import transmit_pulses
from soqn.channel import transmittance
from soqn.qkd import sift


def _prepare_measure_rounds(n_pulses, loss_db, eve, channel, rng):
    """One batch of prepare -> (eve) -> channel -> measure rounds.

    Returns (sender_bits, sender_bases, receiver_bases, detected,
    receiver_bits). Draw order is fixed so a batch replays bit-for-bit
    from its stream.
    """
    eta_total = transmittance(loss_db) * channel.detector_efficiency
    if not (0.0 < eta_total <= 1.0):
        raise ValueError(f"eta_total out of (0, 1]: {eta_total}")
    sender_bits = rng.bits(n_pulses)
    sender_bases = rng.bits(n_pulses)
    if eve.mode == "intercept_resend":
        eve_bases = rng.bits(n_pulses)
        eve_coin = rng.bits(n_pulses)
        tx_bits = np.where(eve_bases == sender_bases, sender_bits, eve_coin).astype(np.uint8)
        tx_bases = eve_bases
    else:
        tx_bits = sender_bits
        tx_bases = sender_bases
    receiver_bases = rng.bits(n_pulses)
    # Each uniform array is thresholded as soon as it is drawn, so that only
    # one float64 array of n_pulses is alive at a time.
    coin = rng.uniforms(n_pulses) < 0.5
    sig_click = rng.uniforms(n_pulses) < eta_total
    noise_click = rng.uniforms(n_pulses) < channel.noise_prob
    flip = rng.uniforms(n_pulses) < channel.intrinsic_error_prob
    noise_bit = rng.uniforms(n_pulses) < 0.5
    detected, receiver_bits = transmit_pulses(tx_bits, tx_bases, receiver_bases,
                                              coin, sig_click, noise_click, flip, noise_bit)
    return sender_bits, sender_bases, receiver_bases, detected, receiver_bits


def dense_sifted_keys(n_pulses, loss_db, eve, channel, rng):
    """The sifted keys of the dense rounds: the sampler's contract."""
    sender_bits, sender_bases, receiver_bases, detected, receiver_bits = \
        _prepare_measure_rounds(n_pulses, loss_db, eve, channel, rng)
    return sift(sender_bases, receiver_bases, sender_bits, receiver_bits, detected)
