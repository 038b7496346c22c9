"""The bit-level QKD session, kept as the reference that the sessions'
count sampler (``qkd._session``) is tested against.

Two layers, each tested against the one below it:

- the dense per-pulse rounds: every pulse draws its bits, bases and channel
  outcomes, and sifting keeps the detected pulses measured in the sender's
  basis;
- the sifted-bit sampler ``sifted_keys``: it draws only the sifted pulses'
  bits, and ``bit_level_session`` post-processes them bit by bit with
  ``estimate_qber``, ``reconcile`` and the Toeplitz hash of
  ``privacy_amplify``, with the abort rules of the sessions.
"""
import numpy as np

from soqn.channel import transmittance
from soqn.qkd import (SessionAbort, SessionRecord, _aborted, click_model, estimate_qber,
                      privacy_amplify, reconcile, sift, transmit_pulses)


def _prepare_measure_rounds(n_pulses, loss_db, intercept_resend, channel, rng):
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
    if intercept_resend:
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


def dense_sifted_keys(n_pulses, loss_db, intercept_resend, channel, rng):
    """The sifted keys of the dense rounds: the sampler's contract."""
    sender_bits, sender_bases, receiver_bases, detected, receiver_bits = \
        _prepare_measure_rounds(n_pulses, loss_db, intercept_resend, channel, rng)
    return sift(sender_bases, receiver_bases, sender_bits, receiver_bits, detected)


def sifted_keys(n_pulses, loss_db, intercept_resend, channel, rng):
    """The sender's and the receiver's sifted keys of ``n_pulses``
    prepare -> (eve) -> channel -> measure rounds.

    Pulses are i.i.d., so only the sifted ones are drawn (thinning of a
    Bernoulli process): a pulse is kept when it clicks and both bases match,
    with probability p_click / 2, and a kept pulse reads the wrong bit with
    probability q. The sifted length, the bits and the errors have the law
    of the per-pulse rounds, whose order is exchangeable, so no positions
    are drawn. Three draws in a fixed order, so a session replays bit for
    bit from its stream.
    """
    p_click, q = click_model(loss_db, intercept_resend, channel)
    k = rng.binomial(n_pulses, p_click / 2)
    sender = rng.bits(k)
    return sender, sender ^ (rng.uniforms(k) < q)


def postprocess(n_pulses, sifted_a, sifted_b, rng, protocol):
    """Error estimation, reconciliation and privacy amplification of the
    sifted keys, bit by bit, as a ``SessionRecord``."""
    sifted_len = len(sifted_a)
    # error estimation needs at least 2 bits regardless of the configured floor
    if sifted_len < max(protocol.min_sift_len, 2):
        return _aborted(n_pulses, sifted_len, 0.0, SessionAbort.INSUFFICIENT_DETECTIONS)
    qber, rem_a, rem_b = estimate_qber(sifted_a, sifted_b, protocol.sample_fraction, rng)
    if qber > protocol.qber_abort:
        return _aborted(n_pulses, sifted_len, qber, SessionAbort.QBER_EXCEEDS_THRESHOLD)
    if len(rem_a) == 0:
        return _aborted(n_pulses, sifted_len, qber, SessionAbort.INSUFFICIENT_DETECTIONS)
    corrected, leak = reconcile(rem_a, rem_b, qber, protocol.f_ec)
    # Key agreement is asserted, not assumed: after reconciliation both ends
    # must hold the sender key bit for bit.
    if not np.array_equal(corrected, rem_a):
        raise AssertionError("reconciled keys disagree")
    final = privacy_amplify(corrected, qber, leak, rng,
                            qber_abort=protocol.qber_abort,
                            safety_margin_bits=protocol.safety_margin_bits)
    if len(final) == 0:
        # qber cleared the abort threshold but the leakage plus margin ate
        # the whole key; there is nothing left to distill.
        reason = (SessionAbort.QBER_EXCEEDS_THRESHOLD if qber > protocol.qber_abort
                  else SessionAbort.INSUFFICIENT_DETECTIONS)
        return _aborted(n_pulses, sifted_len, qber, reason)
    return SessionRecord(
        n_pulses=n_pulses,
        sifted_len=sifted_len,
        qber=qber,
        reconciliation_leak_bits=leak,
        final_key=final,
        abort_reason=SessionAbort.NONE,
    )


def bit_level_session(n_pulses, loss_db, intercept_resend, channel, rng, protocol):
    """The bit-level pipeline with the signature of ``qkd._session``."""
    return postprocess(n_pulses, *sifted_keys(n_pulses, loss_db, intercept_resend, channel, rng),
                       rng, protocol)
