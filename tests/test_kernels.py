"""The numpy kernels against slow reference implementations."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soqn import qkd
from soqn.channel import ChannelParams, transmittance
from soqn.rng import RandomStream

from dense_rounds import _prepare_measure_rounds


def _transmit_inputs(n, seed=123, eta=0.7, p_noise=0.02, p_flip=0.05):
    """(kernel arguments, reference arguments) for n pulses: the reference
    takes five uniform arrays, the kernel the same uniforms thresholded."""
    rng = RandomStream(seed, "kernel-test")
    pulses = (rng.bits(n), rng.bits(n), rng.bits(n))
    u_mismatch, u_sig, u_noise, u_flip, u_noisebit = (rng.uniforms(n) for _ in range(5))
    masks = (u_mismatch < 0.5, u_sig < eta, u_noise < p_noise, u_flip < p_flip, u_noisebit < 0.5)
    reference = (eta, p_noise, p_flip, u_mismatch, u_sig, u_noise, u_flip, u_noisebit)
    return pulses + masks, pulses + reference


def _transmit_reference(tx_bits, tx_bases, rx_bases, eta, p_noise, p_flip,
                        u_mismatch, u_sig, u_noise, u_flip, u_noisebit):
    """Straight-line python restatement of the per-pulse contract."""
    n = len(tx_bits)
    detected = np.zeros(n, dtype=np.uint8)
    bits = np.zeros(n, dtype=np.uint8)
    for i in range(n):
        ideal = int(tx_bits[i]) if tx_bases[i] == rx_bases[i] else int(u_mismatch[i] < 0.5)
        sig = u_sig[i] < eta
        noise = u_noise[i] < p_noise
        detected[i] = sig or noise
        if sig:
            bits[i] = ideal ^ int(u_flip[i] < p_flip)
        elif noise:
            bits[i] = int(u_noisebit[i] < 0.5)
    return detected, bits


def _rounds_reference(n_pulses, loss_db, intercept_resend, channel, rng):
    """The prepare-measure rounds as they were first written: all five
    uniform arrays drawn, then the per-pulse loop over them."""
    eta_total = transmittance(loss_db) * channel.detector_efficiency
    sender_bits = rng.bits(n_pulses)
    sender_bases = rng.bits(n_pulses)
    if intercept_resend:
        eve_bases = rng.bits(n_pulses)
        eve_coin = rng.bits(n_pulses)
        tx_bits = np.where(eve_bases == sender_bases, sender_bits, eve_coin).astype(np.uint8)
        tx_bases = eve_bases
    else:
        tx_bits, tx_bases = sender_bits, sender_bases
    receiver_bases = rng.bits(n_pulses)
    uniforms = [rng.uniforms(n_pulses) for _ in range(5)]
    detected, receiver_bits = _transmit_reference(
        tx_bits, tx_bases, receiver_bases,
        eta_total, channel.noise_prob, channel.intrinsic_error_prob, *uniforms)
    return sender_bits, sender_bases, receiver_bases, detected, receiver_bits


def _toeplitz_reference(key, t, m):
    n = len(key)
    out = np.zeros(m, dtype=np.uint8)
    for i in range(m):
        out[i] = int(np.sum(t[i : i + n].astype(np.int64) * key.astype(np.int64))) & 1
    return out


class TestTransmitKernel:
    def test_numpy_matches_reference(self):
        args, reference = _transmit_inputs(500)
        got = qkd.transmit_pulses(*args)
        want = _transmit_reference(*reference)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == np.uint8
            assert np.array_equal(g, w)

    def test_ideal_channel(self):
        args, _ = _transmit_inputs(1000, eta=1.0, p_noise=0.0, p_flip=0.0)
        detected, bits = qkd.transmit_pulses(*args)
        assert detected.all()
        match = args[1] == args[2]
        assert np.array_equal(bits[match], args[0][match])


class TestPrepareMeasureDrawOrder:
    @pytest.mark.parametrize("mode", ["none", "intercept_resend"])
    def test_matches_draw_all_then_loop(self, mode):
        # noisy enough that every branch of the per-pulse contract is taken
        channel = ChannelParams(noise_prob=0.05 + 0.05,
                                intrinsic_error_prob=0.1)
        intercept_resend = mode == "intercept_resend"
        fresh, second = RandomStream(11, "rounds"), RandomStream(11, "rounds")
        got = _prepare_measure_rounds(3000, 3.0, intercept_resend, channel, fresh)
        want = _rounds_reference(3000, 3.0, intercept_resend, channel, second)
        assert np.array_equal(fresh.uniforms(4), second.uniforms(4))  # drawn alike
        for g, w in zip(got, want, strict=True):
            assert g.dtype == np.uint8
            assert np.array_equal(g, w)


class TestToeplitzKernel:
    def test_numpy_matches_reference(self):
        rng = RandomStream(5, "toeplitz")
        key = rng.bits(300)
        m = 120
        t = rng.bits(len(key) + m - 1)
        assert np.array_equal(qkd.toeplitz_hash(key, t, m),
                              _toeplitz_reference(key, t, m))

    def test_linear_in_key(self):
        # universal-hash linearity: T(k1 xor k2) == T(k1) xor T(k2)
        rng = RandomStream(7, "toeplitz")
        k1, k2 = rng.bits(800), rng.bits(800)
        m = 350
        t = rng.bits(800 + m - 1)
        h = qkd.toeplitz_hash
        assert np.array_equal(h(np.bitwise_xor(k1, k2), t, m),
                              np.bitwise_xor(h(k1, t, m), h(k2, t, m)))

    def test_block_boundary_sizes(self):
        # FFT sizes are powers of two >= n+m-1: these straddle them, down
        # to a one-point transform, up to the largest key and output sizes
        # the bundled benchmark workloads reach. The second row puts n+m-1
        # at a power of two (no spare point) and one past it.
        rng = RandomStream(8, "toeplitz")
        for n, m in [(1, 1), (2, 1), (10, 1), (63, 64), (64, 64), (65, 3),
                     (2048, 2048), (2049, 2050), (5744, 4651),
                     (1, 2), (2, 2), (33, 32), (33, 33), (1, 64), (64, 2),
                     (1000, 1049), (1000, 1050), (5744, 2449), (5744, 2450)]:
            key = rng.bits(n)
            t = rng.bits(n + m - 1)
            got = qkd.toeplitz_hash(key, t, m)
            assert got.dtype == np.uint8
            assert np.array_equal(got, _toeplitz_reference(key, t, m)), (n, m)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3000), m=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_property(self, n, m, seed):
        rng = RandomStream(seed, "toeplitz-prop")
        key = rng.bits(n)
        t = rng.bits(n + m - 1)
        assert np.array_equal(qkd.toeplitz_hash(key, t, m),
                              _toeplitz_reference(key, t, m))

    def test_all_ones_reaches_largest_sums(self):
        # every window sum is n, the largest value the FFT has to round
        n, m = 4001, 999
        out = qkd.toeplitz_hash(np.ones(n, dtype=np.uint8),
                                np.ones(n + m - 1, dtype=np.uint8), m)
        assert np.array_equal(out, np.ones(m, dtype=np.uint8))

    def test_rounding_guard_raises(self, monkeypatch):
        def off_by_0_3(*args, **kwargs):
            return np.fft.irfft(*args, **kwargs) + 0.3

        monkeypatch.setattr(qkd, "irfft", off_by_0_3)
        rng = RandomStream(9, "toeplitz")
        key = rng.bits(100)
        with pytest.raises(ArithmeticError, match="rounding error"):
            qkd.toeplitz_hash(key, rng.bits(100 + 40 - 1), 40)
