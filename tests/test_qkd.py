import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from soqn import qkd
from soqn.channel import ChannelParams, transmittance
from soqn.network import OpticalLink
from soqn.qkd import (MAX_F_EC, ProtocolParams, SessionAbort, SessionRecord,
                      binary_entropy, click_model, estimate_qber, privacy_amplify, reconcile,
                      reconciliation_leak, run_bb84_session, run_plugplay_session, sift)
from soqn.rng import RandomStream

from counting_stream import CountingStream


def h2_oracle(p: float) -> float:
    """Independent binary entropy for frozen expected values."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def intercept_resend_qber_oracle() -> Fraction:
    """Exhaustive enumeration of 4 states (bit, basis) x 2 Eve bases x
    outcomes, with the receiver measuring in the sender's basis (a sifted
    position)."""
    err = Fraction(0)
    total = Fraction(0)
    for bit, basis in product((0, 1), repeat=2):
        for eve_basis in (0, 1):
            p_branch = Fraction(1, 4) * Fraction(1, 2)
            if eve_basis == basis:
                eve_outcomes = [(bit, Fraction(1))]
            else:
                eve_outcomes = [(0, Fraction(1, 2)), (1, Fraction(1, 2))]
            for eve_bit, p_eve in eve_outcomes:
                if eve_basis == basis:
                    rx_outcomes = [(eve_bit, Fraction(1))]
                else:
                    rx_outcomes = [(0, Fraction(1, 2)), (1, Fraction(1, 2))]
                for rx_bit, p_rx in rx_outcomes:
                    p = p_branch * p_eve * p_rx
                    total += p
                    if rx_bit != bit:
                        err += p
    return err / total


class TestInterceptResend:
    def test_oracle_is_exactly_one_quarter(self):
        assert intercept_resend_qber_oracle() == Fraction(1, 4)


class TestSift:
    def test_all_match_all_detected(self):
        bits = np.array([0, 1, 1, 0], dtype=np.uint8)
        bases = np.zeros(4, dtype=np.uint8)
        sa, sb = sift(bases, bases, bits, bits, np.ones(4, dtype=bool))
        assert np.array_equal(sa, bits) and np.array_equal(sb, bits)

    def test_no_match(self):
        a = np.zeros(5, dtype=np.uint8)
        b = np.ones(5, dtype=np.uint8)
        sa, sb = sift(a, b, a, a, np.ones(5, dtype=bool))
        assert len(sa) == 0 and len(sb) == 0

    def test_kept_fraction_binomial(self):
        rng = RandomStream(6, "sift")
        n = 10**5
        sa, _ = sift(rng.bits(n), rng.bits(n), rng.bits(n), rng.bits(n),
                     np.ones(n, dtype=bool))
        assert abs(len(sa) / n - 0.5) < 3 * math.sqrt(0.25 / n)

    def test_order_preserved(self):
        bases_a = np.array([0, 0, 1, 0], dtype=np.uint8)
        bases_b = np.array([0, 1, 1, 0], dtype=np.uint8)
        bits = np.array([1, 0, 1, 0], dtype=np.uint8)
        sa, _ = sift(bases_a, bases_b, bits, bits, np.ones(4, dtype=bool))
        assert np.array_equal(sa, [1, 1, 0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sift([0], [0, 1], [0], [0], [True])


class TestEstimateQber:
    def test_identical_keys(self):
        k = np.ones(100, dtype=np.uint8)
        qber, ra, rb = estimate_qber(k, k, 0.5, RandomStream(7, "est"))
        assert qber == 0.0
        assert len(ra) == 50 and np.array_equal(ra, rb)

    def test_complementary_keys(self):
        k = np.zeros(100, dtype=np.uint8)
        qber, _, _ = estimate_qber(k, 1 - k, 0.5, RandomStream(8, "est"))
        assert qber == 1.0

    def test_ten_percent_flips(self):
        rng = RandomStream(9, "est")
        n = 10**4
        a = rng.bits(n)
        b = a.copy()
        flips = rng.permutation(n)[: n // 10]
        b[flips] ^= 1
        qber, ra, rb = estimate_qber(a, b, 0.5, rng)
        sample = math.ceil(0.5 * n)
        assert abs(qber - 0.10) < 3 * math.sqrt(0.1 * 0.9 / sample)
        assert len(ra) == n - sample

    def test_disclosed_positions_removed(self):
        a = np.arange(10, dtype=np.uint8) % 2
        qber, ra, rb = estimate_qber(a, a, 0.3, RandomStream(10, "est"))
        assert len(ra) == 10 - math.ceil(3)
        assert np.array_equal(ra, rb)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            estimate_qber([], [], 0.5, RandomStream(1, "est"))


class TestReconcile:
    def test_zero_qber(self):
        k = np.ones(1000, dtype=np.uint8)
        corrected, leak = reconcile(k, k, 0.0)
        assert leak == 0 and np.array_equal(corrected, k)

    def test_leak_at_five_percent(self):
        # frozen oracle: ceil(1.16 * h2(0.05) * 1e4) = 3323
        k = np.zeros(10**4, dtype=np.uint8)
        _, leak = reconcile(k, k, 0.05)
        assert leak == 3323
        assert leak == math.ceil(1.16 * h2_oracle(0.05) * 10**4)

    def test_leak_at_eleven_percent(self):
        k = np.zeros(10**4, dtype=np.uint8)
        _, leak = reconcile(k, k, 0.11)
        assert leak == math.ceil(1.16 * h2_oracle(0.11) * 10**4) == 5800

    def test_keys_identical_after(self):
        rng = RandomStream(11, "rec")
        a, b = rng.bits(500), rng.bits(500)
        corrected, _ = reconcile(a, b, 0.1)
        assert np.array_equal(corrected, a)

    def test_rejects_half_qber(self):
        k = np.zeros(10, dtype=np.uint8)
        with pytest.raises(ValueError):
            reconcile(k, k, 0.5)

    def test_overflowing_leak_rejected(self):
        # 1e308 * h2(0.05) * 1e4 overflows to inf; ceil(inf) would raise OverflowError
        k = np.zeros(10**4, dtype=np.uint8)
        with pytest.raises(ValueError):
            reconcile(k, k, 0.05, f_ec=1e308)


class TestPrivacyAmplify:
    def test_no_compression_needed(self):
        k = RandomStream(12, "pa").bits(1000)
        out = privacy_amplify(k, 0.0, 0, RandomStream(13, "pa"), safety_margin_bits=0)
        assert len(out) == 1000

    def test_high_qber_aborts(self):
        # oracle: 1 - 2.16 * h2(0.25) < 0, and 0.25 > 0.11
        k = RandomStream(14, "pa").bits(1000)
        out = privacy_amplify(k, 0.25, 0, RandomStream(15, "pa"))
        assert len(out) == 0

    def test_chained_oracle_value(self):
        # len 1e4, qber 0.05, leak 3323, margin 100 -> 3713
        k = RandomStream(16, "pa").bits(10**4)
        out = privacy_amplify(k, 0.05, 3323, RandomStream(17, "pa"), safety_margin_bits=100)
        assert len(out) == 3713
        assert len(out) == math.floor(10**4 * (1 - h2_oracle(0.05))) - 3323 - 100

    def test_deterministic_given_stream(self):
        k = RandomStream(18, "pa").bits(2000)
        a = privacy_amplify(k, 0.02, 100, RandomStream(19, "pa"))
        b = privacy_amplify(k, 0.02, 100, RandomStream(19, "pa"))
        assert np.array_equal(a, b)

    def test_monotone_in_qber(self):
        k = RandomStream(20, "pa").bits(10**4)
        lengths = []
        for i in range(13):
            q = i / 100.0
            _, leak = reconcile(k, k, q)
            out = privacy_amplify(k, q, leak, RandomStream(21, "pa"), safety_margin_bits=100)
            lengths.append(len(out))
        assert all(b <= a for a, b in zip(lengths, lengths[1:]))

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            privacy_amplify(np.empty(0, dtype=np.uint8), 0.0, 0, RandomStream(1, "pa"))


class TestBb84Session:
    def test_ideal_session(self, ideal_link, ideal_channel):
        n = 10**4
        rec = run_bb84_session(ideal_link, n, False, RandomStream(22, "s"),
                               ideal_channel, ProtocolParams())
        assert not rec.aborted
        assert rec.qber == 0.0
        assert abs(rec.sifted_len - n / 2) < 3 * math.sqrt(n * 0.25)
        assert len(rec.final_key) > 0

    def test_eve_raises_qber_to_quarter(self, ideal_link, ideal_channel):
        n = 10**5
        rec = run_bb84_session(ideal_link, n, True,
                               RandomStream(23, "s"), ideal_channel, ProtocolParams())
        sample = math.ceil(0.5 * rec.sifted_len)
        assert abs(rec.qber - 0.25) < 3 * math.sqrt(0.25 * 0.75 / sample)
        assert rec.aborted and rec.abort_reason is SessionAbort.QBER_EXCEEDS_THRESHOLD

    def test_insufficient_detections(self, ideal_link, ideal_channel):
        rec = run_bb84_session(ideal_link, 10, False, RandomStream(24, "s"),
                               ideal_channel, ProtocolParams(min_sift_len=1000))
        assert rec.aborted and rec.abort_reason is SessionAbort.INSUFFICIENT_DETECTIONS
        assert len(rec.final_key) == 0

    def test_intrinsic_error_appears_in_qber(self, ideal_link):
        channel = ChannelParams(atm_loss_db_per_km=0.0, fixed_system_loss_db=0.0,
                                noise_prob=0.0 + 0.0,
                                detector_efficiency=1.0, intrinsic_error_prob=0.05)
        rec = run_bb84_session(ideal_link, 10**5, False, RandomStream(25, "s"),
                               channel, ProtocolParams())
        sample = math.ceil(0.5 * rec.sifted_len)
        assert abs(rec.qber - 0.05) < 3 * math.sqrt(0.05 * 0.95 / sample)
        assert not rec.aborted

    def test_daylight_background_raises_qber(self, ideal_link):
        # 30 dB of loss with daylight background: noise-only clicks carry a
        # uniform bit, so QBER converges to 0.5 * P(noise only) / P(click)
        channel = ChannelParams(atm_loss_db_per_km=0.0, fixed_system_loss_db=30.0,
                                noise_prob=1e-6 + 1e-4,
                                detector_efficiency=1.0, intrinsic_error_prob=0.0)
        link = OpticalLink(("a", "b"), 0.0, 30.0, 0.0, "active")
        eta = 10 ** -3.0
        p_noise = channel.noise_prob
        p_click = 1 - (1 - eta) * (1 - p_noise)
        expect = 0.5 * p_noise * (1 - eta) / p_click
        rec = run_bb84_session(link, 2 * 10**6, False, RandomStream(47, "s"),
                               channel, ProtocolParams(min_sift_len=500))
        sample = math.ceil(0.5 * rec.sifted_len)
        sigma = math.sqrt(expect * (1 - expect) / sample)
        assert abs(rec.qber - expect) < 4 * sigma
        assert not rec.aborted

    def test_high_noise_aborts(self, ideal_link):
        channel = ChannelParams(atm_loss_db_per_km=0.0, fixed_system_loss_db=0.0,
                                noise_prob=0.0 + 0.0,
                                detector_efficiency=1.0, intrinsic_error_prob=0.2)
        rec = run_bb84_session(ideal_link, 2 * 10**4, False, RandomStream(26, "s"),
                               channel, ProtocolParams())
        assert rec.aborted and len(rec.final_key) == 0

    def test_replay_determinism(self, ideal_link, ideal_channel):
        a = run_bb84_session(ideal_link, 5000, False, RandomStream(27, "same"),
                             ideal_channel, ProtocolParams())
        b = run_bb84_session(ideal_link, 5000, False, RandomStream(27, "same"),
                             ideal_channel, ProtocolParams())
        assert a.qber == b.qber and a.sifted_len == b.sifted_len
        assert np.array_equal(a.final_key, b.final_key)

    def test_inactive_link_rejected(self, ideal_channel):
        link = OpticalLink(("a", "b"), 0.0, 0.0, 0.0, "torn_down")
        with pytest.raises(ValueError):
            run_bb84_session(link, 100, False, RandomStream(28, "s"),
                             ideal_channel, ProtocolParams())

    @pytest.mark.parametrize("noise_prob", [1e-6, 0.0])
    def test_underflowed_link_aborts_after_one_draw(self, noise_prob):
        # 4000 dB: the transmittance underflows to 0.0, so at most noise clicks
        link = OpticalLink(("a", "b"), 0.0, 4000.0, 0.0, "active")
        stream = CountingStream(50, "dark")
        rec = run_bb84_session(link, 10**4, False, stream,
                               ChannelParams(noise_prob=noise_prob))
        assert rec.aborted and rec.abort_reason is SessionAbort.INSUFFICIENT_DETECTIONS
        assert stream.position == 1


class TestClickModel:
    def test_underflowed_signal_leaves_fair_noise_clicks(self):
        channel = ChannelParams(noise_prob=1e-6 + 1e-4)
        assert transmittance(4000.0) == 0.0
        p_click, q = click_model(4000.0, False, channel)
        assert p_click == pytest.approx(channel.noise_prob) and q == pytest.approx(0.5)

    @pytest.mark.parametrize("loss_db", [4000.0, 200.0])
    def test_nothing_clicks_without_signal_or_noise(self, loss_db):
        # at 200 dB eta = 1e-20 is positive, but 1 - eta rounds to 1
        channel = ChannelParams(noise_prob=0.0)
        assert click_model(loss_db, False, channel) == (0.0, 0.5)


class TestPlugPlaySession:
    def test_ideal_session(self, ideal_link, ideal_channel):
        n = 10**4
        rec = run_plugplay_session(ideal_link, n, False, RandomStream(29, "s"),
                                   ideal_channel, ProtocolParams())
        assert not rec.aborted and rec.qber == 0.0
        assert abs(rec.sifted_len - n / 2) < 3 * math.sqrt(n * 0.25)

    def test_eve_on_return_leg(self, ideal_link, ideal_channel):
        rec = run_plugplay_session(ideal_link, 10**5, True,
                                   RandomStream(30, "s"), ideal_channel, ProtocolParams())
        sample = math.ceil(0.5 * rec.sifted_len)
        assert abs(rec.qber - 0.25) < 3 * math.sqrt(0.25 * 0.75 / sample)
        assert rec.aborted


class TestSessionCost:
    """A session draws its counts, not its key bits: its stream advances by
    one draw per count and by the m final bits, whatever ``n_pulses`` is."""

    @pytest.mark.parametrize("errors", ["none", "some"])
    def test_successful_session_draws_three_counts_and_the_key(self, ideal_link, ideal_channel,
                                                               errors):
        # the sample's error count is drawn even when there are no errors
        channel = ideal_channel if errors == "none" else ChannelParams()
        for n in (10**4, 10**5, 10**7):
            stream = CountingStream(40, "cost")
            rec = run_bb84_session(ideal_link, n, False, stream, channel)
            assert not rec.aborted and (rec.qber == 0.0) == (errors == "none")
            assert stream.position == 3 + len(rec.final_key)

    def test_aborted_sessions_count_only_the_draws_made(self, ideal_link, protocol):
        cases = [
            # too few sifted bits: the sifted length alone
            (10, False, protocol, SessionAbort.INSUFFICIENT_DETECTIONS, 1),
            # qber over the threshold: the three counts
            (10**4, True, protocol,
             SessionAbort.QBER_EXCEEDS_THRESHOLD, 3),
            # qber under a lax threshold, but the leakage eats the key: the three counts
            (10**4, True, ProtocolParams(qber_abort=0.4),
             SessionAbort.INSUFFICIENT_DETECTIONS, 3),
        ]
        for n, eve, params, reason, draws in cases:
            stream = CountingStream(42, "cost")
            rec = run_bb84_session(ideal_link, n, eve, stream, ChannelParams(), params)
            assert rec.abort_reason is reason
            assert stream.position == draws

    def test_two_to_the_forty_pulses(self):
        # 70 dB with a noiseless, perfect detector: a pulse is sifted with
        # p = 1e-7 / 2, so k ~ Binomial(2**40, p) with mean about 55,000
        channel = ChannelParams(noise_prob=0.0, detector_efficiency=1.0)
        link = OpticalLink(("a", "b"), 0.0, 70.0, 0.0, "active")
        n, p, runs = 2**40, transmittance(70.0) / 2, 30
        lengths = []
        for seed in range(runs):
            stream = CountingStream(seed, "2**40")
            rec = run_bb84_session(link, n, False, stream, channel)
            assert not rec.aborted and stream.position == 3 + len(rec.final_key)
            lengths.append(rec.sifted_len)
        mean_sd = math.sqrt(n * p * (1 - p) / runs)
        assert abs(sum(lengths) / runs - n * p) < 4 * mean_sd

    def test_pulses_beyond_numpys_binomial_are_named(self, ideal_link):
        stream = CountingStream(3, "huge")
        with pytest.raises(ValueError, match=r"\[1, 2\*\*63 - 1\]"):
            run_bb84_session(ideal_link, 2**63, False, stream)
        assert stream.position == 0
        # the limit itself is drawn: nothing clicks over 4000 dB without noise
        link = OpticalLink(("a", "b"), 0.0, 4000.0, 0.0, "active")
        rec = run_bb84_session(link, 2**63 - 1, False, stream,
                               ChannelParams(noise_prob=0.0))
        assert rec.n_pulses == 2**63 - 1 and rec.sifted_len == 0 and stream.position == 1

    def test_sifted_length_beyond_the_sample_draw_is_named(self, ideal_link, ideal_channel):
        # lossless and error-free: k ~ Binomial(4e9, 1/2), about 2e9 correct
        # bits, beyond numpy's hypergeometric; it raises before any key is drawn
        stream = CountingStream(3, "huge")
        with pytest.raises(ValueError, match=r"sifted key too long .* below 10\*\*9"):
            run_bb84_session(ideal_link, 4 * 10**9, False, stream, ideal_channel)
        assert stream.position == 2

    def test_sessions_never_touch_key_bits(self, monkeypatch, ideal_link):
        def forbidden(*args, **kwargs):
            raise AssertionError("a session ran the bit-level pipeline")

        for name in ("sift", "estimate_qber", "reconcile", "privacy_amplify", "toeplitz_hash"):
            monkeypatch.setattr(qkd, name, forbidden)
        for name in ("uniforms", "uniform", "bit", "permutation"):
            monkeypatch.setattr(RandomStream, name, forbidden)
        for run in (run_bb84_session, run_plugplay_session):
            for eve in (False, True):
                rec = run(ideal_link, 10**4, eve, RandomStream(43, "no-bits"), ChannelParams())
                assert rec.aborted == eve


class TestRecordsAndConfigs:
    def test_session_record_invariants(self):
        with pytest.raises(ValueError):
            SessionRecord(10, 5, 0.0, 0, np.empty(0, dtype=np.uint8),
                          abort_reason=SessionAbort.NONE)
        with pytest.raises(ValueError):
            SessionRecord(10, 5, 0.0, 0, np.ones(3, dtype=np.uint8),
                          abort_reason=SessionAbort.QBER_EXCEEDS_THRESHOLD)

    def test_final_key_read_only(self, ideal_link, ideal_channel):
        rec = run_bb84_session(ideal_link, 5000, False, RandomStream(33, "s"),
                               ideal_channel, ProtocolParams())
        with pytest.raises(ValueError):
            rec.final_key[0] = 1

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["f_ec"])
    def test_nonfinite_configs_rejected(self, field, value):
        with pytest.raises(ValueError):
            ProtocolParams(**{field: value})

    def test_f_ec_bounded_so_the_leakage_stays_finite(self):
        # every sifted length numpy can draw is below 2**63, and h2 <= 1
        ProtocolParams(f_ec=MAX_F_EC)
        assert math.isfinite(MAX_F_EC * binary_entropy(0.5) * (2**63 - 1))
        assert reconciliation_leak(2**62, 0.11, MAX_F_EC) > 0
        for value in (math.nextafter(MAX_F_EC, math.inf), 1e308):
            with pytest.raises(ValueError, match="leakage of any sifted key is finite"):
                ProtocolParams(f_ec=value)

    def test_entropy_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)
