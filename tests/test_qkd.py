import math
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from soqn.channel import ChannelParams
from soqn.network import OpticalLink
from soqn.qkd import (EveConfig, ProtocolParams, SessionAbort, SessionRecord, binary_entropy,
                      estimate_qber, privacy_amplify, reconcile, run_bb84_session,
                      run_plugplay_session, sift, trojan_monitor)
from soqn.rng import RandomStream


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


class TestTrojanMonitor:
    def test_exact_match(self):
        assert trojan_monitor(1.0, 1.0, 0.25) is False

    def test_double_intensity(self):
        assert trojan_monitor(2.0, 1.0, 0.25) is True

    def test_small_deviation(self):
        assert trojan_monitor(1.1, 1.0, 0.25) is False

    def test_boundary_not_alarmed(self):
        assert trojan_monitor(1.25, 1.0, 0.25) is False

    def test_rejects_nonpositive_expected(self):
        with pytest.raises(ValueError):
            trojan_monitor(1.0, 0.0, 0.25)

    def test_nan_reading_alarms(self):
        assert trojan_monitor(math.nan, 1.0, 0.25) is True


class TestBb84Session:
    def test_ideal_session(self, ideal_link, ideal_channel):
        n = 10**4
        rec = run_bb84_session(ideal_link, n, EveConfig(), RandomStream(22, "s"),
                               ideal_channel, ProtocolParams())
        assert not rec.aborted
        assert rec.qber == 0.0
        assert abs(rec.sifted_len - n / 2) < 3 * math.sqrt(n * 0.25)
        assert len(rec.final_key) > 0

    def test_eve_raises_qber_to_quarter(self, ideal_link, ideal_channel):
        n = 10**5
        rec = run_bb84_session(ideal_link, n, EveConfig("intercept_resend"),
                               RandomStream(23, "s"), ideal_channel, ProtocolParams())
        sample = math.ceil(0.5 * rec.sifted_len)
        assert abs(rec.qber - 0.25) < 3 * math.sqrt(0.25 * 0.75 / sample)
        assert rec.aborted and rec.abort_reason is SessionAbort.QBER_EXCEEDS_THRESHOLD

    def test_insufficient_detections(self, ideal_link, ideal_channel):
        rec = run_bb84_session(ideal_link, 10, EveConfig(), RandomStream(24, "s"),
                               ideal_channel, ProtocolParams(min_sift_len=1000))
        assert rec.aborted and rec.abort_reason is SessionAbort.INSUFFICIENT_DETECTIONS
        assert len(rec.final_key) == 0

    def test_intrinsic_error_appears_in_qber(self, ideal_link):
        channel = ChannelParams(atm_loss_db_per_km=0.0, fixed_system_loss_db=0.0,
                                dark_count_prob=0.0, background_prob=0.0,
                                detector_efficiency=1.0, intrinsic_error_prob=0.05)
        rec = run_bb84_session(ideal_link, 10**5, EveConfig(), RandomStream(25, "s"),
                               channel, ProtocolParams())
        sample = math.ceil(0.5 * rec.sifted_len)
        assert abs(rec.qber - 0.05) < 3 * math.sqrt(0.05 * 0.95 / sample)
        assert not rec.aborted

    def test_daylight_background_raises_qber(self, ideal_link):
        # 30 dB of loss with daylight background: noise-only clicks carry a
        # uniform bit, so QBER converges to 0.5 * P(noise only) / P(click)
        channel = ChannelParams(atm_loss_db_per_km=0.0, fixed_system_loss_db=30.0,
                                dark_count_prob=1e-6, background_prob=1e-4,
                                detector_efficiency=1.0, intrinsic_error_prob=0.0)
        link = OpticalLink(("a", "b"), 0.0, 30.0, 0.0, "active")
        eta = 10 ** -3.0
        p_noise = channel.noise_prob
        p_click = 1 - (1 - eta) * (1 - p_noise)
        expect = 0.5 * p_noise * (1 - eta) / p_click
        rec = run_bb84_session(link, 2 * 10**6, EveConfig(), RandomStream(47, "s"),
                               channel, ProtocolParams(min_sift_len=500))
        sample = math.ceil(0.5 * rec.sifted_len)
        sigma = math.sqrt(expect * (1 - expect) / sample)
        assert abs(rec.qber - expect) < 4 * sigma
        assert not rec.aborted

    def test_high_noise_aborts(self, ideal_link):
        channel = ChannelParams(atm_loss_db_per_km=0.0, fixed_system_loss_db=0.0,
                                dark_count_prob=0.0, background_prob=0.0,
                                detector_efficiency=1.0, intrinsic_error_prob=0.2)
        rec = run_bb84_session(ideal_link, 2 * 10**4, EveConfig(), RandomStream(26, "s"),
                               channel, ProtocolParams())
        assert rec.aborted and len(rec.final_key) == 0

    def test_replay_determinism(self, ideal_link, ideal_channel):
        a = run_bb84_session(ideal_link, 5000, EveConfig(), RandomStream(27, "same"),
                             ideal_channel, ProtocolParams())
        b = run_bb84_session(ideal_link, 5000, EveConfig(), RandomStream(27, "same"),
                             ideal_channel, ProtocolParams())
        assert a.qber == b.qber and a.sifted_len == b.sifted_len
        assert np.array_equal(a.final_key, b.final_key)

    def test_inactive_link_rejected(self, ideal_channel):
        link = OpticalLink(("a", "b"), 0.0, 0.0, 0.0, "torn_down")
        with pytest.raises(ValueError):
            run_bb84_session(link, 100, EveConfig(), RandomStream(28, "s"),
                             ideal_channel, ProtocolParams())


class TestPlugPlaySession:
    def test_ideal_session(self, ideal_link, ideal_channel):
        n = 10**4
        rec = run_plugplay_session(ideal_link, n, EveConfig(), RandomStream(29, "s"),
                                   ideal_channel, ProtocolParams())
        assert not rec.aborted and rec.qber == 0.0
        assert abs(rec.sifted_len - n / 2) < 3 * math.sqrt(n * 0.25)

    def test_eve_on_return_leg(self, ideal_link, ideal_channel):
        rec = run_plugplay_session(ideal_link, 10**5, EveConfig("intercept_resend"),
                                   RandomStream(30, "s"), ideal_channel, ProtocolParams())
        sample = math.ceil(0.5 * rec.sifted_len)
        assert abs(rec.qber - 0.25) < 3 * math.sqrt(0.25 * 0.75 / sample)
        assert rec.aborted

    def test_trojan_probe_alarms(self, ideal_link, ideal_channel, protocol):
        expected = protocol.strong_pulse_intensity / 2.0
        eve = EveConfig("trojan_probe", probe_intensity=2.0 * expected)
        rec = run_plugplay_session(ideal_link, 1000, eve, RandomStream(31, "s"),
                                   ideal_channel, protocol)
        assert rec.aborted and rec.abort_reason is SessionAbort.TROJAN_ALARM

    def test_probe_inside_window_passes(self, ideal_link, ideal_channel, protocol):
        expected = protocol.strong_pulse_intensity / 2.0
        eve = EveConfig("trojan_probe", probe_intensity=1.1 * expected)
        rec = run_plugplay_session(ideal_link, 10**4, eve, RandomStream(32, "s"),
                                   ideal_channel, protocol)
        assert rec.abort_reason is not SessionAbort.TROJAN_ALARM

    def test_nan_probe_alarms(self, ideal_link, ideal_channel, protocol):
        # EveConfig rejects a NaN probe; a NaN reading that arrives anyway
        # must fail closed, not pass the monitor
        eve = SimpleNamespace(mode="trojan_probe", probe_intensity=math.nan)
        rec = run_plugplay_session(ideal_link, 10**4, eve, RandomStream(49, "s"),
                                   ideal_channel, protocol)
        assert rec.aborted and rec.abort_reason is SessionAbort.TROJAN_ALARM

    def test_low_probe_with_hot_target_does_not_crash(self, ideal_link, ideal_channel):
        # probe below expected but inside the window: the session proceeds
        protocol = ProtocolParams()
        expected = protocol.strong_pulse_intensity / 2.0
        eve = EveConfig("trojan_probe", probe_intensity=0.76 * expected)
        rec = run_plugplay_session(ideal_link, 10**4, eve, RandomStream(48, "s"),
                                   ideal_channel, protocol)
        assert rec.abort_reason is not SessionAbort.TROJAN_ALARM
        assert not rec.aborted


class TestRecordsAndConfigs:
    def test_session_record_invariants(self):
        with pytest.raises(ValueError):
            SessionRecord(10, 5, 0.0, 0, np.empty(0, dtype=np.uint8),
                          aborted=False, abort_reason=SessionAbort.NONE)
        with pytest.raises(ValueError):
            SessionRecord(10, 5, 0.0, 0, np.ones(3, dtype=np.uint8),
                          aborted=True, abort_reason=SessionAbort.QBER_EXCEEDS_THRESHOLD)

    def test_final_key_read_only(self, ideal_link, ideal_channel):
        rec = run_bb84_session(ideal_link, 5000, EveConfig(), RandomStream(33, "s"),
                               ideal_channel, ProtocolParams())
        with pytest.raises(ValueError):
            rec.final_key[0] = 1

    def test_eve_config_validation(self):
        with pytest.raises(ValueError):
            EveConfig("trojan_probe", probe_intensity=0.0)
        with pytest.raises(ValueError):
            EveConfig("other")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["probe_intensity", "f_ec", "strong_pulse_intensity"])
    def test_nonfinite_configs_rejected(self, field, value):
        if field == "probe_intensity":
            make = lambda v: EveConfig("trojan_probe", probe_intensity=v)
        else:
            make = lambda v: ProtocolParams(**{field: v})
        with pytest.raises(ValueError):
            make(value)

    def test_entropy_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)
