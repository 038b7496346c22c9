"""The sifted-click sampler against the dense per-pulse rounds.

Pulses are i.i.d., so in both paths a session's sifted length L and error
count E are binomial over its n pulses: a pulse is sifted with probability
p_s = p_click / 2 and is a sifted error with probability p_s * q, where
p_click = 1 - (1 - eta)(1 - p_noise) and a click reads the wrong bit with
q = (eta * e_sig + (1 - eta) * p_noise / 2) / p_click. Over many seeds the
sample mean and variance of L and E of each path must fall in 4-sigma
windows of those laws.
"""
import math

import numpy as np
import pytest

from soqn.channel import ChannelParams, transmittance
from soqn.network import OpticalLink
from soqn.qkd import (EveConfig, ProtocolParams, SessionAbort, _sifted_keys,
                      run_bb84_session, run_plugplay_session)
from soqn.rng import RandomStream

from dense_rounds import dense_sifted_keys

N_PULSES = 4000
SEEDS = 400
LOSS_DB = 3.0
WINDOW = 4.0

CHANNELS = {
    "quiet": ChannelParams(),
    "noisy": ChannelParams(background_prob=0.05, intrinsic_error_prob=0.03),
}
PATHS = {"sampler": _sifted_keys, "dense": dense_sifted_keys}


def model_probabilities(channel, mode):
    """(p_s, p_e): per-pulse probabilities of a sifted pulse and of a sifted error."""
    eta = transmittance(LOSS_DB) * channel.detector_efficiency
    p_noise = channel.noise_prob
    p_click = 1.0 - (1.0 - eta) * (1.0 - p_noise)
    e_sig = channel.intrinsic_error_prob
    if mode == "intercept_resend":
        # the resent photon is in the sender's basis half of the time; otherwise a fair coin
        e_sig = e_sig / 2 + 0.25
    p_s = p_click / 2
    return p_s, (eta * e_sig + (1.0 - eta) * p_noise / 2) / 2


def assert_binomial_moments(samples, n, p, what):
    """Sample mean and variance of ``samples`` against B(n, p)."""
    s = len(samples)
    var = n * p * (1 - p)
    excess_kurtosis = (1 - 6 * p * (1 - p)) / var
    mean_sd = math.sqrt(var / s)
    var_sd = var * math.sqrt(2 / (s - 1) + excess_kurtosis / s)
    mean = float(np.mean(samples))
    sample_var = float(np.var(samples, ddof=1))
    assert abs(mean - n * p) < WINDOW * mean_sd, (what, mean, n * p, mean_sd)
    assert abs(sample_var - var) < WINDOW * var_sd, (what, sample_var, var, var_sd)


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("channel_name", sorted(CHANNELS))
@pytest.mark.parametrize("mode", ["none", "intercept_resend"])
def test_sifted_length_and_errors_match_the_model(path, channel_name, mode):
    channel = CHANNELS[channel_name]
    lengths, errors, ones = [], [], 0
    for seed in range(SEEDS):
        a, b = PATHS[path](N_PULSES, LOSS_DB, EveConfig(mode), channel,
                           RandomStream(seed, f"sampler-{channel_name}-{mode}"))
        assert a.dtype == b.dtype == np.uint8 and len(a) == len(b)
        lengths.append(len(a))
        errors.append(int(np.count_nonzero(a != b)))
        ones += int(np.count_nonzero(a))
    p_s, p_e = model_probabilities(channel, mode)
    assert_binomial_moments(lengths, N_PULSES, p_s, "sifted length")
    assert_binomial_moments(errors, N_PULSES, p_e, "error count")
    # the sender's sifted bits are fair: B(total sifted, 1/2)
    total = sum(lengths)
    assert abs(ones - total / 2) < WINDOW * math.sqrt(total / 4)


@pytest.mark.parametrize("mode", ["none", "intercept_resend"])
def test_same_seed_and_label_replay(mode):
    channel = CHANNELS["noisy"]
    first, second = RandomStream(5, "replay"), RandomStream(5, "replay")
    a1, b1 = _sifted_keys(N_PULSES, LOSS_DB, EveConfig(mode), channel, first)
    a2, b2 = _sifted_keys(N_PULSES, LOSS_DB, EveConfig(mode), channel, second)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    # one binomial draw, then one bit and one uniform per sifted pulse
    assert first.position == second.position == 1 + 2 * len(a1)


def test_no_sifted_click_aborts():
    # 200 dB: eta = 5e-21, so none of 10 pulses clicks but a dark count
    # (p_s about 5e-7 per pulse)
    link = OpticalLink(("a", "b"), 0.0, 200.0, 0.0, "active")
    protocol = ProtocolParams(min_sift_len=1)
    for run in (run_bb84_session, run_plugplay_session):
        stream = RandomStream(1, "dark")
        rec = run(link, 10, EveConfig(), stream, ChannelParams(), protocol)
        assert stream.position == 1  # the binomial draw alone
        assert rec.sifted_len == 0
        assert rec.aborted and rec.abort_reason is SessionAbort.INSUFFICIENT_DETECTIONS
