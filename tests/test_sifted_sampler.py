"""The sessions' samplers against their references.

First the sifted-bit sampler of the bit-level oracle against the dense
per-pulse rounds. Pulses are i.i.d., so in both paths a session's sifted length L and error
count E are binomial over its n pulses: a pulse is sifted with probability
p_s = p_click / 2 and is a sifted error with probability p_s * q, where
p_click = 1 - (1 - eta)(1 - p_noise) and a click reads the wrong bit with
q = (eta * e_sig + (1 - eta) * p_noise / 2) / p_click. Over many seeds the
sample mean and variance of L and E of each path must fall in 4-sigma
windows of those laws.

Then the sessions' count sampler against that bit-level oracle (see the
second half of this file).
"""
import math

import numpy as np
import pytest

from soqn.channel import ChannelParams, transmittance
from soqn.network import OpticalLink
from soqn.qkd import (ProtocolParams, SessionAbort, _session, click_model,
                      run_bb84_session, run_plugplay_session)
from soqn.rng import RandomStream

from dense_rounds import bit_level_session, dense_sifted_keys, sifted_keys

N_PULSES = 4000
SEEDS = 400
LOSS_DB = 3.0
WINDOW = 4.0

CHANNELS = {
    "quiet": ChannelParams(),
    "noisy": ChannelParams(background_prob=0.05, intrinsic_error_prob=0.03),
}
PATHS = {"sampler": sifted_keys, "dense": dense_sifted_keys}


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
        a, b = PATHS[path](N_PULSES, LOSS_DB, mode == "intercept_resend", channel,
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
    a1, b1 = sifted_keys(N_PULSES, LOSS_DB, mode == "intercept_resend", channel, first)
    a2, b2 = sifted_keys(N_PULSES, LOSS_DB, mode == "intercept_resend", channel, second)
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
        rec = run(link, 10, False, stream, ChannelParams(), protocol)
        assert stream.position == 1  # the binomial draw alone
        assert rec.sifted_len == 0
        assert rec.aborted and rec.abort_reason is SessionAbort.INSUFFICIENT_DETECTIONS


# The count sampler (``qkd._session``) against the bit-level oracle
# (``dense_rounds.bit_level_session``).
#
# Both paths draw the sifted length k first, from the same stream, so they
# agree on k seed by seed. Given k (at or above the floor), s = ceil(k / 2)
# bits are disclosed and their error count e is Binomial(s, q) in both: in
# the oracle the sample is s of k i.i.d. Bernoulli(q) flips, in the sampler
# e ~ Hypergeometric(E, k - E, s) with E ~ Binomial(k, q). Everything else
# in the record is a function of (k, e), given here by ``expected_outcome``.
# So for each seed the test enumerates the exact law of (reason, leak, m)
# given k, and checks the totals over all seeds in 4-sigma windows of those
# laws: the error count, the number of sessions per abort reason, and the
# leaked and final bits. The protocols put every outcome within reach: k
# below the floor about a quarter of the time, and without Eve both a qber
# abort and a key eaten by the leakage; with Eve, qber hovers at the abort
# threshold and every session that clears it distils nothing.
COUNT_CHANNEL = CHANNELS["noisy"]
COUNT_SEEDS = 300
COUNT_PROTOCOLS = {
    "none": ProtocolParams(min_sift_len=560, qber_abort=0.11, safety_margin_bits=0),
    "intercept_resend": ProtocolParams(min_sift_len=560, qber_abort=0.3, safety_margin_bits=0),
}
SESSION_PATHS = {"counts": _session, "bit_level": bit_level_session}


def h2(p):
    return 0.0 if p <= 0.0 or p >= 1.0 else -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def expected_outcome(k, e, protocol):
    """(reason, leak, m) of a session with k sifted bits, e of the s
    disclosed ones wrong, by the abort rules restated by hand."""
    if k < max(protocol.min_sift_len, 2):
        return SessionAbort.INSUFFICIENT_DETECTIONS, 0, 0
    s = math.ceil(protocol.sample_fraction * k)
    qber = e / s
    if qber > protocol.qber_abort:
        return SessionAbort.QBER_EXCEEDS_THRESHOLD, 0, 0
    n = k - s
    if n == 0:
        return SessionAbort.INSUFFICIENT_DETECTIONS, 0, 0
    leak = math.ceil(protocol.f_ec * h2(qber) * n)
    m = math.floor(n * (1 - h2(qber)) - leak - protocol.safety_margin_bits)
    if m <= 0:
        return SessionAbort.INSUFFICIENT_DETECTIONS, 0, 0
    return SessionAbort.NONE, leak, m


def binomial_pmf(n, p):
    logs = [math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * math.log(p) + (n - i) * math.log1p(-p) for i in range(n + 1)]
    return [math.exp(v) for v in logs]


class Tally:
    """Sums of independent terms with their exact means and variances."""

    def __init__(self):
        self.observed, self.mean, self.var = {}, {}, {}

    def add(self, name, observed, values, probs):
        mean = sum(p * v for p, v in zip(probs, values))
        var = sum(p * (v - mean) ** 2 for p, v in zip(probs, values))
        self.observed[name] = self.observed.get(name, 0) + observed
        self.mean[name] = self.mean.get(name, 0.0) + mean
        self.var[name] = self.var.get(name, 0.0) + var

    def assert_within(self, window):
        for name, observed in self.observed.items():
            sd = math.sqrt(self.var[name])
            assert abs(observed - self.mean[name]) <= window * sd, (
                name, observed, self.mean[name], sd)


def record_e(rec, protocol):
    """The disclosed error count behind a record's qber."""
    s = math.ceil(protocol.sample_fraction * rec.sifted_len)
    e = round(rec.qber * s)
    assert e / s == rec.qber
    return e


@pytest.mark.parametrize("path", sorted(SESSION_PATHS))
@pytest.mark.parametrize("mode", sorted(COUNT_PROTOCOLS))
def test_session_counts_match_the_oracle_law(path, mode):
    protocol = COUNT_PROTOCOLS[mode]
    eve = mode == "intercept_resend"
    p_click, q = click_model(LOSS_DB, eve, COUNT_CHANNEL)
    tally, lengths, reasons = Tally(), [], set()
    for seed in range(COUNT_SEEDS):
        rec = SESSION_PATHS[path](N_PULSES, LOSS_DB, eve, COUNT_CHANNEL,
                                  RandomStream(seed, f"counts-{mode}"), protocol)
        k = rec.sifted_len
        lengths.append(k)
        reasons.add(rec.abort_reason)
        if k < protocol.min_sift_len:
            assert rec.abort_reason is SessionAbort.INSUFFICIENT_DETECTIONS
            continue
        e = record_e(rec, protocol)
        reason, leak, m = expected_outcome(k, e, protocol)
        assert (rec.abort_reason, rec.reconciliation_leak_bits, len(rec.final_key)) == (reason, leak, m)
        # the law of (e, reason, leak, m) given k
        s = math.ceil(protocol.sample_fraction * k)
        pmf = binomial_pmf(s, q)
        outcomes = [expected_outcome(k, i, protocol) for i in range(s + 1)]
        tally.add("e", e, range(s + 1), pmf)
        for r in SessionAbort:
            tally.add(r.value, reason is r, [o[0] is r for o in outcomes], pmf)
        tally.add("leak", leak, [o[1] for o in outcomes], pmf)
        tally.add("m", m, [o[2] for o in outcomes], pmf)
    assert_binomial_moments(lengths, N_PULSES, p_click / 2, "sifted length")
    tally.assert_within(WINDOW)
    want = {SessionAbort.INSUFFICIENT_DETECTIONS, SessionAbort.QBER_EXCEEDS_THRESHOLD}
    assert reasons == (want | {SessionAbort.NONE} if mode == "none" else want)


@pytest.mark.parametrize("mode", sorted(COUNT_PROTOCOLS))
def test_count_sampler_and_oracle_share_the_sifted_length(mode):
    protocol = COUNT_PROTOCOLS[mode]
    for seed in range(50):
        recs = [run(N_PULSES, LOSS_DB, mode == "intercept_resend", COUNT_CHANNEL,
                    RandomStream(seed, "shared-k"), protocol) for run in SESSION_PATHS.values()]
        assert recs[0].sifted_len == recs[1].sifted_len


def test_nothing_left_after_the_sample_aborts():
    # with sample_fraction 0.9 every k <= 9 discloses all of its bits
    protocol = ProtocolParams(min_sift_len=2, sample_fraction=0.9, safety_margin_bits=0)
    channel = CHANNELS["quiet"]
    seen = set()
    for seed in range(40):
        recs = [run(12, 0.0, False, channel, RandomStream(seed, "tiny"), protocol)
                for run in SESSION_PATHS.values()]
        k = recs[0].sifted_len
        for rec in recs:
            assert rec.sifted_len == k
            if 2 <= k <= 9 and not rec.qber:
                assert rec.abort_reason is SessionAbort.INSUFFICIENT_DETECTIONS
                seen.add(k)
    assert seen
