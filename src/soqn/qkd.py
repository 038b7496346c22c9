"""QKD sessions over an acquired optical link.

Two protocol flavors share one prepare-measure core: four-state BB84 between
peers, and a polarization plug-and-play variant between a server (measuring
party) and a client (encoding party) where only the returned single-photon
leg sees channel statistics. A session samples its sifted clicks directly;
post-processing is sampled error estimation, modeled reconciliation with
entropy-based leakage accounting, and Toeplitz-hash privacy amplification.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._kernels import toeplitz_hash
from ._kernels import transmit_pulses  # unused here; perfbench/tracing.py wraps qkd.transmit_pulses
from .channel import ChannelParams, transmittance
from .rng import RandomStream


class SessionAbort(str, Enum):
    NONE = "none"
    INSUFFICIENT_DETECTIONS = "insufficient_detections"
    QBER_EXCEEDS_THRESHOLD = "qber_exceeds_threshold"
    TROJAN_ALARM = "trojan_alarm"


@dataclass(frozen=True)
class EveConfig:
    mode: str = "none"  # none | intercept_resend | trojan_probe
    probe_intensity: float = 0.0

    def __post_init__(self):
        if self.mode not in ("none", "intercept_resend", "trojan_probe"):
            raise ValueError(f"unknown eve mode: {self.mode}")
        if not math.isfinite(self.probe_intensity):
            raise ValueError("probe_intensity must be finite")
        if self.mode == "trojan_probe" and self.probe_intensity <= 0:
            raise ValueError("trojan_probe requires probe_intensity > 0")


EVE_OFF = EveConfig()


@dataclass(frozen=True)
class ProtocolParams:
    min_sift_len: int = 1000
    sample_fraction: float = 0.5
    qber_abort: float = 0.11
    f_ec: float = 1.16
    safety_margin_bits: int = 100
    # API-only: the scenario language cannot set up a trojan_probe EveConfig.
    trojan_tolerance: float = 0.25
    strong_pulse_intensity: float = 1e6

    def __post_init__(self):
        if self.min_sift_len < 1:
            raise ValueError("min_sift_len must be >= 1")
        if not (0.0 < self.sample_fraction < 1.0):
            raise ValueError("sample_fraction must be in (0, 1)")
        if not (0.0 <= self.qber_abort < 0.5):
            raise ValueError("qber_abort must be in [0, 0.5)")
        if not (1.0 <= self.f_ec < math.inf):
            raise ValueError("f_ec must be finite and >= 1")
        if self.safety_margin_bits < 0:
            raise ValueError("safety_margin_bits must be >= 0")
        if not (0.0 < self.trojan_tolerance < 1.0):
            raise ValueError("trojan_tolerance must be in (0, 1)")
        if not (1.0 < self.strong_pulse_intensity < math.inf):
            raise ValueError("strong_pulse_intensity must be finite and > 1")


@dataclass(frozen=True)
class SessionRecord:
    """Outcome of one key-generation run."""

    n_pulses: int
    sifted_len: int
    qber: float
    reconciliation_leak_bits: int
    final_key: np.ndarray  # uint8 bits, empty when aborted
    aborted: bool
    abort_reason: SessionAbort

    def __post_init__(self):
        self.final_key.setflags(write=False)
        if self.aborted != (self.abort_reason is not SessionAbort.NONE):
            raise ValueError("aborted flag inconsistent with abort_reason")
        if self.aborted != (len(self.final_key) == 0):
            raise ValueError("aborted sessions carry an empty final key, successful ones do not")
        if not (0.0 <= self.qber <= 0.5):
            raise ValueError("recorded qber must be in [0, 0.5]")
        if self.sifted_len > self.n_pulses or len(self.final_key) > self.sifted_len:
            raise ValueError("key lengths must shrink along the pipeline")


def trojan_monitor(measured_intensity: float, expected_intensity: float,
                   tolerance_fraction: float) -> bool:
    """True (alarm) unless the monitored intensity is within
    ``tolerance_fraction`` of the expected one relatively; a reading that
    cannot be compared (NaN) raises the alarm."""
    if expected_intensity <= 0:
        raise ValueError("expected_intensity must be > 0")
    if not (0.0 < tolerance_fraction < 1.0):
        raise ValueError("tolerance_fraction must be in (0, 1)")
    return not abs(measured_intensity - expected_intensity) / expected_intensity <= tolerance_fraction


def sift(sender_bases, receiver_bases, sender_bits, receiver_bits, detected):
    """Keep positions that were detected and measured in the matching basis.

    Sessions draw their sifted keys directly (``_sifted_keys``); this is the
    sifting of per-pulse rounds, as the tests' dense reference does it."""
    sb = np.asarray(sender_bases, dtype=np.uint8)
    rb = np.asarray(receiver_bases, dtype=np.uint8)
    sx = np.asarray(sender_bits, dtype=np.uint8)
    rx = np.asarray(receiver_bits, dtype=np.uint8)
    det = np.asarray(detected, dtype=bool)
    n = len(sb)
    if not (len(rb) == len(sx) == len(rx) == len(det) == n):
        raise ValueError("sift inputs must have equal lengths")
    keep = det & (sb == rb)
    return sx[keep], rx[keep]


def estimate_qber(sifted_sender, sifted_receiver, sample_fraction: float,
                  rng: RandomStream):
    """Disclose a random sample, measure its error rate, drop it from both keys.

    Returns (qber, remaining_sender, remaining_receiver).
    """
    sa = np.asarray(sifted_sender, dtype=np.uint8)
    sb = np.asarray(sifted_receiver, dtype=np.uint8)
    if len(sa) != len(sb):
        raise ValueError("sifted keys must have equal lengths")
    if len(sa) < 2:
        raise ValueError("need at least 2 sifted bits to estimate the error rate")
    if not (0.0 < sample_fraction < 1.0):
        raise ValueError("sample_fraction must be in (0, 1)")
    n = len(sa)
    k = math.ceil(sample_fraction * n)
    perm = rng.permutation(n)
    sample = perm[:k]
    qber = float(np.count_nonzero(sa[sample] != sb[sample])) / k
    remaining = np.sort(perm[k:])
    return qber, sa[remaining], sb[remaining]


def binary_entropy(p: float) -> float:
    """Binary entropy h2(p) in bits, with h2(0) = h2(1) = 0."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def reconcile(sender_key, receiver_key, qber: float, f_ec: float = 1.16):
    """Modeled reconciliation: the receiver adopts the sender key and the
    public leakage is charged as ceil(f_ec * h2(qber) * len).

    Returns (corrected_receiver_key, leak_bits). Raises ValueError when the
    leakage overflows to infinity (an ``f_ec`` near the float maximum).
    """
    sa = np.asarray(sender_key, dtype=np.uint8)
    sb = np.asarray(receiver_key, dtype=np.uint8)
    if len(sa) != len(sb):
        raise ValueError("keys must have equal lengths")
    if not (0.0 <= qber < 0.5):
        raise ValueError("reconciliation requires qber < 0.5")
    leak = f_ec * binary_entropy(qber) * len(sa)
    if not math.isfinite(leak):
        raise ValueError(f"reconciliation leakage is not finite (f_ec={f_ec})")
    return sa.copy(), math.ceil(leak)


def privacy_amplify(key, qber: float, leak_bits: int, rng: RandomStream, *,
                    qber_abort: float = 0.11, safety_margin_bits: int = 0) -> np.ndarray:
    """Compress a reconciled key to its secret length via a Toeplitz hash.

    Final length is floor(len * (1 - h2(qber)) - leak_bits - margin). Returns
    an empty array (abort) when that is non-positive or qber exceeds the
    abort threshold. Deterministic given the stream state.
    """
    k = np.asarray(key, dtype=np.uint8)
    n = len(k)
    if n == 0:
        raise ValueError("privacy amplification needs a non-empty key")
    m = math.floor(n * (1.0 - binary_entropy(qber)) - leak_bits - safety_margin_bits)
    if m <= 0 or qber > qber_abort:
        return np.empty(0, dtype=np.uint8)
    t_bits = rng.bits(n + m - 1)
    return toeplitz_hash(k, t_bits, m)


def _aborted(n_pulses: int, sifted_len: int, qber: float, reason: SessionAbort) -> SessionRecord:
    return SessionRecord(
        n_pulses=n_pulses,
        sifted_len=sifted_len,
        qber=min(qber, 0.5),
        reconciliation_leak_bits=0,
        final_key=np.empty(0, dtype=np.uint8),
        aborted=True,
        abort_reason=reason,
    )


def _sifted_keys(n_pulses: int, loss_db: float, eve: EveConfig,
                 channel: ChannelParams, rng: RandomStream):
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
    eta = transmittance(loss_db) * channel.detector_efficiency
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"eta_total out of (0, 1]: {eta}")
    p_noise = channel.noise_prob
    p_click = 1.0 - (1.0 - eta) * (1.0 - p_noise)
    e_sig = channel.intrinsic_error_prob
    if eve.mode == "intercept_resend":
        # half of the sifted pulses were resent in the wrong basis and read a fair coin
        e_sig = e_sig / 2 + 0.25
    # a click without the signal photon reads a fair coin
    q = (eta * e_sig + (1.0 - eta) * p_noise / 2) / p_click
    k = rng.binomial(n_pulses, p_click / 2)
    sender = rng.bits(k)
    return sender, sender ^ (rng.uniforms(k) < q)


def _postprocess(n_pulses: int, sifted_a, sifted_b, rng: RandomStream,
                 protocol: ProtocolParams) -> SessionRecord:
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
        aborted=False,
        abort_reason=SessionAbort.NONE,
    )


def _require_active(link) -> float:
    if getattr(link, "state", "active") != "active":
        raise ValueError(f"link {getattr(link, 'endpoints', link)} is not active")
    return float(link.loss_db)


def run_bb84_session(link, n_pulses: int, eve: EveConfig, rng: RandomStream,
                     channel: ChannelParams | None = None,
                     protocol: ProtocolParams | None = None) -> SessionRecord:
    """Run one BB84 session over an active link; see module docstring."""
    channel = channel or ChannelParams()
    protocol = protocol or ProtocolParams()
    loss_db = _require_active(link)
    if n_pulses < 1:
        raise ValueError("n_pulses must be >= 1")
    sifted = _sifted_keys(n_pulses, loss_db, eve, channel, rng)
    return _postprocess(n_pulses, *sifted, rng, protocol)


def run_plugplay_session(server_link, n_pulses: int, eve: EveConfig, rng: RandomStream,
                         channel: ChannelParams | None = None,
                         protocol: ProtocolParams | None = None) -> SessionRecord:
    """Run one polarization plug-and-play session over an active link.

    The server's strong forward pulse always arrives; the client splits it,
    monitors half on the intensity detector, encodes and attenuates the
    other half, and returns it. Only that returned single-photon leg runs
    through the channel statistics. An intensity anomaly on the monitor
    aborts before any quantum rounds.
    """
    channel = channel or ChannelParams()
    protocol = protocol or ProtocolParams()
    loss_db = _require_active(server_link)
    if n_pulses < 1:
        raise ValueError("n_pulses must be >= 1")

    expected_monitor = protocol.strong_pulse_intensity / 2.0  # 50/50 split
    if eve.mode == "trojan_probe":
        monitor_reading = eve.probe_intensity
    else:
        monitor_reading = expected_monitor
    if trojan_monitor(monitor_reading, expected_monitor, protocol.trojan_tolerance):
        return _aborted(n_pulses, 0, 0.0, SessionAbort.TROJAN_ALARM)

    # Only an intercept-resend Eve acts on the returned leg's rounds.
    sifted = _sifted_keys(n_pulses, loss_db, eve, channel, rng)
    return _postprocess(n_pulses, *sifted, rng, protocol)
