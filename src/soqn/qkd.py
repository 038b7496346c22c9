"""QKD sessions over an acquired optical link.

Two protocol flavors share one prepare-measure session: four-state BB84
between peers, and a polarization plug-and-play variant between a server
(measuring party) and a client (encoding party) where only the returned
single-photon leg sees channel statistics. Post-processing is sampled error
estimation, modeled reconciliation with entropy-based leakage accounting,
and Toeplitz privacy amplification.

The free-space loss budget (``path_loss_db``) is a fixed system term plus a
linear atmospheric term; each pulse gets one gated detection opportunity.
Dark counts and daylight background are lumped into one per-gate noise
probability, ``noise_prob``: about 1e-6 for dark counts alone, about 1e-4
in daylight.

A session draws the counts of that pipeline, not its bits. Pulses are
i.i.d., so with p_click and q from ``click_model``:

- the sifted length is k ~ Binomial(n_pulses, p_click / 2);
- the sifted errors are E ~ Binomial(k, q);
- s = ceil(sample_fraction * k) bits are disclosed, of which
  e ~ Hypergeometric(E, k - E, s) are errors, and qber = e / s;
- the leakage (``reconciliation_leak``) and the final length m
  (``secret_key_length``) follow from k - s and qber;
- the final key is m fresh fair bits, drawn from the session's stream
  when ``SessionRecord.final_key`` is first read; a session itself draws
  only the counts.

That is the law of the bit-level pipeline (``sift``, ``estimate_qber``,
``reconcile``, ``privacy_amplify``), which the tests keep as the oracle.
There, the sender's remaining n = k - s bits are uniform and independent
of every count, since errors and the disclosed sample do not depend on bit
values. The Toeplitz hash maps them to its m output bits through an
m x n Toeplitz matrix T with a uniform seed. Each fixed nonzero
combination of T's rows is then a uniform n-bit vector, so by a union
bound over the 2^m - 1 combinations T has rank m except with probability
below 2^-(n-m); when it has rank m, its output on a uniform key is exactly
uniform. The hashed key therefore lies within total-variation distance
2^-(n-m) of m fresh bits, and n - m >= n * h2(qber) + leak +
safety_margin_bits. The bound is vacuous when n - m is small: at qber 0
with ``safety_margin_bits 0``, m = n and a square Toeplitz matrix is
singular half of the time. A session's cost grows neither with
``n_pulses`` nor with m: it makes at most three draws.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
from numpy.fft import irfft, rfft

from .rng import RandomStream


class SessionAbort(str, Enum):
    NONE = "none"
    INSUFFICIENT_DETECTIONS = "insufficient_detections"
    QBER_EXCEEDS_THRESHOLD = "qber_exceeds_threshold"


# numpy's binomial takes at most 2**63 - 1 trials, so a session sends at
# most that many pulses.
MAX_PULSES = 2**63 - 1

# The largest f_ec whose leakage f_ec * h2(qber) * n stays finite for every
# sifted length n below 2**63, which covers every key that fits in memory
# and every count numpy's binomial can draw.
MAX_F_EC = sys.float_info.max / 2**63


@dataclass(frozen=True)
class ProtocolParams:
    min_sift_len: int = 1000
    sample_fraction: float = 0.5
    qber_abort: float = 0.11
    f_ec: float = 1.16
    safety_margin_bits: int = 100

    def __post_init__(self):
        if self.min_sift_len < 2:
            raise ValueError("min_sift_len must be >= 2: error estimation needs two sifted bits")
        if not (0.0 < self.sample_fraction < 1.0):
            raise ValueError("sample_fraction must be in (0, 1)")
        if not (0.0 <= self.qber_abort < 0.5):
            raise ValueError("qber_abort must be in [0, 0.5)")
        if not (1.0 <= self.f_ec <= MAX_F_EC):
            raise ValueError(f"f_ec must be in [1, {MAX_F_EC:.4g}], so that the leakage "
                             "of any sifted key is finite")
        if self.safety_margin_bits < 0:
            raise ValueError("safety_margin_bits must be >= 0")


@dataclass(frozen=True)
class SessionRecord:
    """Outcome of one key-generation run.

    A successful record keeps the stream its session drew its counts from
    and draws ``final_key`` from it on first read. Nothing else draws from
    that stream, so the key bits are the next ``final_len`` bits after the
    counts."""

    n_pulses: int
    sifted_len: int
    qber: float
    reconciliation_leak_bits: int
    final_len: int  # 0 when aborted
    abort_reason: SessionAbort
    _stream: RandomStream | None = field(default=None, repr=False, compare=False)

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not SessionAbort.NONE

    @cached_property
    def final_key(self) -> np.ndarray:
        """The ``final_len`` key bits as read-only uint8, drawn on first read
        and the same array on every later one; empty when aborted.

        (``cached_property`` stores the array in the instance ``__dict__``,
        which a frozen dataclass leaves writable.)"""
        if self.aborted:
            key = np.empty(0, dtype=np.uint8)
        elif self._stream is None:
            raise ValueError("this record was built without its session's stream, "
                             "so it has no key bits to draw")
        else:
            key = self._stream.bits(self.final_len)
        key.setflags(write=False)
        return key

    def __post_init__(self):
        if self.aborted != (self.final_len == 0):
            raise ValueError("aborted sessions carry an empty final key, successful ones do not")
        if not (0.0 <= self.qber <= 0.5):
            raise ValueError("recorded qber must be in [0, 0.5]")
        if self.sifted_len > self.n_pulses or self.final_len > self.sifted_len:
            raise ValueError("key lengths must shrink along the pipeline")


def sift(sender_bases, receiver_bases, sender_bits, receiver_bits, detected):
    """Keep positions that were detected and measured in the matching basis.

    Sessions draw their counts directly (``_session``); this is the sifting
    of per-pulse rounds, as the tests' dense reference does it."""
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


def reconciliation_leak(n_bits: int, qber: float, f_ec: float) -> int:
    """Public bits charged for reconciling ``n_bits``: ceil(f_ec * h2(qber) * n_bits).

    Raises ValueError when the leakage overflows to infinity (an ``f_ec``
    near the float maximum)."""
    leak = f_ec * binary_entropy(qber) * n_bits
    if not math.isfinite(leak):
        raise ValueError(f"reconciliation leakage is not finite (f_ec={f_ec})")
    return math.ceil(leak)


def secret_key_length(n_bits: int, qber: float, leak_bits: int, safety_margin_bits: int) -> int:
    """Asymptotic secret length of an ``n_bits`` reconciled key:
    floor(n_bits * (1 - h2(qber)) - leak_bits - safety_margin_bits), which
    may be <= 0."""
    return math.floor(n_bits * (1.0 - binary_entropy(qber)) - leak_bits - safety_margin_bits)


def reconcile(sender_key, receiver_key, qber: float, f_ec: float = 1.16):
    """Modeled reconciliation: the receiver adopts the sender key and the
    public leakage is charged by ``reconciliation_leak``.

    Returns (corrected_receiver_key, leak_bits). Raises ValueError when the
    leakage overflows to infinity.
    """
    sa = np.asarray(sender_key, dtype=np.uint8)
    sb = np.asarray(receiver_key, dtype=np.uint8)
    if len(sa) != len(sb):
        raise ValueError("keys must have equal lengths")
    if not (0.0 <= qber < 0.5):
        raise ValueError("reconciliation requires qber < 0.5")
    return sa.copy(), reconciliation_leak(len(sa), qber, f_ec)


# --- kernels of the bit-level pipeline -------------------------------------
#
# Sessions call neither kernel, and neither draws randomness itself. The
# transmit kernel is the per-gate detection of the tests' dense per-pulse
# rounds; ``privacy_amplify`` runs the Toeplitz hash.


def backend_name() -> str:
    """The kernels' backend, for the host line of ``perfbench/run.py``,
    its only reader."""
    return "numpy"


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


# Toeplitz-style universal hash:
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
    circular convolution of t with the reversed key by real FFTs, then
    rounded and reduced mod 2 (the technique of fast QKD privacy
    amplification, Hayashi & Tsurumaru, IEEE TIT 62(4), 2016). Raises
    ``ArithmeticError`` when a sum lands further than ``ROUNDING_MARGIN``
    from an integer.

    The transform length L is the power of two >= n+m-1. The full linear
    convolution is 2n+m-2 long, so its tail wraps onto the first n-1 points
    of the circular one, but the kept window [n-1, n+m-1) gets no wrapped
    term: its first index plus L is past the last linear one.
    """
    n = key_bits.shape[0]
    size = 1 << max(n + m - 2, 0).bit_length()  # power of two >= n+m-1
    c = irfft(rfft(t_bits, size) * rfft(key_bits[::-1], size), size)[n - 1 : n - 1 + m]
    r = np.rint(c)
    err = float(np.max(np.abs(c - r), initial=0.0))
    if err > ROUNDING_MARGIN:
        raise ArithmeticError(f"FFT rounding error {err:.3g} exceeds {ROUNDING_MARGIN} "
                              f"(n={n}, m={m})")
    return (r.astype(np.int64) & 1).astype(np.uint8)


def privacy_amplify(key, qber: float, leak_bits: int, rng: RandomStream, *,
                    qber_abort: float = 0.11, safety_margin_bits: int = 0) -> np.ndarray:
    """Compress a reconciled key to its secret length via a Toeplitz hash.

    The final length is ``secret_key_length``. Returns an empty array
    (abort) when that is non-positive or qber exceeds the abort threshold.
    Deterministic given the stream state.
    """
    k = np.asarray(key, dtype=np.uint8)
    n = len(k)
    if n == 0:
        raise ValueError("privacy amplification needs a non-empty key")
    m = secret_key_length(n, qber, leak_bits, safety_margin_bits)
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
        final_len=0,
        abort_reason=reason,
    )


@dataclass(frozen=True)
class ChannelParams:
    atm_loss_db_per_km: float = 0.2
    fixed_system_loss_db: float = 5.0
    noise_prob: float = 1e-6
    detector_efficiency: float = 0.5
    intrinsic_error_prob: float = 0.01

    def __post_init__(self):
        if self.atm_loss_db_per_km < 0 or not math.isfinite(self.atm_loss_db_per_km):
            raise ValueError("atm_loss_db_per_km must be >= 0")
        if self.fixed_system_loss_db < 0 or not math.isfinite(self.fixed_system_loss_db):
            raise ValueError("fixed_system_loss_db must be >= 0")
        if not (0.0 <= self.noise_prob < 1.0):
            raise ValueError("noise_prob must be in [0, 1)")
        if not (0.0 < self.detector_efficiency <= 1.0):
            raise ValueError("detector_efficiency must be in (0, 1]")
        if not (0.0 <= self.intrinsic_error_prob < 0.5):
            raise ValueError("intrinsic_error_prob must be in [0, 0.5)")


def path_loss_db(distance_km: float, params: ChannelParams) -> float:
    """Total link loss in dB at the given distance."""
    if distance_km < 0:
        raise ValueError("distance_km must be >= 0")
    return params.fixed_system_loss_db + params.atm_loss_db_per_km * distance_km


def transmittance(loss_db: float) -> float:
    """Fraction of photons surviving ``loss_db`` of attenuation."""
    if loss_db < 0:
        raise ValueError("loss_db must be >= 0")
    return 10.0 ** (-loss_db / 10.0)


def click_model(loss_db: float, intercept_resend: bool,
                channel: ChannelParams) -> tuple[float, float]:
    """(p_click, q): the probability that a gate clicks, and that a click
    reads the wrong bit in the sender's basis.

    With eta = transmittance * detector efficiency,
    p_click = 1 - (1 - eta)(1 - p_noise). A signal click is wrong with the
    intrinsic error probability e_sig (under intercept-resend
    e_sig / 2 + 1/4: half of the pulses were resent in the wrong basis and
    read a fair coin); a click without the signal photon reads a fair coin.
    eta is 0 when the loss underflows the transmittance: then only noise
    clicks. When nothing can click, (0.0, 0.5): the session aborts on its
    empty sifted key before q is used.
    """
    eta = transmittance(loss_db) * channel.detector_efficiency
    if not (0.0 <= eta <= 1.0):
        raise ValueError(f"eta_total out of [0, 1]: {eta}")
    p_noise = channel.noise_prob
    p_click = 1.0 - (1.0 - eta) * (1.0 - p_noise)
    if p_click == 0.0:
        return 0.0, 0.5
    e_sig = channel.intrinsic_error_prob
    if intercept_resend:
        e_sig = e_sig / 2 + 0.25
    return p_click, (eta * e_sig + (1.0 - eta) * p_noise / 2) / p_click


def _session(n_pulses: int, loss_db: float, intercept_resend: bool, channel: ChannelParams,
             rng: RandomStream, protocol: ProtocolParams) -> SessionRecord:
    """Draw one session's counts; see the module docstring.

    At most three draws, in a fixed order (sifted length, errors, sample
    errors), so a session replays bit for bit from its stream, and an
    aborted one stops drawing where it aborts. A successful record keeps
    the stream and draws its m key bits from it, next, on the first read
    of ``final_key``.
    """
    p_click, q = click_model(loss_db, intercept_resend, channel)
    sifted_len = rng.binomial(n_pulses, p_click / 2)
    if sifted_len < protocol.min_sift_len:
        return _aborted(n_pulses, sifted_len, 0.0, SessionAbort.INSUFFICIENT_DETECTIONS)
    errors = rng.binomial(sifted_len, q)
    sample = math.ceil(protocol.sample_fraction * sifted_len)
    qber = rng.hypergeometric(errors, sifted_len - errors, sample) / sample
    if qber > protocol.qber_abort:
        return _aborted(n_pulses, sifted_len, qber, SessionAbort.QBER_EXCEEDS_THRESHOLD)
    remaining = sifted_len - sample
    leak = reconciliation_leak(remaining, qber, protocol.f_ec)
    m = secret_key_length(remaining, qber, leak, protocol.safety_margin_bits)
    if m <= 0:
        # qber cleared the abort threshold but the sample, the leakage and
        # the margin ate the whole key; there is nothing left to distill.
        return _aborted(n_pulses, sifted_len, qber, SessionAbort.INSUFFICIENT_DETECTIONS)
    return SessionRecord(
        n_pulses=n_pulses,
        sifted_len=sifted_len,
        qber=qber,
        reconciliation_leak_bits=leak,
        final_len=m,
        abort_reason=SessionAbort.NONE,
        _stream=rng,
    )


def _require_active(link) -> float:
    if link.state != "active":
        raise ValueError(f"link {link.endpoints} is not active")
    return float(link.loss_db)


def run_bb84_session(link, n_pulses: int, intercept_resend: bool, rng: RandomStream,
                     channel: ChannelParams | None = None,
                     protocol: ProtocolParams | None = None) -> SessionRecord:
    """Run one BB84 session of ``n_pulses`` (1 to ``MAX_PULSES``) over an
    active link, through an intercept-resend Eve if ``intercept_resend``;
    see module docstring."""
    channel = channel or ChannelParams()
    protocol = protocol or ProtocolParams()
    loss_db = _require_active(link)
    if not 1 <= n_pulses <= MAX_PULSES:
        raise ValueError("n_pulses must be in [1, 2**63 - 1], the trials numpy's binomial takes")
    return _session(n_pulses, loss_db, intercept_resend, channel, rng, protocol)


# A polarization plug-and-play session is the same session: the server's
# strong forward pulse always arrives, and only the client's returned
# single-photon leg sees the channel and an intercept-resend Eve.
run_plugplay_session = run_bb84_session
