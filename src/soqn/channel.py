"""Free-space channel model: loss budget, transmittance, detector noise.

The loss budget is a fixed system term plus a linear atmospheric term; each
transmitted pulse gets exactly one gated detection opportunity. Dark counts
and daylight background are lumped into one per-gate noise probability,
``noise_prob``: about 1e-6 for dark counts alone, about 1e-4 in daylight.
Sessions draw only the counts of the gates that click with matching bases
(``qkd.click_model``); ``qkd.transmit_pulses`` is the per-gate
detection of the dense per-pulse model the tests compare them against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


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
