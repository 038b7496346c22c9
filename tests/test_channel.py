import math

import numpy as np
import pytest

from soqn.channel import ChannelParams, path_loss_db, transmittance
from soqn.network import OpticalLink
from soqn.qkd import run_bb84_session
from soqn.rng import RandomStream


class TestPathLoss:
    def test_fixed_term_only(self):
        assert path_loss_db(0.0, ChannelParams()) == 5.0

    def test_fifty_km(self):
        # arithmetic oracle: 5 + 0.2 * 50
        assert path_loss_db(50.0, ChannelParams()) == pytest.approx(15.0)

    def test_max_range(self):
        assert path_loss_db(144.0, ChannelParams()) == pytest.approx(33.8)

    def test_monotone_in_distance(self):
        params = ChannelParams()
        losses = [path_loss_db(d, params) for d in np.linspace(0, 200, 50)]
        assert all(b >= a for a, b in zip(losses, losses[1:]))

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            path_loss_db(-1.0, ChannelParams())


class TestTransmittance:
    def test_zero_db(self):
        assert transmittance(0.0) == 1.0

    def test_ten_db(self):
        assert transmittance(10.0) == pytest.approx(0.1)

    def test_max_range_loss(self):
        # arithmetic oracle: 10 ** -3.38
        assert transmittance(33.8) == pytest.approx(4.1686938347e-4, rel=1e-9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            transmittance(-0.1)


class TestChannelParams:
    @pytest.mark.parametrize("kwargs", [
        {"atm_loss_db_per_km": -0.1},
        {"dark_count_prob": 1.0},
        {"background_prob": -1e-9},
        {"detector_efficiency": 0.0},
        {"detector_efficiency": 1.5},
        {"intrinsic_error_prob": 0.5},
        {"dark_count_prob": 0.6, "background_prob": 0.6},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ChannelParams(**kwargs)


class TestClickRate:
    """Sifted-click rates of the sessions: a pulse is sifted when it clicks
    and both bases match, with probability p_click / 2."""

    @staticmethod
    def sifted_fraction(channel, n, seed):
        link = OpticalLink(("a", "b"), 0.0, 0.0, 0.0, "active")
        rec = run_bb84_session(link, n, False, RandomStream(seed, "clicks"), channel)
        return rec.sifted_len / n

    def test_click_rate_binomial(self):
        # binomial oracle: sifted clicks ~ B(n, eta / 2) at eta = 0.5
        params = ChannelParams(dark_count_prob=0.0, background_prob=0.0,
                               detector_efficiency=0.5)
        n = 10**5
        expect = 0.25
        sigma = math.sqrt(expect * (1 - expect) / n)
        assert abs(self.sifted_fraction(params, n, 3) - expect) < 3 * sigma

    def test_click_rate_with_noise(self):
        # empirical rate converges to (1 - (1 - eta)(1 - p_noise)) / 2
        params = ChannelParams(dark_count_prob=0.05, background_prob=0.05,
                               detector_efficiency=0.3)
        n = 4 * 10**4
        eta = 0.3
        expect = (1.0 - (1.0 - eta) * (1.0 - params.noise_prob)) / 2
        sigma = math.sqrt(expect * (1 - expect) / n)
        assert abs(self.sifted_fraction(params, n, 4) - expect) < 3 * sigma
