import pytest

from soqn.network import OpticalLink
from soqn.qkd import ChannelParams, ProtocolParams


@pytest.fixture
def ideal_channel():
    """Lossless, noiseless, error-free channel: eta_total = 1."""
    return ChannelParams(atm_loss_db_per_km=0.0, fixed_system_loss_db=0.0,
                         noise_prob=0.0,
                         detector_efficiency=1.0, intrinsic_error_prob=0.0)


@pytest.fixture
def ideal_link():
    return OpticalLink(("a", "b"), 0.0, 0.0, 0.0, "active")


@pytest.fixture
def protocol():
    return ProtocolParams()
