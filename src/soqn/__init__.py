"""Deterministic simulator of self-organizing free-space QKD networks.

Peer-to-peer and client/server organization protocols over simulated
free-space optical links: location broadcast, link acquisition, routing
tables, BB84 and plug-and-play key generation that draws only each
session's counts and its final key bits, XOR trusted-relay key
distribution, one-time-pad messaging, and eavesdropper models.
"""
from .channel import ChannelParams, path_loss_db, transmittance
from .engine import ScenarioEvent, SimEngine
from .geo import GeoPosition, LinkFeasibilityParams, geodesic_distance, line_of_sight, link_feasible
from .network import DeliveryRecord, KeyBuffer, Network, OpticalLink
from .qkd import (ProtocolParams, SessionAbort, SessionRecord, backend_name, binary_entropy,
                  estimate_qber, privacy_amplify, reconcile, run_bb84_session,
                  run_plugplay_session)
from .rng import RandomStream
from .runner import run_scenario
from .scenario import Scenario, ScenarioError, format_scenario, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "ChannelParams", "DeliveryRecord", "GeoPosition", "KeyBuffer", "LinkFeasibilityParams",
    "Network", "OpticalLink", "ProtocolParams", "RandomStream", "Scenario", "ScenarioError",
    "ScenarioEvent", "SessionAbort", "SessionRecord", "SimEngine", "backend_name",
    "binary_entropy", "estimate_qber", "format_scenario", "geodesic_distance", "line_of_sight",
    "link_feasible", "parse_scenario", "path_loss_db", "privacy_amplify", "reconcile",
    "run_bb84_session", "run_plugplay_session", "run_scenario", "transmittance",
]
