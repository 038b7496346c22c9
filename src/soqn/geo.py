"""Geodesy and optical-link feasibility on a spherical Earth of radius
R = ``EARTH_RADIUS_KM``.

Distances combine a great-circle surface leg (haversine) with the altitude
difference; line of sight is an Earth-curvature horizon test. Terrain and
refraction are out of scope.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

EARTH_RADIUS_KM = 6371.0

# The coordinates a node may have: latitude within [-MAX_LATITUDE_DEG,
# MAX_LATITUDE_DEG] and altitude at least MIN_ALTITUDE_M. GeoPosition checks
# them, and so does the scenario parser, at the token.
MAX_LATITUDE_DEG = 90.0
MIN_ALTITUDE_M = -500.0

# Endpoints at or below sea level get this effective height in the horizon
# test, so two ground stations never degenerate to zero visual range.
MIN_EYE_HEIGHT_M = 2.0


@dataclass(frozen=True)
class GeoPosition:
    """A node location: latitude/longitude in degrees, altitude in meters.

    Longitude is normalized to [-180, 180) on construction.
    """

    latitude_deg: float
    longitude_deg: float
    altitude_m: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.latitude_deg) or not (
                -MAX_LATITUDE_DEG <= self.latitude_deg <= MAX_LATITUDE_DEG):
            raise ValueError(f"latitude_deg out of [{-MAX_LATITUDE_DEG:g}, "
                             f"{MAX_LATITUDE_DEG:g}]: {self.latitude_deg}")
        if not math.isfinite(self.longitude_deg):
            raise ValueError(f"longitude_deg not finite: {self.longitude_deg}")
        lon = ((self.longitude_deg + 180.0) % 360.0) - 180.0
        if lon == 180.0:  # the modulo of a tiny negative sum rounds up to 360
            lon = -180.0
        object.__setattr__(self, "longitude_deg", lon)
        if not math.isfinite(self.altitude_m) or self.altitude_m < MIN_ALTITUDE_M:
            raise ValueError(f"altitude_m must be finite and >= {MIN_ALTITUDE_M:g}: "
                             f"{self.altitude_m}")

    @cached_property
    def unit_vector(self) -> tuple[float, float, float]:
        """The point's direction from the Earth's centre, on the unit sphere."""
        lat = math.radians(self.latitude_deg)
        lon = math.radians(self.longitude_deg)
        return (math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat))


@dataclass(frozen=True)
class LinkFeasibilityParams:
    """Envelope for deciding whether an optical link can be acquired."""

    max_range_km: float = 144.0
    require_los: bool = True

    def __post_init__(self):
        if not math.isfinite(self.max_range_km) or self.max_range_km <= 0.0:
            raise ValueError(f"max_range_km must be positive and finite: {self.max_range_km}")


def _central_angle_rad(a: GeoPosition, b: GeoPosition) -> float:
    lat1 = math.radians(a.latitude_deg)
    lat2 = math.radians(b.latitude_deg)
    dlat = math.radians(b.latitude_deg - a.latitude_deg)
    dlon = math.radians(b.longitude_deg - a.longitude_deg)
    s = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * math.asin(min(1.0, math.sqrt(s)))


def _distance_km(a: GeoPosition, b: GeoPosition, angle: float) -> float:
    mean_alt_km = (a.altitude_m + b.altitude_m) / 2000.0
    surface = (EARTH_RADIUS_KM + mean_alt_km) * angle
    dalt_km = abs(b.altitude_m - a.altitude_m) / 1000.0
    return math.hypot(surface, dalt_km)


def geodesic_distance(a: GeoPosition, b: GeoPosition) -> float:
    """Distance in km between two node positions.

    Great-circle distance on a sphere of radius ``EARTH_RADIUS_KM`` plus the
    mean altitude, composed with the altitude difference as
    sqrt(surface**2 + dalt**2). Symmetric; exactly zero for identical inputs.
    """
    return _distance_km(a, b, _central_angle_rad(a, b))


def _horizon_km(altitude_m: float) -> float:
    # max() gives the same value, but its call costs more than the rest of
    # this test, which runs twice per exact link test.
    h_km = (MIN_EYE_HEIGHT_M if altitude_m < MIN_EYE_HEIGHT_M else altitude_m) / 1000.0
    return math.sqrt(2.0 * EARTH_RADIUS_KM * h_km)


def _in_sight(a: GeoPosition, b: GeoPosition, angle: float) -> bool:
    return EARTH_RADIUS_KM * angle <= _horizon_km(a.altitude_m) + _horizon_km(b.altitude_m)


def line_of_sight(a: GeoPosition, b: GeoPosition) -> bool:
    """True iff the segment between the two elevated points clears the Earth.

    Uses the standard horizon approximation: each endpoint sees out to
    sqrt(2*R*h); the pair has line of sight when the surface separation does
    not exceed the sum of the two horizon distances.
    """
    return _in_sight(a, b, _central_angle_rad(a, b))


def within_chord_bound(a: GeoPosition, others: Iterable[tuple[object, GeoPosition]],
                       params: LinkFeasibilityParams) -> list:
    """The keys of ``others``, (key, position) pairs, whose position the
    cheap range bound keeps against ``a``, in the order given.

    The unit-sphere chord never exceeds the central angle, so
    ``(R + mean altitude) * chord`` never exceeds ``geodesic_distance``. The
    bound is shrunk by a relative 1e-9 and the chord by an absolute 1e-12,
    both far above the rounding of either computation, so a pair it drops
    is always beyond ``max_range_km``. This is the one place the bound is
    written; ``cell_side`` bounds the chords it keeps.
    """
    ua, alt, limit, dist = a.unit_vector, a.altitude_m, params.max_range_km, math.dist
    return [key for key, b in others
            if not ((EARTH_RADIUS_KM + (alt + b.altitude_m) / 2000.0)
                    * (dist(ua, b.unit_vector) - 1e-12) * (1.0 - 1e-9) > limit)]


def cell_side(params: LinkFeasibilityParams) -> float:
    """Side of the cubic cells of ``GeoPosition.unit_vector`` within which
    every pair that ``within_chord_bound`` keeps lies in neighbouring cells.

    Altitudes are at least ``MIN_ALTITUDE_M`` (-500 m), so the scale in
    ``within_chord_bound`` is at least R - 0.5 km, with R =
    ``EARTH_RADIUS_KM``, and a pair it keeps has a unit-vector chord of at
    most ``max_range_km / ((R - 0.5)(1 - 1e-9)) + 1e-12``: its own margins.
    No coordinate differs by more than the chord, so with a cell side of at
    least the chord the floored coordinates differ by at most 1. A further
    relative 1e-9 and absolute 1e-12 cover the rounding of this bound, of
    the coordinate differences and of the floor division (coordinates are
    within [-1, 1], so each is within a few 1e-16).
    """
    lowest = EARTH_RADIUS_KM + MIN_ALTITUDE_M / 1000.0
    chord = params.max_range_km / (lowest * (1.0 - 1e-9)) + 1e-12
    return chord * (1.0 + 1e-9) + 1e-12


def cell_of(p: GeoPosition, side: float) -> tuple[int, int, int]:
    """The cell of side ``side`` (see ``cell_side``) that holds p's unit vector."""
    x, y, z = p.unit_vector
    return (math.floor(x / side), math.floor(y / side), math.floor(z / side))


def feasible_distance(a: GeoPosition, b: GeoPosition, params: LinkFeasibilityParams) -> float | None:
    """``geodesic_distance`` of a pair that ``link_feasible`` accepts, else None.

    One central angle serves the range check, the line-of-sight check and
    the distance, with the same values as those three functions.
    """
    angle = _central_angle_rad(a, b)
    dist = _distance_km(a, b, angle)
    if dist > params.max_range_km:
        return None
    if params.require_los and not _in_sight(a, b, angle):
        return None
    return dist


def link_feasible(a: GeoPosition, b: GeoPosition, params: LinkFeasibilityParams) -> bool:
    """True iff an optical link between a and b can be acquired.

    Requires the 3D distance to be within ``max_range_km`` and, when
    ``require_los`` is set, an unobstructed horizon path.
    """
    return feasible_distance(a, b, params) is not None
