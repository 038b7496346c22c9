import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from soqn.geo import (EARTH_RADIUS_KM, GeoPosition, LinkFeasibilityParams, cell_of, cell_side,
                      feasible_distance, geodesic_distance, line_of_sight, link_feasible,
                      within_chord_bound)

# Independent hand computations, frozen before the build:
#   1 degree along the equator = 6371 * pi / 180
#   horizon(h) = sqrt(2 * 6371 * h_km), h floored at the 2 m eye height
ONE_DEG_EQUATOR_KM = 111.19492664455873


def horizon_oracle_km(alt_m: float) -> float:
    return math.sqrt(2.0 * EARTH_RADIUS_KM * max(alt_m, 2.0) / 1000.0)


def lon_for_surface_km(km: float) -> float:
    """Longitude offset along the equator giving the surface distance."""
    return math.degrees(km / EARTH_RADIUS_KM)


def surely_out_of_range(a: GeoPosition, b: GeoPosition, params: LinkFeasibilityParams) -> bool:
    """Cheap sufficient test that ``link_feasible(a, b, params)`` is False:
    the bound of ``within_chord_bound`` for one pair."""
    return not within_chord_bound(a, ((b, b),), params)


positions = st.builds(
    GeoPosition,
    st.floats(-89.0, 89.0),
    st.floats(-179.0, 179.0),
    st.floats(-400.0, 8000.0),
)


class TestGeoPosition:
    def test_longitude_normalized(self):
        assert GeoPosition(0.0, 180.0, 0.0).longitude_deg == -180.0
        assert GeoPosition(0.0, 270.0, 0.0).longitude_deg == -90.0
        assert GeoPosition(0.0, -180.0, 0.0).longitude_deg == -180.0
        # the sum with 180 is a tiny negative, whose modulo rounds up to 360
        assert GeoPosition(0.0, -180.00000000000003, 0.0).longitude_deg == -180.0

    @pytest.mark.parametrize("lat,lon,alt", [
        (91.0, 0.0, 0.0), (-90.5, 0.0, 0.0),
        (0.0, float("nan"), 0.0), (0.0, 0.0, -600.0), (0.0, 0.0, float("inf")),
    ])
    def test_rejects_bad_fields(self, lat, lon, alt):
        with pytest.raises(ValueError):
            GeoPosition(lat, lon, alt)


class TestGeodesicDistance:
    def test_identity_is_exactly_zero(self):
        p = GeoPosition(10.0, 20.0, 100.0)
        assert geodesic_distance(p, p) == 0.0

    def test_one_degree_at_equator(self):
        d = geodesic_distance(GeoPosition(0, 0, 0), GeoPosition(0, 1, 0))
        assert d == pytest.approx(ONE_DEG_EQUATOR_KM, rel=1e-12)

    def test_pure_altitude_leg(self):
        d = geodesic_distance(GeoPosition(0, 0, 0), GeoPosition(0, 0, 1000.0))
        assert d == pytest.approx(1.0, rel=1e-12)

    @given(positions, positions)
    @settings(max_examples=200)
    def test_symmetric_and_nonnegative(self, a, b):
        dab = geodesic_distance(a, b)
        assert dab == geodesic_distance(b, a)
        assert dab >= 0.0

    @given(positions)
    def test_self_distance_zero(self, p):
        assert geodesic_distance(p, p) == 0.0

    def test_distinct_positions_nonzero(self):
        a = GeoPosition(10.0, 20.0, 0.0)
        assert geodesic_distance(a, GeoPosition(10.001, 20.0, 0.0)) > 0.0


class TestLineOfSight:
    def test_close_pair_at_sea_level(self):
        a = GeoPosition(0, 0, 0)
        b = GeoPosition(0, lon_for_surface_km(1.0), 0)
        assert line_of_sight(a, b)

    def test_sea_level_pair_beyond_horizon(self):
        # horizon oracle: 2 x sqrt(2 * 6371 * 0.002) ~ 10.1 km << 200 km
        a = GeoPosition(0, 0, 0)
        b = GeoPosition(0, lon_for_surface_km(200.0), 0)
        assert horizon_oracle_km(0.0) * 2 < 200.0
        assert not line_of_sight(a, b)

    def test_mountain_to_sea_level_matches_oracle(self):
        a = GeoPosition(0, 0, 0)
        b = GeoPosition(0, lon_for_surface_km(150.0), 3000.0)
        expected = horizon_oracle_km(0.0) + horizon_oracle_km(3000.0) >= 150.0
        assert line_of_sight(a, b) == expected
        assert expected  # 200.56 km of combined horizon

    @pytest.mark.parametrize("km", [5.0, 50.0, 120.0, 200.0, 300.0])
    def test_matches_horizon_oracle_on_grid(self, km):
        for alt_a, alt_b in [(0, 0), (0, 500), (1000, 0), (2500, 2500)]:
            a = GeoPosition(0, 0, alt_a)
            b = GeoPosition(0, lon_for_surface_km(km), alt_b)
            expected = horizon_oracle_km(alt_a) + horizon_oracle_km(alt_b) >= km
            assert line_of_sight(a, b) == expected

    @given(positions, positions, st.floats(0.0, 5000.0))
    @settings(max_examples=100)
    def test_monotone_in_altitude(self, a, b, extra):
        if line_of_sight(a, b):
            raised = GeoPosition(a.latitude_deg, a.longitude_deg, a.altitude_m + extra)
            assert line_of_sight(raised, b)


class TestLinkFeasible:
    def test_in_range_clear_los(self):
        a = GeoPosition(0, 0, 0)
        b = GeoPosition(0, lon_for_surface_km(10.0), 0)
        assert link_feasible(a, b, LinkFeasibilityParams())

    def test_beyond_range(self):
        a = GeoPosition(0, 0, 0)
        b = GeoPosition(0, lon_for_surface_km(150.0), 0)
        assert not link_feasible(a, b, LinkFeasibilityParams(max_range_km=144.0))

    def test_los_blocked_conjunction(self):
        a = GeoPosition(0, 0, 0)
        b = GeoPosition(0, lon_for_surface_km(100.0), 0)
        blocked = LinkFeasibilityParams(max_range_km=144.0, require_los=True)
        assert not line_of_sight(a, b)
        assert not link_feasible(a, b, blocked)
        assert link_feasible(a, b, LinkFeasibilityParams(max_range_km=144.0, require_los=False))

    @given(positions, positions, st.floats(1.0, 300.0), st.floats(0.0, 100.0))
    @settings(max_examples=100)
    def test_monotone_in_max_range(self, a, b, base, shrink):
        wide = LinkFeasibilityParams(max_range_km=base, require_los=False)
        narrow = LinkFeasibilityParams(max_range_km=max(base - shrink, 0.5), require_los=False)
        if link_feasible(a, b, narrow):
            assert link_feasible(a, b, wide)

    @given(positions, positions)
    @settings(max_examples=100)
    def test_symmetric(self, a, b):
        params = LinkFeasibilityParams()
        assert link_feasible(a, b, params) == link_feasible(b, a, params)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LinkFeasibilityParams(max_range_km=0.0)
        with pytest.raises(ValueError):
            LinkFeasibilityParams(max_range_km=float("inf"))


def at_distance(a: GeoPosition, bearing_deg: float, km: float, alt_m: float) -> GeoPosition | None:
    """The point at altitude ``alt_m`` whose ``geodesic_distance`` from ``a``
    is ``km`` along the initial bearing, or None where no such point exists."""
    dalt_km = abs(alt_m - a.altitude_m) / 1000.0
    scale = EARTH_RADIUS_KM + (a.altitude_m + alt_m) / 2000.0
    if km < dalt_km:
        return None
    delta = math.sqrt(km * km - dalt_km * dalt_km) / scale
    if delta > math.pi:
        return None
    lat1, lon1 = math.radians(a.latitude_deg), math.radians(a.longitude_deg)
    theta = math.radians(bearing_deg)
    lat2 = math.asin(min(1.0, max(-1.0, math.sin(lat1) * math.cos(delta)
                                   + math.cos(lat1) * math.sin(delta) * math.cos(theta))))
    lon2 = lon1 + math.atan2(math.sin(theta) * math.sin(delta) * math.cos(lat1),
                             math.cos(delta) - math.sin(lat1) * math.sin(lat2))
    return GeoPosition(math.degrees(lat2), math.degrees(lon2), alt_m)


class TestSurelyOutOfRange:
    """The bound may only ever rule out pairs that link_feasible rules out."""

    @given(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0),
           st.sampled_from([-500.0, 0.0, 2.0, 1500.0, 20_000.0]),
           st.sampled_from([-500.0, 0.0, 2.0, 1500.0, 20_000.0]),
           st.floats(0.0, 360.0),
           st.sampled_from([1.0 - 1e-6, 1.0, 1.0 + 1e-6]),
           st.sampled_from([1e-4, 1e-3, 0.05, 1.0, 144.0, 2000.0, 12_000.0, 20_000.0]),
           st.booleans())
    @settings(max_examples=1500, deadline=None)
    def test_never_rules_out_a_feasible_pair_at_the_range_edge(
            self, lat, lon, alt_a, alt_b, bearing, factor, max_range, los):
        params = LinkFeasibilityParams(max_range_km=max_range, require_los=los)
        a = GeoPosition(lat, lon, alt_a)
        b = at_distance(a, bearing, max_range * factor, alt_b)
        assume(b is not None)
        assert not (surely_out_of_range(a, b, params) and link_feasible(a, b, params))
        assert not (surely_out_of_range(b, a, params) and link_feasible(b, a, params))

    @pytest.mark.parametrize("a,b", [
        (GeoPosition(90.0, 0.0, 0.0), GeoPosition(90.0, 123.0, 20_000.0)),
        (GeoPosition(90.0, 0.0, -500.0), GeoPosition(89.0, 45.0, 0.0)),
        (GeoPosition(-90.0, 10.0, 0.0), GeoPosition(-88.71, -170.0, 3000.0)),
        (GeoPosition(0.0, 179.9999, 0.0), GeoPosition(0.0, -179.9999, 0.0)),
        (GeoPosition(10.0, 179.5, -500.0), GeoPosition(10.5, -179.2, 20_000.0)),
        (GeoPosition(-45.0, -180.0, 2.0), GeoPosition(-45.0, 179.0, 8000.0)),
    ])
    @pytest.mark.parametrize("max_range", [1.0, 144.0])
    @pytest.mark.parametrize("los", [False, True])
    def test_poles_and_antimeridian(self, a, b, max_range, los):
        d = geodesic_distance(a, b)
        for edge in (d, d * (1 + 1e-6)):  # within range: the bound must not fire
            assert not surely_out_of_range(
                a, b, LinkFeasibilityParams(max_range_km=edge, require_los=los))
        for edge in (max_range, d * (1 - 1e-6)):
            params = LinkFeasibilityParams(max_range_km=edge, require_los=los)
            assert not (surely_out_of_range(a, b, params) and link_feasible(a, b, params))

    def test_sub_metre_ranges(self):
        # The chord of two nearly equal unit vectors has rounding far above a
        # relative 1e-9 of itself; the absolute slack on the chord covers it.
        rng = random.Random(1)
        for _ in range(2000):
            a = GeoPosition(rng.uniform(-89.0, 89.0), rng.uniform(-180.0, 180.0), 0.0)
            e = 10.0 ** rng.uniform(-14.0, -6.0)
            b = GeoPosition(a.latitude_deg + e * rng.uniform(-1.0, 1.0),
                            a.longitude_deg + e * rng.uniform(-1.0, 1.0), 0.0)
            d = geodesic_distance(a, b)
            if d > 0.0:
                params = LinkFeasibilityParams(max_range_km=d, require_los=False)
                assert link_feasible(a, b, params)
                assert not surely_out_of_range(a, b, params)

    def test_rules_out_far_pairs(self):
        params = LinkFeasibilityParams(max_range_km=144.0)
        a = GeoPosition(0.0, 0.0, 0.0)
        assert surely_out_of_range(a, GeoPosition(0.0, lon_for_surface_km(150.0), 0.0), params)
        assert surely_out_of_range(GeoPosition(0.0, 179.0, 0.0), GeoPosition(0.0, -170.0, 0.0),
                                   params)
        assert not surely_out_of_range(a, GeoPosition(0.0, lon_for_surface_km(140.0), 0.0),
                                       params)

    def test_bulk_filter_keeps_keys_in_order(self):
        params = LinkFeasibilityParams(max_range_km=144.0)
        a = GeoPosition(0.0, 0.0, 0.0)
        others = [(km, GeoPosition(0.0, lon_for_surface_km(km), 0.0))
                  for km in (140.0, 150.0, 10.0, 400.0, 143.0, 0.0)]
        assert within_chord_bound(a, others, params) == [140.0, 10.0, 143.0, 0.0]
        assert within_chord_bound(a, [], params) == []

    def test_unit_vector(self):
        p = GeoPosition(90.0, 37.0, 0.0)
        assert p.unit_vector == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)
        assert GeoPosition(0.0, 180.0, 0.0).unit_vector == pytest.approx((-1.0, 0.0, 0.0))
        assert p.unit_vector is p.unit_vector


altitudes = st.one_of(st.sampled_from([-500.0, 0.0, 20_000.0]), st.floats(-500.0, 20_000.0))


@st.composite
def nearby_pairs(draw):
    """(a, b, params): b within about 1.5 ranges of a, anywhere on the
    sphere (poles and the antimeridian included), with ranges from 1 m to
    beyond the Earth's diameter, so cells run from tiny to the whole sphere."""
    max_range = draw(st.one_of(st.sampled_from([1e-3, 144.0, 12_000.0, 40_001.0, 1e5]),
                               st.floats(1e-3, 1e5)))
    params = LinkFeasibilityParams(max_range_km=max_range, require_los=draw(st.booleans()))
    lat = draw(st.one_of(st.sampled_from([-90.0, 90.0]), st.floats(-90.0, 90.0)))
    lon = draw(st.one_of(st.sampled_from([-180.0, 179.9999, 180.0]), st.floats(-180.0, 180.0)))
    reach = math.degrees(min(max_range / EARTH_RADIUS_KM, math.pi)) * draw(st.floats(0.0, 1.5))
    bearing = draw(st.floats(0.0, 2.0 * math.pi))
    a = GeoPosition(lat, lon, draw(altitudes))
    b = GeoPosition(min(90.0, max(-90.0, lat + reach * math.cos(bearing))),
                    lon + reach * math.sin(bearing), draw(altitudes))
    return a, b, params


class TestFeasibleDistance:
    @given(nearby_pairs())
    @settings(max_examples=300)
    def test_matches_the_range_los_and_distance_functions(self, case):
        a, b, params = case
        dist = geodesic_distance(a, b)
        ok = dist <= params.max_range_km and (not params.require_los or line_of_sight(a, b))
        assert feasible_distance(a, b, params) == (dist if ok else None)
        assert link_feasible(a, b, params) == ok


class TestCells:
    """Every pair ``surely_out_of_range`` keeps, feasible pairs among them,
    lies in neighbouring cells of side ``cell_side``: the exactness of the
    acquisition index in ``Network``."""

    @given(nearby_pairs())
    @settings(max_examples=1000)
    def test_kept_pairs_lie_in_neighbouring_cells(self, case):
        a, b, params = case
        side = cell_side(params)
        if not surely_out_of_range(a, b, params):
            assert all(abs(i - j) <= 1 for i, j in zip(cell_of(a, side), cell_of(b, side)))
        else:
            assert not link_feasible(a, b, params)

    # ranges whose widest kept angle runs from 1.6e-7 rad to 0.81 rad
    @pytest.mark.parametrize("max_range", [1e-3, 1.0, 144.0, 1000.0, 5000.0])
    def test_longest_kept_chord_reaches_only_the_next_cell(self, max_range):
        # a sits on the equator at 90 deg east, just inside cell 0 along x; b
        # moves east along the equator, where x falls as -sin(theta), almost
        # the whole chord. At -500 m (the lowest scale), bisect for the widest
        # angle surely_out_of_range keeps: that b must still be in cell -1.
        params = LinkFeasibilityParams(max_range_km=max_range, require_los=False)
        a = GeoPosition(0.0, 90.0, -500.0)

        def b_at(theta):
            return GeoPosition(0.0, 90.0 + math.degrees(theta), -500.0)

        lo, hi = 0.0, math.pi / 2
        assert surely_out_of_range(a, b_at(hi), params)
        for _ in range(100):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if surely_out_of_range(a, b_at(mid), params) else (mid, hi)
        side = cell_side(params)
        assert cell_of(a, side)[0] == 0 and cell_of(b_at(lo), side)[0] == -1

    def test_side_keeps_the_bound_margins(self):
        params = LinkFeasibilityParams(max_range_km=144.0)
        assert cell_side(params) > 144.0 / ((EARTH_RADIUS_KM - 0.5) * (1 - 1e-9)) + 1e-12
        assert cell_side(params) < 144.0 / (EARTH_RADIUS_KM - 0.5) * 1.001
