import heapq
import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soqn.engine import ScenarioEvent, SimEngine
from soqn.geo import (EARTH_RADIUS_KM, GeoPosition, LinkFeasibilityParams, cell_side,
                      feasible_distance, link_feasible, within_chord_bound)
from soqn.network import (DuplicateNodeError, KeyBuffer, KeyStarvationError, LinkInactiveError,
                          Network, NoRouteError, OpticalLink, RoleModeError, UnknownNodeError,
                          pair_key, shortest_path)
from soqn.qkd import ChannelParams, ProtocolParams, path_loss_db
from soqn.rng import RandomStream
from soqn.report import build_report, fmt, render_records
from soqn.runner import build_simulation, install_handler
from soqn.scenario import ScenarioError, parse_scenario

from event_log import records
from relay_chain import relay_chain_oracle, relay_xors, unwind
from test_geo import surely_out_of_range

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

KM_PER_DEG = 111.19492664455873

IDEAL_CHANNEL = ChannelParams(atm_loss_db_per_km=0.0, fixed_system_loss_db=0.0,
                              noise_prob=0.0 + 0.0,
                              detector_efficiency=1.0, intrinsic_error_prob=0.0)
FAST_PROTOCOL = ProtocolParams(min_sift_len=64, safety_margin_bits=0)


def deg(km: float) -> float:
    return km / KM_PER_DEG


def make_network(mode, nodes, seed=0, organize=True, **kwargs):
    """nodes: iterable of (id, role, lat_deg, lon_deg, alt_m)."""
    kwargs.setdefault("channel", IDEAL_CHANNEL)
    kwargs.setdefault("protocol", FAST_PROTOCOL)
    kwargs.setdefault("pulses_per_session", 2048)
    engine = SimEngine(seed)
    network = Network(mode, engine, **kwargs)
    for nid, role, lat, lon, alt in nodes:
        network.add_node(nid, role, GeoPosition(lat, lon, alt))
        network.handle_deploy(nid)
    if organize:
        network.organize_network()
    return engine, network


def may_link(network, a, b):
    """The role rule of ``network._LINKABLE``: peers link to peers, and in
    c/s mode every link has a server end (clients never link to clients)."""
    return network.mode == "p2p" or "server" in (network.nodes[a].role, network.nodes[b].role)


def feasibility_oracle(network):
    """Brute-force role-filtered feasibility graph over deployed nodes."""
    params = network.feasibility
    deployed = [n for n in network.nodes if network.engine.is_deployed(n)]
    expected = set()
    for i, a in enumerate(deployed):
        for b in deployed[i + 1:]:
            if not may_link(network, a, b):
                continue
            if link_feasible(network.nodes[a].position, network.nodes[b].position, params):
                expected.add(pair_key(a, b))
    return expected


def _shortest_path_reference(links, src, dst, can_relay):
    """Reference oracle: Dijkstra over (hops, km, path) on a {pair: km} link set.

    Deterministic min-hop path; ties break by total distance, then by
    lexicographic node-id sequence. ``can_relay(node)`` gates the interior.
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    adj = {}
    for (a, b), w in links.items():
        adj.setdefault(a, []).append((b, w))
        adj.setdefault(b, []).append((a, w))
    best = {src: (0, 0.0, (src,))}
    heap = [(0, 0.0, (src,))]
    while heap:
        hops, dist, path = heapq.heappop(heap)
        node = path[-1]
        if best.get(node, (hops, dist, path)) < (hops, dist, path):
            continue
        if node == dst:
            return list(path)
        if node != src and not can_relay(node):
            continue
        for nbr, w in adj.get(node, ()):
            if nbr in path:
                continue
            cand = (hops + 1, dist + w, path + (nbr,))
            if nbr not in best or cand < best[nbr]:
                best[nbr] = cand
                heapq.heappush(heap, cand)
    raise NoRouteError(f"no route from {src} to {dst}")


def acquisition_delays(engine):
    """Each ``link_active`` record's time less that of its pair's latest
    ``link_up``: the one link of the pair not torn down."""
    up, delays = {}, []
    for rec in records(engine):
        if rec.kind in ("link_up", "link_active"):
            fields = dict(f.split("=", 1) for f in rec.details.split())
            if rec.kind == "link_up":
                up[f"{rec.origin}~{fields['peer']}"] = rec.time
            else:
                delays.append(rec.time - up[fields["pair"]])
    return delays


def link_index(links, inactive=()):
    """The ``{a: {b: link}}`` index of a {pair: km} link set; pairs in
    ``inactive`` are added as links still acquiring."""
    adj = {}
    for pair, km in [*links.items(), *((p, 0.1) for p in inactive)]:
        link = OpticalLink(pair, km, 0.0, 0.0, "acquiring" if pair in inactive else "active")
        adj.setdefault(pair[0], {})[pair[1]] = link
        adj.setdefault(pair[1], {})[pair[0]] = link
    return adj


def route_or_none(route):
    """``route()``, or None where it raises NoRouteError."""
    try:
        return route()
    except NoRouteError:
        return None


class TestOrganize:
    def test_triangle(self):
        _, net = make_network("p2p", [
            ("n1", "peer", 0.0, 0.0, 200.0),
            ("n2", "peer", 0.0, deg(10), 200.0),
            ("n3", "peer", deg(10), 0.0, 200.0),
        ])
        assert len(net.links) == 3
        assert len(net.active_pairs()) == 3
        assert net.table_version == 1

    def test_out_of_range_pair_missing_everywhere(self):
        # n1..n3 clustered, n4 reachable only from n3
        _, net = make_network("p2p", [
            ("n1", "peer", 0.0, 0.0, 300.0),
            ("n2", "peer", 0.0, deg(20), 300.0),
            ("n3", "peer", 0.0, deg(40), 1000.0),
            ("n4", "peer", 0.0, deg(170), 1500.0),
        ])
        expected = feasibility_oracle(net)
        assert ("n3", "n4") in expected and ("n1", "n4") not in expected
        assert net.active_pairs() == expected

    def test_cs_no_client_client_links(self):
        _, net = make_network("cs", [
            ("c1", "client", 0.0, 0.0, 0.0),
            ("c2", "client", 0.0, deg(1), 0.0),
            ("s1", "server", 0.0, deg(5), 0.0),
        ])
        assert set(net.links) == {("c1", "s1"), ("c2", "s1")}
        assert net.audit_roles() == []

    def test_role_mode_conflicts(self):
        engine = SimEngine(0)
        net = Network("p2p", engine)
        with pytest.raises(RoleModeError):
            net.add_node("s", "server", GeoPosition(0, 0, 0))
        net_cs = Network("cs", SimEngine(0))
        with pytest.raises(RoleModeError):
            net_cs.add_node("p", "peer", GeoPosition(0, 0, 0))

    @pytest.mark.parametrize("role", ["peer", "server", "client"])
    @pytest.mark.parametrize("mode", ["p2p", "cs"])
    def test_parser_and_network_agree_on_roles(self, mode, role):
        try:
            parse_scenario(f"mode {mode}\nnode n {role} 0 0 0\n")
            parsed = True
        except ScenarioError as err:
            assert f"role {role!r}" in err.message and mode in err.message
            parsed = False
        try:
            Network(mode, SimEngine(0)).add_node("n", role, GeoPosition(0, 0, 0))
            added = True
        except RoleModeError as err:
            assert f"role {role!r}" in str(err) and mode in str(err)
            added = False
        assert parsed == added == ((mode == "p2p") == (role == "peer"))

    def test_duplicate_node_rejected(self):
        engine = SimEngine(0)
        net = Network("p2p", engine)
        net.add_node("n", "peer", GeoPosition(0, 0, 0))
        with pytest.raises(DuplicateNodeError):
            net.add_node("n", "peer", GeoPosition(1, 1, 0))

    @pytest.mark.parametrize("node_id", ["a\n", "a\nb", "\na", "a b", "", "a~b"])
    def test_malformed_node_id_rejected(self, node_id):
        net = Network("p2p", SimEngine(0))
        with pytest.raises(ValueError, match="node id must match"):
            net.add_node(node_id, "peer", GeoPosition(0, 0, 0))
        assert net.nodes == {}


class TestJoinMove:
    def test_join_adds_links_everywhere(self):
        _, net = make_network("p2p", [
            ("n1", "peer", 0.0, 0.0, 300.0),
            ("n2", "peer", 0.0, deg(20), 300.0),
            ("n3", "peer", 0.0, deg(200), 2000.0),
        ])
        net.add_node("n4", "peer", GeoPosition(0.0, deg(35), 300.0))
        net.handle_deploy("n4")  # organized network -> auto join
        assert net.active_pairs() == feasibility_oracle(net)
        incident = {p for p in net.links if "n4" in p}
        assert incident == {("n1", "n4"), ("n2", "n4")}

    def test_join_matches_batch_organize(self):
        spots = [("a", "peer", 0.0, 0.0, 300.0),
                 ("b", "peer", 0.0, deg(30), 300.0),
                 ("c", "peer", deg(25), deg(10), 500.0),
                 ("d", "peer", deg(60), deg(60), 0.0)]
        _, all_at_once = make_network("p2p", spots)
        _, incremental = make_network("p2p", spots[:2])
        for nid, role, lat, lon, alt in spots[2:]:
            incremental.add_node(nid, role, GeoPosition(lat, lon, alt))
            incremental.handle_deploy(nid)
        assert set(all_at_once.links) == set(incremental.links)

    def test_isolated_client_joins_with_no_links(self):
        _, net = make_network("cs", [
            ("s1", "server", 0.0, 0.0, 0.0),
            ("c1", "client", 0.0, deg(400), 0.0),
        ])
        assert len(net.links) == 0
        rec = net.send_message("c1", "s1", np.ones(8, dtype=np.uint8))
        assert rec.outcome == "no_route"

    def test_move_within_envelope_bumps_version(self):
        _, net = make_network("p2p", [
            ("n1", "peer", 0.0, 0.0, 0.0),
            ("n2", "peer", 0.0, deg(10), 0.0),
        ])
        before = {p for p in net.links}
        v_before = net.table_version
        net.move_node("n1", GeoPosition(0.0, deg(1), 0.0))
        assert {p for p in net.links} == before
        assert net.table_version == v_before + 1

    def test_move_out_of_range_drops_links(self):
        _, net = make_network("p2p", [
            ("n1", "peer", 0.0, 0.0, 0.0),
            ("n2", "peer", 0.0, deg(10), 0.0),
            ("n3", "peer", deg(10), 0.0, 0.0),
        ])
        net.move_node("n1", GeoPosition(60.0, 100.0, 0.0))
        assert all("n1" not in p for p in net.links)
        assert net.active_pairs() == feasibility_oracle(net)

    @pytest.mark.parametrize("delay", [0.0, 0.5])
    def test_random_churn_tracks_oracle(self, delay):
        # Steps run through the engine 0.25 s apart (exact in binary), so a
        # 0.5-s acquisition ends two steps later and some moves fall inside it.
        rng = np.random.default_rng(42)
        nodes = [(f"n{i:02d}", "peer",
                  float(rng.uniform(0, 1.0)), float(rng.uniform(0, 1.0)),
                  float(rng.uniform(0, 2000))) for i in range(12)]
        engine, net = make_network("p2p", nodes, acquire_delay_s=delay)
        install_handler(engine, net, [])
        ids = [n[0] for n in nodes]
        pick = np.random.default_rng(7)
        for step in range(10):
            at = 0.25 * (step + 1)
            if step % 3 == 0 and len(ids) < 20:
                nid = f"n{len(ids):02d}"
                net.add_node(nid, "peer", GeoPosition(float(rng.uniform(0, 1.0)),
                                                      float(rng.uniform(0, 1.0)),
                                                      float(rng.uniform(0, 2000))))
                engine.schedule(ScenarioEvent(at, "deploy", (nid,)))
                ids.append(nid)
            else:
                engine.schedule(ScenarioEvent(at, "move", (
                    str(rng.choice(ids)), float(rng.uniform(0, 1.0)),
                    float(rng.uniform(0, 1.0)), float(rng.uniform(0, 2000)))))
            engine.run_until(at)
            assert net.active_pairs() == {
                p for p in feasibility_oracle(net)
                if net.link_history[p].acquired_at + delay <= engine.now}
            delays = acquisition_delays(engine)
            assert delays == [delay] * len(delays)
            links = {p: net.link_history[p].distance_km for p in net.active_pairs()}
            for _ in range(15):
                src, dst = (str(n) for n in pick.choice(ids, size=2, replace=False))
                assert (route_or_none(lambda: net.find_path(src, dst))
                        == route_or_none(lambda: _shortest_path_reference(
                            links, src, dst, lambda n: True)))
        assert bool(delays) == (delay > 0)
        assert net.audit_tables() == []

    def test_move_inside_delay_keeps_new_link_acquiring(self):
        # The move at t=1 tears a~b down and acquires it again; the event of
        # the torn-down link at t=2 must leave the new one acquiring until t=3.
        engine, net = make_network("p2p", [
            ("a", "peer", 0.0, 0.0, 0.0),
            ("b", "peer", 0.0, deg(10), 0.0),
        ], acquire_delay_s=2.0)
        install_handler(engine, net, [])
        engine.schedule(ScenarioEvent(1.0, "move", ("a", 0.0, deg(1), 0.0)))
        engine.run_until(2.5)
        assert net.link_history[("a", "b")].state == "acquiring"
        engine.run_until(3.0)
        assert net.active_pairs() == {("a", "b")}
        assert [r.time for r in records(engine) if r.kind == "link_active"] == [3.0]

    def test_move_unknown_node(self):
        _, net = make_network("p2p", [("n1", "peer", 0.0, 0.0, 0.0)])
        with pytest.raises(UnknownNodeError):
            net.move_node("ghost", GeoPosition(0, 0, 0))


class AllPairsNetwork(Network):
    """The reference for the cell index: every other deployed node added
    after the ``after``-th is a candidate, in the order nodes were added,
    clients never for clients (the all-pairs loop the index replaces)."""

    def _candidates(self, node_id, after=-1):
        role = self.nodes[node_id].role
        return [b for b in list(self.nodes)[after + 1:]
                if b != node_id and self.engine.is_deployed(b)
                and not (role == "client" == self.nodes[b].role)]


class PerPairNetwork(Network):
    """The reference for the one pass over a node's candidates: each
    candidate is tested on its own, the range bound of one pair
    (``surely_out_of_range``), then the exact test, then the link set-up."""

    def _acquire(self, a, after=-1):
        for b in self._candidates(a, after):
            self._try_acquire(a, b)

    def _try_acquire(self, a, b):
        if b in self._adj.get(a, {}):
            return
        pa, pb = self.nodes[a].position, self.nodes[b].position
        if surely_out_of_range(pa, pb, self.feasibility):
            return
        dist = feasible_distance(pa, pb, self.feasibility)
        if dist is None:
            return
        loss = path_loss_db(dist, self.channel)
        state = "active" if self.acquire_delay_s == 0.0 else "acquiring"
        pair = pair_key(a, b)
        link = OpticalLink(pair, dist, loss, acquired_at=self.engine.now, state=state)
        self._adj.setdefault(a, {})[b] = link
        self._adj.setdefault(b, {})[a] = link
        self.link_history[pair] = link
        self.engine.emit("link_up", pair[0],
                         f"peer={pair[1]} dist_km={dist:.6g} loss_db={loss:.6g} state={state}")
        if state == "acquiring":
            self.engine.schedule(ScenarioEvent(self.engine.now + self.acquire_delay_s,
                                               "link_active", (link,)))


ALTITUDES = st.one_of(st.sampled_from([-500.0, 0.0, 20_000.0]), st.floats(-500.0, 20_000.0))


@st.composite
def churn_layouts(draw):
    """(mode, feasibility, nodes, late, moves): 2-10 nodes within about two
    ranges of a point anywhere on the sphere (poles and the antimeridian
    included), the indices of the nodes that deploy after the organize
    round, and (index, position) moves. Ranges run from 1 m to beyond the
    Earth's diameter, so cells run from tiny to the whole sphere."""
    mode = draw(st.sampled_from(["p2p", "cs"]))
    max_range = draw(st.one_of(st.sampled_from([1e-3, 144.0, 12_000.0, 1e5]),
                               st.floats(1e-3, 1e5)))
    feasibility = LinkFeasibilityParams(max_range_km=max_range, require_los=draw(st.booleans()))
    lat0 = draw(st.one_of(st.sampled_from([-90.0, 0.0, 90.0]), st.floats(-90.0, 90.0)))
    lon0 = draw(st.one_of(st.sampled_from([-180.0, 179.9999]), st.floats(-180.0, 180.0)))
    reach = math.degrees(min(max_range / EARTH_RADIUS_KM, math.pi))

    def spot():
        lat = lat0 + reach * draw(st.floats(-2.0, 2.0))
        return GeoPosition(min(90.0, max(-90.0, lat)), lon0 + reach * draw(st.floats(-2.0, 2.0)),
                           draw(ALTITUDES))

    n = draw(st.integers(2, 10))
    roles = (["peer"] * n if mode == "p2p"
             else draw(st.lists(st.sampled_from(["server", "client"]), min_size=n, max_size=n)))
    nodes = [(f"n{i}", role, spot()) for i, role in enumerate(roles)]
    late = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    moves = [(draw(st.integers(0, n - 1)), spot()) for _ in range(draw(st.integers(0, 6)))]
    return mode, feasibility, nodes, late, moves


def run_churn(cls, mode, feasibility, nodes, late, moves, acquire_delay_s=0.0):
    """Organize the early nodes, then deploy the late ones and make the
    moves of deployed nodes, alternately, one step a second (links still
    acquiring activate in between); returns the network."""
    engine = SimEngine(0)
    net = cls(mode, engine, feasibility=feasibility, channel=IDEAL_CHANNEL,
              protocol=FAST_PROTOCOL, acquire_delay_s=acquire_delay_s)
    install_handler(engine, net, [])
    for nid, role, pos in nodes:
        net.add_node(nid, role, pos)
    for i, (nid, _, _) in enumerate(nodes):
        if i not in late:
            net.handle_deploy(nid)
    net.organize_network()
    joins = [nodes[i][0] for i in sorted(late)]
    for step in range(max(len(joins), len(moves))):
        engine.run_until(step + 1.0)
        if step < len(joins):
            net.handle_deploy(joins[step])
        if step < len(moves):
            nid = nodes[moves[step][0]][0]
            if engine.is_deployed(nid):
                net.move_node(nid, moves[step][1])
    return net


def link_records(engine):
    return [line for line in engine.log_lines() if line.split("\t")[2] in ("link_up", "link_down")]


class TestCellIndex:
    @given(churn_layouts())
    @settings(max_examples=300, deadline=None)
    def test_every_feasible_pair_is_a_candidate(self, layout):
        mode, feasibility, nodes, _, moves = layout
        net = run_churn(Network, mode, feasibility, nodes, set(), moves)
        order = {nid: i for i, (nid, _, _) in enumerate(nodes)}
        for a in net.nodes:
            found, later = set(net._candidates(a)), set(net._candidates(a, order[a]))
            for b in net.nodes:
                if a != b and may_link(net, a, b) and link_feasible(
                        net.nodes[a].position, net.nodes[b].position, feasibility):
                    assert b in found
                    assert (b in later) == (order[b] > order[a])
        assert net.audit_tables() == []

    @given(churn_layouts())
    @settings(max_examples=200, deadline=None)
    def test_links_match_a_test_of_every_pair(self, layout):
        net = run_churn(Network, *layout)
        ref = run_churn(AllPairsNetwork, *layout)
        assert link_records(net.engine) == link_records(ref.engine)
        assert net.engine.log_lines() == ref.engine.log_lines()
        assert net.audit_tables() == []

    @pytest.mark.parametrize("delay", [0.0, 0.5])
    @given(layout=churn_layouts())
    @settings(max_examples=150, deadline=None)
    def test_one_pass_matches_a_test_of_each_pair(self, delay, layout):
        net = run_churn(Network, *layout, acquire_delay_s=delay)
        ref = run_churn(PerPairNetwork, *layout, acquire_delay_s=delay)
        for done in (net, ref):  # a second round, in which linked pairs are skipped
            done.organize_network()
        assert net.engine.log_lines() == ref.engine.log_lines()
        assert net.link_history == ref.link_history
        assert net.audit_tables() == []

    def test_acquisition_tests_stay_linear_in_nodes(self, monkeypatch):
        # 20 x 20 peers 130 km apart astride the equator, 1000 m up (every
        # pair in range has line of sight), organized, then 20 moves. Each
        # pair test is a candidate handed to the range bound.
        calls = 0

        def counting(a, others, params):
            nonlocal calls
            others = list(others)
            calls += len(others)
            return within_chord_bound(a, others, params)

        monkeypatch.setattr("soqn.network.within_chord_bound", counting)
        spacing = 130.0
        grid = [(f"g{r:02d}{c:02d}", "peer", deg((r - 9.5) * spacing), deg((c - 9.5) * spacing),
                 1000.0) for r in range(20) for c in range(20)]
        _, net = make_network("p2p", grid)
        rng = random.Random(5)
        for _ in range(20):
            net.move_node(rng.choice(grid)[0], GeoPosition(deg(rng.uniform(-9.5, 9.5) * spacing),
                                                           deg(rng.uniform(-9.5, 9.5) * spacing),
                                                           1000.0))
        n, moves = len(grid), 20
        # A candidate lies in the 3 x 3 x 3 cells around the node's, so its
        # unit vector is at most 2 cell sides away along each axis: a chord
        # of at most 2 sqrt(3) sides, r = 2 sqrt(3) * side * R km on the
        # surface (the arc exceeds R times the chord by under 0.1% here). A
        # grid point owns its spacing-by-spacing square, which lies within
        # r + spacing / sqrt(2) of any point it is within r of; longitude
        # spacing is at least cos(11.1 deg) = 0.98 of the latitude one, so at
        # most pi (r / spacing + 1)^2 grid points lie within r of any point.
        r = 2 * math.sqrt(3) * cell_side(net.feasibility) * EARTH_RADIUS_KM * 1.001
        near = math.pi * (r / spacing + 1) ** 2
        # Organize tests each neighbouring pair once; each move tests at most
        # the grid points near its new position plus the 20 moved nodes.
        multiple = (n * near / 2 + moves * (near + moves)) / n
        assert multiple < 42  # about 74 nodes near each; all pairs would be 219 N
        assert 0 < calls <= multiple * n
        assert net.active_pairs() == feasibility_oracle(net)

    def test_audit_reports_cell_index_faults(self):
        _, net = make_network("p2p", [("a", "peer", 0.0, 0.0, 0.0),
                                      ("b", "peer", 0.0, deg(10), 0.0)])
        net.add_node("c", "peer", GeoPosition(0.0, deg(20), 0.0))  # not deployed
        assert net.audit_tables() == []
        net.nodes["a"].position = GeoPosition(40.0, 40.0, 0.0)  # behind the index's back
        assert net.audit_tables() == ["node a missing from the cell of its position",
                                      "cell index lists a where it is not"]
        net.move_node("a", GeoPosition(0.0, 0.0, 0.0))
        assert net.audit_tables() == []
        net._cells["peer"][net._cell_at["b"]].add("c")
        assert net.audit_tables() == ["cell index lists c where it is not"]
        net._cells["peer"][net._cell_at["b"]].remove("c")
        net._cell_at["c"] = net._cell_at["b"]
        assert net.audit_tables() == ["cell index places c, which is not deployed"]


def churn_scenario(seed=3, side=20, span_deg=12.5):
    """``side`` x ``side`` peers on a jittered grid (one per cell of
    ``span_deg / side`` degrees, about 70 km), 4 of them deployed late,
    20 moves of peers that stay inside the grid and 10 sends between peers
    that stay put. Links take 0.5 s to acquire."""
    rng = random.Random(seed)
    cell = span_deg / side
    ids = [f"p{i:03d}" for i in range(side * side)]
    late = set(rng.sample(ids, 4))
    movers = rng.sample([nid for nid in ids if nid not in late], 20)
    stay = [nid for nid in ids if nid not in late and nid not in movers]
    lines = [f"mode p2p\nseed {seed}\nparam acquire_delay_s 0.5\n"
             "param atm_loss_db_per_km 0.05\nparam fixed_system_loss_db 0\n"
             "param min_sift_len 256\nparam pulses_per_session 8192\n"]
    for i, nid in enumerate(ids):
        lat = (i // side + rng.random()) * cell - span_deg / 2
        lon = (i % side + rng.random()) * cell
        deploy = f" deploy={rng.uniform(5.0, 60.0):.3f}" if nid in late else ""
        lines.append(f"node {nid} peer {lat:.5f} {lon:.5f} {rng.uniform(500.0, 2000.0):.1f}{deploy}\n")
    for i, nid in enumerate(movers):
        lat = rng.uniform(-span_deg / 2 + 2 * cell, span_deg / 2 - 2 * cell)
        lon = rng.uniform(2 * cell, span_deg - 2 * cell)
        lines.append(f"at {2.0 + 3.0 * i:.3f} move {nid} {lat:.5f} {lon:.5f} 1000.0\n")
    for i in range(10):
        a, b = rng.sample(stay, 2)
        lines.append(f"at {3.5 + 6.0 * i:.3f} send {a} {b} hex:{rng.getrandbits(32):08x}\n")
    return "".join(lines)


def cs_churn_scenario(seed=5, span_deg=3.6):
    """16 servers at 3000 m on a 4 x 4 grid and 100 clients on a jittered
    10 x 10 grid over ``span_deg`` degrees (neighbouring servers lie within
    range of each other). One server and 6 clients deploy late; 26 clients
    move, 5 of them out of every server's range, and 2 servers move inside
    the grid; 12 sends go between clients that stay put. Links take 0.5 s
    to acquire."""
    rng = random.Random(seed)
    servers = [f"s{i:02d}" for i in range(16)]
    clients = [f"c{i:03d}" for i in range(100)]
    late = {rng.choice(servers), *rng.sample(clients, 6)}
    movers = rng.sample([c for c in clients if c not in late], 26)
    stay = [c for c in clients if c not in late and c not in movers]
    lines = [f"mode cs\nseed {seed}\nparam acquire_delay_s 0.5\n"
             "param atm_loss_db_per_km 0.05\nparam fixed_system_loss_db 0\n"
             "param min_sift_len 256\nparam pulses_per_session 8192\n"]

    def node(nid, role, lat, lon, alt):
        deploy = f" deploy={rng.uniform(5.0, 50.0):.3f}" if nid in late else ""
        lines.append(f"node {nid} {role} {lat:.5f} {lon:.5f} {alt:.1f}{deploy}\n")

    cell = span_deg / 4
    for i, nid in enumerate(servers):
        node(nid, "server", (i // 4 + 0.35 + 0.3 * rng.random()) * cell - span_deg / 2,
             (i % 4 + 0.35 + 0.3 * rng.random()) * cell, 3000.0)
    cell = span_deg / 10
    for i, nid in enumerate(clients):
        node(nid, "client", (i // 10 + rng.random()) * cell - span_deg / 2,
             (i % 10 + rng.random()) * cell, rng.uniform(50.0, 300.0))
    moves = [*movers, *rng.sample([s for s in servers if s not in late], 2)]
    for i, nid in enumerate(moves):
        lat = rng.uniform(-span_deg / 2, span_deg / 2)
        if i < 5:
            lat += span_deg + 2.0  # far north of the grid
        lines.append(f"at {2.0 + 2.0 * i:.3f} move {nid} {lat:.5f} "
                     f"{rng.uniform(0.0, span_deg):.5f} {rng.uniform(50.0, 3000.0):.1f}\n")
    for i in range(12):
        a, b = rng.sample(stay, 2)
        lines.append(f"at {3.5 + 4.5 * i:.3f} send {a} {b} hex:{rng.getrandbits(32):08x}\n")
    return "".join(lines)


def relays_of(net):
    """The ``can_relay`` that ``Network.find_path`` uses."""
    return (lambda n: net.nodes[n].role == "server") if net.mode == "cs" else (lambda n: True)


def routes_match_the_reference(text, checkpoints, pairs_each, seed=1):
    """Run a scenario, stopping at each of ``checkpoints`` (None: its last
    event), and compare ``find_path`` with the reference search there on
    ``pairs_each`` seeded ordered pairs of deployed nodes, each node with no
    active link paired with a random node both ways among them. Returns
    the number of pairs compared and how many had no route."""
    engine, net = build_simulation(parse_scenario(text))
    install_handler(engine, net, [])
    rng = random.Random(seed)
    compared = unreachable = 0
    for at in checkpoints:
        engine.run_until(at)
        links = {p: link.distance_km for p, link in net.link_history.items()
                 if link.state == "active"}
        deployed = [n for n in net.nodes if engine.is_deployed(n)]
        cut_off = [n for n in deployed
                   if all(link.state != "active" for link in net._adj.get(n, {}).values())]
        pairs = [pair for n in cut_off for other in [rng.choice(deployed)] if other != n
                 for pair in ((n, other), (other, n))]
        pairs += [tuple(rng.sample(deployed, 2)) for _ in range(pairs_each - len(pairs))]
        for src, dst in pairs:
            route = route_or_none(lambda: net.find_path(src, dst))
            assert route == route_or_none(lambda: _shortest_path_reference(
                links, src, dst, relays_of(net))), (at, src, dst)
            unreachable += route is None
        compared += len(pairs)
    return compared, unreachable


class IteratedRow(dict):
    """A row of a link index that adds ``owner`` to ``seen`` when it is
    iterated or its keys, values or items are taken."""

    def __init__(self, owner, seen, row):
        super().__init__(row)
        self.owner, self.seen = owner, seen

    def __iter__(self):
        self.seen.add(self.owner)
        return super().__iter__()

    def keys(self):
        self.seen.add(self.owner)
        return super().keys()

    def values(self):
        self.seen.add(self.owner)
        return super().values()

    def items(self):
        self.seen.add(self.owner)
        return super().items()


def assert_search_stops_before_dst_level(adj, src, dst, can_relay):
    """Route src to dst over ``adj`` and check that the search iterated no
    row of a node H - 1 or more levels from src, dst's own excepted, where
    H is the route's hop count and a node's level is its hop distance over
    active links with only src and relays expanded. Returns the route."""
    seen: set = set()
    route = shortest_path({n: IteratedRow(n, seen, row) for n, row in adj.items()},
                          src, dst, can_relay)
    level = {src: 0}
    frontier = [src]
    while frontier:
        reached = [nbr for node in frontier if node == src or can_relay(node)
                   for nbr, link in adj.get(node, {}).items()
                   if link.state == "active" and nbr not in level]
        for nbr in reached:
            level[nbr] = level[frontier[0]] + 1
        frontier = list(dict.fromkeys(reached))
    hops = len(route) - 1
    assert level[dst] == hops
    assert sorted(n for n in seen - {dst} if n not in level or level[n] >= hops - 1) == []
    return route


class TestInvariantsAtScale:
    @pytest.fixture(scope="class")
    def runs(self):
        """The churn scenario run twice, each to its last event."""
        sc = parse_scenario(churn_scenario())
        out = []
        for _ in range(2):
            engine, net = build_simulation(sc)
            install_handler(engine, net, [])
            engine.run_until()
            out.append((engine, net))
        return out

    def test_audits_stay_clean(self, runs):
        engine, net = runs[0]
        assert len(net.nodes) == 400 and len(net.link_history) > 1000
        kinds = [line.split("\t")[2] for line in engine.log_lines()]
        assert (kinds.count("move"), kinds.count("join")) == (20, 4) and "link_down" in kinds
        assert net.keygen_events and net.consume_events
        assert net.audit_tables() == []
        assert net.audit_otp() == []

    def test_link_records_agree_with_link_history(self, runs):
        engine, net = runs[0]
        last: dict[tuple[str, str], tuple[str, str, dict[str, str]]] = {}
        for line in engine.log_lines():
            time, _, kind, origin, details = line.split("\t")
            fields = dict(f.split("=", 1) for f in details.split(" "))
            if kind == "link_up":
                last[(origin, fields["peer"])] = (kind, time, fields)
            elif kind == "link_down":
                last[tuple(fields["pair"].split("~"))] = (kind, time, fields)
        assert last.keys() == net.link_history.keys()
        for pair, link in net.link_history.items():
            kind, time, fields = last[pair]
            assert (kind == "link_down") == (link.state == "torn_down")
            if kind == "link_up":
                assert time == f"{link.acquired_at:.6f}"
                assert fields["dist_km"] == fmt(link.distance_km)
                assert fields["loss_db"] == fmt(link.loss_db)

    def test_two_runs_write_the_same_lines(self, runs):
        assert runs[0][0].log_lines() == runs[1][0].log_lines()

    def test_routes_match_the_reference(self):
        # Each stop falls 0.25 s after a move, inside its links' acquisition.
        compared, unreachable = routes_match_the_reference(
            churn_scenario(), (2.25, 17.25, 35.25, 47.25, None), 64)
        assert compared >= 300 and unreachable > 0

    def test_search_stops_before_the_level_of_dst(self, runs):
        engine, net = runs[0]
        rng = random.Random(2)
        deployed = [n for n in net.nodes if engine.is_deployed(n)]
        hops = [len(assert_search_stops_before_dst_level(
                    net._adj, *rng.sample(deployed, 2), relays_of(net))) - 1
                for _ in range(40)]
        assert max(hops) >= 8


    def test_report_totals_match_the_log(self, runs):
        engine, net = runs[0]
        report = build_report(net, engine, [])
        assert report.violations == []
        qkd = aborted = generated = consumed = 0
        state: dict[str, str] = {}
        for line in engine.log_lines():
            _, _, kind, origin, details = line.split("\t")
            if kind not in ("qkd", "keygen", "consume", "link_up", "link_down", "link_active"):
                continue
            fields = dict(f.split("=", 1) for f in details.split(" "))
            if kind == "qkd":
                qkd += 1
                aborted += fields["outcome"] == "abort"
            elif kind == "keygen":
                generated += int(fields["bits"])
            elif kind == "consume":
                consumed += int(fields["bits"])
            elif kind == "link_up":
                state[f"{origin}~{fields['peer']}"] = fields["state"]
            else:
                state[fields["pair"]] = "torn_down" if kind == "link_down" else "active"
        assert qkd and generated and consumed
        assert "torn_down" in state.values() and len(state) == len(net.link_history)
        summary = report.summary
        assert (summary["sessions"], summary["sessions_aborted"]) == (qkd, aborted)
        assert (summary["key_bits_generated"], summary["key_bits_consumed"]) == (generated, consumed)
        assert summary["active_links"] == list(state.values()).count("active")


class TestCsInvariantsAtScale:
    @pytest.fixture(scope="class")
    def run(self):
        """The cs churn scenario run to its last event."""
        engine, net = build_simulation(parse_scenario(cs_churn_scenario()))
        install_handler(engine, net, [])
        engine.run_until()
        return engine, net

    def test_audits_stay_clean(self, run):
        engine, net = run
        roles = [node.role for node in net.nodes.values()]
        assert (roles.count("server"), roles.count("client")) == (16, 100)
        kinds = [line.split("\t")[2] for line in engine.log_lines()]
        assert (kinds.count("move"), kinds.count("join")) == (28, 7) and "link_down" in kinds
        delivered = [r for r in net.deliveries if r.delivered]
        assert any(len(r.path) > 3 for r in delivered)
        assert net.audit_roles() == []
        assert net.audit_tables() == []
        assert net.audit_otp() == []

    def test_routes_match_the_reference(self):
        # Servers alone relay; each stop falls 0.25 s after a move.
        compared, unreachable = routes_match_the_reference(
            cs_churn_scenario(), (2.25, 12.25, 30.25, 50.25, None), 64)
        assert compared >= 300 and unreachable > 0

    def test_search_stops_before_the_level_of_dst(self, run):
        engine, net = run
        rng = random.Random(3)
        clients = [n for n in net.nodes if engine.is_deployed(n) and net.nodes[n].role == "client"]
        routes = []
        while len(routes) < 20:
            src, dst = rng.sample(clients, 2)
            if route_or_none(lambda: net.find_path(src, dst)):
                routes.append(assert_search_stops_before_dst_level(
                    net._adj, src, dst, relays_of(net)))
        assert max(map(len, routes)) >= 5


def charged_and_aborted(net, pairs):
    """Split ``pairs`` into those holding ``precharge_bits`` and those whose
    last session aborted; every pair must be one or the other."""
    charged = {p for p in pairs
               if p in net.buffers and net.buffers[p].available >= net.precharge_bits}
    aborted = {p for p in pairs - charged
               if p in net.session_stats and net.session_stats[p][-1].aborted}
    assert charged | aborted == pairs
    return charged, aborted


class TestPrecharge:
    # 1000 bits take two ideal 2048-pulse sessions; the pair a~c, under an
    # eavesdropper, aborts its first one and stays uncharged. e is out of
    # everyone's range until d moves next to it.
    NODES = [
        ("a", "peer", 0.0, 0.0, 0.0),
        ("b", "peer", 0.0, deg(5), 0.0),
        ("c", "peer", deg(5), 0.0, 0.0),
        ("e", "peer", 0.0, deg(300), 0.0),
    ]

    def test_every_active_pair_charged_after_each_topology_change(self):
        _, net = make_network("p2p", self.NODES, organize=False, precharge_bits=1000)
        net.set_eve("a", "c", True)
        charged = lambda: charged_and_aborted(net, net.active_pairs())

        net.organize_network()
        assert charged() == ({("a", "b"), ("b", "c")}, {("a", "c")})
        net.add_node("d", "peer", GeoPosition(deg(5), deg(5), 0.0))
        net.handle_deploy("d")  # organized network -> join
        assert charged() == (
            {("a", "b"), ("b", "c"), ("a", "d"), ("b", "d"), ("c", "d")}, {("a", "c")})
        net.move_node("d", GeoPosition(0.0, deg(305), 0.0))
        assert charged() == ({("a", "b"), ("b", "c"), ("d", "e")}, {("a", "c")})
        assert len(net.session_stats[("d", "e")]) == 2

    def test_each_link_charged_when_it_finishes_acquiring(self, monkeypatch):
        # Links come up acquiring, so organize, join and move find no active
        # pair to charge; each link_active charges its own pair at once.
        engine, net = make_network("p2p", self.NODES, organize=False, precharge_bits=1000,
                                   acquire_delay_s=0.5)
        net.set_eve("a", "c", True)
        install_handler(engine, net, [])
        activated = []
        activate = net.activate_link

        def activate_and_check(link):
            activate(link)
            activated.append(link.endpoints)
            charged_and_aborted(net, {link.endpoints})

        monkeypatch.setattr(net, "activate_link", activate_and_check)
        engine.schedule(ScenarioEvent(0.0, "organize"))
        engine.run_until(0.25)
        assert net.active_pairs() == set() and net.session_stats == {}
        net.add_node("d", "peer", GeoPosition(deg(5), deg(5), 0.0))
        engine.schedule(ScenarioEvent(1.0, "deploy", ("d",)))
        engine.schedule(ScenarioEvent(2.0, "move", ("d", 0.0, deg(305), 0.0)))
        engine.run_until()
        assert activated == [("a", "b"), ("a", "c"), ("b", "c"),
                             ("a", "d"), ("b", "d"), ("c", "d"), ("d", "e")]
        assert charged_and_aborted(net, net.active_pairs()) == (
            {("a", "b"), ("b", "c"), ("d", "e")}, {("a", "c")})

    def test_activation_charges_only_its_own_pair(self, monkeypatch):
        # A churn run with both params set: each activation tops up its own
        # pair with one _ensure_key call, not one per active pair. A full
        # scan would make as many calls as there are active pairs.
        rng = np.random.default_rng(5)
        nodes = [(f"n{i:02d}", "peer", float(rng.uniform(0, 1.0)), float(rng.uniform(0, 1.0)),
                  float(rng.uniform(0, 2000))) for i in range(16)]
        engine, net = make_network("p2p", nodes, organize=False, precharge_bits=256,
                                   acquire_delay_s=0.5)
        install_handler(engine, net, [])
        calls = []
        ensure, activate = net._ensure_key, net.activate_link
        monkeypatch.setattr(net, "_ensure_key", lambda hop, need: calls.append(hop)
                            or ensure(hop, need))
        activations = []  # (the calls it made, its own pair's, active pairs after)

        def activate_and_count(link):
            before, acquiring = len(calls), link.state == "acquiring"
            activate(link)
            activations.append((calls[before:], [link.endpoints] if acquiring else [],
                                len(net.active_pairs())))

        monkeypatch.setattr(net, "activate_link", activate_and_count)
        engine.schedule(ScenarioEvent(0.0, "organize"))
        for step in range(12):
            engine.schedule(ScenarioEvent(0.25 * (step + 1), "move", (
                nodes[int(rng.integers(len(nodes)))][0], float(rng.uniform(0, 1.0)),
                float(rng.uniform(0, 1.0)), float(rng.uniform(0, 2000)))))
        engine.run_until()
        assert all(made == own for made, own, _ in activations)
        assert sum(1 for _, own, _ in activations if own) >= 200
        assert max(active for _, _, active in activations) >= 100

class TestFindPath:
    def test_direct_link(self):
        _, net = make_network("p2p", [
            ("a", "peer", 0.0, 0.0, 0.0),
            ("b", "peer", 0.0, deg(10), 0.0),
        ])
        assert net.find_path("a", "b") == ["a", "b"]
        assert net.find_path("b", "a") == ["b", "a"]

    def test_single_relay(self):
        _, net = make_network("p2p", [
            ("a", "peer", 0.0, 0.0, 500.0),
            ("r", "peer", 0.0, deg(100), 500.0),
            ("b", "peer", 0.0, deg(200), 3000.0),
        ])
        assert ("a", "b") not in net.links
        assert net.find_path("a", "b") == ["a", "r", "b"]

    def test_no_route(self):
        _, net = make_network("p2p", [
            ("a", "peer", 0.0, 0.0, 0.0),
            ("b", "peer", 20.0, 100.0, 0.0),
        ])
        with pytest.raises(NoRouteError):
            net.find_path("a", "b")

    def test_same_node_rejected(self):
        _, net = make_network("p2p", [("a", "peer", 0.0, 0.0, 0.0)])
        with pytest.raises(ValueError):
            net.find_path("a", "a")

    def test_lexicographic_tie_break(self):
        # two symmetric 2-hop routes; the lexicographically smaller relay wins
        _, net = make_network("p2p", [
            ("a", "peer", 0.0, 0.0, 0.0),
            ("b", "peer", 0.0, deg(200), 0.0),
            ("m", "peer", deg(30), deg(100), 2000.0),
            ("z", "peer", -deg(30), deg(100), 2000.0),
        ])
        assert net.find_path("a", "b") == ["a", "m", "b"]

    def test_distance_beats_lexicographic(self):
        # 'z' offers the shorter 2-hop route, so it wins over 'm'
        _, net = make_network("p2p", [
            ("a", "peer", 0.0, 0.0, 0.0),
            ("b", "peer", 0.0, deg(200), 0.0),
            ("m", "peer", deg(40), deg(100), 2500.0),
            ("z", "peer", deg(20), deg(100), 2500.0),
        ])
        assert net.find_path("a", "b") == ["a", "z", "b"]

    def test_min_hop_beats_distance(self):
        links = {("a", "b"): 100.0, ("a", "r"): 1.0, ("b", "r"): 1.0}
        assert _shortest_path_reference(links, "a", "b", lambda n: True) == ["a", "b"]
        assert shortest_path(link_index(links), "a", "b", lambda n: True) == ["a", "b"]

    @pytest.mark.parametrize("tail", [(), ("m",)])
    def test_km_tie_goes_to_the_smaller_sequence(self, tail):
        # s-a-z and s-b-y both cover 2 km, and the routes on to d as much;
        # the sequences first differ at a < b, so the route through a wins
        # although its last relay z sorts after y. With ("m",) the tie falls
        # on m, a level before d's.
        links = {("a", "s"): 1.5, ("a", "z"): 0.5, ("b", "s"): 0.5, ("b", "y"): 1.5}
        for last in ("y", "z"):
            links[pair_key(last, tail[0] if tail else "d")] = 1.0
        if tail:
            links[("d", "m")] = 1.0
        expected = ["s", "a", "z", *tail, "d"]
        assert _shortest_path_reference(links, "s", "d", lambda n: True) == expected
        assert shortest_path(link_index(links), "s", "d", lambda n: True) == expected
        # From d the sequences first differ at y < z.
        assert shortest_path(link_index(links), "d", "s", lambda n: True) == [
            "d", *tail, "y", "b", "s"]

    def test_near_km_ties_follow_the_left_to_right_sum(self):
        # 0.1 + 0.2 exceeds 0.3 in floats, and 0.15 + 0.15 equals it, so z
        # wins over a; 0.2 + 0.1 ties 0.1 + 0.2 exactly, so a wins over b.
        links = {("a", "s"): 0.1, ("a", "d"): 0.2, ("s", "z"): 0.15, ("d", "z"): 0.15}
        assert 0.1 + 0.2 > 0.3 == 0.15 + 0.15
        assert shortest_path(link_index(links), "s", "d", lambda n: True) == ["s", "z", "d"]
        del links[("s", "z")]
        links[("b", "s")], links[("b", "d")] = 0.2, 0.1
        assert 0.2 + 0.1 == 0.1 + 0.2
        assert shortest_path(link_index(links), "s", "d", lambda n: True) == ["s", "a", "d"]
        # The same sums one level before d: (0.1 + 0.2) + 0.3 exceeds
        # (0.3 + 0.2) + 0.1, so the route through x wins.
        links = {("a", "s"): 0.1, ("a", "b"): 0.2, ("b", "d"): 0.3,
                 ("s", "x"): 0.3, ("x", "y"): 0.2, ("d", "y"): 0.1}
        assert (0.1 + 0.2) + 0.3 > (0.3 + 0.2) + 0.1
        for src, dst, expected in (("s", "d", ["s", "x", "y", "d"]),
                                   ("d", "s", ["d", "b", "a", "s"])):
            assert _shortest_path_reference(links, src, dst, lambda n: True) == expected
            assert shortest_path(link_index(links), src, dst, lambda n: True) == expected

    def test_dst_with_only_acquiring_links_has_no_route(self):
        adj = link_index({("a", "b"): 1.0, ("b", "c"): 1.0}, inactive={("c", "d"), ("a", "d")})
        for src, dst in (("a", "d"), ("d", "a")):
            with pytest.raises(NoRouteError, match=f"no route from {src} to {dst}"):
                shortest_path(adj, src, dst, lambda n: True)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_level_search_matches_reference(self, data):
        # km values whose float sums tie and nearly tie (0.1 + 0.2 != 0.3)
        ids = data.draw(st.lists(st.text("ab1Z9", min_size=1, max_size=3),
                                 min_size=2, max_size=9, unique=True))
        pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        kms = data.draw(st.lists(st.sampled_from([0.1, 0.2, 0.3, 1.0, 2.0]),
                                 min_size=len(chosen), max_size=len(chosen)))
        active = data.draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
        relays = data.draw(st.sets(st.sampled_from(ids)))
        links = {pair_key(*p): km for p, km, on in zip(chosen, kms, active) if on}
        inactive = {pair_key(*p) for p, on in zip(chosen, active) if not on}
        adj = link_index(links, inactive)
        can_relay = relays.__contains__
        for src in ids:
            for dst in ids:
                if src != dst:
                    assert (route_or_none(lambda: shortest_path(adj, src, dst, can_relay))
                            == route_or_none(lambda: _shortest_path_reference(
                                links, src, dst, can_relay)))

    def test_cs_interior_must_be_servers(self):
        # s1-c-s2 is the only geometric 2-hop path, but clients cannot relay
        _, net = make_network("cs", [
            ("s1", "server", 0.0, 0.0, 0.0),
            ("c", "client", 0.0, deg(100), 2000.0),
            ("s2", "server", 0.0, deg(200), 0.0),
        ])
        assert set(net.links) == {("c", "s1"), ("c", "s2")}
        with pytest.raises(NoRouteError):
            net.find_path("s1", "s2")

    def test_cs_client_to_client_via_server(self):
        _, net = make_network("cs", [
            ("c1", "client", 0.0, 0.0, 0.0),
            ("c2", "client", 0.0, deg(2), 0.0),
            ("s", "server", 0.0, deg(1), 0.0),
        ])
        assert net.find_path("c1", "c2") == ["c1", "s", "c2"]

    def test_acquiring_link_is_routed_once_active(self):
        _, net = make_network("p2p", [
            ("a", "peer", 0.0, 0.0, 0.0),
            ("b", "peer", 0.0, deg(10), 0.0),
        ], acquire_delay_s=2.0)
        assert net.links[("a", "b")].state == "acquiring"
        assert net.active_pairs() == frozenset()
        with pytest.raises(NoRouteError):
            net.find_path("a", "b")
        version = net.table_version
        net.activate_link(net.link_history[("a", "b")])
        assert net.find_path("a", "b") == ["a", "b"]
        assert net.table_version == version + 1
        assert net.audit_tables() == []

    def test_audit_catches_corrupt_link_index(self):
        _, net = make_network("p2p", [
            ("a", "peer", 0.0, 0.0, 0.0),
            ("b", "peer", 0.0, deg(10), 0.0),
        ])
        assert net.audit_tables() == []
        link = net._adj["b"].pop("a")
        assert net.audit_tables() == ["link a~b missing from the index of b"]
        net._adj["b"]["a"] = link
        net._adj["b"]["c"] = link
        assert net.audit_tables() == ["index of b lists c with no link"]
        del net._adj["b"]["c"]
        net._adj["b"]["a"] = OpticalLink(("a", "b"), link.distance_km, 0.0, 0.0)
        assert net.audit_tables() == ["link a~b missing from the index of b",
                                      "index of b lists a with no link"]

    def test_undeployed_source_has_no_table(self):
        _, net = make_network("p2p", [("a", "peer", 0.0, 0.0, 0.0)])
        net.add_node("late", "peer", GeoPosition(0.0, deg(5), 0.0))
        with pytest.raises(UnknownNodeError, match="has no routing table"):
            net.find_path("late", "a")


class TestKeyBuffer:
    def test_consume_once_discipline(self):
        buf = KeyBuffer(("a", "b"))
        buf.append(4)
        assert buf.consume(3) == 0
        assert buf.available == 1
        with pytest.raises(KeyStarvationError):
            buf.consume(2)

    def test_starvation_names_hop(self):
        buf = KeyBuffer(("a", "b"))
        with pytest.raises(KeyStarvationError) as err:
            buf.consume(5)
        assert err.value.hop == ("a", "b")

    def test_starvation_carries_the_bit_counts(self):
        buf = KeyBuffer(("a", "b"))
        buf.append(3)
        with pytest.raises(KeyStarvationError) as err:
            buf.consume(5)
        assert (err.value.needed, err.value.available) == (5, 3)

    def test_consume_spans_chunks(self):
        # a block may span the bits of several appends, an empty one included
        buf = KeyBuffer(("a", "b"))
        assert [buf.append(n) for n in (3, 0, 2, 4)] == [0, 3, 3, 5]
        assert buf.consume(2) == 0
        assert buf.consume(5) == 2  # the rest of the first append, the third, one bit of the fourth
        assert buf.consume(0) == 7
        assert (buf.total_generated, buf.consumed_offset, buf.available) == (9, 7, 2)
        with pytest.raises(KeyStarvationError):
            buf.consume(3)
        assert buf.consume(2) == 7
        assert buf.available == 0

    @pytest.mark.parametrize("op", ["append", "consume"])
    def test_negative_counts_refused(self, op):
        buf = KeyBuffer(("a", "b"))
        buf.append(4)
        with pytest.raises(ValueError, match=f"cannot {op} a negative number of bits"):
            getattr(buf, op)(-1)
        assert (buf.total_generated, buf.consumed_offset) == (4, 0)

    @pytest.mark.parametrize("op", ["append", "consume"])
    @pytest.mark.parametrize("n", [2.5, 1.5, 2.0, True, False, np.float64(2.0), np.bool_(True),
                                   "2", None], ids=repr)
    def test_non_integer_counts_refused(self, op, n):
        buf = KeyBuffer(("a", "b"))
        buf.append(4)
        with pytest.raises(TypeError):
            getattr(buf, op)(n)
        assert (buf.total_generated, buf.consumed_offset) == (4, 0)

    def test_numpy_integer_counts_are_kept_as_python_ints(self):
        buf = KeyBuffer(("a", "b"))
        assert buf.append(np.int64(3)) == 0 and buf.append(np.uint8(2)) == 3
        assert buf.consume(np.int32(4)) == 0
        counts = (buf.total_generated, buf.consumed_offset, buf.available)
        assert counts == (5, 4, 1) and all(type(c) is int for c in counts)

    def test_random_appends_and_consumes_match_one_pool(self):
        rng = np.random.default_rng(4)
        buf = KeyBuffer(("a", "b"))
        pool = 0  # the bits appended so far
        for _ in range(300):
            if rng.random() < 0.5:
                n = int(rng.integers(0, 40))
                assert buf.append(n) == pool
                pool += n
            else:
                n = int(rng.integers(0, 60))
                off = buf.consumed_offset
                if n > pool - off:
                    with pytest.raises(KeyStarvationError):
                        buf.consume(n)
                    assert buf.consumed_offset == off
                    continue
                assert buf.consume(n) == off
                assert buf.consumed_offset == off + n
            assert buf.total_generated == pool
            assert buf.available == pool - buf.consumed_offset


class TestOtpOps:
    """The trusted relay's algebra (``relay_chain``), against plain XOR."""

    def test_encrypt_known_vector(self):
        m, k = np.array([0, 0, 0, 0], dtype=np.uint8), np.array([1, 0, 1, 0], dtype=np.uint8)
        assert np.array_equal(m ^ k, [1, 0, 1, 0])
        assert np.array_equal(unwind(m ^ k, k, ()), m)

    def test_xor_involution(self):
        rng = RandomStream(1, "otp")
        for _ in range(20):
            m, k = rng.bits(64), rng.bits(64)
            assert np.array_equal(unwind(m ^ k, k, ()), m)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            unwind(np.ones(3, dtype=np.uint8), np.ones(4, dtype=np.uint8), ())
        with pytest.raises(ValueError):
            unwind(np.ones(4, dtype=np.uint8), np.ones(4, dtype=np.uint8),
                   [np.ones(3, dtype=np.uint8)])

    def test_single_relay_identity(self):
        # C xor K2 xor (K1 xor K2) recovers M exactly
        rng = RandomStream(2, "otp")
        m, k1, k2 = rng.bits(32), rng.bits(32), rng.bits(32)
        assert np.array_equal(unwind(m ^ k1, k2, [k1 ^ k2]), m)
        assert np.array_equal(relay_chain_oracle(m, [k1, k2]), m)

    @given(st.data())
    def test_relay_chain_recovers_the_message(self, data):
        hops = data.draw(st.integers(1, 6), label="hops")
        n = data.draw(st.integers(0, 64), label="block_len")
        block = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(
            lambda bits: np.array(bits, dtype=np.uint8))
        keys = data.draw(st.lists(block, min_size=hops, max_size=hops), label="hop blocks")
        message = data.draw(block, label="message")
        xors = relay_xors(keys)
        assert len(xors) == hops - 1
        assert np.array_equal(unwind(message ^ keys[0], keys[-1], xors), message)
        assert np.array_equal(relay_chain_oracle(message, keys), message)

    def test_zero_length_message(self):
        empty = np.empty(0, dtype=np.uint8)
        assert len(unwind(empty, empty, [empty])) == 0
        _, net = make_network("p2p", [(f"n{i}", "peer", 0.0, deg(100) * i, 500.0)
                                      for i in range(3)])
        net.relay_key_setup(["n0", "n1", "n2"], 0)
        assert net.consume_events == [(("n0", "n1"), 0, 0, "relay_hop"),
                                      (("n1", "n2"), 0, 0, "relay_hop")]


def preload_key(net, a, b, n):
    """Put ``n`` key bits into a pair's buffer, with the audit accounting
    and the ``keygen`` record of a QKD session's key."""
    net._store_key(pair_key(a, b), n)


def relay_broadcasts(engine, since=0):
    """(origin, payload) of each ``relay_xor`` broadcast from line ``since`` on."""
    return [(r.origin, r.details.split(" payload=", 1)[1].rsplit(" receivers=", 1)[0])
            for r in records(engine)[since:]
            if r.kind == "broadcast" and r.details.startswith("topic=relay_xor ")]


class TestRelaySetup:
    def _line_network(self, n_nodes):
        nodes = [(f"n{i}", "peer", 0.0, deg(100) * i, 500.0) for i in range(n_nodes)]
        return make_network("p2p", nodes)

    def test_known_xor_broadcast(self):
        engine, net = self._line_network(3)
        preload_key(net, "n0", "n1", 4)
        preload_key(net, "n1", "n2", 4)
        assert net.relay_key_setup(["n0", "n1", "n2"], 4) is None
        assert relay_broadcasts(engine) == [("n1", "bits=4")]

    @pytest.mark.parametrize("hops", [2, 3, 4, 5])
    def test_chains_match_oracle(self, hops):
        # each hop already spent some key: a relay takes its block at the
        # hop's cursor (TestOtpOps proves what the blocks' XORs give back)
        engine, net = self._line_network(hops + 1)
        path = [f"n{i}" for i in range(hops + 1)]
        cursors = []
        for i, (a, b) in enumerate(zip(path, path[1:])):
            preload_key(net, a, b, 40 + 8 * i)
            net._consume(pair_key(a, b), 8 * i, "direct")
            cursors.append(8 * i)
        events, since = len(net.consume_events), len(engine.log_lines())
        net.relay_key_setup(path, 40)
        assert net.consume_events[events:] == [
            (pair_key(a, b), cursor, 40, "relay_hop")
            for (a, b), cursor in zip(zip(path, path[1:]), cursors)]
        assert relay_broadcasts(engine, since) == [(n, "bits=40") for n in path[1:-1]]

    def test_consumption_marked_both_ends(self):
        _, net = self._line_network(3)
        preload_key(net, "n0", "n1", 8)
        preload_key(net, "n1", "n2", 8)
        net.relay_key_setup(["n0", "n1", "n2"], 8)
        assert net.buffers[("n0", "n1")].available == 0
        assert net.buffers[("n1", "n2")].available == 0

    def test_starving_hop_named(self):
        _, net = self._line_network(3)
        preload_key(net, "n0", "n1", 8)
        with pytest.raises(KeyStarvationError) as err:
            net.relay_key_setup(["n0", "n1", "n2"], 8)
        assert (err.value.hop, err.value.needed, err.value.available) == (("n1", "n2"), 8, 0)
        # atomicity: nothing consumed anywhere
        assert net.buffers[("n0", "n1")].available == 8

    def test_refusal_leaves_the_buffers_and_the_report_unchanged(self):
        sc = parse_scenario((SCENARIOS / "p2p_relay.soqn").read_text())
        engine, net = build_simulation(sc)
        install_handler(engine, net, [])
        engine.run_until()
        before = render_records(build_report(net, engine, []))
        buffers = dict(net.buffers)
        assert ("alice", "carol") not in net.link_history
        with pytest.raises(KeyStarvationError) as err:
            net.relay_key_setup(["alice", "carol", "bob"], 8)
        assert err.value.hop == ("alice", "carol") and "has 0 key bits" in str(err.value)
        assert net.buffers == buffers
        assert render_records(build_report(net, engine, [])) == before

    def test_short_path_rejected(self):
        _, net = self._line_network(2)
        with pytest.raises(ValueError):
            net.relay_key_setup(["n0", "n1"], 4)

    def test_negative_block_length_refused_before_any_hop(self):
        engine, net = self._line_network(3)
        lines = list(engine.log_lines())
        with pytest.raises(ValueError, match="block_len"):
            net.relay_key_setup(["n0", "n1", "n2"], -1)
        assert net.buffers == {} and net.consume_events == []
        assert list(engine.log_lines()) == lines

    @pytest.mark.parametrize("block_len", [2.5, 4.0, True, np.float64(4.0), "4"], ids=repr)
    def test_non_integer_block_length_refused_before_any_hop(self, block_len):
        # both hops hold enough key for a block of 4, so only the type refuses
        engine, net = self._line_network(3)
        preload_key(net, "n0", "n1", 8)
        preload_key(net, "n1", "n2", 8)
        buffers = {pair: (buf.total_generated, buf.consumed_offset)
                   for pair, buf in net.buffers.items()}
        events, lines = list(net.consume_events), list(engine.log_lines())
        with pytest.raises(TypeError):
            net.relay_key_setup(["n0", "n1", "n2"], block_len)
        assert {pair: (buf.total_generated, buf.consumed_offset)
                for pair, buf in net.buffers.items()} == buffers
        assert net.consume_events == events
        assert list(engine.log_lines()) == lines

    def test_numpy_integer_block_length_is_logged_as_an_int(self):
        engine, net = self._line_network(3)
        preload_key(net, "n0", "n1", 8)
        preload_key(net, "n1", "n2", 8)
        net.relay_key_setup(["n0", "n1", "n2"], np.int64(4))
        assert [e[2] for e in net.consume_events[-2:]] == [4, 4]
        assert all(type(e[2]) is int for e in net.consume_events[-2:])
        assert engine.log_lines()[-1].endswith("relay\tn0\tpath=n0>n1>n2 block_len=4")

    def test_path_repeating_a_node_refused_before_any_check(self):
        # n0~n1 holds 8 bits: enough for each hop of n0>n1>n0 on its own,
        # not for the two hops together
        engine, net = self._line_network(2)
        preload_key(net, "n0", "n1", 8)
        lines, events = list(engine.log_lines()), list(net.consume_events)
        with pytest.raises(ValueError, match="repeats a node"):
            net.relay_key_setup(["n0", "n1", "n0"], 8)
        assert net.buffers[("n0", "n1")].available == 8 and list(net.buffers) == [("n0", "n1")]
        assert net.consume_events == events
        assert list(engine.log_lines()) == lines

    @pytest.mark.parametrize("path, block_len, message", [
        (["m0", "m1", "m2"], 8, "node 'm1' is not deployed"),
        (["m0", "ghost", "m2"], 0, "unknown node 'ghost'"),
    ], ids=["undeployed", "unknown"])
    def test_path_through_a_node_not_deployed_refused_before_any_hop(self, path, block_len,
                                                                      message):
        # m1 is added but never deployed; each hop holds enough key on its own
        engine, net = make_network("p2p", [], organize=False)
        for i in range(3):
            net.add_node(f"m{i}", "peer", GeoPosition(0.0, 0.9 * i, 500.0))
        net.handle_deploy("m0")
        net.handle_deploy("m2")
        net.organize_network()
        preload_key(net, "m0", "m1", 8)
        preload_key(net, "m1", "m2", 8)
        buffers, events = dict(net.buffers), list(net.consume_events)
        lines = list(engine.log_lines())
        with pytest.raises(UnknownNodeError, match=message):
            net.relay_key_setup(path, block_len)
        assert net.buffers == buffers
        assert [b.available for b in net.buffers.values()] == [8, 8]
        assert net.consume_events == events
        assert list(engine.log_lines()) == lines

    @pytest.mark.parametrize("case", ["zero_length", "torn_down"])
    def test_hop_without_an_active_link_refused_before_any_consume(self, case):
        # only a~b and b~c are links: a~c is past the horizon, z out of range
        engine, net = make_network("p2p", [(nid, "peer", 0.0, lon, 200.0) for nid, lon in
                                           [("a", 0.0), ("b", 0.5), ("c", 1.0), ("z", 30.0)]])
        assert sorted(net.active_pairs()) == [("a", "b"), ("b", "c")]
        if case == "zero_length":
            path, block_len, hop = ["a", "z", "c"], 0, "a~z"
        else:
            preload_key(net, "a", "b", 8)
            preload_key(net, "b", "c", 8)
            net.move_node("c", GeoPosition(0.0, 60.0, 200.0))  # b~c goes down, its key stays
            path, block_len, hop = ["a", "b", "c"], 8, "b~c"
        buffers = {pair: buf.available for pair, buf in net.buffers.items()}
        events, lines = list(net.consume_events), list(engine.log_lines())
        with pytest.raises(LinkInactiveError, match=f"^no active link {hop}$"):
            net.relay_key_setup(path, block_len)
        assert {pair: buf.available for pair, buf in net.buffers.items()} == buffers
        assert net.consume_events == events
        assert list(engine.log_lines()) == lines

    def test_client_relay_refused_before_any_consume(self):
        # s1~c and c~s2 each hold key, but a cs client may not relay
        engine, net = make_network("cs", [("s1", "server", 0.0, 0.0, 500.0),
                                          ("c", "client", 0.0, 0.5, 500.0),
                                          ("s2", "server", 0.0, 1.0, 500.0)])
        preload_key(net, "c", "s1", 16)
        preload_key(net, "c", "s2", 16)
        buffers = {pair: (buf.total_generated, buf.consumed_offset)
                   for pair, buf in net.buffers.items()}
        events, lines = list(net.consume_events), list(engine.log_lines())
        with pytest.raises(RoleModeError, match="^client 'c' may not relay$"):
            net.relay_key_setup(["s1", "c", "s2"], 8)
        assert {pair: (buf.total_generated, buf.consumed_offset)
                for pair, buf in net.buffers.items()} == buffers
        assert net.consume_events == events
        assert list(engine.log_lines()) == lines

    def test_transcript_alone_does_not_reveal_message(self):
        # ciphertext + all public XOR blocks still miss the last hop key
        rng = RandomStream(77, "relay")
        keys = [rng.bits(64) for _ in range(3)]
        message = rng.bits(64)
        public = message ^ keys[0]
        for xor in relay_xors(keys):
            public = np.bitwise_xor(public, xor)
        assert not np.array_equal(public, message)
        assert np.array_equal(public ^ keys[-1], message)


class TestGenerateDirectKey:
    def test_pulses_per_session_within_numpys_binomial(self):
        with pytest.raises(ValueError, match=r"pulses_per_session must be in \[1, 2\*\*63 - 1\]"):
            Network("p2p", SimEngine(0), pulses_per_session=2**63)
        Network("p2p", SimEngine(0), pulses_per_session=2**63 - 1)

    def test_session_index_counts_the_pair_sessions(self):
        engine, net = make_network("p2p", [
            ("a", "peer", 0.0, 0.0, 0.0),
            ("b", "peer", 0.0, deg(5), 0.0),
            ("c", "peer", 0.0, deg(10), 0.0),
        ])
        for a, b in (("a", "b"), ("b", "c"), ("b", "a")):
            net.generate_direct_key(a, b, 2048)
        indices = [(r.origin, dict(kv.split("=") for kv in r.details.split())["index"])
                   for r in records(engine) if r.kind == "qkd"]
        assert indices == [("a", "0"), ("b", "0"), ("a", "1")]
        assert [len(net.session_stats[p]) for p in (("a", "b"), ("b", "c"))] == [2, 1]

    def test_buffer_grows(self):
        _, net = make_network("p2p", [
            ("a", "peer", 0.0, 0.0, 0.0),
            ("b", "peer", 0.0, deg(5), 0.0),
        ])
        rec = net.generate_direct_key("a", "b", 2048)
        assert not rec.aborted
        assert net.buffers[("a", "b")].available == len(rec.final_key) > 0

    def test_eve_aborts_and_buffer_unchanged(self):
        _, net = make_network("p2p", [
            ("a", "peer", 0.0, 0.0, 0.0),
            ("b", "peer", 0.0, deg(5), 0.0),
        ])
        net.set_eve("a", "b", True)
        rec = net.generate_direct_key("a", "b", 2048)
        assert rec.aborted
        assert ("a", "b") not in net.buffers or net.buffers[("a", "b")].available == 0

    def test_inactive_link_rejected(self):
        _, net = make_network("p2p", [
            ("a", "peer", 0.0, 0.0, 0.0),
            ("b", "peer", 20.0, 100.0, 0.0),
        ])
        with pytest.raises(LinkInactiveError):
            net.generate_direct_key("a", "b", 100)

    def test_unknown_node_named(self):
        _, net = make_network("p2p", [("a", "peer", 0.0, 0.0, 0.0)])
        for a, b in [("a", "zz"), ("zz", "a")]:
            with pytest.raises(UnknownNodeError, match="unknown node 'zz'"):
                net.generate_direct_key(a, b, 100)
        assert net.session_stats == {}

    def test_disjoint_sessions_order_independent(self):
        # label-keyed streams: swapping session order across disjoint links
        # leaves each transcript unchanged
        nodes = [("a", "peer", 0.0, 0.0, 200.0), ("b", "peer", 0.0, deg(5), 200.0),
                 ("c", "peer", deg(5), 0.0, 200.0), ("d", "peer", deg(5), deg(5), 200.0)]
        _, n1 = make_network("p2p", nodes, seed=11)
        r1ab = n1.generate_direct_key("a", "b", 2048)
        r1cd = n1.generate_direct_key("c", "d", 2048)
        _, n2 = make_network("p2p", nodes, seed=11)
        r2cd = n2.generate_direct_key("c", "d", 2048)
        r2ab = n2.generate_direct_key("a", "b", 2048)
        assert np.array_equal(r1ab.final_key, r2ab.final_key)
        assert np.array_equal(r1cd.final_key, r2cd.final_key)
        assert (r1ab.qber, r1cd.qber) == (r2ab.qber, r2cd.qber)

    def test_cs_pairs_use_plugplay(self):
        engine, net = make_network("cs", [
            ("s", "server", 0.0, 0.0, 0.0),
            ("c", "client", 0.0, deg(5), 0.0),
        ])
        rec = net.generate_direct_key("s", "c", 2048)
        assert not rec.aborted
        qkd_lines = [r for r in records(engine) if r.kind == "qkd"]
        assert "proto=plugplay" in qkd_lines[0].details


class TestSendMessage:
    def test_direct_delivery(self):
        _, net = make_network("p2p", [
            ("a", "peer", 0.0, 0.0, 0.0),
            ("b", "peer", 0.0, deg(5), 0.0),
        ])
        rec = net.send_message("a", "b", np.ones(32, dtype=np.uint8))
        assert rec.delivered
        assert rec.path == ("a", "b") and rec.bits_consumed == 32

    def test_relayed_delivery(self):
        engine, net = make_network("p2p", [
            ("a", "peer", 0.0, 0.0, 500.0),
            ("r", "peer", 0.0, deg(100), 500.0),
            ("b", "peer", 0.0, deg(200), 3000.0),
        ])
        message = RandomStream(3, "msg").bits(16)
        rec = net.send_message("a", "b", message)
        assert rec.delivered
        assert rec.path == ("a", "r", "b")
        assert rec.bits_consumed == 32  # 16 bits on each of 2 hops
        assert relay_broadcasts(engine) == [("r", "bits=16")]

    def test_no_route_consumes_nothing(self):
        _, net = make_network("p2p", [
            ("a", "peer", 0.0, 0.0, 0.0),
            ("b", "peer", 30.0, 100.0, 0.0),
        ])
        rec = net.send_message("a", "b", np.ones(16, dtype=np.uint8))
        assert rec.outcome == "no_route" and rec.bits_consumed == 0
        assert net.consume_events == []

    def test_failed_relay_send_is_atomic(self):
        # eve on the second hop: its sessions abort, nothing is consumed
        _, net = make_network("p2p", [
            ("a", "peer", 0.0, 0.0, 500.0),
            ("r", "peer", 0.0, deg(100), 500.0),
            ("b", "peer", 0.0, deg(200), 3000.0),
        ], max_session_attempts=2)
        net.set_eve("b", "r", True)
        rec = net.send_message("a", "b", np.ones(16, dtype=np.uint8))
        assert rec.outcome == "qkd_abort"
        assert rec.failing_hop == ("b", "r")
        assert rec.bits_consumed == 0
        assert net.consume_events == []
        first_hop = net.buffers.get(("a", "r"))
        assert first_hop is None or first_hop.consumed_offset == 0

    def test_zero_length_message(self):
        _, net = make_network("p2p", [
            ("a", "peer", 0.0, 0.0, 0.0),
            ("b", "peer", 0.0, deg(5), 0.0),
        ])
        rec = net.send_message("a", "b", np.empty(0, dtype=np.uint8))
        assert rec.delivered and rec.bits_consumed == 0

    def test_audits_clean_after_traffic(self):
        _, net = make_network("p2p", [
            ("a", "peer", 0.0, 0.0, 500.0),
            ("r", "peer", 0.0, deg(100), 500.0),
            ("b", "peer", 0.0, deg(200), 3000.0),
        ])
        for i in range(4):
            net.send_message("a", "b", RandomStream(i, "audit").bits(24))
            net.send_message("a", "r", RandomStream(i, "audit2").bits(8))
        assert net.audit_otp() == []
        assert net.audit_tables() == []

    def test_undeployed_node_rejected(self):
        _, net = make_network("p2p", [("a", "peer", 0.0, 0.0, 0.0)], organize=True)
        net.add_node("late", "peer", GeoPosition(0.0, deg(5), 0.0))
        with pytest.raises(UnknownNodeError):
            net.send_message("a", "late", np.ones(4, dtype=np.uint8))
