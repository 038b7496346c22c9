import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soqn.channel import ChannelParams
from soqn.engine import SimEngine
from soqn.geo import GeoPosition, link_feasible
from soqn.network import (DuplicateNodeError, KeyBlock, KeyBuffer, KeyReuseError,
                          KeyStarvationError, LinkInactiveError, Network, NoRouteError,
                          OpticalLink, RelayTicket, RoleModeError, UnknownNodeError,
                          decrypt, decrypt_relay, encrypt, pair_key, shortest_path)
from soqn.qkd import EveConfig, ProtocolParams
from soqn.rng import RandomStream

KM_PER_DEG = 111.19492664455873

IDEAL_CHANNEL = ChannelParams(atm_loss_db_per_km=0.0, fixed_system_loss_db=0.0,
                              dark_count_prob=0.0, background_prob=0.0,
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


def feasibility_oracle(network):
    """Brute-force role-filtered feasibility graph over deployed nodes."""
    params = network.feasibility
    deployed = [n for n, info in network.nodes.items() if info.deployed]
    expected = set()
    for i, a in enumerate(deployed):
        for b in deployed[i + 1:]:
            if not network._eligible(a, b):
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
        assert len(net.table.links) == 3
        assert net.table.version == 1

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
        assert net.table.links == expected

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

    def test_duplicate_node_rejected(self):
        engine = SimEngine(0)
        net = Network("p2p", engine)
        net.add_node("n", "peer", GeoPosition(0, 0, 0))
        with pytest.raises(DuplicateNodeError):
            net.add_node("n", "peer", GeoPosition(1, 1, 0))


class TestJoinMove:
    def test_join_adds_links_everywhere(self):
        _, net = make_network("p2p", [
            ("n1", "peer", 0.0, 0.0, 300.0),
            ("n2", "peer", 0.0, deg(20), 300.0),
            ("n3", "peer", 0.0, deg(200), 2000.0),
        ])
        net.add_node("n4", "peer", GeoPosition(0.0, deg(35), 300.0))
        net.handle_deploy("n4")  # organized network -> auto join
        assert net.table.links == feasibility_oracle(net)
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
        v_before = net.table.version
        net.move_node("n1", GeoPosition(0.0, deg(1), 0.0))
        assert {p for p in net.links} == before
        assert net.table.version == v_before + 1

    def test_move_out_of_range_drops_links(self):
        _, net = make_network("p2p", [
            ("n1", "peer", 0.0, 0.0, 0.0),
            ("n2", "peer", 0.0, deg(10), 0.0),
            ("n3", "peer", deg(10), 0.0, 0.0),
        ])
        net.move_node("n1", GeoPosition(60.0, 100.0, 0.0))
        assert all("n1" not in p for p in net.links)
        assert net.table.links == feasibility_oracle(net)

    def test_random_churn_tracks_oracle(self):
        rng = np.random.default_rng(42)
        nodes = [(f"n{i:02d}", "peer",
                  float(rng.uniform(0, 1.0)), float(rng.uniform(0, 1.0)),
                  float(rng.uniform(0, 2000))) for i in range(12)]
        _, net = make_network("p2p", nodes)
        ids = [n[0] for n in nodes]
        pick = np.random.default_rng(7)
        for step in range(10):
            if step % 3 == 0 and len(ids) < 20:
                nid = f"n{len(ids):02d}"
                net.add_node(nid, "peer", GeoPosition(float(rng.uniform(0, 1.0)),
                                                      float(rng.uniform(0, 1.0)),
                                                      float(rng.uniform(0, 2000))))
                net.handle_deploy(nid)
                ids.append(nid)
            else:
                net.move_node(str(rng.choice(ids)),
                              GeoPosition(float(rng.uniform(0, 1.0)),
                                          float(rng.uniform(0, 1.0)),
                                          float(rng.uniform(0, 2000))))
            assert net.table.links == feasibility_oracle(net)
            links = {p: net.links[p].distance_km for p in net.table.links}
            for _ in range(15):
                src, dst = (str(n) for n in pick.choice(ids, size=2, replace=False))
                assert (route_or_none(lambda: net.find_path(src, dst))
                        == route_or_none(lambda: _shortest_path_reference(
                            links, src, dst, lambda n: True)))
        assert net.audit_tables() == []

    def test_move_unknown_node(self):
        _, net = make_network("p2p", [("n1", "peer", 0.0, 0.0, 0.0)])
        with pytest.raises(UnknownNodeError):
            net.move_node("ghost", GeoPosition(0, 0, 0))


class TestPrecharge:
    def test_every_active_pair_charged_after_each_topology_change(self):
        # 1000 bits take two ideal 2048-pulse sessions; the eavesdropped
        # pair aborts its first one and stays uncharged.
        _, net = make_network("p2p", [
            ("a", "peer", 0.0, 0.0, 0.0),
            ("b", "peer", 0.0, deg(5), 0.0),
            ("c", "peer", deg(5), 0.0, 0.0),
            ("e", "peer", 0.0, deg(300), 0.0),
        ], organize=False, precharge_bits=1000)
        net.set_eve("a", "c", EveConfig("intercept_resend"))

        def charged_and_aborted():
            pairs = net.active_pairs()
            charged = {p for p in pairs
                       if p in net.buffers and net.buffers[p].available >= 1000}
            aborted = {p for p in pairs - charged if net.session_stats[p][-1].aborted}
            assert charged | aborted == pairs
            return charged, aborted

        net.organize_network()
        assert charged_and_aborted() == ({("a", "b"), ("b", "c")}, {("a", "c")})
        net.add_node("d", "peer", GeoPosition(deg(5), deg(5), 0.0))
        net.handle_deploy("d")  # organized network -> join
        assert charged_and_aborted() == (
            {("a", "b"), ("b", "c"), ("a", "d"), ("b", "d"), ("c", "d")}, {("a", "c")})
        net.move_node("d", GeoPosition(0.0, deg(305), 0.0))
        assert charged_and_aborted() == ({("a", "b"), ("b", "c"), ("d", "e")}, {("a", "c")})
        assert len(net.session_stats[("d", "e")]) == 2


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
        assert net.table.links == frozenset()
        with pytest.raises(NoRouteError):
            net.find_path("a", "b")
        version = net.table.version
        net.activate_link(("a", "b"))
        assert net.find_path("a", "b") == ["a", "b"]
        assert net.table.version == version + 1
        assert net.audit_tables() == []

    def test_audit_catches_missed_refresh(self):
        _, net = make_network("p2p", [
            ("a", "peer", 0.0, 0.0, 0.0),
            ("b", "peer", 0.0, deg(10), 0.0),
        ], acquire_delay_s=2.0)
        assert net.audit_tables() == []
        net.links[("a", "b")].state = "active"  # no _refresh_tables
        assert net.audit_tables() == ["tables do not match the active link set"]

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
        buf.append(np.array([1, 0, 1, 1], dtype=np.uint8))
        block = buf.consume(3)
        assert np.array_equal(block.bits, [1, 0, 1])
        assert buf.available == 1
        with pytest.raises(KeyStarvationError):
            buf.consume(2)

    def test_starvation_names_hop(self):
        buf = KeyBuffer(("a", "b"))
        with pytest.raises(KeyStarvationError) as err:
            buf.consume(5)
        assert err.value.hop == ("a", "b")

    def test_consume_spans_chunks(self):
        buf = KeyBuffer(("a", "b"))
        assert buf.append(np.array([1, 0, 1], dtype=np.uint8)) == 0
        assert buf.append(np.array([], dtype=np.uint8)) == 3
        assert buf.append(np.array([0, 0], dtype=np.uint8)) == 3
        assert buf.append(np.array([1, 1, 0, 1], dtype=np.uint8)) == 5
        first = buf.consume(2)
        across = buf.consume(5)  # the rest of the first chunk, the second, one bit of the third
        assert (first.offset, across.offset) == (0, 2)
        assert np.array_equal(first.bits, [1, 0])
        assert np.array_equal(across.bits, [1, 0, 0, 1, 1])
        assert buf.consume(0).bits.size == 0
        assert (buf.total_generated, buf.consumed_offset, buf.available) == (9, 7, 2)
        assert len(buf._chunks) == 1  # consumed chunks are released
        with pytest.raises(KeyStarvationError):
            buf.consume(3)
        assert np.array_equal(buf.consume(2).bits, [0, 1])
        assert len(buf._chunks) == 0

    def test_random_appends_and_consumes_match_one_pool(self):
        rng = np.random.default_rng(4)
        buf = KeyBuffer(("a", "b"))
        pool = np.empty(0, dtype=np.uint8)
        for _ in range(300):
            if rng.random() < 0.5:
                bits = rng.integers(0, 2, int(rng.integers(0, 40)), dtype=np.uint8)
                assert buf.append(bits) == len(pool)
                pool = np.concatenate([pool, bits])
                bits[:] = 1 - bits  # the buffer keeps its own copy
            else:
                n = int(rng.integers(0, 60))
                off = buf.consumed_offset
                if n > len(pool) - off:
                    with pytest.raises(KeyStarvationError):
                        buf.consume(n)
                    continue
                block = buf.consume(n)
                assert block.offset == off
                assert np.array_equal(block.bits, pool[off : off + n])
            assert buf.total_generated == len(pool)
            assert buf.available == len(pool) - buf.consumed_offset

    def test_block_take_once(self):
        buf = KeyBuffer(("a", "b"))
        buf.append(np.ones(4, dtype=np.uint8))
        block = buf.consume(4)
        block.take()
        with pytest.raises(KeyReuseError):
            block.take()


class TestOtpOps:
    def test_encrypt_known_vector(self):
        c = encrypt(np.array([0, 0, 0, 0], dtype=np.uint8),
                    np.array([1, 0, 1, 0], dtype=np.uint8))
        assert np.array_equal(c, [1, 0, 1, 0])

    def test_xor_involution(self):
        rng = RandomStream(1, "otp")
        for _ in range(20):
            m, k = rng.bits(64), rng.bits(64)
            assert np.array_equal(decrypt(encrypt(m, k), k), m)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            encrypt(np.ones(3, dtype=np.uint8), np.ones(4, dtype=np.uint8))

    def test_encrypt_spends_key_block(self):
        block = KeyBlock(("a", "b"), 0, np.ones(4, dtype=np.uint8))
        encrypt(np.zeros(4, dtype=np.uint8), block)
        with pytest.raises(KeyReuseError):
            encrypt(np.zeros(4, dtype=np.uint8), block)

    def test_single_relay_identity(self):
        # C xor K2 xor (K1 xor K2) recovers M exactly
        rng = RandomStream(2, "otp")
        m, k1, k2 = rng.bits(32), rng.bits(32), rng.bits(32)
        c = encrypt(m, k1)
        ticket = RelayTicket(("a", "r", "b"), [("r", np.bitwise_xor(k1, k2))], 32)
        assert np.array_equal(decrypt_relay(c, k2, ticket), m)

    def test_zero_length_message(self):
        empty = np.empty(0, dtype=np.uint8)
        ticket = RelayTicket(("a", "r", "b"), [("r", empty)], 0)
        assert len(decrypt_relay(empty, empty, ticket)) == 0


def relay_chain_oracle(message, hop_keys):
    """Brute-force check: xor everything public plus the receiver key."""
    out = np.bitwise_xor(message, hop_keys[0])  # the ciphertext
    for k_prev, k_next in zip(hop_keys, hop_keys[1:]):
        out = np.bitwise_xor(out, np.bitwise_xor(k_prev, k_next))
    return np.bitwise_xor(out, hop_keys[-1])


class TestRelaySetup:
    def _line_network(self, n_nodes):
        nodes = [(f"n{i}", "peer", 0.0, deg(100) * i, 500.0) for i in range(n_nodes)]
        return make_network("p2p", nodes)

    def test_known_xor_broadcast(self):
        _, net = self._line_network(3)
        net.preload_key("n0", "n1", [1, 0, 1, 0])
        net.preload_key("n1", "n2", [0, 1, 1, 0])
        ticket, first, last = net.relay_key_setup(["n0", "n1", "n2"], 4)
        assert len(ticket.broadcasts) == 1
        relay, block = ticket.broadcasts[0]
        assert relay == "n1"
        assert np.array_equal(block, [1, 1, 0, 0])
        assert np.array_equal(first.bits, [1, 0, 1, 0])
        assert np.array_equal(last.bits, [0, 1, 1, 0])

    @pytest.mark.parametrize("hops", [2, 3, 4, 5])
    def test_chains_match_oracle(self, hops):
        rng = RandomStream(hops, "relay")
        _, net = self._line_network(hops + 1)
        path = [f"n{i}" for i in range(hops + 1)]
        keys = []
        for a, b in zip(path, path[1:]):
            k = rng.bits(40)
            keys.append(k)
            net.preload_key(a, b, k)
        message = rng.bits(40)
        ticket, first, last = net.relay_key_setup(path, 40)
        cipher = encrypt(message, first)
        recovered = decrypt_relay(cipher, last, ticket)
        assert np.array_equal(recovered, message)
        assert np.array_equal(relay_chain_oracle(message, keys), message)

    def test_consumption_marked_both_ends(self):
        _, net = self._line_network(3)
        net.preload_key("n0", "n1", np.ones(8, dtype=np.uint8))
        net.preload_key("n1", "n2", np.ones(8, dtype=np.uint8))
        net.relay_key_setup(["n0", "n1", "n2"], 8)
        assert net.buffers[("n0", "n1")].available == 0
        assert net.buffers[("n1", "n2")].available == 0

    def test_starving_hop_named(self):
        _, net = self._line_network(3)
        net.preload_key("n0", "n1", np.ones(8, dtype=np.uint8))
        with pytest.raises(KeyStarvationError) as err:
            net.relay_key_setup(["n0", "n1", "n2"], 8)
        assert err.value.hop == ("n1", "n2")
        # atomicity: nothing consumed anywhere
        assert net.buffers[("n0", "n1")].available == 8

    def test_short_path_rejected(self):
        _, net = self._line_network(2)
        with pytest.raises(ValueError):
            net.relay_key_setup(["n0", "n1"], 4)

    def test_transcript_alone_does_not_reveal_message(self):
        # ciphertext + all public XOR blocks still miss the first hop key
        rng = RandomStream(77, "relay")
        _, net = self._line_network(4)
        path = ["n0", "n1", "n2", "n3"]
        for a, b in zip(path, path[1:]):
            net.preload_key(a, b, rng.bits(64))
        message = rng.bits(64)
        ticket, first, last = net.relay_key_setup(path, 64)
        cipher = encrypt(message, first)
        public = cipher.copy()
        for _, block in ticket.broadcasts:
            public = np.bitwise_xor(public, block)
        assert not np.array_equal(public, message)


class TestGenerateDirectKey:
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
        net.set_eve("a", "b", EveConfig("intercept_resend"))
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
        qkd_lines = [r for r in engine.log if r.kind == "qkd"]
        assert "proto=plugplay" in qkd_lines[0].details


class TestSendMessage:
    def test_direct_delivery(self):
        _, net = make_network("p2p", [
            ("a", "peer", 0.0, 0.0, 0.0),
            ("b", "peer", 0.0, deg(5), 0.0),
        ])
        rec = net.send_message("a", "b", np.ones(32, dtype=np.uint8))
        assert rec.delivered and rec.plaintext_ok
        assert rec.path == ("a", "b") and rec.bits_consumed == 32

    def test_relayed_delivery(self):
        engine, net = make_network("p2p", [
            ("a", "peer", 0.0, 0.0, 500.0),
            ("r", "peer", 0.0, deg(100), 500.0),
            ("b", "peer", 0.0, deg(200), 3000.0),
        ])
        message = RandomStream(3, "msg").bits(16)
        rec = net.send_message("a", "b", message)
        assert rec.delivered and rec.plaintext_ok
        assert rec.path == ("a", "r", "b")
        assert rec.bits_consumed == 32  # 16 bits on each of 2 hops
        assert sum(1 for r in engine.log
                   if r.kind == "broadcast" and "topic=relay_xor" in r.details) == 1

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
        net.set_eve("b", "r", EveConfig("intercept_resend"))
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
