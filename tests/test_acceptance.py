"""Acceptance suite: one test per criterion, each printing a PASS line.

Expected values come from independent oracles computed before the build:
exhaustive enumeration for the intercept-resend error rate, binomial
3-sigma windows for counting statistics, XOR folding for relay chains, a
vectorized reimplementation of the feasibility geometry for routing tables,
and plain arithmetic for the key-rate chain.
"""
import math
import os
import time

import numpy as np
import pytest

from soqn.engine import SimEngine
from soqn.geo import EARTH_RADIUS_KM, GeoPosition, geodesic_distance, line_of_sight
from soqn.network import Network, OpticalLink, pair_key
from soqn.qkd import (ChannelParams, ProtocolParams, SessionAbort, privacy_amplify, reconcile,
                      run_bb84_session)
from soqn.rng import RandomStream
from soqn.runner import run_scenario
from soqn.scenario import parse_scenario

from event_log import records

KM_PER_DEG = 111.19492664455873

IDEAL = ChannelParams(atm_loss_db_per_km=0.0, fixed_system_loss_db=0.0,
                      noise_prob=0.0 + 0.0,
                      detector_efficiency=1.0, intrinsic_error_prob=0.0)


def ideal_link():
    return OpticalLink(("a", "b"), 0.0, 0.0, 0.0, "active")


def _pass(number: int, message: str) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS - {message}")


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    """Run one small session first, so one-time set-up stays outside the timed sections."""
    run_bb84_session(ideal_link(), 512, False, RandomStream(0, "warmup"),
                     IDEAL, ProtocolParams(min_sift_len=64, safety_margin_bits=0))


def test_01_intercept_resend_detection():
    n_pulses = 440_000
    t0 = time.perf_counter()
    rec = run_bb84_session(ideal_link(), n_pulses, True,
                           RandomStream(101, "acc1"), IDEAL, ProtocolParams())
    elapsed = time.perf_counter() - t0
    sample = math.ceil(0.5 * rec.sifted_len)
    assert sample >= 10**5, "need at least 1e5 sifted bits in the estimate"
    sigma = math.sqrt(0.25 * 0.75 / sample)
    assert 0.25 - 3 * sigma <= rec.qber <= 0.25 + 3 * sigma
    assert rec.aborted and rec.abort_reason is SessionAbort.QBER_EXCEEDS_THRESHOLD
    assert elapsed < 5.0
    _pass(1, f"eve drives qber to {rec.qber:.4f} (0.25 +/- {3 * sigma:.4f}), "
             f"session aborted in {elapsed:.2f}s")


def test_02_honest_channel_sifting():
    n_pulses = 10**5
    channel = ChannelParams(atm_loss_db_per_km=0.0, fixed_system_loss_db=0.0,
                            noise_prob=0.0 + 0.0,
                            detector_efficiency=1.0, intrinsic_error_prob=0.01)
    rec = run_bb84_session(ideal_link(), n_pulses, False,
                           RandomStream(102, "acc2"), channel, ProtocolParams())
    frac = rec.sifted_len / n_pulses
    sigma_sift = math.sqrt(0.25 / n_pulses)
    assert abs(frac - 0.5) < 3 * sigma_sift
    sample = math.ceil(0.5 * rec.sifted_len)
    sigma_q = math.sqrt(0.01 * 0.99 / sample)
    assert abs(rec.qber - 0.01) < 3 * sigma_q
    assert not rec.aborted
    _pass(2, f"sifted fraction {frac:.4f} (0.5 +/- {3 * sigma_sift:.4f}), "
             f"qber {rec.qber:.4f} (0.01 +/- {3 * sigma_q:.4f})")


def test_03_relay_identity():
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    for _ in range(1000):
        m, k1, k2 = (rng.integers(0, 2, 64, dtype=np.uint8) for _ in range(3))
        c = m ^ k1
        k3 = k1 ^ k2
        assert np.array_equal(c ^ k2 ^ k3, m)
    for relays in (2, 3, 4, 5):
        hops = relays + 1
        path = [f"n{i}" for i in range(hops + 1)]
        network = Network("p2p", SimEngine(103))
        for i, nid in enumerate(path):
            network.add_node(nid, "peer", GeoPosition(0.0, 100.0 / KM_PER_DEG * i, 500.0))
            network.handle_deploy(nid)
        network.organize_network()
        pairs = [pair_key(a, b) for a, b in zip(path, path[1:])]
        for _ in range(100):
            # brute-force oracle: the receiver folds the ciphertext with
            # every relay's public XOR of its two hop blocks and its own block
            keys = [rng.integers(0, 2, 48, dtype=np.uint8) for _ in range(hops)]
            m = rng.integers(0, 2, 48, dtype=np.uint8)
            recovered = m ^ keys[0]
            for k1, k2 in zip(keys, keys[1:]):
                recovered = recovered ^ (k1 ^ k2)
            assert np.array_equal(recovered ^ keys[-1], m)
            # the network's relay takes one block per hop, at that hop's cursor
            for pair in pairs:
                network._store_key(pair, 48)
            cursors = [network.buffers[pair].consumed_offset for pair in pairs]
            events = len(network.consume_events)
            network.relay_key_setup(path, 48)
            assert network.consume_events[events:] == [
                (pair, cursor, 48, "relay_hop") for pair, cursor in zip(pairs, cursors)]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(3, f"1000 triples and 400 chains (2-5 relays) exact in {elapsed:.2f}s")


# --- criterion 4 helpers -----------------------------------------------------


def oracle_feasibility(lats, lons, alts, roles, mode, max_range_km=144.0):
    """Vectorized, independently written feasibility graph."""
    lat = np.radians(np.asarray(lats))
    lon = np.radians(np.asarray(lons))
    alt = np.asarray(alts)
    s = (np.sin((lat[:, None] - lat[None, :]) / 2) ** 2
         + np.cos(lat)[:, None] * np.cos(lat)[None, :]
         * np.sin((lon[:, None] - lon[None, :]) / 2) ** 2)
    ang = 2 * np.arcsin(np.minimum(1.0, np.sqrt(s)))
    mean_alt_km = (alt[:, None] + alt[None, :]) / 2000.0
    surface = (EARTH_RADIUS_KM + mean_alt_km) * ang
    dalt_km = np.abs(alt[:, None] - alt[None, :]) / 1000.0
    dist = np.hypot(surface, dalt_km)
    horizon = np.sqrt(2 * EARTH_RADIUS_KM * np.maximum(alt, 2.0) / 1000.0)
    los = EARTH_RADIUS_KM * ang <= horizon[:, None] + horizon[None, :]
    ok = (dist <= max_range_km) & los
    if mode == "cs":
        client = np.asarray([r == "client" for r in roles])
        ok &= ~(client[:, None] & client[None, :])
    return ok


def random_topology_run(seed, mode):
    rng = np.random.default_rng(seed)
    engine = SimEngine(seed)
    network = Network(mode, engine)
    ids, roles = [], []

    def random_role():
        if mode == "p2p":
            return "peer"
        return "server" if rng.random() < 0.5 else "client"

    def random_pos():
        return GeoPosition(float(rng.uniform(0, 1.2)), float(rng.uniform(0, 1.2)),
                           float(rng.uniform(0, 2500)))

    n_init = int(rng.integers(10, 31))
    for i in range(n_init):
        nid = f"n{i:02d}"
        ids.append(nid)
        roles.append(random_role())
        network.add_node(nid, roles[-1], random_pos())
        network.handle_deploy(nid)
    network.organize_network()
    for _ in range(20):
        if rng.random() < 0.5 and len(ids) < 50:
            nid = f"n{len(ids):02d}"
            ids.append(nid)
            roles.append(random_role())
            network.add_node(nid, roles[-1], random_pos())
            network.handle_deploy(nid)
        else:
            network.move_node(ids[int(rng.integers(len(ids)))], random_pos())
    return network, ids, roles


def check_against_oracle(network, ids, roles, mode):
    lats = [network.nodes[n].position.latitude_deg for n in ids]
    lons = [network.nodes[n].position.longitude_deg for n in ids]
    alts = [network.nodes[n].position.altitude_m for n in ids]
    ok = oracle_feasibility(lats, lons, alts, roles, mode)
    expected = {pair_key(ids[i], ids[j])
                for i in range(len(ids)) for j in range(i + 1, len(ids)) if ok[i, j]}
    assert network.active_pairs() == expected
    return expected


def test_04_routing_table_oracle_equivalence():
    t0 = time.perf_counter()
    cs_networks = []
    for case in range(100):
        mode = "p2p" if case % 2 == 0 else "cs"
        network, ids, roles = random_topology_run(10_000 + case, mode)
        check_against_oracle(network, ids, roles, mode)
        if mode == "cs":
            cs_networks.append(network)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    for network in cs_networks:
        assert network.audit_roles() == []
    test_04_routing_table_oracle_equivalence.cs_networks = cs_networks
    _pass(4, f"100 topologies x (organize + 20 join/move) match the brute-force "
             f"graph in {elapsed:.1f}s")


def test_05_cs_structural_invariant():
    # dedicated c/s traffic scenario: adjacent clients must relay via servers
    engine = SimEngine(55)
    network = Network("cs", engine, channel=IDEAL,
                      protocol=ProtocolParams(min_sift_len=64, safety_margin_bits=0),
                      pulses_per_session=2048)
    d = 12.0 / KM_PER_DEG
    layout = [("s1", "server", 0.0, 0.0), ("s2", "server", 0.0, 2 * d),
              ("c1", "client", 0.0, d), ("c2", "client", 0.0, 1.2 * d),
              ("c3", "client", 0.0, 3 * d)]
    for nid, role, lat, lon in layout:
        network.add_node(nid, role, GeoPosition(lat, lon, 400.0))
        network.handle_deploy(nid)
    network.organize_network()
    rng = np.random.default_rng(5)
    for src, dst in [("c1", "c2"), ("c2", "c1"), ("c1", "c3"), ("c3", "c2")]:
        rec = network.send_message(src, dst, rng.integers(0, 2, 16, dtype=np.uint8))
        assert rec.delivered, (src, dst, rec.detail)
        assert all(network.nodes[n].role == "server" for n in rec.path[1:-1])
    assert network.audit_roles() == []
    for record in records(engine):
        if record.kind == "link_up":
            a = record.origin
            b = dict(f.split("=", 1) for f in record.details.split()).get("peer")
            assert not (network.nodes[a].role == "client"
                        and network.nodes[b].role == "client")
    # plus every c/s topology from criterion 4
    for net in getattr(test_04_routing_table_oracle_equivalence, "cs_networks", []):
        assert net.audit_roles() == []
    _pass(5, "no client-client link ever; all delivery interiors are servers")


def test_06_key_rate_monotonicity_and_abort():
    n = 10**4
    key = RandomStream(106, "acc6").bits(n)
    lengths = []
    for i in range(13):
        q = i / 100.0
        _, leak = reconcile(key, key, q)
        final = privacy_amplify(key, q, leak, RandomStream(106, f"acc6/{i}"),
                                safety_margin_bits=100)
        lengths.append(len(final))
        if q == 0.05:
            assert leak == 3323
            assert len(final) == 3713
    assert all(b <= a for a, b in zip(lengths, lengths[1:]))
    assert lengths[12] == 0  # 0.12 > 0.11 abort threshold
    _pass(6, f"final lengths non-increasing over qber sweep: {lengths}; "
             f"spot value at 0.05 = 3713 (leak 3323)")


def _random_traffic_scenario(n_nodes=50, n_events=10**4, seed=77):
    rng = np.random.default_rng(seed)
    lines = [
        "mode p2p", f"seed {seed}",
        "param atm_loss_db_per_km 0.05",
        "param fixed_system_loss_db 0.0",
        "param detector_efficiency 1.0",
        "param intrinsic_error_prob 0.005",
        "param noise_prob 1e-06",
        "param min_sift_len 256",
        "param safety_margin_bits 32",
        "param pulses_per_session 4096",
        "param max_session_attempts 3",
    ]
    ids = [f"n{i:02d}" for i in range(n_nodes)]
    for nid in ids:
        lat = rng.uniform(0, 1.2)
        lon = rng.uniform(0, 1.2)
        alt = rng.uniform(100, 2500)
        lines.append(f"node {nid} peer {lat:.6f} {lon:.6f} {alt:.1f}")
    t = 1.0
    hexdigits = "0123456789abcdef"
    for _ in range(n_events):
        r = rng.random()
        a, b = rng.choice(n_nodes, size=2, replace=False)
        if r < 0.55:
            payload = "".join(rng.choice(list(hexdigits))
                              for _ in range(int(rng.integers(2, 11))))
            lines.append(f"at {t:.1f} send {ids[a]} {ids[b]} hex:{payload}")
        elif r < 0.70:
            lines.append(f"at {t:.1f} qkd {ids[a]} {ids[b]} pulses=4096")
        elif r < 0.85:
            lat, lon = rng.uniform(0, 1.2), rng.uniform(0, 1.2)
            alt = rng.uniform(100, 2500)
            lines.append(f"at {t:.1f} move {ids[a]} {lat:.6f} {lon:.6f} {alt:.1f}")
        else:
            state = "on" if rng.random() < 0.5 else "off"
            lines.append(f"at {t:.1f} eve {ids[a]} {ids[b]} intercept_resend {state}")
        t += 1.0
    return "\n".join(lines) + "\n"


def test_07_otp_audit_over_random_scenario():
    text = _random_traffic_scenario()
    sc = parse_scenario(text)
    from soqn.runner import build_simulation, install_handler
    engine, network = build_simulation(sc)
    install_handler(engine, network, [])
    t0 = time.perf_counter()
    engine.run_until()
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert network.audit_otp() == []
    assert network.audit_tables() == []
    failed = [d for d in network.deliveries if not d.delivered]
    delivered = [d for d in network.deliveries if d.delivered]
    assert all(d.bits_consumed == 0 for d in failed)
    assert delivered and failed, "scenario should exercise both outcomes"
    _pass(7, f"50 nodes, 10^4 events in {elapsed:.1f}s: every key bit consumed "
             f"at most once; {len(failed)} failed sends consumed nothing")


DETERMINISM_SCENARIO = """\
mode p2p
seed 31
param atm_loss_db_per_km 0.0
param fixed_system_loss_db 0.0
param detector_efficiency 1.0
param intrinsic_error_prob 0.0
param noise_prob 0.0
param min_sift_len 64
param safety_margin_bits 0
param pulses_per_session 2048
node n1 peer 0.0 0.0 500.0
node n2 peer 0.0 0.9 500.0
node n3 peer 0.0 1.8 3000.0
at 1.0 qkd n1 n2 pulses=4096
at 2.0 qkd n2 n3 pulses=4096
at 3.0 send n1 n3 hex:0123456789abcdef
at 4.0 send n3 n1 hex:ff00ff00
"""

EXTRA_NODE = "node far peer 40.0 90.0 0.0\n"


def _session_transcripts(log_path):
    out = []
    with open(log_path) as fh:
        for line in fh:
            fields = line.rstrip("\n").split("\t")
            if fields[2] in ("qkd", "keygen"):
                out.append((fields[2], fields[3], fields[4]))
    return out


def test_08_determinism_and_stream_independence(tmp_path):
    sc = parse_scenario(DETERMINISM_SCENARIO)
    outs = [str(tmp_path / d) for d in ("r1", "r2")]
    for out in outs:
        report, code = run_scenario(parse_scenario(DETERMINISM_SCENARIO), out_dir=out)
        assert code == 0
        assert all(m.delivered for m in report.messages)
    for name in ("events.log", "report.txt", "records.tsv"):
        with open(os.path.join(outs[0], name), "rb") as f1, \
             open(os.path.join(outs[1], name), "rb") as f2:
            assert f1.read() == f2.read(), f"{name} differs between identical runs"

    # an unrelated node must not perturb any existing session transcript
    with_extra = DETERMINISM_SCENARIO.replace("node n1", EXTRA_NODE + "node n1", 1)
    out3 = str(tmp_path / "r3")
    report3, code3 = run_scenario(parse_scenario(with_extra), out_dir=out3)
    assert code3 == 0
    base = _session_transcripts(os.path.join(outs[0], "events.log"))
    extra = _session_transcripts(os.path.join(out3, "events.log"))
    assert base == extra
    _pass(8, f"byte-identical reruns; {len(base)} session transcripts unchanged "
             f"by an unrelated node")


def test_10_geodesy_oracles():
    # independent hand computations: 6371 * pi / 180 and sqrt(2 * R * h)
    one_deg = geodesic_distance(GeoPosition(0, 0, 0), GeoPosition(0, 1, 0))
    oracle = EARTH_RADIUS_KM * math.pi / 180.0
    assert abs(one_deg - oracle) / oracle < 1e-4  # agree to > 4 significant figures
    assert abs(one_deg - 111.1949266) < 1e-4

    horizon_2m = math.sqrt(2 * EARTH_RADIUS_KM * 0.002)
    assert 2 * horizon_2m < 200.0
    sea_a = GeoPosition(0, 0, 0)
    sea_b = GeoPosition(0, math.degrees(200.0 / EARTH_RADIUS_KM), 0)
    assert not line_of_sight(sea_a, sea_b)
    high_b = GeoPosition(0, math.degrees(150.0 / EARTH_RADIUS_KM), 3000.0)
    assert math.sqrt(2 * EARTH_RADIUS_KM * 3.0) + horizon_2m > 150.0
    assert line_of_sight(sea_a, high_b)
    _pass(10, f"haversine {one_deg:.6f} km vs oracle {oracle:.6f}; "
              f"200 km sea-level pair blocked (horizon {2 * horizon_2m:.1f} km)")
