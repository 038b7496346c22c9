"""Seeded scenario generators for the benchmark workloads.

Each generator turns an integer seed into scenario text in the soqn DSL.
The same seed always gives byte-identical text: only ``random.Random`` and
fixed-precision formatting are used, and nothing is read from the program
under test. Positions are jittered grids (one node per cell), and sends
are drawn in fixed distance bands, so the link count, the path lengths and
with them the run cost vary little from seed to seed.
"""
from __future__ import annotations

import random

# Channel parameters of the bundled scenarios: short sessions that rarely abort.
_CHANNEL = (
    "param detector_efficiency 1\n"
    "param fixed_system_loss_db 0\n"
    "param atm_loss_db_per_km 0.05\n"
    "param min_sift_len 256\n"
    "param pulses_per_session 8192\n"
)
_KM_PER_DEG = 6371.0 * 3.141592653589793 / 180.0
# Pairs closer than this are always linkable (max range 144 km, and every
# node sits at least 50 m up, which gives a horizon of at least 25 km on
# one side and 195 km or more on the other).
_SURE_LINK_KM = 100.0


def _grid(rng: random.Random, rows: int, cols: int, lat0: float, lon0: float,
          lat_span: float, lon_span: float, jitter: float = 1.0) -> list[tuple[float, float]]:
    """One point per cell, placed at random within the middle ``jitter``
    share of the cell along each axis."""
    dlat, dlon = lat_span / rows, lon_span / cols
    low = (1.0 - jitter) / 2.0
    return [(lat0 + (r + low + jitter * rng.random()) * dlat,
             lon0 + (c + low + jitter * rng.random()) * dlon)
            for r in range(rows) for c in range(cols)]




def _close_pairs(rng: random.Random, pos: dict[str, tuple[float, float]],
                 firsts: list[str], seconds: list[str], count: int) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    while len(pairs) < count:
        a, b = rng.choice(firsts), rng.choice(seconds)
        # The margin from _SURE_LINK_KM to 144 km covers the flat-earth error.
        if a != b and _km(pos[a], pos[b]) < _SURE_LINK_KM and (a, b) not in pairs:
            pairs.append((a, b))
    return pairs


def _hex(rng: random.Random, bits: int) -> str:
    return f"{rng.getrandbits(bits):0{bits // 4}x}"


def _node(nid: str, role: str, lat: float, lon: float, alt: float, deploy: float | None = None) -> str:
    line = f"node {nid} {role} {lat:.5f} {lon:.5f} {alt:.1f}"
    return line + (f" deploy={deploy:.3f}" if deploy is not None else "") + "\n"


def _events(events: list[tuple[float, str]]) -> str:
    # Stable sort: events at equal times keep their generation order.
    return "".join(f"at {t:.3f} {body}\n" for t, body in sorted(events, key=lambda e: e[0]))


def _km(a: tuple[float, float], b: tuple[float, float]) -> float:
    # Flat-earth estimate near the equator.
    return ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) ** 0.5 * _KM_PER_DEG


def _banded_pairs(rng: random.Random, pos: dict[str, tuple[float, float]], ids: list[str],
                  bands: list[tuple[int, float, float]]) -> list[tuple[str, str]]:
    """(sender, receiver) pairs from ``ids`` in random order: for each
    (count, low_km, high_km) band, ``count`` pairs that far apart, so that
    every seed gets the same mix of path lengths."""
    pairs: list[tuple[str, str]] = []
    for count, low, high in bands:
        found: list[tuple[str, str]] = []
        while len(found) < count:
            a, b = rng.sample(ids, 2)
            if low <= _km(pos[a], pos[b]) < high:
                found.append((a, b))
        pairs += found
    rng.shuffle(pairs)
    return pairs


def p2p_mesh_sends(seed: int) -> str:
    """144 peers on a jittered 12x12 grid over 7.5x7.5 degrees, 56
    32-bit sends over 3 to 5 hops between peers that stay put, 32 peers
    that move once each, 8 late joins and 10 explicit QKD sessions.

    Joins and moves stay two cells clear of the grid's edges, where a peer
    has up to half as many peers in range, so that every topology change
    sees about as many neighbours. A send's cost also depends on how many
    of its hops need a lazy QKD top-up first, which varies from send to
    send; on long routes these variations add up to one smooth spread, so
    the send median does not jump between hop counts from seed to seed."""
    rng = random.Random(seed)
    span, n = 7.5, 12
    cells = _grid(rng, n, n, -span / 2, 0.0, span, span)
    ids = [f"p{i:03d}" for i in range(len(cells))]
    inner = [ids[r * n + c] for r in range(2, n - 2) for c in range(2, n - 2)]
    late = set(rng.sample(inner, 8))
    early = [nid for nid in ids if nid not in late]
    movers = rng.sample([nid for nid in inner if nid not in late], 32)
    margin = 2 * span / n
    pos = dict(zip(ids, cells))
    out = [f"mode p2p\nseed {seed}\n", _CHANNEL]
    for nid, (lat, lon) in zip(ids, cells):
        deploy = round(rng.uniform(20.0, 280.0), 3) if nid in late else None
        out.append(_node(nid, "peer", lat, lon, rng.uniform(500.0, 2000.0), deploy))
    events: list[tuple[float, str]] = []
    for i, (a, b) in enumerate(_close_pairs(rng, pos, early, early, 10)):
        events.append((0.5 + 0.01 * i, f"qkd {a} {b} pulses=8192"))
    stay = [nid for nid in early if nid not in movers]
    bands = [(56, 330.0, 520.0)]
    for i, (a, b) in enumerate(_banded_pairs(rng, pos, stay, bands)):
        events.append((1.0 + 4.75 * i, f"send {a} {b} hex:{_hex(rng, 32)}"))
    for i, nid in enumerate(movers):
        lat = rng.uniform(-span / 2 + margin, span / 2 - margin)
        lon = rng.uniform(margin, span - margin)
        events.append((8.5 + 6.75 * i, f"move {nid} {lat:.5f} {lon:.5f} {rng.uniform(500.0, 2000.0):.1f}"))
    out.append(_events(events))
    return "".join(out)


def cs_mobility(seed: int) -> str:
    """16 servers at 3000 m and 96 clients over 3.4x3.4 degrees; 10
    clients deploy late, 35 clients move twice each, 48 sends between
    clients that stay put and lie under 600 km apart, and 10 explicit
    client-server QKD sessions."""
    rng = random.Random(seed)
    span = 3.4
    # Servers sit near their cell centres, so that neighbouring servers are
    # always in range of each other and the backbone is connected.
    servers = _grid(rng, 4, 4, -span / 2, 0.0, span, span, jitter=0.5)
    clients = _grid(rng, 8, 12, -span / 2, 0.0, span, span)
    sids = [f"s{i:02d}" for i in range(len(servers))]
    cids = [f"c{i:03d}" for i in range(len(clients))]
    late = set(rng.sample(cids, 10))
    early = [c for c in cids if c not in late]
    movers = rng.sample(early, 35)
    pos = dict(zip(sids + cids, servers + clients))
    out = [f"mode cs\nseed {seed}\n", _CHANNEL]
    for nid, (lat, lon) in zip(sids, servers):
        out.append(_node(nid, "server", lat, lon, 3000.0))
    for nid, (lat, lon) in zip(cids, clients):
        deploy = round(rng.uniform(10.0, 290.0), 3) if nid in late else None
        out.append(_node(nid, "client", lat, lon, rng.uniform(50.0, 300.0), deploy))
    events: list[tuple[float, str]] = []
    for i, (a, b) in enumerate(_close_pairs(rng, pos, early, sids, 10)):
        events.append((0.5 + 0.01 * i, f"qkd {a} {b} pulses=8192"))
    moves = movers + rng.sample(movers, len(movers))
    for i, nid in enumerate(moves):
        lat, lon = rng.uniform(-span / 2, span / 2), rng.uniform(0.0, span)
        events.append((1.25 + 4.25 * i, f"move {nid} {lat:.5f} {lon:.5f} {rng.uniform(50.0, 300.0):.1f}"))
    stay = [c for c in early if c not in movers]
    bands = [(48, 0.0, 600.0)]
    for i, (a, b) in enumerate(_banded_pairs(rng, pos, stay, bands)):
        events.append((2.0 + 6.25 * i, f"send {a} {b} hex:{_hex(rng, 32)}"))
    out.append(_events(events))
    return "".join(out)


def qkd_bulk_chain(seed: int) -> str:
    """A chain of 8 peers about 89 km apart with 84 explicit 60k-pulse QKD
    sessions spread evenly over its 7 links, and 56 sends of 1024 bits,
    two between each pair of chain peers (1 to 7 hops) in random order and
    direction. Two spur peers, one north and one south of the chain, join
    late and move 19 times each; each always sees exactly one chain peer,
    so it never relays and never carries key."""
    rng = random.Random(seed)
    chain = [f"q{i}" for i in range(8)]
    out = [f"mode p2p\nseed {seed}\n", _CHANNEL]
    for i, nid in enumerate(chain):
        out.append(_node(nid, "peer", rng.uniform(-0.02, 0.02), 0.8 * i + rng.uniform(-0.02, 0.02),
                         rng.uniform(400.0, 800.0)))
    # 1.17 degrees (about 130 km) off the chain: in range of the chain peer
    # below it, out of range of that peer's neighbours (over 150 km).
    spurs = [("x0", 1.17), ("x1", -1.17)]
    for j, (nid, lat) in enumerate(spurs):
        out.append(_node(nid, "peer", lat, 0.8 * rng.randrange(8), 500.0, deploy=5.0 + j))
    events: list[tuple[float, str]] = []
    hops = list(zip(chain, chain[1:]))
    order: list[tuple[str, str]] = []
    while len(order) < 84:
        rng.shuffle(hops)
        order.extend(hops)
    for i, (a, b) in enumerate(order[:84]):
        events.append((0.25 + 2.5 * i, f"qkd {a} {b} pulses=60000"))
    sends = [(a, b) for i, a in enumerate(chain) for b in chain[i + 1:]] * 2
    rng.shuffle(sends)
    for i, pair in enumerate(sends):
        a, b = pair if rng.random() < 0.5 else pair[::-1]
        events.append((1.75 + 3.5 * i, f"send {a} {b} hex:{_hex(rng, 1024)}"))
    for i in range(38):
        nid, lat = spurs[i % 2]
        events.append((10.5 + 5 * i, f"move {nid} {lat:.5f} {0.8 * rng.randrange(8):.5f} 500.0"))
    out.append(_events(events))
    return "".join(out)


WORKLOADS = {
    "p2p_mesh_sends": p2p_mesh_sends,
    "cs_mobility": cs_mobility,
    "qkd_bulk_chain": qkd_bulk_chain,
}


def generate(name: str, seed: int) -> str:
    """Scenario text for workload ``name`` and ``seed``."""
    try:
        return WORKLOADS[name](seed)
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}") from None
