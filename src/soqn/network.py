"""Self-organizing network protocol: node state, links, routing, key relay.

Nodes announce locations over the broadcast bus and acquire every feasible
optical link their roles allow; every node's routing table is the set of
active links those broadcasts announced. The network keeps each link once,
as the latest link of its pair, and routes over an endpoint index of them.

The key plane keeps counts, not pad bits: each pair's ``KeyBuffer`` holds
the bits generated and its consume cursor, and consume-once is that
cursor, which ``audit_otp`` checks over the recorded events. A session's
key is fresh fair bits, and a pad XORed onto a message and off again
returns the message, so the pad values carry nothing the model computes.
End-to-end keys for non-adjacent nodes are distributed by trusted relays:
each hop spends one block, and each interior node broadcasts the XOR of
its two hop blocks, logged by its length. ``send_message`` is the one
consumer of the key plane; it checks its message with ``as_bits`` and
spends one block of the message's length per hop.
"""
from __future__ import annotations

import math
import operator
import re
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .engine import ScenarioEvent, SimEngine
from .geo import (GeoPosition, LinkFeasibilityParams, cell_of, cell_side, feasible_distance,
                  within_chord_bound)
from .geo import geodesic_distance, link_feasible  # unused here; perfbench/tracing.py wraps them
from .qkd import (MAX_PULSES, ChannelParams, ProtocolParams, SessionRecord, path_loss_db,
                  run_bb84_session, run_plugplay_session)

NodeId = str

_ID_RE = re.compile(r"[A-Za-z0-9_.\-]+")  # matched with fullmatch

ROLE_PEER = "peer"
ROLE_SERVER = "server"
ROLE_CLIENT = "client"
ROLES = (ROLE_PEER, ROLE_SERVER, ROLE_CLIENT)

# mode -> role -> the roles it may link to: its keys are the modes, and each
# mode's keys the roles its nodes may hold. Clients never link to clients.
_LINKABLE = {
    "p2p": {ROLE_PEER: (ROLE_PEER,)},
    "cs": {ROLE_SERVER: (ROLE_SERVER, ROLE_CLIENT), ROLE_CLIENT: (ROLE_SERVER,)},
}


class NetworkError(Exception):
    pass


class DuplicateNodeError(NetworkError):
    pass


class UnknownNodeError(NetworkError):
    pass


class RoleModeError(NetworkError):
    pass


class LinkInactiveError(NetworkError):
    pass


class NoRouteError(NetworkError):
    pass


class KeyStarvationError(NetworkError):
    def __init__(self, hop: tuple[NodeId, NodeId], needed: int, available: int):
        super().__init__(f"hop {hop[0]}~{hop[1]} has {available} key bits, needs {needed}")
        self.hop = hop
        self.needed = needed
        self.available = available


# Bits are uint8 arrays of 0/1: the public helpers check theirs, the cores trust them.
# No send calls xor_bits or hex_from_bits; perfbench/tracing.py looks them up by name.

def as_bits(value) -> np.ndarray:
    """``value`` as a 1-d uint8 array if its dtype is bool, integer or float
    and every element equals 0 or 1, checked before the cast, which would
    wrap, truncate or drop an imaginary part; else ValueError."""
    arr = np.asarray(value)
    if arr.ndim != 1:
        raise ValueError("bitstrings must be one-dimensional")
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"bitstrings must be bool, integer or float, not {arr.dtype}")
    if arr.dtype == np.uint8 or arr.dtype == np.bool_:
        bad = arr.size and arr.max() > 1
    else:
        bad = not ((arr == 0) | (arr == 1)).all()
    if bad:
        raise ValueError("bitstrings may contain only 0 and 1")
    return arr.astype(np.uint8, copy=False)


def xor_bits(a, b) -> np.ndarray:
    """Both bitstrings, checked by ``as_bits`` and for equal length, XORed."""
    x = as_bits(a)
    y = as_bits(b)
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return x ^ y


def hex_from_bits(bits) -> str:
    arr = as_bits(bits)
    if len(arr) % 4 != 0:
        raise ValueError("bit length must be a multiple of 4")
    return _hex(arr)


def _hex(arr: np.ndarray) -> str:
    """Hex of checked bits whose length is a multiple of 4."""
    return np.packbits(arr).tobytes().hex()[: len(arr) // 4]


def pair_key(a: NodeId, b: NodeId) -> tuple[NodeId, NodeId]:
    if a == b:
        raise ValueError("link endpoints must be distinct")
    return (a, b) if a < b else (b, a)


@dataclass
class NodeInfo:
    node_id: NodeId
    role: str
    position: GeoPosition


@dataclass
class OpticalLink:
    endpoints: tuple[NodeId, NodeId]  # sorted
    distance_km: float
    loss_db: float
    acquired_at: float
    state: str = "active"  # acquiring | active | torn_down


def _bit_count(n) -> int:
    """``n`` as a Python int, through ``operator.index``; TypeError for a
    bool or a count that is not an integer."""
    if isinstance(n, bool):
        raise TypeError(f"a bit count must be an integer, not {n!r}")
    return operator.index(n)


class KeyBuffer:
    """A pair's one-time-pad key as two counts: the bits generated and the
    consume cursor. Bits below the cursor are never handed out again."""

    def __init__(self, pair: tuple[NodeId, NodeId]):
        self.pair = pair
        self.total_generated = 0
        self.consumed_offset = 0

    @property
    def available(self) -> int:
        return self.total_generated - self.consumed_offset

    def append(self, n: int) -> int:
        """Add ``n`` fresh key bits; returns the offset they start at."""
        n = _bit_count(n)
        if n < 0:
            raise ValueError("cannot append a negative number of bits")
        start = self.total_generated
        self.total_generated += n
        return start

    def consume(self, n: int) -> int:
        """Hand out the next ``n`` bits; returns the offset they start at."""
        n = _bit_count(n)
        if n < 0:
            raise ValueError("cannot consume a negative number of bits")
        if self.available < n:
            raise KeyStarvationError(self.pair, n, self.available)
        start = self.consumed_offset
        self.consumed_offset += n
        return start


@dataclass(frozen=True)
class DeliveryRecord:
    at: float
    src: NodeId
    dst: NodeId
    path: tuple[NodeId, ...] | None
    outcome: str  # delivered | no_route | key_starved | qkd_abort
    bits_consumed: int
    failing_hop: tuple[NodeId, NodeId] | None = None
    detail: str = ""

    @property
    def delivered(self) -> bool:
        return self.outcome == "delivered"


_NO_LINKS: Mapping[NodeId, OpticalLink] = MappingProxyType({})


def _path_to(reached: dict[NodeId, tuple[float, NodeId | None]], node: NodeId) -> list[NodeId]:
    """The path ``shortest_path`` holds to a reached node, rebuilt from parents."""
    path = []
    while node is not None:
        path.append(node)
        node = reached[node][1]
    path.reverse()
    return path


def shortest_path(adj: dict[NodeId, dict[NodeId, OpticalLink]], src: NodeId, dst: NodeId,
                  can_relay) -> list[NodeId]:
    """Deterministic min-hop path over the active links of a link index:
    the routing table every node builds from the broadcasts.

    ``adj[a][b]`` is the link between a and b; links whose state is not
    "active" are skipped. Ties break by total distance, then by
    lexicographic node-id sequence. ``can_relay(node)`` gates which nodes
    may appear in the interior. Raises NoRouteError when dst is unreachable.

    The search expands one hop level at a time and holds one (km, parent)
    per reached node: a node first reached at level h keeps the least
    (km, path) over its level h-1 neighbours that may relay, km summed left
    to right along the path. The candidates of one level have paths of
    equal length, so on an exact km tie the parents' paths, rebuilt from
    the parents, decide. Before it expands a level, the search checks
    whether one of the level's nodes that may relay (or src) has an active
    link to dst. If one does, dst lies on the next level and is reached
    only through such nodes, so the search returns the least route through
    them without building that level.
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    reached: dict[NodeId, tuple[float, NodeId | None]] = {src: (0.0, None)}
    into_dst = adj.get(dst, _NO_LINKS)
    linked_to_dst = into_dst.keys()
    frontier = [src]  # then each level's nodes that may relay
    while frontier:
        if not linked_to_dst.isdisjoint(frontier):
            last = None
            for node in frontier:
                link = into_dst.get(node)
                if link is None or link.state != "active":
                    continue
                km = reached[node][0] + link.distance_km
                if (last is None or km < last[0] or (
                        km == last[0] and _path_to(reached, node) < _path_to(reached, last[1]))):
                    last = (km, node)
            if last is not None:
                return _path_to(reached, last[1]) + [dst]
        level: dict[NodeId, tuple[float, NodeId]] = {}
        for node in frontier:
            dist = reached[node][0]
            for nbr, link in adj.get(node, _NO_LINKS).items():
                if nbr in reached or link.state != "active":
                    continue
                km = dist + link.distance_km
                held = level.get(nbr)
                if (held is None or km < held[0] or (
                        km == held[0] and _path_to(reached, node) < _path_to(reached, held[1]))):
                    level[nbr] = (km, node)
        reached.update(level)
        frontier = list(filter(can_relay, level))
    raise NoRouteError(f"no route from {src} to {dst}")


class Network:
    """Protocol state machine; all mutation runs on the engine's event loop.

    Link acquisition searches a cell index of the deployed nodes, keyed by
    role and by the cube of side ``geo.cell_side`` that holds the node's
    ``unit_vector``. That side bounds the chord of every pair the range
    bound ``geo.within_chord_bound`` keeps, so every feasible pair lies in
    neighbouring cells: a node tests only the nodes of the roles it may
    link to in its own and the 26 surrounding cells. Each node's
    candidates go through that bound in one call, and the ones it keeps
    through the exact test, in the order nodes were added, so links come
    up in the order of a test of every deployed node.
    """

    def __init__(self, mode: str, engine: SimEngine,
                 feasibility: LinkFeasibilityParams | None = None,
                 channel: ChannelParams | None = None,
                 protocol: ProtocolParams | None = None,
                 acquire_delay_s: float = 0.0,
                 pulses_per_session: int = 20000,
                 max_session_attempts: int = 4,
                 precharge_bits: int = 0):
        if mode not in _LINKABLE:
            raise ValueError(f"mode must be p2p or cs, got {mode!r}")
        if not 0.0 <= acquire_delay_s < math.inf:
            raise ValueError("acquire_delay_s must be finite and >= 0")
        if not 1 <= pulses_per_session <= MAX_PULSES:
            raise ValueError("pulses_per_session must be in [1, 2**63 - 1], "
                             "the trials numpy's binomial takes")
        if max_session_attempts < 0:
            raise ValueError("max_session_attempts must be >= 0")
        if precharge_bits < 0:
            raise ValueError("precharge_bits must be >= 0")
        self.mode = mode
        self.engine = engine
        self.feasibility = feasibility or LinkFeasibilityParams()
        self.channel = channel or ChannelParams()
        self.protocol = protocol or ProtocolParams()
        self.acquire_delay_s = acquire_delay_s
        self.pulses_per_session = pulses_per_session
        self.max_session_attempts = max_session_attempts
        self.precharge_bits = precharge_bits

        self.nodes: dict[NodeId, NodeInfo] = {}
        # Each node's place in the order nodes were added in.
        self._order: dict[NodeId, int] = {}
        self._linkable = _LINKABLE[mode]
        # The nodes that may sit inside a route or a relay path.
        self._can_relay = ((lambda n: self.nodes[n].role == ROLE_SERVER) if mode == "cs"
                           else (lambda n: True))
        # The cell index: the deployed nodes by role and by the cell of their
        # position, and each one's cell. The cell (ix, iy, iz) of
        # ``geo.cell_of`` is keyed as the integer (ix * k + iy) * k + iz, so
        # the keys of its 27 neighbours are its own plus fixed offsets. Unit
        # vectors lie in [-1, 1], so k exceeds the span of cell coordinates
        # (neighbours included), and distinct cells get distinct keys.
        self._cell_side = side = cell_side(self.feasibility)
        self._cell_stride = k = 2 * math.floor(1.0 / side) + 4
        self._neighbourhood = tuple((dx * k + dy) * k + dz for dx in (-1, 0, 1)
                                    for dy in (-1, 0, 1) for dz in (-1, 0, 1))
        self._cells: dict[str, dict[int, set[NodeId]]] = {role: {} for role in self._linkable}
        self._cell_at: dict[NodeId, int] = {}
        # The latest link of each pair, in any state.
        self.link_history: dict[tuple[NodeId, NodeId], OpticalLink] = {}
        # Every link not torn down under both of its ends, in acquisition order.
        self._adj: dict[NodeId, dict[NodeId, OpticalLink]] = {}
        self.table_version = 0
        self.buffers: dict[tuple[NodeId, NodeId], KeyBuffer] = {}
        # The pairs an intercept-resend Eve sits on.
        self.eve: set[tuple[NodeId, NodeId]] = set()
        self.deliveries: list[DeliveryRecord] = []
        self.session_stats: dict[tuple[NodeId, NodeId], list[SessionRecord]] = {}
        # (pair, offset, n) and (pair, offset, n, purpose): the audit trail
        # mirrored from keygen/consume log records.
        self.keygen_events: list[tuple[tuple[NodeId, NodeId], int, int]] = []
        self.consume_events: list[tuple[tuple[NodeId, NodeId], int, int, str]] = []
        self.organized = False

    # -- node lifecycle ---------------------------------------------------

    def add_node(self, node_id: NodeId, role: str, position: GeoPosition) -> None:
        if not _ID_RE.fullmatch(node_id):
            raise ValueError(f"node id must match [A-Za-z0-9_.-]+: {node_id!r}")
        if node_id in self.nodes:
            raise DuplicateNodeError(f"duplicate node id {node_id!r}")
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}")
        if role not in self._linkable:
            raise RoleModeError(f"role {role!r} has no place in a {self.mode} network")
        self.nodes[node_id] = NodeInfo(node_id, role, position)
        self._order[node_id] = len(self._order)

    def handle_deploy(self, node_id: NodeId) -> None:
        node = self._node(node_id)
        if self.engine.is_deployed(node_id):
            raise DuplicateNodeError(f"node {node_id!r} deployed twice")
        pos = node.position
        self.engine.mark_deployed(node_id, f"role={node.role} lat={pos.latitude_deg:.6g} "
                                  f"lon={pos.longitude_deg:.6g} alt={pos.altitude_m:.6g}")
        self._place(node, pos)
        if self.organized:
            self.join_network(node_id)

    def organize_network(self) -> None:
        """Initial organization round over every deployed node."""
        deployed = [n for n in self.nodes if self.engine.is_deployed(n)]
        for nid in deployed:
            self.engine.broadcast(nid, "location", self._loc_payload(nid))
        order = self._order
        for a in deployed:
            self._acquire(a, order[a])
        for nid in deployed:
            self.engine.broadcast(nid, "link_report", f"links={self._incident_count(nid)}")
        self.organized = True
        self._topology_changed("organize", "-",
                               f"nodes={len(deployed)} links={len(self.active_pairs())}")

    def join_network(self, node_id: NodeId) -> None:
        """A freshly deployed node acquires links to every eligible node."""
        self._deployed(node_id)
        self._announce_and_acquire(node_id, "join_request")
        self._topology_changed("join", node_id, f"links={self._incident_count(node_id)}")

    def move_node(self, node_id: NodeId, new_pos: GeoPosition) -> None:
        """Tear down incident links, relocate, and re-run the join procedure."""
        node = self._deployed(node_id)
        adj, emit = self._adj, self.engine.emit
        for other, link in adj.pop(node_id, _NO_LINKS).items():
            del adj[other][node_id]
            pair = link.endpoints
            link.state = "torn_down"
            emit("link_down", node_id, f"pair={pair[0]}~{pair[1]} reason=move")
        self._place(node, new_pos)
        self._announce_and_acquire(node_id, "location")
        self._topology_changed("move", node_id, f"lat={new_pos.latitude_deg:.6g} "
                               f"lon={new_pos.longitude_deg:.6g} alt={new_pos.altitude_m:.6g}")

    def activate_link(self, link: OpticalLink) -> None:
        """End ``link``'s acquisition delay; a link torn down meanwhile stays
        down, and a later link of its pair waits out its own delay."""
        if link.state == "acquiring":
            link.state = "active"
            self._topology_changed("link_active", "-", f"pair={'~'.join(link.endpoints)}",
                                   link.endpoints)

    # -- key generation and transfer ---------------------------------------

    def set_eve(self, a: NodeId, b: NodeId, on: bool) -> None:
        """Start (``on``) or stop an intercept-resend attack on the pair's link."""
        pair = pair_key(a, b)
        self._node(a)
        self._node(b)
        if on:
            self.eve.add(pair)
        else:
            self.eve.discard(pair)
        self.engine.emit("eve", "-", f"pair={pair[0]}~{pair[1]} "
                                     f"mode={'intercept_resend' if on else 'none'}")

    def generate_direct_key(self, a: NodeId, b: NodeId, n_pulses: int) -> SessionRecord:
        """Run the mode-appropriate QKD session over an active link and, on
        success, add its ``final_len`` key bits to the pairwise buffer."""
        roles = {self._node(a).role, self._node(b).role}
        pair = pair_key(a, b)
        link = self._adj.get(a, _NO_LINKS).get(b)
        if link is None or link.state != "active":
            raise LinkInactiveError(f"no active link {pair[0]}~{pair[1]}")
        proto = "plugplay" if roles == {ROLE_SERVER, ROLE_CLIENT} else "bb84"
        index = len(self.session_stats.get(pair, ()))
        stream = self.engine.stream(f"qkd/{pair[0]}/{pair[1]}/{index}")
        run = run_plugplay_session if proto == "plugplay" else run_bb84_session
        rec = run(link, n_pulses, pair in self.eve, stream, self.channel, self.protocol)
        self.session_stats.setdefault(pair, []).append(rec)
        self.engine.emit("qkd", pair[0],
                         f"peer={pair[1]} proto={proto} index={index} pulses={n_pulses} "
                         f"sifted={rec.sifted_len} qber={rec.qber:.6g} "
                         f"leak={rec.reconciliation_leak_bits} final={rec.final_len} "
                         f"outcome={'abort' if rec.aborted else 'ok'} "
                         f"reason={rec.abort_reason.value}")
        if not rec.aborted:
            self._store_key(pair, rec.final_len)
        return rec

    def find_path(self, src: NodeId, dst: NodeId) -> list[NodeId]:
        """Min-hop route over the active links; see ``shortest_path``.

        Searches the link index in place, so no per-send copy is built.
        """
        self._node(src)
        self._node(dst)
        if not self.engine.is_deployed(src):
            raise UnknownNodeError(f"node {src!r} has no routing table")
        return shortest_path(self._adj, src, dst, self._can_relay)

    def relay_key_setup(self, path: list[NodeId], block_len: int) -> None:
        """Consume one block of ``block_len`` bits per hop; each interior
        node broadcasts the XOR of its two hop blocks, logged by its length.

        Consumption is all-or-nothing: a ``block_len`` that is not an
        integer (TypeError) or is negative, a path that repeats a node or one
        through a node not deployed is refused first, then an interior node
        that may not relay, then each hop short of bits, then each with no
        active link, before any consume.
        """
        if len(path) < 3:
            raise ValueError("relay paths need at least one interior node")
        block_len = _bit_count(block_len)
        if block_len < 0:
            raise ValueError(f"block_len must be >= 0, got {block_len}")
        if len(set(path)) != len(path):
            raise ValueError(f"relay path {'>'.join(path)} repeats a node")
        for nid in path:
            self._deployed(nid)
        for nid in path[1:-1]:
            if not self._can_relay(nid):
                raise RoleModeError(f"{self.nodes[nid].role} {nid!r} may not relay")
        hops = [pair_key(a, b) for a, b in zip(path, path[1:])]
        for hop in hops:
            buf = self.buffers.get(hop)  # a refusal leaves no empty buffer behind
            available = 0 if buf is None else buf.available
            if available < block_len:
                raise KeyStarvationError(hop, block_len, available)
            link = self.link_history.get(hop)
            if link is None or link.state != "active":
                raise LinkInactiveError(f"no active link {hop[0]}~{hop[1]}")
        for hop in hops:
            self._consume(hop, block_len, "relay_hop")
        for relay in path[1:-1]:
            self.engine.broadcast(relay, "relay_xor", f"bits={block_len}")
        self.engine.emit("relay", path[0], f"path={'>'.join(path)} block_len={block_len}")

    def send_message(self, src: NodeId, dst: NodeId, message) -> DeliveryRecord:
        """Route one message and spend a block of its length on each hop."""
        mlen = len(as_bits(message))
        self._deployed(src)
        self._deployed(dst)
        try:
            path = self.find_path(src, dst)
        except NoRouteError as exc:
            return self._delivery(src, dst, None, "no_route", 0, detail=str(exc))
        if mlen == 0:
            return self._delivery(src, dst, tuple(path), "delivered", 0)
        hops = [pair_key(a, b) for a, b in zip(path, path[1:])]
        for hop in hops:
            failure = self._ensure_key(hop, mlen)
            if failure is not None:
                outcome, detail = failure
                return self._delivery(src, dst, tuple(path), outcome, 0,
                                      failing_hop=hop, detail=detail)
        if len(path) == 2:
            self._consume(hops[0], mlen, "direct")
        else:
            self.relay_key_setup(path, mlen)
        return self._delivery(src, dst, tuple(path), "delivered", mlen * len(hops))

    # -- audits -------------------------------------------------------------

    def audit_otp(self) -> list[str]:
        """Check the consume-once discipline over the recorded events."""
        problems: list[str] = []
        by_pair: dict[tuple[NodeId, NodeId], list[tuple[int, int, str]]] = {}
        for pair, off, n, purpose in self.consume_events:
            by_pair.setdefault(pair, []).append((off, n, purpose))
        generated = {pair: 0 for pair in by_pair}
        for pair, off, n in self.keygen_events:
            generated[pair] = generated.get(pair, 0) + n
        for pair, uses in by_pair.items():
            uses.sort()
            cursor = 0
            for off, n, purpose in uses:
                if off < cursor:
                    problems.append(f"{pair}: overlapping consumption at offset {off} ({purpose})")
                cursor = max(cursor, off + n)
            if cursor > generated.get(pair, 0):
                problems.append(f"{pair}: consumed {cursor} bits but generated {generated.get(pair, 0)}")
        return problems

    def audit_tables(self) -> list[str]:
        """Check that the link index, which routing searches, holds every
        link not torn down under both ends and nothing else, and that the
        cell index, which acquisition searches, holds every deployed node
        in the cell of its position and nothing else."""
        adj = self._adj
        problems: list[str] = []
        indexed = 0
        for (a, b), link in self.link_history.items():
            if link.state != "torn_down":
                indexed += 1
                if adj.get(a, _NO_LINKS).get(b) is not link:
                    problems.append(f"link {a}~{b} missing from the index of {a}")
                if adj.get(b, _NO_LINKS).get(a) is not link:
                    problems.append(f"link {a}~{b} missing from the index of {b}")
        # The entries in their right place number 2 * links - missing, so any
        # more entries list a link the link set does not have.
        if sum(map(len, adj.values())) != 2 * indexed - len(problems):
            links = self.links
            problems += [f"index of {a} lists {b} with no link"
                         for a, nbrs in adj.items() for b, link in nbrs.items()
                         if links.get(pair_key(a, b)) is not link]
        return problems + self._audit_cells()

    def _audit_cells(self) -> list[str]:
        is_deployed, cell_at, key = self.engine.is_deployed, self._cell_at, self._cell_key
        problems: list[str] = []
        placed = 0
        for nid, node in self.nodes.items():
            if is_deployed(nid):
                cell = key(node.position)
                if cell_at.get(nid) == cell and nid in self._cells[node.role].get(cell, ()):
                    placed += 1
                else:
                    problems.append(f"node {nid} missing from the cell of its position")
        # As above: entries beyond the nodes in place are stale.
        if (len(cell_at) != placed
                or sum(len(bucket) for cells in self._cells.values() for bucket in cells.values()) != placed):
            problems += [f"cell index lists {nid} where it is not"
                         for role, cells in self._cells.items()
                         for cell, bucket in cells.items() for nid in bucket
                         if not (is_deployed(nid) and self.nodes[nid].role == role
                                 and key(self.nodes[nid].position) == cell == cell_at.get(nid))]
            problems += [f"cell index places {nid}, which is not deployed"
                         for nid in cell_at if not is_deployed(nid)]
        return problems

    def audit_roles(self) -> list[str]:
        """C/S structural invariant: no client-client link, ever."""
        problems: list[str] = []
        if self.mode != "cs":
            return problems
        for a, b in self.link_history:
            if self.nodes[a].role == ROLE_CLIENT and self.nodes[b].role == ROLE_CLIENT:
                problems.append(f"client-client link {a}~{b}")
        for rec in self.deliveries:
            if rec.path is not None:
                for interior in rec.path[1:-1]:
                    if self.nodes[interior].role != ROLE_SERVER:
                        problems.append(f"non-server relay {interior} in path {'>'.join(rec.path)}")
        return problems

    # -- internals ----------------------------------------------------------

    def _node(self, node_id: NodeId) -> NodeInfo:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node {node_id!r}") from None

    def _deployed(self, node_id: NodeId) -> NodeInfo:
        """``_node``, for a node that must also be deployed."""
        node = self._node(node_id)
        if not self.engine.is_deployed(node_id):
            raise UnknownNodeError(f"node {node_id!r} is not deployed")
        return node

    def _loc_payload(self, nid: NodeId) -> str:
        p = self.nodes[nid].position
        return f"{p.latitude_deg:.6g},{p.longitude_deg:.6g},{p.altitude_m:.6g}"

    def _incident_count(self, nid: NodeId) -> int:
        return len(self._adj.get(nid, _NO_LINKS))

    def _cell_key(self, position: GeoPosition) -> int:
        ix, iy, iz = cell_of(position, self._cell_side)
        return (ix * self._cell_stride + iy) * self._cell_stride + iz

    def _place(self, node: NodeInfo, position: GeoPosition) -> None:
        """Put a deployed node at ``position``, in the cell index too."""
        node.position = position
        nid = node.node_id
        old = self._cell_at.get(nid)
        new = self._cell_at[nid] = self._cell_key(position)
        if new != old:
            cells = self._cells[node.role]
            if old is not None:
                bucket = cells[old]
                bucket.remove(nid)
                if not bucket:
                    del cells[old]
            cells.setdefault(new, set()).add(nid)

    def _candidates(self, node_id: NodeId, after: int = -1) -> list[NodeId]:
        """The deployed nodes added after the ``after``-th node, ``node_id``
        itself excepted, that lie in the 27 cells around ``node_id``'s and
        have a role it may link to, in the order they were added."""
        cell = self._cell_at[node_id]
        found: list[NodeId] = []
        for role in self._linkable[self.nodes[node_id].role]:
            cells = self._cells[role]
            for offset in self._neighbourhood:
                bucket = cells.get(cell + offset)
                if bucket:
                    found += bucket
        order = self._order
        found.sort(key=order.__getitem__)
        return [nid for nid in found if order[nid] > after and nid != node_id]

    def _announce_and_acquire(self, node_id: NodeId, topic: str) -> None:
        """Broadcast a node's location under ``topic``, acquire its links
        (``_acquire``) and report them."""
        self.engine.broadcast(node_id, topic, self._loc_payload(node_id))
        self._acquire(node_id)
        self.engine.broadcast(node_id, "link_report", f"links={self._incident_count(node_id)}")

    def _acquire(self, a: NodeId, after: int = -1) -> None:
        """Acquire a link between ``a`` and each of its candidates
        (``_candidates(a, after)``) that has none up and is feasible. The
        candidates pass the range bound (``geo.within_chord_bound``) at once,
        then the exact test one by one, in the order nodes were added."""
        nodes, adj, engine, params = self.nodes, self._adj, self.engine, self.feasibility
        pa = nodes[a].position
        linked = adj.get(a, _NO_LINKS)
        near = within_chord_bound(pa, [(b, nodes[b].position) for b in self._candidates(a, after)
                                       if b not in linked], params)
        channel, history, emit, now = self.channel, self.link_history, engine.emit, engine.now
        state = "active" if self.acquire_delay_s == 0.0 else "acquiring"
        for b in near:
            dist = feasible_distance(pa, nodes[b].position, params)
            if dist is None:
                continue
            loss = path_loss_db(dist, channel)
            pair = pair_key(a, b)
            link = OpticalLink(pair, dist, loss, now, state)
            adj.setdefault(a, {})[b] = link
            adj.setdefault(b, {})[a] = link
            history[pair] = link
            emit("link_up", pair[0],
                 f"peer={pair[1]} dist_km={dist:.6g} loss_db={loss:.6g} state={state}")
            if state == "acquiring":
                engine.schedule(ScenarioEvent(now + self.acquire_delay_s, "link_active", (link,)))

    @property
    def links(self) -> dict[tuple[NodeId, NodeId], OpticalLink]:
        """The links not torn down, by pair (a new dict on each access)."""
        return {p: l for p, l in self.link_history.items() if l.state != "torn_down"}

    def active_pairs(self) -> set[tuple[NodeId, NodeId]]:
        """Every node's routing table: the pairs whose link is active."""
        return {p for p, l in self.link_history.items() if l.state == "active"}

    def _refresh_tables(self) -> None:
        """Number a topology change; the tables themselves are derived."""
        self.table_version += 1

    def _topology_changed(self, kind: str, origin: str, details: str,
                          pair: tuple[NodeId, NodeId] | None = None) -> None:
        """End a topology change: write its record and number it. With
        ``precharge_bits`` set, top up the key of ``pair``, a link that just
        turned active, or with no pair that of every active pair in sorted
        order."""
        self.engine.emit(kind, origin, details)
        self._refresh_tables()
        if self.precharge_bits > 0:
            for hop in sorted(self.active_pairs()) if pair is None else (pair,):
                self._ensure_key(hop, self.precharge_bits)

    def _buffer(self, pair: tuple[NodeId, NodeId]) -> KeyBuffer:
        buf = self.buffers.get(pair)
        if buf is None:
            buf = self.buffers[pair] = KeyBuffer(pair)
        return buf

    def _store_key(self, pair: tuple[NodeId, NodeId], n: int) -> None:
        """Add ``n`` key bits to a pair's buffer, for the audit and the log."""
        offset = self._buffer(pair).append(n)
        self.keygen_events.append((pair, offset, n))
        self.engine.emit("keygen", pair[0], f"peer={pair[1]} offset={offset} bits={n}")

    def _consume(self, pair: tuple[NodeId, NodeId], n: int, purpose: str) -> None:
        offset = self._buffer(pair).consume(n)
        self.consume_events.append((pair, offset, n, purpose))
        self.engine.emit("consume", pair[0],
                         f"peer={pair[1]} offset={offset} bits={n} purpose={purpose}")

    def _ensure_key(self, hop: tuple[NodeId, NodeId], need: int):
        """Top up a hop buffer with lazy QKD sessions; returns None when the
        hop can cover ``need`` bits, else (outcome, detail)."""
        buf = self._buffer(hop)
        attempts = 0
        while buf.available < need and attempts < self.max_session_attempts:
            attempts += 1
            rec = self.generate_direct_key(hop[0], hop[1], self.pulses_per_session)
            if rec.aborted:
                return "qkd_abort", rec.abort_reason.value
        if buf.available < need:
            return "key_starved", f"{buf.available} bits available, {need} needed"
        return None

    def _delivery(self, src, dst, path, outcome, consumed,
                  failing_hop=None, detail="") -> DeliveryRecord:
        rec = DeliveryRecord(self.engine.now, src, dst, path, outcome, consumed,
                             failing_hop, detail)
        self.deliveries.append(rec)
        hop = "-" if failing_hop is None else f"{failing_hop[0]}~{failing_hop[1]}"
        self.engine.emit("send", src,
                         f"dst={dst} path={'>'.join(path) if path else '-'} outcome={outcome} "
                         f"bits={consumed} hop={hop} "
                         f"detail={detail or '-'}")
        return rec
