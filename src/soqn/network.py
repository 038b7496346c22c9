"""Self-organizing network protocol: node state, links, routing, key relay.

Nodes announce locations over the broadcast bus, acquire every feasible
optical link their roles allow, and share one routing table built from
those broadcasts. The network indexes its links by endpoint; routing reads
that index, which holds the table's links whenever ``audit_tables`` passes.
Key material lives in pairwise one-time-pad buffers with strict
consume-once accounting; end-to-end keys for non-adjacent nodes are
distributed by trusted relays publishing XORs of adjacent hop keys.
"""
from __future__ import annotations

import re
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .bitops import as_bits, hex_from_bits, xor_bits
from .channel import ChannelParams, path_loss_db
from .engine import ScenarioEvent, SimEngine
from .geo import (GeoPosition, LinkFeasibilityParams, geodesic_distance, link_feasible,
                  surely_out_of_range)
from .qkd import (EVE_OFF, EveConfig, ProtocolParams, SessionRecord,
                  run_bb84_session, run_plugplay_session)

NodeId = str

_ID_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")

ROLE_PEER = "peer"
ROLE_SERVER = "server"
ROLE_CLIENT = "client"
ROLES = (ROLE_PEER, ROLE_SERVER, ROLE_CLIENT)


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


class KeyReuseError(NetworkError):
    pass


def pair_key(a: NodeId, b: NodeId) -> tuple[NodeId, NodeId]:
    if a == b:
        raise ValueError("link endpoints must be distinct")
    return (a, b) if a < b else (b, a)


@dataclass
class NodeInfo:
    node_id: NodeId
    role: str
    position: GeoPosition
    deployed: bool = False


@dataclass
class OpticalLink:
    endpoints: tuple[NodeId, NodeId]  # sorted
    distance_km: float
    loss_db: float
    acquired_at: float
    state: str = "active"  # acquiring | active | torn_down


@dataclass(frozen=True)
class RoutingTable:
    """The active link set every node builds from the location and link
    broadcasts, numbered by topology change.

    The broadcast bus is reliable and instantaneous, so every deployed node
    would build this same table at the same moment; the network keeps the
    one table they all share. Routing reads the network's link index, whose
    active links are this table's whenever ``Network.audit_tables`` passes.
    """

    links: frozenset[tuple[NodeId, NodeId]] = frozenset()
    version: int = 0


@dataclass
class KeyBlock:
    """A consumed, single-use slice of a pairwise key pool."""

    pair: tuple[NodeId, NodeId]
    offset: int
    bits: np.ndarray

    def __post_init__(self):
        self.bits.setflags(write=False)
        self._spent = False

    def take(self) -> np.ndarray:
        if self._spent:
            raise KeyReuseError(f"key block {self.pair}@{self.offset} already used as a pad")
        self._spent = True
        return self.bits


class KeyBuffer:
    """Append-only pairwise pool of one-time-pad bits with a consume cursor.

    Bits below the cursor can never be handed out again. The pool is kept
    as the appended chunks not yet fully consumed, so an append copies only
    its own bits and consumed chunks are released.
    """

    def __init__(self, pair: tuple[NodeId, NodeId]):
        self.pair = pair
        self._chunks: deque[np.ndarray] = deque()
        self._generated = 0
        self.consumed_offset = 0

    @property
    def total_generated(self) -> int:
        return self._generated

    @property
    def available(self) -> int:
        return self._generated - self.consumed_offset

    def append(self, bits: np.ndarray) -> int:
        """Append fresh key bits; returns the offset they start at."""
        start = self._generated
        chunk = as_bits(bits).copy()
        if len(chunk):
            self._chunks.append(chunk)
            self._generated += len(chunk)
        return start

    def consume(self, n: int) -> KeyBlock:
        if n < 0:
            raise ValueError("cannot consume a negative number of bits")
        if self.available < n:
            raise KeyStarvationError(self.pair, n, self.available)
        parts = [np.empty(0, dtype=np.uint8)]  # n == 0 takes no chunk
        need = n
        while need:
            chunk = self._chunks.popleft()
            if len(chunk) > need:
                self._chunks.appendleft(chunk[need:])
            parts.append(chunk[:need])
            need -= len(parts[-1])
        off = self.consumed_offset
        block = KeyBlock(self.pair, off, np.concatenate(parts))
        self.consumed_offset = off + n
        return block


@dataclass
class RelayTicket:
    """Public side of one relay-key distribution: per-relay XOR blocks."""

    path: tuple[NodeId, ...]
    broadcasts: list[tuple[NodeId, np.ndarray]]
    block_len: int

    def __post_init__(self):
        if len(self.broadcasts) != len(self.path) - 2:
            raise ValueError("one broadcast per interior node")
        for _, block in self.broadcasts:
            if len(block) != self.block_len:
                raise ValueError("broadcast block length mismatch")


@dataclass(frozen=True)
class DeliveryRecord:
    at: float
    src: NodeId
    dst: NodeId
    path: tuple[NodeId, ...] | None
    outcome: str  # delivered | no_route | key_starved | qkd_abort
    bits_consumed: int
    plaintext_ok: bool
    failing_hop: tuple[NodeId, NodeId] | None = None
    detail: str = ""

    @property
    def delivered(self) -> bool:
        return self.outcome == "delivered"


def encrypt(message, key) -> np.ndarray:
    """One-time-pad encryption C = M xor K.

    ``key`` may be raw bits or a KeyBlock; a block is spent by this call and
    a second use raises KeyReuseError.
    """
    if isinstance(key, KeyBlock):
        key = key.take()
    return xor_bits(message, key)


def decrypt(ciphertext, key) -> np.ndarray:
    """Direct-link decryption M = C xor K (same pad both ends)."""
    return xor_bits(ciphertext, key)


def decrypt_relay(ciphertext, receiver_key, ticket: RelayTicket) -> np.ndarray:
    """Relayed decryption: C xor K_receiver xor (xor of all broadcast blocks)."""
    if isinstance(receiver_key, KeyBlock):
        receiver_key = receiver_key.take()
    out = xor_bits(ciphertext, receiver_key)
    for _, block in ticket.broadcasts:
        out = xor_bits(out, block)
    return out


_NO_LINKS: Mapping[NodeId, OpticalLink] = MappingProxyType({})


def shortest_path(adj: dict[NodeId, dict[NodeId, OpticalLink]], src: NodeId, dst: NodeId,
                  can_relay) -> list[NodeId]:
    """Deterministic min-hop path over the active links of a link index.

    ``adj[a][b]`` is the link between a and b; links whose state is not
    "active" are skipped. Ties break by total distance, then by
    lexicographic node-id sequence. ``can_relay(node)`` gates which nodes
    may appear in the interior. Raises NoRouteError when dst is unreachable.

    The search expands one hop level at a time: a node first reached at
    level h keeps the least (km, path) over its level h-1 neighbours that
    may relay, and the search stops at the level that reaches dst.
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    best: dict[NodeId, tuple[float, tuple[NodeId, ...]]] = {src: (0.0, (src,))}
    frontier = [src]
    while frontier:
        level: dict[NodeId, tuple[float, tuple[NodeId, ...]]] = {}
        for node in frontier:
            if node != src and not can_relay(node):
                continue
            dist, path = best[node]
            for nbr, link in adj.get(node, _NO_LINKS).items():
                if nbr in best or link.state != "active":
                    continue
                cand = (dist + link.distance_km, path + (nbr,))
                if nbr not in level or cand < level[nbr]:
                    level[nbr] = cand
        if dst in level:
            return list(level[dst][1])
        best.update(level)
        frontier = list(level)
    raise NoRouteError(f"no route from {src} to {dst}")


class Network:
    """Protocol state machine; all mutation runs on the engine's event loop."""

    def __init__(self, mode: str, engine: SimEngine,
                 feasibility: LinkFeasibilityParams | None = None,
                 channel: ChannelParams | None = None,
                 protocol: ProtocolParams | None = None,
                 acquire_delay_s: float = 0.0,
                 pulses_per_session: int = 20000,
                 max_session_attempts: int = 4,
                 precharge_bits: int = 0):
        if mode not in ("p2p", "cs"):
            raise ValueError(f"mode must be p2p or cs, got {mode!r}")
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
        self.links: dict[tuple[NodeId, NodeId], OpticalLink] = {}
        # Every link of self.links under both of its ends, in acquisition order.
        self._adj: dict[NodeId, dict[NodeId, OpticalLink]] = {}
        self.link_history: dict[tuple[NodeId, NodeId], OpticalLink] = {}
        self.table = RoutingTable()
        self.buffers: dict[tuple[NodeId, NodeId], KeyBuffer] = {}
        self.eve: dict[tuple[NodeId, NodeId], EveConfig] = {}
        self.deliveries: list[DeliveryRecord] = []
        self.session_stats: dict[tuple[NodeId, NodeId], list[SessionRecord]] = {}
        # (pair, offset, n) and (pair, offset, n, purpose): the audit trail
        # mirrored from keygen/consume log records.
        self.keygen_events: list[tuple[tuple[NodeId, NodeId], int, int]] = []
        self.consume_events: list[tuple[tuple[NodeId, NodeId], int, int, str]] = []
        self.organized = False
        self._session_counts: dict[tuple[NodeId, NodeId], int] = {}

    # -- node lifecycle ---------------------------------------------------

    def add_node(self, node_id: NodeId, role: str, position: GeoPosition) -> None:
        if not _ID_RE.match(node_id):
            raise ValueError(f"node id must match [A-Za-z0-9_.-]+: {node_id!r}")
        if node_id in self.nodes:
            raise DuplicateNodeError(f"duplicate node id {node_id!r}")
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}")
        if self.mode == "p2p" and role != ROLE_PEER:
            raise RoleModeError(f"p2p networks contain only peers, got {role!r}")
        if self.mode == "cs" and role == ROLE_PEER:
            raise RoleModeError("cs networks contain only servers and clients")
        self.nodes[node_id] = NodeInfo(node_id, role, position)

    def handle_deploy(self, node_id: NodeId) -> None:
        node = self._node(node_id)
        if node.deployed:
            raise DuplicateNodeError(f"node {node_id!r} deployed twice")
        node.deployed = True
        self.engine.mark_deployed(node_id)
        self.engine.emit("deploy", node_id, role=node.role,
                         lat=node.position.latitude_deg, lon=node.position.longitude_deg,
                         alt=node.position.altitude_m)
        if self.organized:
            self.join_network(node_id)

    def organize_network(self) -> None:
        """Initial organization round over every deployed node."""
        deployed = [n for n, info in self.nodes.items() if info.deployed]
        for nid in deployed:
            self.engine.broadcast(nid, "location", self._loc_payload(nid))
        for i, a in enumerate(deployed):
            for b in deployed[i + 1 :]:
                self._try_acquire(a, b)
        for nid in deployed:
            self.engine.broadcast(nid, "link_report", f"links={self._incident_count(nid)}")
        self._refresh_tables()
        self.organized = True
        self.engine.emit("organize", "-", nodes=len(deployed), links=len(self.active_pairs()))
        self._precharge_all()

    def join_network(self, node_id: NodeId) -> None:
        """A freshly deployed node acquires links to every eligible node."""
        node = self._node(node_id)
        if not node.deployed:
            raise UnknownNodeError(f"node {node_id!r} is not deployed")
        self._announce_and_acquire(node_id, "join_request")
        self.engine.emit("join", node_id, links=self._incident_count(node_id))
        self._precharge_all()

    def move_node(self, node_id: NodeId, new_pos: GeoPosition) -> None:
        """Tear down incident links, relocate, and re-run the join procedure."""
        node = self._node(node_id)
        if not node.deployed:
            raise UnknownNodeError(f"node {node_id!r} is not deployed")
        for other, link in self._adj.pop(node_id, _NO_LINKS).items():
            del self._adj[other][node_id]
            pair = link.endpoints
            del self.links[pair]
            link.state = "torn_down"
            self.engine.emit("link_down", node_id, pair=f"{pair[0]}~{pair[1]}", reason="move")
        node.position = new_pos
        self._announce_and_acquire(node_id, "location")
        self.engine.emit("move", node_id, lat=new_pos.latitude_deg,
                         lon=new_pos.longitude_deg, alt=new_pos.altitude_m)
        self._precharge_all()

    def activate_link(self, pair: tuple[NodeId, NodeId]) -> None:
        link = self.links.get(pair)
        if link is not None and link.state == "acquiring":
            link.state = "active"
            self.engine.emit("link_active", "-", pair=f"{pair[0]}~{pair[1]}")
            self._refresh_tables()

    # -- key generation and transfer ---------------------------------------

    def set_eve(self, a: NodeId, b: NodeId, eve: EveConfig) -> None:
        pair = pair_key(a, b)
        self._node(a)
        self._node(b)
        if eve.mode == "none":
            self.eve.pop(pair, None)
        else:
            self.eve[pair] = eve
        self.engine.emit("eve", "-", pair=f"{pair[0]}~{pair[1]}", mode=eve.mode)

    def generate_direct_key(self, a: NodeId, b: NodeId, n_pulses: int) -> SessionRecord:
        """Run the mode-appropriate QKD session over an active link and, on
        success, append the final key to the pairwise buffer."""
        pair = pair_key(a, b)
        link = self.links.get(pair)
        if link is None or link.state != "active":
            raise LinkInactiveError(f"no active link {pair[0]}~{pair[1]}")
        roles = {self.nodes[a].role, self.nodes[b].role}
        proto = "plugplay" if roles == {ROLE_SERVER, ROLE_CLIENT} else "bb84"
        index = self._session_counts.get(pair, 0)
        self._session_counts[pair] = index + 1
        stream = self.engine.stream(f"qkd/{pair[0]}/{pair[1]}/{index}")
        eve = self.eve.get(pair, EVE_OFF)
        run = run_plugplay_session if proto == "plugplay" else run_bb84_session
        rec = run(link, n_pulses, eve, stream, self.channel, self.protocol)
        self.session_stats.setdefault(pair, []).append(rec)
        self.engine.emit("qkd", pair[0], peer=pair[1], proto=proto, index=index,
                         pulses=n_pulses, sifted=rec.sifted_len, qber=rec.qber,
                         leak=rec.reconciliation_leak_bits, final=len(rec.final_key),
                         outcome="abort" if rec.aborted else "ok",
                         reason=rec.abort_reason.value)
        if not rec.aborted:
            offset = self._buffer(pair).append(rec.final_key)
            self.keygen_events.append((pair, offset, len(rec.final_key)))
            self.engine.emit("keygen", pair[0], peer=pair[1], offset=offset,
                             bits=len(rec.final_key))
        return rec

    def preload_key(self, a: NodeId, b: NodeId, bits) -> None:
        """Inject synthetic key material into a pairwise buffer, with the
        same audit accounting as a QKD session. Intended for tests and
        benchmarks that need known key values."""
        pair = pair_key(a, b)
        bits = as_bits(bits)
        offset = self._buffer(pair).append(bits)
        self.keygen_events.append((pair, offset, len(bits)))
        self.engine.emit("keygen", pair[0], peer=pair[1], offset=offset, bits=len(bits))

    def find_path(self, src: NodeId, dst: NodeId) -> list[NodeId]:
        """Min-hop route over the routing table; see ``shortest_path``.

        Searches the link index, whose active links are the table's
        whenever ``audit_tables`` passes, so no per-send copy is built.
        """
        deployed = self._node(src).deployed
        self._node(dst)
        if not deployed:
            raise UnknownNodeError(f"node {src!r} has no routing table")
        if self.mode == "cs":
            can_relay = lambda n: self.nodes[n].role == ROLE_SERVER
        else:
            can_relay = lambda n: True
        return shortest_path(self._adj, src, dst, can_relay)

    def relay_key_setup(self, path: list[NodeId], block_len: int) -> tuple[RelayTicket, KeyBlock, KeyBlock]:
        """Consume one key block per hop and publish the telescoping XORs.

        Returns (ticket, sender_block, receiver_block). Consumption is
        all-or-nothing: availability on every hop is verified before any
        bits are consumed.
        """
        if len(path) < 3:
            raise ValueError("relay paths need at least one interior node")
        hops = [pair_key(a, b) for a, b in zip(path, path[1:])]
        for hop in hops:
            buf = self._buffer(hop)
            if buf.available < block_len:
                raise KeyStarvationError(hop, block_len, buf.available)
        blocks = [self._consume(hop, block_len, "relay_hop") for hop in hops]
        broadcasts: list[tuple[NodeId, np.ndarray]] = []
        for j in range(1, len(path) - 1):
            relay = path[j]
            xor_block = xor_bits(blocks[j - 1].bits, blocks[j].bits)
            broadcasts.append((relay, xor_block))
            self.engine.broadcast(relay, "relay_xor", hex_from_bits(xor_block) if block_len % 4 == 0
                                  else "".join(str(int(b)) for b in xor_block))
        ticket = RelayTicket(tuple(path), broadcasts, block_len)
        self.engine.emit("relay", path[0], path=">".join(path), block_len=block_len)
        return ticket, blocks[0], blocks[-1]

    def send_message(self, src: NodeId, dst: NodeId, message) -> DeliveryRecord:
        """Route, key, encrypt, deliver, and verify one message."""
        message = as_bits(message)
        for nid in (src, dst):
            if not self._node(nid).deployed:
                raise UnknownNodeError(f"node {nid!r} is not deployed")
        try:
            path = self.find_path(src, dst)
        except NoRouteError as exc:
            return self._delivery(src, dst, None, "no_route", 0, False, detail=str(exc))
        hops = [pair_key(a, b) for a, b in zip(path, path[1:])]
        mlen = len(message)
        if mlen > 0:
            for hop in hops:
                failure = self._ensure_key(hop, mlen)
                if failure is not None:
                    outcome, detail = failure
                    return self._delivery(src, dst, tuple(path), outcome, 0, False,
                                          failing_hop=hop, detail=detail)
        if mlen == 0:
            plain = message
            consumed = 0
        elif len(path) == 2:
            block = self._consume(hops[0], mlen, "direct")
            pad = block.take()
            ciphertext = encrypt(message, pad)
            plain = decrypt(ciphertext, pad)
            consumed = mlen
        else:
            ticket, sender_block, receiver_block = self.relay_key_setup(path, mlen)
            ciphertext = encrypt(message, sender_block)
            plain = decrypt_relay(ciphertext, receiver_block, ticket)
            consumed = mlen * len(hops)
        ok = bool(np.array_equal(plain, message))
        return self._delivery(src, dst, tuple(path), "delivered", consumed, ok)

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
        """Check that the routing table matches the active link set, and
        that the link index holds every link under both ends and nothing else."""
        problems: list[str] = []
        if self.table.links != self.active_pairs():
            problems.append("tables do not match the active link set")
        adj = self._adj
        missing = [f"link {a}~{b} missing from the index of {end}"
                   for (a, b), link in self.links.items()
                   for end, other in ((a, b), (b, a))
                   if adj.get(end, _NO_LINKS).get(other) is not link]
        problems += missing
        # The entries in their right place number 2 * links - missing, so any
        # more entries list a link the link set does not have.
        if sum(map(len, adj.values())) != 2 * len(self.links) - len(missing):
            problems += [f"index of {a} lists {b} with no link"
                         for a, nbrs in adj.items() for b, link in nbrs.items()
                         if self.links.get(pair_key(a, b)) is not link]
        return problems

    def audit_roles(self) -> list[str]:
        """C/S structural invariant: no client-client link, ever."""
        problems: list[str] = []
        if self.mode != "cs":
            return problems
        for a, b in self.links:
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

    def _loc_payload(self, nid: NodeId) -> str:
        p = self.nodes[nid].position
        return f"{p.latitude_deg:.6g},{p.longitude_deg:.6g},{p.altitude_m:.6g}"

    def _incident_count(self, nid: NodeId) -> int:
        return len(self._adj.get(nid, _NO_LINKS))

    def _eligible(self, a: NodeId, b: NodeId) -> bool:
        ra, rb = self.nodes[a].role, self.nodes[b].role
        if self.mode == "p2p":
            return ra == ROLE_PEER and rb == ROLE_PEER
        return not (ra == ROLE_CLIENT and rb == ROLE_CLIENT)

    def _announce_and_acquire(self, node_id: NodeId, topic: str) -> None:
        """Broadcast a node's location under ``topic``, try a link to every
        other deployed node in the order nodes were added, report the
        node's links and refresh the routing table."""
        self.engine.broadcast(node_id, topic, self._loc_payload(node_id))
        for other, info in self.nodes.items():
            if other != node_id and info.deployed:
                self._try_acquire(node_id, other)
        self.engine.broadcast(node_id, "link_report", f"links={self._incident_count(node_id)}")
        self._refresh_tables()

    def _try_acquire(self, a: NodeId, b: NodeId) -> OpticalLink | None:
        pair = pair_key(a, b)
        if pair in self.links:
            return None
        if not self._eligible(a, b):
            return None
        pa, pb = self.nodes[a].position, self.nodes[b].position
        if surely_out_of_range(pa, pb, self.feasibility):
            return None
        if not link_feasible(pa, pb, self.feasibility):
            return None
        dist = geodesic_distance(pa, pb, self.feasibility.earth_radius_km)
        loss = path_loss_db(dist, self.channel)
        state = "active" if self.acquire_delay_s == 0.0 else "acquiring"
        link = OpticalLink(pair, dist, loss, acquired_at=self.engine.now, state=state)
        self.links[pair] = link
        self._adj.setdefault(a, {})[b] = link
        self._adj.setdefault(b, {})[a] = link
        self.link_history[pair] = link
        self.engine.emit("link_up", pair[0], peer=pair[1], dist_km=dist,
                         loss_db=loss, state=state)
        if state == "acquiring":
            self.engine.schedule(ScenarioEvent(self.engine.now + self.acquire_delay_s,
                                               "link_active", {"pair": pair}))
        return link

    def active_pairs(self) -> set[tuple[NodeId, NodeId]]:
        return {p for p, l in self.links.items() if l.state == "active"}

    def _refresh_tables(self) -> None:
        self.table = RoutingTable(frozenset(self.active_pairs()), self.table.version + 1)

    def _buffer(self, pair: tuple[NodeId, NodeId]) -> KeyBuffer:
        buf = self.buffers.get(pair)
        if buf is None:
            buf = self.buffers[pair] = KeyBuffer(pair)
        return buf

    def _consume(self, pair: tuple[NodeId, NodeId], n: int, purpose: str) -> KeyBlock:
        block = self._buffer(pair).consume(n)
        self.consume_events.append((pair, block.offset, n, purpose))
        self.engine.emit("consume", pair[0], peer=pair[1], offset=block.offset,
                         bits=n, purpose=purpose)
        return block

    def _ensure_key(self, hop: tuple[NodeId, NodeId], need: int):
        """Top up a hop buffer with lazy QKD sessions; returns None when the
        hop can cover ``need`` bits, else (outcome, detail)."""
        buf = self._buffer(hop)
        attempts = 0
        while buf.available < need and attempts < self.max_session_attempts:
            attempts += 1
            try:
                rec = self.generate_direct_key(hop[0], hop[1], self.pulses_per_session)
            except LinkInactiveError as exc:
                return "qkd_abort", str(exc)
            if rec.aborted:
                return "qkd_abort", rec.abort_reason.value
        if buf.available < need:
            return "key_starved", f"{buf.available} bits available, {need} needed"
        return None

    def _precharge_all(self) -> None:
        if self.precharge_bits <= 0:
            return
        for pair in sorted(self.active_pairs()):
            self._ensure_key(pair, self.precharge_bits)

    def _delivery(self, src, dst, path, outcome, consumed, ok,
                  failing_hop=None, detail="") -> DeliveryRecord:
        rec = DeliveryRecord(self.engine.now, src, dst, path, outcome, consumed, ok,
                             failing_hop, detail)
        self.deliveries.append(rec)
        self.engine.emit("send", src, dst=dst,
                         path=">".join(path) if path else "-",
                         outcome=outcome, bits=consumed, ok=ok,
                         hop="-" if failing_hop is None else f"{failing_hop[0]}~{failing_hop[1]}",
                         detail=detail or "-")
        return rec
