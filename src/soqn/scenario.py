"""Scenario DSL: a line-oriented grammar for describing simulation runs.

One directive per line, ``#`` starts a comment, tokens are whitespace
separated:

    mode p2p|cs
    seed <u64>
    param <name> <value>
    node <id> peer|server|client <lat_deg> <lon_deg> <alt_m> [deploy=<t_s>]
    at <t_s> join <id>                     (the same as deploy=<t_s> on its node)
    at <t_s> move <id> <lat> <lon> <alt>
    at <t_s> qkd <idA> <idB> pulses=<n>
    at <t_s> send <src> <dst> hex:<hexstring>
    at <t_s> eve <idA> <idB> intercept_resend on|off

Parsing is total: any input yields either a Scenario or a ScenarioError
with a line/column diagnostic. Every value is checked at its token,
coordinates included (latitude in [-90, 90], altitude at least -500 m), and
a time written ``-0`` is time 0. A valid line costs only its split and the
reading of its values: the column of a token is found, and a bad payload
decoded to word its diagnostic, only when a line raises.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

from .bitops import _HEX_RE, bits_from_hex
from .engine import ScenarioEvent
from .geo import MAX_LATITUDE_DEG, MIN_ALTITUDE_M
from .network import _ID_RE, _LINKABLE, ROLES
from .qkd import MAX_PULSES
from .rng import MAX_SEED

_TOKEN_RE = re.compile(r"\S+")

# DSL parameter name -> (config group, value type). Groups are mapped onto
# the dataclass fields of the same names by the runner.
PARAM_SPECS: dict[str, tuple[str, type]] = {
    "max_range_km": ("feasibility", float),
    "require_los": ("feasibility", bool),
    "atm_loss_db_per_km": ("channel", float),
    "fixed_system_loss_db": ("channel", float),
    "noise_prob": ("channel", float),
    "detector_efficiency": ("channel", float),
    "intrinsic_error_prob": ("channel", float),
    "min_sift_len": ("protocol", int),
    "sample_fraction": ("protocol", float),
    "qber_abort": ("protocol", float),
    "f_ec": ("protocol", float),
    "safety_margin_bits": ("protocol", int),
    "pulses_per_session": ("network", int),
    "max_session_attempts": ("network", int),
    "precharge_bits": ("network", int),
    "acquire_delay_s": ("network", float),
}


class ScenarioError(Exception):
    """Diagnostic for a malformed scenario: 1-based line and column."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


@dataclass(frozen=True)
class NodeDecl:
    node_id: str
    role: str
    lat: float
    lon: float
    alt: float
    deploy: float | None = None  # from deploy= or a join event; None deploys at 0

    @property
    def deploy_at(self) -> float:
        return 0.0 if self.deploy is None else self.deploy


@dataclass
class Scenario:
    mode: str = "p2p"
    seed: int = 0
    params: dict[str, float | int | bool] = field(default_factory=dict)
    nodes: list[NodeDecl] = field(default_factory=list)
    events: list[ScenarioEvent] = field(default_factory=list)

    def node_ids(self) -> list[str]:
        return [n.node_id for n in self.nodes]


def _literal(tok: str) -> str:
    """``tok`` if it may be read as a number. Python's int and float also
    read digit separators (``1_0``) and non-ASCII digits; a scenario's
    numbers are ASCII literals without them."""
    if not tok.isascii() or "_" in tok:
        raise ValueError(tok)
    return tok


def _column(code: str, index: int) -> int:
    """The 1-based column of token ``index`` of ``code``; an index past the
    last token gives the last token's column, and a line without tokens 1."""
    cols = [m.start() + 1 for m in _TOKEN_RE.finditer(code)]
    return cols[min(index, len(cols) - 1)] if cols else 1


class _Line:
    """One directive line: its whitespace-separated tokens, and the text
    before any ``#`` that they came from. ``str.split()`` and ``\\S+`` split
    alike on every code point, so ``error`` finds a token's column in that
    text only when it builds a diagnostic."""

    def __init__(self, number: int, text: str):
        self.number = number
        self.code = text.split("#", 1)[0]
        self.tokens = self.code.split()

    def error(self, index: int, message: str) -> ScenarioError:
        return ScenarioError(self.number, _column(self.code, index), message)

    def token(self, index: int, what: str) -> str:
        if index >= len(self.tokens):
            raise self.error(len(self.tokens), f"missing {what}")
        return self.tokens[index]

    def end(self, index: int) -> None:
        if len(self.tokens) > index:
            raise self.error(index, f"unexpected token {self.tokens[index]!r}")

    def float_at(self, index: int, what: str, prefix: str = "") -> float:
        """The token at ``index`` as a finite number, after ``prefix``."""
        tok = self.token(index, what)[len(prefix):]
        try:
            v = float(_literal(tok))
        except ValueError:
            raise self.error(index, f"{what} must be a number, got {tok!r}") from None
        if not math.isfinite(v):
            raise self.error(index, f"{what} must be finite")
        return v

    def int_at(self, index: int, what: str) -> int:
        tok = self.token(index, what)
        try:
            return int(_literal(tok), 10)
        except ValueError:
            raise self.error(index, f"{what} must be an integer, got {tok!r}") from None

    def id_at(self, index: int, what: str) -> str:
        tok = self.token(index, what)
        if not _ID_RE.fullmatch(tok):
            raise self.error(index, f"{what} must match [A-Za-z0-9_.-]+, got {tok!r}")
        return tok

    def time_at(self, index: int, what: str = "time", prefix: str = "") -> float:
        v = self.float_at(index, what, prefix)
        if v < 0:
            raise self.error(index, f"{what} must be >= 0")
        return v if v else 0.0  # -0 is time 0

    def seed_at(self, index: int) -> int:
        seed = self.int_at(index, "seed")
        if not 0 <= seed <= MAX_SEED:
            raise self.error(index, "seed must fit in 64 unsigned bits")
        return seed

    def check_position(self, index: int, lat: float, alt: float) -> None:
        """Reject the coordinates that ``GeoPosition`` rejects, at their token:
        latitude at ``index``, altitude two tokens on. Called once the line's
        tokens have all been read, so a line they reject keeps that error."""
        if not -MAX_LATITUDE_DEG <= lat <= MAX_LATITUDE_DEG:
            raise self.error(index, f"latitude must be in "
                                    f"[{-MAX_LATITUDE_DEG:g}, {MAX_LATITUDE_DEG:g}]")
        if alt < MIN_ALTITUDE_M:
            raise self.error(index + 2, f"altitude must be >= {MIN_ALTITUDE_M:g}")

    def hex_at(self, index: int) -> str:
        """The payload of a ``hex:<hexstring>`` token."""
        tok = self.token(index, "hex:<payload>")
        if not tok.startswith("hex:"):
            raise self.error(index, f"expected hex:<hexstring>, got {tok!r}")
        payload = tok[len("hex:"):]
        if not _HEX_RE.fullmatch(payload):
            try:
                bits_from_hex(payload)  # names the first bad digit
            except ValueError as exc:
                raise self.error(index, str(exc)) from None
        return payload

    def param_at(self, index: int, name: str):
        """The value of param ``name`` (a key of PARAM_SPECS), typed by its spec."""
        typ = PARAM_SPECS[name][1]
        tok = self.token(index, "param value")
        if typ is int:
            return self.int_at(index, f"param {name}")
        if typ is float:
            return self.float_at(index, f"param {name}")
        if tok in ("true", "false"):
            return tok == "true"
        raise self.error(index, f"param {name} expects true or false, got {tok!r}")


def parse_value(kind: str, text: str) -> int | float | bool:
    """``text``, one token, read as a scenario reads a value of ``kind``:
    ``seed``, ``time`` or a param name. Raises ScenarioError on any defect."""
    line = _Line(0, text)
    if line.tokens != [text.strip()]:
        raise line.error(0, f"expected one value, got {text!r}")
    if kind == "seed":
        return line.seed_at(0)
    if kind == "time":
        return line.time_at(0)
    return line.param_at(0, kind)


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raises ScenarioError on any defect."""
    sc = Scenario()
    mode_seen = False
    seed_seen = False
    node_lines: dict[str, int] = {}
    event_lines: list[int] = []
    joins: list[tuple[int, float, str]] = []  # (line, time, node id)

    for number, raw in enumerate(text.splitlines(), start=1):
        line = _Line(number, raw)
        if not line.tokens:
            continue
        head = line.tokens[0]
        if head == "mode":
            if mode_seen:
                raise line.error(0, "duplicate mode directive")
            mode = line.token(1, "mode value")
            if mode not in _LINKABLE:
                raise line.error(1, f"mode must be p2p or cs, got {mode!r}")
            line.end(2)
            sc.mode = mode
            mode_seen = True
        elif head == "seed":
            if seed_seen:
                raise line.error(0, "duplicate seed directive")
            sc.seed = line.seed_at(1)
            line.end(2)
            seed_seen = True
        elif head == "param":
            name = line.token(1, "param name")
            if name not in PARAM_SPECS:
                raise line.error(1, f"unknown param {name!r}")
            if name in sc.params:
                raise line.error(1, f"duplicate param {name!r}")
            sc.params[name] = line.param_at(2, name)
            line.end(3)
        elif head == "node":
            nid = line.id_at(1, "node id")
            if nid in node_lines:
                raise line.error(1, f"duplicate node id {nid!r}")
            role = line.token(2, "node role")
            if role not in ROLES:
                raise line.error(2, f"role must be peer, server, or client, got {role!r}")
            lat = line.float_at(3, "latitude")
            lon = line.float_at(4, "longitude")
            alt = line.float_at(5, "altitude")
            deploy = None
            if len(line.tokens) > 6:
                tok = line.token(6, "deploy")
                if not tok.startswith("deploy="):
                    raise line.error(6, f"expected deploy=<t_s>, got {tok!r}")
                deploy = line.time_at(6, "deploy time", prefix="deploy=")
                line.end(7)
            line.check_position(3, lat, alt)
            node_lines[nid] = number
            sc.nodes.append(NodeDecl(nid, role, lat, lon, alt, deploy))
        elif head == "at":
            at = line.time_at(1)
            kind = line.token(2, "event kind")
            if kind == "join":
                nid = line.id_at(3, "node id")
                line.end(4)
                joins.append((number, at, nid))
                continue
            if kind == "move":
                nid = line.id_at(3, "node id")
                lat = line.float_at(4, "latitude")
                lon = line.float_at(5, "longitude")
                alt = line.float_at(6, "altitude")
                line.end(7)
                line.check_position(4, lat, alt)
                ev = ScenarioEvent(at, "move", (nid, lat, lon, alt))
            elif kind == "qkd":
                a = line.id_at(3, "node id")
                b = line.id_at(4, "node id")
                tok = line.token(5, "pulses=<n>")
                if not tok.startswith("pulses="):
                    raise line.error(5, f"expected pulses=<n>, got {tok!r}")
                try:
                    pulses = int(_literal(tok[len("pulses="):]), 10)
                except ValueError:
                    raise line.error(5, f"bad pulse count in {tok!r}") from None
                if not 1 <= pulses <= MAX_PULSES:
                    raise line.error(5, "pulses must be in [1, 2**63 - 1]")
                line.end(6)
                ev = ScenarioEvent(at, "qkd", (a, b, pulses))
            elif kind == "send":
                src = line.id_at(3, "source id")
                dst = line.id_at(4, "destination id")
                payload = line.hex_at(5)
                line.end(6)
                ev = ScenarioEvent(at, "send", (src, dst, payload))
            elif kind == "eve":
                a = line.id_at(3, "node id")
                b = line.id_at(4, "node id")
                attack = line.token(5, "attack kind")
                if attack != "intercept_resend":
                    raise line.error(5, f"only intercept_resend can be toggled, got {attack!r}")
                state = line.token(6, "on|off")
                if state not in ("on", "off"):
                    raise line.error(6, f"expected on or off, got {state!r}")
                line.end(7)
                ev = ScenarioEvent(at, "eve", (a, b, state == "on"))
            else:
                raise line.error(2, f"unknown event kind {kind!r}")
            sc.events.append(ev)
            event_lines.append(number)
        else:
            raise line.error(0, f"unknown directive {head!r}")

    _validate(sc, node_lines, event_lines, joins)
    return sc


def _validate(sc: Scenario, node_lines: dict[str, int], event_lines: list[int],
              joins: list[tuple[int, float, str]]) -> None:
    """Check the parsed scenario as a whole and write each join's time into
    its node's ``deploy``: a join is a node deployed later."""
    if not sc.nodes and (sc.events or joins):
        raise ScenarioError(min(event_lines + [ln for ln, _, _ in joins]), 1,
                            "events declared but no nodes")
    decls = {n.node_id: n for n in sc.nodes}
    roles = _LINKABLE[sc.mode]
    for n in sc.nodes:
        if n.role not in roles:
            raise ScenarioError(node_lines[n.node_id], 1,
                                f"node {n.node_id!r} has role {n.role!r} in a {sc.mode} scenario")

    for ev, ln in zip(sc.events, event_lines):
        for nid in _event_node_refs(ev):
            if nid not in decls:
                raise ScenarioError(ln, 1, f"unknown node {nid!r}")
        if ev.kind in ("qkd", "send", "eve") and ev.args[0] == ev.args[1]:
            raise ScenarioError(ln, 1, "the two nodes must differ")

    joined: set[str] = set()
    for ln, at, nid in joins:
        if nid not in decls:
            raise ScenarioError(ln, 1, f"unknown node {nid!r}")
        if nid in joined:
            raise ScenarioError(ln, 1, f"node {nid!r} joins twice")
        if decls[nid].deploy is not None:
            raise ScenarioError(ln, 1,
                                f"node {nid!r} has an explicit deploy time and a join event")
        joined.add(nid)
        decls[nid] = replace(decls[nid], deploy=at)
    sc.nodes = list(decls.values())

    for ev, ln in zip(sc.events, event_lines):
        for nid in _event_node_refs(ev):
            if ev.at < decls[nid].deploy_at:
                raise ScenarioError(ln, 1,
                                    f"event at t={ev.at:g} references {nid!r} "
                                    f"before its deploy time t={decls[nid].deploy_at:g}")


def _event_node_refs(ev: ScenarioEvent):
    if ev.kind == "move":
        return (ev.args[0],)
    return (ev.args[0], ev.args[1])


def _num(v: float) -> str:
    return repr(float(v))


def format_scenario(sc: Scenario) -> str:
    """Canonical text form; parse(format(sc)) reconstructs an equal Scenario."""
    lines = [f"mode {sc.mode}", f"seed {sc.seed}"]
    for name in sorted(sc.params):
        v = sc.params[name]
        if isinstance(v, bool):
            text = "true" if v else "false"
        elif isinstance(v, int):
            text = str(v)
        else:
            text = _num(v)
        lines.append(f"param {name} {text}")
    for n in sc.nodes:
        base = f"node {n.node_id} {n.role} {_num(n.lat)} {_num(n.lon)} {_num(n.alt)}"
        if n.deploy is not None:
            base += f" deploy={_num(n.deploy)}"
        lines.append(base)
    for ev in sc.events:
        if ev.kind == "move":
            nid, lat, lon, alt = ev.args
            lines.append(f"at {_num(ev.at)} move {nid} {_num(lat)} {_num(lon)} {_num(alt)}")
        elif ev.kind == "qkd":
            a, b, pulses = ev.args
            lines.append(f"at {_num(ev.at)} qkd {a} {b} pulses={pulses}")
        elif ev.kind == "send":
            src, dst, payload = ev.args
            lines.append(f"at {_num(ev.at)} send {src} {dst} hex:{payload}")
        elif ev.kind == "eve":
            a, b, on = ev.args
            lines.append(f"at {_num(ev.at)} eve {a} {b} intercept_resend {'on' if on else 'off'}")
    return "\n".join(lines) + "\n"
