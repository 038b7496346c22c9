"""Deterministic discrete-event backbone.

A virtual clock, a (time, sequence)-ordered event queue, a reliable
same-tick classical broadcast bus, and label-keyed random streams. All
protocol state mutation happens on the single event-loop thread. The event
log is append-only and reads as stable, tab-separated records suitable for
golden-file comparison. A broadcast's receptions are kept as one fan-out
entry rather than one record per receiver, and are expanded into their
``bcast_rx`` records on read.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from .rng import RandomStream


class SchedulingError(ValueError):
    """Raised when an event is scheduled before the current simulation time."""


class UndeployedOriginError(ValueError):
    """Raised when an undeployed node tries to broadcast."""


@dataclass(frozen=True)
class ScenarioEvent:
    at: float
    kind: str  # deploy | organize | move | qkd | send | eve | link_active | snapshot
    payload: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.at >= 0:  # also rejects NaN
            raise ValueError("event time must be >= 0")


@dataclass(frozen=True)
class LogRecord:
    time: float
    seq: int
    kind: str
    origin: str
    details: str

    def to_line(self) -> str:
        return f"{self.time:.6f}\t{self.seq}\t{self.kind}\t{self.origin}\t{self.details}"


@dataclass(frozen=True)
class FanOut:
    """The receptions of one broadcast: a ``bcast_rx`` record for each node
    of ``deployed[:upto]`` other than ``source``, numbered from ``seq``.

    The deployment list only ever grows, so its first ``upto`` entries are
    the nodes deployed when the broadcast went out.
    """

    time: float
    seq: int
    source: str
    topic: str
    upto: int

    def receivers(self, deployed: list[str]) -> list[str]:
        return [n for n in deployed[: self.upto] if n != self.source]

    def records(self, deployed: list[str]) -> list[LogRecord]:
        details = details_str(source=self.source, topic=self.topic)
        return [LogRecord(self.time, seq, "bcast_rx", node, details)
                for seq, node in enumerate(self.receivers(deployed), self.seq)]

    def lines(self, deployed: list[str]) -> list[str]:
        """``[r.to_line() for r in self.records(deployed)]``, formatting the
        time and the details once (both fields are strings, which ``fmt``
        leaves as they are)."""
        head, tail = f"{self.time:.6f}\t", f"\tsource={self.source} topic={self.topic}"
        return [f"{head}{seq}\tbcast_rx\t{node}{tail}"
                for seq, node in enumerate(self.receivers(deployed), self.seq)]


def fmt(value) -> str:
    """Stable scalar formatting for log and report fields (6 significant
    digits for floats)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def details_str(**fields) -> str:
    return " ".join(f"{k}={fmt(v)}" for k, v in fields.items())


class SimEngine:
    """Event queue, clock, broadcast bus, and stream factory."""

    def __init__(self, seed: int):
        self.seed = seed
        self.now = 0.0
        self._entries: list[LogRecord | FanOut] = []
        self.deployed: list[str] = []  # insertion order = deployment order
        self._deployed_set: set[str] = set()
        self._queue: list[tuple[float, int, ScenarioEvent]] = []
        self._schedule_seq = 0
        self._log_seq = 0
        self.handler: Callable[[ScenarioEvent], None] | None = None
        self.events_processed = 0

    # -- random streams ------------------------------------------------

    def stream(self, label: str) -> RandomStream:
        return RandomStream(self.seed, label)

    # -- logging ---------------------------------------------------------

    def emit(self, kind: str, origin: str, **fields) -> LogRecord:
        rec = LogRecord(self.now, self._log_seq, kind, origin, details_str(**fields))
        self._log_seq += 1
        self._entries.append(rec)
        return rec

    @property
    def log(self) -> list[LogRecord]:
        """Every record so far, with each broadcast's receptions expanded
        (a new list on each access)."""
        records: list[LogRecord] = []
        for entry in self._entries:
            if type(entry) is LogRecord:
                records.append(entry)
            else:
                records += entry.records(self.deployed)
        return records

    def log_lines(self) -> list[str]:
        """``[r.to_line() for r in self.log]``, without building the records
        of the receptions."""
        lines: list[str] = []
        for entry in self._entries:
            if type(entry) is LogRecord:
                lines.append(entry.to_line())
            else:
                lines += entry.lines(self.deployed)
        return lines

    # -- deployment registry ----------------------------------------------

    def mark_deployed(self, node_id: str) -> None:
        if node_id not in self._deployed_set:
            self._deployed_set.add(node_id)
            self.deployed.append(node_id)

    def is_deployed(self, node_id: str) -> bool:
        return node_id in self._deployed_set

    # -- queue ----------------------------------------------------------

    def schedule(self, ev: ScenarioEvent) -> None:
        if ev.at < self.now:
            raise SchedulingError(f"event at t={ev.at} scheduled in the past (now={self.now})")
        heapq.heappush(self._queue, (ev.at, self._schedule_seq, ev))
        self._schedule_seq += 1

    def run_until(self, t_end: float) -> dict:
        """Process every queued event with at <= t_end, in (time, sequence)
        order, then advance the clock to t_end."""
        if self.handler is None:
            raise RuntimeError("no event handler installed")
        processed = 0
        while self._queue and self._queue[0][0] <= t_end:
            at, _, ev = heapq.heappop(self._queue)
            self.now = at
            self.handler(ev)
            processed += 1
        self.now = max(self.now, t_end)
        self.events_processed += processed
        return {"events": processed}

    def pending_events(self) -> int:
        return len(self._queue)

    def last_event_time(self) -> float:
        return max((at for at, _, _ in self._queue), default=self.now)

    # -- broadcast bus -----------------------------------------------------

    def broadcast(self, origin: str, topic: str, payload: str = "") -> int:
        """Deliver a payload to every other deployed node at the current
        tick. Returns the number of deliveries, which are logged as one
        fan-out entry."""
        if not self.is_deployed(origin):
            raise UndeployedOriginError(f"origin {origin!r} is not deployed")
        self.emit("broadcast", origin, topic=topic, payload=payload)
        upto = len(self.deployed)
        self._entries.append(FanOut(self.now, self._log_seq, origin, topic, upto))
        count = upto - 1  # every deployed node but the origin
        self._log_seq += count
        return count
