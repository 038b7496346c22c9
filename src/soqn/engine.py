"""Deterministic discrete-event backbone.

A virtual clock, a (time, sequence)-ordered event queue, a reliable
same-tick classical broadcast bus, and label-keyed random streams. All
protocol state mutation happens on the single event-loop thread. The event
log is append-only and reads as stable, tab-separated records suitable for
golden-file comparison.

The log is written in format v2: a broadcast is one ``broadcast`` record
ending in ``receivers=<count>``, and its receptions take the ``count``
sequence numbers after it without a record of their own. The receivers are
the nodes of the ``deploy`` records before the broadcast, in that order,
less its source, so ``expand_log`` rebuilds the v1 log, one reception
record per receiver, exactly.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable

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
        self._records: list[LogRecord] = []
        self._deployed: set[str] = set()
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
        """Append one record of any kind but the two ``expand_log`` reads,
        which only ``mark_deployed`` and ``broadcast`` write."""
        if kind in ("deploy", "broadcast"):
            raise ValueError(f"{kind!r} records come only from mark_deployed and broadcast")
        return self._write(kind, origin, **fields)

    def _write(self, kind: str, origin: str, **fields) -> LogRecord:
        rec = LogRecord(self.now, self._log_seq, kind, origin, details_str(**fields))
        self._log_seq += 1
        self._records.append(rec)
        return rec

    @property
    def log(self) -> list[LogRecord]:
        """Every record so far in format v1, each broadcast followed by its
        receptions (parsed from ``expand_log``; a new list on each access)."""
        return [LogRecord(float(t), int(seq), kind, origin, details)
                for t, seq, kind, origin, details
                in (line.split("\t", 4) for line in expand_log(self.log_lines()))]

    def log_lines(self) -> list[str]:
        """The lines of ``events.log`` (format v2)."""
        return [r.to_line() for r in self._records]

    # -- deployment registry ----------------------------------------------

    def mark_deployed(self, node_id: str, **fields) -> LogRecord:
        """Deploy ``node_id`` and write its ``deploy`` record with ``fields``.

        That record is what makes the node a receiver of every later
        broadcast when the log is expanded, so it is written here and
        nowhere else."""
        if node_id in self._deployed:
            raise ValueError(f"node {node_id!r} is already deployed")
        self._deployed.add(node_id)
        return self._write("deploy", node_id, **fields)

    def is_deployed(self, node_id: str) -> bool:
        return node_id in self._deployed

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
        tick. Returns the number of deliveries, which the ``broadcast``
        record carries as ``receivers=<count>``; their sequence numbers
        follow it unwritten."""
        if not self.is_deployed(origin):
            raise UndeployedOriginError(f"origin {origin!r} is not deployed")
        count = len(self._deployed) - 1  # every deployed node but the origin
        self._write("broadcast", origin, topic=topic, payload=payload, receivers=count)
        self._log_seq += count
        return count


def expand_log(lines: Iterable[str]) -> list[str]:
    """Rebuild the v1 lines of an ``events.log`` from its v2 ``lines``.

    Each ``broadcast`` record loses its ``receivers=<count>`` field and is
    followed by one ``bcast_rx`` record per receiver, numbered from the
    broadcast's sequence number plus one: the nodes of the ``deploy``
    records before it, in that order, less its source. Every other line is
    kept as it is. Raises ``ValueError`` naming the sequence number of a
    broadcast without a count or whose count differs from its receivers.
    """
    deployed: list[str] = []
    out: list[str] = []
    for line in lines:
        time, seq, kind, origin, details = line.split("\t", 4)
        if kind == "deploy":
            deployed.append(origin)
        if kind != "broadcast":
            out.append(line)
            continue
        details, has_count, count = details.rpartition(" receivers=")
        if not has_count:
            raise ValueError(f"broadcast seq {seq} has no receivers= count")
        receivers = [n for n in deployed if n != origin]
        if count != str(len(receivers)):
            raise ValueError(f"broadcast seq {seq} counts receivers={count}, "
                             f"but {len(receivers)} nodes were deployed besides {origin}")
        out.append(f"{time}\t{seq}\t{kind}\t{origin}\t{details}")
        topic = details.partition(" payload=")[0].removeprefix("topic=")
        tail = f"\tsource={origin} topic={topic}"
        out += [f"{time}\t{rx_seq}\tbcast_rx\t{node}{tail}"
                for rx_seq, node in enumerate(receivers, int(seq) + 1)]
    return out
