"""Deterministic discrete-event backbone.

A virtual clock, a (time, sequence)-ordered event queue, a reliable
same-tick classical broadcast bus, and label-keyed random streams. All
protocol state mutation happens on the single event-loop thread. The event
log is append-only: the engine holds its stable, tab-separated lines, each
built once, when its record is emitted, for golden-file comparison. A
record's details are formatted by its caller, as space-separated
``key=value`` fields, and the engine writes them as given.

Lines are numbered 0, 1, 2, ... without gaps. A broadcast is one
``broadcast`` line ending in ``receivers=<count>``: the nodes deployed
before it, one per ``deploy`` line, less its source.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
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
    args: tuple = ()  # as on the scenario line; (node,) for deploy, (link,) for link_active

    def __post_init__(self):
        if not self.at >= 0:  # also rejects NaN
            raise ValueError("event time must be >= 0")


class SimEngine:
    """Event queue, clock, broadcast bus, and stream factory."""

    def __init__(self, seed: int):
        self.seed = seed
        self.now = 0.0
        self._lines: list[str] = []
        self._deployed: set[str] = set()
        self._queue: list[tuple[float, int, ScenarioEvent]] = []
        self._schedule_seq = 0
        self.handler: Callable[[ScenarioEvent], None] | None = None
        self.events_processed = 0

    # -- random streams ------------------------------------------------

    def stream(self, label: str) -> RandomStream:
        return RandomStream(self.seed, label)

    # -- logging ---------------------------------------------------------

    def emit(self, kind: str, origin: str, details: str = "") -> int:
        """Append one record of any kind but ``deploy`` and ``broadcast``,
        which only ``mark_deployed`` and ``broadcast`` write, and return its
        sequence number. ``details`` is written as given. A stray ``deploy``
        line would make the ``receivers=`` count of every later broadcast
        disagree with the ``deploy`` lines before it."""
        if kind in ("deploy", "broadcast"):
            raise ValueError(f"{kind!r} records come only from mark_deployed and broadcast")
        seq = len(self._lines)
        self._lines.append(f"{self.now:.6f}\t{seq}\t{kind}\t{origin}\t{details}")
        return seq

    def log_lines(self) -> list[str]:
        """The lines of ``events.log``, as a new list."""
        return self._lines.copy()

    # -- deployment registry ----------------------------------------------

    def mark_deployed(self, node_id: str, details: str = "") -> int:
        """Deploy ``node_id``, write its ``deploy`` record with ``details``
        as given and return the record's sequence number.

        That record is what counts the node among the receivers of every
        later broadcast, so it is written here and nowhere else."""
        if node_id in self._deployed:
            raise ValueError(f"node {node_id!r} is already deployed")
        self._deployed.add(node_id)
        seq = len(self._lines)
        self._lines.append(f"{self.now:.6f}\t{seq}\tdeploy\t{node_id}\t{details}")
        return seq

    def is_deployed(self, node_id: str) -> bool:
        return node_id in self._deployed

    # -- queue ----------------------------------------------------------

    def schedule(self, ev: ScenarioEvent) -> None:
        if ev.at < self.now:
            raise SchedulingError(f"event at t={ev.at} scheduled in the past (now={self.now})")
        heapq.heappush(self._queue, (ev.at, self._schedule_seq, ev))
        self._schedule_seq += 1

    def run_until(self, t_end: float | None = None) -> dict:
        """Process every queued event with at <= t_end, in (time, sequence)
        order, then advance the clock to t_end. With no t_end, process
        events, those the handler schedules too, until the queue is empty;
        the clock stays at the last event's time."""
        if self.handler is None:
            raise RuntimeError("no event handler installed")
        limit = math.inf if t_end is None else t_end
        processed = 0
        while self._queue and self._queue[0][0] <= limit:
            at, _, ev = heapq.heappop(self._queue)
            self.now = at
            self.handler(ev)
            processed += 1
        if t_end is not None:
            self.now = max(self.now, t_end)
        self.events_processed += processed
        return {"events": processed}

    # -- broadcast bus -----------------------------------------------------

    def broadcast(self, origin: str, topic: str, payload: str = "") -> int:
        """Deliver a payload to every other deployed node at the current
        tick. Returns the number of deliveries, which the ``broadcast``
        record carries as ``receivers=<count>`` after ``topic`` and
        ``payload``, both written as given. The deliveries have no record
        of their own."""
        if origin not in self._deployed:
            raise UndeployedOriginError(f"origin {origin!r} is not deployed")
        count = len(self._deployed) - 1  # every deployed node but the origin
        seq = len(self._lines)
        self._lines.append(f"{self.now:.6f}\t{seq}\tbroadcast\t{origin}\t"
                           f"topic={topic} payload={payload} receivers={count}")
        return count

