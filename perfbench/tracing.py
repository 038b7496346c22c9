"""Span tracing by wrapping the names callers look up, from outside ``src/``.

``Tracer.installed()`` replaces module globals and class attributes of the
soqn package with timing wrappers and puts the originals back on exit,
whatever happens inside. Each call of a wrapped name records one span
(name, start, end, parent span) in flat in-memory arrays; counters and
sizes taken from the real call arguments go to ``Tracer.counts``.
``Tracer.summary()`` turns the spans into per-name call counts, inclusive
time and self time (duration minus the time covered by child spans).
"""
from __future__ import annotations

import contextlib
import time
from array import array
from collections import defaultdict

import numpy as np

from soqn import engine, geo, network, qkd, rng, runner, scenario

_clock = time.perf_counter


@contextlib.contextmanager
def patched(owner, **replacements):
    """Set attributes of ``owner`` for the block, then restore them."""
    saved = {name: vars(owner)[name] for name in replacements}
    try:
        for name, value in replacements.items():
            setattr(owner, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(owner, name, value)


def _nbytes(values) -> int:
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


# -- observers: (counts, args, kwargs, result) -> None -------------------------

def _transmit(c, args, kwargs, result):
    c["kernels.transmit.pulses"] += len(args[1])
    c["kernels.transmit.bytes"] += _nbytes(args) + _nbytes(result)


def _toeplitz(c, args, kwargs, result):
    c["kernels.toeplitz.bitops"] += len(args[0]) * args[2]


def _draw(c, args, kwargs, result):
    c["rng.draws"] += args[1] if len(args) > 1 else 1


def _session(c, args, kwargs, result):
    c["qkd.session.aborted"] += result.aborted
    c["qkd.session.pulses"] += result.n_pulses
    c["qkd.session.final_bits"] += len(result.final_key)


def _feasible(c, args, kwargs, result):
    c["geo.link_feasible.true"] += bool(result)


def _broadcast(c, args, kwargs, result):
    c["engine.bcast_rx.count"] += result


def _append(c, args, kwargs, result):
    c["network.keybuffer_append.bytes"] += np.asarray(args[1]).nbytes


# (owner, attribute, span name, observer), or (owner, attribute, None,
# counter name) for a name that is only counted, never timed.
TARGETS = (
    (scenario, "parse_scenario", "scenario.parse", None),
    (runner, "build_simulation", "runner.build", None),
    (runner, "write_outputs", "runner.write", None),
    (runner, "build_report", "report.build", None),
    (runner, "render_human", "report.render", None),
    (runner, "render_records", "report.render", None),
    (runner, "bits_from_hex", "bitops.hex", None),
    (engine.SimEngine, "emit", "engine.emit", None),
    (engine.SimEngine, "broadcast", "engine.broadcast", _broadcast),
    (engine.SimEngine, "log_lines", "engine.log_lines", None),
    (network, "link_feasible", "geo.link_feasible", _feasible),
    (network, "geodesic_distance", None, "geo.geodesic_distance.calls"),
    (geo, "geodesic_distance", None, "geo.geodesic_distance.calls"),
    (network, "shortest_path", "network.shortest_path", None),
    (network, "hex_from_bits", "bitops.hex", None),
    (network, "xor_bits", None, "bitops.xor.calls"),
    (network, "run_bb84_session", "qkd.session", _session),
    (network, "run_plugplay_session", "qkd.session", _session),
    (network.Network, "find_path", "network.find_path", None),
    (network.Network, "_refresh_tables", "network.refresh_tables", None),
    (network.Network, "move_node", "network.move_node", None),
    (network.Network, "join_network", "network.join_network", None),
    (network.Network, "organize_network", "network.organize_network", None),
    (network.Network, "relay_key_setup", "network.relay_key_setup", None),
    (network.Network, "send_message", "network.send_message", None),
    (network.Network, "generate_direct_key", "network.generate_direct_key", None),
    (network.KeyBuffer, "append", "network.keybuffer_append", _append),
    (qkd, "sift", "qkd.sift", None),
    (qkd, "estimate_qber", "qkd.estimate_qber", None),
    (qkd, "privacy_amplify", "qkd.privacy_amplify", None),
    (qkd, "transmit_pulses", "kernels.transmit", _transmit),
    (qkd, "toeplitz_hash", "kernels.toeplitz", _toeplitz),
    (rng.RandomStream, "uniforms", "rng.draw", _draw),
    (rng.RandomStream, "uniform", "rng.draw", _draw),
    (rng.RandomStream, "bits", "rng.draw", _draw),
    (rng.RandomStream, "bit", "rng.draw", _draw),
    (rng.RandomStream, "permutation", "rng.draw", _draw),
)


class Tracer:
    """In-memory span recorder for one traced scenario run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: defaultdict[str, int] = defaultdict(int)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, *args, observe=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[idx] = _clock()
            self._stack.pop()
        if observe is not None:
            observe(self.counts, args, kwargs, result)
        return result

    def span(self, name: str, fn, observe=None):
        """A wrapper of ``fn`` that records a span per call."""
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, observe=observe, **kwargs)
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every name in TARGETS for the duration of the block."""
        with contextlib.ExitStack() as stack:
            for owner, attr, name, extra in TARGETS:
                original = vars(owner)[attr]
                wrapped = (self.counter(extra, original) if name is None
                           else self.span(name, original, extra))
                stack.enter_context(patched(owner, **{attr: wrapped}))
            yield self

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
                for i, name in enumerate(self.names)}
