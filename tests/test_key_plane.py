"""The key plane keeps counts: a send checks its message once, then spends
one block of the message's length on each hop.

Sends are compared with a reference built from per-hop counts alone; the
work a send does is pinned too. The ledger is checked on written runs: for
each pair, its buffer's counts, the sums of its ``keygen`` and ``consume``
lines and its ``records.tsv`` link row agree.
"""
import pathlib
import sys
from collections import defaultdict

import numpy as np
import pytest

import soqn.network as network
from soqn.network import KeyBuffer, pair_key, xor_bits
from soqn.report import build_report
from soqn.runner import build_simulation, install_handler, write_outputs
from soqn.scenario import parse_scenario

from event_log import check_log
from test_network import deg, make_network, preload_key, relay_broadcasts

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench")]

import workloads  # noqa: E402

NODES = 7  # a line n0 - n1 - ... - n6: every route is the stretch of line between its ends


def line_network():
    nodes = [(f"n{i}", "peer", 0.0, deg(100) * i, 500.0) for i in range(NODES)]
    return make_network("p2p", nodes)


class Reference:
    """Each hop's bits generated and consumed, and what a send must do to
    them, computed from counts alone."""

    def __init__(self):
        self.pool: dict[tuple[str, str], int] = defaultdict(int)
        self.cursor: dict[tuple[str, str], int] = defaultdict(int)

    def append(self, hop, n):
        self.pool[hop] += n

    def available(self, hop):
        return self.pool[hop] - self.cursor[hop]

    def send(self, path, n):
        """(consume events, relay_xor broadcasts) of a send of ``n`` bits along ``path``."""
        if n == 0:
            return [], []
        hops = [pair_key(a, b) for a, b in zip(path, path[1:])]
        purpose = "direct" if len(hops) == 1 else "relay_hop"
        events = []
        for hop in hops:
            events.append((hop, self.cursor[hop], n, purpose))
            self.cursor[hop] += n
        return events, [(relay, f"bits={n}") for relay in path[1:-1]]


@pytest.mark.parametrize("seed", range(6))
def test_random_sends_match_the_public_helpers(seed):
    rng = np.random.default_rng(seed)
    engine, net = line_network()
    ref = Reference()
    hops = [pair_key(f"n{i}", f"n{i + 1}") for i in range(NODES - 1)]
    lengths = set()
    for _ in range(40):
        k = int(rng.integers(1, NODES))  # 1-6 hops
        start = int(rng.integers(0, NODES - k))
        path = [f"n{i}" for i in range(start, start + k + 1)]
        if rng.random() < 0.5:
            path.reverse()
        message = rng.integers(0, 2, int(rng.integers(0, 71)), dtype=np.uint8)
        lengths.add(len(message))
        for hop in hops[start : start + k]:
            # short appends, so blocks start and end inside them and span several
            while ref.available(hop) < len(message):
                n = int(rng.integers(0, 25))
                preload_key(net, *hop, n)
                ref.append(hop, n)
        events_before, lines_before = len(net.consume_events), len(engine.log_lines())
        rec = net.send_message(path[0], path[-1], message)
        events, broadcasts = ref.send(path, len(message))
        assert rec.path == tuple(path) and rec.delivered
        assert rec.bits_consumed == len(message) * k
        assert net.consume_events[events_before:] == events
        assert relay_broadcasts(engine, lines_before) == broadcasts
        for hop in hops:
            buf = net.buffers.get(hop)
            counts = (0, 0) if buf is None else (buf.total_generated, buf.consumed_offset)
            assert counts == (ref.pool[hop], ref.cursor[hop])
    assert any(n % 4 for n in lengths) and any(n and n % 4 == 0 for n in lengths)
    check_log(engine.log_lines())


class Counter:
    def __init__(self, monkeypatch, owner, name):
        self.calls = 0
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("hops", [1, 2, 3, 6])
@pytest.mark.parametrize("chunk", [64, 8], ids=["one_chunk", "spanning"])
def test_a_send_checks_only_its_message(monkeypatch, hops, chunk):
    engine, net = line_network()
    rng = np.random.default_rng(hops)
    for i in range(hops):
        for _ in range(64 // chunk):
            preload_key(net, f"n{i}", f"n{i + 1}", chunk)
    as_bits_calls = Counter(monkeypatch, network, "as_bits")
    xor_calls = Counter(monkeypatch, network, "xor_bits")
    consumes = Counter(monkeypatch, KeyBuffer, "consume")
    concatenates = Counter(monkeypatch, np, "concatenate")
    # 20 bits lie in each hop's first append of 64; 40 bits span appends of 8
    message = rng.integers(0, 2, 20 if chunk == 64 else 40, dtype=np.uint8)
    rec = net.send_message(f"n{hops}", "n0", message)
    assert rec.delivered and len(rec.path) == hops + 1
    assert as_bits_calls.calls == 1
    assert xor_calls.calls == 0
    assert consumes.calls == hops  # one block per hop
    assert concatenates.calls == 0


class TestPublicHelpersCheckTheirArguments:
    @pytest.mark.parametrize("op", [xor_bits])
    def test_xor(self, op):
        with pytest.raises(ValueError, match="bitstrings may contain only 0 and 1"):
            op([0, 3], [1, 1])
        with pytest.raises(ValueError, match="length mismatch: 2 vs 1"):
            op([0, 1], [1])


def _ledger_scenario(name):
    if name == "p2p_relay.soqn+precharge":
        return (ROOT / "scenarios" / "p2p_relay.soqn").read_text() + "param precharge_bits 256\n"
    return workloads.generate(name, 1)


def _fields(text, sep):
    return dict(field.split("=", 1) for field in text.split(sep) if "=" in field)


@pytest.mark.parametrize("name", ["cs_mobility", "p2p_mesh_sends", "qkd_bulk_chain",
                                  "p2p_relay.soqn+precharge"])
def test_buffers_log_and_link_rows_keep_one_ledger(name, tmp_path):
    engine, net = build_simulation(parse_scenario(_ledger_scenario(name)))
    install_handler(engine, net, [])
    engine.run_until()
    write_outputs(build_report(net, engine, []), engine, str(tmp_path))
    logged = defaultdict(lambda: [0, 0])  # pair -> [generated, consumed]
    for line in (tmp_path / "events.log").read_text().splitlines():
        _, _, kind, origin, details = line.split("\t", 4)
        if kind in ("keygen", "consume"):
            fields = _fields(details, " ")
            logged[(origin, fields["peer"])][kind == "consume"] += int(fields["bits"])
    rows = {}
    for line in (tmp_path / "records.tsv").read_text().splitlines():
        kind, _, rest = line.partition("\t")
        if kind == "link":
            fields = _fields(rest, "\t")
            rows[tuple(fields["pair"].split("~"))] = [int(fields["generated"]),
                                                      int(fields["consumed"])]
    assert any(gen and used for gen, used in logged.values())
    for pair in sorted(rows.keys() | logged.keys() | net.buffers.keys()):
        buf = net.buffers.get(pair)
        counts = [0, 0] if buf is None else [buf.total_generated, buf.consumed_offset]
        assert counts == logged.get(pair, [0, 0]) == rows.get(pair), pair
