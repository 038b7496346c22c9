"""The key plane checks key bits once, where they enter it.

Sends are compared with a reference built only from plain XOR, the public,
validating bit helpers of ``network`` and ``relay_chain_oracle``; the work a
send does and the arrays it hands out are pinned too.
"""
import numpy as np
import pytest

import soqn.network as network
from soqn.network import KeyBuffer, _unwind, as_bits, hex_from_bits, pair_key, xor_bits

from event_log import records
from test_network import deg, make_network, preload_key, relay_chain_oracle

NODES = 7  # a line n0 - n1 - ... - n6: every route is the stretch of line between its ends


def line_network():
    nodes = [(f"n{i}", "peer", 0.0, deg(100) * i, 500.0) for i in range(NODES)]
    return make_network("p2p", nodes)


class Reference:
    """Each hop's key pool as one array, and what a send must do to it,
    computed with plain XOR and the public helpers only."""

    def __init__(self):
        self.pool: dict[tuple[str, str], np.ndarray] = {}
        self.cursor: dict[tuple[str, str], int] = {}

    def append(self, hop, bits):
        self.pool[hop] = np.concatenate([self.pool.get(hop, np.empty(0, np.uint8)), as_bits(bits)])
        self.cursor.setdefault(hop, 0)

    def available(self, hop):
        return len(self.pool.get(hop, ())) - self.cursor.get(hop, 0)

    def consume(self, hop, n, purpose):
        off = self.cursor[hop]
        self.cursor[hop] = off + n
        return (hop, off, n, purpose), self.pool[hop][off : off + n]

    def send(self, path, message):
        """(consume events, relay_xor payloads, ok) of a send along ``path``."""
        hops = [pair_key(a, b) for a, b in zip(path, path[1:])]
        n = len(message)
        if n == 0:
            return [], [], True
        purpose = "direct" if len(hops) == 1 else "relay_hop"
        events, pads = zip(*(self.consume(hop, n, purpose) for hop in hops))
        payloads = [hex_from_bits(x) if n % 4 == 0 else "".join(str(int(bit)) for bit in x)
                    for x in map(xor_bits, pads, pads[1:])]
        plain = relay_chain_oracle(message, pads)
        return list(events), payloads, bool(np.array_equal(plain, message))


def relay_payloads(engine, since):
    return [dict(kv.split("=", 1) for kv in r.details.split())["payload"]
            for r in records(engine)[since:]
            if r.kind == "broadcast" and "topic=relay_xor" in r.details]


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
            # short chunks, so blocks start and end inside them and span several
            while ref.available(hop) < len(message):
                bits = rng.integers(0, 2, int(rng.integers(0, 25)), dtype=np.uint8)
                preload_key(net, *hop, bits)
                ref.append(hop, bits)
        events_before, lines_before = len(net.consume_events), len(engine.log_lines())
        rec = net.send_message(path[0], path[-1], message)
        events, payloads, ok = ref.send(path, message)
        assert rec.path == tuple(path) and rec.delivered
        assert net.consume_events[events_before:] == events
        assert relay_payloads(engine, lines_before) == payloads
        assert rec.plaintext_ok is ok is True
        for hop in hops:
            buf = net.buffers.get(hop)
            if buf is None:
                assert ref.available(hop) == 0
                continue
            rest = np.concatenate([np.empty(0, np.uint8), *buf._chunks])
            assert (buf.total_generated, buf.consumed_offset) == (len(ref.pool[hop]), ref.cursor[hop])
            assert np.array_equal(rest, ref.pool[hop][ref.cursor[hop]:])
    assert any(n % 4 for n in lengths) and any(n and n % 4 == 0 for n in lengths)


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
            preload_key(net, f"n{i}", f"n{i + 1}", rng.integers(0, 2, chunk, dtype=np.uint8))
    as_bits_calls = Counter(monkeypatch, network, "as_bits")
    xor_calls = Counter(monkeypatch, network, "xor_bits")
    consumes = Counter(monkeypatch, KeyBuffer, "consume")
    concatenates = Counter(monkeypatch, np, "concatenate")
    # 20 bits lie in each hop's first chunk of 64; 40 bits span chunks of 8
    message = rng.integers(0, 2, 20 if chunk == 64 else 40, dtype=np.uint8)
    rec = net.send_message(f"n{hops}", "n0", message)
    assert rec.delivered and rec.plaintext_ok and len(rec.path) == hops + 1
    assert as_bits_calls.calls == 1
    assert xor_calls.calls == 0
    assert consumes.calls == hops  # one pad per hop
    if chunk == 64:
        assert concatenates.calls == 0
    else:
        assert concatenates.calls == hops  # the counter sees a block that spans chunks


class TestConsumedBlocks:
    @pytest.mark.parametrize("n", [0, 3, 5, 9])
    def test_bits_are_read_only(self, n):
        buf = KeyBuffer(("a", "b"))
        buf.append(np.array([1, 0, 1, 1, 0], dtype=np.uint8))
        buf.append(np.array([0, 1, 1, 0], dtype=np.uint8))
        bits = buf.consume(n)
        assert len(bits) == n and not bits.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            bits[:] = 1

    def test_later_appends_and_consumes_never_change_an_earlier_block(self):
        rng = np.random.default_rng(9)
        buf = KeyBuffer(("a", "b"))
        held = []
        for _ in range(400):
            if rng.random() < 0.4 or buf.available == 0:
                bits = rng.integers(0, 2, int(rng.integers(0, 30)), dtype=np.uint8)
                buf.append(bits)
                bits ^= 1  # the caller's array, written after the append
            else:
                block = buf.consume(int(rng.integers(0, buf.available + 1)))
                held.append((block, block.copy()))
            assert all(np.array_equal(block, copy) for block, copy in held)

    def test_a_relay_leaves_the_pads_it_read_unchanged(self):
        _, net = line_network()
        pads = []
        for i in range(3):
            bits = np.random.default_rng(i).integers(0, 2, 16, dtype=np.uint8)
            preload_key(net, f"n{i}", f"n{i + 1}", bits)
            pads.append(bits)
        got, xors = net.relay_key_setup(["n0", "n1", "n2", "n3"], 16)
        assert not any(pad.flags.writeable for pad in got)
        cipher = np.ones(16, dtype=np.uint8) ^ got[0]
        sent = cipher.copy()
        assert np.array_equal(_unwind(cipher, got[-1], xors), np.ones(16))
        assert np.array_equal(cipher, sent)
        assert [a.tolist() for a in got] == [k.tolist() for k in pads]
        assert [x.tolist() for x in xors] == [xor_bits(k1, k2).tolist()
                                              for k1, k2 in zip(pads, pads[1:])]


class TestPublicHelpersCheckTheirArguments:
    @pytest.mark.parametrize("op", [xor_bits])
    def test_xor(self, op):
        with pytest.raises(ValueError, match="bitstrings may contain only 0 and 1"):
            op([0, 3], [1, 1])
        with pytest.raises(ValueError, match="length mismatch: 2 vs 1"):
            op([0, 1], [1])
