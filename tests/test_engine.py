import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soqn.engine import ScenarioEvent, SchedulingError, SimEngine, UndeployedOriginError
from soqn import rng
from soqn.qkd import SessionAbort
from soqn.report import fmt
from soqn.rng import RandomStream
from soqn.runner import build_simulation, install_handler
from soqn.scenario import parse_scenario

from event_log import check_log, records


def collector(engine):
    seen = []
    engine.handler = lambda ev: seen.append((engine.now, ev.kind, ev.args))
    return seen


class TestScheduling:
    def test_same_time_fifo(self):
        engine = SimEngine(0)
        seen = collector(engine)
        engine.schedule(ScenarioEvent(1.0, "a"))
        engine.schedule(ScenarioEvent(1.0, "b"))
        engine.schedule(ScenarioEvent(0.5, "c"))
        engine.run_until(2.0)
        assert [k for _, k, _ in seen] == ["c", "a", "b"]

    def test_current_time_before_later(self):
        engine = SimEngine(0)
        seen = collector(engine)
        engine.schedule(ScenarioEvent(0.0, "now"))
        engine.schedule(ScenarioEvent(5.0, "later"))
        engine.run_until(10.0)
        assert [k for _, k, _ in seen] == ["now", "later"]

    def test_past_time_rejected(self):
        engine = SimEngine(0)
        collector(engine)
        engine.schedule(ScenarioEvent(5.0, "x"))
        engine.run_until(5.0)
        with pytest.raises(SchedulingError):
            engine.schedule(ScenarioEvent(4.0, "y"))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ScenarioEvent(-1.0, "x")
        # NaN compares false with everything, so it must not slip through
        with pytest.raises(ValueError):
            ScenarioEvent(float("nan"), "x")

    def test_empty_run(self):
        engine = SimEngine(0)
        collector(engine)
        assert engine.run_until(100.0) == {"events": 0}
        assert engine.now == 100.0

    def test_split_run_equals_single_run(self):
        def build():
            engine = SimEngine(0)
            seen = collector(engine)
            for i, t in enumerate([0.0, 1.0, 1.0, 2.5, 7.0]):
                engine.schedule(ScenarioEvent(t, f"e{i}"))
            return engine, seen

        e1, s1 = build()
        e1.run_until(2.0)
        e1.run_until(10.0)
        e2, s2 = build()
        e2.run_until(10.0)
        assert s1 == s2

    def test_handler_scheduled_events_processed(self):
        engine = SimEngine(0)
        seen = []

        def handler(ev):
            seen.append(ev.kind)
            if ev.kind == "first":
                engine.schedule(ScenarioEvent(engine.now + 1.0, "second"))

        engine.handler = handler
        engine.schedule(ScenarioEvent(0.0, "first"))
        engine.run_until(5.0)
        assert seen == ["first", "second"]

    def test_run_without_end_drains_the_events_handlers_schedule(self):
        # the link acquired at t=0 schedules its own activation for t=3
        sc = parse_scenario("mode p2p\nparam acquire_delay_s 3.0\n"
                            "node a peer 0 0 500\nnode b peer 0 0.05 500\n")
        engine, network = build_simulation(sc)
        install_handler(engine, network, [])
        assert engine.run_until() == {"events": 4}  # two deploys, organize, link_active
        t, _, kind = engine.log_lines()[-1].split("\t")[:3]
        assert (t, kind) == ("3.000000", "link_active")
        assert engine.now == 3.0 and network.active_pairs() == {("a", "b")}
        assert engine.run_until() == {"events": 0} and engine.now == 3.0


class TestBroadcast:
    def test_delivery_count(self):
        engine = SimEngine(0)
        for n in ("a", "b", "c", "d"):
            engine.mark_deployed(n)
        assert engine.broadcast("a", "topic") == 3
        assert engine.log_lines()[-1] == "0.000000\t4\tbroadcast\ta\ttopic=topic payload= receivers=3"

    def test_lone_node_zero_deliveries_still_logged(self):
        engine = SimEngine(0)
        engine.mark_deployed("solo")
        assert engine.broadcast("solo", "hello") == 0
        assert [r.kind for r in records(engine)] == ["deploy", "broadcast"]
        assert engine.log_lines()[-1].endswith(" receivers=0")

    def test_fifo_ordering(self):
        engine = SimEngine(0)
        engine.mark_deployed("a")
        engine.mark_deployed("b")
        engine.broadcast("a", "first")
        engine.broadcast("a", "second")
        topics = [r.details for r in records(engine) if r.kind == "broadcast"]
        assert topics[0].startswith("topic=first")
        assert topics[1].startswith("topic=second")

    def test_undeployed_origin_rejected(self):
        engine = SimEngine(0)
        with pytest.raises(UndeployedOriginError):
            engine.broadcast("ghost", "boo")

    def test_later_deployment_not_among_receivers(self):
        engine = SimEngine(0)
        engine.mark_deployed("a")
        engine.mark_deployed("b")
        assert engine.broadcast("a", "before") == 1
        engine.mark_deployed("c")
        assert engine.broadcast("b", "after") == 2
        assert [r.details for r in records(engine) if r.kind == "broadcast"] == [
            "topic=before payload= receivers=1", "topic=after payload= receivers=2"]
        check_log(engine.log_lines())

    def test_emit_after_broadcast_takes_the_next_number(self):
        engine = SimEngine(0)
        for n in ("a", "b", "c", "d"):
            engine.mark_deployed(n)
        assert engine.broadcast("c", "topic") == 3
        assert engine.emit("next", "a") == 5
        assert [r.seq for r in records(engine)] == list(range(6))  # 4 deploy records

    def test_written_log_has_one_record_per_broadcast(self):
        engine = SimEngine(0)
        for n in ("a", "b", "c", "d"):
            engine.mark_deployed(n)
        engine.broadcast("c", "topic", "hi")
        engine.emit("next", "a")
        assert engine.log_lines()[4:] == [
            "0.000000\t4\tbroadcast\tc\ttopic=topic payload=hi receivers=3",
            "0.000000\t5\tnext\ta\t",
        ]

    def test_deploying_twice_is_rejected(self):
        engine = SimEngine(0)
        engine.mark_deployed("a", "role=peer")
        with pytest.raises(ValueError, match="already deployed"):
            engine.mark_deployed("a")
        assert engine.log_lines() == ["0.000000\t0\tdeploy\ta\trole=peer"]


class TestLog:
    def test_lines_are_tab_separated_and_stable(self):
        engine = SimEngine(0)
        engine.emit("kind1", "node1", "a=1 b=2.5")
        line = engine.log_lines()[0]
        assert line == "0.000000\t0\tkind1\tnode1\ta=1 b=2.5"

    @pytest.mark.parametrize("value", [
        True, False, 0, np.int64(7), 2.5, 1 / 3, 1e-7, 1e21, -0.0, math.nan, math.inf,
        np.float64(0.123456789), "plain", SessionAbort.NONE,
        "", "a=1 b=2.5 msg=text with  two spaces", " = ", "x=\u0130\u00fc\U0001f600",
        "receivers=7"])
    def test_each_field_is_written_as_fmt_formats_it(self, value):
        # the caller formats its details, topic and payload; the engine
        # writes the text as passed
        text = fmt(value)
        engine = SimEngine(0)
        engine.now = 2.5
        assert engine.mark_deployed("a", text) == 0
        assert engine.emit("note", "a", text) == 1
        engine.mark_deployed("b")
        assert engine.broadcast("a", text, text) == 1
        assert engine.emit("note", "b") == 4
        assert engine.log_lines() == [
            f"2.500000\t0\tdeploy\ta\t{text}", f"2.500000\t1\tnote\ta\t{text}",
            "2.500000\t2\tdeploy\tb\t",
            f"2.500000\t3\tbroadcast\ta\ttopic={text} payload={text} receivers=1",
            "2.500000\t4\tnote\tb\t"]

    def test_emit_and_mark_deployed_return_the_sequence_number(self):
        engine = SimEngine(0)
        assert engine.mark_deployed("a") == 0
        assert engine.mark_deployed("b") == 1
        assert engine.broadcast("a", "t") == 1
        assert engine.emit("note", "b") == 3

    def test_changing_the_returned_lines_leaves_the_log_as_it_was(self):
        engine = SimEngine(0)
        engine.emit("note", "a", "i=1")
        lines = engine.log_lines()
        lines.append("extra")
        lines[0] = "changed"
        assert engine.log_lines() == ["0.000000\t0\tnote\ta\ti=1"]

    def test_sequence_monotone(self):
        engine = SimEngine(0)
        for i in range(5):
            engine.emit("k", "n", f"i={i}")
        assert [r.seq for r in records(engine)] == list(range(5))

    @pytest.mark.parametrize("kind", ["deploy", "broadcast"])
    def test_emit_refuses_deploy_and_broadcast(self, kind):
        # a stray deploy record would make the receivers= count of every
        # later broadcast disagree with the deploy records before it
        engine = SimEngine(0)
        engine.mark_deployed("a")
        engine.mark_deployed("b")
        with pytest.raises(ValueError, match=kind):
            engine.emit(kind, "c", "topic=t")
        assert engine.broadcast("a", "t") == 1
        assert [r.kind for r in records(engine)] == ["deploy", "deploy", "broadcast"]
        check_log(engine.log_lines())


class TestCheckLog:
    # ``check_log`` also runs on the written log of every golden replay.
    DEPLOY = ["0.000000\t0\tdeploy\ta\t", "0.000000\t1\tdeploy\tb\t",
              "0.000000\t2\tdeploy\tc\t"]

    def test_a_lone_node_broadcasts_to_no_receivers(self):
        check_log(["1.500000\t0\tdeploy\tsolo\t",
                   "1.500000\t1\tbroadcast\tsolo\ttopic=hello payload= receivers=0"])

    def test_receivers_are_the_deploy_records_before_less_the_source(self):
        check_log([*self.DEPLOY, "2.000000\t3\tbroadcast\tb\ttopic=t payload=p receivers=2",
                   "2.000000\t4\tlink_up\ta\tpeer=c", "2.000000\t5\tdeploy\td\t",
                   "2.000000\t6\tbroadcast\ta\ttopic=t payload=p receivers=3"])

    @pytest.mark.parametrize("count", ["1", "3", "", "02"])
    def test_count_disagreeing_with_deploy_records_raises(self, count):
        lines = [*self.DEPLOY, f"2.000000\t3\tbroadcast\tb\ttopic=t payload=p receivers={count}"]
        with pytest.raises(ValueError, match="seq 3 "):
            check_log(lines)

    def test_broadcast_without_count_raises(self):
        lines = [*self.DEPLOY, "2.000000\t3\tbroadcast\tb\ttopic=t payload=p"]
        with pytest.raises(ValueError, match="seq 3 has no receivers"):
            check_log(lines)

    @pytest.mark.parametrize("seq", ["2", "4", "03", "3.0", ""])
    def test_sequence_number_other_than_the_line_index_raises(self, seq):
        lines = [*self.DEPLOY, f"2.000000\t{seq}\tnote\ta\t"]
        with pytest.raises(ValueError, match="line 3 "):
            check_log(lines)

    def test_payload_with_receivers_text_passes(self):
        engine = SimEngine(0)
        for n in ("a", "b", "c"):
            engine.mark_deployed(n)
        assert engine.broadcast("a", "t", "x receivers=9 receivers=") == 2
        assert engine.log_lines()[3] == (
            "0.000000\t3\tbroadcast\ta\ttopic=t payload=x receivers=9 receivers= receivers=2")
        check_log(engine.log_lines())

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(("deploy", "broadcast", "emit")),
                              st.integers(0, 6)), max_size=40))
    def test_random_interleavings_pass(self, ops):
        engine = SimEngine(0)
        counts = []
        for op, i in ops:
            node = f"n{i}"
            if op == "deploy" and not engine.is_deployed(node):
                engine.mark_deployed(node, f"i={i}")
            elif op == "broadcast" and engine.is_deployed(node):
                counts.append(engine.broadcast(node, f"topic{i}", f"payload receivers={i}"))
            elif op == "emit":
                engine.emit("note", node, f"i={i}")
            engine.now += 0.25
        check_log(engine.log_lines())
        assert [r.details.rpartition(" receivers=")[2] for r in records(engine)
                if r.kind == "broadcast"] == [str(k) for k in counts]


def same_state(a, b) -> bool:
    """Equality of two bit-generator states, whose leaves may be arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return bool(np.array_equal(a, b))


def same_draw_state(stream, gen) -> bool:
    """Whether a stream and a Generator will draw alike: equal bit-generator
    states, where ``uinteger`` counts only while ``has_uint32`` is set."""
    a, b = stream._gen.bit_generator.state, gen.bit_generator.state
    if not a["has_uint32"]:
        a["uinteger"] = b["uinteger"]
    return same_state(a, b)


def digest(seed: int, label: str) -> bytes:
    """SHA-256 of the seed's 8 little-endian bytes and the label's UTF-8."""
    return hashlib.sha256(seed.to_bytes(8, "little") + label.encode("utf-8")).digest()


def keyed_generator(seed: int, label: str) -> np.random.Generator:
    """A Generator on the Philox that numpy keys itself with the first 16
    bytes of the stream's digest: the reference a stream must draw as."""
    return np.random.Generator(np.random.Philox(
        key=int.from_bytes(digest(seed, label)[:16], "little")))


class TestRandomStreams:
    def test_same_label_reproduces(self):
        a = RandomStream(7, "label").uniforms(100)
        b = RandomStream(7, "label").uniforms(100)
        assert np.array_equal(a, b)

    def test_distinct_labels_differ(self):
        a = RandomStream(7, "one").uniforms(100)
        b = RandomStream(7, "two").uniforms(100)
        assert not np.array_equal(a, b)

    def test_label_independence(self):
        # Drawing from an unrelated stream never perturbs another label.
        a1 = RandomStream(7, "alpha").uniforms(50)
        other = RandomStream(7, "beta")
        other.uniforms(1234)
        a2 = RandomStream(7, "alpha").uniforms(50)
        assert np.array_equal(a1, a2)

    def test_binomial_replays_and_counts_one_draw(self):
        a, b = RandomStream(3, "binomial"), RandomStream(3, "binomial")
        draws = [a.binomial(60_000, 0.03) for _ in range(5)]
        assert draws == [b.binomial(60_000, 0.03) for _ in range(5)]
        assert all(type(k) is int and 0 <= k <= 60_000 for k in draws)
        assert len(set(draws)) > 1
        assert a.binomial(0, 0.5) == 0 and a.binomial(7, 1.0) == 7
        # each call is one draw of the stream's generator
        gen = keyed_generator(3, "binomial")
        for n, p in [(60_000, 0.03)] * 5 + [(0, 0.5), (7, 1.0)]:
            gen.binomial(n, p)
        assert same_draw_state(a, gen)

    def test_hypergeometric_replays_and_counts_one_draw(self):
        a, b = RandomStream(3, "hypergeometric"), RandomStream(3, "hypergeometric")
        draws = [a.hypergeometric(300, 700, 500) for _ in range(5)]
        assert draws == [b.hypergeometric(300, 700, 500) for _ in range(5)]
        assert all(type(e) is int and 0 <= e <= 300 for e in draws)
        assert len(set(draws)) > 1
        # a sample of no good items is still one draw
        assert a.hypergeometric(0, 500, 250) == 0 and a.hypergeometric(9, 0, 9) == 9
        gen = keyed_generator(3, "hypergeometric")
        for args in [(300, 700, 500)] * 5 + [(0, 500, 250), (9, 0, 9)]:
            gen.hypergeometric(*args)
        assert same_draw_state(a, gen)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bits_match_the_integers_draw(self, seed):
        # Top bits of random bytes equal integers(0, 2, dtype=uint8): same
        # values, same stream state, interleaved with every other draw.
        sizes = np.random.default_rng(seed).integers(0, 3000, size=6)
        stream = RandomStream(seed, "bits")
        gen = RandomStream(seed, "bits")._gen
        for n in [0, 1, 3, 5, 8, *map(int, sizes), 0, 7]:
            bits = stream.bits(n)
            assert bits.dtype == np.uint8
            assert np.array_equal(bits, gen.integers(0, 2, size=n, dtype=np.uint8))
            assert stream.bit() == int(gen.integers(0, 2))
            assert np.array_equal(stream.uniforms(n % 5), gen.random(n % 5))
            assert np.array_equal(stream.permutation(n % 7), gen.permutation(n % 7))
        assert same_state(stream._gen.bit_generator.state, gen.bit_generator.state)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("words", [
        (0, 0, 0, 0),
        (0xDEADBEEF, 1, 2**32 - 1, 0),  # high halves 0
        (0xDEADBEEF << 32, 1 << 32, (2**32 - 1) << 32, 7),  # low halves 0
        (2**64 - 1, 0, 1 << 63, 0x0123456789ABCDEF),
    ])
    def test_entropy_gives_the_key_of_the_int_words(self, monkeypatch, seed, words):
        # A stream's entropy is SHA-256(seed as 8 little-endian bytes ||
        # label). No label hashes to these digests, so the digest is put in
        # place of the hash: the key must be its first two little-endian
        # words as they are, with no mixing, and the counter 0.
        fixed = b"".join(w.to_bytes(8, "little") for w in words)
        hashed = []
        monkeypatch.setattr(rng, "hashlib", SimpleNamespace(
            sha256=lambda data: hashed.append(data) or SimpleNamespace(digest=lambda: fixed)))
        bitgen = RandomStream(seed, "x")._gen.bit_generator
        assert hashed == [seed.to_bytes(8, "little") + b"x"]
        assert bitgen.state["state"]["key"].tolist() == list(words[:2])
        assert bitgen.state["state"]["counter"].tolist() == [0, 0, 0, 0]
        assert not isinstance(bitgen.seed_seq, np.random.SeedSequence)

    @pytest.mark.parametrize("seed", [0, 1, 5, 2**32, 2**64 - 1])
    def test_entropy_of_session_labels_gives_the_key_of_the_int_words(self, seed):
        for a, b, i in [("a", "b", 0), ("n1", "n12", 3), ("s0", "c95", 41), ("p7", "p8", 999),
                        ("\u00e9", "\U0001f600", 2)]:
            label = f"qkd/{a}/{b}/{i}"
            bitgen = RandomStream(seed, label)._gen.bit_generator
            assert np.array_equal(bitgen.state["state"]["key"],
                                  np.frombuffer(digest(seed, label)[:16], "<u8"))
            assert bitgen.state["state"]["counter"].tolist() == [0, 0, 0, 0]
            assert not isinstance(bitgen.seed_seq, np.random.SeedSequence)

    def test_the_seed_and_the_last_label_byte_each_change_the_key(self):
        pairs = [(0, "qkd/a/b/0"), (1, "qkd/a/b/0"), (0, "qkd/a/b/1"), (1, "qkd/a/b/1")]
        keys = {tuple(RandomStream(seed, label)._gen.bit_generator.state["state"]["key"])
                for seed, label in pairs}
        assert len(keys) == len(pairs)

    def test_the_seed_sequence_hands_out_the_digest_words_and_no_more(self):
        seed_seq = RandomStream(9, "words")._gen.bit_generator.seed_seq
        d = digest(9, "words")
        assert seed_seq.generate_state(4, np.uint64).tolist() == np.frombuffer(d, "<u8").tolist()
        assert seed_seq.generate_state(8).tolist() == np.frombuffer(d, "<u4").tolist()
        assert seed_seq.generate_state(3, np.uint32).tolist() == np.frombuffer(d, "<u4")[:3].tolist()
        assert seed_seq.generate_state(0, np.uint64).size == 0
        for n_words, dtype in [(5, np.uint64), (9, np.uint32), (-1, np.uint32)]:
            with pytest.raises(ValueError, match="holds no"):
                seed_seq.generate_state(n_words, dtype)
        for dtype in (np.int64, np.float64, np.uint16):
            with pytest.raises(ValueError, match="uint32 or uint64"):
                seed_seq.generate_state(1, dtype)

    @pytest.mark.parametrize("seed", range(6))
    def test_bits_match_generator_bytes_in_any_interleaving(self, seed):
        # bits(n) reads raw Philox outputs; numpy's Generator.bytes(n) draws
        # 32-bit words through the bit generator's half-word buffer. Every
        # draw and the state afterwards must agree, whatever half word the
        # other draws leave pending.
        stream = RandomStream(seed, "interleaved")
        gen = keyed_generator(seed, "interleaved")
        choose = np.random.default_rng(100 + seed)
        pending = {"entry": set(), "exit": set(), "n mod 8": set()}
        for _ in range(300):
            op = choose.integers(7)
            if op <= 1:
                n = int(choose.integers(71))
                pending["entry"].add(gen.bit_generator.state["has_uint32"])
                want = np.frombuffer(gen.bytes(n), np.uint8) >> 7 if n else np.empty(0, np.uint8)
                got = stream.bits(n)
                assert got.dtype == np.uint8 and np.array_equal(got, want)
                assert same_draw_state(stream, gen)
                pending["exit"].add(gen.bit_generator.state["has_uint32"])
                pending["n mod 8"].add(n % 8)
            elif op == 2:
                k = int(choose.integers(12))
                assert np.array_equal(stream.permutation(k), gen.permutation(k))
            elif op == 3:
                sample = int(choose.integers(1, 30))
                ngood = int(choose.integers(sample + 1))
                nbad = sample - ngood + int(choose.integers(40))
                assert stream.hypergeometric(ngood, nbad, sample) == gen.hypergeometric(
                    ngood, nbad, sample)
            elif op == 4:
                assert stream.binomial(1000, 0.3) == gen.binomial(1000, 0.3)
            elif op == 5:
                assert np.array_equal(stream.uniforms(3), gen.random(3))
            else:
                assert stream.bit() == int(gen.integers(0, 2))
        assert same_draw_state(stream, gen)
        assert pending == {"entry": {0, 1}, "exit": {0, 1}, "n mod 8": set(range(8))}

    def test_seed_bounds(self):
        # a seed is hashed as 8 bytes, which hold no larger seed
        assert RandomStream(0, "x").uniforms(1).size == 1
        assert RandomStream(2**64 - 1, "x").uniforms(1).size == 1
        for seed in (-1, 2**64, 2**64 + 5):
            with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64 - 1\]"):
                RandomStream(seed, "x")
        with pytest.raises(ValueError):
            SimEngine(2**64 + 5).stream("x")

    def test_engine_stream_uses_seed(self):
        e1 = SimEngine(1).stream("s")
        e2 = SimEngine(2).stream("s")
        assert not np.array_equal(e1.uniforms(20), e2.uniforms(20))


class TestDrawKnownAnswers:
    """The first values of each draw primitive on one (seed, label).

    Every golden pin rests on these draws, and numpy may change a
    ``Generator`` method's algorithm between releases (NEP 19 keeps only
    the bit generator's raw stream stable). A failure here names the draw
    that moved. Binomial and hypergeometric are pinned on both sides of
    numpy's switch between its small-mean and its rejection algorithm.
    """

    @staticmethod
    def stream():
        return RandomStream(2024, "known-answer")

    def test_uniforms(self):
        assert self.stream().uniforms(4).tolist() == [
            0.06876342771452781, 0.9038531543942555, 0.5216816294663279, 0.1289796839375067]

    def test_bits(self):
        assert self.stream().bits(20).tolist() == [
            0, 1, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 0, 1, 0, 1, 0, 0]

    def test_binomial(self):
        s = self.stream()
        assert [s.binomial(50, 0.1) for _ in range(4)] == [2, 8, 5, 3]
        assert [s.binomial(1000, 0.3) for _ in range(4)] == [307, 277, 302, 305]

    def test_permutation(self):
        assert self.stream().permutation(12).tolist() == [6, 3, 8, 7, 5, 0, 11, 2, 9, 10, 1, 4]

    def test_hypergeometric(self):
        s = self.stream()
        assert [s.hypergeometric(3, 7, 5) for _ in range(4)] == [2, 3, 1, 2]
        assert [s.hypergeometric(300, 700, 500) for _ in range(4)] == [143, 154, 158, 159]
