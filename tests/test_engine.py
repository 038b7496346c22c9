import pathlib

import numpy as np
import pytest

from soqn.engine import ScenarioEvent, SchedulingError, SimEngine, UndeployedOriginError
from soqn.rng import RandomStream
from soqn.runner import build_simulation, install_handler
from soqn.scenario import parse_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def collector(engine):
    seen = []
    engine.handler = lambda ev: seen.append((engine.now, ev.kind, dict(ev.payload)))
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


class TestBroadcast:
    def test_delivery_count(self):
        engine = SimEngine(0)
        for n in ("a", "b", "c", "d"):
            engine.mark_deployed(n)
        assert engine.broadcast("a", "topic") == 3
        rx = [r for r in engine.log if r.kind == "bcast_rx"]
        assert len(rx) == 3
        assert {r.origin for r in rx} == {"b", "c", "d"}

    def test_lone_node_zero_deliveries_still_logged(self):
        engine = SimEngine(0)
        engine.mark_deployed("solo")
        assert engine.broadcast("solo", "hello") == 0
        assert [r.kind for r in engine.log] == ["broadcast"]

    def test_fifo_ordering(self):
        engine = SimEngine(0)
        engine.mark_deployed("a")
        engine.mark_deployed("b")
        engine.broadcast("a", "first")
        engine.broadcast("a", "second")
        topics = [r.details for r in engine.log if r.kind == "broadcast"]
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
        engine.broadcast("a", "before")
        engine.mark_deployed("c")
        engine.broadcast("b", "after")
        rx = [(r.origin, r.details) for r in engine.log if r.kind == "bcast_rx"]
        assert rx == [("b", "source=a topic=before"),
                      ("a", "source=b topic=after"), ("c", "source=b topic=after")]

    def test_emit_after_broadcast_skips_the_receptions(self):
        engine = SimEngine(0)
        for n in ("a", "b", "c", "d"):
            engine.mark_deployed(n)
        k = engine.broadcast("c", "topic")
        sent = engine.log[-k - 1]
        assert sent.kind == "broadcast"
        assert engine.emit("next", "a").seq == sent.seq + k + 1
        assert [r.seq for r in engine.log] == list(range(k + 2))


class TestLog:
    def test_lines_are_tab_separated_and_stable(self):
        engine = SimEngine(0)
        engine.emit("kind1", "node1", a=1, b=2.5)
        line = engine.log_lines()[0]
        assert line == "0.000000\t0\tkind1\tnode1\ta=1 b=2.5"

    def test_sequence_monotone(self):
        engine = SimEngine(0)
        for i in range(5):
            engine.emit("k", "n", i=i)
        assert [r.seq for r in engine.log] == list(range(5))

    def test_lines_match_expanded_records(self):
        sc = parse_scenario((SCENARIOS / "p2p_relay.soqn").read_text())
        engine, network = build_simulation(sc)
        install_handler(engine, network, [])
        while engine.pending_events():
            engine.run_until(engine.last_event_time())
        assert any(r.kind == "bcast_rx" for r in engine.log)
        assert [r.to_line() for r in engine.log] == engine.log_lines()


def same_state(a, b) -> bool:
    """Equality of two bit-generator states, whose leaves may be arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return bool(np.array_equal(a, b))


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

    def test_position_counts_draws(self):
        s = RandomStream(1, "x")
        s.uniforms(10)
        s.bits(5)
        s.bit()
        assert s.position == 16

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

    def test_engine_stream_uses_seed(self):
        e1 = SimEngine(1).stream("s")
        e2 = SimEngine(2).stream("s")
        assert not np.array_equal(e1.uniforms(20), e2.uniforms(20))
