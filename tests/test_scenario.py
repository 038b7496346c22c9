import dataclasses
import functools
import inspect
import pathlib
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soqn.channel import ChannelParams
from soqn.engine import ScenarioEvent
from soqn.geo import LinkFeasibilityParams
from soqn.network import Network
from soqn.qkd import ProtocolParams
from soqn.runner import run_scenario
from soqn.scenario import (PARAM_SPECS, NodeDecl, Scenario, ScenarioError,
                           format_scenario, parse_scenario, parse_value)

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """\
mode p2p
node n1 peer 0.0 0.0 100.0
node n2 peer 0.0 0.05 100.0
"""


class TestParseBasics:
    def test_minimal_file(self):
        sc = parse_scenario(MINIMAL)
        assert sc.mode == "p2p" and sc.seed == 0
        assert sc.node_ids() == ["n1", "n2"]
        assert sc.events == []

    def test_comments_and_blank_lines(self):
        sc = parse_scenario("# header\n\nmode cs  # trailing\n\nnode s server 0 0 0\n")
        assert sc.mode == "cs" and sc.node_ids() == ["s"]

    def test_full_grammar(self):
        text = """\
mode p2p
seed 12345
param max_range_km 100.0
param min_sift_len 200
param require_los false
node n1 peer 0 0 100
node n2 peer 0 0.05 100
node n3 peer 0 0.1 100 deploy=2.5
node n4 peer 0 0.15 100
at 3.0 join n4
at 4.0 move n1 0 0.01 150
at 5.0 qkd n1 n2 pulses=4096
at 6.0 send n1 n2 hex:deadbeef
at 7.0 eve n1 n2 intercept_resend on
at 8.0 eve n1 n2 intercept_resend off
"""
        sc = parse_scenario(text)
        assert sc.seed == 12345
        assert sc.params == {"max_range_km": 100.0, "min_sift_len": 200, "require_los": False}
        assert sc.nodes[2].deploy == 2.5
        assert sc.nodes[3].deploy == 3.0  # the join
        kinds = [e.kind for e in sc.events]
        assert kinds == ["move", "qkd", "send", "eve", "eve"]
        assert sc.events[1].args == ("n1", "n2", 4096)
        assert sc.events[2].args == ("n1", "n2", "deadbeef")
        assert sc.events[3].args == ("n1", "n2", True)

    def test_deploy_resolution(self):
        text = MINIMAL + "node n3 peer 0 0.1 100 deploy=5\nnode n4 peer 0 0.15 100\nat 7 join n4\n"
        sc = parse_scenario(text)
        assert [n.deploy for n in sc.nodes] == [None, None, 5.0, 7.0]
        assert [n.deploy_at for n in sc.nodes] == [0.0, 0.0, 5.0, 7.0]
        assert sc.events == []
        assert "join" not in format_scenario(sc) and "deploy=7.0" in format_scenario(sc)

    def test_join_may_precede_its_node_line(self):
        sc = parse_scenario("mode p2p\nat 4 join n2\nnode n1 peer 0 0 0\nnode n2 peer 0 0.01 0\n")
        assert [n.deploy for n in sc.nodes] == [None, 4.0]


class TestDiagnostics:
    def expect_error(self, text, line, fragment):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert err.value.line == line
        assert fragment in err.value.message

    def test_unknown_directive(self):
        self.expect_error("mode p2p\nbogus x y\n", 2, "unknown directive")

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="aZ09_.-~!/=:+\x00\u00e9", min_size=1, max_size=5))
    def test_node_ids_accepted_as_by_the_anchored_match(self, node_id):
        # Tokens hold no whitespace, so the parser accepts exactly what an
        # anchored ``^[A-Za-z0-9_.-]+$`` match accepts. The one id where the
        # two differ ends in a newline, which a token cannot.
        try:
            parse_scenario(f"mode p2p\nnode {node_id} peer 0 0 100\n")
            accepted = True
        except ScenarioError as err:
            assert "must match" in err.message
            accepted = False
        assert accepted == bool(re.match(r"^[A-Za-z0-9_.\-]+$", node_id))

    def test_column_points_at_token(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("mode p2p\nnode n1 wizard 0 0 0\n")
        assert err.value.line == 2 and err.value.col == 9

    def test_bad_mode(self):
        self.expect_error("mode ring\n", 1, "mode must be")

    def test_duplicate_mode(self):
        self.expect_error("mode p2p\nmode cs\n", 2, "duplicate mode")

    def test_role_mode_conflict(self):
        self.expect_error("mode p2p\nnode c1 client 0 0 0\n", 2, "role")

    def test_client_in_p2p_is_semantic_error(self):
        self.expect_error(MINIMAL + "node c1 client 0 0 0\n", 4, "role")

    def test_duplicate_node(self):
        self.expect_error(MINIMAL + "node n1 peer 1 1 0\n", 4, "duplicate node")

    def test_unknown_node_in_event(self):
        self.expect_error(MINIMAL + "at 1 qkd n1 nx pulses=10\n", 4, "unknown node")

    def test_same_node_pair(self):
        self.expect_error(MINIMAL + "at 1 send n1 n1 hex:ff\n", 4, "must differ")

    def test_seed_bounds(self):
        self.expect_error("mode p2p\nseed 18446744073709551616\n", 2, "64 unsigned bits")

    def test_unknown_param(self):
        self.expect_error("mode p2p\nparam warp_factor 9\n", 2, "unknown param")

    # removed for changing no run, or for acting only through their sum:
    # the two acquisition stages (acquire_delay_s) and the two noise
    # sources (noise_prob)
    @pytest.mark.parametrize("line", ["param signal_mean_photons 0.5",
                                      "param trojan_tolerance 0.2",
                                      "param strong_pulse_intensity 2",
                                      "param acquire_coarse_s 2.0",
                                      "param acquire_fine_s 1.0",
                                      "param dark_count_prob 1e-6",
                                      "param background_prob 1e-4"])
    def test_removed_params_are_unknown(self, line):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(f"mode p2p\n{line}\n")
        assert (err.value.line, err.value.col) == (2, 7)
        assert err.value.message.startswith("unknown param")

    # Python's int and float also read digit separators and non-ASCII digits
    @pytest.mark.parametrize("text,line,fragment", [
        ("mode p2p\nseed 1_0\n", 2, "seed must be an integer"),
        ("mode p2p\nnode b peer 0 \u0663 0\n", 2, "longitude must be a number"),
        ("mode p2p\nparam min_sift_len \uff11\uff10\n", 2, "param min_sift_len must be an integer"),
        ("mode p2p\nparam f_ec 1.1_6\n", 2, "param f_ec must be a number"),
        (MINIMAL + "at 1 qkd n1 n2 pulses=1_000\n", 4, "bad pulse count"),
        (MINIMAL + "at 1_0 join n2\n", 4, "time must be a number"),
    ], ids=["seed", "longitude", "int_param", "float_param", "pulses", "event_time"])
    def test_numbers_are_ascii_literals(self, text, line, fragment):
        self.expect_error(text, line, fragment)

    def test_pulses_beyond_numpys_binomial(self):
        self.expect_error(MINIMAL + f"at 1 qkd n1 n2 pulses={2**63}\n", 4,
                          "pulses must be in [1, 2**63 - 1]")
        sc = parse_scenario(MINIMAL + f"at 1 qkd n1 n2 pulses={2**63 - 1}\n")
        assert sc.events[0].args[2] == 2**63 - 1

    def test_int_param_rejects_float(self):
        self.expect_error("mode p2p\nparam min_sift_len 10.5\n", 2, "integer")

    def test_bad_hex(self):
        self.expect_error(MINIMAL + "at 1 send n1 n2 hex:xyz\n", 4, "hex digit")

    def test_eve_other_attack_rejected(self):
        self.expect_error(MINIMAL + "at 1 eve n1 n2 trojan_probe on\n", 4, "intercept_resend")

    def test_join_with_explicit_deploy_conflicts(self):
        text = "mode p2p\nnode n1 peer 0 0 0 deploy=1\nnode n2 peer 0 0.01 0\nat 2 join n1\n"
        self.expect_error(text, 4, "deploy time and a join event")

    @pytest.mark.parametrize("text,line,fragment", [
        (MINIMAL + "at 1 join nx\n", 4, "unknown node 'nx'"),
        ("mode p2p\nat 1 join n1\nat 0 move n1 0 0 0\n", 2, "events declared but no nodes"),
    ], ids=["unknown_node", "no_nodes"])
    def test_join_diagnostics(self, text, line, fragment):
        self.expect_error(text, line, fragment)

    def test_double_join(self):
        text = MINIMAL + "at 1 join n2\nat 2 join n2\n"
        self.expect_error(text, 5, "joins twice")

    def test_event_before_deploy(self):
        text = "mode p2p\nnode n1 peer 0 0 0\nnode n2 peer 0 0.01 0 deploy=5\nat 1 qkd n1 n2 pulses=10\n"
        self.expect_error(text, 4, "before its deploy time")

    @pytest.mark.parametrize("value,fragment", [("nan", "must be finite"),
                                                ("inf", "must be finite"),
                                                ("-1", "must be >= 0"),
                                                ("soon", "must be a number")])
    def test_bad_deploy_time(self, value, fragment):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(f"mode p2p\nnode n1 peer 0 0 0 deploy={value}\n")
        assert (err.value.line, err.value.col) == (2, 20)
        assert err.value.message == f"deploy time {fragment}" + (
            f", got {value!r}" if fragment == "must be a number" else "")

    def test_negative_event_time(self):
        self.expect_error(MINIMAL + "at -1 join n2\n", 4, ">= 0")

    @pytest.mark.parametrize("lat,alt", [("90", "0"), ("-90", "0"), ("0", "-500"),
                                         ("90.0", "-500.0")])
    def test_coordinate_limits_are_accepted(self, lat, alt):
        sc = parse_scenario(MINIMAL + f"node n3 peer {lat} 0.5 {alt}\n"
                            f"at 1 move n1 {lat} 0.5 {alt}\n")
        assert sc.nodes[2].lat == sc.events[0].args[1] == float(lat)
        assert sc.nodes[2].alt == sc.events[0].args[3] == float(alt)

    # GeoPosition rejects these; the parser names their line and token
    @pytest.mark.parametrize("lat,alt,col,message", [
        ("90.5", "0", 14, "latitude must be in [-90, 90]"),
        ("-91", "0", 14, "latitude must be in [-90, 90]"),
        ("0", "-500.1", 20, "altitude must be >= -500"),
    ])
    def test_out_of_range_coordinates_are_parse_errors(self, lat, alt, col, message):
        # both lines put the latitude at column 14
        for text in (f"node n3 peer {lat} 0.5 {alt}", f"at 1 move n1 {lat} 0.5 {alt}"):
            with pytest.raises(ScenarioError) as err:
                parse_scenario(MINIMAL + text + "\n")
            assert (err.value.line, err.value.col, err.value.message) == (4, col, message)

    def test_coordinate_range_is_checked_after_the_line_reads(self):
        # a line the tokens already reject keeps that diagnostic
        self.expect_error("mode p2p\nnode n1 peer 95 0 0 deploy=soon\n", 2,
                          "deploy time must be a number")
        self.expect_error(MINIMAL + "at 1 move n1 95 0 0 extra\n", 4, "unexpected token")

    def test_missing_tokens(self):
        self.expect_error("mode p2p\nnode n1 peer 0 0\n", 2, "missing")

    def test_trailing_tokens(self):
        self.expect_error("mode p2p extra\n", 1, "unexpected token")


ids = st.from_regex(r"[a-z][a-z0-9]{0,5}", fullmatch=True)
coords = st.floats(-80.0, 80.0).map(lambda v: round(v, 6))
times = st.floats(0.0, 100.0).map(lambda v: round(v, 3))


@st.composite
def scenarios(draw):
    mode = draw(st.sampled_from(["p2p", "cs"]))
    roles = ["peer"] if mode == "p2p" else ["server", "client"]
    n_nodes = draw(st.integers(2, 6))
    node_ids = draw(st.lists(ids, min_size=n_nodes, max_size=n_nodes, unique=True))
    nodes = []
    for nid in node_ids:
        nodes.append(NodeDecl(nid, draw(st.sampled_from(roles)), draw(coords), draw(coords),
                              draw(st.floats(0.0, 3000.0).map(lambda v: round(v, 2))),
                              draw(st.one_of(st.none(), times))))
    events = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["move", "qkd", "send", "eve"]))
        at = draw(times) + 200.0  # after every deploy time
        if kind == "move":
            events.append(ScenarioEvent(at, "move", (draw(st.sampled_from(node_ids)),
                                                     draw(coords), draw(coords), 100.0)))
        else:
            a, b = draw(st.lists(st.sampled_from(node_ids), min_size=2, max_size=2,
                                 unique=True))
            if kind == "qkd":
                events.append(ScenarioEvent(at, "qkd", (a, b, draw(st.integers(1, 10**6)))))
            elif kind == "send":
                events.append(ScenarioEvent(at, "send", (a, b, draw(st.from_regex(
                    r"[0-9a-f]{0,8}", fullmatch=True)))))
            else:
                events.append(ScenarioEvent(at, "eve", (a, b, draw(st.booleans()))))
    params = {}
    if draw(st.booleans()):
        params["max_range_km"] = float(draw(st.integers(1, 500)))
    if draw(st.booleans()):
        params["min_sift_len"] = draw(st.integers(1, 5000))
    if draw(st.booleans()):
        params["require_los"] = draw(st.booleans())
    return Scenario(mode=mode, seed=draw(st.integers(0, 2**64 - 1)), params=params,
                    nodes=nodes, events=events)


class TestRoundTrip:
    @given(scenarios())
    @settings(max_examples=100)
    def test_format_parse_round_trip(self, sc):
        text = format_scenario(sc)
        again = parse_scenario(text)
        assert again == sc
        assert format_scenario(again) == text

    @given(st.text(max_size=300))
    @settings(max_examples=300)
    def test_parser_is_total(self, text):
        try:
            parse_scenario(text)
        except ScenarioError:
            pass  # diagnostics are the only permitted failure mode

    @given(st.binary(max_size=200))
    @settings(max_examples=200)
    def test_parser_survives_arbitrary_bytes(self, blob):
        try:
            parse_scenario(blob.decode("utf-8", errors="replace"))
        except ScenarioError:
            pass


# Every param a scenario can set must change what a run writes. Each entry
# names a scenario and a valid value other than the one it runs with.
P2P_RELAY = (SCENARIOS / "p2p_relay.soqn").read_text()
# Two ground peers 50 km apart: the Earth's bulge blocks their line of sight.
GROUND_PAIR = """\
mode p2p
node a peer 0 0 0
node b peer 0 0.45 0
at 1 send a b hex:ab
"""
# One 1600-bit send that takes two lazy sessions to cover: one 8192-pulse
# session at 2.8 dB sifts about 2150 bits (sigma 40) and distils about 800,
# and 1600 final bits need a sifted length of at least 3400 (half of it
# disclosed, 100 bits of margin), about 30 sigma above the mean. So with
# max_session_attempts 1 the send fails, and with the default it is
# delivered.
LONG_SEND = f"""\
mode p2p
param detector_efficiency 1.0
param fixed_system_loss_db 0.0
param atm_loss_db_per_km 0.05
param pulses_per_session 8192
node a peer 0 0 500
node b peer 0 0.5 500
at 1 send a b hex:{"ab" * 200}
"""
PARAM_CHANGES = {
    "max_range_km": (P2P_RELAY, 50.0),
    "require_los": (GROUND_PAIR, False),
    "atm_loss_db_per_km": (P2P_RELAY, 0.2),
    "fixed_system_loss_db": (P2P_RELAY, 3.0),
    "noise_prob": (P2P_RELAY, 1e-3),
    "detector_efficiency": (P2P_RELAY, 0.5),
    "intrinsic_error_prob": (P2P_RELAY, 0.03),
    "min_sift_len": (P2P_RELAY, 3000),
    "sample_fraction": (P2P_RELAY, 0.3),
    "qber_abort": (P2P_RELAY, 0.01),
    "f_ec": (P2P_RELAY, 1.3),
    "safety_margin_bits": (P2P_RELAY, 50),
    "pulses_per_session": (P2P_RELAY, 4096),
    "max_session_attempts": (LONG_SEND, 1),
    "precharge_bits": (P2P_RELAY, 256),
    "acquire_delay_s": (P2P_RELAY, 0.5),
}
ARTIFACTS = ("events.log", "report.txt", "records.tsv")


@functools.cache
def run_artifacts(text, name=None, value=None):
    """The artifacts of ``text`` run with ``name`` set to ``value``, the
    scenario going through ``format_scenario`` and the parser."""
    sc = parse_scenario(text)
    if name is not None:
        sc.params[name] = value
    sc = parse_scenario(format_scenario(sc))
    with tempfile.TemporaryDirectory() as out:
        run_scenario(sc, out_dir=out)
        return {a: pathlib.Path(out, a).read_bytes() for a in ARTIFACTS}


def test_join_runs_as_a_deploy_time():
    deploy = (SCENARIOS / "cs_backbone.soqn").read_text()
    join = deploy.replace(" deploy=2.0\n", "\n") + "at 2.0 join c3\n"
    assert join != deploy
    written = []
    for text in (join, deploy):
        with tempfile.TemporaryDirectory() as out:
            run_scenario(parse_scenario(text), out_dir=out)
            written.append({a: pathlib.Path(out, a).read_bytes() for a in ARTIFACTS})
    assert written[0] == written[1]


# A time written -0 reads as 0.0, so no timestamp is written as -0.000000.
MINUS_ZERO = {
    "deploy": "mode p2p\nnode a peer 0 0 100 deploy={t}\nnode b peer 0 0.05 100\n"
              "at 1 qkd a b pulses=4096\n",
    "at": "mode p2p\nnode a peer 0 0 100\nnode b peer 0 0.05 100\n"
          "at {t} qkd a b pulses=4096\nat {t} send a b hex:ab\n",
}


@pytest.mark.parametrize("form", sorted(MINUS_ZERO))
def test_minus_zero_runs_as_time_zero(form):
    minus, plus = (run_artifacts(MINUS_ZERO[form].format(t=t)) for t in ("-0.0", "0"))
    assert minus == plus
    assert b"-0.000000" not in minus["events.log"]


@pytest.mark.parametrize("token", ["-0", "-0.0", "-0e9"])
def test_minus_zero_time_value_is_positive_zero(token):
    assert str(parse_value("time", token)) == "0.0"


def test_param_changes_cover_param_specs():
    assert PARAM_CHANGES.keys() == PARAM_SPECS.keys()


def test_readme_param_table_names_every_param():
    # the table is the paragraph after its caption; names are in backticks
    readme = (SCENARIOS.parent / "README.md").read_text()
    table = readme.partition("Tunable `param` names")[2].split("\n\n")[1]
    assert table.startswith("| group")
    assert set(table.split("`")[1::2]) == PARAM_SPECS.keys()
    # each default, read as a param line reads it, is the model's default
    groups = (ChannelParams, ProtocolParams, LinkFeasibilityParams)
    defaults = {f.name: f.default for group in groups for f in dataclasses.fields(group)}
    defaults.update((name, p.default) for name, p in
                    inspect.signature(Network.__init__).parameters.items())
    table_defaults = re.findall(r"`(\w+)` \(([^;)]+)", table)
    assert sorted(name for name, _ in table_defaults) == sorted(PARAM_SPECS)
    for name, token in table_defaults:
        value = parse_value(name, token)
        assert (value, type(value)) == (defaults[name], type(defaults[name])), name


@pytest.mark.parametrize("name", sorted(PARAM_CHANGES))
def test_every_param_changes_a_run(name):
    text, value = PARAM_CHANGES[name]
    base, changed = run_artifacts(text), run_artifacts(text, name, value)
    assert [a for a in ARTIFACTS if changed[a] == base[a]] == []
