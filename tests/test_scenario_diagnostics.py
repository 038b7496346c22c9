"""The parser's diagnostics against a reference that works out every
token's column up front, as the parser once did.

The parser splits a line with ``str.split()`` and finds a token's column
only when it raises, and it checks a ``send`` payload with a pattern,
decoding it only to word a diagnostic. These tests pin that this changes
no diagnostic: the same (line, col, message) for every defect, and no
column scan or payload decode on a valid line.
"""
import pathlib
import re
import string
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soqn import scenario
from soqn.scenario import ScenarioError, parse_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
TOKEN_RE = re.compile(r"\S+")


class ReferenceLine(scenario._Line):
    """Tokens, columns and value checks worked out eagerly: each token is
    an ``\\S+`` match, its column is the match start + 1, an index past the
    last token gets the last token's column and an empty line column 1.
    A payload's first character that is not a hex digit of either case is
    named as written, and no coordinate range is checked."""

    def __init__(self, number, text):
        self.number = number
        self.tokens, self.cols = [], []
        for m in TOKEN_RE.finditer(text.split("#", 1)[0]):
            self.tokens.append(m.group())
            self.cols.append(m.start() + 1)

    def error(self, index, message):
        col = self.cols[index] if index < len(self.cols) else (self.cols[-1] if self.cols else 1)
        return ScenarioError(self.number, col, message)

    def float_at(self, index, what, prefix=""):
        tok = self.token(index, what)[len(prefix):]
        try:
            v = float(scenario._literal(tok))
        except ValueError:
            raise self.error(index, f"{what} must be a number, got {tok!r}") from None
        if v != v or v in (float("inf"), float("-inf")):
            raise self.error(index, f"{what} must be finite")
        return v

    def hex_at(self, index):
        tok = self.token(index, "hex:<payload>")
        if not tok.startswith("hex:"):
            raise self.error(index, f"expected hex:<hexstring>, got {tok!r}")
        payload = tok[len("hex:"):]
        bad = [c for c in payload if c not in string.hexdigits]
        if bad:
            raise self.error(index, f"invalid hex digit {bad[0]!r}")
        return payload

    def check_position(self, index, lat, alt):
        pass


def outcome(text):
    try:
        return parse_scenario(text)
    except ScenarioError as err:
        return (err.line, err.col, err.message)


def reference_outcome(text, whole=True):
    """The reference's outcome; with ``whole`` False, only the per-line
    checks run, not the checks of the scenario as a whole."""
    with mock.patch.object(scenario, "_Line", ReferenceLine):
        if whole:
            return outcome(text)
        with mock.patch.object(scenario, "_validate", lambda *args: None):
            return outcome(text)


# One line of each form, all valid together.
BASE = [
    "mode p2p",
    "seed 7",
    "param max_range_km 150.0",
    "param require_los false",
    "param min_sift_len 200",
    "node a peer 10.0 20.0 100.0",
    "node b peer 10.0 20.5 100.0 deploy=1.5",
    "node c peer 10.5 20.0 -20 # c rides late",
    "at 2 join c",
    "at 3.0 move a 10.1 20.1 150.0",
    "at 4 qkd a b pulses=4096",
    "at 5 send a b hex:00ff",
    "at 5.5 send b c hex:DeadBeef0123456789abcdef",
    "at 6 eve a b intercept_resend on",
]
SEPARATORS = "\t#\x1c\x1d\x1e\x1f\x85\xa0\u3000 "
NON_ASCII_DIGITS = "\u0663\u0966\uff11"
JUNK = st.text(alphabet="az09-+.=:_e" + NON_ASCII_DIGITS + "\xe9", min_size=1, max_size=4)
NUMBERS = ["90", "-90", "90.5", "-91", "-500", "-500.1", "1e400", "-0", "nan", "inf", "-1",
           "1_0", "0x10", "\u0663"]
BAD_HEX = "gGzx-\xe9\u0660\uff41\u0130\u212a"


@st.composite
def mutated_line(draw, line):
    tokens = line.split(" ")
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "duplicate", "junk", "number", "separator"]))
        i = draw(st.integers(0, len(tokens) - 1)) if tokens else 0
        if op == "drop" and tokens:
            del tokens[i]
        elif op == "duplicate" and tokens:
            tokens.insert(i, tokens[i])
        elif op == "junk" and tokens:
            tokens[i] = draw(JUNK)
        elif op == "number" and tokens:
            tokens[i] = draw(st.sampled_from(NUMBERS))
        elif op == "separator":
            text = " ".join(tokens)
            at = draw(st.integers(0, len(text)))
            sep = draw(st.sampled_from(SEPARATORS + NON_ASCII_DIGITS))
            tokens = (text[:at] + sep + text[at:]).split(" ")
    return " ".join(tokens)


@st.composite
def bad_payload(draw, line):
    """``line``, a send, with bad digits written over its payload."""
    start = line.index("hex:") + len("hex:")
    chars = list(line)
    for _ in range(draw(st.integers(1, 3))):
        chars[draw(st.integers(start, len(chars) - 1))] = draw(st.sampled_from(BAD_HEX))
    return "".join(chars)


@st.composite
def mutated_scenarios(draw):
    lines = list(BASE)
    if draw(st.booleans()):
        i = draw(st.sampled_from([i for i, line in enumerate(BASE) if " send " in line]))
        lines[i] = draw(bad_payload(lines[i]))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(mutated_line(lines[i]))
    return "\n".join(lines) + "\n"


COORDINATE_ERRORS = ("latitude must be in [-90, 90]", "altitude must be >= -500")


def test_base_is_valid():
    assert outcome("\n".join(BASE)) == reference_outcome("\n".join(BASE))
    assert isinstance(outcome("\n".join(BASE)), scenario.Scenario)


@settings(max_examples=600, deadline=None)
@given(mutated_scenarios())
def test_diagnostics_match_the_reference(text):
    got = outcome(text)
    if isinstance(got, tuple) and got[2] in COORDINATE_ERRORS:
        # New: a line whose tokens all read, with a coordinate GeoPosition
        # rejects. The reference passes every line up to this one.
        line, col, _ = got
        value = float(TOKEN_RE.search(text.splitlines()[line - 1], col - 1).group())
        assert value < -500 if got[2].startswith("altitude") else abs(value) > 90
        ref = reference_outcome(text, whole=False)
        assert not isinstance(ref, tuple) or ref[0] > line
    else:
        assert got == reference_outcome(text)


@pytest.mark.parametrize("text", ["", "   ", "\t#x", "mode", "mode  p2p  extra", "a\x1fb c",
                                  "x\u3000y\x85z", "#only a comment"])
@pytest.mark.parametrize("index", [0, 1, 2, 5])
def test_column_rule_matches_the_reference(text, index):
    assert scenario._Line(1, text).error(index, "m").col == ReferenceLine(1, text).error(
        index, "m").col


def test_split_agrees_with_the_token_pattern_on_every_code_point():
    differ = [c for c in range(sys.maxunicode + 1)
              if f"a{chr(c)}b".split() != TOKEN_RE.findall(f"a{chr(c)}b")]
    assert differ == []


# 400 peers on a 20 x 20 grid and 56 sends of 256 hex digits each
GRID = "".join(["mode p2p\nseed 5\n"]
               + [f"node n{i} peer {i // 20 * 0.3:.1f} {i % 20 * 0.3:.1f} 100\n"
                  for i in range(400)]
               + [f"at {k + 1} send n{k} n{399 - k} hex:{'0123456789abcdef' * 16}\n"
                  for k in range(56)])


@pytest.fixture
def calls(monkeypatch):
    """Counts of the column scan and the payload decode during the test."""
    counts = {"_column": 0, "bits_from_hex": 0}
    for name in counts:
        real = getattr(scenario, name)

        def counted(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(scenario, name, counted)
    return counts


@pytest.mark.parametrize("text", [(SCENARIOS / "p2p_relay.soqn").read_text(),
                                  (SCENARIOS / "cs_backbone.soqn").read_text(), GRID],
                         ids=["p2p_relay", "cs_backbone", "grid400"])
def test_a_valid_scenario_scans_no_column_and_decodes_no_payload(calls, text):
    parse_scenario(text)
    assert calls == {"_column": 0, "bits_from_hex": 0}


@pytest.mark.parametrize("bad,col,message,decodes", [
    ("at 60 send n1 n2 hex:00g0", 18, "invalid hex digit 'g'", 1),
    ("at 60 send n1 n2 hex:00G1", 18, "invalid hex digit 'G'", 1),
    ("at 60 send n1 n2 hex:0\u01301", 18, "invalid hex digit '\u0130'", 1),
    ("at 60 move n1 91 0 100", 15, "latitude must be in [-90, 90]", 0),
    ("at 60 qkd n1 n2 pulses=0", 17, "pulses must be in [1, 2**63 - 1]", 0),
])
def test_one_bad_line_scans_its_columns_once(calls, bad, col, message, decodes):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(GRID + bad + "\n")
    assert (err.value.line, err.value.col, err.value.message) == (459, col, message)
    assert calls == {"_column": 1, "bits_from_hex": decodes}
