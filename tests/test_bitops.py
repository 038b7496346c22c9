"""Bitstrings: hex conversion (digits expand to 4 bits, most significant first)
and the check that every element of a bitstring is 0 or 1."""
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from soqn.network import as_bits, hex_from_bits, xor_bits
from soqn.scenario import bits_from_hex

from test_network import make_network


def _bits(text):
    return np.array([int(c) for c in text], dtype=np.uint8)


# The table-based converters that bits_from_hex and hex_from_bits replaced,
# kept as a reference.
_REF_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_REF_VALUE = np.full(256, 16, dtype=np.uint8)
_REF_VALUE[_REF_DIGITS] = np.arange(16, dtype=np.uint8)
_REF_VALUE[np.frombuffer(b"ABCDEF", dtype=np.uint8)] = np.arange(10, 16, dtype=np.uint8)
_REF_NIBBLE_BITS = np.unpackbits(np.arange(16, dtype=np.uint8)[:, None], axis=1)[:, 4:].copy()


def reference_digit_values(text):
    """Each character's digit value in the reference table; 16 if none."""
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    return _REF_VALUE.take(codes, mode="clip")


def reference_bits_from_hex(text):
    values = reference_digit_values(text)
    bad = values > 15
    if bad.any():
        raise ValueError(f"invalid hex digit {text[int(bad.argmax())]!r}")
    return _REF_NIBBLE_BITS.take(values, axis=0).ravel()


def reference_hex_from_bits(bits):
    arr = as_bits(bits)
    if len(arr) % 4 != 0:
        raise ValueError("bit length must be a multiple of 4")
    values = np.packbits(arr.reshape(-1, 4), axis=1)[:, 0] >> 4
    return _REF_DIGITS[values].tobytes().decode("ascii")


def outcome(fn, arg):
    """What ``fn(arg)`` gives: ("ok", value) or ("error", message); an
    array value as its dtype and list."""
    try:
        value = fn(arg)
    except ValueError as exc:
        return "error", str(exc)
    if isinstance(value, np.ndarray):
        return "ok", value.dtype, value.tolist()
    return "ok", value


HEX_TEXT = st.text(alphabet="0123456789abcdefABCDEF", max_size=300)
# Whitespace that bytes.fromhex skips or str.split splits on, non-ASCII
# digits and letters, a character whose lower case is two code points, and
# lone surrogates.
STRAY = st.one_of(
    st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000gGxX-+.İ١０ａＦ"),
    st.characters(codec="utf-8"),
    st.integers(0xD800, 0xDFFF).map(chr),
)


class TestHex:
    @pytest.mark.parametrize("text, bits", [
        ("", ""),
        ("0", "0000"),
        ("f", "1111"),
        ("a5", "10100101"),
        ("0123456789abcdef",
         "0000000100100011010001010110011110001001101010111100110111101111"),
    ])
    def test_digit_expansion(self, text, bits):
        got = bits_from_hex(text)
        assert got.dtype == np.uint8
        assert np.array_equal(got, _bits(bits))
        assert hex_from_bits(got) == text

    def test_upper_case_reads_as_lower(self):
        assert np.array_equal(bits_from_hex("DeadBEEF"), bits_from_hex("deadbeef"))
        assert hex_from_bits(bits_from_hex("DeadBEEF")) == "deadbeef"

    @given(st.text(alphabet="0123456789abcdef", max_size=300))
    def test_round_trip_from_hex(self, text):
        assert hex_from_bits(bits_from_hex(text)) == text

    @given(st.lists(st.integers(0, 1), max_size=100).map(lambda b: b[: len(b) // 4 * 4]))
    def test_round_trip_from_bits(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        assert np.array_equal(bits_from_hex(hex_from_bits(arr)), arr)

    @pytest.mark.parametrize("text, bad", [
        ("xyz", "x"), ("12g4", "g"), ("ab cd", " "), ("0x10", "x"),
        ("abĀ", "Ā"), ("a\ud800", "\ud800"), ("00G1", "G"), ("0İ1", "İ"),
    ])
    def test_invalid_digit_names_first_bad_character(self, text, bad):
        with pytest.raises(ValueError, match="invalid hex digit") as info:
            bits_from_hex(text)
        assert str(info.value) == f"invalid hex digit {bad!r}"

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_bad_length(self, n):
        with pytest.raises(ValueError, match="multiple of 4"):
            hex_from_bits(np.zeros(n, dtype=np.uint8))

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError, match="only 0 and 1"):
            hex_from_bits(np.array([0, 2, 0, 1], dtype=np.uint8))


class TestAgainstTheReference:
    @given(HEX_TEXT)
    def test_valid_text_gives_the_reference_bits(self, text):
        got, want = bits_from_hex(text), reference_bits_from_hex(text)
        assert got.dtype == np.uint8 and got.shape == want.shape == (4 * len(text),)
        assert np.array_equal(got, want)

    @given(HEX_TEXT, st.lists(st.tuples(st.integers(0, 300), STRAY), min_size=1, max_size=3))
    def test_bad_text_names_the_reference_digit(self, text, strays):
        for at, char in strays:
            text = text[:at] + char + text[at:]
        assert outcome(bits_from_hex, text) == outcome(reference_bits_from_hex, text)

    def test_every_code_point_alone_gives_the_reference_outcome(self):
        # One reference call per code point would take seconds, so the
        # reference table is read once for all of them: the reference
        # itself runs on the digits it accepts, and on any other character
        # it raises naming that character.
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        differ = []
        for char, value in zip(every, reference_digit_values(every).tolist()):
            want = (outcome(reference_bits_from_hex, char) if value < 16
                    else ("error", f"invalid hex digit {char!r}"))
            if outcome(bits_from_hex, char) != want:
                differ.append(char)
        assert differ == []
        for char in "g \u0130\ud800\U0010ffff":
            assert outcome(reference_bits_from_hex, char) == ("error", f"invalid hex digit {char!r}")

    @given(st.lists(st.integers(0, 1), max_size=300))
    def test_bits_give_the_reference_text_or_error(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        assert outcome(hex_from_bits, arr) == outcome(reference_hex_from_bits, arr)


def _send(value):
    _, net = make_network("p2p", [("a", "peer", 0.0, 0.0, 200.0), ("b", "peer", 0.0, 0.5, 200.0)])
    return net.send_message("a", "b", value)


# Every entry that checks its bits with as_bits: the bit helpers and the
# key plane's one entry for bits, a message.
_CHECKED = pytest.mark.parametrize("op", [
    as_bits, hex_from_bits, lambda v: xor_bits(v, v), _send,
], ids=["as_bits", "hex_from_bits", "xor_bits", "send_message"])


class TestAsBits:
    """Only elements of a bool, integer or float dtype that equal 0 or 1
    pass: they are checked before the cast to uint8, which would wrap or
    truncate them, or drop an imaginary part."""

    @pytest.mark.parametrize("value", [
        [0.7, 1.2], np.array([256, 257]), [0.5], np.array([np.nan]), [256], [-1], [2],
        np.array([0, 1, 2], dtype=np.uint8),
    ], ids=repr)
    @_CHECKED
    def test_values_other_than_0_and_1_refused(self, op, value):
        with pytest.raises(ValueError, match="^bitstrings may contain only 0 and 1$"):
            op(value)

    @pytest.mark.parametrize("value", [[1 + 0j], np.array([1j]), np.array([0, 1], dtype=object)],
                             ids=repr)
    @_CHECKED
    def test_dtypes_other_than_bool_integer_or_float_refused(self, op, value):
        # under the suite's filterwarnings = error, a ComplexWarning from the
        # cast would fail this test rather than pass as the ValueError
        with pytest.raises(ValueError, match="^bitstrings must be bool, integer or float, not "):
            op(value)

    @pytest.mark.parametrize("value, bits", [
        (np.array([1.0, 0.0]), [1, 0]), ([1, 0, 1], [1, 0, 1]), ([True, False], [1, 0]),
        ([], []), (np.array([0, 1], dtype=np.int64), [0, 1]),
    ], ids=repr)
    def test_0_and_1_of_any_dtype_accepted_as_uint8(self, value, bits):
        got = as_bits(value)
        assert got.dtype == np.uint8 and got.tolist() == bits

    def test_uint8_bits_are_returned_as_they_are(self):
        bits = np.array([0, 1, 1], dtype=np.uint8)
        assert as_bits(bits) is bits

    @pytest.mark.parametrize("value", [[[0, 1]], 1, np.zeros((2, 2), dtype=np.uint8)], ids=repr)
    def test_not_one_dimensional_refused(self, value):
        with pytest.raises(ValueError, match="one-dimensional"):
            as_bits(value)
