"""Hex conversion of bitstrings: digits expand to 4 bits, most significant first."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from soqn.bitops import bits_from_hex, hex_from_bits


def _bits(text):
    return np.array([int(c) for c in text], dtype=np.uint8)


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
