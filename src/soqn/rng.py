"""Label-keyed deterministic random streams.

Every stream is a Philox bit generator keyed by ``(global_seed, label)``:
its 128-bit key is the first 16 bytes of SHA-256(seed as 8 little-endian
bytes || label as UTF-8) and its counter starts at 0. Philox is a keyed
counter-based generator (Salmon et al., SC'11), so streams with distinct
labels are statistically independent and adding a stream never perturbs
draws on any existing label. This is what makes whole-simulation replay and
per-session regression tests possible.
"""
from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# A seed is written as 8 little-endian bytes ahead of the label it keys.
MAX_SEED = 2**64 - 1

# numpy's Generator.hypergeometric takes ngood and nbad below this.
HYPERGEOMETRIC_LIMIT = 10**9

_WORDS = (np.dtype("<u4"), np.dtype("<u8"))


class _DigestKey(ISeedSequence):
    """A numpy seed sequence that hands out the words of a digest as they
    are, with no mixing: ``Philox`` asks for two uint64 words and gets the
    digest's first 16 bytes, read little-endian, as its key."""

    __slots__ = ("_digest",)

    def __init__(self, digest: bytes):
        self._digest = digest

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        """The first ``n_words`` little-endian uint32 or uint64 words of the
        digest; ValueError for any other dtype or for more words than the
        digest holds."""
        words = np.dtype(dtype).newbyteorder("<")
        if words not in _WORDS:
            raise ValueError(f"words must be uint32 or uint64, not {np.dtype(dtype)}")
        if not 0 <= n_words * words.itemsize <= len(self._digest):
            raise ValueError(f"a {len(self._digest)}-byte digest holds no {n_words} "
                             f"{np.dtype(dtype)} words")
        return np.frombuffer(self._digest, words, count=n_words)


class RandomStream:
    """Deterministic random stream keyed by ``(seed, label)``.

    The same (seed, label) pair and the same sequence of calls always
    reproduce the same draws, on any host.
    """

    __slots__ = ("seed", "label", "_gen")

    def __init__(self, seed: int, label: str):
        if not 0 <= seed <= MAX_SEED:
            raise ValueError("seed must be in [0, 2**64 - 1]")
        self.seed = seed
        self.label = label
        digest = hashlib.sha256(seed.to_bytes(8, "little") + label.encode("utf-8")).digest()
        self._gen = np.random.Generator(np.random.Philox(_DigestKey(digest)))

    def uniforms(self, n: int) -> np.ndarray:
        """n i.i.d. uniform floats in [0, 1)."""
        return self._gen.random(n)

    def uniform(self) -> float:
        return float(self._gen.random())

    def binomial(self, n: int, p: float) -> int:
        """The number of successes in n independent trials of probability p,
        as one draw."""
        return int(self._gen.binomial(n, p))

    def hypergeometric(self, ngood: int, nbad: int, nsample: int) -> int:
        """The number of good items among ``nsample`` drawn without
        replacement from ``ngood`` good and ``nbad`` bad ones, as one draw
        (also when ``ngood`` is 0).

        numpy requires ``ngood`` and ``nbad`` below 10**9; beyond that this
        raises ValueError before drawing. A QKD session draws its sample's
        errors this way, so its sifted key must hold fewer than 10**9
        errors and fewer than 10**9 correct bits."""
        if ngood >= HYPERGEOMETRIC_LIMIT or nbad >= HYPERGEOMETRIC_LIMIT:
            raise ValueError(
                f"sifted key too long for the error sample draw: {ngood} errors and "
                f"{nbad} correct bits, each must be below 10**9 (numpy's hypergeometric limit)")
        return int(self._gen.hypergeometric(ngood, nbad, nsample))

    def bits(self, n: int) -> np.ndarray:
        """n independent fair bits as uint8.

        The top bit of each of the first n bytes of the Philox stream, read
        little-endian: the same bits, and the same stream state afterwards,
        as ``Generator.bytes(n)``, without its per-call overhead.

        ``Generator.bytes(n)`` draws ceil(n / 4) 32-bit words. numpy splits
        each 64-bit Philox output into two such words, low half first, and
        buffers the high half until the next 32-bit draw. So a half word
        pending from an earlier draw comes first, and a last word that is a
        low half leaves its high half pending. Those two words are drawn
        through numpy's buffer; the whole outputs between them come from
        ``random_raw``, which bypasses it. ``Generator.bytes(0)`` would
        still consume a word, so n == 0 draws nothing.
        """
        if n == 0:
            return np.empty(0, dtype=np.uint8)
        bitgen = self._gen.bit_generator
        words = (n + 3) // 4  # the 32-bit words Generator.bytes(n) draws
        buf = b""
        if bitgen.state["has_uint32"]:
            buf = self._buffered_word()
            words -= 1
        buf += bitgen.random_raw(words // 2).astype("<u8", copy=False).tobytes()
        if words % 2:
            buf += self._buffered_word()
        return np.frombuffer(buf, np.uint8, count=n) >> 7

    def _buffered_word(self) -> bytes:
        """One 32-bit word through numpy's half-word buffer, as 4
        little-endian bytes."""
        return int(self._gen.integers(0, 2**32, dtype=np.uint32)).to_bytes(4, "little")

    def bit(self) -> int:
        return int(self._gen.integers(0, 2))

    def permutation(self, n: int) -> np.ndarray:
        """A uniformly random permutation of range(n)."""
        return self._gen.permutation(n)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RandomStream(seed={self.seed}, label={self.label!r})"
