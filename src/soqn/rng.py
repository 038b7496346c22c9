"""Label-keyed deterministic random streams.

Every stream is derived from ``(global_seed, label)`` through a counter-based
bit generator, so streams with distinct labels are statistically independent
and adding a stream never perturbs draws on any existing label. This is what
makes whole-simulation replay and per-session regression tests possible.
"""
from __future__ import annotations

import hashlib
import struct

import numpy as np

# A seed is one of the 64-bit words of the stream's SeedSequence entropy.
MAX_SEED = 2**64 - 1

# numpy's Generator.hypergeometric takes ngood and nbad below this.
HYPERGEOMETRIC_LIMIT = 10**9


def _entropy(seed: int, label: str) -> np.ndarray:
    """The stream's SeedSequence entropy: the 64-bit words ``[seed, w0, w1,
    w2, w3]`` as 32-bit words, the wi being the label's SHA-256 digest read
    as four little-endian 64-bit words.

    Each 64-bit word becomes its low 32 bits, then its high 32 bits, and
    the high half is dropped when it is 0. That is how SeedSequence coerces
    a Python int, so this array gives the Philox key that the list of ints
    gives, without SeedSequence coercing the ints one by one.
    """
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    halves = struct.unpack("<10I", seed.to_bytes(8, "little") + digest)
    return np.array([h for i, h in enumerate(halves) if h or i % 2 == 0], dtype=np.uint32)


class RandomStream:
    """Deterministic random stream keyed by ``(seed, label)``.

    The same (seed, label) pair and the same sequence of calls always
    reproduce the same draws, on any host. ``position`` counts scalar draws
    made so far.
    """

    __slots__ = ("seed", "label", "position", "_gen")

    def __init__(self, seed: int, label: str):
        if not 0 <= seed <= MAX_SEED:
            raise ValueError("seed must be in [0, 2**64 - 1]")
        self.seed = seed
        self.label = label
        self.position = 0
        bitgen = np.random.Philox(np.random.SeedSequence(_entropy(seed, label)))
        self._gen = np.random.Generator(bitgen)

    def uniforms(self, n: int) -> np.ndarray:
        """n i.i.d. uniform floats in [0, 1)."""
        self.position += n
        return self._gen.random(n)

    def uniform(self) -> float:
        self.position += 1
        return float(self._gen.random())

    def binomial(self, n: int, p: float) -> int:
        """The number of successes in n independent trials of probability p,
        as one draw."""
        self.position += 1
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
        self.position += 1
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
        self.position += n
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
        self.position += 1
        return int(self._gen.integers(0, 2))

    def permutation(self, n: int) -> np.ndarray:
        """A uniformly random permutation of range(n)."""
        self.position += n
        return self._gen.permutation(n)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RandomStream(seed={self.seed}, label={self.label!r}, position={self.position})"
