"""The trusted relay's one-time-pad algebra, kept as the reference for what
the key plane's counts stand for.

The network spends one block of key per hop and logs each relay's broadcast
by its length alone. These functions hold what the blocks would carry as
bits: the sender's ciphertext is the message XOR the first hop's block,
each interior node publishes the XOR of its two hop blocks, and the
receiver folds the ciphertext with every published XOR and its own block.
The XORs telescope, so the fold is the message again.
"""
import numpy as np


def relay_xors(hop_keys):
    """The XOR each interior node publishes: its two hop blocks, in path order."""
    return [np.bitwise_xor(k_prev, k_next) for k_prev, k_next in zip(hop_keys, hop_keys[1:])]


def unwind(ciphertext, receiver_key, xors):
    """C xor K_receiver xor each relay XOR: the receiver's side of a send."""
    out = np.bitwise_xor(ciphertext, receiver_key)
    for xor in xors:
        out = np.bitwise_xor(out, xor)
    return out


def relay_chain_oracle(message, hop_keys):
    """Brute-force check: xor everything public plus the receiver key."""
    out = np.bitwise_xor(message, hop_keys[0])  # the ciphertext
    for k_prev, k_next in zip(hop_keys, hop_keys[1:]):
        out = np.bitwise_xor(out, np.bitwise_xor(k_prev, k_next))
    return np.bitwise_xor(out, hop_keys[-1])
