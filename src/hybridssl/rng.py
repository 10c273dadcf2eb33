"""Deterministic 64-bit PRNG used for shuffling and seed derivation.

All stochastic order inside the trainer (SGD epoch order) and all seed
derivation in the sweep harness flow through this module so that runs are
bit-identical across platforms and library versions. The generator is the
splitmix64 sequence: state advances by the golden-ratio increment and the
output is the standard 30/27/31 xor-multiply finalizer.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """splitmix64 finalizer: avalanching bijection on 64-bit ints."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(*parts: int) -> int:
    """Fold integer key parts into a single 64-bit seed.

    h_0 = 0, h_{i+1} = mix64(h_i + GOLDEN + part_i). Order-sensitive, so
    (seed, outer_iter, epoch) and (seed, epoch, outer_iter) differ.
    """
    h = 0
    for p in parts:
        h = mix64((h + _GOLDEN + (int(p) & _MASK64)) & _MASK64)
    return h


def seed_in_range(seed: int) -> bool:
    """Whether seed lies in [0, 2**64), the seeds derive_seed tells apart."""
    return 0 <= seed <= _MASK64


class SplitMix64:
    """Sequential splitmix64 stream seeded by a 64-bit value."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, bias-free."""
        if n <= 0:
            raise ValueError("randbelow requires n > 0")
        limit = _MASK64 - (_MASK64 + 1) % n
        while True:
            u = self.next_u64()
            if u <= limit:
                return u % n

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle.

        Swaps seq[i] with seq[randbelow(i + 1)] for i from the end down to
        1. next_u64, mix64 and randbelow are written out on local integers,
        so each draw costs no method call; the permutation and the final
        state are those of the calls.
        """
        mask, golden = _MASK64, _GOLDEN
        state = self._state
        for i in range(len(seq) - 1, 0, -1):
            n = i + 1
            limit = mask - (mask + 1) % n
            while True:
                state = (state + golden) & mask
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
                z ^= z >> 31
                if z <= limit:
                    break
            j = z % n
            seq[i], seq[j] = seq[j], seq[i]
        self._state = state
