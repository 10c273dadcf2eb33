"""Deterministic 64-bit PRNG used for shuffling and seed derivation.

The protocol split's per-class shuffles, the sweep harness's cell seeds
and the BETA hybrid's fixed SGD epoch order all flow through this module,
so that runs are bit-identical across platforms and library versions.
The generator is the splitmix64 sequence: state advances by the
golden-ratio increment and the output is the standard 30/27/31
xor-multiply finalizer. randbelow holds the one rejection rule, which
a shuffle with a rejected draw runs through. Every seed the package
takes is refused outside [0, 2**64) by check_seed, with one message.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1, _MUL2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
# mix64's shifts and multipliers as uint64 scalars for SplitMix64.shuffle's
# arrays; a Python int operand would be converted again on every call
_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)
_U_MUL1, _U_MUL2 = np.uint64(_MUL1), np.uint64(_MUL2)


def mix64(z: int) -> int:
    """splitmix64 finalizer: avalanching bijection on 64-bit ints."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(*parts: int) -> int:
    """Fold integer key parts into a single 64-bit seed.

    h_0 = 0, h_{i+1} = mix64(h_i + GOLDEN + part_i). Order-sensitive, so
    (sweep seed, lambda index, count index) and (sweep seed, count index,
    lambda index) differ.
    """
    h = 0
    for p in parts:
        h = mix64((h + _GOLDEN + (int(p) & _MASK64)) & _MASK64)
    return h


def check_seed(seed: int) -> int:
    """seed, if it lies in [0, 2**64), the seeds derive_seed tells apart."""
    if not 0 <= seed <= _MASK64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


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
        """In-place Fisher-Yates shuffle: swaps seq[i] with
        seq[randbelow(i + 1)] for i from the end down to 1. The draws are
        mixed at once as a uint64 array (numpy wraps mod 2**64), step p's
        from the state plus (p + 1) * golden; if any is above randbelow's
        limit, the shuffle calls randbelow step by step instead."""
        offsets, sizes, limits = _shuffle_tables(len(seq))
        z = offsets + np.uint64(self._state)
        z ^= z >> _U30
        z *= _U_MUL1
        z ^= z >> _U27
        z *= _U_MUL2
        z ^= z >> _U31
        if (z > limits).any():
            draws = [self.randbelow(n) for n in range(len(seq), 1, -1)]
        else:
            draws = (z % sizes).tolist()
            self._state = (self._state + sizes.size * _GOLDEN) & _MASK64
        for i, j in zip(range(len(seq) - 1, 0, -1), draws):
            seq[i], seq[j] = seq[j], seq[i]


@lru_cache(maxsize=64)
def _shuffle_tables(length: int) -> tuple:
    """(offsets, sizes, limits) of a Fisher-Yates shuffle of length items,
    as uint64 arrays over its length - 1 steps: (p + 1) * golden mod 2**64,
    the n = length - p that step p draws below, and randbelow(n)'s
    largest accepted draw. The cache hands the same arrays to every
    caller, so they are read-only."""
    sizes = np.arange(length, 1, -1, dtype=np.uint64)
    offsets = np.arange(1, sizes.size + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    # 2**64 mod n is (mask mod n + 1) mod n, whose sum cannot wrap
    limits = np.uint64(_MASK64) - (np.uint64(_MASK64) % sizes + np.uint64(1)) % sizes
    for table in (offsets, sizes, limits):
        table.flags.writeable = False
    return offsets, sizes, limits
