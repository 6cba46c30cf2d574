"""SplitMix64, the fixed portable generator behind every seeded choice here.

Pinning one tiny named generator keeps corpora and seeded orders
bit-reproducible across platforms and implementations:

- state update: state += 0x9E3779B97F4A7C15 (mod 2^64)
- output: z = state; z = (z ^ z>>30) * 0xBF58476D1CE4E5B9;
  z = (z ^ z>>27) * 0x94D049BB133111EB; return z ^ z>>31  (all mod 2^64)
- batched draws: draws(k) is the next k outputs, the same stream as k
  next_u64() calls, computed in packed-integer passes of up to 64 outputs
- shuffle: Fisher-Yates from the last index down, j = next_u64() % (i + 1),
  lazily: the swap at i fixes items[i] for good, so it is yielded then, and
  items[0] comes last; a caller can stop at the first position it rejects
"""

from __future__ import annotations

import sys
from typing import Iterator

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# draws() computes up to _LANES outputs at once in one int: lane i, bits
# 128i..128i+127, holds the i-th state after the current one, so a 64x64-bit
# product stays inside its lane and a mask cuts what a shift carries across
_LANES = 64
_ONES = sum(1 << 128 * i for i in range(_LANES))
_STEPS = sum((i + 1) * _GAMMA << 128 * i for i in range(_LANES))
_LOW64 = _ONES * _MASK64
# a lane's low 64 bits are the even 8-byte words of its little-endian bytes
# and the odd ones, counted from the end, of its big-endian bytes
_LOW_WORDS = slice(None, None, 2) if sys.byteorder == "little" else slice(None, None, -2)


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def draws(self, k: int) -> list[int]:
        """The next k outputs: the same values and the same final state as
        k calls of next_u64()."""
        out: list[int] = []
        state = self.state
        while k > 0:
            m = min(k, _LANES)
            # the low 64 bits of lanes 0..m-1; the first AND drops the rest
            low = _LOW64 >> (_LANES - m) * 128
            z = (state * _ONES + _STEPS) & low
            z = ((z ^ z >> 30) & low) * _MIX1 & low
            z = ((z ^ z >> 27) & low) * _MIX2 & low
            z ^= z >> 31
            words = memoryview(z.to_bytes(m * 16, sys.byteorder)).cast("Q")
            out += words[_LOW_WORDS].tolist()
            state = (state + m * _GAMMA) & _MASK64
            k -= m
        self.state = state
        return out

    def shuffle(self, items: list) -> Iterator:
        """Shuffle ``items`` in place, yielding each position as it is fixed.

        Yields items[len - 1], items[len - 2], ..., items[0] of the final
        list: after k yields, items[len - k:] is final, and only a drained
        shuffle leaves ``items`` fully shuffled.  The first yield takes all
        len - 1 draws from the stream in one batch, drained or not.
        """
        for i, z in zip(range(len(items) - 1, 0, -1), self.draws(len(items) - 1)):
            j = z % (i + 1)
            items[i], items[j] = items[j], items[i]
            yield items[i]
        if items:
            yield items[0]


def rank_permutation(n: int, seed: int) -> tuple[int, ...]:
    """rank[v] = position of vertex v in a seeded shuffle of 0..n-1.

    Ordering vertices by rank yields the seeded scan order of
    ``decide_eds(g, drop_order_seed)``.  The shuffle yields every vertex
    once, as its position becomes final, so the result is a permutation of
    range(n) by construction.
    """
    rank = [0] * n
    # the shuffle yields positions n-1 down to 0 of the shuffled order
    for k, v in enumerate(SplitMix64(seed).shuffle(list(range(n)))):
        rank[v] = n - 1 - k
    return tuple(rank)
