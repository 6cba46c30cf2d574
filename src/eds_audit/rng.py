"""SplitMix64, the fixed portable generator behind every seeded choice here.

Pinning one tiny named generator keeps corpora and seeded orders
bit-reproducible across platforms and implementations:

- state update: state += 0x9E3779B97F4A7C15 (mod 2^64)
- output: z = state; z = (z ^ z>>30) * 0xBF58476D1CE4E5B9;
  z = (z ^ z>>27) * 0x94D049BB133111EB; return z ^ z>>31  (all mod 2^64)
- shuffle: Fisher-Yates from the last index down, j = next_u64() % (i + 1),
  lazily: the swap at i fixes items[i] for good, so it is yielded then, and
  items[0] comes last; a caller can stop at the first position it rejects,
  and the draws are computed in packed-integer blocks of up to 16 outputs,
  a block at a time as positions need them
- speed: a block of m outputs reads the one row of m-lane constants built
  at import (_WIDTHS[m]), and a shuffle step counts the position down over
  its block's draws, swaps through one temporary and yields that temporary
"""

from __future__ import annotations

import struct
from typing import Iterator

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# _block computes up to _LANES outputs at once in one int: lane i, bits
# 128i..128i+127, holds the i-th state after the current one, so a 64x64-bit
# product stays inside its lane and a mask cuts what a shift carries across
_LANES = 16


def _width(m: int) -> tuple:
    """_block's constants for m lanes: the low 64 bits of each lane, a 1 in
    each lane, lane i's step (i + 1) * _GAMMA, the unpacker of the lanes' low
    64 bits from their little-endian bytes, the byte count, and the state
    advance."""
    ones = sum(1 << 128 * i for i in range(m))
    steps = sum((i + 1) * _GAMMA << 128 * i for i in range(m))
    return (ones * _MASK64, ones, steps, struct.Struct("<" + "Q8x" * m).unpack,
            16 * m, m * _GAMMA)


# _WIDTHS[m]: _width(m), built once here so a block reads one row
_WIDTHS = [_width(m) for m in range(_LANES + 1)]


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

    def _block(self, m: int) -> tuple[int, ...]:
        """The next m <= _LANES outputs, in one packed pass."""
        low, ones, steps, unpack, size, advance = _WIDTHS[m]
        state = self.state
        z = (state * ones + steps) & low
        self.state = (state + advance) & _MASK64
        z = ((z ^ z >> 30) & low) * _MIX1 & low
        z = ((z ^ z >> 27) & low) * _MIX2 & low
        return unpack((z ^ z >> 31).to_bytes(size, "little"))

    def shuffle(self, items: list) -> Iterator:
        """Shuffle ``items`` in place, yielding each position as it is fixed.

        Yields items[len - 1], items[len - 2], ..., items[0] of the final
        list: after k yields, items[len - k:] is final, and only a drained
        shuffle leaves ``items`` fully shuffled.  The draws come from
        ``_block`` as positions need them, so ``state`` moves a block at a
        time: a drained shuffle leaves it as len - 1 next_u64() calls would,
        one stopped early only past the blocks it began.
        """
        # k counts the positions not yet fixed; the draw for position k - 1
        # is taken mod k, and the item swapped there is yielded
        k = len(items)
        while k > 1:
            for z in self._block(min(k - 1, _LANES)):
                j = z % k
                k -= 1
                item = items[j]
                items[j] = items[k]
                items[k] = item
                yield item
        if items:
            yield items[0]


def rank_permutation(n: int, seed: int) -> tuple[int, ...]:
    """rank[v] = position of vertex v in a seeded shuffle of 0..n-1.

    The tests relabel a graph by it, vertex v becoming rank[v], to scan it
    in a seeded order: ``decide_eds`` scans in ascending id only.  No CLI
    path calls it; it stays because ``bench/spans.py`` wraps
    ``rng.rank_permutation`` by name, and can move to the tests when that
    span goes.  The shuffle yields every vertex once, as its position
    becomes final, so the result is a permutation of range(n) by
    construction.
    """
    rank = [0] * n
    # the shuffle yields positions n-1 down to 0 of the shuffled order
    for k, v in enumerate(SplitMix64(seed).shuffle(list(range(n)))):
        rank[v] = n - 1 - k
    return tuple(rank)
