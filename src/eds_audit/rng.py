"""SplitMix64, the fixed portable generator behind every seeded choice here.

Pinning one tiny named generator keeps corpora and seeded orders
bit-reproducible across platforms and implementations:

- state update: state += 0x9E3779B97F4A7C15 (mod 2^64)
- output: z = state; z = (z ^ z>>30) * 0xBF58476D1CE4E5B9;
  z = (z ^ z>>27) * 0x94D049BB133111EB; return z ^ z>>31  (all mod 2^64)
- bounded draw: next_u64() % bound
- shuffle: Fisher-Yates from the last index down, j = randbelow(i + 1),
  lazily: the swap at i fixes items[i] for good, so it is yielded then, and
  items[0] comes last; a caller can stop at the first position it rejects
"""

from __future__ import annotations

from typing import Iterator

_MASK64 = (1 << 64) - 1


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randbelow(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def shuffle(self, items: list) -> Iterator:
        """Shuffle ``items`` in place, yielding each position as it is fixed.

        Yields items[len - 1], items[len - 2], ..., items[0] of the final
        list: after k yields, items[len - k:] is final.  Only a drained
        shuffle leaves ``items`` fully shuffled and advances the stream (by
        len - 1 draws); one abandoned early leaves the stream untouched.
        """
        # next_u64() % (i + 1) inlined on a local copy of the state, written
        # back once: same draws, no method calls per swap
        state = self.state
        for i in range(len(items) - 1, 0, -1):
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            j = (z ^ (z >> 31)) % (i + 1)
            items[i], items[j] = items[j], items[i]
            yield items[i]
        self.state = state
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
