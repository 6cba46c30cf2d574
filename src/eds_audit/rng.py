"""SplitMix64, the fixed portable generator behind every seeded choice here.

Pinning one tiny named generator keeps corpora and seeded orders
bit-reproducible across platforms and implementations:

- state update: state += 0x9E3779B97F4A7C15 (mod 2^64)
- output: z = state; z = (z ^ z>>30) * 0xBF58476D1CE4E5B9;
  z = (z ^ z>>27) * 0x94D049BB133111EB; return z ^ z>>31  (all mod 2^64)
- bounded draw: next_u64() % bound
- shuffle: Fisher-Yates from the last index down, j = randbelow(i + 1)
"""

from __future__ import annotations

from functools import lru_cache

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

    def shuffle(self, items: list) -> None:
        # next_u64() % (i + 1) inlined on a local copy of the state, written
        # back once: same draws, no method calls per swap
        state = self.state
        for i in range(len(items) - 1, 0, -1):
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            j = (z ^ (z >> 31)) % (i + 1)
            items[i], items[j] = items[j], items[i]
        self.state = state


@lru_cache(maxsize=1024)
def rank_permutation(n: int, seed: int) -> tuple[int, ...]:
    """rank[v] = position of vertex v in a seeded shuffle of 0..n-1.

    Ordering vertices by rank yields the seeded scan order used by the
    order-sensitivity audits.  A sweep asks for the same few (n, seed) pairs
    once per graph, so results are cached; a tuple, so no caller can change
    a cached order.
    """
    order = list(range(n))
    SplitMix64(seed).shuffle(order)
    rank = [0] * n
    for pos, v in enumerate(order):
        rank[v] = pos
    return tuple(rank)
