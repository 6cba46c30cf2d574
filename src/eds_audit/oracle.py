"""Independent exact solver for efficient domination, used as ground truth.

Shares nothing with the reduction module beyond the graph type and
verification semantics, so the cross-check stays meaningful.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import CapacityError
from .graph import Graph, is_regular

DEFAULT_MAX_N = 128


class OracleReport(NamedTuple):
    """Exact-solver outcome: verdict, solutions, and search effort."""

    has_eds: bool
    solutions: tuple[frozenset[int], ...]
    nodes_explored: int

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "solutions": [sorted(s) for s in self.solutions]}


def _closed_masks(g: Graph) -> list[int]:
    masks = []
    for v in range(g.n):
        m = 1 << v
        for u in g.adj[v]:
            m |= 1 << u
        masks.append(m)
    return masks


def _sorted_solutions(found: list[frozenset[int]]) -> tuple[frozenset[int], ...]:
    return tuple(sorted(found, key=lambda s: tuple(sorted(s))))


def _conflict_masks(g: Graph, masks: list[int]) -> list[int]:
    """conflict[x] = union of masks[u] over u in N[x]: exactly the vertices y
    whose closed neighborhood meets N[x], in any simple graph."""
    conflict = []
    for x in range(g.n):
        c = 0
        for u in g.closed_adj[x]:
            c |= masks[u]
        conflict.append(c)
    return conflict


def solve_exact(g: Graph, enumerate_all: bool = False, *, max_n: int | None = None
                ) -> OracleReport:
    """Exact-cover backtracking over closed neighborhoods.

    Picks the uncovered vertex with the fewest remaining covers (ties to the
    smallest id) and branches on each candidate whose closed neighborhood
    still fits inside the uncovered set.  Finds one solution, or all of them
    with ``enumerate_all``.
    """
    cap = DEFAULT_MAX_N if max_n is None else max_n
    if g.n == 0:
        raise ValueError("oracle requires a nonempty graph")
    if g.n > cap:
        raise CapacityError(f"n={g.n} exceeds the oracle size guard {cap}")

    r = is_regular(g)
    if r is not None and g.n % (r + 1):
        # divisibility failure alone proves no EDS exists
        return OracleReport(False, (), 0)

    masks = _closed_masks(g)
    conflict = _conflict_masks(g, masks)
    found: list[frozenset[int]] = []
    # one frame per open search node: its uncovered mask, its avail mask (the
    # vertices whose closed neighborhood still lies inside the uncovered set)
    # and an iterator over its branch candidates; chosen[i] is the branch
    # frame i currently takes
    stack: list[tuple[int, int, Iterator[int]]] = []
    chosen: list[int] = []
    nodes = 0
    uncovered = avail = (1 << g.n) - 1
    while True:
        nodes += 1
        if not uncovered:
            found.append(frozenset(chosen))
            if not enumerate_all:
                break
        else:
            # the covers of the uncovered vertex with the fewest of them (ties
            # to the smallest id); none if some uncovered vertex has no cover
            best = 0
            fewest = g.n + 1
            m = uncovered
            while m:
                low = m & -m
                m ^= low
                covers = masks[low.bit_length() - 1] & avail
                if not covers:
                    best = 0
                    break
                count = covers.bit_count()
                if count < fewest:
                    best, fewest = covers, count
                    if count == 1:
                        break
            if best:
                stack.append((uncovered, avail, iter(_bits_to_ids(best))))
                chosen.append(-1)
        while stack and (x := next(stack[-1][2], None)) is None:
            stack.pop()
            chosen.pop()
        if not stack:
            break
        chosen[-1] = x
        uncovered, avail, _ = stack[-1]
        uncovered &= ~masks[x]
        avail &= ~conflict[x]

    solutions = _sorted_solutions(found)
    return OracleReport(bool(solutions), solutions, nodes)


def _bits_to_ids(bits: int) -> list[int]:
    ids = []
    while bits:
        ids.append((bits & -bits).bit_length() - 1)
        bits &= bits - 1
    return ids
