"""Efficient dominating sets: verification and certificates.

An efficient dominating set (perfect code) is an independent set such that
every vertex outside it has exactly one neighbor inside; equivalently the
closed neighborhoods of its members partition the vertex set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, VertexSet


def _check_members(g: Graph, s: VertexSet) -> None:
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"set member {v} out of range for n={g.n}")


def _partition_check(g: Graph, s: VertexSet) -> bool:
    # closed neighborhoods of s pairwise disjoint and covering V
    covered: set[int] = set()
    for x in sorted(s):
        cn = g.closed_adj[x]
        if covered & cn:
            return False
        covered |= cn
    return len(covered) == g.n


def _definition_check(g: Graph, s: VertexSet) -> bool:
    # s independent, and every outside vertex has exactly one neighbor in s
    for x in s:
        if g.adj[x] & s:
            return False
    for v in range(g.n):
        if v not in s and len(g.adj[v] & s) != 1:
            return False
    return True


def verify_eds(g: Graph, s: VertexSet, *, check_both: bool | None = None) -> bool:
    """True iff s is an efficient dominating set of g.

    Runs the closed-neighborhood partition characterization; with
    ``check_both`` (defaulting to ``__debug__``) the definitional check runs
    too and the two must agree.
    """
    s = frozenset(s)
    _check_members(g, s)
    result = _partition_check(g, s)
    if check_both is None:
        check_both = __debug__
    if check_both and _definition_check(g, s) != result:
        raise AssertionError("EDS characterizations disagree; graph invariants violated")
    return result


@dataclass(frozen=True)
class EdsCertificate:
    """A vertex set that passed verify_eds against a graph of ``graph_n`` vertices."""

    members: frozenset[int]
    graph_n: int
