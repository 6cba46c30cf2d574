"""Efficient dominating sets: verification and certificates.

An efficient dominating set (perfect code) is an independent set such that
every vertex outside it has exactly one neighbor inside; equivalently the
closed neighborhoods of its members partition the vertex set.
"""

from typing import NamedTuple

from .graph import Graph, VertexSet


def verify_eds(g: Graph, s: VertexSet) -> bool:
    """True iff s is an efficient dominating set of g.

    Runs the closed-neighborhood partition characterization, which equals the
    definition (s independent, every other vertex with exactly one neighbor in
    s) in every Graph: construction rejects loops and asymmetric edges.
    """
    s = frozenset(s)
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"set member {v} out of range for n={g.n}")
    # closed neighborhoods of s pairwise disjoint and covering V
    covered: set[int] = set()
    for x in sorted(s):
        cn = g.adj[x] | {x}
        if covered & cn:
            return False
        covered |= cn
    return len(covered) == g.n


class EdsCertificate(NamedTuple):
    """A vertex set that passed verify_eds."""

    members: frozenset[int]
