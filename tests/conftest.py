"""Shared fixtures: hand-built reference graphs, corpora, strategies and
independent checkers.

The tests hold one reference per idea, each independent of the package:
- ``reference_edges``: each family's edge list, built here independent of
  the package's generators, so generator tests have something to agree with;
- ``distance_two`` and ``bfs_distances``: distances from ``g.adj`` alone;
- ``drop_witnesses``: the drop rule, every witness in ascending id;
- ``reference_reduce``: the one rescan reference, the drop rule applied to
  a fixpoint by rescanning from the front after every drop;
- ``eds_by_definition``: the literal definition of an efficient dominating
  set, which ``verify_eds``'s partition check is held to;
- ``residue_law``: which circulants have an efficient dominating set;
- ``solve_naive``: every efficient dominating set, by testing all subsets.
"""

from __future__ import annotations

import io
import json
from collections import deque
from contextlib import redirect_stdout
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import strategies as st

from eds_audit import cli, reduction
from eds_audit.generators import (
    gen_complete, gen_cycle, gen_hypercube, gen_petersen, gen_random_regular,
)
from eds_audit.graph import Graph
from eds_audit.oracle import OracleReport
from eds_audit.records import json_line
from eds_audit.rng import rank_permutation


# each family's edge list, as its definition states it; the generators
# build the neighbourhoods straight, and Graph.from_edges checks these
def reference_edges(family: str, *args) -> tuple[int, list[tuple[int, int]]]:
    if family == "cycle":
        (n,) = args
        return n, [(i, (i + 1) % n) for i in range(n)]
    if family == "complete":
        (n,) = args
        return n, [(i, j) for j in range(n) for i in range(j)]
    if family == "hypercube":
        (d,) = args
        return 1 << d, [(v, v | (1 << b)) for v in range(1 << d) for b in range(d)
                        if not (v >> b) & 1]
    if family == "circulant":
        n, offsets = args
        return n, sorted({tuple(sorted((i, (i + o) % n))) for i in range(n) for o in offsets})
    n, k = args  # generalized Petersen
    return 2 * n, [e for i in range(n)
                   for e in ((i, (i + 1) % n), (i, n + i), (n + i, n + (i + k) % n))]


def cycle(n: int) -> Graph:
    return Graph.from_edges(*reference_edges("cycle", n))


def complete(n: int) -> Graph:
    return Graph.from_edges(*reference_edges("complete", n))


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def hypercube(d: int) -> Graph:
    return Graph.from_edges(*reference_edges("hypercube", d))


def petersen() -> Graph:
    return Graph.from_edges(*reference_edges("generalized-petersen", 5, 2))


def two_triangles() -> Graph:
    return Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


@st.composite
def graphs(draw, min_n=1, max_n=12):
    """Arbitrary simple graphs, irregular or disconnected, on min_n..max_n
    vertices: any set of the vertex pairs."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph.from_edges(n, sorted(edges))


@st.composite
def graph_and_set(draw, max_n=10):
    """An arbitrary graph on 1..max_n vertices and any set of its vertices."""
    g = draw(graphs(max_n=max_n))
    return g, frozenset(draw(st.sets(st.integers(min_value=0, max_value=g.n - 1))))


def criterion1_corpus() -> list[Graph]:
    """Acceptance criterion 1's 302 graphs: small cycles, complete graphs,
    hypercubes, the Petersen graph and 280 seeded random regular graphs."""
    corpus = [gen_cycle(n) for n in range(3, 13)]
    corpus += [gen_complete(n) for n in range(2, 9)]
    corpus += [gen_hypercube(d) for d in range(1, 5)]
    corpus += [gen_petersen(5, 2)]
    for i in range(280):
        n = 6 + (i % 9)
        r = 2 + (i % 3)
        if (n * r) % 2:
            r += 1
        corpus.append(gen_random_regular(n, r, 1000 + i))
    return corpus


# Five counterexamples with r = 4..6, each with exactly one EDS: graph6 ->
# (r, n, decide's work_counter, its one commit, which is also the anchor of
# audit-facts' one converse finding, the survivors of that anchor's probe,
# sha256 of decide's canonical trace)
COUNTEREXAMPLES = {
    "N_sP@GooA`PQ?wHa?iO": (
        4, 15, 29, 0, (0, 5, 8, 12, 13),
        "af2acbf92e2d762c2f726f339a4d55bd72d9048fe2e5fb635ce80dd4d5d010fe"),
    "QbG?[CsPC@_KopaEBa`CGBOToGO": (
        5, 18, 27, 0, (0, 2, 5, 14, 15),
        "59c8f56d519315e0f6015d83be97854654caee4677a6edb328d5a9d879ece62b"),
    "W?_OC?O??dN?P?Wc@I@F??[?APbIC@OoBW?__GaSGGo?pO_": (
        5, 24, 66, 4, (4, 5, 6, 8, 12, 13, 16, 18),
        "dfca24fcc033d9d225d1ba74c5cafc43650cb585eb98e8b2281d7831e6105b79"),
    "TKT?@S_RP?O`cJX?VOCgD?yPCwKdW?Fa?IDP": (
        6, 21, 37, 0, (0, 1, 7, 9, 13, 16, 17, 19),
        "3f9ff3d038158b2ee284b1f9c3b25ea2b60c01b102043eb3237de2936b9e91b6"),
    "XJAG?ACoG@_O?@??_PPEGCQ???GOK?Q?NB??G?P?_@?`?G_@?OB": (
        4, 25, 74, 0, (0, 2, 3, 11, 12, 13, 14, 15, 16, 17, 18, 19, 22, 23),
        "23b34a2ea175aa1b0f42e8c065eb40f095864c7cbefc2b5a1e60998d080a7930"),
}


def as_mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def probe_in(g: Graph, a, anchor: int):
    """The kernel's probe of ``anchor`` in ``a``: the survivors, the flat
    (vertex, witness) drop log and the rescan test count."""
    log = []
    cur, tests = reduction._probe(g, reduction._scan(g), as_mask(a), anchor, log)
    return frozenset(v for v in range(g.n) if cur >> v & 1), log, tests


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Independent BFS oracle for distance-based assertions."""
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in g.adj[v]:
            if dist[u] == -1:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def distance_two(g: Graph, v: int) -> tuple[int, ...]:
    """The vertices at distance exactly 2 from v, in ascending id, from
    ``g.adj`` alone: neighbours of neighbours, less N(v) and v."""
    return tuple(sorted(set().union(*(g.adj[u] for u in g.adj[v])) - g.adj[v] - {v}))


def drop_witnesses(g: Graph, candidates: frozenset[int], v: int) -> list[int]:
    """The drop rule: every witness c, in ascending id, that lets v leave
    ``candidates``.  c is at distance 2 from v, and no candidate outside N(v)
    is adjacent to c, so a set holding v leaves c undominated."""
    nv = g.adj[v]
    return [c for c in distance_two(g, v) if candidates.isdisjoint(g.adj[c] - nv)]


def reference_reduce(g: Graph, current: set[int], log: list[int]) -> int:
    """Drop the lowest vertex of ``current`` that ``drop_witnesses`` lets
    go, with its first witness, and rescan from the front, until none goes.
    ``current`` shrinks to the fixpoint, each drop appends its vertex and
    witness to ``log``, and the return value counts the vertices tested."""
    tests = 0
    while True:
        for v in sorted(current):
            tests += 1
            witnesses = drop_witnesses(g, current, v)
            if witnesses:
                current.discard(v)
                log += v, witnesses[0]
                break
        else:
            return tests


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """``g`` with vertex v renamed ``perm[v]``.  With ``perm`` =
    ``rank_permutation(g.n, s)``, the copy's ascending ids are g's vertices
    in the seeded order s, so the package's one scan order, ascending id,
    scans g in that order."""
    adj: list[frozenset[int]] = [frozenset()] * g.n
    for v, nbrs in enumerate(g.adj):
        adj[perm[v]] = frozenset(perm[u] for u in nbrs)
    return Graph(g.n, adj)


def seeded(g: Graph, seed: int) -> tuple[Graph, list[int]]:
    """``relabel(g, rank_permutation(g.n, seed))`` and the map back: vertex
    x of the copy is vertex ``back[x]`` of g."""
    rank = rank_permutation(g.n, seed)
    back = [0] * g.n
    for v, x in enumerate(rank):
        back[x] = v
    return relabel(g, rank), back


def closed_nbhd(g: Graph, v: int) -> frozenset[int]:
    """The closed neighbourhood N[v], from ``g.adj`` alone."""
    return g.adj[v] | {v}


def eds_by_definition(g: Graph, members: frozenset[int]) -> bool:
    """Literal definition check, independent of the package's verifier:
    independent set, and every outside vertex has exactly one member neighbor."""
    for v in members:
        if g.adj[v] & members:
            return False
    for v in range(g.n):
        if v not in members and len(g.adj[v] & members) != 1:
            return False
    return True


def residue_law(n: int, offsets: Sequence[int]) -> bool:
    """Whether the circulant C_n(offsets), offsets at most n/2, has an
    efficient dominating set by the residue law: the r + 1 steps 0 and +-o
    of a closed neighbourhood (n/2 is one step) must have pairwise distinct
    residues mod r + 1, and r + 1 must divide n.  Only "if" is proved."""
    steps = {0, *offsets, *(n - o for o in offsets)}
    return n % len(steps) == 0 and len({s % len(steps) for s in steps}) == len(steps)


def solve_naive(g: Graph) -> OracleReport:
    """Test all 2^n subsets; the exact oracle's own ground truth at tiny sizes.

    A subset qualifies exactly when the closed neighborhoods of its members
    are pairwise disjoint and cover every vertex (the partition
    characterization verify_eds implements).
    """
    assert 0 < g.n <= 20, "the all-subsets solver is for tiny nonempty graphs"
    masks = [sum(1 << u for u in closed_nbhd(g, v)) for v in range(g.n)]
    full = (1 << g.n) - 1
    found = []
    for bits in range(1 << g.n):
        acc = 0
        rest = bits
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            m = masks[v]
            if acc & m:
                break
            acc |= m
        else:
            if acc == full:
                found.append(frozenset(v for v in range(g.n) if bits >> v & 1))
    solutions = tuple(sorted(found, key=lambda s: tuple(sorted(s))))
    return OracleReport(bool(solutions), solutions, 1 << g.n)


def replay_mismatches(path: Path) -> list[str]:
    """Replay a counterexample file through the CLI: the commands among
    ``decide --trace G6`` and ``oracle --max-n N G6`` whose printed line is
    not the file's saved document as a canonical JSON line."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    graph6, n = payload["graph6"], payload["record"]["n"]
    mismatches = []
    for command, argv in (("decide", ["decide", "--trace", graph6]),
                          ("oracle", ["oracle", "--max-n", str(n), graph6])):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(argv)
        if code != 0 or out.getvalue() != json_line(payload[command]) + "\n":
            mismatches.append(command)
    return mismatches


@pytest.fixture
def c4():
    return cycle(4)


@pytest.fixture
def c5():
    return cycle(5)


@pytest.fixture
def c6():
    return cycle(6)


@pytest.fixture
def k4():
    return complete(4)


@pytest.fixture
def q3():
    return hypercube(3)


@pytest.fixture
def pet():
    return petersen()
