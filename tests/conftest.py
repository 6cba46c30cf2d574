"""Shared fixtures: hand-built reference graphs and independent checkers.

Reference graphs are constructed directly from edge lists here, independent
of the package's generators, so generator tests have something to agree with.
"""

from __future__ import annotations

import io
import itertools
import json
from collections import deque
from contextlib import redirect_stdout
from pathlib import Path
from typing import Sequence

import pytest

from eds_audit import cli
from eds_audit.errors import CapacityError
from eds_audit.graph import Graph
from eds_audit.oracle import OracleReport
from eds_audit.records import (
    KIND_AUDIT, KIND_RECORD, KIND_SKIP, KIND_SUMMARY, CompareRecord, SkipRecord, json_line,
)
from eds_audit.rng import rank_permutation


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j)])


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def hypercube(d: int) -> Graph:
    n = 1 << d
    return Graph.from_edges(
        n, [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)])


PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),        # outer 5-cycle
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),        # spokes
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),        # inner pentagram
]


def petersen() -> Graph:
    return Graph.from_edges(10, PETERSEN_EDGES)


def two_triangles() -> Graph:
    return Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


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


def all_eds_bruteforce(g: Graph) -> list[frozenset[int]]:
    """Enumerate every efficient dominating set by testing all subsets."""
    assert g.n <= 16, "brute force oracle is for tiny graphs"
    out = []
    for k in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), k):
            s = frozenset(combo)
            if eds_by_definition(g, s):
                out.append(s)
    return sorted(out, key=lambda s: tuple(sorted(s)))


NAIVE_MAX_N = 20


def solve_naive(g: Graph) -> OracleReport:
    """Test all 2^n subsets; the exact oracle's own ground truth at tiny sizes.

    A subset qualifies exactly when the closed neighborhoods of its members
    are pairwise disjoint and cover every vertex (the partition
    characterization verify_eds implements).
    """
    if g.n == 0:
        raise ValueError("oracle requires a nonempty graph")
    if g.n > NAIVE_MAX_N:
        raise CapacityError(f"n={g.n} exceeds the naive-solver guard {NAIVE_MAX_N}")
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


_ROW_TYPES = {KIND_RECORD: CompareRecord, KIND_SKIP: SkipRecord}


def parse_record_line(line: str) -> CompareRecord | SkipRecord | dict:
    """Parse and validate one harness JSONL row.

    Compare and skip rows come back as NamedTuples; audit and summary rows as
    validated dicts.  Raises ValueError on anything malformed.
    """
    doc = json.loads(line)
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("row is not an object with a 'kind' field")
    kind = doc["kind"]
    cls = _ROW_TYPES.get(kind)
    if cls is not None:
        names = cls._fields
        if set(doc) != {"kind", *names}:
            raise ValueError(f"{kind} row has wrong fields: {sorted(doc)}")
        values = {name: doc[name] for name in names}
        if "claim_audit_flags" in values:
            values["claim_audit_flags"] = tuple(values["claim_audit_flags"])
        return cls(**values)
    if kind in (KIND_AUDIT, KIND_SUMMARY):
        return doc
    raise ValueError(f"unknown row kind {kind!r}")


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
