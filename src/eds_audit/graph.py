"""Immutable simple undirected graphs with neighborhood queries and graph6 / edge-list I/O.

Vertices are dense 0-based ids.  Candidate sets everywhere in this package are
plain ``frozenset``/``set`` objects over those ids (the ``VertexSet`` alias).
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import ParseError

VertexSet = frozenset[int]

GRAPH6_HEADER = ">>graph6<<"

# graph6 payload bytes live in [63, 126]: chr(63 + six-bit group).
_G6_MIN = 63


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus per-vertex neighbor sets.

    Instances are immutable after construction; neighborhood caches are safe
    to share across concurrent readers.
    """

    n: int
    adj: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        for v, nbrs in enumerate(self.adj):
            if v in nbrs:
                raise ValueError(f"self-loop at vertex {v}")
            for u in nbrs:
                if not 0 <= u < self.n:
                    raise ValueError(f"neighbor {u} of vertex {v} out of range")
                if v not in self.adj[u]:
                    raise ValueError(f"asymmetric edge {v}-{u}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list, rejecting loops and duplicates."""
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in nbrs[u]:
                raise ValueError(f"duplicate edge {u}-{v}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(n, tuple(frozenset(s) for s in nbrs))

    @cached_property
    def closed_adj(self) -> tuple[frozenset[int], ...]:
        """Per-vertex closed neighborhoods N[v]."""
        return tuple(self.adj[v] | {v} for v in range(self.n))

    @cached_property
    def second_lists(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex sorted lists of vertices at distance exactly 2."""
        adj = self.adj
        out = []
        for v, nbrs in enumerate(adj):
            far: set[int] = set()
            for u in nbrs:
                far |= adj[u]
            far -= nbrs
            far.discard(v)
            out.append(tuple(sorted(far)))
        return tuple(out)

    @cached_property
    def drop_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex drop-filter table: for each v, the pairs
        (c, bitmask of N(c) - N(v)) for every c at distance exactly 2, in
        ascending c.  Bit u of a mask stands for vertex u.

        v is droppable from a candidate set A exactly when some row's mask
        is disjoint from the mask of A.
        """
        return self.ranked_drop_rows(_identity_bits(self.n))

    @cached_property
    def reach(self) -> tuple[int, ...]:
        """Per-vertex bitmask ``reach[x]`` of the vertices at distance
        exactly 2 from a neighbor of x.  It holds every v with a
        ``drop_rows`` mask that contains x, so deleting x from a candidate
        set can make droppable only vertices in ``reach[x]``.
        """
        return self.ranked_reach(_identity_bits(self.n))

    @cached_property
    def scan_tables(self) -> dict:
        """The reduction's tables, one entry per scan order run on this
        graph (None: ascending id), filled on first use by ``reduction``."""
        return {}

    def ranked_drop_rows(self, bit: Sequence[int]) -> tuple[tuple[tuple[int, int], ...], ...]:
        """``drop_rows`` with vertex u as the bit ``bit[u]`` of every mask;
        the rows stay in ascending c."""
        nbr = _masks(self.adj, bit)
        out = []
        for v, far in enumerate(self.second_lists):
            outside = ~nbr[v]
            out.append(tuple([(c, nbr[c] & outside) for c in far]))
        return tuple(out)

    def ranked_reach(self, bit: Sequence[int]) -> tuple[int, ...]:
        """``reach`` with vertex u as the bit ``bit[u]`` of every mask."""
        return tuple(_masks(self.adj, _masks(self.second_lists, bit)))

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex id {v} out of range for n={self.n}")


def _identity_bits(n: int) -> tuple[int, ...]:
    return tuple(map((1).__lshift__, range(n)))


def _masks(sets: Iterable[Iterable[int]], bit: Sequence[int]) -> list[int]:
    """The OR of ``bit[u]`` over each set's members, one mask per set."""
    out = []
    for members in sets:
        m = 0
        for u in members:
            m |= bit[u]
        out.append(m)
    return out


def is_regular(g: Graph) -> int | None:
    """Return the common degree if every vertex has it, else None."""
    if g.n == 0:
        raise ValueError("regularity is undefined for the empty graph")
    r = len(g.adj[0])
    for nbrs in g.adj:
        if len(nbrs) != r:
            return None
    return r


def is_connected(g: Graph) -> bool:
    """True iff a BFS from vertex 0 reaches every vertex."""
    if g.n == 0:
        raise ValueError("connectivity is undefined for the empty graph")
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for u in g.adj[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == g.n


# graph6: byte = 63 + 6-bit group; upper adjacency triangle column-major,
# i.e. bits (0,1),(0,2),(1,2),(0,3),(1,3),(2,3),...  Bit k = j(j-1)/2 + i
# holds the pair i < j and is bit 5 - k % 6 of group k // 6.

_G6_INVALID = re.compile(rb"[^?-~]")  # a byte outside [63, 126]
_G6_NONZERO = re.compile(rb"[^?]")  # a group with at least one bit set
# indexed by a payload byte: the offsets 0..5 of its group's set bits
_G6_SET_BITS = [()] * _G6_MIN + [tuple(b for b in range(6) if q >> (5 - b) & 1)
                                 for q in range(64)]
_G6_PLUS_63 = bytes((b + _G6_MIN) & 255 for b in range(256))


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string (optional '>>graph6<<' header allowed).

    Python work is proportional to n plus the number of edges; the byte-range
    checks and the search for nonzero groups run in the ``re`` engine.
    """
    stripped = text.strip()
    base = text.index(stripped) if stripped else 0
    if stripped.startswith(GRAPH6_HEADER):
        base += len(GRAPH6_HEADER)
        stripped = stripped[len(GRAPH6_HEADER):]
    try:
        data = stripped.encode("ascii")
    except UnicodeEncodeError as exc:
        raise ParseError("non-ASCII byte in graph6 input", offset=base + exc.start) from None
    if not data:
        raise ParseError("empty graph6 input", offset=base)

    if data[0] != 126:
        start, pos, n = 0, 1, data[0] - _G6_MIN
    else:
        start, pos = (2, 8) if data[1:2] == b"~" else (1, 4)  # long-form vertex count
        n = 0
        for c in data[start:pos]:
            n = n << 6 | c - _G6_MIN
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    end = pos + nbytes
    # n is garbage if the header is bad or cut short, but every header byte
    # lies before end, so one scan up to end reports the same first fault as
    # a byte-by-byte read: an invalid byte, else truncation.
    bad = _G6_INVALID.search(data, start)
    if bad and bad.start() < end:
        raise ParseError(f"invalid graph6 byte {data[bad.start()]}", offset=base + bad.start())
    if len(data) < end:
        raise ParseError("truncated graph6 input", offset=base + len(data))
    if len(data) > end:
        raise ParseError("trailing garbage after graph6 payload", offset=base + end)
    if nbytes and data[end - 1] - _G6_MIN & ((1 << (6 * nbytes - nbits)) - 1):
        raise ParseError("nonzero padding bits in graph6 payload", offset=base + end - 1)

    edges = []
    j, col = 1, 0  # column j holds bits col .. col + j - 1
    for m in _G6_NONZERO.finditer(data, pos, end):
        at = m.start()
        first = 6 * (at - pos)
        for b in _G6_SET_BITS[data[at]]:
            k = first + b
            while k >= col + j:
                col += j
                j += 1
            edges.append((k - col, j))
    return Graph.from_edges(n, edges)


def encode_graph6(g: Graph) -> str:
    """Encode to the canonical-length graph6 string (no header).

    Python work is proportional to n plus the number of edges.
    """
    n = g.n
    if n <= 62:
        head = [n + _G6_MIN]
    elif n <= 258047:
        head = [126] + [_G6_MIN + (n >> s & 63) for s in (12, 6, 0)]
    elif n <= 68719476735:
        head = [126, 126] + [_G6_MIN + (n >> s & 63) for s in (30, 24, 18, 12, 6, 0)]
    else:
        raise ValueError("graph too large for graph6")
    groups = bytearray((n * (n - 1) // 2 + 5) // 6)
    for j in range(1, n):
        col = j * (j - 1) // 2
        for i in g.adj[j]:
            if i < j:
                k = col + i
                groups[k // 6] |= 32 >> k % 6
    return (bytes(head) + groups.translate(_G6_PLUS_63)).decode("ascii")


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format: first line n, then one 'u v' per line."""
    lines = text.splitlines()
    body: list[tuple[int, str]] = [
        (no, line.strip()) for no, line in enumerate(lines, 1) if line.strip()
    ]
    if not body:
        raise ParseError("empty edge-list input", line=1)
    first_no, first = body[0]
    try:
        n = int(first)
    except ValueError:
        raise ParseError(f"expected vertex count, got {first!r}", line=first_no) from None
    if n < 0:
        raise ParseError("vertex count must be nonnegative", line=first_no)
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for no, line in body[1:]:
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", line=no)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {line!r}", line=no) from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"endpoint out of range in edge {u} {v}", line=no)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", line=no)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"duplicate edge {u} {v}", line=no)
        seen.add(key)
        edges.append((u, v))
    return Graph.from_edges(n, edges)
