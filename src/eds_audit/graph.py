"""Immutable simple undirected graphs with neighborhood queries and graph6 I/O.

Vertices are dense 0-based ids.  Candidate sets in the public API are
``frozenset`` objects over those ids (the ``VertexSet`` alias); the reduction
carries them internally as bitmasks over its own tables.
"""

from __future__ import annotations

import re
from collections import deque
from functools import cached_property
from typing import Iterable

VertexSet = frozenset[int]

GRAPH6_HEADER = ">>graph6<<"

# the largest vertex count graph6 can name: its longest size prefix holds 36 bits
GRAPH6_MAX_N = 2**36 - 1

# graph6 payload bytes live in [63, 126]: chr(63 + six-bit group).
_G6_MIN = 63


class ParseError(ValueError):
    """Malformed input; ``offset``, a 0-based byte offset into graph6 text if
    known, is named at the end of the message."""

    def __init__(self, message: str, *, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


class Graph:
    """Simple undirected graph: vertex count plus per-vertex neighbor sets.

    ``adj`` is stored as a tuple of frozensets, whatever iterables it was
    given as.  Attributes cannot be assigned or deleted after construction;
    instances compare and hash by ``(n, adj)``.  The only caches are the
    graph's degree and connectivity, filled on first use.
    """

    def __init__(self, n: int, adj: Iterable[Iterable[int]]) -> None:
        adj = tuple(map(frozenset, adj))
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(adj) != n:
            raise ValueError("adjacency length does not match vertex count")
        for v, nbrs in enumerate(adj):
            if v in nbrs:
                raise ValueError(f"self-loop at vertex {v}")
            for u in nbrs:
                if not 0 <= u < n:
                    raise ValueError(f"neighbor {u} of vertex {v} out of range")
                if v not in adj[u]:
                    raise ValueError(f"asymmetric edge {v}-{u}")
        self.__dict__.update(n=n, adj=adj)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to {name!r}: Graph is immutable")

    __delattr__ = __setattr__  # del g.n raises as well

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and (self.n, self.adj) == (other.n, other.adj)

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, adj={self.adj})"

    @classmethod
    def _trusted(cls, n: int, adj: tuple[frozenset[int], ...]) -> "Graph":
        """A graph from ``adj`` without the per-edge checks of ``__init__``:
        for callers whose construction already guarantees n = len(adj) >= 0
        and simple, symmetric neighbour sets."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, adj=adj)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list.  ``Graph(n, adj)`` rejects a
        negative n and loops; an edge list adds ids out of range and
        repeated edges."""
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} out of range for n={n}")
            if v in nbrs[u]:
                raise ValueError(f"duplicate edge {u}-{v}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(n, nbrs)

    # the answers of is_regular and is_connected, computed once per graph
    @cached_property
    def _degree(self) -> int | None:
        degrees = set(map(len, self.adj))
        return degrees.pop() if len(degrees) == 1 else None

    @cached_property
    def _connected(self) -> bool:
        seen = {0}
        queue = deque([0])
        while queue:
            for u in self.adj[queue.popleft()]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        return len(seen) == self.n


def is_regular(g: Graph) -> int | None:
    """Return the common degree if every vertex has it, else None."""
    if g.n == 0:
        raise ValueError("regularity is undefined for the empty graph")
    return g._degree


def is_connected(g: Graph) -> bool:
    """True iff a BFS from vertex 0 reaches every vertex."""
    if g.n == 0:
        raise ValueError("connectivity is undefined for the empty graph")
    return g._connected


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
    checks and the search for nonzero groups run in the ``re`` engine.  Each
    set bit is one edge i < j, so the neighbour sets it fills are simple and
    symmetric by construction and the graph skips ``Graph``'s edge checks.
    """
    stripped = text.strip(" \t\n\r\v\f")  # bytes.strip()'s set: the CLI's blank test
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

    nbrs: list[set[int]] = [set() for _ in range(n)]
    j, col = 1, 0  # column j holds bits col .. col + j - 1
    for m in _G6_NONZERO.finditer(data, pos, end):
        at = m.start()
        first = 6 * (at - pos)
        for b in _G6_SET_BITS[data[at]]:
            k = first + b
            while k >= col + j:
                col += j
                j += 1
            nbrs[k - col].add(j)
            nbrs[j].add(k - col)
    return Graph._trusted(n, tuple(map(frozenset, nbrs)))


def graph6_size_prefix(n: int) -> str:
    """The canonical graph6 vertex-count prefix for n: one byte for n <= 62,
    else '~' and 3 bytes, else '~~' and 6 bytes."""
    if n <= 62:
        return chr(n + _G6_MIN)
    if n <= 258047:
        return "~" + "".join(chr(_G6_MIN + (n >> s & 63)) for s in (12, 6, 0))
    if n <= GRAPH6_MAX_N:
        return "~~" + "".join(chr(_G6_MIN + (n >> s & 63)) for s in (30, 24, 18, 12, 6, 0))
    raise ValueError("graph too large for graph6")


def encode_graph6(g: Graph) -> str:
    """Encode to the canonical-length graph6 string (no header).

    Python work is proportional to n plus the number of edges.
    """
    n = g.n
    head = graph6_size_prefix(n)
    groups = bytearray((n * (n - 1) // 2 + 5) // 6)
    for j in range(1, n):
        col = j * (j - 1) // 2
        for i in g.adj[j]:
            if i < j:
                k = col + i
                groups[k // 6] |= 32 >> k % 6
    return head + groups.translate(_G6_PLUS_63).decode("ascii")
