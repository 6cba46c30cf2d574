"""Independent exact solver for efficient domination, used as ground truth.

Shares nothing with the reduction module beyond the graph type and
verification semantics, so the cross-check stays meaningful.
"""

from typing import NamedTuple

from .graph import Graph, is_regular


class OracleReport(NamedTuple):
    """Exact-solver outcome: verdict, solutions, and search effort."""

    has_eds: bool
    solutions: tuple[frozenset[int], ...]
    nodes_explored: int


def solve_exact(g: Graph, enumerate_all: bool = False) -> OracleReport:
    """Exact-cover backtracking over closed neighborhoods.

    A vertex x is available while N[x] misses every closed neighborhood
    chosen so far; the covers of a vertex are the available vertices of its
    closed neighborhood.  Each search node branches on one uncovered vertex
    v: the smallest id with at most one cover, if there is one (with none,
    the node is dead), else the smallest id among those with the fewest
    covers.  Its branches choose v's covers in ascending id order.  Finds
    one solution, or all of them with ``enumerate_all``.

    A node is two ints: ``avail``, a bitmask over the vertex ids, and
    ``counts``, one w-bit field per vertex holding its cover count while it
    is uncovered and the lift 2**s, above every count, once it is covered;
    every vertex is covered when every field holds the lift.  Choosing v
    costs one subtraction and one AND against the fields' top bits,
    repeated with a higher threshold only while no uncovered vertex has
    fewer covers than it.  Choosing x costs one subtraction per vertex it
    makes unavailable, at most |N[N[x]]|.  A node with a cover left to try
    keeps a frame of both ints, the covers not yet tried, and its depth.
    """
    if g.n == 0:
        raise ValueError("oracle requires a nonempty graph")

    r = is_regular(g)
    if r is not None and g.n % (r + 1):
        # divisibility failure alone proves no EDS exists
        return OracleReport(False, (), 0)

    adj = g.adj
    n = g.n
    # a count is at most max degree + 1 < 2**s, so the threshold, which
    # stops at the fewest covers + 1, never passes the lift 2**s
    s = (max(map(len, adj)) + 1).bit_length()
    lift = 1 << s
    w = s + 1
    ones = ((1 << n * w) - 1) // ((1 << w) - 1)  # 1 in every field
    high = ones << s  # the top bit of every field: all covered
    # below - counts holds a field's top bit iff its value is below the
    # threshold t, for below's fields of lift + t - 1; no field borrows
    below2 = high + ones
    masks = []
    spreads = []  # spreads[v]: 1 in the field of every vertex of N[v]
    for v, nbrs in enumerate(adj):
        m = 1 << v
        spread = 1 << w * v
        for u in nbrs:
            m |= 1 << u
            spread |= 1 << w * u
        masks.append(m)
        spreads.append(spread)
    counts = sum(spreads)
    # conflict[x]: the vertices whose closed neighborhood meets N[x]
    conflict = []
    for x, nbrs in enumerate(adj):
        c = masks[x]
        for u in nbrs:
            c |= masks[u]
        conflict.append(c)

    found: list[frozenset[int]] = []
    # chosen: the cover taken at each level above the current node; one
    # frame [avail, counts, untried covers, level] per node with covers left
    # to try, so a node with one cover pushes nothing
    chosen: list[int] = []
    stack: list[list[int]] = []
    nodes = 0
    avail = (1 << n) - 1
    while True:
        nodes += 1
        if counts == high:
            found.append(frozenset(chosen))
            if not enumerate_all:
                break
            branch = 0
        else:
            flags = (below2 - counts) & high
            below = below2
            while not flags:
                below += ones
                flags = (below - counts) & high
            branch = masks[(flags & -flags).bit_length() // w - 1] & avail
        if branch:
            # take the first cover now, and keep a frame for the others
            low = branch & -branch
            if branch ^ low:
                stack.append([avail, counts, branch ^ low, len(chosen)])
        elif stack:
            # a dead node or a solution: resume the deepest untried cover
            frame = stack[-1]
            avail, counts, branch, level = frame
            low = branch & -branch
            if branch ^ low:
                frame[2] = branch ^ low
            else:
                stack.pop()
            del chosen[level:]
        else:
            break
        x = low.bit_length() - 1
        chosen.append(x)
        # every vertex of N[N[x]] still available goes, x with them; then
        # each vertex of N[x] has no cover left, and takes the lift instead
        gone = avail & conflict[x]
        avail ^= gone
        gone ^= low
        counts += spreads[x] * (lift - 1)
        while gone:
            low = gone & -gone
            gone ^= low
            counts -= spreads[low.bit_length() - 1]

    solutions = tuple(sorted(found, key=sorted))
    return OracleReport(bool(solutions), solutions, nodes)
