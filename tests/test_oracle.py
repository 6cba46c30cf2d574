"""Exact-cover solver against the all-subsets solver and structural laws."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings

from eds_audit.generators import gen_circulant, gen_petersen, gen_random_regular, parse_genspec
from eds_audit.graph import Graph, is_regular
from eds_audit.oracle import solve_exact

from .conftest import (
    complete, criterion1_corpus, cycle, graphs, hypercube, path, reference_edges, solve_naive,
)


def test_q3_solutions(q3):
    report = solve_naive(q3)
    assert frozenset({0, 7}) in report.solutions
    # the four binary repetition-code cosets
    assert [sorted(s) for s in report.solutions] == [[0, 7], [1, 6], [2, 5], [3, 4]]
    assert solve_exact(q3, enumerate_all=True).solutions == report.solutions


def test_capacity_guards():
    with pytest.raises(ValueError, match="nonempty"):
        solve_exact(Graph.from_edges(0, []))


# Reference recursive search: solve_exact's original form, one Python frame
# per chosen vertex.  The iterative solve_exact must explore the same nodes in
# the same order and return the same solutions.


def reference_solve_exact(g, enumerate_all=False):
    r = is_regular(g)
    if r is not None and g.n % (r + 1):
        return (), 0
    closed_sorted = [sorted(g.adj[v] | {v}) for v in range(g.n)]
    masks = [sum(1 << u for u in closed) for closed in closed_sorted]
    found = []
    chosen = []
    nodes = 0

    def recurse(uncovered):
        nonlocal nodes
        nodes += 1
        if not uncovered:
            found.append(frozenset(chosen))
            return not enumerate_all
        best = None
        m = uncovered
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            cands = [x for x in closed_sorted[u] if (masks[x] & ~uncovered) == 0]
            if not cands:
                return False
            if best is None or len(cands) < len(best):
                best = cands
                if len(best) == 1:
                    break
        for x in best:
            chosen.append(x)
            stop = recurse(uncovered & ~masks[x])
            chosen.pop()
            if stop:
                return True
        return False

    recurse((1 << g.n) - 1)
    return tuple(sorted(found, key=sorted)), nodes


def star(k: int) -> Graph:
    return Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


def irregular_corpus() -> list[Graph]:
    """Non-regular and disconnected graphs the ``oracle`` subcommand accepts."""
    _, petersen_edges = reference_edges("generalized-petersen", 5, 2)
    return ([path(n) for n in range(1, 12)] + [star(k) for k in range(1, 8)]
            + [Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)]),   # K_{1,3} + K_1
               Graph.from_edges(10, petersen_edges[1:]),          # Petersen - edge
               Graph.from_edges(3, []),
               Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)])])


def assert_matches_reference(g: Graph) -> None:
    for enumerate_all in (False, True):
        got = solve_exact(g, enumerate_all)
        assert (got.solutions, got.nodes_explored) == reference_solve_exact(g, enumerate_all), g


def test_iterative_search_matches_recursive_reference():
    corpus = criterion1_corpus() + [cycle(n) for n in range(3, 40)] + irregular_corpus()
    for g in corpus:
        assert_matches_reference(g)
    # first-solution searches where the oracle really works: the compare-large
    # benchmark corpus at seed 1
    large = [gen_random_regular(n, 3, seed) for n in (96, 112, 128) for seed in range(1, 21)]
    large += [parse_genspec(spec).build() for spec in (
        "hypercube:d=7", "cycle:n=120", "cycle:n=126", "circulant:n=120,offsets=1+2",
        "circulant:n=126,offsets=1+2+3", "generalized-petersen:n=60,k=1",
        "generalized-petersen:n=64,k=3")]
    for g in large:
        got = solve_exact(g)
        assert (got.solutions, got.nodes_explored) == reference_solve_exact(g), g


def test_search_matches_reference_across_field_widths_and_thresholds():
    # K_n's counts need fields of 2 to 9 bits.  Where every uncovered vertex
    # has 2 covers or more, as at each root here with an edge, the threshold
    # climbs past 2: to d + 2 at the root of Q_d
    for g in ([complete(n) for n in range(1, 131)] + [hypercube(d) for d in range(8)]
              + [gen_petersen(n, k) for n in range(3, 41) for k in range(1, (n + 1) // 2)]):
        assert_matches_reference(g)


def test_generalized_petersen_law_at_scale():
    # GP(n, k) has an EDS iff 4 | n and k is odd (Ebrahimi, Jahanbakht and
    # Mahmoodian 2009); the node total pins the search tree
    nodes = 0
    for n in (64, 96, 128):
        for k in range(1, (n + 1) // 2):
            report = solve_exact(gen_petersen(n, k))
            assert report.has_eds == (n % 4 == 0 and k % 2 == 1), (n, k)
            nodes += report.nodes_explored
    assert nodes == 243065


def test_circulant_residue_law():
    """C_n(O), offsets below n/2, has degree r = 2|O|.  The law: it has an
    EDS iff (r+1) | n and 0 and the residues of +-o mod r+1, o in O, are
    pairwise distinct.  Only "if" is proved: then the multiples of r+1,
    the coset (r+1)Z_n, are an EDS.  "Only if" is checked here, on every
    connected circulant with r = 4 and n <= 60 or r = 6 and n <= 35."""
    counts = {}
    for r, max_n in ((4, 60), (6, 35)):
        graphs = with_eds = 0
        for n in range(r + 1, max_n + 1):
            for offsets in itertools.combinations(range(1, (n + 1) // 2), r // 2):
                if math.gcd(n, *offsets) != 1:
                    continue
                residues = {0, *(o % (r + 1) for o in offsets),
                            *(-o % (r + 1) for o in offsets)}
                law = n % (r + 1) == 0 and len(residues) == r + 1
                has_eds = solve_exact(gen_circulant(n, offsets)).has_eds
                assert has_eds == law, (n, offsets)
                graphs += 1
                with_eds += has_eds
        counts[r] = (graphs, with_eds)
    assert counts == {4: (6943, 532), 6: (5223, 214)}

@given(graphs())
@settings(max_examples=150, deadline=None)
def test_search_matches_reference_and_naive_on_any_simple_graph(g):
    # the conflict masks must be right beyond connected regular graphs
    assert_matches_reference(g)
    assert solve_exact(g, enumerate_all=True).solutions == solve_naive(g).solutions
