"""Graph representation and neighborhood queries."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, strategies as st

from eds_audit import reduction
from eds_audit.eds import verify_eds
from eds_audit.graph import Graph, encode_graph6, is_connected, is_regular, parse_graph6
from eds_audit.reduction import decide_eds

from .conftest import (
    bfs_distances, closed_nbhd, complete, cycle, hypercube, path, petersen, seeded,
    two_triangles,
)


def test_construction_validates():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(2, (frozenset({1}), frozenset()))
    with pytest.raises(ValueError, match="nonnegative"):
        Graph(-1, ())
    with pytest.raises(ValueError, match="nonnegative"):
        Graph.from_edges(-1, [])
    with pytest.raises(ValueError, match="length"):
        Graph(2, (frozenset(),))
    with pytest.raises(ValueError, match="self-loop"):
        Graph(1, (frozenset({0}),))
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, (frozenset({2}), frozenset()))


@st.composite
def edge_lists(draw, max_n=40):
    """n and a list of distinct edges, each in either orientation, in any order."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return n, [(j, i) if flip else (i, j) for (i, j), flip in zip(chosen, flips)]


@given(edge_lists())
def test_unchecked_constructions_equal_the_validated_graph(case):
    # from_edges and parse_graph6 skip Graph's per-edge checks; what they
    # build must be the graph that the checked constructor accepts
    n, edges = case
    adj = tuple(frozenset({v for u, v in edges if u == x} | {u for u, v in edges if v == x})
                for x in range(n))
    validated = Graph(n, adj)
    g = Graph.from_edges(n, edges)
    assert g == validated and type(g.adj) is tuple
    assert all(type(nbrs) is frozenset for nbrs in g.adj)
    decoded = parse_graph6(encode_graph6(g))
    assert decoded == validated and type(decoded.adj) is tuple
    assert all(type(nbrs) is frozenset for nbrs in decoded.adj)


def test_graph_is_an_immutable_value():
    g = cycle(5)
    with pytest.raises(AttributeError):
        g.n = 6
    with pytest.raises(AttributeError):
        g.adj = cycle(6).adj
    assert g.n == 5 and len(g.adj) == 5
    # the same graph from the edges in another order, with a cache filled
    twin = Graph.from_edges(5, [(4, 0), (3, 4), (2, 3), (1, 2), (0, 1)])
    assert is_regular(twin) == 2
    assert twin is not g and twin == g and hash(twin) == hash(g)
    assert {g: "c5"}[twin] == "c5"
    assert g != cycle(6) and g != path(5)
    assert pickle.loads(pickle.dumps(twin)) == g


def test_adjacency_is_normalised():
    # any iterables of ids are stored as a tuple of frozensets, so the graph
    # equals, hashes and decides like the one built from that tuple
    g = Graph(2, [{1}, [0]])
    twin = Graph(2, (frozenset({1}), frozenset({0})))
    assert type(g.adj) is tuple and all(type(nbrs) is frozenset for nbrs in g.adj)
    assert g == twin and hash(g) == hash(twin)
    assert decide_eds(g) == decide_eds(twin)
    assert decide_eds(g).certificate.members == {0}


def test_neighbors_examples(c6, k4):
    assert c6.adj[0] == {1, 5}
    assert k4.adj[2] == {0, 1, 3}
    single = Graph.from_edges(1, [])
    assert single.adj[0] == frozenset()


def test_closed_neighbors_examples(c6, k4):
    # the reference the tests check verify_eds against, and verify_eds on
    # one-member sets, which are EDSs exactly when N[x] is every vertex
    assert closed_nbhd(c6, 0) == {0, 1, 5}
    assert closed_nbhd(k4, 2) == {0, 1, 2, 3}
    assert closed_nbhd(Graph.from_edges(1, []), 0) == {0}
    assert verify_eds(k4, frozenset({2})) and not verify_eds(c6, frozenset({0}))
    assert verify_eds(Graph.from_edges(1, []), frozenset({0}))


def test_second_neighborhood_examples(c6, k4, pet):
    # derived from the BFS oracle: all vertices at distance exactly 2
    dist = bfs_distances(pet, 0)
    expected = {v for v in range(10) if dist[v] == 2}
    assert len(expected) == 6
    assert reduction._scan(c6).far[0] == (2, 4)
    assert reduction._scan(k4).far[0] == ()
    assert set(reduction._scan(pet).far[0]) == expected
    # and vertex 0 of each under a seeded relabelling
    for g, want in ((c6, {2, 4}), (k4, set()), (pet, expected)):
        h, back = seeded(g, 1)
        x = back.index(0)
        assert {back[u] for u in reduction._scan(h).far[x]} == want


def test_second_neighborhood_matches_bfs_everywhere(pet, q3, c6):
    # in ascending id, and on a seeded relabelling
    for g in (pet, q3, c6, path(7), two_triangles()):
        for h in (g, seeded(g, 1)[0]):
            far = reduction._scan(h).far
            for v in range(h.n):
                dist = bfs_distances(h, v)
                assert far[v] == tuple(u for u in range(h.n) if dist[u] == 2)


def test_is_regular():
    assert is_regular(cycle(6)) == 2
    assert is_regular(path(3)) is None
    assert is_regular(petersen()) == 3
    assert is_regular(complete(1)) == 0
    with pytest.raises(ValueError, match="empty"):
        is_regular(Graph.from_edges(0, []))


def test_is_connected():
    assert is_connected(cycle(6))
    assert not is_connected(two_triangles())
    assert is_connected(hypercube(3))
    assert is_connected(Graph.from_edges(1, []))
    assert not is_connected(Graph.from_edges(2, []))
    with pytest.raises(ValueError, match="empty"):
        is_connected(Graph.from_edges(0, []))


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph.from_edges(n, sorted(edges))


@given(graphs())
def test_second_neighborhood_disjoint_from_closed(g):
    for h in (g, seeded(g, 1)[0]):
        far = reduction._scan(h).far
        for v in range(h.n):
            assert closed_nbhd(h, v).isdisjoint(far[v])


@given(graphs())
def test_second_neighborhood_has_common_neighbor(g):
    for h in (g, seeded(g, 1)[0]):
        far = reduction._scan(h).far
        for v in range(h.n):
            for w in far[v]:
                assert h.adj[v] & h.adj[w]


@given(graphs())
def test_preconditions_match_their_definitions(g):
    # both answers are cached on the graph; the second call reads the cache
    for _ in range(2):
        degrees = {len(g.adj[v]) for v in range(g.n)}
        assert is_regular(g) == (degrees.pop() if len(degrees) == 1 else None)
        assert is_connected(g) == (-1 not in bfs_distances(g, 0))


@given(graphs())
def test_adjacency_symmetric_and_loop_free(g):
    for v in range(g.n):
        assert v not in g.adj[v]
        for u in g.adj[v]:
            assert v in g.adj[u]
