"""Graph representation and neighborhood queries."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from eds_audit.graph import Graph, is_connected, is_regular

from .conftest import bfs_distances, complete, cycle, hypercube, path, petersen, two_triangles


def test_construction_validates():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(2, (frozenset({1}), frozenset()))


def test_neighbors_examples(c6, k4):
    assert c6.adj[0] == {1, 5}
    assert k4.adj[2] == {0, 1, 3}
    single = Graph.from_edges(1, [])
    assert single.adj[0] == frozenset()


def test_closed_neighbors_examples(c6, k4):
    assert c6.closed_adj[0] == {0, 1, 5}
    assert k4.closed_adj[2] == {0, 1, 2, 3}
    assert Graph.from_edges(1, []).closed_adj[0] == {0}


def test_second_neighborhood_examples(c6, k4, pet):
    assert c6.second_lists[0] == (2, 4)
    assert k4.second_lists[0] == ()
    # derived from the BFS oracle: all vertices at distance exactly 2
    dist = bfs_distances(pet, 0)
    expected = {v for v in range(10) if dist[v] == 2}
    assert len(expected) == 6
    assert set(pet.second_lists[0]) == expected


def test_second_neighborhood_matches_bfs_everywhere(pet, q3, c6):
    for g in (pet, q3, c6, path(7), two_triangles()):
        for v in range(g.n):
            dist = bfs_distances(g, v)
            assert g.second_lists[v] == tuple(u for u in range(g.n) if dist[u] == 2)


def test_drop_tables_match_their_definitions(c6, k4, q3, pet):
    for g in (c6, k4, q3, pet, path(7), two_triangles(), complete(5)):
        for v in range(g.n):
            assert tuple(c for c, _ in g.drop_rows[v]) == g.second_lists[v]
            for c, mask in g.drop_rows[v]:
                assert mask == sum(1 << u for u in g.adj[c] - g.adj[v]), (g, v, c)
        for x in range(g.n):
            # reach[x] holds every vertex with a row that contains x
            for v in range(g.n):
                if any(mask >> x & 1 for _, mask in g.drop_rows[v]):
                    assert g.reach[x] >> v & 1, (g, x, v)


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
    for v in range(g.n):
        assert g.closed_adj[v].isdisjoint(g.second_lists[v])


@given(graphs())
def test_second_neighborhood_has_common_neighbor(g):
    for v in range(g.n):
        for w in g.second_lists[v]:
            assert g.adj[v] & g.adj[w]


@given(graphs())
def test_adjacency_symmetric_and_loop_free(g):
    for v in range(g.n):
        assert v not in g.adj[v]
        for u in g.adj[v]:
            assert v in g.adj[u]
