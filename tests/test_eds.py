"""Efficient-dominating-set verification and the regular size bound."""

from __future__ import annotations

import pytest
from hypothesis import given

from eds_audit.eds import verify_eds
from eds_audit.graph import Graph
from eds_audit.oracle import solve_exact

from .conftest import (
    closed_nbhd, complete, cycle, eds_by_definition, graph_and_set, hypercube, path,
)


def test_verify_eds_examples(c6, q3):
    assert verify_eds(c6, frozenset({0, 3}))
    assert not verify_eds(c6, frozenset({0, 2}))  # vertex 1 dominated twice
    # derived by checking all 8 vertices of the cube by hand/brute force
    assert eds_by_definition(q3, frozenset({0, 7}))
    assert verify_eds(q3, frozenset({0, 7}))


def test_verify_eds_empty_set_iff_empty_graph():
    assert verify_eds(Graph.from_edges(0, []), frozenset())
    for g in (cycle(3), complete(1), path(2)):
        assert not verify_eds(g, frozenset())


def test_verify_eds_range_error(c6):
    with pytest.raises(ValueError, match="out of range"):
        verify_eds(c6, frozenset({6}))


@given(graph_and_set())
def test_characterizations_agree(case):
    # partition-of-closed-neighborhoods == literal definition, on random sets
    g, s = case
    assert verify_eds(g, s) == eds_by_definition(g, s)


@given(graph_and_set())
def test_verified_sets_dominate(case):
    g, s = case
    if verify_eds(g, s):
        covered = set().union(*(closed_nbhd(g, x) for x in s))
        assert covered == set(range(g.n))


def test_certificate_size_matches_bound():
    # every EDS of a regular graph has exactly n/(r+1) members, the fact
    # behind the oracle's short-circuit when r+1 does not divide n
    for g in (cycle(6), cycle(9), complete(5), hypercube(3), hypercube(1)):
        bound = g.n // (len(g.adj[0]) + 1)
        report = solve_exact(g, enumerate_all=True)
        assert report.has_eds
        for s in report.solutions:
            assert len(s) == bound
