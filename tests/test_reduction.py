"""Drop filter, fixpoint reduction, probes, and the decision loop."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from eds_audit import reduction
from eds_audit.generators import gen_random_regular, parse_genspec
from eds_audit.graph import Graph, parse_graph6
from eds_audit.records import json_line
from eds_audit.reduction import (
    KIND_COMMIT, KIND_DROP, KIND_PROBE_EMPTY, REASON_ALL_PROBES_EMPTY,
    REASON_EXHAUSTED, REASON_INITIAL_EMPTY, STAGE_INITIAL, STAGE_MAIN,
    STAGE_PROBE, VERDICT_FOUND, VERDICT_NONE, TraceEvent, decide_eds, probe,
    reduce_to_fixpoint, work_budget,
)
from eds_audit.rng import rank_permutation

from .conftest import all_eds_bruteforce, complete, cycle, hypercube, path, petersen, two_triangles
from .test_acceptance import criterion1_corpus
from .test_eds import graph_and_set


def everything(g: Graph) -> frozenset[int]:
    return frozenset(range(g.n))


def droppable_by_bruteforce(g: Graph, candidates: frozenset[int], v: int):
    """Independent re-statement of the drop rule for cross-checking."""
    witnesses = []
    for c in range(g.n):
        at_two = c not in g.adj[v] and c != v and (g.adj[c] & g.adj[v])
        if at_two and not ((g.adj[c] - g.adj[v]) & candidates):
            witnesses.append(c)
    return witnesses


class TestDropWitness:
    def test_c4_drops_with_witness_2(self, c4):
        # N(0)={1,3}, N(2)={1,3}: nothing outside N(0) can dominate 2
        assert droppable_by_bruteforce(c4, everything(c4), 0) == [2]
        assert reference_drop_witness(c4, everything(c4), 0) == 2

    def test_c6_not_droppable(self, c6):
        assert droppable_by_bruteforce(c6, everything(c6), 0) == []
        assert reference_drop_witness(c6, everything(c6), 0) is None

    def test_complete_graph_guard(self, k4):
        # no vertex at distance 2 exists, so the rule never applies
        assert reference_drop_witness(k4, everything(k4), 0) is None

    def test_requires_membership(self, c6):
        with pytest.raises(ValueError, match="not in the candidate set"):
            reference_drop_witness(c6, frozenset({1, 2}), 0)

    def test_smallest_witness_chosen(self):
        # star-like graph where several distance-2 witnesses qualify
        g = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
        assert reference_drop_witness(g, everything(g), 0) == min(
            droppable_by_bruteforce(g, everything(g), 0))

    def test_matches_bruteforce_on_corpus(self):
        graphs = [cycle(n) for n in range(3, 9)] + [hypercube(3), petersen(),
                                                    path(6), two_triangles()]
        for g in graphs:
            for v in range(g.n):
                expected = droppable_by_bruteforce(g, everything(g), v)
                got = reference_drop_witness(g, everything(g), v)
                assert got == (min(expected) if expected else None)


class TestReduceToFixpoint:
    def test_c4_collapses(self, c4):
        final, drops = reduce_to_fixpoint(c4, everything(c4))
        assert final == frozenset()
        assert len(drops) == 4
        assert [e.vertex for e in drops] == [0, 1, 2, 3]
        assert all(e.stage == STAGE_INITIAL and e.kind == KIND_DROP for e in drops)

    def test_c6_is_fixed(self, c6):
        final, drops = reduce_to_fixpoint(c6, everything(c6))
        assert final == everything(c6)
        assert drops == ()

    def test_complete_graphs_fixed(self):
        for n in (2, 4, 7):
            g = complete(n)
            final, drops = reduce_to_fixpoint(g, everything(g))
            assert final == everything(g) and drops == ()

    def test_drop_log_replays(self):
        # every logged drop must have been justified at its moment
        for g in (cycle(4), cycle(7), path(8), gen_random_regular(12, 3, 5)):
            current = set(everything(g))
            final, drops = reduce_to_fixpoint(g, everything(g))
            for event in drops:
                assert event.witness in droppable_by_bruteforce(
                    g, frozenset(current), event.vertex)
                current.discard(event.vertex)
            assert frozenset(current) == final

    def test_monotone_containment(self):
        for g in (cycle(5), cycle(10), petersen()):
            sub = frozenset(range(0, g.n, 2))
            final, _ = reduce_to_fixpoint(g, sub)
            assert final <= sub


@given(graph_and_set(max_n=12), st.data())
@settings(max_examples=150, deadline=None)
def test_droppability_is_monotone(case, data):
    # a vertex droppable in A stays droppable in every B within A that holds it
    g, a = case
    b = data.draw(st.sets(st.sampled_from(sorted(a))) if a else st.just(set()))
    for v in sorted(b):
        if reference_drop_witness(g, a, v) is not None:
            assert reference_drop_witness(g, frozenset(b), v) is not None, (g, a, b, v)


@given(graph_and_set(max_n=12))
@settings(max_examples=150, deadline=None)
def test_fixpoint_is_order_independent(case):
    # the theorem in reduce_to_fixpoint's docstring, on arbitrary simple graphs
    # (irregular or disconnected) and arbitrary candidate sets
    g, a = case
    expected, _ = reduce_to_fixpoint(g, a)
    for seed in range(1, 6):
        seeded, _ = reduce_to_fixpoint(g, a, order=rank_permutation(g.n, seed))
        assert seeded == expected, (g, a, seed)


class TestProbe:
    def test_c6_anchor_0(self, c6):
        res = probe(c6, everything(c6), 0)
        assert res.survivors == {0, 3}
        assert res.anchor == 0
        assert res.drops == ()

    def test_c5_probes_empty(self, c5):
        res = probe(c5, everything(c5), 0)
        assert res.survivors == frozenset()
        # anchor 0 itself became droppable with witness 2 after the ball left
        assert any(e.vertex == 0 and e.witness == 2 for e in res.drops)
        assert all(e.stage == STAGE_PROBE for e in res.drops)

    def test_k4_anchor_survives(self, k4):
        res = probe(k4, everything(k4), 0)
        assert res.survivors == {0}

    def test_requires_membership(self, c6):
        with pytest.raises(ValueError, match="not in the candidate set"):
            probe(c6, frozenset({1, 2}), 0)

    def test_survivors_within_input(self):
        for g in (cycle(9), hypercube(3), petersen()):
            for anchor in range(g.n):
                res = probe(g, everything(g), anchor)
                assert res.survivors <= everything(g)
                ball = g.adj[anchor] | set(g.second_lists[anchor])
                assert not res.survivors & ball


class TestDecide:
    def test_c6_found(self, c6):
        d = decide_eds(c6)
        assert d.verdict == VERDICT_FOUND
        assert d.certificate.members == {0, 3}
        assert d.certificate.graph_n == 6
        assert d.committed == (0, 3)

    def test_c5_all_probes_empty(self, c5):
        d = decide_eds(c5)
        assert d.verdict == VERDICT_NONE
        assert d.reason == REASON_ALL_PROBES_EMPTY
        # anchors tried: 0 first, then its neighbors ascending
        empties = [e.vertex for e in d.trace if e.kind == KIND_PROBE_EMPTY]
        assert empties == [0, 1, 4]

    def test_k4_found(self, k4):
        d = decide_eds(k4)
        assert d.verdict == VERDICT_FOUND
        assert d.certificate.members == {0}

    def test_c4_initial_reduction_empty(self, c4):
        d = decide_eds(c4)
        assert d.verdict == VERDICT_NONE
        assert d.reason == REASON_INITIAL_EMPTY

    def test_petersen_none(self, pet):
        d = decide_eds(pet)
        assert d.verdict == VERDICT_NONE
        assert d.reason == REASON_ALL_PROBES_EMPTY

    def test_q3_found(self, q3):
        d = decide_eds(q3)
        assert d.verdict == VERDICT_FOUND
        assert d.certificate.members == {0, 7}

    def test_rejects_irregular(self):
        with pytest.raises(ValueError, match="regular"):
            decide_eds(path(3))

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="connected"):
            decide_eds(two_triangles())

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            decide_eds(Graph.from_edges(0, []))

    def test_found_verdicts_match_bruteforce(self):
        seed = 0
        for n in (8, 10, 12):
            for _ in range(10):
                seed += 1
                g = gen_random_regular(n, 3, seed)
                d = decide_eds(g)
                has = bool(all_eds_bruteforce(g))
                if d.verdict == VERDICT_FOUND:
                    assert has
                    assert d.certificate.members in all_eds_bruteforce(g)
                    assert len(d.certificate.members) == g.n // 4  # n/(r+1), r=3
                # NoneExists may in principle be wrong (the unproven
                # direction); on this frozen corpus it never is
                else:
                    assert not has

    def test_trace_commit_structure(self, c6):
        d = decide_eds(c6)
        kinds = [e.kind for e in d.trace]
        assert kinds.count(KIND_COMMIT) == 2
        assert all(e.stage in (STAGE_INITIAL, STAGE_MAIN) for e in d.trace)

    def test_trace_json_shape(self, c5):
        d = decide_eds(c5)
        doc = d.trace_json()
        assert json.loads(json.dumps(doc)) == doc
        for event in doc:
            assert set(event) == {"kind", "vertex", "witness", "stage"}

    def test_work_counter_positive_and_bounded(self):
        for g in (cycle(6), cycle(30), petersen(), hypercube(4),
                  gen_random_regular(20, 3, 7)):
            d = decide_eds(g)
            assert 0 < d.work_counter <= work_budget(g.n)


class TestSeededOrder:
    def test_c6_all_seeds_find_valid_eds(self, c6):
        valid = {frozenset({0, 3}), frozenset({1, 4}), frozenset({2, 5})}
        for seed in range(1, 21):
            d = decide_eds(c6, seed)
            assert d.verdict == VERDICT_FOUND
            assert d.certificate.members in valid

    def test_c5_all_seeds_none(self, c5):
        for seed in range(1, 21):
            assert decide_eds(c5, seed).verdict == VERDICT_NONE

    def test_deterministic_per_seed(self, q3):
        assert decide_eds(q3, 9) == decide_eds(q3, 9)

    def test_verdict_profile_recorded(self):
        # logging contract: collect the verdict multiset across seeds; any
        # disagreement would be an order-sensitivity finding
        g = gen_random_regular(12, 3, 3)
        profile: dict[str, int] = {}
        for seed in range(1, 51):
            v = decide_eds(g, seed).verdict
            profile[v] = profile.get(v, 0) + 1
        assert sum(profile.values()) == 50
        if len(profile) > 1:
            print(f"order-sensitivity finding: {profile}")


def test_candidates_exhausted_dead_end():
    # frozen cubic graph where one anchor commits and the next round dead-ends;
    # the oracle confirms no EDS exists, so the verdict is right for the wrong
    # reason (the no-backtracking gamble happens to pay off here)
    g = gen_random_regular(12, 3, 489)
    d = decide_eds(g)
    assert d.verdict == VERDICT_NONE
    assert d.reason == REASON_EXHAUSTED
    assert d.committed == (6,)
    assert all_eds_bruteforce(g) == []


class TestSoundness:
    """The provable directions, checked at zero tolerance on small corpora."""

    def corpus(self):
        graphs = [cycle(n) for n in range(3, 10)]
        graphs += [complete(n) for n in range(2, 7)]
        graphs += [hypercube(d) for d in range(1, 4)]
        graphs += [petersen(), path(7), two_triangles()]
        seed = 100
        for n in (8, 10, 12):
            for r in (2, 3):
                for _ in range(5):
                    seed += 1
                    graphs.append(gen_random_regular(n, r, seed))
        return graphs

    def test_filter_never_drops_a_solution_vertex(self):
        for g in self.corpus():
            solutions = all_eds_bruteforce(g)
            for s in solutions:
                # on the full vertex set and on arbitrary supersets of s
                supersets = [everything(g), s | frozenset(range(0, g.n, 2))]
                for sup in supersets:
                    for v in sorted(s):
                        assert reference_drop_witness(g, sup | s, v) is None, (g, s, v)

    def test_reduction_preserves_all_solutions(self):
        for g in self.corpus():
            final, _ = reduce_to_fixpoint(g, everything(g))
            for s in all_eds_bruteforce(g):
                assert s <= final

    def test_empty_probe_excludes_anchor_from_solutions(self):
        for g in self.corpus():
            solutions = all_eds_bruteforce(g)
            final, _ = reduce_to_fixpoint(g, everything(g))
            for anchor in sorted(final):
                res = probe(g, final, anchor)
                if not res.survivors:
                    assert all(anchor not in s for s in solutions), (g, anchor)

    def test_probe_keeps_solutions_containing_anchor(self):
        for g in self.corpus():
            final, _ = reduce_to_fixpoint(g, everything(g))
            for s in all_eds_bruteforce(g):
                for anchor in sorted(s):
                    res = probe(g, final, anchor)
                    assert s <= res.survivors, (g, s, anchor)

    def test_anchor_survives_nonempty_probes_on_corpus(self):
        # empirical companion to the committed-anchor bookkeeping: across the
        # corpus a nonempty probe never drops its own anchor
        for g in self.corpus():
            final, _ = reduce_to_fixpoint(g, everything(g))
            for anchor in sorted(final):
                res = probe(g, final, anchor)
                if res.survivors:
                    assert anchor in res.survivors


# Reference rescan reduction: a drop-witness test that builds N(c) - N(v)
# per test, and a _reduce that re-sorts the candidates after every drop and
# tests every candidate, so it ignores ``deleted``.  The bitmask _reduce,
# which tests only stale vertices, must reproduce its tests, drops and
# witnesses; the drop-rule tests above state the rule on the same reference.


def reference_drop_witness(g, candidates, v):
    g._check_vertex(v)
    if v not in candidates:
        raise ValueError(f"vertex {v} is not in the candidate set")
    nv = g.adj[v]
    for c in g.second_lists[v]:
        if candidates.isdisjoint(g.adj[c] - nv):
            return c
    return None


def reference_reduce(g, current, deleted, order, stage, events):
    key = None if order is None else order.__getitem__
    tests = 0
    while True:
        for v in sorted(current, key=key):
            tests += 1
            c = reference_drop_witness(g, current, v)
            if c is not None:
                current.discard(v)
                events.append(TraceEvent(KIND_DROP, v, c, stage))
                break
        else:
            return tests


def on_reference(fn, *args, **kwargs):
    """Call ``fn`` with the reference reduction in place of _reduce."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "_reduce", reference_reduce)
        return fn(*args, **kwargs)


@pytest.fixture(scope="module")
def identity_corpus():
    cubic = [gen_random_regular(n, 3, seed)
             for n in range(8, 21, 2) for seed in range(1, 21)]
    return criterion1_corpus() + cubic


def test_fixpoint_and_probe_trace_identity(identity_corpus):
    # ProbeResult equality covers survivors, drop log and test count
    for g in identity_corpus:
        for order in [None] + [rank_permutation(g.n, seed) for seed in (1, 2)]:
            got = reduce_to_fixpoint(g, everything(g), order=order)
            assert got == on_reference(reduce_to_fixpoint, g, everything(g), order=order)
        baseline, _ = reduce_to_fixpoint(g, everything(g))
        for anchor in sorted(baseline):
            got = probe(g, baseline, anchor)
            assert got == on_reference(probe, g, baseline, anchor), (g, anchor)


@given(graph_and_set(max_n=12))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_reference_on_arbitrary_graphs(case):
    # irregular and disconnected graphs, arbitrary candidate sets, and the
    # seeded probe path: set, drop log with witnesses, and test count
    g, a = case
    for order in (None, rank_permutation(g.n, 1)):
        got, got_events = set(a), []
        want, want_events = set(a), []
        got_tests = reduction._reduce(g, got, None, order, STAGE_INITIAL, got_events)
        want_tests = reference_reduce(g, want, None, order, STAGE_INITIAL, want_events)
        assert (got, got_events, got_tests) == (want, want_events, want_tests), (g, a, order)
        fixpoint = frozenset(got)
        assert reduce_to_fixpoint(g, a, order=order) == (fixpoint, tuple(got_events))
        for base in (fixpoint, reduce_to_fixpoint(g, everything(g), order=order)[0]):
            for anchor in sorted(base):
                assert probe(g, base, anchor, order=order) == \
                    on_reference(probe, g, base, anchor, order=order), (g, base, anchor, order)


def test_decide_trace_identity(identity_corpus):
    # Decision equality covers verdict, reason, certificate, final set, the
    # full trace and work_counter
    for g in identity_corpus:
        assert decide_eds(g) == on_reference(decide_eds, g), g
        for seed in range(1, 6):
            assert decide_eds(g, seed) == on_reference(decide_eds, g, seed), \
                (g, seed)


# The two known findings under the default order and seeds 1-5, recorded from
# an earlier implementation of the decide loop: verdict, reason, committed
# anchors, work_counter and sha256 of the canonical trace.
FINDING_PINS = {
    "K@U_?SRWe?O`": [
        (None, VERDICT_NONE, REASON_EXHAUSTED, (0,), 31,
         "64292958b69e45e8f7b2a8f21ae35c11f3bde752532e17f92679d17f4eab92c1"),
        (1, VERDICT_FOUND, None, (7, 10, 2), 35,
         "98dc2c2d81f4ef77ca043136e33a4a8b0f83a8a26affec04052edf8d5234f2e1"),
        (2, VERDICT_NONE, REASON_EXHAUSTED, (11,), 26,
         "f675df70310eee36e565a14d7c0c52bebec198a7f7e6ef5986c3042cccf32549"),
        (3, VERDICT_FOUND, None, (7, 2, 10), 31,
         "6715d2e1c382eddd0394a08af0db2aeca5c9236880fc3a9e70f648ca43888a36"),
        (4, VERDICT_FOUND, None, (2, 7, 10), 21,
         "35b5964e63e859f40adaf5e32c83ffe13f0914accc279b6e3cfaf6902227e531"),
        (5, VERDICT_FOUND, None, (7, 10, 2), 30,
         "846563fd27ec9bcfa611ce301e8261a7473e853855db632199a320fa360fcb31"),
    ],
    "generalized-petersen:n=28,k=11": [
        (None, VERDICT_NONE, REASON_EXHAUSTED, (0, 3), 380,
         "7cb662a7d4547b892d17a071bce05d40be6d00a6cb47e840197b1eebae878af6"),
        (1, VERDICT_FOUND, None,
         (4, 50, 42, 0, 46, 16, 20, 38, 54, 34, 30, 8, 24, 12), 765,
         "c28539c4fe359754a1f84d566fb5acea9353da361bd06ee4363b17130625cdd1"),
        (2, VERDICT_FOUND, None,
         (20, 38, 0, 8, 24, 50, 16, 54, 4, 42, 34, 30, 12, 46), 733,
         "147424e745fe1c728442333fea77490f628b964f5423cf454573202e27949b87"),
        (3, VERDICT_FOUND, None,
         (38, 54, 12, 42, 24, 8, 4, 20, 16, 46, 0, 30, 50, 34), 722,
         "b3ed8e9853fba2874cc71b6b2adcbfb16729064c784383630e521b2e5e767455"),
        (4, VERDICT_FOUND, None,
         (26, 6, 44, 2, 28, 32, 48, 52, 18, 22, 40, 36, 14, 10), 525,
         "c213e04e0abcf683ec7aca4feebae448212b1670f797d2dcd1472bc6113695fa"),
        (5, VERDICT_FOUND, None,
         (31, 21, 55, 43, 13, 1, 47, 25, 17, 51, 9, 5, 39, 35), 636,
         "225769bd1c239d6474ed518805e2a9f5b85c0440af97678239e0e2314dbbb652"),
    ],
}


@pytest.mark.parametrize("source", sorted(FINDING_PINS))
def test_known_findings_pinned(source):
    # the decide loop itself, checked against values from outside it: the
    # graph6 finding goes wrong at commit 1, GP(28,11) at commit 2
    if ":" in source:
        g = parse_genspec(source).build()
    else:
        g = parse_graph6(source)
    for seed, verdict, reason, committed, work, digest in FINDING_PINS[source]:
        d = decide_eds(g, seed)
        trace_sha = hashlib.sha256(json_line(d.trace_json()).encode()).hexdigest()
        assert (d.verdict, d.reason, d.committed, d.work_counter, trace_sha) == \
            (verdict, reason, committed, work, digest), seed


@pytest.mark.parametrize("spec, tests", [
    ("cycle:n=300", 20394),
    ("cycle:n=600", 80794),
    ("hypercube:d=7", 1453),
    ("hypercube:d=8", 2219),
])
def test_ladder_work_counts_pinned(spec, tests):
    # droppability tests of the rescan reduction on the large ladder graphs
    assert decide_eds(parse_genspec(spec).build()).work_counter == tests


def test_scan_order_must_be_a_permutation(c6):
    for order in ([0] * 6, [0, 1, 2, 3, 4, 6], [0, 1, 2], [-1, 0, 1, 2, 3, 4]):
        with pytest.raises(ValueError, match="permutation"):
            reduce_to_fixpoint(c6, everything(c6), order=order)


def test_probe_rejects_out_of_range_candidates(c6):
    with pytest.raises(ValueError, match="out of range"):
        probe(c6, frozenset({0, 3, 6}), 0)
    with pytest.raises(ValueError, match="out of range"):
        probe(c6, frozenset({-1, 0, 3}), 0)
