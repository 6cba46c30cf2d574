"""Drop filter, fixpoint reduction, probes, and the decision loop."""

from __future__ import annotations

import hashlib
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from eds_audit import cli, reduction
from eds_audit.eds import verify_eds
from eds_audit.generators import gen_circulant, gen_petersen, gen_random_regular, parse_genspecs
from eds_audit.graph import Graph, encode_graph6, parse_graph6
from eds_audit.oracle import solve_exact
from eds_audit.records import decide_report_doc, json_line
from eds_audit.reduction import (
    KIND_COMMIT, KIND_DROP, KIND_PROBE_EMPTY, REASON_ALL_PROBES_EMPTY,
    REASON_EXHAUSTED, REASON_INITIAL_EMPTY, STAGE_INITIAL, STAGE_MAIN, VERDICT_FOUND,
    VERDICT_NONE, TraceEvent, decide_eds, probe, probe_each, reduce_to_fixpoint,
    work_budget,
)

from .conftest import (
    COUNTEREXAMPLES, as_mask, bfs_distances, complete, criterion1_corpus, cycle, distance_two,
    drop_witnesses, graph_and_set, graphs, hypercube, path, petersen, probe_in, reference_reduce,
    residue_law, seeded, solve_naive, two_triangles,
)


def everything(g: Graph) -> frozenset[int]:
    return frozenset(range(g.n))


def drop_events(log: list[int], stage: str) -> tuple[TraceEvent, ...]:
    """The drop events of a flat (vertex, witness) log, labelled ``stage``."""
    return tuple(TraceEvent(KIND_DROP, v, c, stage) for v, c in zip(log[::2], log[1::2]))


class TestReduceToFixpoint:
    def test_c4_collapses(self, c4):
        final, drops = reduce_to_fixpoint(c4, everything(c4))
        assert final == frozenset()
        # each vertex drops with its antipode as witness: N(0) = N(2) = {1, 3}
        assert [(e.vertex, e.witness) for e in drops] == [(0, 2), (1, 3), (2, 0), (3, 1)]
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
                assert event.witness in drop_witnesses(g, frozenset(current), event.vertex)
                current.discard(event.vertex)
            assert frozenset(current) == final

@given(graph_and_set(max_n=12), st.data())
@settings(max_examples=150, deadline=None)
def test_droppability_is_monotone(case, data):
    # a vertex droppable in A stays droppable in every B within A that holds it
    g, a = case
    b = data.draw(st.sets(st.sampled_from(sorted(a))) if a else st.just(set()))
    for v in sorted(b):
        if drop_witnesses(g, a, v):
            assert drop_witnesses(g, frozenset(b), v), (g, a, b, v)


@given(graph_and_set(max_n=12))
@settings(max_examples=150, deadline=None)
def test_fixpoint_is_order_independent(case):
    # the theorem in _reduce's docstring, on arbitrary simple graphs
    # (irregular or disconnected) and arbitrary candidate sets: the fixpoint
    # of a relabelled graph, scanned in its ascending ids, is the relabelled
    # fixpoint
    g, a = case
    expected = probe_each(g, a)[1].keys()
    for seed in range(1, 6):
        h, back = seeded(g, seed)
        got = probe_each(h, frozenset(x for x in range(h.n) if back[x] in a))[1]
        assert {back[x] for x in got} == expected, (g, a, seed)


class TestProbe:
    def test_c6_anchor_0(self, c6):
        assert probe(c6, everything(c6), 0) == {0, 3}
        assert probe_in(c6, everything(c6), 0)[1] == []

    def test_c5_probes_empty(self, c5):
        assert probe(c5, everything(c5), 0) == frozenset()
        survivors, log, _ = probe_in(c5, everything(c5), 0)
        assert survivors == frozenset()
        # anchor 0 itself became droppable with witness 2 after the ball left
        assert (0, 2) in zip(log[::2], log[1::2])

    def test_k4_anchor_survives(self, k4):
        assert probe(k4, everything(k4), 0) == {0}

    def test_requires_membership(self, c6):
        with pytest.raises(ValueError, match="not in the candidate set"):
            probe(c6, frozenset({1, 2}), 0)

    def test_survivors_within_input(self):
        for g in (cycle(9), hypercube(3), petersen()):
            for anchor in range(g.n):
                survivors = probe(g, everything(g), anchor)
                assert survivors <= everything(g)
                ball = g.adj[anchor] | set(distance_two(g, anchor))
                assert not survivors & ball


class TestDecide:
    def test_c6_found(self, c6):
        d = decide_eds(c6)
        assert d.verdict == VERDICT_FOUND
        assert d.certificate.members == {0, 3}
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
        with pytest.raises(ValueError, match="not-regular"):
            decide_eds(path(3))

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="disconnected"):
            decide_eds(two_triangles())

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty-graph"):
            decide_eds(Graph.from_edges(0, []))

    def test_found_verdicts_match_bruteforce(self):
        seed = 0
        for n in (8, 10, 12):
            for _ in range(10):
                seed += 1
                g = gen_random_regular(n, 3, seed)
                d = decide_eds(g)
                solutions = solve_naive(g).solutions
                if d.verdict == VERDICT_FOUND:
                    assert d.certificate.members in solutions
                    assert len(d.certificate.members) == g.n // 4  # n/(r+1), r=3
                # NoneExists may in principle be wrong (the unproven
                # direction); on this frozen corpus it never is
                else:
                    assert not solutions

    def test_work_counter_positive_and_bounded(self):
        # the bound proved above WORK_BUDGET_COEFF: at most n + r + 1 probes,
        # each a reduction of at most n^2 tests, after one of at most n^2
        graphs = [cycle(6), cycle(30), petersen(), hypercube(4)]
        graphs += [gen_petersen(n, k) for n in range(5, 41) for k in range(1, (n + 1) // 2)]
        graphs += [gen_random_regular(n, r, seed) for r in (3, 4, 5)
                   for n in range(r + 1, 25) if n * r % 2 == 0 for seed in (1, 2)]
        for g in graphs:
            d = decide_eds(g)
            n, r = g.n, len(g.adj[0])
            assert 0 < d.work_counter <= n**2 + (n + r + 1) * n**2 <= work_budget(n), g
            probes = sum(e.kind in (KIND_COMMIT, KIND_PROBE_EMPTY) for e in d.trace)
            assert probes <= n + r + 1, g


@st.composite
def connected_graphs(draw, max_n=12):
    """Arbitrary connected simple graphs: a random spanning tree plus any
    further edges."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    tree = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    pairs = [(i, j) for j in range(n) for i in range(j)]
    extra = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph.from_edges(n, sorted(set(tree) | extra))


@given(connected_graphs())
@settings(max_examples=300, deadline=None)
def test_found_is_a_theorem_on_arbitrary_connected_graphs(g):
    # the theorem in decide_eds's docstring does not use regularity: with the
    # guard bypassed, no run raises, and every 'found' certificate verifies
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "is_regular", lambda g: 0)
        for h in (g, seeded(g, 1)[0]):
            d = decide_eds(h)
            if d.verdict == VERDICT_FOUND:
                assert verify_eds(h, d.certificate.members), h


def test_failed_certificate_check_raises(c6, monkeypatch):
    # a certificate that fails verification is a program defect, not a verdict
    monkeypatch.setattr(reduction, "verify_eds", lambda g, s: False)
    with pytest.raises(AssertionError, match="not an EDS"):
        decide_eds(c6)


class TestSeededOrder:
    """decide_eds in seeded scan orders: on the graph ``seeded`` relabels,
    read back through its map."""

    def test_c6_all_seeds_find_valid_eds(self, c6):
        valid = {frozenset({0, 3}), frozenset({1, 4}), frozenset({2, 5})}
        for seed in range(1, 21):
            h, back = seeded(c6, seed)
            d = decide_eds(h)
            assert d.verdict == VERDICT_FOUND
            assert frozenset(back[x] for x in d.certificate.members) in valid

    def test_c5_all_seeds_none(self, c5):
        for seed in range(1, 21):
            assert decide_eds(seeded(c5, seed)[0]).verdict == VERDICT_NONE

    def test_verdict_profile_recorded(self):
        # the verdict multiset across seeds: every order finds an EDS, so a
        # second verdict would be an order-sensitivity finding
        g = gen_random_regular(12, 3, 3)
        profile: dict[str, int] = {}
        for seed in range(1, 51):
            v = decide_eds(seeded(g, seed)[0]).verdict
            profile[v] = profile.get(v, 0) + 1
        assert profile == {VERDICT_FOUND: 50}


def test_candidates_exhausted_dead_end():
    # frozen cubic graph where one anchor commits and the next round dead-ends;
    # the oracle confirms no EDS exists, so the verdict is right for the wrong
    # reason (the no-backtracking gamble happens to pay off here)
    g = gen_random_regular(12, 3, 489)
    d = decide_eds(g)
    assert d.verdict == VERDICT_NONE
    assert d.reason == REASON_EXHAUSTED
    assert d.committed == (6,)
    assert not solve_naive(g).has_eds


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
            for s in solve_naive(g).solutions:
                # on the full vertex set and on arbitrary supersets of s
                supersets = [everything(g), s | frozenset(range(0, g.n, 2))]
                for sup in supersets:
                    for v in sorted(s):
                        assert not drop_witnesses(g, sup | s, v), (g, s, v)

    def test_reduction_preserves_all_solutions(self):
        for g in self.corpus():
            fixpoint = probe_each(g, everything(g))[1].keys()
            for s in solve_naive(g).solutions:
                assert s <= fixpoint

    def test_empty_probe_excludes_anchor_from_solutions(self):
        for g in self.corpus():
            solutions = solve_naive(g).solutions
            for anchor, survivors in probe_each(g, everything(g))[1].items():
                if not survivors:
                    assert all(anchor not in s for s in solutions), (g, anchor)

    def test_probe_keeps_solutions_containing_anchor(self):
        for g in self.corpus():
            probes = probe_each(g, everything(g))[1]
            for s in solve_naive(g).solutions:
                for anchor in sorted(s):
                    assert s <= set(probes[anchor]), (g, s, anchor)

    def test_anchor_survives_nonempty_probes_on_corpus(self):
        # empirical companion to the committed-anchor bookkeeping: across the
        # corpus a nonempty probe never drops its own anchor
        for g in self.corpus():
            for anchor, survivors in probe_each(g, everything(g))[1].items():
                if survivors:
                    assert anchor in survivors


def on_reference(fn, g, *args, **kwargs):
    """Call ``fn(g, ...)`` with ``reference_reduce`` behind the _reduce
    seam, which reads only the candidates off the kernel's mask and ignores
    ``stale``.  The bitmask _reduce, which tests only stale vertices, must
    reproduce the rescan's tests and its flat log of drops and witnesses."""
    def seam(t, cur, stale, log):
        current = {v for v in range(g.n) if cur >> v & 1}
        tests = reference_reduce(g, current, log)
        return as_mask(current), tests

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "_reduce", seam)
        return fn(g, *args, **kwargs)


@pytest.fixture(scope="module")
def identity_corpus():
    cubic = [gen_random_regular(n, 3, seed)
             for n in range(8, 21, 2) for seed in range(1, 21)]
    return criterion1_corpus() + cubic


def test_fixpoint_and_probe_trace_identity(identity_corpus):
    # probe_each covers the fixpoint, its drops and every probe's survivors,
    # in ascending id and in two seeded orders; probe_in's triple adds each
    # probe's drop log and test count
    for g in identity_corpus:
        for h in (g, seeded(g, 1)[0], seeded(g, 2)[0]):
            assert probe_each(h, everything(h)) == on_reference(probe_each, h, everything(h)), h
        baseline = frozenset(probe_each(g, everything(g))[1])
        for anchor in sorted(baseline):
            got = probe_in(g, baseline, anchor)
            assert got == on_reference(probe_in, g, baseline, anchor), (g, anchor)


def test_drop_events_carry_their_stage(identity_corpus):
    # the kernel logs bare (vertex, witness) pairs and each caller labels
    # them: replay decide's trace with probe_each, whose drops are labelled
    # initial-reduction, and the kernel's probe, and check every main-loop
    # drop against its committed probe's log
    stages = set()
    for g in identity_corpus:
        initial, probes = probe_each(g, everything(g))
        assert all(e.stage == STAGE_INITIAL for e in initial)
        trace = decide_eds(g).trace
        assert trace[:len(initial)] == initial
        rest, cur = list(trace[len(initial):]), frozenset(probes)
        while rest:
            event = rest.pop(0)
            assert event.kind in (KIND_COMMIT, KIND_PROBE_EMPTY), (g, event)
            survivors, log, _ = probe_in(g, cur, event.vertex)
            if event.kind == KIND_COMMIT:
                drops = drop_events(log, STAGE_MAIN)
                assert tuple(rest[:len(drops)]) == drops, (g, event)
                del rest[:len(drops)]
                cur = survivors
        stages.update(e.stage for e in trace if e.kind == KIND_DROP)
    assert stages == {STAGE_INITIAL, STAGE_MAIN}


@given(graph_and_set(max_n=12))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_reference_on_arbitrary_graphs(case):
    # irregular and disconnected graphs, arbitrary candidate sets, in
    # ascending id and in a seeded order: set, drop log with witnesses, and
    # test count, of the kernel's reduction and of its probes
    g, a = case
    copy, back = seeded(g, 1)
    for h, b in ((g, a), (copy, frozenset(x for x in range(g.n) if back[x] in a))):
        got_log, want, want_log = [], set(b), []
        got, got_tests = reduction._reduce(reduction._scan(h), as_mask(b), as_mask(b), got_log)
        want_tests = reference_reduce(h, want, want_log)
        assert (got, got_log, got_tests) == (as_mask(want), want_log, want_tests), (h, b)
        for base in (frozenset(want), frozenset(probe_each(h, everything(h))[1])):
            for anchor in sorted(base):
                assert probe_in(h, base, anchor) == \
                    on_reference(probe_in, h, base, anchor), (h, base, anchor)


def test_decide_trace_identity(identity_corpus):
    # Decision equality covers verdict, reason, certificate, the full trace
    # and work_counter, in ascending id and in seeded orders 1-5
    for g in identity_corpus:
        for h in (g, *(seeded(g, seed)[0] for seed in range(1, 6))):
            assert decide_eds(h) == on_reference(decide_eds, h), h


def lowest_witnesses(g, trace):
    """``trace``, a decide trace on g, with each drop's witness replaced by
    the lowest id among the witnesses that qualify at that drop, each given
    witness checked to be one of them.  On a relabelled graph decide takes
    the lowest id of the copy; the seeded scan orders of earlier versions
    took the lowest id of g."""
    cur = set(range(g.n))
    out = []
    for e in trace:
        if e.kind == KIND_COMMIT:
            cur -= g.adj[e.vertex] | set(distance_two(g, e.vertex))
        elif e.kind == KIND_DROP:
            witnesses = drop_witnesses(g, frozenset(cur), e.vertex)
            assert e.witness in witnesses, e
            e = e._replace(witness=witnesses[0])
            cur.discard(e.vertex)
        out.append(e)
    return tuple(out)


# Known findings: verdict, reason, committed anchors, work_counter and
# sha256 of the canonical trace, in ascending id (seed None) and, for the
# first two, in seeded orders 1-5.  The first two and the COUNTEREXAMPLES
# were recorded from earlier implementations of the decide loop, the four
# circulants from this one.  The seeded rows were recorded when decide_eds
# took a seed; they are checked on the graph seeded(g, seed) relabels, the
# trace read back through its map and its drop witnesses taken again by
# lowest_witnesses.
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
    # the first circulant failures as labelled, at r = 6 and r = 4: each
    # commits 0, then a vertex outside 0's residue class mod r + 1
    "circulant:n=70,offsets=2+29+31": [
        (None, VERDICT_NONE, REASON_EXHAUSTED, (0, 32), 674,
         "20f45f68c3830be2d9b6471bca86555b63162fcb51b81152135cd22cbb1a8128")],
    "circulant:n=70,offsets=8+11+19": [
        (None, VERDICT_NONE, REASON_EXHAUSTED, (0, 12), 488,
         "b81adb8873c624856fe296f543c3e1978b525e4f46e2a7ad2f821f4ec9093f4b")],
    "circulant:n=145,offsets=31+58": [
        (None, VERDICT_NONE, REASON_EXHAUSTED, (0, 1), 3598,
         "c31d58fc9ebce531e7dc9a82734e6e78b5512884c27b51c4a3a71b2d0a1fd1c6")],
    "circulant:n=145,offsets=56+58": [
        (None, VERDICT_NONE, REASON_EXHAUSTED, (0, 59), 6830,
         "636d1a86747e8c940d6c20c0ca03b2132b9c15458277431d99482d21e438af4d")],
    # COUNTEREXAMPLES: one EDS each, yet decide commits an anchor outside it
    # and dead-ends; n = 15 is the smallest order at which some labelling
    # defeats decide at r = 4
    **{text: [(None, VERDICT_NONE, REASON_EXHAUSTED, (anchor,), work, digest)]
       for text, (_, _, work, anchor, _, digest) in COUNTEREXAMPLES.items()},
}


@pytest.mark.parametrize("source", sorted(FINDING_PINS))
def test_known_findings_pinned(source):
    # the decide loop itself, checked against values from outside it: the
    # n = 12 graph6 finding goes wrong at commit 1, GP(28,11) and the
    # circulants at commit 2, the COUNTEREXAMPLES at commit 1
    if ":" in source:
        g = next(parse_genspecs(source)).build()
    else:
        g = parse_graph6(source)
    for seed, verdict, reason, committed, work, digest in FINDING_PINS[source]:
        if seed is None:
            d = decide_eds(g)
        else:
            h, back = seeded(g, seed)
            d = decide_eds(h)
            trace = [e._replace(vertex=back[e.vertex],
                                witness=None if e.witness is None else back[e.witness])
                     for e in d.trace]
            d = d._replace(trace=lowest_witnesses(g, trace))
        trace = decide_report_doc(encode_graph6(g), d, include_trace=True)["trace"]
        trace_sha = hashlib.sha256(json_line(trace).encode()).hexdigest()
        assert (d.verdict, d.reason, d.committed, d.work_counter, trace_sha) == \
            (verdict, reason, committed, work, digest), seed


@pytest.mark.parametrize("spec", sorted(s for s in FINDING_PINS if ":" in s))
def test_structured_findings_are_covers_of_k_r_plus_1(capsys, spec):
    """GP(28,11) and the four circulants each have exactly r + 1 EDSs, and
    they partition V.  So the graph covers K_{r+1} with the EDSs as fibres:
    a vertex of one has exactly one neighbour in each other.  Two facts
    follow.  Every vertex lies in an EDS, so the first commit does, and
    every failure comes at round 2 or later.  And decide is right exactly
    when every commit stays in its first commit's fibre S: a found set is
    an EDS holding every commit, and while the commits lie in S the sound
    filters keep S, so the head or its neighbour in S probes nonempty and
    the run cannot end none-exists.  Here the second commit leaves S."""
    g = next(parse_genspecs(spec)).build()
    solutions = solve_exact(g, enumerate_all=True).solutions
    assert len(solutions) == len(g.adj[0]) + 1
    assert sorted(v for s in solutions for v in s) == list(range(g.n))
    fibre = {v: i for i, s in enumerate(solutions) for v in s}
    first, second = decide_eds(g).committed[:2]
    assert fibre[first] != fibre[second]
    assert cli.main(["compare", "--deterministic", "--max-n", "145", "--gen", spec]) == 0
    row, _ = map(json.loads, capsys.readouterr().out.splitlines())
    assert (row["agree"], row["claim_audit_flags"]) == (
        False, ["candidates-exhausted", "probe-converse-violation"])


def test_isomorphic_twin_refutes_none_exists():
    """GP(48,5) and GP(48,19) are isomorphic, since 5 * 19 = -1 (mod 48)
    (Steimle and Staton, "The isomorphism classes of the generalized
    Petersen graphs", Discrete Math. 2009), yet decide's verdicts differ:
    the certificate found on one, mapped across, proves the other's
    'none-exists' wrong with no oracle.  In gen_petersen ids inner i is
    48 + i; the map sends outer i to inner 19i and inner i to outer 19i."""
    g, twin = gen_petersen(48, 5), gen_petersen(48, 19)
    found, lost = decide_eds(g), decide_eds(twin)
    assert found.verdict == VERDICT_FOUND
    assert (lost.verdict, lost.reason) == (VERDICT_NONE, REASON_EXHAUSTED)
    phi = [48 + 19 * i % 48 for i in range(48)] + [19 * i % 48 for i in range(48)]
    assert sorted(phi) == list(range(96))
    assert all(twin.adj[phi[v]] == {phi[u] for u in g.adj[v]} for v in range(96))
    assert verify_eds(twin, {phi[v] for v in found.certificate.members})


def gp_found_set(n):
    """G(n): the odd k for which decide finds an EDS on GP(n,k), 4 | n."""
    rule = {1, 3, 5, n // 2 - 1}
    if n % 8 == 4:
        rule.add(n // 4)
    if n % 3 == 0:
        rule |= {n // 3 - 1, n // 3 + 1}
    else:
        rule.add((n + 1) // 3 if (n + 1) % 3 == 0 else (n - 1) // 3)
    return rule


def gp_rule_graphs(max_n):
    """(n, k) of every GP(n,k) with 8 <= n <= max_n, 4 | n and k odd."""
    return [(n, k) for n in range(8, max_n + 1, 4) for k in range(1, n // 2, 2)]


def test_gp_verdict_rule():
    """decide_eds finds an EDS on GP(n,k), 4 | n and k odd, exactly when k
    is in G(n), though every such graph has one.  The mechanism: the first
    commit is outer 0; a success commits outer 4 next, a failure commits
    outer 3 next and ends candidates-exhausted."""
    outcomes = {VERDICT_FOUND: 0, VERDICT_NONE: 0}
    graphs = gp_rule_graphs(128)
    assert len(graphs) == 527
    for n, k in graphs:
        d = decide_eds(gen_petersen(n, k))
        outcomes[d.verdict] += 1
        assert (d.verdict == VERDICT_FOUND) == (k in gp_found_set(n)), (n, k)
        if d.verdict == VERDICT_FOUND:
            assert d.committed[:2] == (0, 4), (n, k)
        else:
            assert d.committed[:2] == (0, 3), (n, k)
            assert d.reason == REASON_EXHAUSTED, (n, k)
    assert outcomes == {VERDICT_FOUND: 171, VERDICT_NONE: 356}


def test_gp_eds_through_outer_0():
    """Every GP(n,k) with 4 | n, k odd and n <= 48 has exactly 4 EDSs, which
    partition V, so each covers K_4 with them as fibres.  Exactly one holds
    outer 0: outer 4i with inner 4i + 2 (id n + 4i + 2), which avoids outer
    3.  So committing 3 after 0 rules out 'found'."""
    graphs = gp_rule_graphs(48)
    assert len(graphs) == 77
    for n, k in graphs:
        solutions = solve_exact(gen_petersen(n, k), enumerate_all=True).solutions
        assert len(solutions) == 4, (n, k)
        assert sorted(v for s in solutions for v in s) == list(range(2 * n)), (n, k)
        through_0 = [s for s in solutions if 0 in s]
        assert through_0 == [frozenset(range(0, n, 4)) | frozenset(range(n + 2, 2 * n, 4))], \
            (n, k)
        assert 3 not in through_0[0]


def test_decide_follows_the_residue_law_on_cubic_circulants():
    """On every connected cubic circulant C_n(a, n/2) with 4 | n and
    n <= 128, decide_eds finds an EDS exactly when ``residue_law`` names
    one: no cubic circulant here defeats it.  With 4 not dividing n there
    is no EDS, whose closed neighbourhoods would split V into blocks of 4,
    and a 'found' verdict is verified, so decide is right there by
    construction.  That no cubic circulant defeats decide is checked, not
    proved."""
    verdicts = [(n, a, decide_eds(gen_circulant(n, (a, n // 2))).verdict)
                for n in range(4, 129, 4) for a in range(1, n // 2) if math.gcd(a, n // 2) == 1]
    for n, a, verdict in verdicts:
        assert (verdict == VERDICT_FOUND) == residue_law(n, (a, n // 2)), (n, a)
    assert (len(verdicts), sum(v == VERDICT_FOUND for _, _, v in verdicts)) == (435, 213)


@pytest.mark.parametrize("spec, tests", [
    ("cycle:n=300", 20394),
    ("cycle:n=600", 80794),
    ("hypercube:d=7", 1453),
    ("hypercube:d=8", 2219),
])
def test_ladder_work_counts_pinned(spec, tests):
    # droppability tests of the rescan reduction on the large ladder graphs
    assert decide_eds(next(parse_genspecs(spec)).build()).work_counter == tests


def test_probe_rejects_out_of_range_candidates(c6):
    # the kernel indexes its tables by vertex id, where -1 would alias n - 1
    for a in (frozenset({0, 3, 6}), frozenset({-1, 0, 3})):
        with pytest.raises(ValueError, match="out of range"):
            probe(c6, a, 0)
        with pytest.raises(ValueError, match="out of range"):
            reduce_to_fixpoint(c6, a)
        with pytest.raises(ValueError, match="out of range"):
            probe_each(c6, a)


@given(graph_and_set(max_n=12))
@settings(max_examples=150, deadline=None)
def test_probe_each_matches_probe(case):
    # on V, a random subset, its fixpoint and the empty set: probe_each
    # reduces its input with the rescan reference's drops, then gives each
    # fixpoint vertex's probe_in survivors, in ascending id
    g, a = case
    for base in (everything(g), a, frozenset(probe_each(g, a)[1]), frozenset()):
        fixpoint, log = set(base), []
        reference_reduce(g, fixpoint, log)
        drops, probes = probe_each(g, base)
        assert drops == drop_events(log, STAGE_INITIAL), (g, base)
        assert list(probes.items()) == [(x, tuple(sorted(probe_in(g, fixpoint, x)[0])))
                                        for x in sorted(fixpoint)], (g, base)
        for stray in (-1, g.n):
            with pytest.raises(ValueError, match="out of range"):
                probe_each(g, base | {stray})


@given(graphs())
@example(cycle(6))
@example(complete(4))
@example(hypercube(3))
@example(petersen())
@example(path(7))
@example(two_triangles())
@example(complete(5))
@settings(deadline=None)
def test_drop_tables_match_their_definitions(g):
    # masks over vertex ids, in ascending id and on a seeded relabelling, on
    # the graphs named and on arbitrary simple graphs
    for h in (g, seeded(g, 1)[0]):
        t = reduction._scan(h)
        for v in range(h.n):
            dist = bfs_distances(h, v)
            assert t.far[v] == tuple(u for u in range(h.n) if dist[u] == 2)
            assert t.nbr[v] == as_mask(h.adj[v])
            assert t.ball[v] == as_mask(h.adj[v] | set(distance_two(h, v)))
        for x in range(h.n):
            # reach[x] holds exactly the vertices at distance 2 from a
            # neighbour of x, among them every vertex with a row
            # N(c) - N(v) holding x
            assert t.reach[x] == as_mask(set().union(*(distance_two(h, u) for u in h.adj[x])))
            for v in range(h.n):
                if any(x in h.adj[c] - h.adj[v] for c in t.far[v]):
                    assert t.reach[x] >> v & 1, (h, x, v)
