"""Candidate-elimination decision procedure for efficient dominating sets.

The procedure keeps a candidate set A (vertices still allowed in a solution)
and shrinks it three ways:

- drop filter: v leaves A when some vertex c at distance exactly 2 from v has
  no potential dominator left outside N(v), i.e. (N(c) \\ N(v)) and A are
  disjoint.  If v were in a solution, c's dominator would have to be c itself
  (then a common neighbor of v and c is dominated twice) or a common neighbor
  (breaking independence), so dropping such v is provably safe.
- fixpoint reduction: apply the drop filter repeatedly until no vertex of A
  qualifies.
- probe: tentatively place an anchor vertex a in the solution, delete
  N(a) and the distance-2 vertices of a from A, reduce to a fixpoint.  An
  empty result proves a belongs to no solution inside A (the sound
  direction).  The converse - a nonempty result meaning a is usable - is an
  unproven claim this package only audits.

decide_eds commits one anchor per round on the strength of that unproven
converse and never backtracks; the harness records disagreements with the
exact oracle as findings.  Every Found verdict is verified before it is
returned, so unsoundness can only surface as NoneExists-vs-oracle
disagreement or as an explicit Discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .eds import EdsCertificate, verify_eds
from .graph import Graph, VertexSet, is_connected, is_regular
from .rng import rank_permutation

STAGE_INITIAL = "initial-reduction"
STAGE_PROBE = "probe"
STAGE_MAIN = "main-loop"

KIND_DROP = "drop"
KIND_COMMIT = "commit"
KIND_PROBE_EMPTY = "probe-empty"

VERDICT_FOUND = "found"
VERDICT_NONE = "none-exists"
VERDICT_DISCREPANCY = "discrepancy"

REASON_INITIAL_EMPTY = "initial-reduction-empty"
REASON_ALL_PROBES_EMPTY = "all-probes-empty"
REASON_EXHAUSTED = "candidates-exhausted"
REASON_NOT_EDS = "final-set-not-EDS"

# Work bound: one unit per droppability test.  A fixpoint reduction costs at
# most n*(n+1) <= 2n^2 tests (n drops, full rescan after each); decide runs
# at most n+1 probes per commit and at most n commits, so 4*n^4 dominates.
WORK_BUDGET_COEFF = 4


def work_budget(n: int) -> int:
    """Droppability-test budget for an n-vertex graph; the harness flags a
    decision whose work_counter exceeds it."""
    return WORK_BUDGET_COEFF * n**4


@dataclass(frozen=True)
class TraceEvent:
    """One step of a decision run.

    kind 'drop': ``vertex`` left the candidate set, ``witness`` is the
    distance-2 vertex certifying the drop.  kind 'commit': ``vertex`` became
    an anchor and its distance-<=2 ball left the candidate set.  kind
    'probe-empty': candidate anchor ``vertex`` probed to the empty set and was
    rejected.
    """

    kind: str
    vertex: int
    witness: int | None
    stage: str

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "vertex": self.vertex,
                "witness": self.witness, "stage": self.stage}


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of probing one anchor: the reduced candidate set, drop log and
    droppability-test count."""

    anchor: int
    survivors: frozenset[int]
    drops: tuple[TraceEvent, ...]
    tests: int


@dataclass(frozen=True)
class Decision:
    """Verdict of the decision procedure plus its full audit trail.

    ``certificate`` is set for 'found' (always verified), ``reason`` for
    'none-exists' and 'discrepancy', ``final_set`` for 'discrepancy'.
    ``work_counter`` counts droppability tests across the whole run.
    """

    verdict: str
    certificate: EdsCertificate | None
    reason: str | None
    final_set: frozenset[int] | None
    trace: tuple[TraceEvent, ...]
    work_counter: int

    @property
    def committed(self) -> tuple[int, ...]:
        return tuple(e.vertex for e in self.trace if e.kind == KIND_COMMIT)

    def trace_json(self) -> list[dict]:
        return [e.to_json_dict() for e in self.trace]


def _reduce(g: Graph, current: set[int], order: Sequence[int] | None, stage: str,
            events: list[TraceEvent]) -> int:
    """Drop filter to fixpoint on ``current`` in place, rescanning from the
    front after each drop; returns the number of droppability tests.

    A test of v looks for the first row (c, N(c) - N(v)) of ``g.drop_rows[v]``
    disjoint from ``current``; its c is the witness.  A drop keeps the
    relative order of the rest of the scan, so the candidates are sorted only
    once.
    """
    rows = g.drop_rows
    scan = sorted(current, key=None if order is None else order.__getitem__)
    tests = 0
    p = 0
    while p < len(scan):
        v = scan[p]
        tests += 1
        for c, outside in rows[v]:
            if current.isdisjoint(outside):
                current.discard(v)
                events.append(TraceEvent(KIND_DROP, v, c, stage))
                del scan[p]
                p = 0
                break
        else:
            p += 1
    return tests


def reduce_to_fixpoint(g: Graph, a: VertexSet, *, order: Sequence[int] | None = None
                       ) -> tuple[frozenset[int], tuple[TraceEvent, ...]]:
    """Apply the drop filter until no vertex of ``a`` qualifies.

    Returns the fixed point and the ordered drop log.  ``order`` ranks
    vertices for the scan (default: ascending id); it changes the drop log,
    never the fixed point.

    Proof.  Droppability is monotone: v is droppable in A when some row
    N(c) - N(v) of v is disjoint from A, and a row disjoint from A is
    disjoint from every B with v in B and B a subset of A.  Let v1..vk be the
    drops of one scan, ending at F1, and let F2 be any fixed point reached
    from ``a`` by another scan.  By induction on i, v1..vi-1 are not in F2,
    so F2 is a subset of a - {v1..vi-1}, in which vi is droppable; if vi were
    in F2 it would be droppable in F2, which is a fixed point, so vi is not
    in F2 either.  Hence F2 is a subset of F1 = a - {v1..vk}, and by symmetry
    F1 = F2.
    """
    for v in a:
        g._check_vertex(v)
    final = set(a)
    events: list[TraceEvent] = []
    _reduce(g, final, order, STAGE_INITIAL, events)
    return frozenset(final), tuple(events)


def probe(g: Graph, a: VertexSet, anchor: int, *, order: Sequence[int] | None = None,
          stage: str = STAGE_PROBE) -> ProbeResult:
    """Delete N(anchor) and the distance-2 vertices of anchor from ``a``, then
    reduce to a fixpoint.

    Empty survivors certify the anchor belongs to no efficient dominating set
    contained in ``a`` (sound); nonempty survivors decide nothing by
    themselves.
    """
    if anchor not in a:
        raise ValueError(f"anchor {anchor} is not in the candidate set")
    g._check_vertex(anchor)
    # _reduce indexes g.drop_rows without checks, so reject stray ids here
    g._check_vertex(min(a))
    g._check_vertex(max(a))
    current = set(a)
    current -= g.adj[anchor]
    current.difference_update(g.second_lists[anchor])
    events: list[TraceEvent] = []
    tests = _reduce(g, current, order, stage, events)
    return ProbeResult(anchor, frozenset(current), tuple(events), tests)


def decide_eds(g: Graph, drop_order_seed: int | None = None) -> Decision:
    """Run the decision procedure.

    By default every vertex scan and anchor choice follows ascending id; with
    ``drop_order_seed`` they follow ``rank_permutation(g.n, drop_order_seed)``
    instead, which measures order sensitivity.  Raises ValueError unless g is
    connected and regular.  'found' verdicts carry a verified certificate; a
    final set failing verification comes back as 'discrepancy', never as a
    silent 'found'.
    """
    if is_regular(g) is None:
        raise ValueError("decision procedure requires a regular graph")
    if not is_connected(g):
        raise ValueError("decision procedure requires a connected graph")

    order = None if drop_order_seed is None else rank_permutation(g.n, drop_order_seed)
    key = None if order is None else order.__getitem__
    trace: list[TraceEvent] = []

    current = set(range(g.n))
    work = _reduce(g, current, order, STAGE_INITIAL, trace)
    if not current:
        return Decision(VERDICT_NONE, None, REASON_INITIAL_EMPTY, None,
                        tuple(trace), work)

    committed: set[int] = set()
    while uncommitted := current - committed:
        a = min(uncommitted, key=key)
        # N(a) & current ranks after a: earlier vertices are anchors, whose probes removed N(anchor)
        for cand in [a, *sorted(g.adj[a] & current, key=key)]:
            result = probe(g, current, cand, order=order, stage=STAGE_MAIN)
            work += result.tests
            if result.survivors:
                break
            trace.append(TraceEvent(KIND_PROBE_EMPTY, cand, None, STAGE_MAIN))
        else:
            reason = REASON_EXHAUSTED if committed else REASON_ALL_PROBES_EMPTY
            return Decision(VERDICT_NONE, None, reason, None, tuple(trace), work)
        trace.append(TraceEvent(KIND_COMMIT, result.anchor, None, STAGE_MAIN))
        trace.extend(result.drops)
        committed.add(result.anchor)
        current = result.survivors

    final = frozenset(current)
    if verify_eds(g, final):
        return Decision(VERDICT_FOUND, EdsCertificate(final, g.n), None, None,
                        tuple(trace), work)
    return Decision(VERDICT_DISCREPANCY, None, REASON_NOT_EDS, final,
                    tuple(trace), work)
