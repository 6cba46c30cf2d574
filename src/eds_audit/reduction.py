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
exact oracle as findings.  A run that ends with every candidate committed
has found an efficient dominating set (proof in ``decide_eds``), so the
converse can fail only as a 'none-exists' verdict on a graph that has one.
"""

from typing import Iterable, NamedTuple, Sequence

from .eds import EdsCertificate, verify_eds
from .graph import Graph, VertexSet, is_connected, is_regular

STAGE_INITIAL = "initial-reduction"
STAGE_MAIN = "main-loop"

KIND_DROP = "drop"
KIND_COMMIT = "commit"
KIND_PROBE_EMPTY = "probe-empty"

VERDICT_FOUND = "found"
VERDICT_NONE = "none-exists"

REASON_INITIAL_EMPTY = "initial-reduction-empty"
REASON_ALL_PROBES_EMPTY = "all-probes-empty"
REASON_EXHAUSTED = "candidates-exhausted"

# Work bound, in droppability tests of the rescan-from-front cost model
# (``_reduce``'s count), for decide_eds on a connected r-regular graph with n
# vertices.  Proof.  One _reduce over m <= n candidates with k drops counts
# at most m - 1 tests before each drop, one for the dropped vertex and m - k
# at the fixpoint: k*m + m - k <= m^2 <= n^2.  Each round probes at most
# r + 1 candidates, ``first`` and its neighbours in ``cur``, and every round
# but the last commits.  Committed anchors are pairwise at distance >= 3
# (a probe deletes the anchor's distance-2 ball, and anchors come from what
# is left), so their closed neighbourhoods are disjoint and there are at
# most n/(r+1) commits: at most n + r + 1 probes in all.  So work_counter
# <= n^2 + (n + r + 1)*n^2 <= 3n^3 <= 4n^4, since r < n.
WORK_BUDGET_COEFF = 4


def work_budget(n: int) -> int:
    """An upper bound on ``decide_eds``'s work_counter for an n-vertex graph
    (proof above)."""
    return WORK_BUDGET_COEFF * n**4


class TraceEvent(NamedTuple):
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


class Decision(NamedTuple):
    """Verdict of the decision procedure plus its full audit trail.

    ``certificate`` is set for 'found' (always verified), ``reason`` for
    'none-exists'.
    ``work_counter`` counts droppability tests across the whole run in the
    rescan-from-front cost model (see ``_reduce``): the initial reduction's
    count plus the count of every probe, rejected ones included.
    """

    verdict: str
    certificate: EdsCertificate | None
    reason: str | None
    trace: tuple[TraceEvent, ...]
    work_counter: int

    @property
    def committed(self) -> tuple[int, ...]:
        return tuple(e.vertex for e in self.trace if e.kind == KIND_COMMIT)


class _Scan(NamedTuple):
    """The kernel's tables, with every mask over vertex ids: vertex v is
    bit v.  ``far[v]``: the vertices at distance exactly 2 from v, in
    ascending id.  ``reach[x]``: every v with some c in ``far[v]`` and x in
    N(c), so every v whose drop test reads x.  ``nbr[a]``: N(a).
    ``ball[a]``: N(a) and the distance-2 vertices of a.
    """

    far: tuple[tuple[int, ...], ...]
    reach: tuple[int, ...]
    nbr: tuple[int, ...]
    ball: tuple[int, ...]


def _union(masks: Sequence[int], members: Iterable[int]) -> int:
    """The OR of ``masks[u]`` over ``members``."""
    m = 0
    for u in members:
        m |= masks[u]
    return m


def _mask(vertices: Iterable[int]) -> int:
    """The mask with bit v set for each of the distinct ``vertices``."""
    return sum(map((1).__lshift__, vertices))


def _bits(m: int) -> tuple[int, ...]:
    """The set bits of ``m``, low to high."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


def _scan(g: Graph) -> _Scan:
    """The tables for ``g``, all built from the neighbour masks: the
    distance-2 mask of v is the OR of N(u) over u in N(v), less N(v) and v
    itself."""
    bit = [1 << v for v in range(g.n)]
    nbr = tuple([_union(bit, s) for s in g.adj])
    dist2 = [_union(nbr, s) & ~(m | b) for s, m, b in zip(g.adj, nbr, bit)]
    return _Scan(tuple(map(_bits, dist2)),
                 tuple([_union(dist2, s) for s in g.adj]), nbr,
                 tuple(map(int.__or__, nbr, dist2)))


def _reduce(t: _Scan, cur: int, stale: int, log: list[int]) -> tuple[int, int]:
    """Drop filter to fixpoint on the candidate mask ``cur``; returns the
    fixpoint and the number of droppability tests a rescan from the front
    after every drop makes.  Each drop appends its vertex and witness to
    ``log``, which starts empty, so ``len(log) // 2`` drops in all;
    ``_events`` turns a log into trace events, which only the callers that
    keep the drops pay for.

    The fixpoint does not depend on the scan order, only the drop log does:
    the fixpoint of a relabelled copy of g, scanned in its ascending ids, is
    the relabelled fixpoint.  Proof.  Droppability is monotone: v is
    droppable in A when some row N(c) - N(v) of v is disjoint from A, and a
    row disjoint from A is disjoint from every B with v in B and B a subset
    of A.  Let v1..vk be the drops of one scan from A, ending at F1, and let
    F2 be any fixed point reached from A by another scan.  By induction on
    i, v1..vi-1 are not in F2, so F2 is a subset of A - {v1..vi-1}, in which
    vi is droppable; if vi were in F2 it would be droppable in F2, which is
    a fixed point, so vi is not in F2 either.  Hence F2 is a subset of
    F1 = A - {v1..vk}, and by symmetry F1 = F2.

    Only the vertices in ``stale`` can be droppable: all of ``cur``, or,
    when ``cur`` is a fixpoint less some deleted vertices, the ones whose
    rows N(c) - N(v) meet the deleted ones.  The loop tests the lowest stale
    vertex v: it takes ``rest`` = ``cur`` - N(v) once, and one AND per c in
    ``far[v]``, in ascending c, finds whether N(c) misses ``rest``.  A drop
    logs the first such c as the witness and makes stale the candidates
    whose rows hold v.  Droppability is monotone, so a vertex outside
    ``stale`` stays undroppable, and the lowest stale droppable vertex is
    the rescan's next drop, with the same witness.  The rescan tests every
    candidate below that drop, and at the fixpoint every candidate: the
    count is computed from those positions.
    """
    far, nbr, reach = t.far, t.nbr, t.reach
    stale &= cur
    tests = 0
    while stale:
        low = stale & -stale
        v = low.bit_length() - 1
        rest = cur & ~nbr[v]
        for c in far[v]:
            if not nbr[c] & rest:
                cur ^= low
                tests += (cur & (low - 1)).bit_count()
                log += v, c
                stale |= reach[v] & cur
                break
        stale ^= low
    # each drop also tests the dropped vertex itself
    return cur, tests + len(log) // 2 + cur.bit_count()


def _probe(g: Graph, t: _Scan, cur: int, anchor: int, log: list[int]) -> tuple[int, int]:
    """Delete ``ball[anchor]`` from the fixpoint ``cur`` and reduce; only
    the vertices whose rows meet the ball are stale."""
    stale = _union(t.reach, g.adj[anchor]) | _union(t.reach, t.far[anchor])
    return _reduce(t, cur & ~t.ball[anchor], stale, log)


def _events(log: list[int], stage: str) -> list[TraceEvent]:
    """The 'drop' events of a ``_reduce`` log, labelled ``stage``."""
    pairs = iter(log)
    return [TraceEvent(KIND_DROP, v, c, stage) for v, c in zip(pairs, pairs)]


def _candidates(g: Graph, a: VertexSet) -> tuple[_Scan, int]:
    """The tables and the mask of ``a``.  The kernel indexes its tables
    without checks, where -1 would alias n - 1, so stray ids are rejected
    here: checking ``min(a)`` and ``max(a)`` checks every id."""
    if a:
        for v in (min(a), max(a)):
            if not 0 <= v < g.n:
                raise ValueError(f"vertex id {v} out of range for n={g.n}")
    return _scan(g), _mask(a)


def reduce_to_fixpoint(g: Graph, a: VertexSet) -> tuple[frozenset[int], tuple[TraceEvent, ...]]:
    """The fixpoint of ``a`` under the drop filter, scanned in ascending
    id, and its drop events.

    No CLI path calls it: ``bench/spans.py`` holds it, by wrapping
    ``reduction.reduce_to_fixpoint`` by name, and it goes when that span
    does.  ``probe_each`` gives the same fixpoint and drops.
    """
    t, cur = _candidates(g, a)
    log: list[int] = []
    cur, _ = _reduce(t, cur, cur, log)
    return frozenset(_bits(cur)), tuple(_events(log, STAGE_INITIAL))


def probe(g: Graph, a: VertexSet, anchor: int) -> frozenset[int]:
    """Delete N(anchor) and the distance-2 vertices of anchor from ``a``,
    reduce to a fixpoint, and return the survivors.

    ``a`` must be a fixpoint of the drop filter: only the vertices whose
    rows meet the deleted ball are tested, so a droppable vertex of ``a``
    elsewhere would survive.

    No CLI path calls it: ``bench/spans.py`` holds it, by wrapping
    ``reduction.probe`` by name, and it goes when that span does.
    ``probe_each`` gives every anchor's survivors.
    """
    if anchor not in a:
        raise ValueError(f"anchor {anchor} is not in the candidate set")
    t, cur = _candidates(g, a)
    cur, _ = _probe(g, t, cur, anchor, [])
    return frozenset(_bits(cur))


def probe_each(g: Graph, a: VertexSet) -> tuple[tuple[TraceEvent, ...], dict[int, tuple[int, ...]]]:
    """Reduce ``a`` to its fixpoint F and probe every vertex of F, from one
    build of the tables.

    Returns the drop events of the reduction, in order and labelled
    'initial-reduction', and for each x of F in ascending id the survivors
    of x's probe as a tuple in ascending id.  The probe of x deletes N(x)
    and the distance-2 vertices of x from F and reduces to a fixpoint again.
    Empty survivors certify that x belongs to no efficient dominating set
    contained in F, so in none contained in ``a`` (sound); nonempty
    survivors decide nothing by themselves.
    """
    t, cur = _candidates(g, a)
    log: list[int] = []
    base, _ = _reduce(t, cur, cur, log)
    probes = {x: _bits(_probe(g, t, base, x, [])[0]) for x in _bits(base)}
    return tuple(_events(log, STAGE_INITIAL)), probes


def precondition_error(g: Graph) -> str | None:
    """Why ``decide_eds`` refuses g: 'empty-graph', 'not-regular' or
    'disconnected'; None if it runs on g."""
    if g.n == 0:
        return "empty-graph"
    if is_regular(g) is None:
        return "not-regular"
    if not is_connected(g):
        return "disconnected"
    return None


def decide_eds(g: Graph) -> Decision:
    """Run the decision procedure.

    Every vertex scan and anchor choice follows ascending id; another order
    is ascending id on a relabelled copy of g.  Raises a ValueError naming
    ``precondition_error(g)`` if that is set.  'found' verdicts carry a
    verified certificate.

    The candidates and the committed anchors are masks over vertex ids, so
    the lowest uncommitted bit is the next anchor.

    Theorem: when every candidate is committed, the final set F is an
    efficient dominating set of the connected graph g.  Proof.  F is
    nonempty: the run returns 'none-exists' unless the initial reduction
    and every committed probe leave candidates.  F holds only committed
    anchors, since the loop ends when none is left uncommitted.  These are
    pairwise at distance >= 3, since each probe deletes its anchor's
    distance-2 ball and later anchors come from what is left; so their
    closed neighbourhoods are disjoint.  F is a fixpoint of the drop filter,
    so for v in F and each c at distance 2 from v, N(c) - N(v) meets F:
    every vertex at distance 2 from some member of F has a neighbour in F.
    Were some vertex at distance >= 2 from F, the vertex at distance 2 from
    F on a shortest path to it (g is connected) would be one of those, at
    distance 1.  So F dominates, and its closed neighbourhoods partition V.
    Regularity is not used.  The certificate is still verified: a failure
    is a defect in this module, raised, not a verdict.
    """
    refusal = precondition_error(g)
    if refusal:
        raise ValueError(f"decision procedure refuses the graph: {refusal}")

    t = _scan(g)
    log: list[int] = []
    everything = (1 << g.n) - 1
    cur, work = _reduce(t, everything, everything, log)
    trace = _events(log, STAGE_INITIAL)
    if not cur:
        return Decision(VERDICT_NONE, None, REASON_INITIAL_EMPTY, tuple(trace), work)

    committed = 0
    while uncommitted := cur & ~committed:
        head = (uncommitted & -uncommitted).bit_length() - 1
        # head, then N(head) & cur, which lies above head: lower vertices of
        # cur are anchors, whose probes removed N(anchor)
        cands = 1 << head | t.nbr[head] & cur
        while cands:
            low = cands & -cands
            cands ^= low
            cand = low.bit_length() - 1
            drops: list[int] = []  # trace events only if this probe commits
            survivors, tests = _probe(g, t, cur, cand, drops)
            work += tests
            if survivors:
                break
            trace.append(TraceEvent(KIND_PROBE_EMPTY, cand, None, STAGE_MAIN))
        else:
            reason = REASON_EXHAUSTED if committed else REASON_ALL_PROBES_EMPTY
            return Decision(VERDICT_NONE, None, reason, tuple(trace), work)
        trace.append(TraceEvent(KIND_COMMIT, cand, None, STAGE_MAIN))
        trace += _events(drops, STAGE_MAIN)
        committed |= low
        cur = survivors

    final = frozenset(_bits(cur))
    if not verify_eds(g, final):  # not an assert statement: -O strips those
        raise AssertionError(f"final set {sorted(final)} is not an EDS")
    return Decision(VERDICT_FOUND, EdsCertificate(final), None, tuple(trace), work)
