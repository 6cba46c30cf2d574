"""Per-layer spans for one in-process CLI pass, recorded from outside.

``Tracer.install`` replaces each traced public function by a wrapper in every
``eds_audit`` module that imported it (``verify_eds`` in both ``reduction``
and ``cli``, ``is_connected`` in ``generators``, ``reduction`` and ``cli``,
and so on) and ``uninstall`` restores them.  Nothing called more often than
once per probe is wrapped: ``drop_witness`` runs about 432k times per sweep.

Each span is (name, start, end, parent index, graph id), kept in memory and
written out after the pass.  A span's self time is its duration minus the
part its child spans cover.  Counts come from returned values
(``Decision.work_counter``, ``Decision.trace``, ``OracleReport.nodes_explored``)
and from call counts.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.budget_use_max = 0.0
        self.decisions: dict[int, object] = {}   # graph id -> Decision
        self.graph = -1                           # id of the graph being processed
        self._stack: list[int] = []
        self._ids: dict[str, int] = {}
        self._builds = 0
        self._patches: list[tuple[object, str, object]] = []

    # recording

    def wrap(self, name: str, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append((name,))  # completed when the call returns
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.graph)
            if after is not None:
                after(result, args)
            return result

        return traced

    def decision_for(self, graph6: str):
        """The Decision decide_eds returned for this graph, if it ran.

        Ids are keyed by graph6, so a graph that occurs twice in a sweep
        shares one id.
        """
        return self.decisions.get(self._ids.get(graph6))

    def _innermost(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    # hooks that assign graph ids and take counts

    def _on_parse(self, args) -> None:
        self.counts["graph.parse_graph6_calls"] += 1
        self.graph = self._ids.setdefault(args[0].strip(), len(self._ids))

    def _on_build(self, args) -> None:
        self.graph = self._builds
        self._builds += 1
        self.counts["generators.graphs"] += 1

    def _on_encode(self, result, args) -> None:
        self._ids.setdefault(result, self.graph)

    def _on_decide(self, decision, args) -> None:
        from eds_audit.reduction import KIND_DROP, work_budget
        g = args[0]
        self.counts["reduction.tests"] += decision.work_counter
        self.counts["reduction.drops"] += sum(1 for e in decision.trace if e.kind == KIND_DROP)
        self.budget_use_max = max(self.budget_use_max,
                                  decision.work_counter / work_budget(g.n))
        self.decisions[self.graph] = decision

    def _on_probe(self, result, args) -> None:
        self.counts["reduction.probes"] += 1
        self.counts["reduction.probe_empties"] += not result.survivors

    def _on_solve(self, report, args) -> None:
        self.counts["oracle.calls"] += 1
        self.counts["oracle.nodes"] += report.nodes_explored
        self.counts["oracle.short_circuits"] += report.nodes_explored == 0

    def _on_verify(self, result, args) -> None:
        self.counts["eds.verify_calls"] += 1

    def _on_json_line(self, text, args) -> None:
        self.counts["records.bytes_out"] += len(text) + 1  # _print adds "\n"

    # installation

    def install(self) -> None:
        # cli is imported so that its names are patched too
        from eds_audit import cli, eds, generators, graph, oracle, records, reduction, rng  # noqa: F401

        plan = [
            ("generators.build", generators.GenSpec, "build", self._on_build, None),
            ("rng.rank_permutation", rng, "rank_permutation", None, None),
            ("graph.parse_graph6", graph, "parse_graph6", self._on_parse, None),
            ("graph.encode_graph6", graph, "encode_graph6", None, self._on_encode),
            ("graph.precondition", graph, "is_regular", None, None),
            ("graph.precondition", graph, "is_connected", None, None),
            ("reduction.decide", reduction, "decide_eds", None, self._on_decide),
            ("reduction.probe", reduction, "probe", None, self._on_probe),
            ("reduction.confluence", reduction, "reduce_to_fixpoint", None, None),
            ("eds.verify", eds, "verify_eds", None, self._on_verify),
            ("oracle.solve", oracle, "solve_exact", None, self._on_solve),
            ("records.serialize", records, "json_line", None, self._on_json_line),
            ("records.serialize", records, "decide_report_doc", None, None),
            ("records.serialize", records, "oracle_report_doc", None, None),
            ("records.serialize", records.CompareRecord, "to_json_dict", None, None),
            ("records.serialize", records.SkipRecord, "to_json_dict", None, None),
        ]
        modules = [m for name, m in sys.modules.items()
                   if name == "eds_audit" or name.startswith("eds_audit.")]
        for name, owner, attr, before, after in plan:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, before, after)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._patch(mod, key, wrapper)
        self._patch(rng.SplitMix64, "shuffle", self._count_shuffles(rng.SplitMix64.shuffle))

    def _count_shuffles(self, shuffle):
        counts = self.counts

        def counted(rng_self, items):
            # a shuffle under GenSpec.build is one generator pairing attempt
            if self._innermost() == "generators.build":
                counts["generators.attempts"] += 1
            else:
                counts["rng.shuffles"] += 1
            return shuffle(rng_self, items)

        return counted

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # reporting

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def layer_totals(self) -> tuple[dict[str, float], Counter]:
        """Self seconds and span count per span name."""
        seconds: dict[str, float] = defaultdict(float)
        samples: Counter = Counter()
        for span, own in zip(self.spans, self.self_times()):
            seconds[span[0]] += own
            samples[span[0]] += 1
        return dict(seconds), samples

    def per_graph(self, name: str, graph6: str) -> tuple[float, float]:
        """(self seconds, total seconds) of this graph's ``name`` spans."""
        gid = self._ids.get(graph6)
        own_sum = total = 0.0
        for span, own in zip(self.spans, self.self_times()):
            if span[0] == name and span[4] == gid:
                own_sum += own
                total += span[2] - span[1]
        return own_sum, total

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, graph in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "graph": graph}) + "\n")
