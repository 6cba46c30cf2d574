"""JSONL record schemas, canonical JSON output, and counterexample files.

Every row the harness emits is one canonical JSON line carrying a "kind"
field, so consumers can parse each line independently.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .graph import parse_graph6
from .oracle import OracleReport, solve_exact
from .reduction import (
    KIND_DROP, KIND_PROBE_EMPTY, STAGE_INITIAL, STAGE_MAIN, VERDICT_FOUND,
    Decision, decide_eds,
)

FLAG_PROBE_CONVERSE = "probe-converse-violation"
FLAG_EXHAUSTED = "candidates-exhausted"

KIND_RECORD = "record"
KIND_SKIP = "skip"
KIND_AUDIT = "audit"
KIND_SUMMARY = "summary"


def json_line(doc: dict) -> str:
    """Canonical one-line JSON: sorted keys, no whitespace."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class CompareRecord(NamedTuple):
    """One comparison row: both verdicts for one graph plus audit flags."""

    graph6: str
    n: int
    r: int
    decide_verdict: str
    decide_reason: str | None
    oracle_has_eds: bool
    agree: bool
    certificate_valid: bool | None
    claim_audit_flags: tuple[str, ...]
    work_counter: int
    elapsed_decide: float
    elapsed_oracle: float
    genspec: str | None

    def to_json_dict(self) -> dict:
        doc = _row_dict(KIND_RECORD, self)
        doc["claim_audit_flags"] = list(self.claim_audit_flags)
        return doc


class SkipRecord(NamedTuple):
    """A graph the harness did not process, and why."""

    graph6: str
    n: int
    reason: str
    genspec: str | None

    def to_json_dict(self) -> dict:
        return _row_dict(KIND_SKIP, self)


def _row_dict(kind: str, record) -> dict:
    doc = record._asdict()
    doc["kind"] = kind
    return doc


def decide_report_doc(graph6: str, decision: Decision, *, include_trace: bool = False) -> dict:
    """The JSON document cmd-decide prints for one graph (timing-free so
    replays can compare bytes)."""
    commits = list(decision.committed)
    doc = {
        "graph6": graph6,
        "verdict": decision.verdict,
        "reason": decision.reason,
        "certificate": (sorted(decision.certificate.members)
                        if decision.certificate else None),
        # always None: 'found' is a theorem (decide_eds); pinned schema
        "final_set": None,
        "work_counter": decision.work_counter,
        "trace_summary": {
            "initial_drops": sum(1 for e in decision.trace
                                 if e.kind == KIND_DROP and e.stage == STAGE_INITIAL),
            "loop_drops": sum(1 for e in decision.trace
                              if e.kind == KIND_DROP and e.stage == STAGE_MAIN),
            "probe_empties": sum(1 for e in decision.trace
                                 if e.kind == KIND_PROBE_EMPTY),
            "commits": commits,
        },
    }
    if include_trace:
        doc["trace"] = decision.trace_json()
    return doc


def oracle_report_doc(graph6: str, report: OracleReport) -> dict:
    """The JSON document cmd-oracle prints for one graph (timing-free)."""
    doc = report.to_json_dict()
    doc["graph6"] = graph6
    return doc


def counterexample_path(directory: Path, graph6: str) -> Path:
    import hashlib  # loaded here: only counterexample files need it
    digest = hashlib.sha256(graph6.encode("ascii")).hexdigest()[:16]
    return directory / f"counterexample-{digest}.json"


def save_counterexample(directory: Path, graph6: str, record: CompareRecord,
                        decide_doc: dict, oracle_doc: dict) -> Path:
    """Persist everything needed to replay one disagreement."""
    directory.mkdir(parents=True, exist_ok=True)
    path = counterexample_path(directory, graph6)
    payload = {
        "graph6": graph6,
        "genspec": record.genspec,
        "record": record.to_json_dict(),
        "decide": decide_doc,
        "oracle": oracle_doc,
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
    return path


def load_counterexample(path: Path) -> dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    for field in ("graph6", "record", "decide", "oracle"):
        if field not in payload:
            raise ValueError(f"counterexample file missing {field!r}")
    return payload


def replay_counterexample(path: Path) -> tuple[bool, str]:
    """Re-run both solvers on a saved graph and compare against the stored
    documents byte-for-byte (as canonical JSON lines)."""
    payload = load_counterexample(path)
    g = parse_graph6(payload["graph6"])
    fresh_decide = decide_report_doc(payload["graph6"], decide_eds(g),
                                     include_trace="trace" in payload["decide"])
    # the saved oracle document proves the search already ran at this size
    fresh_oracle = oracle_report_doc(payload["graph6"], solve_exact(g, max_n=g.n))
    if json_line(fresh_decide) != json_line(payload["decide"]):
        return False, "decide output differs from the saved document"
    if json_line(fresh_oracle) != json_line(payload["oracle"]):
        return False, "oracle output differs from the saved document"
    return True, "replay matches"


def compute_agree(decide_verdict: str, oracle_has_eds: bool) -> bool:
    return (decide_verdict == VERDICT_FOUND) == oracle_has_eds
