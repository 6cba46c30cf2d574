"""JSONL record schemas, canonical JSON output, and counterexample files.

Every row the harness emits is one canonical JSON line, so consumers can
parse each line independently.  The rows of compare and audit-facts carry a
"kind" field (record, audit, skip, summary); decide and oracle rows, and
every "error" row, carry none.
"""

import json
from pathlib import Path
from typing import NamedTuple

from .oracle import OracleReport
from .reduction import (
    KIND_DROP, KIND_PROBE_EMPTY, STAGE_INITIAL, STAGE_MAIN, VERDICT_FOUND, Decision,
)

FLAG_PROBE_CONVERSE = "probe-converse-violation"
FLAG_EXHAUSTED = "candidates-exhausted"

KIND_RECORD = "record"
KIND_SKIP = "skip"
KIND_AUDIT = "audit"
KIND_SUMMARY = "summary"


# json.dumps with these arguments builds a new encoder per call; one shared
# encoder writes the same bytes
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def json_line(doc: dict) -> str:
    """Canonical one-line JSON: sorted keys, no whitespace."""
    return _CANONICAL.encode(doc)


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
        doc["trace"] = [e._asdict() for e in decision.trace]
    return doc


def oracle_report_doc(graph6: str, report: OracleReport) -> dict:
    """The JSON document cmd-oracle prints for one graph (timing-free)."""
    return {**report._asdict(), "graph6": graph6,
            "solutions": [sorted(s) for s in report.solutions]}


def save_counterexample(directory: Path, record: CompareRecord,
                        decide_doc: dict, oracle_doc: dict) -> Path:
    """Persist everything needed to replay one disagreement: ``decide --trace``
    and ``oracle --max-n N`` on its graph6 reprint the two saved documents.
    The directory must exist."""
    import hashlib  # loaded here: only counterexample files need it
    digest = hashlib.sha256(record.graph6.encode("ascii")).hexdigest()[:16]
    path = directory / f"counterexample-{digest}.json"
    payload = {
        "graph6": record.graph6,
        "genspec": record.genspec,
        "record": record.to_json_dict(),
        "decide": decide_doc,
        "oracle": oracle_doc,
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
    return path


def compute_agree(decide_verdict: str, oracle_has_eds: bool) -> bool:
    return (decide_verdict == VERDICT_FOUND) == oracle_has_eds
