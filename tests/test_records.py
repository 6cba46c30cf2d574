"""Row documents, canonical JSON, and counterexample save/replay."""

from __future__ import annotations

import hashlib
import json

from eds_audit.graph import encode_graph6
from eds_audit.oracle import solve_exact
from eds_audit.records import (
    CompareRecord, compute_agree, decide_report_doc, json_line,
    oracle_report_doc, save_counterexample,
)
from eds_audit.reduction import decide_eds

from .conftest import cycle, petersen, replay_mismatches


def make_record(**overrides) -> CompareRecord:
    fields = dict(
        graph6="EhEG", n=6, r=2, decide_verdict="found", decide_reason=None,
        oracle_has_eds=True, agree=True, certificate_valid=True,
        claim_audit_flags=(), work_counter=17, elapsed_decide=0.0,
        elapsed_oracle=0.0, genspec="cycle:n=6")
    fields.update(overrides)
    return CompareRecord(**fields)


def test_compute_agree():
    assert compute_agree("found", True)
    assert compute_agree("none-exists", False)
    assert not compute_agree("found", False)
    assert not compute_agree("none-exists", True)


def test_decide_report_doc_shape(c6):
    doc = decide_report_doc("EhEG", decide_eds(c6))
    assert doc["verdict"] == "found"
    assert doc["certificate"] == [0, 3]
    assert doc["trace_summary"]["commits"] == [0, 3]
    assert "trace" not in doc
    with_trace = decide_report_doc("EhEG", decide_eds(c6), include_trace=True)
    assert isinstance(with_trace["trace"], list)
    json.dumps(with_trace)


def test_oracle_report_doc_is_timing_free(c6):
    doc = oracle_report_doc("EhEG", solve_exact(c6))
    assert set(doc) == {"graph6", "has_eds", "solutions", "nodes_explored"}
    assert doc["has_eds"] is True


def test_counterexample_save_and_replay(tmp_path):
    g = petersen()
    graph6 = encode_graph6(g)
    record = make_record(graph6=graph6, n=10, r=3, decide_verdict="none-exists",
                         decide_reason="all-probes-empty", oracle_has_eds=False,
                         agree=False, certificate_valid=None, genspec=None)
    decide_doc = decide_report_doc(graph6, decide_eds(g), include_trace=True)
    oracle_doc = oracle_report_doc(graph6, solve_exact(g))
    path = save_counterexample(tmp_path, record, decide_doc, oracle_doc)
    digest = hashlib.sha256(graph6.encode("ascii")).hexdigest()[:16]
    assert path == tmp_path / f"counterexample-{digest}.json"

    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["graph6"] == graph6
    assert payload["record"] == record.to_json_dict()

    assert replay_mismatches(path) == []


def test_replay_detects_tampering(tmp_path):
    g = cycle(6)
    graph6 = encode_graph6(g)
    record = make_record(graph6=graph6)
    decide_doc = decide_report_doc(graph6, decide_eds(g), include_trace=True)
    oracle_doc = oracle_report_doc(graph6, solve_exact(g))
    path = save_counterexample(tmp_path, record, decide_doc, oracle_doc)
    payload = json.loads(path.read_text())
    payload["decide"]["work_counter"] += 1
    path.write_text(json.dumps(payload))
    assert replay_mismatches(path) == ["decide"]


def test_json_line_is_canonical():
    assert json_line({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
