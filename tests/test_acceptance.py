"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria cover oracle cross-validation, structural laws, soundness of the
provable directions, the at-scale claim audit, the polynomial work budget,
and byte-stable determinism.  Timings are asserted with the stated limits.
"""

from __future__ import annotations

import json
import time

import pytest

import eds_audit.cli as cli
from eds_audit.eds import verify_eds
from eds_audit.generators import gen_cycle, gen_hypercube, gen_petersen
from eds_audit.graph import encode_graph6
from eds_audit.oracle import solve_exact
from eds_audit.records import CompareRecord
from eds_audit.reduction import (
    VERDICT_FOUND, VERDICT_NONE, WORK_BUDGET_COEFF, decide_eds, work_budget,
)

from .conftest import criterion1_corpus, replay_mismatches, solve_naive


def report(number: int, ok: bool, elapsed: float, note: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"ACCEPTANCE {number}: {status} in {elapsed:.2f}s{suffix}", flush=True)


@pytest.fixture(scope="module")
def corpus():
    return criterion1_corpus()


@pytest.fixture(scope="module")
def cubic_sweep(tmp_path_factory):
    """Criterion 6 sweep, run twice with --deterministic for criterion 8."""
    base = tmp_path_factory.mktemp("sweep")
    argv_tail = []
    for n in (8, 10, 12, 14, 16, 18, 20):
        argv_tail += ["--gen", f"random-regular:n={n},r=3,seed=1..143"]
    runs = []
    t0 = time.perf_counter()
    for i in range(2):
        out = base / f"run{i}.jsonl"
        ce_dir = base / f"ces{i}"
        code = cli.main(["compare", "--deterministic", "--out", str(out),
                         "--save-counterexamples", str(ce_dir)] + argv_tail)
        runs.append((code, out, ce_dir))
    return runs, time.perf_counter() - t0


def test_criterion_1_oracle_cross_validation(corpus):
    t0 = time.perf_counter()
    assert len(corpus) >= 300
    for g in corpus:
        naive = solve_naive(g)
        exact = solve_exact(g, enumerate_all=True)
        assert naive.has_eds == exact.has_eds
        assert naive.solutions == exact.solutions
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 60, elapsed, f"{len(corpus)} graphs, exact agreement")
    assert elapsed < 60


def test_criterion_2_cycle_law():
    t0 = time.perf_counter()
    for n in range(3, 31):
        g = gen_cycle(n)
        expected = n % 3 == 0
        if n <= 12:
            assert solve_naive(g).has_eds == expected
        assert solve_exact(g).has_eds == expected
        verdict = decide_eds(g).verdict
        assert (verdict == VERDICT_FOUND) == expected, n
    elapsed = time.perf_counter() - t0
    report(2, elapsed < 10, elapsed, "n=3..30, EDS iff 3 | n")
    assert elapsed < 10


def test_criterion_3_structured_positives():
    t0 = time.perf_counter()
    q3 = gen_hypercube(3)
    assert verify_eds(q3, frozenset({0b000, 0b111}))
    # 16-word single-error-correcting code built from parity checks: bit i
    # participates in the checks written in the binary form of i+1
    q7 = gen_hypercube(7)
    code_words = frozenset(
        x for x in range(128)
        if _syndrome(x) == 0)
    assert len(code_words) == 16
    assert verify_eds(q7, code_words)
    assert decide_eds(q3).verdict == VERDICT_FOUND
    elapsed = time.perf_counter() - t0
    report(3, elapsed < 5, elapsed, "cube codes verified")
    assert elapsed < 5


def _syndrome(x: int) -> int:
    s = 0
    for i in range(7):
        if x >> i & 1:
            s ^= i + 1
    return s


def test_criterion_4_structured_negative():
    t0 = time.perf_counter()
    pet = gen_petersen(5, 2)
    assert pet.n % (len(pet.adj[0]) + 1) != 0  # no EDS size n/(r+1)
    assert not solve_exact(pet).has_eds
    assert decide_eds(pet).verdict == VERDICT_NONE
    elapsed = time.perf_counter() - t0
    report(4, elapsed < 1, elapsed, "Petersen graph")
    assert elapsed < 1


def test_criterion_5_soundness_audit(corpus, tmp_path):
    t0 = time.perf_counter()
    corpus_file = tmp_path / "corpus.g6"
    corpus_file.write_text("".join(encode_graph6(g) + "\n" for g in corpus))
    out = tmp_path / "audit.jsonl"
    code = cli.main(["audit-facts", str(corpus_file), "--out", str(out)])
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    audits = [r for r in rows if r["kind"] == "audit"]
    assert len(audits) == len(corpus)
    filter_bad = sum(len(r["filter_soundness_violations"]) for r in audits)
    probe_bad = sum(len(r["probe_soundness_violations"]) for r in audits)
    assert filter_bad == 0 and probe_bad == 0
    elapsed = time.perf_counter() - t0
    report(5, elapsed < 120, elapsed,
           f"{len(audits)} graphs, zero soundness violations")
    assert elapsed < 120


def test_criterion_6_claim_audit_at_scale(cubic_sweep):
    runs, elapsed = cubic_sweep
    (code, out, ce_dir), _ = runs
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    records = [r for r in rows if r["kind"] == "record"]
    assert len(records) >= 1000
    assert all(set(r) == {"kind", *CompareRecord._fields} for r in records)
    assert all(8 <= r["n"] <= 20 and r["r"] == 3 for r in records)
    flagged = [r for r in records if not r["agree"]]
    ce_files = sorted(ce_dir.glob("counterexample-*.json")) if ce_dir.exists() else []
    assert len(ce_files) == len({r["graph6"] for r in flagged})
    for f in ce_files:
        assert replay_mismatches(f) == [], f
    agreement = sum(r["agree"] for r in records) / len(records)
    report(6, elapsed < 600, elapsed,
           f"{len(records)} records, agreement {agreement:.3f}, "
           f"{len(ce_files)} counterexamples replayed")
    assert elapsed < 600


def test_criterion_7_work_budget(cubic_sweep):
    runs, _ = cubic_sweep
    t0 = time.perf_counter()
    (_, out, _), _ = runs
    violations = []
    for line in out.read_text().splitlines():
        row = json.loads(line)
        if row["kind"] == "record" and row["work_counter"] > work_budget(row["n"]):
            violations.append(row["graph6"])
    assert violations == []
    elapsed = time.perf_counter() - t0
    report(7, True, elapsed, f"all runs within {WORK_BUDGET_COEFF}*n^4")


def test_criterion_8_determinism(cubic_sweep, tmp_path):
    t0 = time.perf_counter()
    runs, _ = cubic_sweep
    (_, out_a, _), (_, out_b, _) = runs
    assert out_a.read_bytes() == out_b.read_bytes()

    for name, argv_tail in (
        ("cycles", [x for n in range(3, 31) for x in ("--gen", f"cycle:n={n}")]),
        ("petersen", ["--gen", "generalized-petersen:n=5,k=2"]),
    ):
        outputs = []
        for i in range(2):
            out = tmp_path / f"{name}{i}.jsonl"
            code = cli.main(["compare", "--deterministic", "--out", str(out)]
                            + argv_tail)
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], name
    elapsed = time.perf_counter() - t0
    report(8, True, elapsed, "byte-identical reruns")
