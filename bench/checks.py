"""Correctness checks on the CLI's output rows, written independently of the
package under test (own graph6 decoder, own closed-neighbourhood partition
check), plus the pins recorded at the default seed.

A graph fails when its row is missing or errored, a ``found`` certificate is
not a partition of V into closed neighbourhoods, a verdict contradicts a
known answer, the oracle and ``decide`` are reported to agree when they do
not, an audit row is unsound, its bytes differ between passes of one run, or
its pinned input or pinned outcome changed.  A ``none-exists`` or
``discrepancy`` verdict on a random graph the oracle solves is a finding the
harness exists to record, not a failure: the no-backtracking procedure is
not complete, and such rows occur at some seeds (the first in cubic-sweep is
random-regular:n=20,r=3,seed=251).  Pinned rows still fail if their
agreement changes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from workloads import known_eds

PINS_PATH = Path(__file__).with_name("pins.json")


def decode_graph6(text: str) -> list[set[int]]:
    """Adjacency sets of one graph6 string (no header)."""
    data = [b - 63 for b in text.strip().encode("ascii")]
    if data[0] != 63:
        n, pos = data[0], 1
    elif data[1] != 63:
        n, pos = (data[1] << 12) | (data[2] << 6) | data[3], 4
    else:
        n = 0
        for x in data[2:8]:
            n = (n << 6) | x
        pos = 8
    adj: list[set[int]] = [set() for _ in range(n)]
    bit = 0
    for j in range(1, n):
        for i in range(j):
            if data[pos + bit // 6] >> (5 - bit % 6) & 1:
                adj[i].add(j)
                adj[j].add(i)
            bit += 1
    return adj


def is_closed_partition(adj: list[set[int]], members: list[int]) -> bool:
    """True iff the closed neighbourhoods of ``members`` partition V."""
    covered: set[int] = set()
    for v in members:
        if not 0 <= v < len(adj):
            return False
        ball = adj[v] | {v}
        if covered & ball:
            return False
        covered |= ball
    return len(covered) == len(adj)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_pins() -> dict:
    """Per-workload pins recorded by bench/pin.py at the default seed."""
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))["workloads"]


@dataclass
class GraphInfo:
    """What the benchmark knows about input i before the program runs."""

    spec: str
    graph6: str | None         # None for cubic-sweep, whose graphs the CLI generates
    truth: bool | None = None  # EDS exists, by a known law or the oracle


@dataclass
class PassCheck:
    failed: set[int] = field(default_factory=set)
    reasons: list[str] = field(default_factory=list)
    findings: list[str] = field(default_factory=list)

    def fail(self, i: int, spec: str, why: str) -> None:
        self.failed.add(i)
        if len(self.reasons) < 20:
            self.reasons.append(f"{spec}: {why}")


def split_output(text: str) -> tuple[list[str], dict | None]:
    """Row lines and the summary document of one pass's stdout."""
    rows, summary = [], None
    for line in text.splitlines():
        if '"kind":"summary"' in line:
            summary = json.loads(line)
        elif line:
            rows.append(line)
    return rows, summary


def projection(subcommand: str, row: dict, certificate) -> dict:
    """The outcome of one row that must not change at a pinned spec.

    ``work_counter`` is left out on purpose: a reduction that tests fewer
    vertices legitimately changes it.
    """
    if subcommand == "compare":
        return {"verdict": row["decide_verdict"], "reason": row["decide_reason"],
                "oracle_has_eds": row["oracle_has_eds"], "agree": row["agree"],
                "certificate": certificate}
    if subcommand == "decide":
        return {"verdict": row["verdict"], "reason": row["reason"],
                "certificate": row["certificate"]}
    return {key: row[key] for key in (
        "eds_count", "sound", "filter_soundness_violations",
        "probe_soundness_violations", "probe_converse_violations",
        "confluence_violations")}


def check_rows(subcommand: str, infos: list[GraphInfo], rows: list[str],
               certificates: dict[int, list[int]], pins: dict,
               reference: tuple[list[str], set[int]] | None, check: PassCheck) -> None:
    """Check one pass's rows against the inputs.

    ``certificates`` maps input index to the certificate decide found, for
    compare rows (which do not carry it).  ``reference`` is the first pass's
    rows and failed indices: a later pass must repeat those rows byte for
    byte, and a repeated row fails exactly when it failed there.
    """
    for i, info in enumerate(infos):
        if i >= len(rows):
            check.fail(i, info.spec, "row missing")
        elif reference is None:
            _check_row(subcommand, i, info, json.loads(rows[i]), certificates.get(i),
                       pins, check)
        elif i >= len(reference[0]) or reference[0][i] != rows[i]:
            check.fail(i, info.spec, "row bytes differ from the run's first pass")
        elif i in reference[1]:
            check.failed.add(i)
    if len(rows) > len(infos):
        check.fail(len(infos), "output", f"{len(rows) - len(infos)} extra rows")


def _check_row(subcommand, i, info, row, certificate, pins, check) -> None:
    fail = lambda why: check.fail(i, info.spec, why)  # noqa: E731
    if "error" in row or row.get("kind") == "skip":
        return fail(f"errored row {row}")
    if info.graph6 is not None and row.get("graph6") != info.graph6:
        return fail("row is for another graph")
    if info.graph6 is None and row.get("genspec") != info.spec:
        return fail(f"row is for {row.get('genspec')!r}")
    adj = decode_graph6(row["graph6"])
    n, r = len(adj), len(adj[0])
    law = known_eds(info.spec, n, r)
    truth = info.truth if law is None else law

    if subcommand == "audit-facts":
        if not row["sound"]:
            fail("soundness violation")
        if law is not None and (row["eds_count"] > 0) != law:
            fail(f"oracle counts {row['eds_count']} EDS, known answer {law}")
        cert = None
    elif subcommand == "decide":
        cert = row["certificate"]
        _check_verdict(row["verdict"], cert, adj, truth, law, fail, check, info)
    else:
        verdict, has = row["decide_verdict"], row["oracle_has_eds"]
        if law is not None and has != law:
            fail(f"oracle says {has}, known answer {law}")
        if row["agree"] != ((verdict == "found") == has and verdict != "discrepancy"):
            fail("agree field does not match the verdicts")
        if verdict == "found" and row["certificate_valid"] is not True:
            fail("found row without a valid certificate")
        cert = certificate
        _check_verdict(verdict, cert, adj, has if law is None else law, law,
                       fail, check, info)

    pinned = pins.get(info.spec)
    if pinned is not None:
        pinned_g6, pinned_outcome = pinned
        if digest(row["graph6"]) != pinned_g6:
            fail("generated input differs from the pinned one")
        elif digest(projection(subcommand, row, cert)) != pinned_outcome:
            fail("outcome differs from the pinned one")


def _check_verdict(verdict, cert, adj, truth, law, fail, check, info) -> None:
    if verdict == "found":
        if cert is None or not is_closed_partition(adj, cert):
            fail("certificate is not a closed-neighbourhood partition")
        elif truth is False:
            fail("found an EDS where none exists")
    elif verdict not in ("none-exists", "discrepancy"):
        fail(f"unknown verdict {verdict!r}")
    elif law is True:
        fail(f"{verdict} where an EDS is known to exist")
    elif truth is True and len(check.findings) < 20:
        check.findings.append(f"{info.spec}: {verdict} but the oracle finds an EDS")
