"""End-to-end CLI behavior: subcommands, exit codes, determinism."""

from __future__ import annotations

import io
import json
from dataclasses import replace

import pytest

import eds_audit.cli as cli
from eds_audit import reduction
from eds_audit.generators import gen_random_regular
from eds_audit.graph import Graph, encode_graph6
from eds_audit.records import parse_record_line, replay_counterexample

from .conftest import cycle, path, petersen


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_lines(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def test_decide_literal_graph6(capsys):
    code, out, _ = run(capsys, "decide", "Bw")
    assert code == 0
    doc = out_lines(out)[0]
    assert doc["verdict"] == "found" and doc["certificate"] == [0]


def test_decide_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("Bw\nEhEG\n"))
    code, out, _ = run(capsys, "decide", "-")
    assert code == 0
    docs = out_lines(out)
    assert [d["verdict"] for d in docs] == ["found", "found"]
    assert docs[1]["certificate"] == [0, 3]


def test_decide_edge_list_file(capsys, tmp_path):
    p = tmp_path / "c6.txt"
    p.write_text("6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
    code, out, _ = run(capsys, "decide", str(p), "--format", "edgelist")
    assert code == 0
    doc = out_lines(out)[0]
    assert doc["verdict"] == "found" and len(doc["certificate"]) == 2


def test_decide_precondition_rows(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3\n0 1\n1 2\n")  # path P_3: not regular
    code, out, _ = run(capsys, "decide", str(p), "--format", "edgelist")
    assert code == 2
    assert out_lines(out)[0]["error"] == "not-regular"


def test_decide_parse_error_exit(capsys):
    code, _, err = run(capsys, "decide", "B\x01")
    assert code == 2
    assert "invalid graph6 byte" in err


def test_decide_trace_flag(capsys, pet):
    code, out, _ = run(capsys, "decide", "--trace", encode_graph6(pet))
    assert code == 0
    doc = out_lines(out)[0]
    assert doc["verdict"] == "none-exists"
    assert all(set(e) == {"kind", "vertex", "witness", "stage"} for e in doc["trace"])


def test_oracle_enumerate(capsys):
    code, out, _ = run(capsys, "oracle", "--enumerate", "EhEG")
    assert code == 0
    doc = out_lines(out)[0]
    assert doc["has_eds"] and doc["solutions"] == [[0, 3], [1, 4], [2, 5]]
    assert "elapsed" not in doc


def test_oracle_capacity_exit(capsys):
    code, out, _ = run(capsys, "oracle", "--max-n", "4", "EhEG")
    assert code == 3
    assert out_lines(out)[0]["error"] == "capacity"


def test_gen_deterministic(capsys):
    code1, out1, _ = run(capsys, "gen", "random-regular:n=10,r=3,seed=7")
    code2, out2, _ = run(capsys, "gen", "random-regular:n=10,r=3,seed=7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_cycle_line(capsys):
    code, out, _ = run(capsys, "gen", "cycle:n=6")
    assert code == 0 and out.strip() == encode_graph6(cycle(6))


def test_gen_petersen_spec(capsys):
    code, out, _ = run(capsys, "gen", "generalized-petersen:n=5,k=2")
    assert code == 0 and out.strip() == encode_graph6(petersen())


def test_gen_seed_range(capsys):
    code, out, _ = run(capsys, "gen", "random-regular:n=8,r=3,seed=1..5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0] == encode_graph6(gen_random_regular(8, 3, 1))


def test_gen_seeds_flag(capsys):
    # a seed range is written in the spec; there is no separate --seeds flag
    code, out, _ = run(capsys, "gen", "random-regular:n=8,r=3,seed=1..3")
    assert code == 0 and len(out.strip().splitlines()) == 3
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "random-regular:n=8,r=3", "--seeds", "1..3"])
    assert exc.value.code == 2


def test_gen_reversed_seed_range_is_an_error(capsys):
    # B < A is a typo, not an empty sweep: exit 2 and print nothing
    code, out, err = run(capsys, "gen", "random-regular:n=8,r=3,seed=4..2")
    assert code == 2 and out == "" and "bad seed range" in err
    code, out, _ = run(capsys, "gen", "random-regular:n=8,r=3,seed=4..4")
    assert code == 0 and len(out.strip().splitlines()) == 1


def test_compare_reversed_seed_range_is_an_error(capsys):
    code, out, err = run(capsys, "compare", "--gen", "random-regular:n=10,r=3,seed=5..3")
    assert code == 2 and out == "" and "bad seed range" in err


def test_gen_bad_spec(capsys):
    code, _, err = run(capsys, "gen", "banana:n=2")
    assert code == 2 and "unknown graph family" in err


def test_compare_cycles(capsys, tmp_path):
    out_path = tmp_path / "rows.jsonl"
    argv = ["compare", "--deterministic", "--out", str(out_path)]
    for n in range(3, 31):
        argv += ["--gen", f"cycle:n={n}"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = [parse_record_line(l) for l in out_path.read_text().splitlines()]
    assert len(rows) == 28
    for row in rows:
        assert row.agree
        assert row.oracle_has_eds == (row.n % 3 == 0)
        assert row.elapsed_decide == 0.0
    summary = out_lines(out)[-1]
    assert summary["kind"] == "summary"
    assert summary["records"] == 28 and summary["agreement_rate"] == 1.0


def test_compare_skip_rows(capsys, tmp_path, monkeypatch):
    p = tmp_path / "in.txt"
    p.write_text(encode_graph6(path(3)) + "\n" + encode_graph6(cycle(6)) + "\n")
    code, out, _ = run(capsys, "compare", str(p))
    assert code == 0
    rows = [parse_record_line(l) for l in out.splitlines()[:-1]]
    kinds = [type(r).__name__ for r in rows]
    assert kinds == ["SkipRecord", "CompareRecord"]
    assert rows[0].reason == "not-regular"


def test_compare_capacity_skip_continues(capsys, tmp_path):
    # a graph above the oracle guard becomes a skip row; later graphs and
    # the summary still come out, and the exit code reports the capacity hit
    p = tmp_path / "in.txt"
    p.write_text("".join(encode_graph6(g) + "\n" for g in (cycle(6), cycle(30), cycle(9))))
    code, out, _ = run(capsys, "compare", "--deterministic", "--max-n", "20", str(p))
    assert code == 3
    rows = out_lines(out)
    assert [r["kind"] for r in rows] == ["record", "skip", "record", "summary"]
    assert rows[1]["reason"] == "capacity" and rows[1]["n"] == 30
    assert [rows[0]["n"], rows[2]["n"]] == [6, 9]
    assert rows[3]["total"] == 3 and rows[3]["skips"] == 1


def test_compare_generator_capacity_skip_continues(capsys):
    # r = 6 on 14 vertices exhausts the pairing budget: no graph exists, so
    # the row is a capacity skip, and later specs and the summary still run
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, "compare", "--deterministic", "--jobs", jobs,
                           "--gen", "cycle:n=9",
                           "--gen", "random-regular:n=14,r=6,seed=1",
                           "--gen", "cycle:n=12")
        assert code == 3
        rows = out_lines(out)
        assert [r["kind"] for r in rows] == ["record", "skip", "record", "summary"]
        assert rows[1] == {"kind": "skip", "reason": "capacity", "graph6": "", "n": 14,
                           "genspec": "random-regular:n=14,r=6,seed=1"}
        assert [rows[0]["n"], rows[2]["n"]] == [9, 12]
        assert rows[3]["total"] == 3 and rows[3]["skips"] == 1


def test_compare_work_budget_flag(capsys, monkeypatch):
    # with a tiny budget the harness records the finding instead of crashing
    monkeypatch.setattr(reduction, "work_budget", lambda n: 1)
    monkeypatch.setattr(cli, "work_budget", lambda n: 1)
    code, out, _ = run(capsys, "compare", "--deterministic", "--gen", "cycle:n=6")
    assert code == 0
    row = out_lines(out)[0]
    assert row["work_counter"] > 1
    assert "work-budget-exceeded" in row["claim_audit_flags"]


def test_compare_unwritable_out(capsys, tmp_path):
    code, _, err = run(capsys, "compare", "--out", str(tmp_path / "nope" / "x.jsonl"),
                       "--gen", "cycle:n=6")
    assert code == 2 and "error" in err


def test_compare_counterexample_flow(capsys, tmp_path, monkeypatch):
    # force a disagreement so the save/replay path runs on real outputs
    monkeypatch.setattr(cli, "compute_agree", lambda verdict, has: False)
    ce_dir = tmp_path / "ces"
    out_path = tmp_path / "rows.jsonl"
    code, out, _ = run(capsys, "compare", "--deterministic",
                       "--out", str(out_path),
                       "--save-counterexamples", str(ce_dir),
                       "--gen", "cycle:n=6", "--gen", "cycle:n=7")
    assert code == 0
    files = sorted(ce_dir.glob("counterexample-*.json"))
    assert len(files) == 2
    for f in files:
        ok, message = replay_counterexample(f)
        assert ok, message
    summary = out_lines(out)[-1]
    assert summary["counterexamples"] == 2

    # rerunning the CLI on a saved graph reproduces the stored documents
    # byte-for-byte
    monkeypatch.undo()
    payload = json.loads(files[0].read_text())
    code, out, _ = run(capsys, "decide", "--trace", payload["graph6"])
    assert code == 0
    assert out.splitlines()[0] == json.dumps(
        payload["decide"], sort_keys=True, separators=(",", ":"))
    code, out, _ = run(capsys, "oracle", payload["graph6"])
    assert code == 0
    assert out.splitlines()[0] == json.dumps(
        payload["oracle"], sort_keys=True, separators=(",", ":"))


def test_counterexample_above_default_guard_replays(capsys, tmp_path):
    # GP(68,7) has 136 vertices, past the oracle's default guard of 128; a
    # disagreement saved under a raised --max-n must still replay
    ce_dir = tmp_path / "ces"
    code, _, _ = run(capsys, "compare", "--deterministic", "--max-n", "300",
                     "--save-counterexamples", str(ce_dir),
                     "--gen", "generalized-petersen:n=68,k=7")
    assert code == 0
    [saved] = ce_dir.glob("counterexample-*.json")
    assert replay_counterexample(saved) == (True, "replay matches")


def test_compare_jobs_parallel(capsys, tmp_path):
    # worker processes change timings only: rows come in input order
    spec = "random-regular:n=12,r=3,seed=1..20"
    code, out, _ = run(capsys, "compare", "--deterministic", "--gen", spec)
    assert code == 0
    serial = out_lines(out)[:-1]
    out_path = tmp_path / "rows.jsonl"
    code, _, _ = run(capsys, "compare", "--jobs", "2", "--out", str(out_path), "--gen", spec)
    assert code == 0
    parallel = [json.loads(l) for l in out_path.read_text().splitlines()]
    assert len(serial) == 20
    assert [dict(row, elapsed_decide=0.0, elapsed_oracle=0.0) for row in parallel] == serial


def test_compare_jobs_window_is_bounded():
    window = 2 * cli.COMPARE_WINDOW_PER_JOB
    sizes = [6 + i % 7 for i in range(3 * window)]
    pulled = []

    def inputs():
        for n in sizes:
            pulled.append(n)
            g = cycle(n)
            yield encode_graph6(g), None, g

    results = cli._run_compare(inputs(), True, None, 2)
    first = next(results)
    assert len(pulled) <= window
    rows = [first["row"]] + [r["row"] for r in results]
    assert [row["n"] for row in rows] == pulled == sizes


def test_compare_jobs_rows_before_malformed_line(capsys, tmp_path):
    p = tmp_path / "in.g6"
    p.write_text(encode_graph6(cycle(6)) + "\n" + encode_graph6(cycle(9)) + "\nB\x01\n")
    outputs = []
    for jobs in ("1", "2"):
        code, out, err = run(capsys, "compare", "--deterministic", "--jobs", jobs, str(p))
        assert code == 2 and "line 3:" in err
        outputs.append(out)
    assert [row["n"] for row in out_lines(outputs[1])] == [6, 9]
    assert outputs[1] == outputs[0]


def test_compare_deterministic_byte_identical(capsys, tmp_path):
    paths = []
    for i in range(2):
        out_path = tmp_path / f"run{i}.jsonl"
        code, _, _ = run(capsys, "compare", "--deterministic",
                         "--out", str(out_path),
                         "--gen", "random-regular:n=12,r=3,seed=1..20")
        assert code == 0
        paths.append(out_path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_audit_facts_cycles(capsys, tmp_path):
    out_path = tmp_path / "audit.jsonl"
    argv = ["audit-facts", "--out", str(out_path)]
    for n in range(3, 13):
        argv += ["--gen", f"cycle:n={n}"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = [json.loads(l) for l in out_path.read_text().splitlines()]
    assert len(rows) == 10
    for row in rows:
        assert row["sound"] is True
        assert row["filter_soundness_violations"] == []
        assert row["probe_soundness_violations"] == []
        assert row["confluence_violations"] == []
    summary = out_lines(out)[-1]
    assert summary["sound"] == summary["total"] == 10


def test_audit_facts_capacity(capsys):
    code, out, _ = run(capsys, "audit-facts", "--gen", "cycle:n=25")
    assert code == 3
    rows = out_lines(out)
    assert rows[0]["kind"] == "skip" and rows[0]["reason"] == "capacity"


def test_audit_facts_generator_capacity_skip_continues(capsys):
    code, out, _ = run(capsys, "audit-facts", "--gen", "random-regular:n=14,r=6,seed=1..2",
                       "--gen", "cycle:n=9")
    assert code == 3
    rows = out_lines(out)
    assert [r["kind"] for r in rows] == ["skip", "skip", "audit", "summary"]
    assert [(r["reason"], r["graph6"], r["n"], r["genspec"]) for r in rows[:2]] == [
        ("capacity", "", 14, f"random-regular:n=14,r=6,seed={seed}") for seed in (1, 2)]
    assert rows[2]["n"] == 9 and rows[2]["sound"] is True
    assert rows[3] == {"kind": "summary", "total": 1, "sound": 1}


def audit_c6() -> tuple[str, None, Graph]:
    g = cycle(6)  # solutions {0, 3}, {1, 4}, {2, 5}
    return encode_graph6(g), None, g


def test_audit_reports_a_filter_that_drops_a_solution_vertex():
    # a broken drop rule: an always-disjoint row (2, 0) first in vertex 0's rows
    item = audit_c6()
    g = item[2]
    vars(g)["drop_rows"] = (((2, 0),) + g.drop_rows[0],) + g.drop_rows[1:]
    row = cli._audit_one(item, cli.AUDIT_DEFAULT_MAX_N)
    assert row["sound"] is False
    assert {"vertex": 0, "witness": 2} in row["filter_soundness_violations"]


def test_audit_reports_an_empty_probe_on_a_solution_anchor(monkeypatch):
    # a broken probe: anchor 3 lies in the solution {0, 3}, yet probes empty
    real = cli.probe

    def broken(g, a, anchor, **kwargs):
        result = real(g, a, anchor, **kwargs)
        return replace(result, survivors=frozenset()) if anchor == 3 else result

    monkeypatch.setattr(cli, "probe", broken)
    row = cli._audit_one(audit_c6(), cli.AUDIT_DEFAULT_MAX_N)
    assert row["sound"] is False
    assert row["filter_soundness_violations"] == []
    assert row["probe_soundness_violations"] == [{"anchor": 3}]


def test_input_and_gen_conflict(capsys):
    code, _, err = run(capsys, "compare", "Bw", "--gen", "cycle:n=6")
    assert code == 2 and "either an input or --gen" in err


def test_long_literal_graph6(capsys):
    # longer than a file name can be, so the existence test raises OSError
    for n in (57, 600):
        text = encode_graph6(cycle(n))
        for argv in (["decide", text], ["oracle", "--max-n", "600", text]):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert [doc["graph6"] for doc in out_lines(out)] == [text]


def test_oracle_deep_search_iterative(capsys, tmp_path):
    # the search goes one level deeper per chosen vertex, 1001 levels here:
    # far past the interpreter's recursion limit
    p = tmp_path / "c3003.g6"
    p.write_text(encode_graph6(cycle(3003)) + "\n")
    code, out, _ = run(capsys, "oracle", "--max-n", "5000", str(p))
    assert code == 0
    doc = out_lines(out)[0]
    assert doc["has_eds"] is True and doc["nodes_explored"] == 1002


def count_parses(monkeypatch):
    calls = []
    original = cli.parse_graph6

    def counted(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(cli, "parse_graph6", counted)
    return calls


def test_each_input_decoded_once(capsys, tmp_path, monkeypatch):
    calls = count_parses(monkeypatch)
    p = tmp_path / "in.g6"
    p.write_text("".join(encode_graph6(cycle(n)) + "\n" for n in (6, 9, 12)))
    code, out, _ = run(capsys, "decide", str(p))
    assert code == 0 and len(out_lines(out)) == 3
    assert len(calls) == 3
    calls.clear()
    code, _, _ = run(capsys, "compare", "--gen", "cycle:n=6", "--gen", "cycle:n=9")
    assert code == 0
    assert calls == []


def test_rows_before_malformed_line_are_written(capsys, tmp_path):
    p = tmp_path / "in.g6"
    p.write_text(encode_graph6(cycle(6)) + "\n" + encode_graph6(cycle(9)) + "\nB\x01\n")
    code, out, err = run(capsys, "decide", str(p))
    assert code == 2
    assert [d["verdict"] for d in out_lines(out)] == ["found", "found"]
    assert "line 3:" in err


def test_input_errors_leave_out_file_untouched(capsys, tmp_path):
    # errors in the input source come before the --out file is opened
    out_path = tmp_path / "rows.jsonl"
    empty = tmp_path / "empty.g6"
    empty.write_text("\n")
    for command in ("compare", "audit-facts"):
        for source in ([str(tmp_path / "missing.g6")], ["Bw", "--gen", "cycle:n=6"],
                       [str(empty)]):
            out_path.write_text("kept\n")
            code, _, err = run(capsys, command, "--out", str(out_path), *source)
            assert code == 2 and "error" in err
            assert out_path.read_text() == "kept\n"
