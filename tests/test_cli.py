"""End-to-end CLI behavior: subcommands, exit codes, determinism."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eds_audit.cli as cli
from eds_audit import generators, reduction, rng
from eds_audit.generators import GenSpec, gen_petersen, gen_random_regular, parse_genspecs
from eds_audit.graph import GRAPH6_HEADER, Graph, encode_graph6, parse_graph6
from eds_audit.oracle import solve_exact

from .conftest import (
    COUNTEREXAMPLES, criterion1_corpus, cycle, petersen, probe_in, reference_reduce,
    replay_mismatches,
)


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


def stdin_bytes(data: bytes) -> io.TextIOWrapper:
    """A strict UTF-8 text stdin over data, as a UTF-8 locale gives."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")


def test_decide_stdin(capsys, monkeypatch, tmp_path):
    # lines end at \n, \r\n or \r, on stdin and in a file alike
    p = tmp_path / "in.g6"
    for data in (b"Bw\nEhEG\n", b"Bw\rEhEG\r", b"Bw\r\nEhEG\r\n"):
        p.write_bytes(data)
        monkeypatch.setattr("sys.stdin", stdin_bytes(data))
        for source in ("-", str(p)):
            code, out, _ = run(capsys, "decide", source)
            assert code == 0
            docs = out_lines(out)
            assert [d["verdict"] for d in docs] == ["found", "found"], (data, source)
            assert docs[1]["certificate"] == [0, 3]


def test_missing_file_is_named(capsys):
    # a path that is no file is decoded as graph6, and the error says both;
    # a one-line argument has no line number to give
    code, out, err = run(capsys, "decide", "grpahs.g6")
    assert code == 2 and out == ""
    assert "'grpahs.g6' is neither an existing file nor valid graph6" in err
    assert "invalid graph6 byte 46" in err
    assert "line 1" not in err


def test_broken_symlink_is_named(capsys, tmp_path):
    # os.path.exists follows the link to no file, so it is a literal
    link = tmp_path / "in.g6"
    link.symlink_to(tmp_path / "gone.g6")
    code, out, err = run(capsys, "decide", str(link))
    assert code == 2 and out == ""
    assert f"error: {str(link)!r} is neither an existing file nor valid graph6" in err


def test_directory_or_empty_argument_is_named(capsys, tmp_path):
    # any existing path but a directory is read as a file: "" (the current
    # directory as a path) and a directory are literals that do not decode;
    # a literal is one graph6 string, so a newline in it is trailing garbage;
    # only ASCII whitespace surrounds it, so a no-break space is a non-ASCII byte
    out_path = tmp_path / "rows.jsonl"
    for arg in ("", str(tmp_path), "Bw\nEhEG", "Bw\u00a0"):
        code, out, err = run(capsys, "decide", arg)
        assert code == 2 and out == ""
        assert f"error: {arg!r} is neither an existing file nor valid graph6" in err
        if arg == "Bw\u00a0":
            assert err.endswith(": non-ASCII byte in graph6 input (byte offset 2)\n")
        assert "Errno" not in err and "line" not in err
        for command in ("compare", "audit-facts"):
            out_path.write_text("kept\n")
            code, _, err = run(capsys, command, "--out", str(out_path), arg)
            assert code == 2 and f"{arg!r} is neither" in err
            assert out_path.read_text() == "kept\n"


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


@pytest.mark.parametrize("command", ["oracle", "compare", "audit-facts"])
def test_max_n_below_one_is_a_usage_error(capsys, tmp_path, command):
    # a guard below 1 would turn every graph into a capacity row
    out_path = tmp_path / "rows.jsonl"
    out_args = [] if command == "oracle" else ["--out", str(out_path)]
    for value, why in (("0", "must be at least 1, got 0"), ("-1", "must be at least 1, got -1"),
                       ("x", "invalid int value: 'x'")):
        out_path.write_text("kept\n")
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--max-n", value, *out_args, "Bw"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == "", value
        assert captured.err.endswith(f"argument --max-n: {why}\n"), value
        assert out_path.read_text() == "kept\n"
    code, out, _ = run(capsys, command, "--max-n", "1", "@")
    assert code == 0 and out_lines(out)[0]["graph6"] == "@"


def shown(line: str) -> str:
    """A stdout line as the table states it: a result row as its graph6, any other whole."""
    row = json.loads(line)
    if "error" in row or row.get("kind") in ("skip", "summary"):
        return line
    return row["graph6"]


# the table's other rows, each a template of its bytes
def error(reason: str, graph6: str, message: str = "") -> str:
    return f'{{"error":"{reason}","graph6":"{graph6}"{message}}}'


def capacity_error(graph6: str, n: int, guard: int) -> str:
    return error("capacity", graph6, f',"message":"n={n} exceeds the oracle size guard {guard}"')


def skip(reason: str, n: int, graph6: str = "", genspec: str | None = None) -> str:
    spec = "null" if genspec is None else f'"{genspec}"'
    return f'{{"genspec":{spec},"graph6":"{graph6}","kind":"skip","n":{n},"reason":"{reason}"}}'


# the summary lines, where no row disagrees and every audit row is sound
def compared(records: int, skips: int, max_work: int = 0) -> str:
    return (f'{{"agreement_rate":{"1.0" if records else "null"},"counterexamples":0,'
            f'"kind":"summary","max_work_counter":{max_work},"records":{records},'
            f'"skips":{skips},"total":{records + skips}}}')


def audited(sound: int) -> str:
    return f'{{"converse_findings":0,"kind":"summary","sound":{sound},"total":{sound}}}'


K3, K0, P3, TWO_K3, C6, C9 = "Bw", "?", "Bg", "EwCW", "EhEG", "HhCGGE@"
C20, C30, C128, C129 = (encode_graph6(cycle(n)) for n in (20, 30, 128, 129))
AUDIT, DET = "audit-facts", ["compare", "--deterministic"]
MAX8, MAX4 = ["--max-n", "8"], ["--max-n", "4"]
GIVES_UP, BIG = "random-regular:n=14,r=6,seed=1", "cycle:n=1000000"
PAST_GRAPH6 = {"petersen": "generalized-petersen:n=1" + "0" * 400 + ",k=1",
               "hypercube": "hypercube:d=20000"}


def gen(*specs: str) -> list[str]:
    return [arg for spec in specs for arg in ("--gen", spec)]


def case(id: str, argv: list[str], code: int, lines: list, stdin: str = "", err: str = ""):
    return pytest.param(argv, stdin, code, lines, err, id=id)


EXIT_TABLE = [
    # K3, K0, P3, two disjoint triangles and C9 (n = 9, above --max-n 8)
    case("decide-K3", ["decide", K3], 0, [K3]),
    case("decide-K0", ["decide", K0], 2, [error("empty-graph", K0)]),
    case("decide-P3", ["decide", P3], 2, [error("not-regular", P3)]),
    case("decide-2K3", ["decide", TWO_K3], 2, [error("disconnected", TWO_K3)]),
    case("decide-C9", ["decide", C9], 0, [C9]),
    case("oracle-K3", ["oracle", *MAX8, K3], 0, [K3]),
    case("oracle-K0", ["oracle", *MAX8, K0], 2, [error("empty-graph", K0)]),
    case("oracle-P3", ["oracle", *MAX8, P3], 0, [P3]),
    case("oracle-2K3", ["oracle", *MAX8, TWO_K3], 0, [TWO_K3]),
    case("oracle-C9", ["oracle", *MAX8, C9], 3, [capacity_error(C9, 9, 8)]),
    case("compare-K3", ["compare", *MAX8, K3], 0, [K3, compared(1, 0, 4)]),
    case("compare-K0", ["compare", *MAX8, K0], 0, [skip("empty-graph", 0, K0), compared(0, 1)]),
    case("compare-P3", ["compare", *MAX8, P3], 0, [skip("not-regular", 3, P3), compared(0, 1)]),
    case("compare-2K3", ["compare", *MAX8, TWO_K3], 0,
         [skip("disconnected", 6, TWO_K3), compared(0, 1)]),
    case("compare-C9", ["compare", *MAX8, C9], 3, [skip("capacity", 9, C9), compared(0, 1)]),
    case("audit-facts-K3", [AUDIT, *MAX8, K3], 0, [K3, audited(1)]),
    case("audit-facts-K0", [AUDIT, *MAX8, K0], 0, [skip("empty-graph", 0, K0), audited(0)]),
    case("audit-facts-P3", [AUDIT, *MAX8, P3], 0, [P3, audited(1)]),
    case("audit-facts-2K3", [AUDIT, *MAX8, TWO_K3], 0, [TWO_K3, audited(1)]),
    case("audit-facts-C9", [AUDIT, *MAX8, C9], 3, [skip("capacity", 9, C9), audited(0)]),
    # a file of refusals: decide's error rows and compare's skip rows, in order
    case("decide-refusals", ["decide", "-"], 2, [error("empty-graph", K0),
         error("not-regular", P3), error("disconnected", TWO_K3)], "?\nBg\nEwCW\n"),
    case("compare-refusals", [*DET, "-"], 0, [skip("empty-graph", 0, K0), skip(
        "not-regular", 3, P3), skip("disconnected", 6, TWO_K3), compared(0, 3)], "?\nBg\nEwCW\n"),
    # two disjoint triangles above --max-n 4: compare refuses them before its
    # guard applies; oracle and audit-facts refuse only the empty graph
    case("compare-2K3-refused", ["compare", *MAX4, TWO_K3], 0,
         [skip("disconnected", 6, TWO_K3), compared(0, 1)]),
    case("audit-facts-2K3-guarded", [AUDIT, *MAX4, TWO_K3], 3,
         [skip("capacity", 6, TWO_K3), audited(0)]),
    case("oracle-2K3-guarded", ["oracle", *MAX4, TWO_K3], 3, [capacity_error(TWO_K3, 6, 4)]),
    # the largest code any row calls for, in either row order
    case("oracle-K0-C6", ["oracle", *MAX4, "-"], 3,
         [error("empty-graph", K0), capacity_error(C6, 6, 4)], "?\nEhEG\n"),
    case("oracle-C6-K0", ["oracle", *MAX4, "-"], 3,
         [capacity_error(C6, 6, 4), error("empty-graph", K0)], "EhEG\n?\n"),
    case("compare-P3-C9", ["compare", *MAX8, "-"], 3,
         [skip("not-regular", 3, P3), skip("capacity", 9, C9), compared(0, 2)], "Bg\nHhCGGE@\n"),
    case("compare-C9-P3", ["compare", *MAX8, "-"], 3,
         [skip("capacity", 9, C9), skip("not-regular", 3, P3), compared(0, 2)], "HhCGGE@\nBg\n"),
    # a capacity skip mid-sweep: later graphs and the summary still come out
    case("compare-capacity-mid-file", [*DET, "--max-n", "20", "-"], 3,
         [C6, skip("capacity", 30, C30), C9, compared(2, 1, 24)], f"{C6}\n{C30}\n{C9}\n"),
    case("audit-facts-capacity-mid-file", [AUDIT, "-"], 3,
         [C6, skip("capacity", 30, C30), C9, audited(2)], f"{C6}\n{C30}\n{C9}\n"),
    case("compare-gives-up-mid-sweep", [*DET, *gen("cycle:n=9", GIVES_UP, "cycle:n=12")], 3,
         [C9, skip("capacity", 14, genspec=GIVES_UP), "KhCGGC@?G?o@", compared(2, 1, 42)]),
    case("audit-facts-gives-up-mid-sweep", [AUDIT, *gen(f"{GIVES_UP}..2", "cycle:n=9")], 3,
         [*(skip("capacity", 14, genspec=GIVES_UP[:-1] + seed) for seed in "12"), C9, audited(1)]),
    # a spec above the guard is never built, under the default guard or a given one
    *(case(f"{argv[0]}-unbuilt-{name}", [*argv, *guard, *gen(BIG, "cycle:n=9")], 3,
           [skip("capacity", 10**6, genspec=BIG), C9, summary])
      for argv, summary in ((DET, compared(1, 1, 24)), ([AUDIT], audited(1)))
      for name, guard in (("default", []), ("given", ["--max-n", "999999"]))),
    # the default guards admit n = 128 and, for audit-facts, n = 20
    case("compare-default-128", ["compare", *gen("cycle:n=128")], 0, [C128, compared(1, 0, 8122)]),
    case("compare-default-129", ["compare", *gen("cycle:n=129")], 3,
         [skip("capacity", 129, genspec="cycle:n=129"), compared(0, 1)]),
    case("oracle-default-128", ["oracle", C128], 0, [C128]),
    case("oracle-default-129", ["oracle", C129], 3, [capacity_error(C129, 129, 128)]),
    case("audit-facts-default-20", [AUDIT, *gen("cycle:n=20")], 0, [C20, audited(1)]),
    case("audit-facts-default-21", [AUDIT, *gen("cycle:n=21")], 3,
         [skip("capacity", 21, genspec="cycle:n=21"), audited(0)]),
    # 2^35 vertices are a capacity skip; 2n or 2^d past graph6's limit (2^36 - 1) gets no row
    case("compare-hypercube-35", ["compare", *gen("hypercube:d=35")], 3,
         [skip("capacity", 2**35, genspec="hypercube:d=35"), compared(0, 1)]),
    *(case(f"{argv[0]}-{name}-past-graph6", [*argv, spec], 2, [],
           err="error: graph exceeds graph6's limit of 68719476735 vertices\n")
      for name, spec in PAST_GRAPH6.items()
      for argv in (["gen"], ["compare", *gen("cycle:n=6"), "--gen"],
                   [AUDIT, *gen("cycle:n=6"), "--gen"])),
]


@pytest.mark.parametrize("argv, stdin, code, lines, err", EXIT_TABLE)
def test_exit_code_table(capsys, monkeypatch, argv, stdin, code, lines, err):
    guard, real = getattr(cli.build_parser().parse_args(argv), "max_n", None), GenSpec.build

    def build(spec):  # a --gen spec above the row's guard, given or default, is never built
        assert guard is None or spec.order <= guard, f"built {spec.canonical()}"
        return real(spec)

    monkeypatch.setattr(GenSpec, "build", build)
    monkeypatch.setattr("sys.stdin", stdin_bytes(stdin.encode("ascii")))
    got, out, got_err = run(capsys, *argv)
    assert (got, [shown(line) for line in out.splitlines()], got_err) == (code, lines, err)


def test_exit_code_of_each_row_shape():
    # the table runs every other row shape through a command; an unsound
    # audit row needs a broken filter or probe, and is a finding, not a failure
    assert cli._exit_code({"kind": "audit", "graph6": "Bw", "sound": False}) == 0


def test_gen_cycle_line(capsys):
    code, out, _ = run(capsys, "gen", "cycle:n=6")
    assert code == 0 and out.strip() == encode_graph6(cycle(6))


def test_gen_seed_range(capsys):
    code, out, _ = run(capsys, "gen", "random-regular:n=8,r=3,seed=1..5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0] == encode_graph6(gen_random_regular(8, 3, 1))
    # a seed range is written in the spec; there is no separate --seeds flag
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "random-regular:n=8,r=3", "--seeds", "1..3"])
    assert exc.value.code == 2


def test_gen_reversed_seed_range_is_an_error(capsys):
    # B < A is a typo, not an empty sweep: exit 2 and print nothing
    code, out, err = run(capsys, "gen", "random-regular:n=8,r=3,seed=4..2")
    assert code == 2 and out == "" and "bad seed range" in err
    code, out, _ = run(capsys, "gen", "random-regular:n=8,r=3,seed=4..4")
    assert code == 0 and len(out.strip().splitlines()) == 1


def test_seed_outside_64_bits_is_a_spec_error(capsys):
    # SplitMix64 reads a seed mod 2^64, so -1 would name seed 2^64 - 1's graph
    top = 2**64 - 1
    for seed in (-1, top + 1, f"{top - 1}..{top + 1}"):
        code, out, err = run(capsys, "gen", f"random-regular:n=8,r=3,seed={seed}")
        assert code == 2 and out == "", seed
        assert f"outside 0..{top}" in err, seed
    code, out, _ = run(capsys, "gen", f"random-regular:n=8,r=3,seed={top}")
    assert code == 0 and out == "GHpStG\n"
    with pytest.raises(ValueError, match="outside"):
        gen_random_regular(8, 3, -1)


def test_compare_reversed_seed_range_is_an_error(capsys):
    code, out, err = run(capsys, "compare", "--gen", "random-regular:n=10,r=3,seed=5..3")
    assert code == 2 and out == "" and "bad seed range" in err


def test_gen_bad_spec(capsys):
    code, _, err = run(capsys, "gen", "banana:n=2")
    assert code == 2 and "unknown graph family" in err
    code, out, err = run(capsys, "gen", "generalized-petersen:n=5")
    assert (code, out, err) == (2, "", "error: generalized-petersen spec missing ['k']\n")
    # every spec is checked before the first line is written
    for bad in ("banana:n=2", "cycle:m=6", "random-regular:n=8,r=3,seed=4..2",
                "random-regular:n=4,r=1,seed=1..5"):
        code, out, _ = run(capsys, "gen", "cycle:n=6", bad)
        assert code == 2 and out == "", bad


def test_gen_stops_at_a_generator_that_gives_up(capsys):
    # gen writes no skip rows: the lines before the spec stay written, and
    # the run stops there with exit 3 and the generator's message
    code, out, err = run(capsys, "gen", "cycle:n=4", "random-regular:n=14,r=6,seed=1")
    assert (code, out) == (3, "Cl\n")
    assert err == ("error: no simple connected pairing for n=14, r=6, seed=1 "
                   "within 10000 attempts\n")


def test_compare_cycles(capsys, tmp_path):
    out_path = tmp_path / "rows.jsonl"
    argv = ["compare", "--deterministic", "--out", str(out_path)]
    for n in range(3, 31):
        argv += ["--gen", f"cycle:n={n}"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = [json.loads(l) for l in out_path.read_text().splitlines()]
    assert len(rows) == 28
    for row in rows:
        assert row["kind"] == "record" and row["agree"]
        assert row["oracle_has_eds"] == (row["n"] % 3 == 0)
        assert row["elapsed_decide"] == 0.0
    summary = out_lines(out)[-1]
    assert summary["kind"] == "summary"
    assert summary["records"] == 28 and summary["agreement_rate"] == 1.0


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
    summary = out_lines(out)[-1]
    assert summary["counterexamples"] == 2

    # rerunning the CLI on a saved graph reproduces the stored documents
    # byte-for-byte
    monkeypatch.undo()
    for f in files:
        assert replay_mismatches(f) == [], f


def test_counterexample_above_default_guard_replays(capsys, tmp_path):
    # GP(68,7) has 136 vertices, past the oracle's default guard of 128; a
    # disagreement saved under a raised --max-n must still replay
    ce_dir = tmp_path / "ces"
    code, _, _ = run(capsys, "compare", "--deterministic", "--max-n", "300",
                     "--save-counterexamples", str(ce_dir),
                     "--gen", "generalized-petersen:n=68,k=7")
    assert code == 0
    [saved] = ce_dir.glob("counterexample-*.json")
    assert replay_mismatches(saved) == []


class WriteLog(io.StringIO):
    """A text stream that records every write call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return super().write(text)


@pytest.mark.parametrize("argv, lines", [
    (["decide", "Bw"], 1),
    (["oracle", "Bw"], 1),
    (["compare", "--deterministic", "--gen", "random-regular:n=8,r=3,seed=1..3"], 4),
    (["audit-facts", "--gen", "cycle:n=9", "--gen", "cycle:n=6"], 3),
    (["gen", "cycle:n=9", "cycle:n=6"], 2),
])
def test_each_output_line_is_one_write(monkeypatch, argv, lines):
    # unbuffered (python -u), every write reaches the stream at once, so a
    # row written in two calls could be split from its newline
    out = WriteLog()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(argv) == 0
    assert len(out.calls) == lines
    assert all(text.endswith("\n") and text.count("\n") == 1 for text in out.calls)


def test_no_command_reaches_a_held_name(capsys, monkeypatch):
    # bench/spans.py wraps reduction.probe, reduction.reduce_to_fixpoint and
    # rng.rank_permutation by name, and bench/run.py imports
    # generators.parse_genspec.  Each is replaced, in every eds_audit module
    # that binds it, by a function that raises, and every command still
    # writes its rows.  A command through reduction.probe would make every
    # traced benchmark run raise in the span's hook
    held = (reduction.probe, reduction.reduce_to_fixpoint, rng.rank_permutation,
            generators.parse_genspec)

    def refuse(*args, **kwargs):
        raise AssertionError("a command called a name only bench/ reads")

    for name, module in list(sys.modules.items()):
        if name == "eds_audit" or name.startswith("eds_audit."):
            for key, value in list(vars(module).items()):
                if any(value is fn for fn in held):
                    monkeypatch.setattr(module, key, refuse)
    specs = "random-regular:n=12,r=3,seed=258..259"  # seed 259 is K@U_?SRWe?O`
    for argv, rows in ((["decide", "--trace", "K@U_?SRWe?O`"], 1),
                       (["oracle", "--enumerate", "K@U_?SRWe?O`"], 1),
                       (["compare", "--deterministic", "--gen", specs], 3),
                       (["audit-facts", "--gen", specs], 3),
                       (["gen", specs], 2)):
        code, out, _ = run(capsys, *argv)
        assert (code, len(out.splitlines())) == (0, rows), argv


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


def audit_c6() -> tuple[str, None, Graph]:
    g = cycle(6)  # solutions {0, 3}, {1, 4}, {2, 5}
    return encode_graph6(g), None, g


def test_audit_reports_a_filter_that_drops_a_solution_vertex(monkeypatch):
    # a broken drop rule: vertex 0 first in its own distance-2 list, whose
    # row N(0) - N(0) is empty and so always misses the candidates
    real = reduction._scan

    def broken(g):
        t = real(g)
        return t._replace(far=((0,) + t.far[0],) + t.far[1:])

    monkeypatch.setattr(reduction, "_scan", broken)
    row = cli._audit_one(audit_c6(), cli.AUDIT_DEFAULT_MAX_N)
    assert row["sound"] is False
    assert {"vertex": 0, "witness": 0} in row["filter_soundness_violations"]


def test_audit_reports_an_empty_probe_on_a_solution_anchor(monkeypatch):
    # a broken probe: anchor 3 lies in the solution {0, 3}, yet probes empty
    real = cli.probe_each

    def broken(g, a):
        drops, probes = real(g, a)
        return drops, {x: () if x == 3 else s for x, s in probes.items()}

    monkeypatch.setattr(cli, "probe_each", broken)
    row = cli._audit_one(audit_c6(), cli.AUDIT_DEFAULT_MAX_N)
    assert row["sound"] is False
    assert row["filter_soundness_violations"] == []
    assert row["probe_soundness_violations"] == [{"anchor": 3}]


def test_audit_builds_the_kernel_tables_once_per_graph(monkeypatch):
    # one probe_each call reduces and probes, so one scan serves both
    real, graphs = reduction._scan, []

    def counted(g):
        graphs.append(g)
        return real(g)

    monkeypatch.setattr(reduction, "_scan", counted)
    item = audit_c6()
    row = cli._audit_one(item, cli.AUDIT_DEFAULT_MAX_N)
    assert row["eds_count"] == 3 and row["sound"] is True
    assert graphs == [item[2]]


def reference_audit_lists(g: Graph) -> tuple[list, list, list]:
    """The three violation lists of an audit row, by the rescan reference and
    one kernel probe per fixpoint vertex, on every graph, with an EDS or not."""
    solutions = solve_exact(g, enumerate_all=True).solutions
    union = frozenset().union(*solutions)
    baseline, log = set(range(g.n)), []
    reference_reduce(g, baseline, log)
    filter_violations = [{"vertex": v, "witness": c}
                         for v, c in zip(log[::2], log[1::2]) if v in union]
    probe_violations, converse_violations = [], []
    for anchor in sorted(baseline):
        survivors, _, _ = probe_in(g, baseline, anchor)
        if not survivors:
            if anchor in union:
                probe_violations.append({"anchor": anchor})
        elif solutions and anchor not in union:
            converse_violations.append({"anchor": anchor,
                                        "survivors": tuple(sorted(survivors))})
    return filter_violations, probe_violations, converse_violations


def test_audit_rows_match_the_reference_audit():
    graphs = criterion1_corpus()
    graphs += [gen_petersen(n, k) for n in range(3, 11) for k in range(1, (n + 1) // 2)]
    # seed 259 has converse findings; n=16 seed 2 has no EDS, yet some of
    # its baseline probes are nonempty, which no row may report
    graphs += [spec.build() for text in ("n=12,r=3,seed=259", "n=16,r=3,seed=2")
               for spec in parse_genspecs(f"random-regular:{text}")]
    for g in graphs:
        row = cli._audit_one((encode_graph6(g), None, g), cli.AUDIT_DEFAULT_MAX_N)
        got = (row["filter_soundness_violations"], row["probe_soundness_violations"],
               row["probe_converse_violations"])
        assert got == reference_audit_lists(g), encode_graph6(g)
        assert row["sound"] is (not got[0] and not got[1])


def test_audit_converse_findings_pinned(capsys):
    code, out, _ = run(capsys, "audit-facts", "--gen", "random-regular:n=12,r=3,seed=259")
    assert code == 0
    row, summary = out_lines(out)
    assert row["graph6"] == "K@U_?SRWe?O`" and row["eds_count"] == 2
    assert row["probe_converse_violations"] == [
        {"anchor": 0, "survivors": [0, 3, 4, 6, 9]},
        {"anchor": 11, "survivors": [3, 4, 6, 9, 11]},
    ]
    assert summary == {"kind": "summary", "total": 1, "sound": 1, "converse_findings": 1}
    # the README's r = 3 command
    code, out, _ = run(capsys, "compare", "--deterministic", "K@U_?SRWe?O`")
    row, _ = out_lines(out)
    assert code == 0 and (row["agree"], row["claim_audit_flags"]) == (
        False, ["candidates-exhausted", "probe-converse-violation"])


@pytest.mark.parametrize("text", sorted(COUNTEREXAMPLES))
def test_counterexamples_are_findings(capsys, text):
    # decide refutes a graph that has an EDS (test_known_findings_pinned):
    # its row names the one commit, compare records the disagreement with
    # both claim-audit flags, and audit-facts finds the one EDS and a
    # converse finding at the anchor decide commits
    r, n, work, anchor, survivors, _ = COUNTEREXAMPLES[text]
    code, out, _ = run(capsys, "decide", text)
    [row] = out_lines(out)
    assert code == 0 and (row["reason"], row["trace_summary"]["commits"], row["work_counter"]) \
        == ("candidates-exhausted", [anchor], work)
    code, out, _ = run(capsys, "compare", "--deterministic", text)
    row, summary = out_lines(out)
    assert code == 0 and (row["n"], row["r"], row["agree"], row["oracle_has_eds"]) == (
        n, r, False, True)
    assert row["certificate_valid"] is None
    assert row["claim_audit_flags"] == ["candidates-exhausted", "probe-converse-violation"]
    assert row["work_counter"] == work
    assert summary["counterexamples"] == 1
    code, out, _ = run(capsys, "audit-facts", "--max-n", str(n), text)
    row, summary = out_lines(out)
    assert code == 0 and (row["eds_count"], row["sound"]) == (1, True)
    assert row["probe_converse_violations"] == [
        {"anchor": anchor, "survivors": list(survivors)}]
    assert summary == {"kind": "summary", "total": 1, "sound": 1, "converse_findings": 1}


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


def g6_size_forms(n: int) -> list[str]:
    """Vertex-count prefixes graph6 accepts for n: the canonical one, then
    the longer 4-byte and 8-byte forms where n fits them."""
    longer = ["~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))] if n <= 62 else []
    return longer + ["~~" + "".join(chr(63 + (n >> s & 63)) for s in (30, 24, 18, 12, 6, 0))]


@pytest.mark.parametrize("command", [
    ["decide"], ["compare", "--deterministic"], ["oracle", "--max-n", "200"], ["audit-facts"],
])
def test_rows_quote_the_canonical_line(capsys, tmp_path, command):
    # a canonical line is quoted as given; any other spelling of the same
    # graph (header, surrounding ASCII whitespace, a longer size prefix) is
    # quoted re-encoded
    canonical = [encode_graph6(g) for g in (cycle(6), petersen(), cycle(64), cycle(120))]
    lines = list(canonical)
    for text in canonical:
        n = parse_graph6(text).n
        payload = text[1:] if n <= 62 else text[4:]
        lines += [GRAPH6_HEADER + text, f" {text}\t", f"\v{text}\f",
                  *(p + payload for p in g6_size_forms(n))]
    p = tmp_path / "in.g6"
    p.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, *command, str(p))
    assert err == ""
    quoted = [row["graph6"] for row in out_lines(out) if row.get("kind") != "summary"]
    assert quoted == [encode_graph6(parse_graph6(line)) for line in lines]
    assert quoted[:len(canonical)] == canonical


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


def test_rows_before_malformed_line_are_written(capsys, tmp_path, monkeypatch):
    # each case: input bytes, the rows written before the bad line, its error;
    # a byte above 127 is a graph6 error of its line, and \f ends no line;
    # a control byte that is not ASCII whitespace is neither blank nor stripped
    c6, c9 = encode_graph6(cycle(6)), encode_graph6(cycle(9))
    cases = [
        (f"{c6}\n{c9}\nB\x01\n".encode("ascii"), [c6, c9],
         "line 3: invalid graph6 byte 1 (byte offset 1)"),
        (b"Bw\n\xff\n", ["Bw"],
         "line 2: non-ASCII byte in graph6 input (byte offset 0)"),
        (b"Bw\x0cBw\nB\x01\n", [],
         "line 1: trailing garbage after graph6 payload (byte offset 2)"),
        (b"Bw\n\x1c\nBw\x1f\n", ["Bw"],
         "line 2: invalid graph6 byte 28 (byte offset 0)"),
        (b"Bw\x1f\n", [],
         "line 1: trailing garbage after graph6 payload (byte offset 2)"),
    ]
    p = tmp_path / "in.g6"
    for data, rows, error in cases:
        p.write_bytes(data)
        for command in ("decide", "compare", "audit-facts"):
            for source in (str(p), "-"):
                monkeypatch.setattr("sys.stdin", stdin_bytes(data))
                code, out, err = run(capsys, command, source)
                assert (code, err) == (2, f"error: {error}\n"), (data, command, source)
                # no summary: the run stopped at the bad line
                assert [d["graph6"] for d in out_lines(out)] == rows, (data, command, source)


def test_input_errors_leave_out_file_untouched(capsys, tmp_path):
    # errors in the input source come before the --out file is opened
    out_path = tmp_path / "rows.jsonl"
    empty = tmp_path / "empty.g6"
    empty.write_text("\n")
    # specs no builder accepts: a value out of range is a spec error too
    unbuildable = ("cycle:n=2", "random-regular:n=3,r=3,seed=1",
                   "generalized-petersen:n=6,k=3")
    for command in ("compare", "audit-facts"):
        # the last --gen names no seed: every spec is checked before any row
        for source in ([str(tmp_path / "missing.g6")], ["Bw", "--gen", "cycle:n=6"],
                       [str(empty)], ["--gen", "cycle:n=6", "--gen", "random-regular:n=8,r=3"],
                       *(["--gen", "cycle:n=6", "--gen", spec] for spec in unbuildable)):
            out_path.write_text("kept\n")
            code, _, err = run(capsys, command, "--out", str(out_path), *source)
            assert code == 2 and "error" in err
            assert out_path.read_text() == "kept\n"
    for spec in unbuildable:
        out_path.write_text("kept\n")
        code, _, err = run(capsys, "gen", "cycle:n=6", spec, "--out", str(out_path))
        assert code == 2 and "error" in err
        assert out_path.read_text() == "kept\n"
    # a counterexample directory that cannot be made: its parent is a file
    afile = tmp_path / "afile"
    afile.write_text("")
    out_path.write_text("kept\n")
    code, _, err = run(capsys, "compare", "Bw", "--save-counterexamples", str(afile / "x"),
                       "--out", str(out_path))
    assert code == 2 and "error" in err
    assert out_path.read_text() == "kept\n"


# modules a run has no use for: nothing runs in other processes, and hashlib
# only names counterexample files
UNUSED_BY_SERIAL_RUNS = ("dataclasses", "inspect", "hashlib", "multiprocessing",
                         "concurrent.futures.process")


def fresh_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this package, with
    stdout buffered as by default."""
    paths = (str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def fresh_cli(*argv, stdin=b"", stdout=subprocess.PIPE, **kwargs):
    """Run ``python -m eds_audit.cli argv`` in a fresh interpreter, whatever
    its exit code; its output is bytes."""
    return subprocess.run([sys.executable, "-m", "eds_audit.cli", *argv], input=stdin,
                          stdout=stdout, stderr=subprocess.PIPE, env=fresh_env(), timeout=60,
                          **kwargs)


def test_closed_stdout_ends_the_run_quietly():
    # read one line and close the pipe, as `| head -n 1` does; each output is
    # far past a 64 KiB pipe buffer, so the child is still writing then
    for argv in (["compare", "--deterministic", "--gen", "random-regular:n=8,r=3,seed=1..2000"],
                 ["gen", "random-regular:n=8,r=3,seed=1..100000"]):
        with subprocess.Popen([sys.executable, "-m", "eds_audit.cli", *argv], env=fresh_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline().endswith(b"\n")
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b""), argv
    # a reader gone before the child starts: an output that fits the stdout
    # buffer first meets the closed pipe at the last flush
    for argv in (["decide", "Bw"], ["gen", "cycle:n=5"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = fresh_cli(*argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, b""), argv


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_stdout_leaves_no_descriptor_open(monkeypatch):
    # in process, each run into a pipe whose reader is gone points fd 1 at
    # /dev/null and keeps no other descriptor
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", encoding="ascii") as stream:
            monkeypatch.setattr("sys.stdout", stream)
            assert cli.main(["gen", "cycle:n=5"]) == 0
            monkeypatch.undo()
        assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_is_an_error():
    # an output that fits the stdout buffer fails at the last flush, which is
    # an error like a failed write during the run
    with open("/dev/full", "wb") as full:
        proc = fresh_cli("decide", "Bw", stdout=full)
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error: [Errno 28]"), proc.stderr


def test_a_process_ends_with_main_code_and_output(capsys, monkeypatch, tmp_path):
    # the process skips interpreter teardown, so nothing is flushed at exit:
    # each run's code, stdout and stderr match an in-process run's, on a
    # success, an error row, a capacity row, and a run an input error stops
    # after a row it has written
    for argv, stdin in ((["decide", "Bw"], b""), (["decide", "Bg"], b""),
                        (["oracle", "--max-n", "4", "-"], b"EhEG\n?\n"),
                        (["decide", "-"], b"Bw\n\xff\n")):
        monkeypatch.setattr("sys.stdin", stdin_bytes(stdin))
        expected = run(capsys, *argv)
        proc = fresh_cli(*argv, stdin=stdin)
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == expected, argv
    assert expected[0] == 2 and [row["graph6"] for row in out_lines(expected[1])] == ["Bw"]
    # a file written through --out is closed before main returns
    argv = ["compare", "--deterministic", "--gen", "random-regular:n=12,r=3,seed=1..50"]
    code, out, _ = run(capsys, *argv, "--out", str(tmp_path / "in-process.jsonl"))
    proc = fresh_cli(*argv, "--out", str(tmp_path / "process.jsonl"))
    assert code == 0 and (proc.returncode, proc.stdout.decode()) == (code, out)
    assert ((tmp_path / "process.jsonl").read_bytes()
            == (tmp_path / "in-process.jsonl").read_bytes())
    # argparse's SystemExit still ends the interpreter as usual
    proc = fresh_cli("decide", "--help")
    assert proc.returncode == 0 and proc.stdout.startswith(b"usage: eds-audit decide")
    proc = fresh_cli("decide", "--bogus")
    assert proc.returncode == 2 and b"unrecognized arguments: --bogus" in proc.stderr
    # a closed fd 1 or fd 2 leaves no stream to flush
    proc = fresh_cli("gen", "cycle:n=5", "--out", str(tmp_path / "c5.g6"),
                     preexec_fn=lambda: os.close(1))
    c5 = encode_graph6(cycle(5))
    assert (proc.returncode, (tmp_path / "c5.g6").read_text()) == (0, c5 + "\n")
    proc = fresh_cli("decide", "Bw", preexec_fn=lambda: os.close(2))
    assert proc.returncode == 0 and out_lines(proc.stdout.decode())[0]["verdict"] == "found"


def test_decide_reads_dev_stdin():
    # /dev/stdin is an existing path but no regular file: it is read, not
    # decoded as a graph6 literal
    proc = fresh_cli("decide", "/dev/stdin", stdin=b"Bw\n")
    rows = out_lines(proc.stdout.decode())
    assert len(rows) == 1 and rows[0]["graph6"] == "Bw"
    assert rows[0]["verdict"] == "found"


def imported_modules(*argv):
    """Every module a fresh interpreter imports to run argv, by -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], capture_output=True,
                          text=True, env=fresh_env(), check=True)
    return {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_serial_runs_import_only_what_they_use():
    # a module the bare interpreter already loads (site hooks) is exempt
    bare = imported_modules("-c", "pass")
    g6 = encode_graph6(cycle(6))
    for argv in (["decide", g6], ["compare", "--deterministic", g6]):
        loaded = imported_modules("-m", "eds_audit.cli", *argv) - bare
        assert "eds_audit.reduction" in loaded
        assert sorted(loaded.intersection(UNUSED_BY_SERIAL_RUNS)) == [], argv
