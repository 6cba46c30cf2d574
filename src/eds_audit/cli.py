"""Command-line harness: decide | oracle | compare | audit-facts | gen.

Exit codes: 0 = ran to completion (disagreement findings included), 2 = input
or usage error, 3 = capacity error; a run exits with the largest code any of
its rows calls for (_exit_code).  A run whose stdout the reader closes stops
there and exits 0, with nothing on stderr.  Disagreement between the decision
procedure and the oracle is a recorded finding, never a failure.

A process ends through run, which flushes and calls os._exit, and so skips
about 8-14 ms of interpreter teardown per call; main returns its code to
in-process callers.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import time
from contextlib import nullcontext
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn

from .generators import CapacityError, GenSpec, parse_genspecs
from .graph import (
    Graph, ParseError, encode_graph6, graph6_size_prefix, is_connected, is_regular,
    parse_graph6,
)
from .oracle import solve_exact
from .records import (
    FLAG_EXHAUSTED, FLAG_PROBE_CONVERSE, KIND_AUDIT, KIND_SKIP, KIND_SUMMARY,
    CompareRecord, SkipRecord, compute_agree, decide_report_doc, json_line,
    oracle_report_doc, save_counterexample,
)
from .reduction import REASON_EXHAUSTED, decide_eds, precondition_error, probe_each

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPACITY = 3

ORACLE_DEFAULT_MAX_N = 128
AUDIT_DEFAULT_MAX_N = 20

# skip-row reason for a graph above the oracle or audit size guard
REASON_CAPACITY = "capacity"

_Item = tuple[str, str | None, Graph]  # a collect_inputs graph: (graph6, genspec, g)


def collect_inputs(args) -> Iterator[_Item | SkipRecord]:
    """Yield (canonical graph6, genspec-or-None, Graph) for each input graph.

    The input is stdin ("-" or none), any existing path that is not a
    directory (a regular file, /dev/stdin, a pipe), or else one literal graph6
    string (so a directory or "" is a literal that does not decode).  Errors
    in the input source (input given with --gen, a bad --gen spec, a literal
    that does not decode, an empty input) are raised by this call, before the
    caller opens its output.
    Stdin and files are read as bytes, and lines end at \\n, \\r\\n or \\r
    only.  Each byte decodes to one character, so a byte above 127 is a
    graph6 error of its line, raised after the rows of the lines before it.
    Each graph of a file, stdin or --gen is then built or decoded right before
    the caller processes it, and only once.  Its canonical graph6 string is what every downstream
    record and replay refers to.  A --gen spec above the command's size guard
    (--max-n), or whose generator gives up, yields its capacity SkipRecord
    instead (graph6 "", since no graph is built).
    """
    gen_args = getattr(args, "gen", None) or []
    if gen_args:
        if args.input is not None:
            raise ParseError("give either an input or --gen, not both")
        return _built(_genspecs(gen_args), args.max_n)
    if args.input is None or args.input == "-":
        data = sys.stdin.buffer.read()
    else:
        path = Path(args.input)
        try:
            is_file = not stat.S_ISDIR(path.stat().st_mode)
        except OSError:  # no such path, or a literal longer than a file name can be
            is_file = False
        if not is_file:
            try:
                return iter(list(_decoded([(None, args.input)])))
            except ParseError as exc:
                raise ParseError(f"{args.input!r} is neither an existing file nor valid "
                                 f"graph6: {exc}") from None
        data = path.read_bytes()
    lines = [(lineno, line.decode("ascii", "surrogateescape"))
             for lineno, line in enumerate(data.splitlines(), 1) if line.strip()]
    if not lines:
        raise ParseError("no graphs in input")
    return _decoded(lines)


def _genspecs(texts: list[str]) -> Iterator[GenSpec]:
    """Every spec the texts name, in order; each text is checked now, and
    its specs are built only as the caller reaches them."""
    return chain.from_iterable([parse_genspecs(text) for text in texts])


def _built(specs: Iterable[GenSpec], cap: int) -> Iterator[tuple[str, str, Graph] | SkipRecord]:
    """Build each spec of at most ``cap`` vertices.  A larger spec is never
    built, since its graph or its graph6 string may not fit in memory: like
    a spec whose generator gives up, it gets a capacity SkipRecord."""
    for spec in specs:
        n = spec.order
        try:
            g = spec.build() if n <= cap else None
        except CapacityError:
            g = None
        if g is None:
            yield SkipRecord("", n, REASON_CAPACITY, spec.canonical())
        else:
            yield encode_graph6(g), spec.canonical(), g


def _decoded(lines: list[tuple[int | None, str]]) -> Iterator[tuple[str, None, Graph]]:
    """Decode each line; errors name its line number unless that is None.

    A decoded line that has no surrounding whitespace and starts with the
    canonical size prefix for its n is already the canonical encoding (the
    payload of a given n is unique once parsing has checked its length and
    padding), so it is quoted as given; any other line is re-encoded.
    """
    for lineno, line in lines:
        try:
            g = parse_graph6(line)
        except ParseError as exc:
            if lineno is None:
                raise
            raise ParseError(f"line {lineno}: {exc}") from None
        canonical = not line[-1].isspace() and line.startswith(graph6_size_prefix(g.n))
        yield line if canonical else encode_graph6(g), None, g


def _open_out(args):
    """The --out file, or stdout left open on exit."""
    if getattr(args, "out", None):
        return open(args.out, "w", encoding="utf-8")
    return nullcontext(sys.stdout)


def _exit_code(row: dict) -> int:
    """3 for a capacity error row or capacity skip, 2 for any other error
    row, and 0 for every other row, skip rows for other reasons included."""
    if "error" in row:
        return EXIT_CAPACITY if row["error"] == REASON_CAPACITY else EXIT_INPUT
    if row.get("kind") == KIND_SKIP and row["reason"] == REASON_CAPACITY:
        return EXIT_CAPACITY
    return EXIT_OK


def _write_rows(args, inputs: Iterable[_Item | SkipRecord], row_of: Callable[[_Item], dict],
                tally: Callable[[dict], None] | None = None, summary: dict | None = None) -> int:
    """Write each collect_inputs item's row to --out or stdout, show it to
    ``tally`` if one is given, then write ``summary``, which tally keeps, to
    stdout.  A --gen spec's capacity SkipRecord is its own row; row_of makes
    the rest.  Each line, newline included, is one write call, so an
    unbuffered stream (python -u) gets whole lines.  Returns the largest
    _exit_code of the rows."""
    status = EXIT_OK
    with _open_out(args) as out:
        for item in inputs:
            row = item.to_json_dict() if isinstance(item, SkipRecord) else row_of(item)
            out.write(json_line(row) + "\n")
            if tally is not None:
                tally(row)
            status = max(status, _exit_code(row))
        if summary is not None:
            sys.stdout.write(json_line(summary) + "\n")
    return status


# decide


def cmd_decide(args) -> int:
    def row(item: _Item) -> dict:
        graph6, _, g = item
        err = precondition_error(g)
        if err:
            return {"graph6": graph6, "error": err}
        return decide_report_doc(graph6, decide_eds(g), include_trace=args.trace)
    return _write_rows(args, collect_inputs(args), row)


# oracle


def cmd_oracle(args) -> int:
    def row(item: _Item) -> dict:
        graph6, _, g = item
        if g.n == 0:  # decide's row: the oracle has no graph to search
            return {"graph6": graph6, "error": "empty-graph"}
        if g.n > args.max_n:
            return {"graph6": graph6, "error": REASON_CAPACITY,
                    "message": f"n={g.n} exceeds the oracle size guard {args.max_n}"}
        return oracle_report_doc(graph6, solve_exact(g, enumerate_all=args.enumerate))
    return _write_rows(args, collect_inputs(args), row)


# compare


def _compare_one(item: _Item, deterministic: bool, cap: int, save_dir: Path | None) -> dict:
    """One compare row for a collect_inputs item.  A row that disagrees with
    the oracle also gets a counterexample file in save_dir, if one is given."""
    graph6, genspec, g = item
    err = precondition_error(g)
    if err:
        return SkipRecord(graph6, g.n, err, genspec).to_json_dict()

    if g.n > cap:
        return SkipRecord(graph6, g.n, REASON_CAPACITY, genspec).to_json_dict()
    t0 = time.perf_counter()
    oracle = solve_exact(g)
    elapsed_oracle = time.perf_counter() - t0
    t0 = time.perf_counter()
    decision = decide_eds(g)
    elapsed_decide = time.perf_counter() - t0

    flags = []
    if decision.reason == REASON_EXHAUSTED:
        flags.append(FLAG_EXHAUSTED)
        if oracle.has_eds:
            flags.append(FLAG_PROBE_CONVERSE)

    record = CompareRecord(
        graph6=graph6, n=g.n, r=len(g.adj[0]),
        decide_verdict=decision.verdict, decide_reason=decision.reason,
        oracle_has_eds=oracle.has_eds,
        agree=compute_agree(decision.verdict, oracle.has_eds),
        certificate_valid=True if decision.certificate else None,
        claim_audit_flags=tuple(flags),
        work_counter=decision.work_counter,
        elapsed_decide=0.0 if deterministic else elapsed_decide,
        elapsed_oracle=0.0 if deterministic else elapsed_oracle,
        genspec=genspec)
    if save_dir is not None and not record.agree:
        save_counterexample(save_dir, record,
                            decide_report_doc(graph6, decision, include_trace=True),
                            oracle_report_doc(graph6, oracle))
    return record.to_json_dict()


def cmd_compare(args) -> int:
    save_dir = Path(args.save_counterexamples) if args.save_counterexamples else None
    inputs = collect_inputs(args)
    # fail on an uncreatable directory or an unwritable output path before
    # --out is truncated and before any processing
    if save_dir is not None:
        save_dir.mkdir(parents=True, exist_ok=True)
    summary = {"kind": KIND_SUMMARY, "total": 0, "records": 0, "skips": 0,
               "agreement_rate": None, "max_work_counter": 0, "counterexamples": 0}

    def tally(row: dict) -> None:
        summary["total"] += 1
        if row["kind"] == KIND_SKIP:
            summary["skips"] += 1
            return
        records = summary["records"] = summary["records"] + 1
        # every disagreement is a counterexample
        summary["counterexamples"] += not row["agree"]
        summary["agreement_rate"] = (records - summary["counterexamples"]) / records
        summary["max_work_counter"] = max(summary["max_work_counter"], row["work_counter"])
    return _write_rows(args, inputs, lambda item: _compare_one(
        item, args.deterministic, args.max_n, save_dir), tally, summary)


# audit-facts


def _audit_one(item: _Item, cap: int) -> dict:
    graph6, genspec, g = item
    if g.n == 0:
        return SkipRecord(graph6, 0, "empty-graph", genspec).to_json_dict()
    if g.n > cap:
        return SkipRecord(graph6, g.n, REASON_CAPACITY, genspec).to_json_dict()
    solutions = solve_exact(g, enumerate_all=True).solutions
    filter_violations: list[dict] = []
    probe_violations: list[dict] = []
    converse_violations: list[dict] = []
    # every check needs a solution vertex, or a solution: with none, all are vacuous
    if solutions:
        union = frozenset().union(*solutions)
        # droppability is monotone (reduction._reduce), so a solution vertex
        # droppable from V cannot reach the fixpoint: the drop log names it
        drops, probes = probe_each(g, frozenset(range(g.n)))
        filter_violations = [{"vertex": e.vertex, "witness": e.witness}
                             for e in drops if e.vertex in union]
        for anchor, survivors in probes.items():
            if anchor in union:
                if not survivors:
                    probe_violations.append({"anchor": anchor})
            elif survivors:
                converse_violations.append({"anchor": anchor, "survivors": survivors})

    degree = is_regular(g)
    return {
        "kind": KIND_AUDIT,
        "graph6": graph6,
        "n": g.n,
        "r": degree,
        "connected": is_connected(g),
        "eds_count": len(solutions),
        "filter_soundness_violations": filter_violations,
        "probe_soundness_violations": probe_violations,
        "probe_converse_violations": converse_violations,
        # always []: fixpoints are order-independent (reduction._reduce); pinned schema
        "confluence_violations": [],
        "sound": not filter_violations and not probe_violations,
        "genspec": genspec,
    }


def cmd_audit_facts(args) -> int:
    summary = {"kind": KIND_SUMMARY, "total": 0, "sound": 0,
               # rows where an anchor in no solution probed nonempty
               "converse_findings": 0}

    def tally(row: dict) -> None:
        if row["kind"] == KIND_AUDIT:
            summary["total"] += 1
            summary["sound"] += row["sound"]
            summary["converse_findings"] += bool(row["probe_converse_violations"])
    return _write_rows(args, collect_inputs(args), lambda item: _audit_one(item, args.max_n),
                       tally, summary)


# gen


def cmd_gen(args) -> int:
    specs = _genspecs(args.spec)
    with _open_out(args) as out:
        for spec in specs:
            out.write(encode_graph6(spec.build()) + "\n")
    return EXIT_OK


def _size_guard(text: str) -> int:
    """argparse type of --max-n: a size guard below 1 would make every graph
    a capacity row, so it is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eds-audit",
        description="Decide efficient-dominating-set existence on regular graphs, "
                    "cross-check against an exact oracle, and audit the procedure's claims.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p, with_gen: bool):
        p.add_argument("input", nargs="?",
                       help="graph6 string, file of graph6 lines, or - for stdin (default)")
        if with_gen:
            p.add_argument("--gen", action="append", default=[],
                           metavar="SPEC", help="generate graphs instead of reading input")

    p = sub.add_parser("decide", help="run the decision procedure per graph")
    add_input(p, with_gen=False)
    p.add_argument("--trace", action="store_true", help="include the full event trace")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("oracle", help="run the exact oracle per graph")
    add_input(p, with_gen=False)
    p.add_argument("--enumerate", action="store_true", help="enumerate all solutions")
    p.add_argument("--max-n", type=_size_guard, default=ORACLE_DEFAULT_MAX_N,
                   help=f"oracle size guard (default {ORACLE_DEFAULT_MAX_N})")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compare", help="run both solvers and record agreement")
    add_input(p, with_gen=True)
    p.add_argument("--out", help="JSONL output path (default stdout)")
    p.add_argument("--save-counterexamples", metavar="DIR",
                   help="directory for replayable disagreement files")
    p.add_argument("--deterministic", action="store_true",
                   help="zeroed timings, byte-stable output")
    p.add_argument("--max-n", type=_size_guard, default=ORACLE_DEFAULT_MAX_N,
                   help=f"oracle size guard (default {ORACLE_DEFAULT_MAX_N})")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("audit-facts",
                       help="enumerate solutions and audit filter/probe claims")
    add_input(p, with_gen=True)
    p.add_argument("--out", help="JSONL output path (default stdout)")
    p.add_argument("--max-n", type=_size_guard, default=AUDIT_DEFAULT_MAX_N,
                   help=f"size guard for enumeration (default {AUDIT_DEFAULT_MAX_N})")
    p.set_defaults(func=cmd_audit_facts)

    p = sub.add_parser("gen", help="emit graph6 lines for generator specs")
    p.add_argument("spec", nargs="+",
                   help="generator spec, e.g. cycle:n=6 or random-regular:n=8,r=3,seed=1..20")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # stdout is flushed here, inside the handlers, on every path: a run
        # that stops on an error still delivers the rows written before it
        try:
            code = args.func(args)
        finally:
            if sys.stdout is not None:  # None when fd 1 was closed at start
                sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does: stop with nothing on
        # stderr, and point fd 1 at /dev/null so that a later flush (at the
        # exit of an in-process caller's interpreter) writes nowhere instead
        # of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    return code


def run() -> NoReturn:
    """The process entry of ``eds-audit`` and ``python -m eds_audit.cli``:
    end the process with main's code, skipping interpreter teardown.

    main has flushed stdout; os._exit flushes nothing else, so this is safe
    only while every other file a run writes is closed before main returns
    (_open_out closes through ``with``, save_counterexample writes through
    write_text), nothing registers an atexit handler, and no run starts a
    thread or process.  An exception main lets through (argparse's
    SystemExit for --help and usage errors, or a crash) ends the
    interpreter as usual.
    """
    code = main()
    if sys.stderr is not None:  # None when fd 2 was closed at start
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
