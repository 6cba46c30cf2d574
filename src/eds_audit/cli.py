"""Command-line harness: decide | oracle | compare | audit-facts | gen.

Exit codes: 0 = ran to completion (disagreement findings included), 2 = input
or usage error, 3 = capacity error.  Disagreement between the decision
procedure and the oracle is a recorded finding, never a failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from functools import partial
from pathlib import Path
from typing import Iterator

from .errors import CapacityError, ParseError
from .generators import GenSpec, parse_genspec
from .graph import Graph, encode_graph6, is_connected, is_regular, parse_edge_list, parse_graph6
from .oracle import solve_exact
from .records import (
    FLAG_EXHAUSTED, FLAG_PROBE_CONVERSE, FLAG_WORK_BUDGET,
    KIND_AUDIT, KIND_SUMMARY, CompareRecord, SkipRecord, compute_agree,
    decide_report_doc, json_line, oracle_report_doc, save_counterexample,
)
from .reduction import (
    REASON_EXHAUSTED, VERDICT_DISCREPANCY,
    decide_eds, drop_witness, probe, reduce_to_fixpoint, work_budget,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPACITY = 3

ENV_MAX_N = "EDS_AUDIT_MAX_N"

AUDIT_DEFAULT_MAX_N = 20
# graphs in flight per `compare --jobs` worker: enough that one slow graph at
# the head of the window rarely idles the other workers, few enough that
# memory does not grow with the sweep
COMPARE_WINDOW_PER_JOB = 16

# skip-row reason for a graph above the oracle or audit size guard
REASON_CAPACITY = "capacity"


def _print(line: str, out) -> None:
    out.write(line + "\n")


def oracle_cap(args) -> int | None:
    if getattr(args, "max_n", None) is not None:
        return args.max_n
    env = os.environ.get(ENV_MAX_N)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"{ENV_MAX_N} must be an integer, got {env!r}") from None
    return None


def expand_gen_args(gen_args: list[str], seeds: str | None) -> list[GenSpec]:
    """Expand --gen arguments, including 'seed=A..B' ranges and --seeds."""
    specs: list[GenSpec] = []
    for text in gen_args:
        rng = None
        base = text
        if "seed=" in text:
            head, _, tail = text.rpartition("seed=")
            if ".." in tail:
                rng = _parse_seed_range(tail)
                base = head.rstrip(",").rstrip(":")
        if rng is None and seeds is not None and text.startswith("random-regular")\
                and "seed=" not in text:
            rng = _parse_seed_range(seeds)
            base = text
        if rng is None:
            specs.append(parse_genspec(text))
        else:
            sep = ":" if ":" not in base else ","
            for s in rng:
                specs.append(parse_genspec(f"{base}{sep}seed={s}"))
    return specs


def _parse_seed_range(text: str) -> range:
    """Seeds A..B inclusive, or a single seed; B < A is an error, not empty."""
    lo, dots, hi = text.partition("..")
    try:
        first = int(lo)
        last = int(hi) if dots else first
    except ValueError:
        raise ParseError(f"bad seed range {text!r}") from None
    if last < first:
        raise ParseError(f"bad seed range {text!r}: end is below start")
    return range(first, last + 1)


def collect_inputs(args) -> Iterator[tuple[str, str | None, Graph] | SkipRecord]:
    """Yield (canonical graph6, genspec-or-None, Graph) for each input graph.

    Errors in the input source (input given with --gen, a missing file, an
    empty input) are raised by this call, before the caller opens its output.
    Each graph of a file, stdin or --gen is then built or decoded right before
    the caller processes it, and only once.  Its canonical graph6 string is what every downstream
    record and replay refers to.  A --gen spec whose generator gives up
    yields its capacity SkipRecord instead (graph6 "", since no graph exists).
    """
    gen_args = getattr(args, "gen", None) or []
    if gen_args:
        if args.input is not None:
            raise ParseError("give either an input or --gen, not both")
        return _built(expand_gen_args(gen_args, getattr(args, "seeds", None)))
    literal = False
    if args.input is None or args.input == "-":
        text = sys.stdin.read()
    else:
        path = Path(args.input)
        try:
            is_file = path.exists()
        except OSError:  # e.g. a literal graph6 string longer than a file name can be
            is_file = False
        if is_file:
            text = path.read_text(encoding="utf-8")
        elif args.format == "graph6":
            # a literal graph6 string, or a mistyped file name: decoded now
            text, literal = args.input, True
        else:
            raise ParseError(f"input file {args.input!r} not found")
    if args.format == "edgelist":
        g = parse_edge_list(text)
        return iter([(encode_graph6(g), None, g)])
    lines = [(lineno, line) for lineno, line in enumerate(text.splitlines(), 1)
             if line.strip()]
    if not lines:
        raise ParseError("no graphs in input")
    return iter(list(_decoded(lines))) if literal else _decoded(lines)


def _built(specs: list[GenSpec]) -> Iterator[tuple[str, str, Graph] | SkipRecord]:
    for spec in specs:
        try:
            g = spec.build()
        except CapacityError:
            yield SkipRecord("", spec.n, REASON_CAPACITY, spec.canonical())
            continue
        yield encode_graph6(g), spec.canonical(), g


def _decoded(lines: list[tuple[int, str]]) -> Iterator[tuple[str, None, Graph]]:
    for lineno, line in lines:
        try:
            g = parse_graph6(line)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        yield encode_graph6(g), None, g


def _open_out(args):
    """The --out file, or stdout left open on exit."""
    if getattr(args, "out", None):
        return open(args.out, "w", encoding="utf-8")
    return nullcontext(sys.stdout)


# decide


def cmd_decide(args) -> int:
    status = EXIT_OK
    for graph6, _, g in collect_inputs(args):
        err = precondition_error(g)
        if err:
            _print(json_line({"graph6": graph6, "error": err}), sys.stdout)
            status = EXIT_INPUT
            continue
        doc = decide_report_doc(graph6, decide_eds(g), include_trace=args.trace)
        _print(json_line(doc), sys.stdout)
    return status


def precondition_error(g: Graph) -> str | None:
    if g.n == 0:
        return "empty-graph"
    if is_regular(g) is None:
        return "not-regular"
    if not is_connected(g):
        return "disconnected"
    return None


# oracle


def cmd_oracle(args) -> int:
    cap = oracle_cap(args)
    status = EXIT_OK
    for graph6, _, g in collect_inputs(args):
        try:
            report = solve_exact(g, enumerate_all=args.enumerate, max_n=cap)
        except CapacityError as exc:
            _print(json_line({"graph6": graph6, "error": "capacity", "message": str(exc)}),
                   sys.stdout)
            status = max(status, EXIT_CAPACITY)
            continue
        except ValueError as exc:
            _print(json_line({"graph6": graph6, "error": "usage", "message": str(exc)}),
                   sys.stdout)
            status = EXIT_INPUT
            continue
        _print(json_line(oracle_report_doc(graph6, report)), sys.stdout)
    return status


# compare


def _compare_one(item: tuple[str, str | None, Graph] | SkipRecord, deterministic: bool,
                 cap: int | None) -> dict:
    """One compare row for a collect_inputs item; returns row + optional
    counterexample parts."""
    if isinstance(item, SkipRecord):
        return {"skip": item.to_json_dict()}
    graph6, genspec, g = item
    err = precondition_error(g)
    if err:
        return {"skip": SkipRecord(graph6, g.n, err, genspec).to_json_dict()}

    # the oracle runs first so a graph above its guard skips decide as well
    t0 = time.perf_counter()
    try:
        oracle = solve_exact(g, max_n=cap)
    except CapacityError:
        return {"skip": SkipRecord(graph6, g.n, REASON_CAPACITY, genspec).to_json_dict()}
    elapsed_oracle = time.perf_counter() - t0
    t0 = time.perf_counter()
    decision = decide_eds(g)
    elapsed_decide = time.perf_counter() - t0

    flags = []
    if decision.reason == REASON_EXHAUSTED:
        flags.append(FLAG_EXHAUSTED)
        if oracle.has_eds:
            flags.append(FLAG_PROBE_CONVERSE)
    if decision.work_counter > work_budget(g.n):
        flags.append(FLAG_WORK_BUDGET)

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
    out = {"row": record.to_json_dict()}
    if not record.agree or decision.verdict == VERDICT_DISCREPANCY:
        out["counterexample"] = {
            "record": record,
            "decide": decide_report_doc(graph6, decision, include_trace=True),
            "oracle": oracle_report_doc(graph6, oracle),
        }
    return out


def cmd_compare(args) -> int:
    save_dir = Path(args.save_counterexamples) if args.save_counterexamples else None
    inputs = collect_inputs(args)
    # fail on an unwritable output path before any processing
    with _open_out(args) as out:
        if save_dir is not None:
            save_dir.mkdir(parents=True, exist_ok=True)
        results = _run_compare(inputs, args.deterministic,
                               oracle_cap(args), max(1, args.jobs))
        status = EXIT_OK
        totals = {"rows": 0, "skips": 0, "agreements": 0,
                  "counterexamples": 0, "max_work_counter": 0}
        for result in results:
            if "skip" in result:
                _print(json_line(result["skip"]), out)
                totals["skips"] += 1
                if result["skip"]["reason"] == REASON_CAPACITY:
                    status = EXIT_CAPACITY
                continue
            row = result["row"]
            _print(json_line(row), out)
            totals["rows"] += 1
            totals["agreements"] += 1 if row["agree"] else 0
            totals["max_work_counter"] = max(totals["max_work_counter"],
                                             row["work_counter"])
            if "counterexample" in result:
                totals["counterexamples"] += 1
                if save_dir is not None:
                    ce = result["counterexample"]
                    save_counterexample(save_dir, row["graph6"], ce["record"],
                                        ce["decide"], ce["oracle"])
        summary = {
            "kind": KIND_SUMMARY,
            "total": totals["rows"] + totals["skips"],
            "records": totals["rows"],
            "skips": totals["skips"],
            "agreement_rate": (totals["agreements"] / totals["rows"]
                               if totals["rows"] else None),
            "max_work_counter": totals["max_work_counter"],
            "counterexamples": totals["counterexamples"],
        }
        _print(json_line(summary), sys.stdout)
    return status


def _run_compare(inputs, deterministic, cap, jobs):
    """Compare results in input order, serially or over ``jobs`` processes.

    With processes, at most ``COMPARE_WINDOW_PER_JOB * jobs`` graphs are in
    flight, so memory does not grow with the sweep, and an input error is
    raised after the results of the graphs before it, as in a serial run.
    Rows leave in input order, so a slow graph at the head of the window
    idles the other workers once the window behind it has finished.
    """
    one = partial(_compare_one, deterministic=deterministic, cap=cap)
    if jobs == 1:
        yield from map(one, inputs)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        window: deque = deque()
        items = iter(inputs)
        while True:
            try:
                item = next(items)
            except StopIteration:
                break
            except ValueError:
                yield from (future.result() for future in window)
                raise
            window.append(pool.submit(one, item))
            if len(window) == COMPARE_WINDOW_PER_JOB * jobs:
                yield window.popleft().result()
        yield from (future.result() for future in window)


# audit-facts


def _audit_one(item: tuple[str, str | None, Graph] | SkipRecord, cap: int) -> dict:
    if isinstance(item, SkipRecord):
        return item.to_json_dict()
    graph6, genspec, g = item
    if g.n == 0:
        return SkipRecord(graph6, 0, "empty-graph", genspec).to_json_dict()
    if g.n > cap:
        return SkipRecord(graph6, g.n, REASON_CAPACITY, genspec).to_json_dict()
    enum = solve_exact(g, enumerate_all=True, max_n=cap)
    solutions = enum.solutions
    union = frozenset().union(*solutions) if solutions else frozenset()
    everything = frozenset(range(g.n))

    filter_violations = []
    for sol in solutions:
        for v in sorted(sol):
            witness = drop_witness(g, everything, v)
            if witness is not None:
                filter_violations.append({"vertex": v, "witness": witness})

    baseline, drops = reduce_to_fixpoint(g, everything)
    for event in drops:
        if event.vertex in union:
            filter_violations.append({"vertex": event.vertex, "witness": event.witness})

    probe_violations = []
    converse_violations = []
    for anchor in sorted(baseline):
        result = probe(g, baseline, anchor)
        in_some_solution = anchor in union
        if not result.survivors:
            if in_some_solution:
                probe_violations.append({"anchor": anchor})
        elif solutions and not in_some_solution:
            converse_violations.append({"anchor": anchor,
                                        "survivors": sorted(result.survivors)})

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
        # always []: fixpoints are order-independent (reduce_to_fixpoint); pinned schema
        "confluence_violations": [],
        "sound": not filter_violations and not probe_violations,
        "genspec": genspec,
    }


def cmd_audit_facts(args) -> int:
    cap = args.max_n if args.max_n is not None else AUDIT_DEFAULT_MAX_N
    status = EXIT_OK
    sound = 0
    total = 0
    inputs = collect_inputs(args)
    with _open_out(args) as out:
        for item in inputs:
            row = _audit_one(item, cap)
            _print(json_line(row), out)
            if row["kind"] == KIND_AUDIT:
                total += 1
                sound += 1 if row["sound"] else 0
            elif row["reason"] == REASON_CAPACITY:
                status = EXIT_CAPACITY
        summary = {"kind": KIND_SUMMARY, "total": total, "sound": sound}
        _print(json_line(summary), sys.stdout)
    return status


# gen


def cmd_gen(args) -> int:
    specs = expand_gen_args(args.spec, args.seeds)
    with _open_out(args) as out:
        for spec in specs:
            _print(encode_graph6(spec.build()), out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eds-audit",
        description="Decide efficient-dominating-set existence on regular graphs, "
                    "cross-check against an exact oracle, and audit the procedure's claims.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p, with_gen: bool):
        p.add_argument("input", nargs="?",
                       help="graph6 string, file of graph6 lines, edge-list file, or - for stdin")
        p.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
        if with_gen:
            p.add_argument("--gen", action="append", default=[],
                           metavar="SPEC", help="generate graphs instead of reading input")
            p.add_argument("--seeds", help="seed range A..B applied to --gen specs")

    p = sub.add_parser("decide", help="run the decision procedure per graph")
    add_input(p, with_gen=False)
    p.add_argument("--trace", action="store_true", help="include the full event trace")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("oracle", help="run the exact oracle per graph")
    add_input(p, with_gen=False)
    p.add_argument("--enumerate", action="store_true", help="enumerate all solutions")
    p.add_argument("--max-n", type=int, help="override the oracle size guard")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compare", help="run both solvers and record agreement")
    add_input(p, with_gen=True)
    p.add_argument("--out", help="JSONL output path (default stdout)")
    p.add_argument("--save-counterexamples", metavar="DIR",
                   help="directory for replayable disagreement files")
    p.add_argument("--jobs", type=int, default=1, help="worker processes; rows stay in input order")
    p.add_argument("--deterministic", action="store_true",
                   help="zeroed timings, byte-stable output")
    p.add_argument("--max-n", type=int, help="override the oracle size guard")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("audit-facts",
                       help="enumerate solutions and audit filter/probe claims")
    add_input(p, with_gen=True)
    p.add_argument("--out", help="JSONL output path (default stdout)")
    p.add_argument("--max-n", type=int, default=None,
                   help=f"size guard for enumeration (default {AUDIT_DEFAULT_MAX_N})")
    p.set_defaults(func=cmd_audit_facts)

    p = sub.add_parser("gen", help="emit graph6 lines for generator specs")
    p.add_argument("spec", nargs="+", help="generator spec, e.g. cycle:n=6")
    p.add_argument("--seeds", help="seed range A..B for random-regular specs")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    raise SystemExit(main())
