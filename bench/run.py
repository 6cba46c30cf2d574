#!/usr/bin/env python3
"""eds-audit benchmark: CLI sweep throughput end to end, per-layer spans traced.

    python3 bench/run.py --workload cubic-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

With ``--trace 0`` every pass is one fresh ``python -m eds_audit.cli ...``
process, timed from outside, repeated until ``--seconds`` have passed; it
reports graphs_per_s, setup_s and peak_rss_mb.  With ``--trace 1`` the passes
run in this process through ``eds_audit.cli.main``, alternating untraced and
traced, and it reports the per-layer metrics of bench/spans.py.  Either way
every pass's rows are checked (bench/checks.py) and the last stdout line is
one JSON object: correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

sys.path.insert(0, str(BENCH))

from checks import GraphInfo, PassCheck, check_rows, load_pins, split_output  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, LADDER_TESTS, SWEEP_ANCHORS, WORKLOADS, Workload, known_eds,
)

SETUP_CODE = "import eds_audit.cli as c; c.build_parser()"
# A fixed program of the same kind as a pass (interpreter start, the stdlib
# modules the CLI imports, integer, set and dict churn) that shares no code
# with eds_audit.  Its time tracks the speed the host gives a CLI process.
REFERENCE_CODE = """
import argparse, collections, concurrent.futures, dataclasses, hashlib, json, pathlib
acc, seen, table = 0, set(), {}
for i in range(60000):
    acc = (acc * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
    key = acc >> 50
    if key in seen:
        seen.discard(key)
    else:
        seen.add(key)
    table[i & 4095] = frozenset((key & 7, key & 15, i & 3))
"""
MIN_PASSES = 3
MIN_SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 120
# Wall time of REFERENCE_CODE on a quiet host (2-CPU VM, Python 3.11.7);
# timed results are rescaled to a host that runs it in this time.
REFERENCE_S = 0.13
ORACLE_MAX_N = 128

# (name, unit) of each per-layer metric, in report order; SPAN_OF names the
# span behind each time
LAYER_METRICS = [
    ("cli.self_s", "s"), ("generators.build_s", "s"), ("generators.attempts", "count"),
    ("generators.accept_ratio", "ratio"), ("rng.rank_permutation_s", "s"),
    ("graph.parse_graph6_s", "s"), ("graph.parse_graph6_calls", "count"),
    ("graph.encode_graph6_s", "s"), ("graph.precondition_s", "s"),
    ("reduction.decide_s", "s"), ("reduction.probe_s", "s"), ("reduction.probes", "count"),
    ("reduction.confluence_s", "s"), ("reduction.tests", "count"),
    ("reduction.drops", "count"), ("reduction.tests_per_drop", "ratio"),
    ("reduction.probe_empty_share", "share"), ("reduction.budget_use_max", "share"),
    ("eds.verify_s", "s"), ("eds.verify_calls", "count"), ("oracle.solve_s", "s"),
    ("oracle.nodes", "count"), ("oracle.short_circuit_share", "share"),
    ("records.serialize_s", "s"), ("records.bytes_out", "bytes"),
    ("trace.overhead_s", "s"),
]
SPAN_OF = {
    "cli.self_s": "cli.main", "generators.build_s": "generators.build",
    "rng.rank_permutation_s": "rng.rank_permutation",
    "graph.parse_graph6_s": "graph.parse_graph6",
    "graph.encode_graph6_s": "graph.encode_graph6",
    "graph.precondition_s": "graph.precondition", "reduction.decide_s": "reduction.decide",
    "reduction.probe_s": "reduction.probe", "reduction.confluence_s": "reduction.confluence",
    "eds.verify_s": "eds.verify", "oracle.solve_s": "oracle.solve",
    "records.serialize_s": "records.serialize",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# environment


def child_env() -> dict[str, str]:
    """The CLI's environment: checks on, bytecode cached as an install has it."""
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def read_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    h = hashlib.sha256()
    for path in sorted((SRC / "eds_audit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "optimize": sys.flags.optimize,
        "commit": read_commit(),
        "src_sha256": h.hexdigest(),
        "seed": seed,
        "platform": platform.platform(),
    }


# child processes


def run_child(cmd: list[str], out_path: Path) -> tuple[int, float, int]:
    """Run ``cmd`` from the repo root with stdout to ``out_path``.

    Returns (exit code, wall seconds, peak RSS in KiB).  The child is killed
    after CHILD_TIMEOUT_S and always reaped.
    """
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "eds_audit.cli", *argv]


def reference_probe(work: Path) -> float:
    code, wall, _ = run_child([sys.executable, "-c", REFERENCE_CODE], work / "reference.out")
    if code != 0:
        raise BenchError(f"the reference program failed: see {work / 'reference.err'}")
    return wall


def setup_probe(work: Path) -> float:
    code, wall, _ = run_child([sys.executable, "-c", SETUP_CODE], work / "setup.out")
    if code != 0:
        raise BenchError(f"importing eds_audit.cli failed: see {work / 'setup.err'}")
    return wall


# inputs


def prepare_inputs(w: Workload, seed: int, work: Path) -> tuple[list[GraphInfo], Path | None]:
    """Generate the workload's graphs (untimed) and write its input file."""
    specs = w.specs(seed)
    if not w.from_file:
        return [GraphInfo(spec, None) for spec in specs], None
    from eds_audit.generators import parse_genspec
    from eds_audit.graph import encode_graph6
    from eds_audit.oracle import solve_exact

    infos = []
    for spec in specs:
        g = parse_genspec(spec).build()
        info = GraphInfo(spec, encode_graph6(g))
        # decide rows carry no oracle verdict; supply it where the oracle runs
        if (w.subcommand == "decide" and g.n <= ORACLE_MAX_N
                and known_eds(spec, g.n, len(g.adj[0])) is None):
            info.truth = solve_exact(g).has_eds
        infos.append(info)
    path = work / "input.g6"
    path.write_text("".join(info.graph6 + "\n" for info in infos), encoding="ascii")
    return infos, path


def inputs_sha256(path: Path | None, rows: list[dict]) -> str:
    """sha256 of the input file, or of the graph6 lines cubic-sweep generated."""
    if path is not None:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    text = "".join(row.get("graph6", "") + "\n" for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


# certificates of compare rows


def certificates_from_cli(rows: list[dict], work: Path) -> dict[int, list[int]]:
    """Run ``decide`` on the graphs a compare pass found an EDS for."""
    found = [i for i, row in enumerate(rows) if row.get("decide_verdict") == "found"]
    if not found:
        return {}
    path = work / "found.g6"
    path.write_text("".join(rows[i]["graph6"] + "\n" for i in found), encoding="ascii")
    code, _, _ = run_child(cli_cmd(["decide", str(path)]), work / "found.out")
    certs = {}
    if code == 0:
        lines = (work / "found.out").read_text().splitlines()
        for i, line in zip(found, lines):
            doc = json.loads(line)
            if doc.get("graph6") == rows[i]["graph6"] and doc.get("certificate"):
                certs[i] = doc["certificate"]
    return certs


def certificates_from_trace(tracer, rows: list[dict]) -> dict[int, list[int]]:
    certs = {}
    for i, row in enumerate(rows):
        decision = tracer.decision_for(row.get("graph6"))
        if decision is not None and decision.certificate is not None:
            certs[i] = sorted(decision.certificate.members)
    return certs


# anchors


def row_facts(w: Workload, rows: list[dict], summary: dict | None) -> dict:
    """Exact counts visible in the CLI's own compare rows and summary."""
    facts: dict = {}
    if w.subcommand == "compare":
        counters = [row.get("work_counter", 0) for row in rows]
        facts["reduction.tests"] = sum(counters)
        facts["reduction.tests_max"] = max(counters, default=0)
        verdicts = Counter(row.get("decide_reason") or row.get("decide_verdict")
                           for row in rows)
        facts["verdicts"] = dict(verdicts)
        facts["found"] = verdicts.get("found", 0)
        facts["agreement"] = (summary or {}).get("agreement_rate")
    return facts


def check_anchors(w: Workload, seed: int, infos, rows: list[dict], facts: dict,
                  check: PassCheck) -> list[str]:
    """Compare exact counts with the seed-code anchors; return mismatches."""
    if w.name == "decide-ladder":
        for i, info in enumerate(infos):
            expected = LADDER_TESTS.get(info.spec)
            got = rows[i].get("work_counter") if i < len(rows) else None
            if expected is not None and got != expected:
                check.fail(i, info.spec, f"{got} droppability tests, anchor {expected}")
    if seed != DEFAULT_SEED:
        return []
    return [f"{w.name} {key}: {facts[key]!r}, anchor {expected!r}"
            for key, expected in SWEEP_ANCHORS.get(w.name, {}).items()
            if key in facts and facts[key] != expected]


# passes


def in_process_pass(argv: list[str], out_path: Path, tracer=None) -> tuple[int, float]:
    from eds_audit import cli

    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    with open(out_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a crash fails the pass, not the benchmark
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - start
    return code, wall


def run_workload(w: Workload, seed: int, seconds: int, trace: bool, pins: dict) -> dict:
    work = WORK / f"{w.name}-t{int(trace)}"
    work.mkdir(parents=True, exist_ok=True)
    infos, input_path = prepare_inputs(w, seed, work)
    argv = w.argv(seed, None if input_path is None else str(input_path))
    pinned = pins.get(w.name, {})

    outputs: list[tuple[int, str]] = []       # (exit code, stdout) per pass
    out_path = work / "pass.out"
    measured: dict[str, list[float]] = {"wall": [], "rss": [], "setup": [], "ref": [],
                                        "untraced": [], "traced": []}
    tracers = []
    deadline = time.perf_counter() + seconds
    if not trace:
        setup_probe(work)  # writes the bytecode cache users already have
        while len(outputs) < MIN_PASSES or time.perf_counter() < deadline:
            code, wall, rss = run_child(cli_cmd(argv), out_path)
            outputs.append((code, out_path.read_text(encoding="utf-8")))
            measured["wall"].append(wall)
            measured["rss"].append(rss)
            measured["ref"].append(reference_probe(work))
            measured["setup"].append(setup_probe(work))
        while len(measured["setup"]) < MIN_SETUP_SAMPLES:
            measured["ref"].append(reference_probe(work))
            measured["setup"].append(setup_probe(work))
    else:
        from spans import Tracer
        while len(tracers) < MIN_PASSES or time.perf_counter() < deadline:
            code, wall = in_process_pass(argv, out_path)
            outputs.append((code, out_path.read_text(encoding="utf-8")))
            measured["untraced"].append(wall)
            tracer = Tracer()
            tracer.install()
            try:
                code, wall = in_process_pass(argv, out_path, tracer)
            finally:
                tracer.uninstall()
            outputs.append((code, out_path.read_text(encoding="utf-8")))
            measured["traced"].append(wall)
            tracers.append(tracer)

    # correctness of every pass
    reference = None
    checks: list[PassCheck] = []
    first_rows: list[dict] = []
    summary = None
    certificates: dict[int, list[int]] = {}
    for k, (code, text) in enumerate(outputs):
        rows, pass_summary = split_output(text)
        if k == 0:
            first_rows = [json.loads(line) for line in rows]
            summary = pass_summary
            if w.subcommand == "compare":
                certificates = (certificates_from_trace(tracers[0], first_rows) if trace
                                else certificates_from_cli(first_rows, work))
        check = PassCheck()
        check_rows(w.subcommand, infos, rows, certificates, pinned.get("rows", {}),
                   reference, check)
        if reference is None:
            reference = (rows, set(check.failed))
        if code != 0:
            check.failed.update(range(len(infos)))
            check.reasons.append(f"pass {k} exited with {code}")
        elif w.subcommand != "decide" and pass_summary is None:
            check.failed.update(range(len(infos)))
            check.reasons.append(f"pass {k} printed no summary line")
        checks.append(check)

    facts = row_facts(w, first_rows, summary)
    problems = []
    if trace:
        counts = [dict(t.counts) for t in tracers]
        if any(c != counts[0] for c in counts):
            problems.append("counts differ between traced passes")
        facts.update({k: counts[0].get(k, 0)
                      for k in ("generators.attempts", "oracle.short_circuits")})
    problems += check_anchors(w, seed, infos, first_rows, facts, checks[0])
    digest_in = inputs_sha256(input_path, first_rows)
    if seed == DEFAULT_SEED and pinned and digest_in != pinned["inputs_sha256"]:
        problems.append(f"{w.name} inputs sha256 {digest_in[:16]}, "
                        f"pinned {pinned['inputs_sha256'][:16]}")
    rows_text = "".join(line + "\n" for line in split_output(outputs[0][1])[0])
    rows_sha = hashlib.sha256(rows_text.encode()).hexdigest()

    graphs = len(infos)
    attempted = graphs * len(outputs)
    failed = sum(len(c.failed) for c in checks)
    result = {
        "workload": w.name, "trace": int(trace), "passes": len(outputs),
        "graphs": graphs, "attempted": attempted, "failed": failed,
        "correct": failed == 0 and not problems, "problems": problems,
        "failures": [r for c in checks for r in c.reasons][:20],
        "findings": checks[0].findings,
        "inputs_sha256": digest_in, "rows_sha256": rows_sha,
        "rows_match_pin": rows_sha == pinned.get("rows_sha256"),
        "facts": facts,
    }
    if trace:
        result.update(layer_report(w, infos, tracers, measured))
        tracers[-1].write(work / "spans.jsonl")
    else:
        result["metrics"] = {
            "graphs_per_s": {"value": graphs / rescaled(measured["wall"], measured["ref"]),
                             "unit": "1/s"},
            "setup_s": {"value": rescaled(measured["setup"], measured["ref"]), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(measured["rss"]) / 1024,
                            "unit": "MiB"},
        }
        result["samples"] = {"graphs_per_s": len(measured["wall"]),
                             "setup_s": len(measured["setup"]),
                             "peak_rss_mb": len(measured["rss"])}
        result["unscaled"] = {
            "graphs_per_s": graphs / statistics.median(measured["wall"]),
            "setup_s": statistics.median(measured["setup"]),
            "reference_s": statistics.median(measured["ref"])}
        result["pass_walls_s"] = measured["wall"]
        result["setup_walls_s"] = measured["setup"]
        result["reference_walls_s"] = measured["ref"]
    result["first_rows"] = first_rows
    result["certificates"] = certificates
    result["infos"] = infos
    return result


def rescaled(walls: list[float], refs: list[float]) -> float:
    """Median wall time rescaled to a host that runs REFERENCE_CODE in
    REFERENCE_S.

    Each sample is paired with the reference run timed right after it.  The
    host's speed drifts by up to 2x over minutes; the pair shares that
    drift, and the ratio does not.
    """
    return statistics.median(x * REFERENCE_S / r for x, r in zip(walls, refs))


def layer_report(w: Workload, infos, tracers, measured) -> dict:
    """Per-layer metrics: medians of self seconds over traced passes, counts
    from the first traced pass (all passes must agree)."""
    totals = [t.layer_totals() for t in tracers]
    c = tracers[0].counts
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    metrics, samples = {}, {}
    for name, unit in LAYER_METRICS:
        if name in SPAN_OF:
            span = SPAN_OF[name]
            value = statistics.median(secs.get(span, 0.0) for secs, _ in totals)
            samples[name] = f"{totals[0][1].get(span, 0)} spans x {len(totals)} passes"
        else:
            value = {
                "generators.accept_ratio": ratio(c["generators.graphs"],
                                                 c["generators.attempts"]),
                "reduction.tests_per_drop": ratio(c["reduction.tests"], c["reduction.drops"]),
                "reduction.probe_empty_share": ratio(c["reduction.probe_empties"],
                                                     c["reduction.probes"]),
                "reduction.budget_use_max": tracers[0].budget_use_max,
                "oracle.short_circuit_share": ratio(c["oracle.short_circuits"],
                                                    c["oracle.calls"]),
                "trace.overhead_s": (statistics.median(measured["traced"])
                                     - statistics.median(measured["untraced"])),
            }.get(name, c.get(name, 0))
            samples[name] = (f"{len(measured['traced'])} passes"
                             if name == "trace.overhead_s" else "count per pass")
        metrics[name] = {"value": value, "unit": unit}
    extra = {}
    if w.name == "decide-ladder":
        extra["per_graph"] = []
        for info in infos:
            times = [t.per_graph("reduction.decide", info.graph6) for t in tracers]
            decision = tracers[0].decision_for(info.graph6)
            extra["per_graph"].append({
                "spec": info.spec,
                "reduction.decide_s": statistics.median(own for own, _ in times),
                "decide_total_s": statistics.median(total for _, total in times),
                "reduction.tests": decision.work_counter if decision else None})
    return {"metrics": metrics, "samples": samples,
            "untraced_walls_s": measured["untraced"],
            "traced_walls_s": measured["traced"], **extra}


# reporting


def print_report(result: dict, env: dict) -> None:
    print(f"== {result['workload']}  seed={env['seed']}  trace={result['trace']}  "
          f"passes={result['passes']}  graphs={result['graphs']}")
    print(f"{'metric':30} {'value':>14} {'unit':6} samples")
    for name, m in result["metrics"].items():
        print(f"{name:30} {m['value']:14.6g} {m['unit']:6} {result['samples'][name]}")
    share = result["failed"] / result["attempted"]
    print(f"{'failed_share':30} {share:14.6g} {'share':6} "
          f"{result['failed']} of {result['attempted']} graphs")
    for row in result.get("per_graph", []):
        print(f"  {row['spec']:34} reduction.decide_s={row['reduction.decide_s']:.4f} "
              f"decide_total_s={row['decide_total_s']:.4f} "
              f"reduction.tests={row['reduction.tests']}")
    print(f"inputs sha256 {result['inputs_sha256'][:16]}  rows sha256 "
          f"{result['rows_sha256'][:16]}  rows match pin: {result['rows_match_pin']}")
    if "unscaled" in result:
        print("unscaled medians: " + "  ".join(
            f"{k}={v:.6g}" for k, v in result["unscaled"].items()))
    for line in result["problems"] + result["failures"]:
        print(f"FAIL {line}")
    for line in result["findings"]:
        print(f"finding {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        print("error: refusing to run under python -O, which removes the "
              "program's checks", file=sys.stderr)
        return 2
    if not (SRC / "eds_audit" / "cli.py").is_file():
        print(f"error: no eds_audit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eds_audit
    if Path(eds_audit.__file__).resolve().parent != SRC / "eds_audit":
        print(f"error: imported eds_audit from {eds_audit.__file__}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    pins = load_pins()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"env {json.dumps(env, sort_keys=True)}")
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace), pins)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print_report(result, env)
        saved = {k: v for k, v in result.items()
                 if k not in ("first_rows", "certificates", "infos")}
        (WORK / f"result-{name}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps({"env": env, **saved}, indent=1, sort_keys=True) + "\n")
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, m in result["metrics"].items():
            final["metrics"][prefix + metric] = m
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
