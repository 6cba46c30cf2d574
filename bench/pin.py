#!/usr/bin/env python3
"""Rewrite bench/pins.json from the current program at the default seed.

    python3 bench/pin.py

Pins every row's input graph6 and outcome by generator spec, the sha256 of
each input file and of the rows.  Re-pinning changes what counts as correct,
so it belongs in a change to the benchmark, never in a change that claims a
gain.  It refuses to pin a run whose checks or count anchors fail.
"""

from __future__ import annotations

import json
import sys

import run
from checks import PINS_PATH, digest, projection
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    pins = {}
    for name, w in WORKLOADS.items():
        result = run.run_workload(w, DEFAULT_SEED, 0, False, {})
        if not result["correct"]:
            print(f"{name}: not pinned: {result['problems'] + result['failures']}",
                  file=sys.stderr)
            return 1
        rows = {}
        for i, (info, row) in enumerate(zip(result["infos"], result["first_rows"])):
            outcome = projection(w.subcommand, row, result["certificates"].get(i))
            rows[info.spec] = [digest(row["graph6"]), digest(outcome)]
        pins[name] = {"inputs_sha256": result["inputs_sha256"],
                      "rows_sha256": result["rows_sha256"], "rows": rows}
        print(f"{name}: {len(rows)} rows pinned, rows sha256 {result['rows_sha256'][:16]}")
    PINS_PATH.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": pins},
                                    indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
