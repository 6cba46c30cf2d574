"""The four benchmark workloads: their inputs, CLI argv and known answers.

Every input is a generator spec string derived from the workload seed, so the
same seed always yields the same graphs.  File-fed workloads get their graph6
file written from those specs before any timing starts; ``cubic-sweep`` hands
the specs to the CLI's own ``--gen`` flag, because generation is part of the
sweep users run.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 1

CUBIC_NS = (8, 10, 12, 14, 16, 18, 20)
CUBIC_SEEDS_PER_N = 143

# Structured graphs of compare-large, each known to have an EDS.
COMPARE_LARGE_POSITIVES = (
    "hypercube:d=7",
    "cycle:n=120",
    "cycle:n=126",
    "circulant:n=120,offsets=1+2",
    "circulant:n=126,offsets=1+2+3",
    "generalized-petersen:n=60,k=1",
    "generalized-petersen:n=64,k=3",
)


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str          # decide | compare | audit-facts
    from_file: bool          # True: the CLI reads a generated graph6 file
    why: str

    def specs(self, seed: int) -> list[str]:
        return _SPECS[self.name](seed)

    def argv(self, seed: int, input_path: str | None) -> list[str]:
        """CLI arguments after ``python -m eds_audit.cli``."""
        if self.name == "cubic-sweep":
            gens = []
            for n in CUBIC_NS:
                gens += ["--gen", f"random-regular:n={n},r=3,"
                                  f"seed={seed}..{seed + CUBIC_SEEDS_PER_N - 1}"]
            return ["compare", "--deterministic", *gens]
        if self.subcommand == "compare":
            return ["compare", "--deterministic", input_path]
        return [self.subcommand, input_path]


def _cubic_specs(seed: int) -> list[str]:
    return [f"random-regular:n={n},r=3,seed={s}"
            for n in CUBIC_NS for s in range(seed, seed + CUBIC_SEEDS_PER_N)]


def _ladder_specs(seed: int) -> list[str]:
    return (["cycle:n=300", "cycle:n=600"]
            + [f"random-regular:n={n},r=3,seed={seed}" for n in (80, 160, 320)]
            + ["hypercube:d=7", "hypercube:d=8"])


def _compare_large_specs(seed: int) -> list[str]:
    return ([f"random-regular:n={n},r=3,seed={s}"
             for n in (96, 112, 128) for s in range(seed, seed + 20)]
            + list(COMPARE_LARGE_POSITIVES))


def _audit_specs(seed: int) -> list[str]:
    """The acceptance criterion-1 corpus, its random part shifted by seed."""
    specs = [f"cycle:n={n}" for n in range(3, 13)]
    specs += [f"complete:n={n}" for n in range(2, 9)]
    specs += [f"hypercube:d={d}" for d in range(1, 5)]
    specs += ["generalized-petersen:n=5,k=2"]
    for i in range(280):
        n = 6 + i % 9
        r = 2 + i % 3
        if (n * r) % 2:
            r += 1
        specs.append(f"random-regular:n={n},r={r},seed={seed + 999 + i}")
    return specs


_SPECS = {
    "cubic-sweep": _cubic_specs,
    "decide-ladder": _ladder_specs,
    "compare-large": _compare_large_specs,
    "audit-facts": _audit_specs,
}

WORKLOADS = {w.name: w for w in (
    Workload("cubic-sweep", "compare", False,
             "the acceptance sweep users run: 1001 small cubic graphs, "
             "generation and per-row harness overhead dominate"),
    Workload("decide-ladder", "decide", True,
             "decide alone on n=128..600: rescan-from-front reduction and "
             "graph6 parsing are almost all the work"),
    Workload("compare-large", "compare", True,
             "67 graphs at n=96..128 where the oracle really searches, plus "
             "the found path with certificate checks"),
    Workload("audit-facts", "audit-facts", True,
             "the criterion-1 soundness audit: seeded-order fixpoints, public "
             "probes and the enumerate-all oracle"),
)}


def known_eds(spec: str, n: int, r: int) -> bool | None:
    """Whether the graph has an EDS by a known law, or None if no law applies.

    (r+1) must divide n; a cycle has one iff 3 | n; the hypercube Q_d iff
    d+1 is a power of two; K_n always; the listed structured positives do.
    """
    if n % (r + 1):
        return False
    family, _, rest = spec.partition(":")
    params = dict(p.split("=") for p in rest.split(",") if p)
    if family == "cycle":
        return n % 3 == 0
    if family == "hypercube":
        d = int(params["d"])
        return (d + 1) & d == 0
    if family == "complete":
        return True
    if spec in COMPARE_LARGE_POSITIVES:
        return True
    return None


# Exact counts measured on the seed code at DEFAULT_SEED.  A mismatch is a
# failure: the benchmark no longer measures the work it was defined on.
SWEEP_ANCHORS = {
    "cubic-sweep": {
        "reduction.tests": 48503,
        "reduction.tests_max": 179,
        "found": 235,
        "agreement": 1.0,
        "generators.attempts": 8848,
        "oracle.short_circuits": 429,
    },
    "compare-large": {
        "reduction.tests": 249126,
        "verdicts": {"candidates-exhausted": 57, "found": 7,
                     "all-probes-empty": 2, "initial-reduction-empty": 1},
    },
}

# Droppability tests per graph on decide-ladder at DEFAULT_SEED; the
# structured graphs do not depend on the seed.
LADDER_TESTS = {
    "cycle:n=300": 20394,
    "cycle:n=600": 80794,
    "random-regular:n=80,r=3,seed=1": 2277,
    "random-regular:n=160,r=3,seed=1": 7866,
    "random-regular:n=320,r=3,seed=1": 29969,
    "hypercube:d=7": 1453,
    "hypercube:d=8": 2219,
}
