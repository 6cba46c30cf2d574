"""Deterministic and seeded-random construction of the regular-graph corpus.

Random regular graphs come from the stub-pairing (configuration) model with
full rejection of loops, multi-edges, and disconnected outcomes, driven by
the SplitMix64 generator so corpora are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError
from .graph import Graph, is_connected
from .rng import SplitMix64

PAIRING_RETRY_BUDGET = 10_000

FAMILIES = (
    "cycle",
    "complete",
    "hypercube",
    "circulant",
    "generalized-petersen",
    "random-regular",
)


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def gen_complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j)])


def gen_hypercube(d: int) -> Graph:
    if d < 1:
        raise ValueError("hypercube needs dimension >= 1")
    n = 1 << d
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)]
    return Graph.from_edges(n, edges)


def gen_circulant(n: int, offsets: tuple[int, ...]) -> Graph:
    if n < 1:
        raise ValueError("circulant needs n >= 1")
    offs = sorted(set(offsets))
    if not offs:
        raise ValueError("circulant needs at least one offset")
    for o in offs:
        if not 0 < o <= n // 2:
            raise ValueError(f"offset {o} outside 1..n/2")
    edges = {(min(i, (i + o) % n), max(i, (i + o) % n)) for i in range(n) for o in offs}
    return Graph.from_edges(n, sorted(edges))


def gen_petersen(n: int, k: int) -> Graph:
    """Generalized Petersen graph: outer n-cycle 0..n-1, inner vertices
    n..2n-1 joined at step k, spokes i to n+i."""
    if n < 3:
        raise ValueError("generalized Petersen needs n >= 3")
    if not 1 <= k < n / 2:
        raise ValueError("generalized Petersen needs 1 <= k < n/2")
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, n + i))
        edges.append((n + i, n + (i + k) % n))
    norm = {(min(u, v), max(u, v)) for u, v in edges}
    return Graph.from_edges(2 * n, sorted(norm))


def gen_random_regular(n: int, r: int, seed: int) -> Graph:
    """Seeded r-regular connected simple graph on n vertices via stub pairing.

    Each attempt draws a fresh SplitMix64 stream from the master stream,
    shuffles the n*r stub list, and pairs consecutive stubs.  Pairs are
    checked as the shuffle fixes them, from the top down, and an attempt is
    rejected at the first loop or repeated edge; a complete one is rejected
    if it is disconnected.  Which attempts pass, and their edges, do not
    depend on the order the pairs are checked in.
    """
    if n < 1 or r < 0 or r >= n:
        raise ValueError("random regular graph needs 0 <= r < n")
    if (n * r) % 2:
        raise ValueError("random regular graph needs n*r even")
    master = SplitMix64(seed)
    template = [v for v in range(n) for _ in range(r)]
    for _ in range(PAIRING_RETRY_BUDGET):
        # one iterator zipped with itself pairs stubs (2k+1, 2k), k top-down
        it = SplitMix64(master.next_u64()).shuffle(template.copy())
        seen: set[tuple[int, int]] = set()
        for u, v in zip(it, it):
            if u == v:
                break
            key = (u, v) if u < v else (v, u)
            if key in seen:
                break
            seen.add(key)
        else:
            g = Graph.from_edges(n, sorted(seen))
            if is_connected(g):
                return g
    raise CapacityError(
        f"no simple connected pairing for n={n}, r={r}, seed={seed} "
        f"within {PAIRING_RETRY_BUDGET} attempts")


@dataclass(frozen=True)
class GenSpec:
    """One generator invocation, with a canonical string form for CLI flags
    and report rows (e.g. 'random-regular:n=10,r=3,seed=42')."""

    family: str
    n: int | None = None
    r: int | None = None
    d: int | None = None
    k: int | None = None
    offsets: tuple[int, ...] | None = None
    seed: int | None = None

    def canonical(self) -> str:
        parts = []
        for name in ("n", "r", "d", "k"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        if self.offsets is not None:
            parts.append("offsets=" + "+".join(str(o) for o in self.offsets))
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        return f"{self.family}:{','.join(parts)}"

    def build(self) -> Graph:
        if self.family == "cycle":
            return gen_cycle(self._need("n"))
        if self.family == "complete":
            return gen_complete(self._need("n"))
        if self.family == "hypercube":
            return gen_hypercube(self._need("d"))
        if self.family == "circulant":
            if self.offsets is None:
                raise ValueError("circulant spec needs offsets")
            return gen_circulant(self._need("n"), self.offsets)
        if self.family == "generalized-petersen":
            return gen_petersen(self._need("n"), self._need("k"))
        if self.family == "random-regular":
            if self.seed is None:
                raise ValueError("random-regular spec needs a seed")
            return gen_random_regular(self._need("n"), self._need("r"), self.seed)
        raise ValueError(f"unknown graph family {self.family!r}")

    def _need(self, name: str) -> int:
        value = getattr(self, name)
        if value is None:
            raise ValueError(f"{self.family} spec needs parameter {name}")
        return value


_SPEC_KEYS = {
    "cycle": {"n"},
    "complete": {"n"},
    "hypercube": {"d"},
    "circulant": {"n", "offsets"},
    "generalized-petersen": {"n", "k"},
    "random-regular": {"n", "r", "seed"},
}


def parse_genspec(text: str) -> GenSpec:
    """Parse the canonical 'family:key=value,...' form."""
    family, _, rest = text.partition(":")
    family = family.strip()
    if family not in _SPEC_KEYS:
        raise ValueError(f"unknown graph family {family!r}")
    allowed = _SPEC_KEYS[family]
    fields: dict[str, object] = {}
    for chunk in filter(None, (p.strip() for p in rest.split(","))):
        key, eq, value = chunk.partition("=")
        key = key.strip()
        if not eq or key not in allowed:
            raise ValueError(f"bad parameter {chunk!r} for family {family!r}")
        if key in fields:
            raise ValueError(f"duplicate parameter {key!r}")
        if key == "offsets":
            try:
                offs = tuple(int(o) for o in value.split("+"))
            except ValueError:
                raise ValueError(f"bad offsets {value!r}") from None
            fields["offsets"] = offs
        else:
            try:
                fields[key] = int(value)
            except ValueError:
                raise ValueError(f"non-integer value in {chunk!r}") from None
    missing = allowed - set(fields)
    if missing:
        raise ValueError(f"{family} spec missing {sorted(missing)}")
    return GenSpec(family=family, **fields)  # type: ignore[arg-type]
