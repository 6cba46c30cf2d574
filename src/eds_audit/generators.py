"""Deterministic and seeded-random construction of the regular-graph corpus.

Random regular graphs come from the stub-pairing (configuration) model with
full rejection of loops, multi-edges, and disconnected outcomes, driven by
the SplitMix64 generator so corpora are bit-reproducible.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

from .errors import CapacityError, ParseError
from .graph import Graph, is_connected
from .rng import SplitMix64

PAIRING_RETRY_BUDGET = 10_000


def _check_cycle(n: int) -> None:
    if n < 3:
        raise ValueError("cycle needs n >= 3")


def gen_cycle(n: int) -> Graph:
    _check_cycle(n)
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _check_complete(n: int) -> None:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")


def gen_complete(n: int) -> Graph:
    _check_complete(n)
    return Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j)])


def _check_hypercube(d: int) -> None:
    if d < 1:
        raise ValueError("hypercube needs dimension >= 1")


def gen_hypercube(d: int) -> Graph:
    _check_hypercube(d)
    n = 1 << d
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)]
    return Graph.from_edges(n, edges)


def _check_circulant(n: int, offsets: tuple[int, ...]) -> None:
    if n < 1:
        raise ValueError("circulant needs n >= 1")
    if not offsets:
        raise ValueError("circulant needs at least one offset")
    for o in sorted(set(offsets)):
        if not 0 < o <= n // 2:
            raise ValueError(f"offset {o} outside 1..n/2")


def gen_circulant(n: int, offsets: tuple[int, ...]) -> Graph:
    _check_circulant(n, offsets)
    offs = sorted(set(offsets))
    edges = {(min(i, (i + o) % n), max(i, (i + o) % n)) for i in range(n) for o in offs}
    return Graph.from_edges(n, sorted(edges))


def _check_petersen(n: int, k: int) -> None:
    if n < 3:
        raise ValueError("generalized Petersen needs n >= 3")
    if not 1 <= k < n / 2:
        raise ValueError("generalized Petersen needs 1 <= k < n/2")


def gen_petersen(n: int, k: int) -> Graph:
    """Generalized Petersen graph: outer n-cycle 0..n-1, inner vertices
    n..2n-1 joined at step k, spokes i to n+i."""
    _check_petersen(n, k)
    # no edge repeats: a repeated inner edge needs 2k = 0 (mod n)
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, n + i))
        edges.append((n + i, n + (i + k) % n))
    return Graph.from_edges(2 * n, edges)


def _check_random_regular(n: int, r: int, seed: int) -> None:
    # every seed is in range
    if n < 1 or r < 0 or r >= n:
        raise ValueError("random regular graph needs 0 <= r < n")
    if (n * r) % 2:
        raise ValueError("random regular graph needs n*r even")


def gen_random_regular(n: int, r: int, seed: int) -> Graph:
    """Seeded r-regular connected simple graph on n vertices via stub pairing.

    Each attempt draws a fresh SplitMix64 stream from the master stream,
    shuffles the n*r stub list, and pairs consecutive stubs.  Pairs are
    checked as the shuffle fixes them, from the top down, and an attempt is
    rejected at the first loop or repeated edge; a complete one is rejected
    if it is disconnected.  Which attempts pass, and their edges, do not
    depend on the order the pairs are checked in.
    """
    _check_random_regular(n, r, seed)
    master = SplitMix64(seed)
    template = [v for v in range(n) for _ in range(r)]
    for _ in range(PAIRING_RETRY_BUDGET):
        # one iterator zipped with itself pairs stubs (2k+1, 2k), k top-down;
        # edge {u, v} with u < v is the int u*n + v in seen
        stubs = template.copy()
        it = SplitMix64(master.next_u64()).shuffle(stubs)
        seen: set[int] = set()
        for u, v in zip(it, it):
            if u == v:
                break
            key = u * n + v if u < v else v * n + u
            if key in seen:
                break
            seen.add(key)
        else:
            # drained, so stubs is fully shuffled and its pairs are the edges,
            # which seen has checked: added in Graph.from_edges' order, so
            # each neighbour set iterates as it would there
            nbrs: list[set[int]] = [set() for _ in range(n)]
            for u, v in zip(stubs[::2], stubs[1::2]):
                nbrs[u].add(v)
                nbrs[v].add(u)
            g = Graph._trusted(n, tuple(map(frozenset, nbrs)))
            if is_connected(g):
                return g
    raise CapacityError(
        f"no simple connected pairing for n={n}, r={r}, seed={seed} "
        f"within {PAIRING_RETRY_BUDGET} attempts")


# family -> (builder, its parameter names in argument and canonical order,
# the check that raises ValueError unless the builder's arguments are in
# range; the builder runs it first, and GenSpec when a spec is parsed)
_Family = tuple[Callable[..., Graph], tuple[str, ...], Callable[..., None]]
_FAMILIES: dict[str, _Family] = {
    "cycle": (gen_cycle, ("n",), _check_cycle),
    "complete": (gen_complete, ("n",), _check_complete),
    "hypercube": (gen_hypercube, ("d",), _check_hypercube),
    "circulant": (gen_circulant, ("n", "offsets"), _check_circulant),
    "generalized-petersen": (gen_petersen, ("n", "k"), _check_petersen),
    "random-regular": (gen_random_regular, ("n", "r", "seed"), _check_random_regular),
}


def _family(name: str) -> _Family:
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown graph family {name!r}") from None


class _GenSpecFields(NamedTuple):
    family: str
    n: int | None = None
    r: int | None = None
    d: int | None = None
    k: int | None = None
    offsets: tuple[int, ...] | None = None
    seed: int | None = None


class GenSpec(_GenSpecFields):
    """One generator invocation, with a canonical string form for CLI flags
    and report rows (e.g. 'random-regular:n=10,r=3,seed=42').

    The family must be known, and each of its parameters set and in range,
    so a spec that parses has a graph, or a CapacityError, when built.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "GenSpec":
        self = super().__new__(cls, *args, **kwargs)
        _, params, check = _family(self.family)
        missing = [p for p in params if getattr(self, p) is None]
        if missing:
            raise ValueError(f"{self.family} spec missing {sorted(missing)}")
        check(*(getattr(self, p) for p in params))
        return self

    def canonical(self) -> str:
        parts = []
        for name in _FAMILIES[self.family][1]:
            value = getattr(self, name)
            text = "+".join(map(str, value)) if name == "offsets" else value
            parts.append(f"{name}={text}")
        return f"{self.family}:{','.join(parts)}"

    @property
    def order(self) -> int:
        """The vertex count of the graph ``build`` makes, read off the
        fields without building it."""
        if self.family == "hypercube":
            return 1 << self.d
        if self.family == "generalized-petersen":
            return 2 * self.n
        return self.n

    def build(self) -> Graph:
        builder, params, _ = _FAMILIES[self.family]
        return builder(*(getattr(self, p) for p in params))


def _seed_range(value: str) -> range:
    """Seeds A..B inclusive; B < A is an error, not an empty sweep."""
    lo, _, hi = value.partition("..")
    try:
        first, last = int(lo), int(hi)
    except ValueError:
        raise ParseError(f"bad seed range {value!r}") from None
    if last < first:
        raise ParseError(f"bad seed range {value!r}: end is below start")
    return range(first, last + 1)


def parse_genspecs(text: str) -> Iterator[GenSpec]:
    """Parse 'family:key=value,...', keys in any order.

    A 'seed=A..B' wherever it appears expands to one spec per seed, A to B
    inclusive, in seed order.  The whole text is checked by this call; the
    specs are built one at a time as the iterator reaches them.
    """
    family, _, rest = text.partition(":")
    family = family.strip()
    _, params, _ = _family(family)
    fields: dict[str, object] = {}
    for chunk in filter(None, (p.strip() for p in rest.split(","))):
        key, eq, value = chunk.partition("=")
        key = key.strip()
        if not eq or key not in params:
            raise ValueError(f"bad parameter {chunk!r} for family {family!r}")
        if key in fields:
            raise ValueError(f"duplicate parameter {key!r}")
        if key == "offsets":
            try:
                # sorted, each once: the text names the graph gen_circulant builds
                fields[key] = tuple(sorted({int(o) for o in value.split("+")}))
            except ValueError:
                raise ValueError(f"bad offsets {value!r}") from None
        elif key == "seed" and ".." in value:
            fields[key] = _seed_range(value)
        else:
            try:
                fields[key] = int(value)
            except ValueError:
                raise ValueError(f"non-integer value in {chunk!r}") from None
    seed = fields.pop("seed", None)
    seeds = seed if isinstance(seed, range) else (seed,)
    # a missing or out-of-range parameter raises here; the seed is all
    # that differs later
    GenSpec(family, seed=seeds[0], **fields)  # type: ignore[arg-type]
    return (GenSpec(family, seed=s, **fields)  # type: ignore[arg-type]
            for s in seeds)


def parse_genspec(text: str) -> GenSpec:
    """Parse a spec that names exactly one graph; a seed range over several
    seeds is an error."""
    spec, *rest = parse_genspecs(text)
    if rest:
        raise ValueError(f"{text!r} names {1 + len(rest)} graphs, not one")
    return spec
