"""Deterministic and seeded-random construction of the regular-graph corpus.

Random regular graphs come from the stub-pairing (configuration) model with
full rejection of loops, multi-edges, and disconnected outcomes, driven by
the SplitMix64 generator so corpora are bit-reproducible.
"""

from typing import Callable, Iterator, NamedTuple

from .graph import Graph, ParseError, is_connected
from .rng import SplitMix64

PAIRING_RETRY_BUDGET = 10_000
MAX_SEED = 2**64 - 1


class CapacityError(RuntimeError):
    """A generator ran out of its retry budget before it made a graph."""


def _check_cycle(n: int) -> int:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return n


def gen_cycle(n: int) -> Graph:
    _check_cycle(n)
    return gen_circulant(n, (1,))


def _check_complete(n: int) -> int:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return n


def gen_complete(n: int) -> Graph:
    _check_complete(n)
    everyone = frozenset(range(n))
    return Graph._trusted(n, tuple(everyone - {v} for v in range(n)))


def _check_hypercube(d: int) -> int:
    if d < 1:
        raise ValueError("hypercube needs dimension >= 1")
    return 1 << d


def gen_hypercube(d: int) -> Graph:
    n = _check_hypercube(d)
    return Graph._trusted(n, tuple(frozenset(v ^ (1 << b) for b in range(d)) for v in range(n)))


def _check_circulant(n: int, offsets: tuple[int, ...]) -> int:
    if n < 1:
        raise ValueError("circulant needs n >= 1")
    if not offsets:
        raise ValueError("circulant needs at least one offset")
    for o in sorted(set(offsets)):
        if not 0 < o <= n // 2:
            raise ValueError(f"offset {o} outside 1..n/2")
    return n


def gen_circulant(n: int, offsets: tuple[int, ...]) -> Graph:
    """Vertex v joined to v + o and v - o (mod n) for each offset o; each
    0 < o <= n/2 makes them other vertices, and a set takes repeats once."""
    _check_circulant(n, offsets)
    steps = {s for o in offsets for s in (o, n - o)}
    return Graph._trusted(n, tuple(frozenset((v + s) % n for s in steps) for v in range(n)))


def _check_petersen(n: int, k: int) -> int:
    if n < 3:
        raise ValueError("generalized Petersen needs n >= 3")
    if not 1 <= k < n / 2:
        raise ValueError("generalized Petersen needs 1 <= k < n/2")
    return 2 * n


def gen_petersen(n: int, k: int) -> Graph:
    """Generalized Petersen graph: outer n-cycle 0..n-1, inner vertices
    n..2n-1 joined at step k, spokes i to n+i."""
    _check_petersen(n, k)
    # 1 <= k < n/2 keeps i - k, i and i + k apart (mod n)
    outer = (frozenset({(i - 1) % n, (i + 1) % n, n + i}) for i in range(n))
    inner = (frozenset({i, n + (i - k) % n, n + (i + k) % n}) for i in range(n))
    return Graph._trusted(2 * n, (*outer, *inner))


def _check_random_regular(n: int, r: int, seed: int) -> int:
    if n < 1 or r < 0 or r >= n:
        raise ValueError("random regular graph needs 0 <= r < n")
    if (n * r) % 2:
        raise ValueError("random regular graph needs n*r even")
    # a connected 0-regular graph is K1, and a connected 1-regular graph K2
    if r < 2 and n > r + 1:
        raise ValueError("random regular graph needs r >= 2 or n = r + 1")
    # SplitMix64 reads a seed mod 2^64, so a seed outside would name the
    # graph of another seed under its own genspec
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed {seed} outside 0..{MAX_SEED}")
    return n


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
            # which seen has checked
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
# range and else returns the vertex count of the graph the builder makes;
# the builder runs it first, and parse_genspecs once per spec text and
# once more for a seed range's last seed).  A seed, the one parameter that
# may be a range, comes last.
_Family = tuple[Callable[..., Graph], tuple[str, ...], Callable[..., int]]
_FAMILIES: dict[str, _Family] = {
    "cycle": (gen_cycle, ("n",), _check_cycle),
    "complete": (gen_complete, ("n",), _check_complete),
    "hypercube": (gen_hypercube, ("d",), _check_hypercube),
    "circulant": (gen_circulant, ("n", "offsets"), _check_circulant),
    "generalized-petersen": (gen_petersen, ("n", "k"), _check_petersen),
    "random-regular": (gen_random_regular, ("n", "r", "seed"), _check_random_regular),
}


class GenSpec(NamedTuple):
    """One generator invocation: a family and its parameter values in
    _FAMILIES order, with a canonical string form for CLI flags and report
    rows (e.g. 'random-regular:n=10,r=3,seed=42').

    parse_genspecs is the one validated way to make a spec, so a spec it
    makes has a graph, or a CapacityError, when built.  A spec made
    directly is checked by ``order`` and ``build``, before any graph is made.
    """

    family: str
    args: tuple

    def canonical(self) -> str:
        parts = []
        for name, value in zip(_FAMILIES[self.family][1], self.args):
            text = "+".join(map(str, value)) if name == "offsets" else value
            parts.append(f"{name}={text}")
        return f"{self.family}:{','.join(parts)}"

    @property
    def order(self) -> int:
        """The vertex count of the graph ``build`` makes, from the family's
        range check, without building it."""
        return _FAMILIES[self.family][2](*self.args)

    def build(self) -> Graph:
        return _FAMILIES[self.family][0](*self.args)


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
    inclusive, in seed order.  This is the one validated way to make a
    GenSpec: the whole text is checked by this call, and the specs are made
    one at a time as the iterator reaches them.
    """
    family, _, rest = text.partition(":")
    family = family.strip()
    try:
        _, params, check = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown graph family {family!r}") from None
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
    missing = [p for p in params if p not in fields]
    if missing:
        raise ValueError(f"{family} spec missing {sorted(missing)}")
    *head, last = (fields[p] for p in params)
    seeds = last if isinstance(last, range) else (last,)
    # an out-of-range parameter raises here: only a seed, the last
    # parameter, differs between the specs, and a range is contiguous, so
    # checking its first and last seed covers every seed
    for seed in dict.fromkeys((seeds[0], seeds[-1])):
        check(*head, seed)
    return (GenSpec(family, (*head, s)) for s in seeds)


def parse_genspec(text: str) -> GenSpec:
    """Parse a spec that names exactly one graph; a seed range over several
    seeds is an error.

    No CLI path calls it: ``bench/run.py`` holds it, by importing
    ``generators.parse_genspec`` by name, and it goes when that import does.
    """
    spec, *rest = parse_genspecs(text)
    if rest:
        raise ValueError(f"{text!r} names {1 + len(rest)} graphs, not one")
    return spec
