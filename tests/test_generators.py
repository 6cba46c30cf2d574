"""Graph generators, generator specs, and the seeded RNG."""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from collections import deque

import pytest

import eds_audit.cli as cli

from eds_audit import generators, rng
from eds_audit.generators import (
    PAIRING_RETRY_BUDGET, CapacityError, GenSpec, gen_circulant, gen_complete, gen_cycle,
    gen_hypercube, gen_petersen, gen_random_regular, parse_genspec, parse_genspecs,
)
from eds_audit.graph import Graph, ParseError, encode_graph6, is_connected, is_regular
from eds_audit.rng import SplitMix64, rank_permutation

from .conftest import cycle, petersen, reference_edges


def structured_grid():
    yield from (("cycle", n) for n in range(3, 41))
    yield from (("complete", n) for n in range(1, 14))
    yield from (("hypercube", d) for d in range(1, 8))
    for n in range(2, 14):
        steps = range(1, n // 2 + 1)
        for mask in range(1, 1 << len(steps)):
            yield "circulant", n, tuple(o for o in steps if mask >> (o - 1) & 1)
    yield from (("generalized-petersen", n, k)
                for n in range(3, 41) for k in range(1, (n + 1) // 2))


def test_structured_generators_match_edge_list_references():
    # no runtime check guards the neighbourhoods the generators state, so
    # each graph of the grid is compared, by value and by graph6, with the
    # graph Graph.from_edges builds from the family's edge list
    count = 0
    for family, *args in structured_grid():
        g = GenSpec(family, tuple(args)).build()
        want = Graph.from_edges(*reference_edges(family, *args))
        assert g == want, (family, args)
        assert encode_graph6(g) == encode_graph6(want), (family, args)
        count += 1
    assert count == 38 + 13 + 7 + 240 + 380


def test_parameter_validation():
    with pytest.raises(ValueError):
        gen_cycle(2)
    with pytest.raises(ValueError):
        gen_complete(0)
    with pytest.raises(ValueError):
        gen_hypercube(0)
    with pytest.raises(ValueError, match="offset"):
        gen_circulant(6, (4,))
    with pytest.raises(ValueError, match="offset"):
        gen_circulant(6, ())
    with pytest.raises(ValueError):
        gen_petersen(5, 3)  # k < n/2 required
    with pytest.raises(ValueError, match="even"):
        gen_random_regular(5, 3, 1)
    with pytest.raises(ValueError):
        gen_random_regular(3, 3, 1)


def _reference_random_regular(n: int, r: int, seed: int):
    """The whole-attempt pairing loop: shuffle every stub, then check the
    pairs (2k, 2k+1) bottom-up.  gen_random_regular must accept and reject
    the same attempts and build the same edges."""
    master = SplitMix64(seed)
    template = [v for v in range(n) for _ in range(r)]
    for _ in range(PAIRING_RETRY_BUDGET):
        stubs = template.copy()
        deque(SplitMix64(master.next_u64()).shuffle(stubs), maxlen=0)
        seen = set()
        for u, v in zip(stubs[::2], stubs[1::2]):
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
    raise CapacityError(f"no pairing for n={n}, r={r}, seed={seed} "
                        f"within {PAIRING_RETRY_BUDGET} attempts")


def _count_shuffles(monkeypatch) -> list[int]:
    calls = [0]
    shuffle = SplitMix64.shuffle

    def counted(self, items):
        calls[0] += 1
        return shuffle(self, items)

    monkeypatch.setattr(SplitMix64, "shuffle", counted)
    return calls


def test_random_regular_matches_whole_attempt_reference(monkeypatch):
    calls = _count_shuffles(monkeypatch)
    # r = 5 needs about 400 attempts a graph, each a full reference shuffle,
    # so it runs 10 seeds where r = 3 and 4 run 30; r = 2 is the cheapest
    # and runs 3
    for r, seeds in ((2, 3), (3, 30), (4, 30), (5, 10)):
        for n in range(r + 1, 41):
            if n * r % 2:
                continue
            for seed in range(1, seeds + 1):
                calls[0] = 0
                got = encode_graph6(gen_random_regular(n, r, seed))
                attempts = calls[0]
                calls[0] = 0
                assert got == encode_graph6(_reference_random_regular(n, r, seed))
                assert attempts == calls[0], (n, r, seed)


def test_random_regular_capacity_matches_reference(monkeypatch):
    # r = 6 on 14 vertices: every attempt fails, on both sides
    calls = _count_shuffles(monkeypatch)
    for build in (gen_random_regular, _reference_random_regular):
        calls[0] = 0
        with pytest.raises(CapacityError, match="attempts"):
            build(14, 6, 1)
        assert calls[0] == PAIRING_RETRY_BUDGET


def test_random_regular_smallest_stub_lists_pinned(monkeypatch):
    # no stubs and two stubs: shuffles of zero and one draw, each accepted
    # at the first attempt; graph6 recorded before the draws were batched
    calls = _count_shuffles(monkeypatch)
    for n, r, pinned in ((1, 0, "@"), (2, 1, "A_")):
        for seed in (1, 2, 3):
            calls[0] = 0
            assert encode_graph6(gen_random_regular(n, r, seed)) == pinned
            assert calls[0] == 1, (n, r, seed)


def test_random_regular_impossible_is_a_spec_error(monkeypatch):
    # a connected 0-regular graph is K1 and a connected 1-regular graph K2,
    # so r < 2 on more than r + 1 vertices names no graph: the range check
    # refuses it before a single pairing attempt
    calls = _count_shuffles(monkeypatch)
    for n, r in ((2, 0), (3, 0), (4, 1), (400, 1)):
        with pytest.raises(ValueError, match=r"r >= 2 or n = r \+ 1"):
            gen_random_regular(n, r, 1)
    assert calls[0] == 0


def test_genspec_roundtrip():
    texts = ("cycle:n=6", "complete:n=4", "hypercube:d=3",
             "circulant:n=9,offsets=1+2", "generalized-petersen:n=5,k=2",
             "random-regular:n=10,r=3,seed=42")
    assert [text.partition(":")[0] for text in texts] == list(generators._FAMILIES)
    for text in texts:
        [spec] = parse_genspecs(text)
        assert spec.canonical() == text
        # order is read off the fields, for the size guard, before any build
        assert spec.order == spec.build().n, text


def test_genspec_builds_expected():
    texts = ("cycle:n=6", "generalized-petersen:n=5,k=2", "circulant:n=9,offsets=1+2")
    c6, pet, g = (spec.build() for text in texts for spec in parse_genspecs(text))
    assert (c6, pet, is_regular(g)) == (cycle(6), petersen(), 4)


def test_circulant_offsets_are_canonical(capsys):
    # offsets name a set: every spelling of one graph parses to one spec,
    # and its rows carry the offsets sorted, each once
    canonical = GenSpec("circulant", (9, (1, 2)))
    for text in ("circulant:n=9,offsets=2+1", "circulant:n=9,offsets=1+2+2"):
        assert list(parse_genspecs(text)) == [canonical]
        assert cli.main(["compare", "--deterministic", "--gen", text]) == 0
        row = json.loads(capsys.readouterr().out.splitlines()[0])
        assert row["genspec"] == "circulant:n=9,offsets=1+2"


def test_genspec_errors():
    with pytest.raises(ValueError, match="unknown graph family"):
        parse_genspecs("torus:n=5")
    with pytest.raises(ValueError, match="missing"):
        parse_genspecs("cycle:")
    with pytest.raises(ValueError, match="missing"):
        parse_genspecs("random-regular:n=10,r=3")
    with pytest.raises(ValueError, match=r"missing \['k', 'n'\]"):
        parse_genspecs("generalized-petersen:")
    with pytest.raises(ValueError, match="bad parameter"):
        parse_genspecs("cycle:n=6,r=2")
    with pytest.raises(ValueError, match="non-integer"):
        parse_genspecs("cycle:n=six")
    with pytest.raises(ValueError, match="duplicate"):
        parse_genspecs("cycle:n=6,n=7")
    with pytest.raises(ValueError, match="bad offsets"):
        parse_genspecs("circulant:n=9,offsets=1+x")
    for seeds in ("1..x", "..3", "4..2"):
        with pytest.raises(ParseError, match="bad seed range"):
            parse_genspecs(f"random-regular:n=8,r=3,seed={seeds}")
    with pytest.raises(ParseError, match="end is below start"):
        parse_genspecs("random-regular:seed=4..2,n=8,r=3")
    with pytest.raises(ValueError, match="bad parameter"):
        parse_genspecs("cycle:n=6,seed=1..3")
    # each builder's own range check, run before any spec is built
    for text, message in (("cycle:n=2", "cycle needs n >= 3"),
                          ("complete:n=0", "complete graph needs n >= 1"),
                          ("hypercube:d=0", "hypercube needs dimension >= 1"),
                          ("circulant:n=6,offsets=1+4", "offset 4 outside 1..n/2"),
                          ("generalized-petersen:n=6,k=3", "1 <= k < n/2"),
                          ("random-regular:n=3,r=3,seed=1..5", "0 <= r < n"),
                          ("random-regular:seed=1,n=5,r=3", "n\\*r even"),
                          ("random-regular:n=2,r=0,seed=1", "r >= 2 or n = r \\+ 1"),
                          ("random-regular:n=4,r=1,seed=1", "r >= 2 or n = r \\+ 1")):
        with pytest.raises(ValueError, match=message):
            parse_genspecs(text)


def test_seed_range_expands_in_any_position(capsys):
    singles = [GenSpec("random-regular", (8, 3, s)) for s in (1, 2, 3)]
    lines = [encode_graph6(spec.build()) for spec in singles]
    for text in ("random-regular:n=8,r=3,seed=1..3", "random-regular:seed=1..3,n=8,r=3",
                 "random-regular:n=8,seed=1..3,r=3"):
        assert list(parse_genspecs(text)) == singles
        assert cli.main(["gen", text]) == 0
        assert capsys.readouterr().out.splitlines() == lines
    assert list(parse_genspecs("random-regular:n=8,r=3,seed=2..2")) == singles[1:2]


def test_seed_range_is_expanded_lazily():
    # a sweep builds each spec as it reaches it, not all of them up front
    tracemalloc.start()
    try:
        first = next(iter(parse_genspecs("random-regular:n=12,r=3,seed=1..200000")))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == GenSpec("random-regular", (12, 3, 1))
    assert peak < 64 * 1024, peak


def test_parse_genspec_rejects_a_range():
    with pytest.raises(ValueError, match="names 3 graphs, not one"):
        parse_genspec("random-regular:n=8,r=3,seed=1..3")


def test_seed_range_is_range_checked_once(monkeypatch):
    # every seed of a range shares the other parameters, and a range is
    # contiguous, so checking the text with its first and its last seed
    # covers all the specs it names, however many there are
    builder, params, check = generators._FAMILIES["random-regular"]
    calls = []

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setitem(generators._FAMILIES, "random-regular", (builder, params, counted))
    specs = list(parse_genspecs("random-regular:n=8,r=3,seed=1..50"))
    assert calls == [(8, 3, 1), (8, 3, 50)]
    assert [spec.args for spec in specs] == [(8, 3, s) for s in range(1, 51)]


def test_direct_genspec_is_checked_before_building(monkeypatch):
    # a spec made without parse_genspecs raises from order and build alike
    spec = GenSpec("generalized-petersen", (6, 3))
    monkeypatch.setattr(generators.Graph, "_trusted", None)
    for use in (lambda: spec.order, spec.build):
        with pytest.raises(ValueError, match="1 <= k < n/2"):
            use()


def test_splitmix64_reference_vector():
    # canonical outputs for seed 1234567, pinning the documented algorithm
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


def test_rank_permutation_properties():
    # the tests relabel graphs by rank_permutation's result, taking it as a
    # permutation unchecked, so every seeded order must be one by construction
    for n in range(65):
        for seed in range(1, 21):
            ranks = rank_permutation(n, seed)
            assert sorted(ranks) == list(range(n)), (n, seed)
            assert rank_permutation(n, seed) == ranks
    assert rank_permutation(10, 2) != rank_permutation(10, 1)


def test_draws_match_successive_next_u64():
    # every block size, twice in a row, and seeds that wrap mod 2^64
    for seed in (0, 1, 2**64 - 1, -1, 2**64 + 5):
        for m in range(rng._LANES + 1):
            packed, single = SplitMix64(seed), SplitMix64(seed)
            for _ in range(2):
                assert packed._block(m) == tuple(single.next_u64() for _ in range(m)), \
                    (seed, m)
                assert packed.state == single.state, (seed, m)


def test_shuffle_matches_randbelow_fisher_yates():
    # shuffle computes its draws in packed blocks as positions need them;
    # drained, it must consume the stream exactly like Fisher-Yates from the
    # top index down on next_u64() % (i + 1), and stopped after any number
    # of yields it must have yielded that prefix of the reference, each
    # position as soon as it is final.  Lengths straddle the block size.
    b = rng._LANES
    assert b == 16
    for seed in (0, 1, 42, 2**64 - 1, 12345):
        for length in (0, 1, 2, 15, 16, 17, 32, 33, 60, 65, 129):
            expected = list(range(length))
            ref = SplitMix64(seed)
            for i in range(length - 1, 0, -1):
                j = ref.next_u64() % (i + 1)
                expected[i], expected[j] = expected[j], expected[i]
            for stop in range(1, length):
                got = list(range(length))
                gen = SplitMix64(seed)
                yielded = []
                for item in gen.shuffle(got):
                    yielded.append(item)
                    if len(yielded) == stop:
                        break
                assert yielded == expected[::-1][:stop], (seed, length, stop)
                # early rejection reads only the suffix fixed so far
                assert got[length - stop:] == expected[length - stop:]
                # the state has moved past each block begun, no further
                taken = min(length - 1, -(-stop // b) * b)
                skip = SplitMix64(seed)
                for _ in range(taken):
                    skip.next_u64()
                assert gen.state == skip.state, (seed, length, stop)
            got = list(range(length))
            gen = SplitMix64(seed)
            assert list(gen.shuffle(got)) == expected[::-1]
            assert got == expected
            assert gen.state == ref.state
            assert gen.next_u64() == ref.next_u64()


def test_gen_output_pinned(capsys):
    # sha256 of this gen call's stdout, recorded before the generator's
    # inner loop was rewritten; the corpus bytes must never change
    specs = ["random-regular:n=30,r=3", "random-regular:n=60,r=4",
             "random-regular:n=31,r=4", "random-regular:n=12,r=5",
             "random-regular:n=128,r=3"]
    assert cli.main(["gen", *(f"{spec},seed=1..150" for spec in specs)]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 750
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
        "2130ca085a503164a89f612b0ee99800740b84c96d78347a087c16d03ae828de")


def test_acceptance_sweep_generation_pinned(monkeypatch, capsys):
    # the acceptance sweep's 1001 cubic graphs: the pairing attempts, one
    # shuffle each, and the sha256 of gen's stdout, both recorded before the
    # packed draws took their constants per block width
    calls = _count_shuffles(monkeypatch)
    specs = [f"random-regular:n={n},r=3,seed=1..143" for n in range(8, 21, 2)]
    assert cli.main(["gen", *specs]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1001
    assert calls[0] == 8848
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
        "948253de495539f705db3b3b2131876f44909fa93a85d45a0cc9938f7a56ea45")
