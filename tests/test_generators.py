"""Graph generators, generator specs, and the seeded RNG."""

from __future__ import annotations

import hashlib
from collections import deque

import pytest

import eds_audit.cli as cli

from eds_audit.errors import CapacityError
from eds_audit.generators import (
    PAIRING_RETRY_BUDGET, gen_circulant, gen_complete, gen_cycle, gen_hypercube, gen_petersen,
    gen_random_regular, parse_genspec,
)
from eds_audit.graph import Graph, encode_graph6, is_connected, is_regular
from eds_audit.rng import SplitMix64, rank_permutation

from .conftest import complete, cycle, hypercube, petersen


def test_cycle_and_complete_match_reference():
    for n in (3, 5, 8):
        assert gen_cycle(n) == cycle(n)
    for n in (1, 4, 7):
        assert gen_complete(n) == complete(n)


def test_hypercube():
    g = gen_hypercube(3)
    assert g == hypercube(3)
    assert g.n == 8 and sum(map(len, g.adj)) // 2 == 12 and is_regular(g) == 3
    assert sum(map(len, gen_hypercube(1).adj)) // 2 == 1


def test_petersen_matches_reference():
    g = gen_petersen(5, 2)
    assert g == petersen()
    assert g.n == 10 and is_regular(g) == 3 and is_connected(g)


def test_circulant():
    g = gen_circulant(9, (1, 2))
    assert g.n == 9 and is_regular(g) == 4
    # the n/2 offset contributes a single edge per vertex
    g = gen_circulant(6, (3,))
    assert is_regular(g) == 1 and sum(map(len, g.adj)) // 2 == 3


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


def test_random_regular_deterministic():
    a = gen_random_regular(10, 3, 42)
    b = gen_random_regular(10, 3, 42)
    assert a == b
    assert encode_graph6(a) == encode_graph6(b)
    assert is_regular(a) == 3 and is_connected(a)
    assert gen_random_regular(10, 3, 43) != a  # overwhelmingly likely


def test_random_regular_sweep():
    for seed in range(1, 101):
        g = gen_random_regular(8, 3, seed)
        assert is_regular(g) == 3
        assert is_connected(g)
        assert g.n == 8


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
    raise CapacityError(f"no pairing for n={n}, r={r}, seed={seed}")


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
    # so it runs 10 seeds where r = 3 and 4 run 30
    for r, seeds in ((3, 30), (4, 30), (5, 10)):
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
        with pytest.raises(CapacityError):
            build(14, 6, 1)
        assert calls[0] == PAIRING_RETRY_BUDGET


def test_random_regular_impossible_exhausts_budget():
    # r=0 on two vertices can never be connected
    with pytest.raises(CapacityError, match="attempts"):
        gen_random_regular(2, 0, 1)


def test_genspec_roundtrip():
    for text in ("cycle:n=6", "complete:n=4", "hypercube:d=3",
                 "circulant:n=9,offsets=1+2", "generalized-petersen:n=5,k=2",
                 "random-regular:n=10,r=3,seed=42"):
        spec = parse_genspec(text)
        assert spec.canonical() == text
        spec.build()


def test_genspec_builds_expected():
    assert parse_genspec("cycle:n=6").build() == cycle(6)
    assert parse_genspec("generalized-petersen:n=5,k=2").build() == petersen()
    g = parse_genspec("circulant:n=9,offsets=1+2").build()
    assert is_regular(g) == 4


def test_genspec_errors():
    with pytest.raises(ValueError, match="unknown graph family"):
        parse_genspec("torus:n=5")
    with pytest.raises(ValueError, match="missing"):
        parse_genspec("cycle:")
    with pytest.raises(ValueError, match="missing"):
        parse_genspec("random-regular:n=10,r=3")
    with pytest.raises(ValueError, match="bad parameter"):
        parse_genspec("cycle:n=6,r=2")
    with pytest.raises(ValueError, match="non-integer"):
        parse_genspec("cycle:n=six")
    with pytest.raises(ValueError, match="duplicate"):
        parse_genspec("cycle:n=6,n=7")


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
    ranks = rank_permutation(10, 1)
    assert sorted(ranks) == list(range(10))
    assert rank_permutation(10, 1) == ranks
    assert rank_permutation(10, 2) != ranks


def test_shuffle_matches_randbelow_fisher_yates():
    # shuffle inlines the draws; drained, it must consume the stream exactly
    # like Fisher-Yates from the top index down on randbelow, and it must
    # yield each position as soon as that position is final
    for seed in (0, 1, 42, 2**64 - 1):
        for length in (0, 1, 2, 7, 60):
            expected = list(range(length))
            ref = SplitMix64(seed)
            for i in range(length - 1, 0, -1):
                j = ref.randbelow(i + 1)
                expected[i], expected[j] = expected[j], expected[i]
            got = list(range(length))
            rng = SplitMix64(seed)
            yielded = []
            for item in rng.shuffle(got):
                yielded.append(item)
                # early rejection reads only the suffix fixed so far
                k = len(yielded)
                assert got[length - k:] == expected[length - k:]
            assert got == expected
            assert yielded == expected[::-1]
            assert rng.next_u64() == ref.next_u64()


def test_gen_output_pinned(capsys):
    # sha256 of this gen call's stdout, recorded before the generator's
    # inner loop was rewritten; the corpus bytes must never change
    specs = ["random-regular:n=30,r=3", "random-regular:n=60,r=4",
             "random-regular:n=31,r=4", "random-regular:n=12,r=5",
             "random-regular:n=128,r=3"]
    assert cli.main(["gen", *specs, "--seeds", "1..150"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 750
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
        "2130ca085a503164a89f612b0ee99800740b84c96d78347a087c16d03ae828de")
