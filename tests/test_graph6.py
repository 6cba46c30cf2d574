"""graph6 parsing/serialization, cross-checked against networkx."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from eds_audit.graph import (
    GRAPH6_HEADER, GRAPH6_MAX_N, Graph, ParseError, encode_graph6, graph6_size_prefix, parse_graph6,
)

from .conftest import complete, cycle, graphs, hypercube, petersen


# The bit-at-a-time codec the linear-work one replaced, kept as the reference
# for the equivalence tests below.

def reference_parse_graph6(text: str) -> Graph:
    stripped = text.strip(" \t\n\r\v\f")
    base = text.index(stripped) if stripped else 0
    if stripped.startswith(GRAPH6_HEADER):
        base += len(GRAPH6_HEADER)
        stripped = stripped[len(GRAPH6_HEADER):]
    try:
        data = stripped.encode("ascii")
    except UnicodeEncodeError as exc:
        raise ParseError("non-ASCII byte in graph6 input", offset=base + exc.start) from None
    if not data:
        raise ParseError("empty graph6 input", offset=base)

    def group(i: int) -> int:
        if i >= len(data):
            raise ParseError("truncated graph6 input", offset=base + len(data))
        b = data[i]
        if not 63 <= b <= 126:
            raise ParseError(f"invalid graph6 byte {b}", offset=base + i)
        return b - 63

    if data[0] == 126:
        if len(data) > 1 and data[1] == 126:
            parts = [group(i) for i in range(2, 8)]
            pos = 8
        else:
            parts = [group(i) for i in range(1, 4)]
            pos = 4
        n = 0
        for p in parts:
            n = (n << 6) | p
    else:
        n = group(0)
        pos = 1

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    groups = [group(pos + i) for i in range(nbytes)]
    if len(data) > pos + nbytes:
        raise ParseError("trailing garbage after graph6 payload", offset=base + pos + nbytes)

    edges = []
    bit = 0
    for j in range(1, n):
        for i in range(j):
            if groups[bit // 6] >> (5 - bit % 6) & 1:
                edges.append((i, j))
            bit += 1
    if nbytes and groups[-1] & ((1 << (6 * nbytes - nbits)) - 1):
        raise ParseError("nonzero padding bits in graph6 payload", offset=base + pos + nbytes - 1)
    return Graph.from_edges(n, edges)


def reference_encode_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126] + [63 + (n >> s & 63) for s in (12, 6, 0)]
    else:
        head = [126, 126] + [63 + (n >> s & 63) for s in (30, 24, 18, 12, 6, 0)]
    groups = []
    acc = 0
    nbits = 0
    for j in range(1, n):
        row = g.adj[j]
        for i in range(j):
            acc = acc << 1 | (1 if i in row else 0)
            nbits += 1
            if nbits == 6:
                groups.append(acc)
                acc = 0
                nbits = 0
    if nbits:
        groups.append(acc << (6 - nbits))
    return bytes(head + [q + 63 for q in groups]).decode("ascii")


def decode_outcome(parse, text: str):
    """What a parser makes of ``text``: the graph, or the ParseError message,
    which ends with the byte offset."""
    try:
        return "graph", parse(text)
    except ParseError as exc:
        return "error", str(exc)


def nx_encode(g: Graph) -> str:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((u, v) for u in range(g.n) for v in g.adj[u] if u < v)
    return nx.to_graph6_bytes(h, header=False).decode().strip()


def nx_decode(text: str) -> Graph:
    h = nx.from_graph6_bytes(text.encode())
    return Graph.from_edges(h.number_of_nodes(), sorted(h.edges()))


def test_single_vertex():
    g = parse_graph6("@")
    assert g.n == 1 and sum(map(len, g.adj)) // 2 == 0
    assert encode_graph6(g) == "@"


def test_k3_is_bw():
    # cross-checked against the networkx reference encoder
    k3 = complete(3)
    assert nx_encode(k3) == "Bw"
    assert encode_graph6(k3) == "Bw"
    assert parse_graph6("Bw") == k3


def test_empty_graph():
    g = parse_graph6("?")
    assert g.n == 0
    assert encode_graph6(g) == "?"


def test_header_accepted():
    assert parse_graph6(">>graph6<<Bw") == complete(3)
    assert parse_graph6("  >>graph6<<Bw \n") == complete(3)


def test_reference_corpus_matches_networkx():
    corpus = [cycle(n) for n in range(3, 12)] + [complete(n) for n in range(1, 9)]
    corpus += [hypercube(d) for d in range(1, 5)] + [petersen()]
    for g in corpus:
        mine = encode_graph6(g)
        assert mine == nx_encode(g)
        assert parse_graph6(mine) == g


def test_long_form_counts():
    graphs = [g for n in (63, 64, 100, 200, 258, 600)
              for g in (cycle(n), Graph.from_edges(n, [(0, j) for j in range(1, n)]))]
    for g in graphs + [hypercube(8)]:
        text = encode_graph6(g)
        assert text.startswith("~") and not text.startswith("~~")
        assert text == reference_encode_graph6(g) == nx_encode(g)
        assert decode_outcome(parse_graph6, text) == decode_outcome(reference_parse_graph6, text)
        assert parse_graph6(text) == nx_decode(text) == g


def test_size_prefix_forms():
    # one byte to n = 62, "~" and 3 bytes to 258047, "~~" and 6 bytes to 2^36 - 1
    assert [graph6_size_prefix(n) for n in (62, 63, 258047, 258048, GRAPH6_MAX_N)] == [
        "}", "~??~", "~}~~", "~~???~??", "~~~~~~~~"]
    with pytest.raises(ValueError, match="too large"):
        graph6_size_prefix(GRAPH6_MAX_N + 1)


def test_long_form_accepted_for_small_n():
    # noncanonical long-form headers still decode, the 8-byte "~~" one too
    assert parse_graph6("~??Bw") == complete(3)
    for text in ("~~?????Bw", "~~????@?" + encode_graph6(cycle(64))[4:]):
        assert decode_outcome(parse_graph6, text) == decode_outcome(reference_parse_graph6, text)
    assert parse_graph6("~~?????Bw") == complete(3)
    assert parse_graph6("~~????@?" + encode_graph6(cycle(64))[4:]) == cycle(64)


def test_invalid_byte_offset():
    with pytest.raises(ParseError, match="invalid graph6 byte.*offset 1"):
        parse_graph6("B!")
    with pytest.raises(ParseError, match="non-ASCII.*offset 0"):
        parse_graph6("é")


def test_truncated():
    with pytest.raises(ParseError, match="truncated"):
        parse_graph6("D")  # n=5 needs payload bytes
    with pytest.raises(ParseError, match="truncated"):
        parse_graph6("~?")  # long form cut short
    with pytest.raises(ParseError, match="empty"):
        parse_graph6("   ")


def test_trailing_garbage():
    with pytest.raises(ParseError, match="trailing garbage.*offset 2"):
        parse_graph6("Bww")
    with pytest.raises(ParseError, match="trailing garbage"):
        parse_graph6("@@")


def test_nonzero_padding_rejected():
    # K_3 payload uses 3 of 6 bits; force a padding bit on
    bad = "B" + chr(63 + 0b111100)
    with pytest.raises(ParseError, match="padding"):
        parse_graph6(bad)


@given(graphs(min_n=0, max_n=30))
@settings(max_examples=60)
def test_roundtrip_random(g):
    assert parse_graph6(encode_graph6(g)) == g


@given(graphs(min_n=0, max_n=16))
@settings(max_examples=40)
def test_encode_matches_networkx_random(g):
    assert encode_graph6(g) == nx_encode(g)


def test_roundtrip_large():
    from eds_audit.generators import gen_random_regular
    for g in (cycle(150), cycle(200), gen_random_regular(200, 3, 1)):
        assert parse_graph6(encode_graph6(g)) == g


@st.composite
def sparse_or_dense_graphs(draw, max_n=80):
    n = draw(st.integers(min_value=0, max_value=max_n))
    density = draw(st.sampled_from((0.0, 0.05, 0.3, 0.9, 1.0)))
    bits = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    edges = [(i, j) for j in range(n) for i in range(j) if bits.random() < density]
    return Graph.from_edges(n, edges)


@given(sparse_or_dense_graphs())
@settings(max_examples=150, deadline=None)
def test_codec_matches_reference(g):
    text = encode_graph6(g)
    assert text == reference_encode_graph6(g)
    assert decode_outcome(parse_graph6, text) == decode_outcome(reference_parse_graph6, text)


G6_FUZZ_ALPHABET = "?@ABw~!é >"


@st.composite
def graph6_like_text(draw):
    body = draw(st.text(alphabet=G6_FUZZ_ALPHABET, max_size=14))
    if draw(st.booleans()):
        body = GRAPH6_HEADER + body
    lead = draw(st.sampled_from(("", " ", "\n", "\t ", "\v", "\f", "\x1c")))
    trail = draw(st.sampled_from(("", " ", "\n", "\v", "\f", "\x1c")))
    return lead + body + trail


@given(graph6_like_text())
@settings(max_examples=600, deadline=None)
def test_malformed_inputs_match_reference(text):
    assert decode_outcome(parse_graph6, text) == decode_outcome(reference_parse_graph6, text)


def test_error_order_matches_reference():
    # each fault kind, and faults that compete for the first report
    cases = ["B!", "B", "Bw!", "Bw~!", "B~", "~", "~?", "~!", "~?!", "~~", "~~??", "~~???!",
             "~~~~~~~~", "~~~~~~~~!", "~?@@" + "?" * 10, "~?A?" + "?" * 10 + "!", "D!???",
             "D?!??", "D~~", "  " + GRAPH6_HEADER + "D??é", "é", "D", "   ", "Bww", "@@",
             "B{"]  # "B{" sets a padding bit of K3's payload
    for text in cases:
        assert decode_outcome(parse_graph6, text) == decode_outcome(reference_parse_graph6, text)
        assert decode_outcome(parse_graph6, text)[0] == "error"

