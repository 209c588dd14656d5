"""Core hypergraph type, named families, and the text format."""

import tracemalloc
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from host_files import host_texts
from oracles import check_edge_list, parse_sorting
from turansep import hypergraph
from turansep.constructions import SixPartParams, six_part_h
from turansep.errors import ParameterError, ParseError
from turansep.hypergraph import (
    FamilySpec,
    Hypergraph,
    build_named,
    delete,
    density,
    from_edges,
    induced,
    missing_edges,
    parse,
    serialize,
)


def K(ell, k):
    return build_named(FamilySpec.complete(ell, k))


def Km(ell, k):
    return build_named(FamilySpec.complete_minus(ell, k))


@st.composite
def hypergraphs(draw, max_n=8, ks=(2, 3, 4)):
    k = draw(st.sampled_from(ks))
    n = draw(st.integers(min_value=k, max_value=max_n))
    cand = list(combinations(range(n), k))
    chosen = draw(st.lists(st.sampled_from(cand), unique=True, max_size=len(cand)))
    return from_edges(k, n, chosen)


def test_build_complete():
    h = K(4, 3)
    assert h.n == 4 and h.edge_count == 4
    assert K(5, 3).edge_count == 10


def test_build_s6():
    h = build_named(FamilySpec.s6())
    assert h.n == 6 and h.edge_count == 10


def test_build_complete_minus():
    h = Km(5, 3)
    assert h.edge_count == 9
    # the removed edge is the lexicographically last one
    assert (2, 3, 4) not in h.edge_set


def test_build_daisy():
    for k in (2, 3, 4, 5):
        for t in range(1, k + 2):
            h = build_named(FamilySpec.daisy(t, k))
            assert h.n == k + 1 and h.edge_count == t
    assert build_named(FamilySpec.daisy(2, 3)).edges == ((0, 1, 2), (0, 1, 3))


@pytest.mark.parametrize(
    "make",
    [
        lambda: FamilySpec.complete(3, 3),
        lambda: FamilySpec.complete_minus(4, 4),
        lambda: FamilySpec.daisy(0, 3),
        lambda: FamilySpec.daisy(5, 3),
        lambda: FamilySpec.complete(5, 1),
    ],
)
def test_bad_family_parameters(make):
    with pytest.raises(ParameterError):
        make()


def test_build_named_deterministic():
    a = serialize(build_named(FamilySpec.daisy(3, 4)))
    b = serialize(build_named(FamilySpec.daisy(3, 4)))
    assert a == b


def test_induced_complete_hereditary():
    assert induced(K(5, 3), [0, 2, 3, 4]) == K(4, 3)
    assert induced(K(5, 3), [1, 2, 3, 4]) == K(4, 3)


def test_induced_identity():
    s6 = build_named(FamilySpec.s6())
    assert induced(s6, range(6)) == s6


def test_induced_s6_prefix():
    # filtering the ten listed triples by {0,1,2,3} leaves exactly two
    h = induced(build_named(FamilySpec.s6()), [0, 1, 2, 3])
    assert h.edges == ((0, 1, 2), (1, 2, 3))


def test_induced_out_of_range():
    with pytest.raises(ParameterError):
        induced(K(4, 3), [0, 4])


def test_delete():
    s6 = build_named(FamilySpec.s6())
    assert delete(s6, []) == s6
    assert delete(K(5, 3), [1]) == K(4, 3)
    # dropping a vertex of the missing edge of K5- leaves a complete graph
    assert delete(Km(5, 3), [3]) == K(4, 3)
    assert delete(Km(5, 3), [0]) != K(4, 3)


def test_missing_edges():
    assert missing_edges(K(5, 3), range(5)) == []
    empty = Hypergraph(3, 5, ())
    assert len(missing_edges(empty, range(5))) == 10
    assert missing_edges(Km(5, 3), range(5)) == [(2, 3, 4)]
    with pytest.raises(ParameterError):
        missing_edges(K(5, 3), [0, 1])


def test_missing_edges_k4_free_five_sets():
    # a K4-free 3-graph misses at least three edges on every 5-set
    from turansep.exact import random_maximal_free

    k4 = K(4, 3)
    for seed in range(5):
        h = random_maximal_free(8, k4, seed)
        for s in combinations(range(8), 5):
            assert len(missing_edges(h, s)) >= 3


def test_density():
    assert density(K(4, 3)) == 1
    assert density(build_named(FamilySpec.s6())) == Fraction(1, 2)
    assert density(Hypergraph(3, 5, ())) == 0
    with pytest.raises(ParameterError):
        density(Hypergraph(3, 2, ()))


def test_canonical_constructor_rejects_noncanonical():
    with pytest.raises(ParameterError):
        Hypergraph(3, 4, ((0, 2, 1),))
    with pytest.raises(ParameterError):
        Hypergraph(3, 4, ((0, 1, 3), (0, 1, 2)))
    with pytest.raises(ParameterError):
        Hypergraph(3, 3, ((0, 1, 3),))


def test_from_edges_duplicate():
    with pytest.raises(ParameterError):
        from_edges(3, 4, [(0, 1, 2), (2, 1, 0)])


@given(hypergraphs())
def test_round_trip(h):
    assert parse(serialize(h)) == h


@given(hypergraphs(max_n=14, ks=(2, 3, 4, 5)))
def test_serialize_matches_joined_vertices(h):
    # the edge rows come from one "%d ..." format built from k; they must
    # read as the vertices joined by single spaces, byte for byte
    rows = [f"{h.k} {h.n}"] + [" ".join(str(v) for v in e) for e in h.edges]
    assert serialize(h) == "\n".join(rows) + "\n"


@given(hypergraphs(), st.data())
def test_induced_composition(h, data):
    s = data.draw(st.lists(st.integers(0, max(h.n - 1, 0)), unique=True))
    if h.n == 0:
        s = []
    inner = induced(h, s)
    s_sorted = sorted(set(s))
    t = data.draw(st.lists(st.integers(0, max(inner.n - 1, 0)), unique=True,
                           max_size=inner.n))
    t = [v for v in t if v < inner.n]
    assert induced(inner, t) == induced(h, [s_sorted[i] for i in t])


@given(hypergraphs(), st.data())
def test_delete_edge_count_identity(h, data):
    s = data.draw(st.lists(st.integers(0, max(h.n - 1, 0)), unique=True))
    if h.n == 0:
        s = []
    touched = sum(1 for e in h.edges if set(e) & set(s))
    assert delete(h, s).edge_count + touched == h.edge_count


def test_parse_tolerates_comments_and_unsorted_edges():
    h = parse("# header comment\n3 5\n2 1 0\n\n# more\n0 3 4\n")
    assert h.edges == ((0, 1, 2), (0, 3, 4))


@pytest.mark.parametrize(
    "text",
    [
        "3 5\n0 1 2\n2 1 0\n",  # duplicate
        "3 5\n0 1\n",  # wrong arity
        "3 5\n0 1 7\n",  # out of range
        "3 5\n0 1 1\n",  # repeated vertex
        "0 1 2\n",  # header is not 'k n'
        "",  # missing header
        "3 5\nx y z\n",  # non-integer
    ],
)
def test_parse_errors(text):
    # every fault names its line, except a file with no header at all
    match = r"^line \d+:" if text else r"^missing"
    with pytest.raises(ParseError, match=match):
        parse(text)


def test_parse_error_names_first_faulty_line():
    # the duplicate on line 4 comes before the out-of-range vertex on line 5
    text = "# c\n3 5\n0 1 2\n2 0 1\n0 1 9\n"
    with pytest.raises(ParseError, match=r"^line 4: duplicate edge \[2, 0, 1\]$"):
        parse(text)
    with pytest.raises(ParseError, match=r"^uniformity must be >= 2"):
        parse("1 3\n0\n2\n")


@given(hypergraphs(), st.data())
def test_parse_round_trip_shuffled_reversed(h, data):
    lines = [" ".join(map(str, reversed(e))) for e in h.edges]
    lines = data.draw(st.permutations(lines))
    noise = data.draw(st.lists(st.sampled_from(["", "   ", "# note", "#note", "  #1 2 3"]),
                               max_size=len(lines) + 1))
    body = list(lines)
    for extra in noise:
        body.insert(data.draw(st.integers(0, len(body))), extra)
    text = "\n".join([f"{h.k} {h.n}"] + body) + "\n"
    assert parse(text) == h


def _parsed(parser, text):
    """The graph parser reads from text, or the message of its ParseError."""
    try:
        return parser(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.one_of(host_texts(), st.text("0123456789 \t\r\n#+-x", max_size=40)))
@example("3 5\r\n+02\t1 0\r\n\r\n# c\r\n0 3 04")
@example("3 5\n0 1 2\n0 1 2\n")
@example("3 5\n0 1 2\n0 1\n")
@example("1 3\n2\n0\n")
@example("3 -1\n")
@example("# only a comment\n")
# near misses of serialize's layout
@example("3 6\n0 1\n2 3 4 5\n")       # uneven rows, the right token total
@example("3 7\n0 1 2 3 4 5 6\n")       # two rows' tokens, one line end
@example("3 6\n0 1 2\x0c3 4 5\n")     # line breaks for splitlines only
@example("3 6\n0 1 2\x1c3 4 5\n")
@example("3 6\n0 1 2\u20283 4 5\n")
@example("3 6\n0 1\x0c2\n")
@example("3 5\n0 1\x0c 2\n")          # whitespace int() would skip
@example("3 5\n0 1 \u20282\n")
@example("3 5\n0 1 \u0662\n")         # a non-ASCII digit
@example("3 5\n0 1 \u00b2\n")         # a digit int() cannot read
@example("3 5\n0 1 2 \n")             # a trailing space
@example("3 5\n0 1 2\n\n0 1 3\n")     # a blank line
@example("3 5\n0 1 2\n0 1 3")          # no final newline
@example("3 5\n0 1 2\n0 1 5\n")        # a vertex at n
@example("3 99999999999999999999\n0 1 2\n")
@example("3\x0c 5\n0 1 2\n")           # int() reads 3, splitlines a line
@example("20000000 5\n\n")             # fewer tokens than k, no edge
@example("20000000 5\n# c\n")
def test_parse_matches_sorting_oracle(text):
    # the same graph, or the same error message, as sorting every file
    assert _parsed(parse, text) == _parsed(parse_sorting, text)


def test_parse_reads_chunks_at_line_ends():
    # a file past one chunk is read by the layout's tokenizer alone, and a
    # fault planted after the first chunk gets the oracle's message
    h = six_part_h(SixPartParams((7, 7, 9, 7, 7, 9)))
    text = serialize(h)
    first_end = text.find("\n", text.index("\n") + 1 + hypergraph._CHUNK) + 1
    assert 0 < first_end < len(text)
    lines = text.splitlines(keepends=True)
    at = text.count("\n", 0, first_end) + 3
    row = lines[at].split()
    faults = {
        "duplicate row": (lines[:at + 1] + lines[at:], 0),
        "2-token row": (lines[:at] + [" ".join(row[:2]) + "\n"] + lines[at + 1:], 1),
        "tab": (lines[:at] + ["\t".join(row) + "\n"] + lines[at + 1:], 1),
    }
    oracle = {name: _parsed(parse_sorting, "".join(faulty))
              for name, (faulty, _) in faults.items()}
    assert oracle["tab"] == h
    split = mock.patch.object(hypergraph, "_split_rows", wraps=hypergraph._split_rows)
    # smaller chunks too, so that a chunk cut mid-line cannot end at a
    # line end by chance
    for size in (hypergraph._CHUNK, 1000, 4099):
        with split as tokenize, mock.patch.object(hypergraph, "_CHUNK", size):
            assert parse(text) == h
            assert tokenize.call_count == 0, size
            for name, (faulty, splits) in faults.items():
                tokenize.reset_mock()
                assert _parsed(parse, "".join(faulty)) == oracle[name], (size, name)
                assert tokenize.call_count == splits, (size, name)


def test_parse_edgeless_huge_uniformity_allocates_little():
    # a chunk of fewer than k tokens misses before any row is zipped, so a
    # blank or comment line after a huge k takes nothing of size k
    tracemalloc.start()
    try:
        for text in ("20000000 5\n\n", "20000000 5\n# c\n"):
            assert parse(text) == Hypergraph(20000000, 5, ())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@given(hypergraphs())
def test_parse_builds_canonical_file_once(h):
    # a serialized graph is validated by one constructor check; the same
    # edges in reverse order fail it, and are sorted and checked again
    with mock.patch.object(hypergraph, "_canonical", wraps=hypergraph._canonical) as check:
        assert parse(serialize(h)) == h
        assert check.call_count == 1
        lines = serialize(h).splitlines()
        assert parse("\n".join(lines[:1] + lines[:0:-1])) == h
        assert check.call_count == (3 if h.edge_count > 1 else 2)
        # serialize's layout, final newline kept, with rows out of order:
        # read by the other tokenizer, and built the same number of times
        assert parse("\n".join(lines[:1] + lines[:0:-1]) + "\n") == h
        assert check.call_count == (5 if h.edge_count > 1 else 3)


@given(hypergraphs())
def test_links_match_combinations_oracle(h):
    # each (k-1)-set is keyed by its vertex mask
    naive: dict = {}
    for e in h.edges:
        for t in combinations(e, h.k - 1):
            (v,) = set(e) - set(t)
            key = sum(1 << u for u in t)
            naive[key] = naive.get(key, 0) | 1 << v
    assert h.links == naive


def _error(check, k, n, edges):
    """The text of the ParameterError that check(k, n, edges) raises, or
    None when it raises none."""
    try:
        check(k, n, edges)
    except ParameterError as exc:
        return str(exc)
    return None


# each takes a canonical edge list over [n], with at least two edges, and
# an index into it, and gives the list with that one defect
_DEFECTS = {
    "short edge": lambda es, n, i: es[:i] + [es[i][:-1]] + es[i + 1:],
    "long edge": lambda es, n, i: es[:i] + [(*es[i], es[i][-1] + 1)] + es[i + 1:],
    "repeated vertex": lambda es, n, i: es[:i] + [es[i][:1] + es[i][:-1]] + es[i + 1:],
    "descending vertex": lambda es, n, i: es[:i] + [es[i][::-1]] + es[i + 1:],
    "vertex below 0": lambda es, n, i: [(-1,) + es[0][1:]] + es[1:],
    "vertex at n": lambda es, n, i: es[:-1] + [es[-1][:-1] + (n,)],
    "swapped edges": lambda es, n, i: es[:i] + [es[i + 1], es[i]] + es[i + 2:],
    "duplicate": lambda es, n, i: es[:i + 1] + es[i:],
}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(hypergraphs(max_n=9, ks=(2, 3, 4, 5)), st.sampled_from(sorted(_DEFECTS)),
       st.data())
def test_validation_messages_match_per_edge_oracle(h, defect, data):
    # the column check accepts every canonical list, and on a list with one
    # defect it names the fault in the per-edge loop's words
    k, n, edges = h.k, h.n, list(h.edges)
    assert _error(check_edge_list, k, n, h.edges) is None
    assert Hypergraph(k, n, h.edges) == h
    if len(edges) < 2:
        return
    i = data.draw(st.integers(0, len(edges) - 2))
    bad = tuple(_DEFECTS[defect](edges, n, i))
    message = _error(check_edge_list, k, n, bad)
    assert message is not None
    assert _error(Hypergraph, k, n, bad) == message


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(2, 5), st.integers(0, 8), st.data())
def test_validation_matches_per_edge_oracle_on_any_list(k, n, data):
    # short and long edges, vertices out of range, any order: accepted
    # exactly when the oracle accepts, and otherwise with its message
    edge = st.lists(st.integers(-1, n), min_size=k - 1, max_size=k + 1).map(tuple)
    edges = tuple(data.draw(st.lists(edge, max_size=6)))
    if data.draw(st.booleans()):
        edges = tuple(sorted(edges))
    assert _error(Hypergraph, k, n, edges) == _error(check_edge_list, k, n, edges)
