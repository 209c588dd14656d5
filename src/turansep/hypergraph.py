"""k-uniform hypergraphs on dense integer vertex labels.

Conventions used everywhere in this package:
  - vertices are 0..n-1;
  - an edge is a strictly increasing k-tuple of vertices;
  - the edge list is sorted lexicographically, so equal hypergraphs have
    byte-identical serializations.

Text format (producible/consumable by every CLI command):
  line 1: ``k n``; each following non-comment line: k vertex indices.
  Lines starting with ``#`` and blank lines are ignored.  Edges need not be
  pre-sorted but duplicates are rejected.  ``parse`` only splits lines
  into integers; a canonical file's edges are validated once, by the
  ``Hypergraph`` constructor, and only a file it rejects is sorted and
  built again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, islice, pairwise
from math import comb
from operator import itemgetter, lt, xor
from typing import Iterable, Sequence

from .errors import ParameterError, ParseError

# Frankl-Furedi 3-graph on six vertices, 0-based; every 4-set spans at
# most two of its ten edges.
S6_EDGES: tuple[tuple[int, int, int], ...] = (
    (0, 1, 2), (0, 1, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5),
    (1, 2, 3), (1, 3, 5), (1, 4, 5), (2, 3, 4), (2, 4, 5),
)


@dataclass(frozen=True)
class Hypergraph:
    """Immutable k-uniform hypergraph in canonical form.

    The constructor insists on canonical input (each edge strictly
    increasing, edge list strictly increasing); use :func:`from_edges` to
    canonicalize arbitrary edge iterables.  It checks the edges by columns
    (``_canonical``), a few passes over whole columns and no step per
    edge; only when that check fails does it walk the edges one by one
    (``_edge_error``), to name the first bad one.
    """

    k: int
    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        k, n, edges = self.k, self.n, self.edges
        if k < 2:
            raise ParameterError(f"uniformity must be >= 2, got k={k}")
        if n < 0:
            raise ParameterError(f"vertex count must be >= 0, got n={n}")
        if not _canonical(k, n, edges):
            raise ParameterError(_edge_error(k, n, edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.edges)

    @cached_property
    def links(self) -> dict[int, int]:
        """Each (k-1)-set lying in an edge, as its vertex mask (the sum of
        1 << u over its vertices), mapped to the bitmask of the vertices that
        complete it to an edge.  Read-only.

        The copy searches extend partial copies through it; the crossing
        count reads :attr:`incidence`.
        """
        bit = [1 << v for v in range(self.n)].__getitem__
        # column i holds the bit of each edge's i-th vertex; an edgeless
        # graph has no columns, whatever its k
        cols = [list(map(bit, map(itemgetter(i), self.edges)))
                for i in range(self.k if self.edges else 0)]
        masks = list(map(sum, zip(*cols)))
        links: dict[int, int] = {}
        get = links.get
        for col in cols:
            for t, b in zip(map(xor, masks, col), col):
                links[t] = get(t, 0) | b
        return links

    @cached_property
    def incidence(self) -> list[int]:
        """For each vertex v, the bitmask of the indices in ``edges`` of the
        edges that hold v.  Read-only."""
        return _incidence_rows(self.n, self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        degs = [0] * self.n
        for e in self.edges:
            for v in e:
                degs[v] += 1
        return tuple(degs)


def _canonical(k: int, n: int, edges: Sequence[Sequence[int]]) -> bool:
    """Whether edges is a canonical edge list over [n], checked column by
    column: every edge has k vertices, each column lies below the next
    one edge by edge, the first column is >= 0 and the last < n, and the
    list is strictly sorted."""
    if not edges:
        return True
    if not all(map(k.__eq__, map(len, edges))):
        return False
    # each column is streamed, never held: a copy of every column would
    # add about 0.7 MB to the peak of a 9,420-edge host's parse
    col = [itemgetter(i) for i in range(k)]
    return (all(all(map(lt, map(a, edges), map(b, edges)))
                for a, b in pairwise(col))
            and min(map(col[0], edges)) >= 0 and max(map(col[-1], edges)) < n
            and all(map(lt, edges, edges[1:])))


def _edge_error(k: int, n: int, edges: Sequence[Sequence[int]]) -> str:
    """What is wrong with the first bad edge of a list that _canonical
    rejects, or where the list is out of order."""
    for e in edges:
        if len(e) != k:
            return f"edge {e} does not have {k} vertices"
        if not all(map(lt, e, e[1:])):
            return f"edge {e} is not strictly increasing"
        if e[0] < 0 or e[-1] >= n:
            return f"edge {e} out of range [0, {n})"
    bad = next(b for a, b in zip(edges, edges[1:]) if a >= b)
    return f"edge list not strictly sorted at {bad}"


def _incidence_rows(n: int, edges: Sequence[Sequence[int]]) -> list[int]:
    """For each vertex v of [n], the bitmask of the positions j with v in
    edges[j].

    One pass over the edges sets bit j of each of its vertices' byte rows
    (bit j is bit j % 8 of byte j // 8, as int.from_bytes reads a
    little-endian row).
    """
    rows = [bytearray((len(edges) + 7) // 8) for _ in range(n)]
    for j, e in enumerate(edges):
        byte, bit = j >> 3, 1 << (j & 7)
        for v in e:
            rows[v][byte] |= bit
    return [int.from_bytes(row, "little") for row in rows]


def from_edges(k: int, n: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Canonicalize an edge iterable into a Hypergraph.

    Duplicate edges (after sorting each edge) are rejected; builders are
    expected to produce each edge exactly once.
    """
    canon = sorted(tuple(sorted(e)) for e in edges)
    for a, b in zip(canon, canon[1:]):
        if a == b:
            raise ParameterError(f"duplicate edge {a}")
    return Hypergraph(k, n, tuple(canon))


@dataclass(frozen=True)
class FamilySpec:
    """Symbolic descriptor of one of the paper's named families.

    kind is one of ``complete`` (K:l,k), ``complete-minus`` (K-:l,k),
    ``daisy`` (D:t,k) or ``s6`` (S6).  Parameter bounds are checked on
    construction.
    """

    kind: str
    ell: int | None = None
    k: int | None = None
    t: int | None = None

    def __post_init__(self) -> None:
        if self.kind in ("complete", "complete-minus"):
            if self.k is None or self.ell is None or self.k < 2:
                raise ParameterError(f"{self.kind} requires l > k >= 2")
            if self.ell <= self.k:
                raise ParameterError(
                    f"{self.kind} requires l > k, got l={self.ell}, k={self.k}")
        elif self.kind == "daisy":
            if self.k is None or self.k < 2:
                raise ParameterError("daisy requires k >= 2")
            if self.t is None or not 1 <= self.t <= self.k + 1:
                raise ParameterError(
                    f"daisy requires 1 <= t <= k+1, got t={self.t}, k={self.k}")
        elif self.kind != "s6":
            raise ParameterError(f"unknown family kind {self.kind!r}")

    @classmethod
    def complete(cls, ell: int, k: int) -> "FamilySpec":
        return cls("complete", ell=ell, k=k)

    @classmethod
    def complete_minus(cls, ell: int, k: int) -> "FamilySpec":
        return cls("complete-minus", ell=ell, k=k)

    @classmethod
    def daisy(cls, t: int, k: int) -> "FamilySpec":
        return cls("daisy", t=t, k=k)

    @classmethod
    def s6(cls) -> "FamilySpec":
        return cls("s6")


def build_named(spec: FamilySpec) -> Hypergraph:
    """Canonical hypergraph of a named family.

    Complete(l,k) is all k-subsets of [l]; CompleteMinus drops the
    lexicographically last edge.  Daisy(t,k) takes the t lexicographically
    smallest k-subsets of {0..k} (all choices are isomorphic, one is fixed
    for determinism).
    """
    if spec.kind == "complete":
        edges = list(combinations(range(spec.ell), spec.k))
        return Hypergraph(spec.k, spec.ell, tuple(edges))
    if spec.kind == "complete-minus":
        edges = list(combinations(range(spec.ell), spec.k))[:-1]
        return Hypergraph(spec.k, spec.ell, tuple(edges))
    if spec.kind == "daisy":
        # the first t of the k + 1 k-subsets, without listing the rest
        edges = islice(combinations(range(spec.k + 1), spec.k), spec.t)
        return Hypergraph(spec.k, spec.k + 1, tuple(edges))
    return Hypergraph(3, 6, S6_EDGES)


def _check_vertices(h: Hypergraph, vertices: Iterable[int]) -> None:
    for v in vertices:
        if v < 0 or v >= h.n:
            raise ParameterError(f"vertex {v} out of range [0, {h.n})")


def induced(h: Hypergraph, vertices: Iterable[int]) -> Hypergraph:
    """Subhypergraph on a vertex set, relabeled 0..|S|-1 preserving order."""
    s = sorted(set(vertices))
    _check_vertices(h, s)
    relabel = {v: i for i, v in enumerate(s)}
    keep = set(s)
    edges = [tuple(relabel[v] for v in e) for e in h.edges if keep.issuperset(e)]
    return Hypergraph(h.k, len(s), tuple(sorted(edges)))


def delete(h: Hypergraph, vertices: Iterable[int]) -> Hypergraph:
    """Remove a vertex set: induced subhypergraph on the complement."""
    drop = set(vertices)
    _check_vertices(h, drop)
    return induced(h, (v for v in range(h.n) if v not in drop))


def drop_isolated(h: Hypergraph) -> Hypergraph:
    """The subhypergraph on the vertices that lie in an edge."""
    return induced(h, (v for v, d in enumerate(h.degrees) if d))


def missing_edges(h: Hypergraph, vertices: Iterable[int]) -> list[tuple[int, ...]]:
    """All k-subsets of S absent from E(H), in lexicographic order."""
    s = sorted(set(vertices))
    if len(s) < h.k:
        raise ParameterError(f"need at least k={h.k} vertices, got {len(s)}")
    _check_vertices(h, s)
    present = h.edge_set
    return [e for e in combinations(s, h.k) if e not in present]


def density(h: Hypergraph) -> Fraction:
    """Exact edge density e(H) / C(n, k); requires n >= k."""
    if h.n < h.k:
        raise ParameterError(f"density needs n >= k, got n={h.n}, k={h.k}")
    return Fraction(h.edge_count, comb(h.n, h.k))


def serialize(h: Hypergraph) -> str:
    """Deterministic text form; equal hypergraphs serialize byte-identically."""
    lines = [f"{h.k} {h.n}"]
    if h.edges:
        # one format for every edge: "%d %d %d" for k = 3
        row = " ".join(["%d"] * h.k)
        lines.extend(row % e for e in h.edges)
    return "\n".join(lines) + "\n"


def parse(text: str) -> Hypergraph:
    """Parse the text format; see the module docstring for its grammar.

    Each line is split once and read as a tuple of integers, in file
    order.  A canonical file (as :func:`serialize` writes it) is validated
    once, by the constructor, and never sorted; only when the constructor
    rejects the rows are the edges and the list sorted and built again, so
    any order of lines and of vertices within a line parses to the same
    graph.  Only when that fails too are the lines walked again, by
    :func:`_line_error`, to name the first faulty one.
    """
    rows = (r for r in map(str.split, text.splitlines()) if r and r[0][0] != "#")
    header = next(rows, None)
    if header is None:
        raise ParseError("missing 'k n' header line")
    try:
        k, n = map(int, header)
        edges = tuple([tuple(map(int, r)) for r in rows])
        try:
            return Hypergraph(k, n, edges)
        except ParameterError:
            return Hypergraph(k, n, tuple(sorted([tuple(sorted(e)) for e in edges])))
    except (ValueError, ParameterError) as exc:
        raise ParseError(_line_error(text) or str(exc)) from None


def _line_error(text: str) -> str | None:
    """The first faulty line of text, as ``line N: ...``, or None when every
    line is well formed on its own."""
    header: list[int] | None = None
    seen: set[tuple[int, ...]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError:
            return f"line {lineno}: non-integer token in {line!r}"
        if header is None:
            if len(values) != 2:
                return f"line {lineno}: header must be 'k n'"
            header = values
            continue
        k, n = header
        if len(values) != k:
            return f"line {lineno}: expected {k} vertices, got {len(values)}"
        edge = tuple(sorted(values))
        if len(set(edge)) != k:
            return f"line {lineno}: repeated vertex in edge {values}"
        if edge[0] < 0 or edge[-1] >= n:
            return f"line {lineno}: vertex out of range [0, {n})"
        if edge in seen:
            return f"line {lineno}: duplicate edge {values}"
        seen.add(edge)
    return None
