"""Builders for the lower-bound constructions, each verifiable by scan.

Contents: single-level blow-ups, the iterated blow-up of the Frankl-Furedi
6-vertex 3-graph, the bipartite-style 3-graph placed between equal parts,
the six-part 3-graph whose density polynomial is maximized in densopt, and
the matching augmentation that turns a K4-free graph into a denser
K5-minus-free one.

A part pattern is a tuple of part names, and a part named m times in it
stands for m distinct vertices of that part; blowing the pattern up over
the parts gives every such choice as an edge.  A blow-up is the base
edges blown up over their classes, and layers (a)-(c) of the six-part
construction are ALLOWED_PART_TRIPLES, PAIR_IN_Y and PAIR_IN_X blown up
over its six parts.

Vertex layout conventions: parts occupy consecutive index ranges; splits
into near-equal parts give the remainder to the earliest parts; recursion
in the iterated blow-up stops below six vertices (no internal edges there).
Every pattern is blown up over ascending, disjoint ranges, so its edges are
its picks concatenated in part order, each already increasing, and they
come out as one lex-sorted run: a builder sorts its runs once, sorts no
edge on its own, and leaves a repeated edge to the Hypergraph constructor
to reject.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, combinations, pairwise, product, starmap
from operator import add, eq

from . import embed
from .errors import ConsistencyError, ParameterError
from .hypergraph import FamilySpec, Hypergraph, S6_EDGES, build_named, from_edges, missing_edges

# the part patterns (1-based) of layers (a)-(c) of the six-part construction
# (a) one vertex in each of three parts: all of C([6], 3) except 123, 456,
# 126, 345
ALLOWED_PART_TRIPLES: tuple[tuple[int, int, int], ...] = tuple(
    t for t in combinations(range(1, 7), 3)
    if t not in {(1, 2, 3), (4, 5, 6), (1, 2, 6), (3, 4, 5)}
)
# (b) a pair inside part 3 (resp. 6), the third vertex in part 1 or 2
# (resp. 4 or 5)
PAIR_IN_Y: tuple[tuple[int, int, int], ...] = ((3, 3, 1), (3, 3, 2), (6, 6, 4), (6, 6, 5))
# (c) a pair inside part 1 or 2 (resp. 4 or 5), the third vertex in part 6
# (resp. 3)
PAIR_IN_X: tuple[tuple[int, int, int], ...] = ((1, 1, 6), (2, 2, 6), (4, 4, 3), (5, 5, 3))


@dataclass(frozen=True)
class BlowupSpec:
    base: Hypergraph
    part_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.part_sizes) != self.base.n:
            raise ParameterError(
                f"need one part size per base vertex: {len(self.part_sizes)} "
                f"sizes for {self.base.n} vertices")
        if any(s < 1 for s in self.part_sizes):
            raise ParameterError("part sizes must be >= 1")


@dataclass(frozen=True)
class SixPartParams:
    """Six part sizes with the equalities the G placement requires."""

    sizes: tuple[int, int, int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.sizes) != 6 or any(s < 1 for s in self.sizes):
            raise ParameterError("need six positive part sizes")
        s = self.sizes
        if s[0] != s[1] or s[3] != s[4]:
            raise ParameterError(
                f"sizes of parts 1,2 and of parts 4,5 must match, got {s}")

    @property
    def n(self) -> int:
        return sum(self.sizes)


def blowup(spec: BlowupSpec) -> Hypergraph:
    """Replace vertex v by a class of spec.part_sizes[v] vertices and each
    base edge by all transversal k-sets across its classes."""
    classes = _consecutive(0, spec.part_sizes)
    edges = chain.from_iterable(_blown(e, classes) for e in spec.base.edges)
    return Hypergraph(spec.base.k, sum(spec.part_sizes), tuple(sorted(edges)))


def _blown(pattern, parts) -> list[tuple[int, ...]]:
    """The pattern blown up over parts: every edge that takes m distinct
    vertices of parts[j] for each j named m times, in lex order.

    The parts a pattern names must be ascending, disjoint ranges (parts[i]
    below parts[j] for i < j), as every builder here lays them out: then
    the picks, taken in ascending part order and concatenated, are already
    increasing tuples, and the product yields them in lex order.
    """
    edges: list[tuple[int, ...]] = [()]
    for j in sorted(set(pattern)):
        picks = combinations(parts[j], pattern.count(j))
        edges = list(starmap(add, product(edges, picks)))
    return edges


def _consecutive(start: int, sizes) -> list[range]:
    """Consecutive ranges of the given sizes, the first one at start."""
    return [range(a, b) for a, b in pairwise(accumulate(sizes, initial=start))]


def _near_equal_split(lo: int, hi: int, parts: int) -> list[range]:
    """Split [lo, hi) into consecutive ranges, remainders to earliest parts."""
    q, r = divmod(hi - lo, parts)
    return _consecutive(lo, [q + (i < r) for i in range(parts)])


def iterated_blowup_s6(n: int) -> Hypergraph:
    """Iterated blow-up of the 6-vertex pattern on n vertices.

    Splits {0..n-1} into six consecutive near-equal parts, adds all
    transversal triples of the pattern, then recurses inside each part;
    parts with fewer than six vertices carry no internal edges.
    """
    if n < 0:
        raise ParameterError(f"vertex count must be >= 0, got n={n}")
    return Hypergraph(3, n, tuple(sorted(_s6_star([range(n)]))))


def _s6_star(ranges) -> list[tuple[int, ...]]:
    """The edges of the iterated blow-up of S6 inside each of the ranges."""
    edges: list[tuple[int, ...]] = []
    # a worklist of vertex ranges, the parts of each split appended to it
    ranges = list(ranges)
    for r in ranges:
        if len(r) < 6:
            continue
        parts = _near_equal_split(r.start, r.stop, 6)
        edges.extend(chain.from_iterable(_blown(e, parts) for e in S6_EDGES))
        ranges.extend(parts)
    return edges


def s6_star_edge_count(n: int) -> int:
    """Edge count of iterated_blowup_s6(n) without building it."""
    if n < 6:
        return 0
    parts = _near_equal_split(0, n, 6)
    sizes = [len(p) for p in parts]
    count = sum(sizes[a] * sizes[b] * sizes[c] for a, b, c in S6_EDGES)
    return count + sum(s6_star_edge_count(s) for s in sizes)


def bipartite_g(n: int) -> Hypergraph:
    """3-graph on sides A = {0..n-1}, B = {n..2n-1} with all triples
    {a_i, b_j, a_k} and {a_i, b_j, b_k} for i, j < k (i = j permitted)."""
    if n < 1:
        raise ParameterError(f"side size must be >= 1, got n={n}")
    return Hypergraph(3, 2 * n, tuple(sorted(_g(range(n), range(n, 2 * n)))))


def _g(a: range, b: range) -> list[tuple[int, ...]]:
    """The triples of bipartite_g between equal sides a and b, sorted when
    every vertex of a lies below every vertex of b."""
    return [e for k in range(1, len(a)) for i in range(k) for j in range(k)
            for e in ((a[i], a[k], b[j]), (a[i], b[j], b[k]))]


def bipartite_g_edge_count(n: int) -> int:
    """Closed form (n-1) n (2n-1) / 3."""
    return (n - 1) * n * (2 * n - 1) // 3


def _six_part_layers(p: SixPartParams) -> dict[str, list[tuple[int, ...]]]:
    """The five layers of six_part_h(p), each a list of increasing edges
    made of sorted runs."""
    part = dict(enumerate(_consecutive(0, p.sizes), start=1))
    layers = {
        name: list(chain.from_iterable(_blown(t, part) for t in patterns))
        for name, patterns in (("transversal", ALLOWED_PART_TRIPLES),
                               ("pair_in_y", PAIR_IN_Y),
                               ("pair_in_x", PAIR_IN_X))
    }
    layers["inner_blowup"] = _s6_star(part.values())
    # the a-side of each copy is the lower-numbered part
    layers["bipartite_g"] = _g(part[1], part[2]) + _g(part[4], part[5])
    return layers


def six_part_h(p: SixPartParams) -> Hypergraph:
    """The six-part 3-graph: five edge layers on consecutive parts.

    Layers (a)-(c) are part patterns blown up over the parts: (a)
    ALLOWED_PART_TRIPLES, transversal triples on the sixteen allowed part
    triples; (b) PAIR_IN_Y, pairs inside part 3 (resp. 6) with third vertex
    in parts 1-2 (resp. 4-5); (c) PAIR_IN_X, pairs inside parts 1-2
    (resp. 4-5) with third vertex in part 6 (resp. 3).  Then (d) an
    iterated blow-up inside each part and (e) a copy of the bipartite-style
    graph between parts 1-2 and between 4-5.  Layer disjointness is
    asserted.
    """
    return six_part_with_breakdown(p)[0]


def six_part_with_breakdown(p: SixPartParams) -> tuple[Hypergraph, dict[str, int]]:
    """six_part_h(p) and six_part_breakdown(p) from one build of the layers."""
    layers = _six_part_layers(p)
    # every layer holds increasing triples in sorted runs, so one sort of
    # them all is canonical, and a shared edge shows as two equal neighbours
    edges = sorted(chain.from_iterable(layers.values()))
    if any(map(eq, edges, edges[1:])):
        seen: set[tuple[int, ...]] = set()
        for name, layer in layers.items():
            if not seen.isdisjoint(layer):
                raise ConsistencyError(f"layer {name} overlaps an earlier layer")
            seen.update(layer)
    counts = {name: len(layer) for name, layer in layers.items()}
    return Hypergraph(3, p.n, tuple(edges)), counts


def six_part_breakdown(p: SixPartParams) -> dict[str, int]:
    """Per-layer edge counts of six_part_h(p)."""
    return six_part_with_breakdown(p)[1]


def augment_matching(h: Hypergraph) -> Hypergraph:
    """Add, on each 5-set of the matching, its smallest missing triple.

    Requires a K4-free 3-graph.  Augmentation always uses the matching of
    consecutive blocks {5t..5t+4} for t < floor(n/5).  The result has
    e(H) + floor(n/5) edges and stays K5-minus-free because added edges
    live in disjoint 5-sets.
    """
    if h.k != 3:
        raise ParameterError(f"augmentation applies to 3-graphs, got k={h.k}")
    if not embed.is_free(h, build_named(FamilySpec.complete(4, 3))):
        raise ParameterError("input graph contains a complete 4-vertex 3-graph")
    added = []
    for t in range(h.n // 5):
        block = tuple(range(5 * t, 5 * t + 5))
        gaps = missing_edges(h, block)
        if not gaps:
            raise ConsistencyError(
                f"5-set {block} spans all ten triples in a K4-free graph")
        added.append(gaps[0])
    return from_edges(3, h.n, list(h.edges) + added)
