"""Builders for the lower-bound constructions, each verifiable by scan.

Contents: single-level blow-ups, the iterated blow-up of the Frankl-Furedi
6-vertex 3-graph, the bipartite-style 3-graph placed between equal parts,
the six-part 3-graph whose density polynomial is maximized in densopt, and
the matching augmentation that turns a K4-free graph into a denser
K5-minus-free one.

Vertex layout conventions: parts occupy consecutive index ranges; splits
into near-equal parts give the remainder to the earliest parts; recursion
in the iterated blow-up stops below six vertices (no internal edges there).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations, pairwise

from . import embed
from .errors import ConsistencyError, ParameterError
from .hypergraph import FamilySpec, Hypergraph, S6_EDGES, build_named, from_edges, missing_edges

# part triples (1-based) receiving all transversal edges in the six-part
# construction: all of C([6], 3) except 123, 456, 126, 345
ALLOWED_PART_TRIPLES: tuple[tuple[int, int, int], ...] = tuple(
    t for t in combinations(range(1, 7), 3)
    if t not in {(1, 2, 3), (4, 5, 6), (1, 2, 6), (3, 4, 5)}
)


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
    edges = []
    for e in spec.base.edges:
        edges.extend(_transversals([classes[v] for v in e]))
    return from_edges(spec.base.k, sum(spec.part_sizes), edges)


def _transversals(ranges) -> list[tuple[int, ...]]:
    out = [()]
    for r in ranges:
        out = [t + (v,) for t in out for v in r]
    return [tuple(sorted(t)) for t in out]


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
    edges: list[tuple[int, ...]] = []
    # a worklist of vertex ranges, the parts of each split appended to it;
    # from_edges sorts, so the order of the ranges does not matter
    ranges = [range(n)]
    for r in ranges:
        if len(r) < 6:
            continue
        parts = _near_equal_split(r.start, r.stop, 6)
        for e in S6_EDGES:
            edges.extend(_transversals([parts[v] for v in e]))
        ranges.extend(parts)
    return from_edges(3, n, edges)


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
    edges = []
    for k_idx in range(1, n):
        for i in range(k_idx):
            for j in range(k_idx):
                edges.append((i, n + j, k_idx))
                edges.append((i, n + j, n + k_idx))
    return from_edges(3, 2 * n, edges)


def bipartite_g_edge_count(n: int) -> int:
    """Closed form (n-1) n (2n-1) / 3."""
    return (n - 1) * n * (2 * n - 1) // 3


def _six_part_layers(p: SixPartParams) -> dict[str, set[tuple[int, ...]]]:
    sizes = p.sizes
    part = _consecutive(0, sizes)

    transversal: set[tuple[int, ...]] = set()
    for a, b, c in ALLOWED_PART_TRIPLES:
        transversal.update(_transversals([part[a - 1], part[b - 1], part[c - 1]]))

    pair_in_y: set[tuple[int, ...]] = set()
    # pairs inside part 3 with third vertex in parts 1 or 2; same with 6, 4, 5
    for y, xs in ((2, (0, 1)), (5, (3, 4))):
        thirds = [v for x in xs for v in part[x]]
        for a, b in combinations(part[y], 2):
            pair_in_y.update(tuple(sorted((a, b, c))) for c in thirds)

    pair_in_x: set[tuple[int, ...]] = set()
    # pairs inside parts 1 or 2 with third vertex in part 6; same with 4, 5, 3
    for xs, y in (((0, 1), 5), ((3, 4), 2)):
        for x in xs:
            for a, b in combinations(part[x], 2):
                pair_in_x.update(tuple(sorted((a, b, c))) for c in part[y])

    recursive: set[tuple[int, ...]] = set()
    for i in range(6):
        inner = iterated_blowup_s6(sizes[i])
        off = part[i].start
        recursive.update(tuple(v + off for v in e) for e in inner.edges)

    g_layer: set[tuple[int, ...]] = set()
    # a-side is the lower-indexed part; index order follows vertex order
    for a_idx, b_idx in ((0, 1), (3, 4)):
        s = sizes[a_idx]
        g = bipartite_g(s)
        a_off, b_off = part[a_idx].start, part[b_idx].start
        for e in g.edges:
            g_layer.add(tuple(sorted(
                a_off + v if v < s else b_off + (v - s) for v in e)))

    return {
        "transversal": transversal,
        "pair_in_y": pair_in_y,
        "pair_in_x": pair_in_x,
        "inner_blowup": recursive,
        "bipartite_g": g_layer,
    }


def six_part_h(p: SixPartParams) -> Hypergraph:
    """The six-part 3-graph: five edge layers on consecutive parts.

    Layers: (a) transversal triples on the sixteen allowed part triples;
    (b) pairs inside part 3 (resp. 6) with third vertex in parts 1-2
    (resp. 4-5); (c) pairs inside parts 1-2 (resp. 4-5) with third vertex
    in part 6 (resp. 3); (d) an iterated blow-up inside each part; (e) a
    copy of the bipartite-style graph between parts 1-2 and between 4-5.
    Layer disjointness is asserted.
    """
    return six_part_with_breakdown(p)[0]


def six_part_with_breakdown(p: SixPartParams) -> tuple[Hypergraph, dict[str, int]]:
    """six_part_h(p) and six_part_breakdown(p) from one build of the layers."""
    layers = _six_part_layers(p)
    union: set[tuple[int, ...]] = set()
    total = 0
    for name, layer in layers.items():
        total += len(layer)
        union.update(layer)
        if len(union) != total:
            raise ConsistencyError(f"layer {name} overlaps an earlier layer")
    counts = {name: len(layer) for name, layer in layers.items()}
    # every layer holds sorted triples, so the union is canonical once sorted
    return Hypergraph(3, p.n, tuple(sorted(union))), counts


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
