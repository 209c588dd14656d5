"""Subhypergraph containment and freeness checks.

A copy of F in H is an injective, edge-preserving vertex map (ordinary
subgraph containment, not induced).  ``contains`` returns the first
embedding in a fixed search order, so results are deterministic.  It maps
F's vertices in descending degree order, one at a time, and reads
``Hypergraph.links``, the bitmask of vertices completing each (k-1)-set to
an edge, keyed by the (k-1)-set's vertex mask: the candidates for the next
vertex are the unused vertices ANDed with the links of the images of its
F-edges' other k-1 vertices (the edges whose last vertex in the order it
is), tried lowest first.  The images are kept as vertex bits, so each key
is the OR of k-1 of them and no tuple is built or sorted.  The same
routine, ``_extend``, serves the greedy ``exact.random_maximal_free`` and
condition (2), run there on F's links over the vertices outside a part.
The copy search and the scan below recurse once per vertex they place,
so each runs under ``_deeper``, which raises the recursion limit by that
depth: a target of a thousand vertices or more gets its verdict, not a
RecursionError.

The r-subset scan has one code path for every uniformity k.  An r-subset
violates the threshold when it misses at most the slack C(r, k) -
max_edges - 1 of its k-subsets, so the scan is a depth-first search over
prefixes in lex order that cuts a prefix once it misses more than that.
It reads the same links: each prefix keeps, for j up to the slack it has
left, the mask of vertices lying in all but at most j of the links of its
(k-1)-subsets.  The last of those masks gives the candidates for the next
vertex, and a child folds in only the links through its new vertex, each
keyed by a (k-2)-subset mask of the prefix ORed with the new vertex's bit.
Only vertices of degree at least C(r-1, k-1) - slack take part: a vertex
of a violating r-subset lies in all but at most the slack of the
C(r-1, k-1) k-subsets of the subset through it.  A count cut skips a
child that needs m more vertices and holds fewer than m in its last mask
above its new vertex, as every vertex still to come lies there.

Each prefix is handed one list, the masks of its (k-2)-subsets.  A
child's list is the prefix's, plus the prefix's (k-3)-subsets ORed with
the new bit; those are listed once per prefix, when its first child
passes the count cut, so a prefix whose children are all cut lists none.
Lists of every smaller size, handed down as well, would grow as 2^d
with the prefix's size d once k nears r; kept that way, the scan of
K:31,30 against itself ran out of a 1.5 GB address space.

A prefix of r - 2 vertices decides its last two vertices at once, on
pair matrices: pair (x, y) of [n] sits at bit s·x + y, s being n + 1
rounded up to whole bytes, and the matrix of a (k-2)-set u has row x =
links[u | 1 << x].  Folded into slack levels and met with lifts of the
vertex levels (``_pair_found``), they show in a few big-int operations
whether any pair completes the prefix.  The parent runs the test before
it calls the prefix, so a prefix that no pair completes costs neither a
call nor a step per candidate.  The test runs only where it costs
less than the steps it saves.  With l slack levels and m (k-2)-subsets
in the prefix, it folds m matrices of about n² bits into each level and
lifts each level by two multiplies with constants of that size, together
about n/64 such folds: some l·n(n+1)·(m + n/64) bit operations.  A step
per candidate costs about 2^13 of them, and the test about one step more
than its bit work, as timed per prefix on six-part blow-ups of 46 to 138
vertices, complete bipartite graphs of 30 to 700 and random 3-graphs of
40 and 80.  The multiplies grow with n³ while a step's cost hardly
grows, so the test never runs on a host of more than 691 vertices and no
matrix passes about 60 KB; a wider host, dense or sparse, takes its
steps as before.  The matrices are built on first use, at most one per
(k-2)-set whose prefix takes the test: about twice the payload of the
links for k = 3 on a dense host.

``check_free`` picks between that scan and the embedding search from F's
structure alone (``threshold_free_params``).
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb

from .errors import ParameterError
from .hypergraph import Hypergraph


@dataclass(frozen=True)
class Embedding:
    """Vertex map of a copy: mapping[f_vertex] = h_vertex."""

    mapping: tuple[int, ...]


def validate_embedding(h: Hypergraph, f: Hypergraph, emb: Embedding) -> bool:
    """Independent check that an embedding is injective and edge-preserving."""
    m = emb.mapping
    if len(m) != f.n or len(set(m)) != f.n:
        return False
    if any(v < 0 or v >= h.n for v in m):
        return False
    return all(tuple(sorted(m[v] for v in e)) in h.edge_set for e in f.edges)


def _vertex_order(f: Hypergraph) -> list[int]:
    # descending degree, index as tie-break; standard static ordering
    return sorted(range(f.n), key=lambda v: (-f.degrees[v], v))


@contextmanager
def _deeper(depth: int) -> Iterator[None]:
    """Room for depth more nested calls: the recursion limit is raised by
    depth for the block and then restored.

    The copy search, the subset scan, condition 2's enumeration and the
    exact search recurse once per vertex or edge they place, so a target
    of more than about a thousand vertices would pass the default limit.
    CPython >= 3.11 makes Python-to-Python calls without the C stack, so
    only the limit binds.
    """
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + depth)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def _step_lists(edges: Iterable[tuple[int, ...]],
                v: int) -> list[tuple[tuple[int, ...], ...]]:
    """The steps of a copy search of F on positions 0..v-1, F's edges given
    as sorted position tuples: for each position, the (k-1)-sets of the
    edges that end there, in the order given.  An edge constrains the image
    of its last position through those of its other k-1."""
    steps: list[list[tuple[int, ...]]] = [[] for _ in range(v)]
    for e in edges:
        steps[e[-1]].append(e[:-1])
    return list(map(tuple, steps))


def _step_tree(chains: Iterable[Iterable[tuple[tuple[int, ...], ...]]]) -> dict:
    """Step lists merged on their common prefixes: each node maps the
    (k-1)-sets constraining the next vertex to the node after it."""
    tree: dict = {}
    for steps in chains:
        node = tree
        for step in steps:
            node = node.setdefault(step, {})
    return tree


def _extend(node: dict, links: dict[int, int], phi: list[int],
            free: int) -> bool:
    """Whether some chain of steps below node extends phi to a copy of F in
    the graph with these links; on success phi holds the copy.

    phi maps F's vertices 0..len(phi)-1 to the bits of their images (1 << h
    for image h); free holds the unused vertices.  The candidates for the
    next vertex are free ANDed with the links of the images of the step's
    (k-1)-sets, each looked up by the OR of its images' bits, and are tried
    lowest first.  A module function rather than a closure: a recursive
    closure is a reference cycle, and each call would leave its links
    behind until the cyclic collector ran.
    """
    if not node:
        return True
    get = links.get
    for step, child in node.items():
        c = free
        for t in step:
            key = 0
            for u in t:
                key |= phi[u]
            c &= get(key, 0)
            if not c:
                break
        while c:
            low = c & -c
            c ^= low
            phi.append(low)
            if _extend(child, links, phi, free ^ low):
                return True
            phi.pop()
    return False


def _compile(f: Hypergraph) -> tuple[dict[int, int], dict]:
    """Each vertex's position in _vertex_order, and F's step tree."""
    pos = {v: i for i, v in enumerate(_vertex_order(f))}
    edges = (tuple(sorted(pos[v] for v in e)) for e in f.edges)
    return pos, _step_tree([_step_lists(edges, f.n)])


def contains(h: Hypergraph, f: Hypergraph) -> Embedding | None:
    """First embedding of F into H in deterministic search order, if any."""
    if h.k != f.k:
        raise ParameterError(f"uniformity mismatch: H has k={h.k}, F has k={f.k}")
    if f.n > h.n or f.edge_count > h.edge_count:
        return None
    pos, tree = _compile(f)
    phi: list[int] = []
    with _deeper(f.n):
        if not _extend(tree, h.links, phi, (1 << h.n) - 1):
            return None
    return Embedding(tuple(phi[pos[v]].bit_length() - 1 for v in range(f.n)))


def check_free(
    h: Hypergraph, f: Hypergraph
) -> tuple[str, tuple[tuple[int, ...], int] | Embedding | None]:
    """Decide F-freeness of H; returns (method, violation).

    When F has threshold parameters (see threshold_free_params) and fits
    in H, the method is ``subset-scan`` and a violation is the lex-first
    (subset, spanned count).  Otherwise the method is ``embedding-search``
    and a violation is the first Embedding.  The violation is None exactly
    when H is F-free.  The choice depends on F's structure alone, so a
    named family and a file holding the same graph get the same report.
    """
    if h.k != f.k:
        raise ParameterError(
            f"uniformity mismatch: host has k={h.k}, target has k={f.k}")
    params = threshold_free_params(f)
    if params and f.n <= h.n:
        return "subset-scan", spanned_edge_violation(h, *params)
    return "embedding-search", contains(h, f)


def is_free(h: Hypergraph, f: Hypergraph) -> bool:
    """True iff H contains no copy of F."""
    return check_free(h, f)[1] is None


class _PairMatrices(dict):
    """The scan's pair matrices, keyed by (k-2)-set mask, each built on
    first use.

    Pair (x, y) of [n] sits at bit s·x + y, s = 8·width, so row x is n
    bits with at least one clear guard bit above it, in whole bytes, and
    the matrix of a (k-2)-set u has row x = links[u | 1 << x]: bit (x, y)
    is set when u ∪ {x, y} is an edge.  The constants of that layout
    (``_layout``) are geometric series, each a few big-int operations,
    built when the pair test first runs.  A scan creates one of these and
    holds at most one n·s-bit matrix per (k-2)-set whose prefix takes the
    test; for k = 3 on a dense host that is about twice the payload of
    the links.  least[j] is the fewest candidates with which a prefix
    that has slack j left takes the test: its work, (j + 1)·n(n+1)·
    (subsets + n/64) bit operations (see the module docstring), must come
    to at most 2^13 a candidate beyond the first.
    """

    def __init__(self, links: dict[int, int], n: int, subsets: int,
                 slack: int) -> None:
        super().__init__()
        self.links, self.n = links, n
        # bytes a row takes: n bits and a clear guard bit, rounded up
        self.width = n // 8 + 1
        work = n * (n + 1) * (64 * subsets + n)
        self.least = [1 - (-(j + 1) * work >> 19) for j in range(slack + 1)]

    def __missing__(self, u: int) -> int:
        # the rows' bytes joined in order and read once: linear in the
        # matrix, where shifting each row in would copy the matrix n times
        get, width = self.links.get, self.width
        rows = int.from_bytes(b"".join([
            get(u | 1 << x, 0).to_bytes(width, "little")
            for x in range(self.n)]), "little")
        self[u] = rows
        return rows

    @cached_property
    def _layout(self) -> tuple[int, int, int]:
        """(rep, spread, upper), for the row stride s = 8·width: rep has bit
        s·x for every row x, so w * rep copies an n-bit w into every row (a
        column lift); spread has bits (s-1)·i, so the bits of (w * spread)
        & rep are the s·x for x in w, which times 2^n - 1 fill those rows
        (a row lift); upper holds the pairs with y > x."""
        n, s = self.n, 8 * self.width
        rep = ((1 << s * n) - 1) // ((1 << s) - 1)
        spread = ((1 << (s - 1) * n) - 1) // ((1 << s - 1) - 1)
        # row x of upper is 2^n - 2^(x+1), and no row borrows from the next
        diag = ((1 << (s + 1) * n) - 1) // ((1 << s + 1) - 1)
        return rep, spread, (rep << n) - (diag << 1)


def _pair_found(pairs: _PairMatrices, subs: list[int], miss: list[int],
                c: int) -> bool:
    """Whether some x in c and y > x complete the prefix within its slack.

    subs holds the masks of the prefix's (k-2)-subsets and miss its vertex
    levels (see _complete).  Adding x and y misses m(x) + m(y) +
    #{u in subs : y not in links[u | x]} k-subsets, m(v) being the lowest
    level that holds v.  Pair level t starts as the pairs y > x with m(y)
    <= t (column lifts of miss) and folds in the matrices of subs by
    _complete's recurrence, so it holds the pairs whose y and pair misses
    come to at most t.  A row lift of c & miss[a] then meets level slack -
    a, for each a, and no x is enumerated.
    """
    rep, spread, upper = pairs._layout
    pair = [w * rep & upper for w in miss]
    slack = len(miss) - 1
    down = range(slack, 0, -1)
    for u in subs:
        m = pairs[u]
        for i in down:
            pair[i] = pair[i] & m | pair[i - 1]
        pair[0] &= m
    n = pairs.n
    for w in miss:
        # bit s·x for each x in c & w; times 2^n - 1 it fills row x
        x = (c & w) * spread & rep
        if pair[slack] & (x << n) - x:
            return True
        slack -= 1
    return False


def _complete(pairs: _PairMatrices, k: int, r: int, prefix: tuple[int, ...],
              subs: list[int], miss: list[int],
              c: int) -> tuple[tuple[int, ...], int] | None:
    """Lex-first completion of prefix to an r-subset missing at most the
    slack in k-subsets, as (subset, slack left over), or None.

    prefix and the subset hold vertex bits (1 << u for vertex u), and subs
    the masks of the prefix's (k-2)-subsets.  len(miss) - 1 is the slack
    the prefix leaves, and miss[j] holds the vertices w for which adding w
    misses at most j more k-subsets: w lies in all but at most j of the
    links of the prefix's (k-1)-subsets.  c holds the candidates for the
    next vertex: miss[-1] cut to the vertices above the prefix that leave
    room for the rest.  A child keeps the levels within its own slack and
    folds in the links of the (k-1)-subsets through its new vertex, each
    the mask of a (k-2)-subset of the prefix ORed with the new bit.  Its
    own (k-2)-subsets are the prefix's and the prefix's (k-3)-subsets with
    the new bit, the latter listed when the first child passes the count
    cut: a call that returns at its first candidate, or cuts every child,
    lists none.

    Two cuts act on a child before it is called.  The count cut: a child
    of d + 1 vertices needs r - d - 1 more from its top level above its
    new vertex, so one whose top level holds fewer is skipped.  The pair
    test: a child of r - 2 vertices with at least pairs.least[slack]
    candidates is tested by _pair_found, which decides its last two
    vertices at once, and one that no pair completes is skipped; one that
    some pair completes is called, and its steps find the lex-first pair.
    The test's work grows with n³ and a step's hardly at all, so the
    count it needs grows with n.  A module function rather than a closure,
    for the reason _extend gives.
    """
    d, slack, n = len(prefix), len(miss) - 1, pairs.n
    # the vertex after v lies above it and leaves room for r - d - 2 more
    room = (1 << n - r + d + 2) - 1
    need, least = r - d - 1, pairs.least
    get = pairs.links.get
    lows = None
    while c:
        low = c & -c
        c ^= low
        j = 0
        while not miss[j] & low:
            j += 1
        if d + 1 == r:
            return prefix + (low,), slack - j
        child = miss[:slack - j + 1]
        down = range(slack - j, 0, -1)
        for u in subs:
            m = get(u | low, 0)
            for i in down:
                child[i] = child[i] & m | child[i - 1]
            child[0] &= m
        # -(low << 1) keeps the bits above low
        above = child[-1] & -(low << 1)
        if above.bit_count() < need:
            continue
        if lows is None:
            # the prefix's (k-3)-subsets; a 2-graph has none
            lows = list(map(sum, combinations(prefix, k - 3))) if k > 2 else []
        csubs = subs + [u | low for u in lows]
        cc = above & room
        if (need == 2 and cc.bit_count() >= least[slack - j]
                and not _pair_found(pairs, csubs, child, cc)):
            continue
        found = _complete(pairs, k, r, prefix + (low,), csubs, child, cc)
        if found:
            return found
    return None


def spanned_edge_violation(
    h: Hypergraph, r: int, max_edges: int
) -> tuple[tuple[int, ...], int] | None:
    """First r-subset (lexicographically) spanning more than max_edges edges.

    Returns (subset, spanned count) or None when every r-subset passes.
    A violating r-subset misses at most the slack C(r, k) - max_edges - 1
    of its k-subsets: 0 for a complete target, 1 for complete-minus and
    k + 1 - t for a daisy D:t,k.  The search grows prefixes in lex order
    and cuts a prefix once it misses more than the slack, which is sound
    because a prefix only misses more k-subsets as it grows.  It draws
    only on vertices of degree at least C(r-1, k-1) - slack, which every
    vertex of a violating subset has.  A cut subtree holds no violation,
    so the first subset found is the lex-first one.
    """
    if not h.k <= r <= h.n:
        raise ParameterError(f"need k <= r <= n, got k={h.k}, r={r}, n={h.n}")
    # every subset spans more than -1 edges; the cap keeps the slack short
    max_edges = max(max_edges, -1)
    slack = comb(r, h.k) - max_edges - 1
    if slack < 0:
        return None
    # a vertex of a violating subset lies in all but at most slack of the
    # C(r - 1, k - 1) k-subsets of the subset through it, so in that many
    # edges; one parse of a binary string, not n shifts of a growing int
    need = comb(r - 1, h.k - 1) - slack
    alive = int("".join("01"[d >= need] for d in reversed(h.degrees)), 2)
    pairs = _PairMatrices(h.links, h.n, comb(r - 2, h.k - 2), slack)
    # the empty prefix has one 0-subset, the empty mask, and no larger one
    with _deeper(r):
        found = _complete(pairs, h.k, r, (), [0] if h.k == 2 else [],
                          [alive] * (slack + 1), alive & (1 << h.n - r + 1) - 1)
    if found is None:
        return None
    bits, left = found
    return tuple(b.bit_length() - 1 for b in bits), max_edges + 1 + left


def threshold_free_params(f: Hypergraph) -> tuple[int, int] | None:
    """(r, max_edges) such that F-freeness equals the r-subset threshold test.

    When every e(F)-edge k-graph on v(F) vertices is a copy of F, H holds
    F iff some v(F)-subset spans e(F) edges, so the answer is (v(F),
    e(F) - 1).  That is so for v(F) = k + 1, and for v(F) >= k + 2 exactly
    when e(F) <= 1 or e(F) >= C(v(F), k) - 1 (Livingstone and Wagner,
    Math. Z. 1965); complete, complete-minus and daisy targets qualify.  A
    single edge on k + 2 or more vertices and an edgeless F get None: the
    scan would walk every v(F)-subset, the search stops at the first.
    """
    e = f.edge_count
    if e and (e >= comb(f.n, f.k) - 1 or f.n == f.k + 1):
        return f.n, e - 1
    return None
