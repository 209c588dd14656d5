"""Exact small-case Turán numbers ex(n, F) with extremal witnesses.

The search is branch and bound over the lexicographic list of all C(n, k)
candidate edges.  Every copy of F inside the complete k-graph on [n] is
precomputed as a bitmask over candidate-edge indices (CopyIndex).  Each
copy's mask is one int, shared by the per-edge lists of all of its edges.
Every F goes through one enumeration: the distinct labelings of F without
its isolated vertices, found as the orbit of its edge set under the
adjacent transpositions (a complete F has one), are mapped onto every
subset of [n] of its size.  Such a copy spans its subset, so each
(subset, labeling) pair gives a distinct copy and each copy is found
once.  The isolated vertices still need room, so an F with v(F) > n has
no copy: the search and the greedy both answer it with the complete
k-graph on [n], C(n, k) edges, before any index or shuffle, and the
search reports 0 nodes and closed, whatever the budget.

The alive set of a node is a bitmask of the later candidates that can
still be added without closing a copy of F.  Including candidate j can
only kill a candidate that lies in a copy through j, so the child's alive
set is the parent's tail minus one kill mask: the OR of the single missing
edge of every copy through j that the new inclusion set covers but for
one edge.  Dropping dead candidates is value-preserving: an edge that
closes a copy against the current inclusion can never be added later on
the same branch.

A branch is cut when count + |alive| - packed cannot beat the incumbent.
packed is a greedy packing of copies of F that lie inside inc | alive and
whose alive parts are pairwise disjoint: an F-free completion must drop
an alive edge of each (the analogue of the colouring bound of
bit-parallel max-clique solvers).  The copies come from a live list
handed down the recursion: the root gets CopyIndex.copies, and each list
is a superset of the copies inside its node's inc | alive, in the order
the index found them.  Two rules keep the lists cheap:
  - pack only when 2 * gap <= |alive|, with gap = count + |alive| - best:
    every copy inside inc | alive has at least two alive edges (each
    alive edge alone is addable), so a smaller packing cannot close the
    gap.  The scan stops once packed >= gap, and a scan that does not
    stop leaves the filtered list, which the children read;
  - a node that does not pack filters its list against inc | alive just
    before its second child; the first child reads the list as it was
    handed down, so a dive to the first leaf filters nothing.
Exclude chains are collapsed into a choose-next-included-edge loop (see
below), and each pass of that loop is a node for these rules, its alive
set being the candidates the loop has yet to decide.  Every cut is
strict, so the search tree is a subtree of the one without packing, in
the same order, and the witness is unchanged.  The incumbent is kept as
its inclusion mask; the witness edges are the mask's set bits, read in
candidate order.

One symmetry rule keeps the lexicographically smallest optimal edge list
W, the witness tie-break: a node branches only on a candidate that is the
least of its orbit under a group of vertex permutations that fix every
included edge (the lex-leader argument of Crawford, Ginsberg, Luks and
Roy, KR 1996).  Such a permutation maps W, whose edges so far are the
included ones, to an optimum that keeps them and is lex-smaller if it
lowers W's next edge, so that edge is the least of its orbit.  The
groups are the rows of one table, ordered[t], where the included edges
touch the vertices 0..t-1; by induction these are always an initial
segment, and a child's t is the larger of t and one past its new edge's
top vertex:
  - row 0, at the root, is S_n: its one orbit-least edge is the first
    candidate e0 = (0..k-1), so the root has one child, which includes e0;
  - row k is S_k x S_{n-k}, the permutations fixing e0 as a set.  t = k
    only at the node whose one included edge is e0, as every other edge
    touches a vertex >= k.  An orbit is fixed by how many vertices a the
    edge shares with e0, and its least edge is (0..a-1) followed by
    (k..2k-a-1): for k = 3, 013, 034 and 345 beside e0 itself;
  - row t > k is the permutations of the untouched vertices t..n-1: the
    candidates whose vertices from t on are t, t+1, ..., that is whose
    last run of consecutive vertices starts at t or below, so 015 needs
    t >= 5 and 034 t >= 3.
A candidate outside the row is excluded without a child.  The rule is a
strict cut like the packing cut, so values and witnesses are unchanged
and node counts can only fall: ex(7, K4) takes 5,573 nodes (9,409 with
row 0 alone, 7,262 with rows 0 and k) and ex(8, K4-) 12,292 (351,395 and
125,566).

The search stops early at a cap from the averaging bound of Katona,
Nemetz and Simonovits (1964): deleting a vertex from an F-free graph on m
vertices leaves one on m-1, and each edge survives m-k of the m
deletions, so ex(m, F) <= floor(m * ex(m-1, F) / (m-k)).  turan_number
climbs a ladder of smaller searches for it.  Below v(F), F does not fit
and ex(m, F) = C(m, k); at each level m = v(F)..n-1 the bound from the
level below caps a search on m vertices, whose value, when it exhausts,
replaces the bound.  After the first level cut by the budget no level is
searched, and the bound alone carries on up to the cap at n.  The
include-first search changes its witness only on a strict improvement,
so the first incumbent that meets the cap is the optimum and already the
lex-min witness: stopping there keeps the value and the witness of the
full search, only with fewer nodes.  No F-free graph beats the cap, so
a search is closed, stopped at the cap, exactly when its value equals
the cap.  Every search has its own node budget and is cut when a child
would be its node budget + 1; that is the only stop that is not exact,
so a search exhausted exactly when it took no more nodes than its
budget.  The result's node count is the search at n alone.

The same deletion cuts nodes vertex by vertex: deleting a vertex that
lies in d of the e edges of an F-free graph leaves an F-free graph with
e - d edges on n-1 vertices, so d >= e - ex(n-1, F).  Each search is
given below >= ex(n-1, F), the bound the ladder holds (exact when the
level below exhausted).  A completion beating the incumbent keeps
need = best + 1 - below edges or more through every vertex, so a pass
is cut when some vertex lies in fewer candidates of inc | alive.  Each
vertex has one mask over the candidate indices, its incidence row in the
complete k-graph (built as Hypergraph.incidence is).  A node's first
pass checks all n vertices, since the kills and a grown best can lower
any of them below need; a later pass checks the k vertices of the
candidate just excluded, and no pass checks while need <= 0.  The cut is strict
like the packing cut, so values and witnesses are unchanged, and
C(n-1, k) is always a valid below.

CopyIndex is the exact search's alone.  The seeded greedy
random_maximal_free builds none: it walks the shuffled candidates, keeps
the links of the growing graph (each (k-1)-set's vertex mask mapped to
the bitmask of the vertices completing it, as in Hypergraph.links) and
adds a candidate e iff no copy of F runs through e.  Its anchors come
from the same enumeration, run on F itself: the labelings that contain
the edge (0..k-1), one per class under relabelings of the rest vertices
k..v(F)-1, a class being an orbit under the transpositions (i, i+1) with
i >= k; a class is kept as the first of its members that the
enumeration lists.  Each anchor maps (0..k-1) onto e and extends one
rest vertex at a time through embed._extend, the copy search that
embed.contains runs too, on step lists that embed._step_lists builds for
both: the candidates for a rest vertex are the unused vertices ANDed
with the links of its edges' other k-1 vertices.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import combinations
from math import comb

from .embed import _deeper, _extend, _step_lists, _step_tree
from .errors import ParameterError
from .hypergraph import Hypergraph, _incidence_rows, drop_isolated

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class LadderLevel:
    """One search of the KNS ladder below n."""
    n: int
    value: int
    nodes: int
    exhausted: bool


@dataclass(frozen=True)
class TuranResult:
    value: int
    witness: Hypergraph
    nodes_explored: int
    exhausted: bool
    cap: int  # the KNS upper bound on ex(n, F) that the search stops at
    ladder: tuple[LadderLevel, ...] = ()  # the levels searched, bottom-up

    @property
    def closed(self) -> bool:
        """Whether the search stopped at an incumbent that met the cap; the
        cap bounds every value from above, so exactly when they are equal."""
        return self.value == self.cap

    @property
    def upper(self) -> int:
        """The upper bound on ex(n, F): the value if the search exhausted,
        else the cap."""
        return self.value if self.exhausted else self.cap


class _Stop(Exception):
    pass


def _swap_tables(v: int, k: int) -> tuple[dict[tuple[int, ...], int], list[list[int]]]:
    """Positions of the k-subsets of [v] in lex order, and for each adjacent
    transposition (i, i+1) of [v] the map it induces on those positions."""
    subsets = list(combinations(range(v), k))
    pos = {e: i for i, e in enumerate(subsets)}
    swaps = []
    for i in range(v - 1):
        tau = {i: i + 1, i + 1: i}
        swaps.append([pos[tuple(sorted(tau.get(u, u) for u in e))]
                      for e in subsets])
    return pos, swaps


def _orbit(start: tuple[int, ...], swaps: list[list[int]]) -> list[tuple[int, ...]]:
    """Every edge-position set reachable from start through the swaps, in
    breadth-first order."""
    orbit = [start]
    seen = {start}
    for edges in orbit:
        for swap in swaps:
            image = tuple(sorted(swap[p] for p in edges))
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    return orbit


def _labelings(f: Hypergraph) -> list[tuple[int, ...]]:
    """F's distinct labelings of [v(F)], each as the sorted positions of its
    edges in the lex list of k-subsets of [v(F)].

    They are the orbit of F's edge set under the adjacent transpositions
    (i, i+1), which generate every relabeling; a complete F has one.
    """
    pos, swaps = _swap_tables(f.n, f.k)
    return _orbit(tuple(sorted(pos[e] for e in f.edges)), swaps)


def _anchors(f: Hypergraph) -> list[list[tuple[tuple[int, ...], ...]]]:
    """F's labelings that contain the edge (0..k-1), one per class under
    relabelings of the rest vertices k..v(F)-1: the first member of each
    class that _labelings lists.

    Each is given as its embed._step_lists for the rest vertices k..v(F)-1
    in turn.  Every edge but (0..k-1) has a rest vertex, so these steps
    cover all of them.
    """
    k = f.k
    pos, swaps = _swap_tables(f.n, k)
    subsets = list(pos)
    rest = swaps[k:]
    seen: set[tuple[int, ...]] = set()
    anchors = []
    for edges in _labelings(f):
        # positions ascend, and position 0 is the edge (0..k-1)
        if edges[0] != 0 or edges in seen:
            continue
        seen.update(_orbit(edges, rest))
        anchors.append(_step_lists([subsets[p] for p in edges], f.n)[k:])
    return anchors


class CopyIndex:
    """Copies of F inside the complete k-graph on [n], as edge-index masks.

    copies lists every copy's mask, each found once, in the order they are
    found; through[j] lists the masks of the copies using candidate edge j,
    each one int shared by all of its edges.  Adding edge j to an F-free
    inclusion set creates a copy exactly when one of those masks has no
    edge outside the set and j.
    """

    def __init__(self, n: int, f: Hypergraph):
        if f.edge_count == 0 and f.n <= n:
            raise ParameterError("F without edges is contained in every graph")
        self.cand: list[tuple[int, ...]] = list(combinations(range(n), f.k))
        index = {e: i for i, e in enumerate(self.cand)}
        copies: list[int] = []
        through: list[list[int]] = [[] for _ in self.cand]
        if f.n <= n:
            # a copy is one labeling of F without its isolated vertices,
            # mapped in order onto the copy's vertex set: it comes from one
            # subset and one labeling
            core = drop_isolated(f)
            labelings = _labelings(core)
            for s in combinations(range(n), core.n):
                ids = [index[e] for e in combinations(s, f.k)]
                bits = [1 << j for j in ids]
                for edges in labelings:
                    m = 0
                    for p in edges:
                        m |= bits[p]
                    copies.append(m)
                    for p in edges:
                        through[ids[p]].append(m)
        self.copies = copies
        self.through = through


def _kns(m: int, k: int, below: int) -> int:
    """The KNS bound floor(m * below / (m-k)) on ex(m, F), given
    ex(m-1, F) <= below; C(m, k) when m <= k."""
    return m * below // (m - k) if m > k else comb(m, k)


def turan_number(
    n: int,
    f: Hypergraph,
    budget: int = DEFAULT_BUDGET,
) -> TuranResult:
    """Maximum edge count of an F-free k-graph on n vertices.

    Exact when the search exhausts within the node budget or stops at an
    incumbent that meets the KNS cap (closed=True); otherwise the best
    lower bound found so far is returned with exhausted=False.  The
    witness is the lexicographically smallest optimal edge list.  The
    budget bounds each search of the ladder separately.  OverflowError is
    raised, before any search, when C(n, k) exceeds sys.maxsize, the most
    candidate edges a list can index.
    """
    if budget <= 0:
        raise ParameterError(f"budget must be positive, got {budget}")
    if n < 0:
        raise ParameterError(f"vertex count must be >= 0, got n={n}")
    k = f.k
    if comb(n, k) > sys.maxsize:
        raise OverflowError(f"C({n}, {k}) candidate edges exceed the index range")
    # upper bounds ex(m-1, F) for the next m; ex(m, F) = C(m, k) while F
    # does not fit on m vertices
    upper = comb(max(min(n, f.n) - 1, 0), k)
    ladder: list[LadderLevel] = []
    for m in range(f.n, n):
        if ladder and not ladder[-1].exhausted:
            upper = _kns(m, k, upper)
            continue
        level = _search(m, f, budget, upper)
        ladder.append(LadderLevel(m, level.value, level.nodes_explored,
                                  level.exhausted))
        upper = level.upper
    return replace(_search(n, f, budget, upper), ladder=tuple(ladder))


def _orbit_table(
    cand: Sequence[tuple[int, ...]], n: int, k: int
) -> tuple[list[int], list[int]]:
    """The search's branching table ordered, and top, one past each
    candidate's largest vertex.

    ordered[t] is a mask over the candidate indices: for t = 0 the least
    candidate of S_n's one orbit, (0..k-1); for t = k the least of each
    orbit under S_k x S_{n-k}, the permutations fixing (0..k-1) as a set;
    for t > k the least of each orbit under the permutations of t..n-1,
    the candidates whose last run of consecutive vertices starts at t or
    below.  No node reads the rows between 0 and k.
    """
    ordered = [0] * (n + 1)
    top: list[int] = []
    for j, e in enumerate(cand):
        s = e[-1]
        while s - 1 in e:
            s -= 1
        ordered[s] |= 1 << j
        top.append(e[-1] + 1)
    for i in range(1, n + 1):
        ordered[i] |= ordered[i - 1]
    # an orbit under S_k x S_{n-k} is fixed by the a vertices its edges
    # share with (0..k-1); its least edge takes them, then k..2k-a-1
    ordered[k] = sum(1 << cand.index((*range(a), *range(k, 2 * k - a)))
                     for a in range(max(2 * k - n, 0), k + 1))
    return ordered, top


def _search(n: int, f: Hypergraph, budget: int, below: int) -> TuranResult:
    """The branch-and-bound search on n vertices, given below >= ex(n-1, F).

    It stops at budget + 1 nodes or once the incumbent meets the KNS cap
    that below gives on ex(n, F), so the result is exhausted when it took
    budget nodes or fewer, and closed when its value is the cap.  C(n-1, k)
    is always a valid below.  An F that does not fit on n vertices,
    v(F) > n, is settled without a search: the complete k-graph, 0 nodes,
    closed.

    The root includes nothing and is not a node: nodes are counted, and
    the budget checked, as each child is made.  A node whose included
    edges touch 0..t-1 branches only on the candidates in ordered[t] (see
    _orbit_table), each the least of its orbit under permutations that fix
    every included edge.  An F with one edge fits but kills every
    candidate, so its root makes no child: value 0, 0 nodes, exhausted.
    """
    k = f.k
    cap = _kns(n, k, below)
    if f.n > n:
        full = tuple(combinations(range(n), k))
        return TuranResult(len(full), Hypergraph(k, n, full), 0, True, cap)

    engine = CopyIndex(n, f)
    cand = engine.cand
    through = engine.through
    by_vertex = _incidence_rows(n, cand)
    ordered, top = _orbit_table(cand, n, k)
    best = 0
    witness = 0  # the incumbent's inclusion mask
    nodes = 0

    def rec(alive: int, count: int, inc: int, live: Sequence[int], t: int) -> None:
        # alive: bitmask of the candidates after the last included one that
        # can still be added to inc without closing a copy of F; live: the
        # copy masks handed down, a superset of the copies inside inc | alive;
        # t: the included edges touch the vertices 0..t-1
        nonlocal best, witness, nodes
        if count > best:
            best = count
            witness = inc
        if best >= cap:
            # the incumbent is optimal, and the first at its value
            raise _Stop
        rest = alive
        left = alive.bit_count()
        # the candidates this node may branch on
        allow = ordered[t]
        filtered = False
        # the vertices whose degree in inc | rest is yet to be checked
        around: Sequence[int] = range(n)
        # each pass decides the candidates in rest, branching on the lowest;
        # once none of rest is allowed, a pass could only cut or exclude
        while rest & allow and count + left > best:
            within = inc | rest
            # a completion that beats best keeps need edges or more through
            # each vertex, as deleting one leaves at most below
            need = best + 1 - below
            if need > 0:
                for v in around:
                    if (by_vertex[v] & within).bit_count() < need:
                        return
            gap = count + left - best
            # a copy inside inc | rest has two edges in rest or more (each
            # alone is addable), so a packing can reach gap only if
            # 2 * gap <= left
            if 2 * gap <= left:
                inside = []
                used = packed = 0
                for m in live:
                    if m & within == m:
                        inside.append(m)
                        part = m & rest
                        if not part & used:
                            # an F-free completion drops an edge of part
                            used |= part
                            packed += 1
                            if packed >= gap:
                                return
                live = inside
                filtered = True
            elif rest != alive and not filtered:
                # filter once, just before the second child; the first
                # child reads the list as it was handed down
                live = [m for m in live if m & within == m]
                filtered = True
            low = rest & -rest
            rest ^= low
            left -= 1
            j = low.bit_length() - 1
            # only an orbit-least candidate is branched on; any other is
            # excluded here
            if low & allow:
                nodes += 1
                if nodes > budget:
                    raise _Stop
                inc2 = inc | low
                # a later candidate dies when a copy through j misses it
                # alone: kill ORs the single missing edges
                outside = ~inc2
                kill = 0
                for m in through[j]:
                    miss = m & outside
                    if not miss & (miss - 1):
                        kill |= miss
                rec(rest & ~kill, count + 1, inc2, live, t if t > top[j] else top[j])
            # excluding j lowers the degrees of its k vertices alone
            around = cand[j]

    try:
        # rec recurses once per included edge
        with _deeper(len(cand)):
            # each candidate alone is a copy of a one-edge F, so none is
            # alive at the root; an F with more edges has no such copy
            rec((1 << len(cand)) - 1 if f.edge_count > 1 else 0, 0, 0, engine.copies, 0)
    except _Stop:
        pass
    finally:
        # rec refers to itself through its closure; without this the cycle
        # keeps the index alive until a full collection
        del rec
    # the witness's bits, lowest first, beside the candidates they index
    edges = tuple(e for e, bit in zip(cand, reversed(f"{witness:b}")) if bit == "1")
    return TuranResult(best, Hypergraph(k, n, edges), nodes, nodes <= budget, cap)


def random_maximal_free(n: int, f: Hypergraph, seed: int) -> Hypergraph:
    """Greedy maximal F-free graph over a seed-shuffled candidate order.

    A candidate e is added iff the graph plus e has no copy of F through
    e; the graph is F-free, so that is exactly whether it stays F-free.
    Each anchor maps (0..k-1) onto e in order, as the bits of e's vertices,
    and extends vertex by vertex, taking the candidates for a rest vertex
    from the links of the graph.  An F that does not fit on n vertices,
    v(F) > n, gets the complete k-graph, whatever the seed.
    """
    k = f.k
    cand = list(combinations(range(n), k))
    if f.n > n:
        return Hypergraph(k, n, tuple(cand))
    if f.edge_count == 0:
        raise ParameterError("F without edges is contained in every graph")
    # a shuffle permutes positions only, so this is the order in which the
    # seed shuffles the candidate indices
    random.Random(seed).shuffle(cand)
    tree = _step_tree(_anchors(f))
    links: dict[int, int] = {}
    get = links.get

    full = (1 << n) - 1
    edges = []
    with _deeper(f.n):
        for e in cand:
            bits = [1 << v for v in e]
            m = sum(bits)
            if _extend(tree, links, bits, full ^ m):
                continue
            edges.append(e)
            for b in bits:
                t = m ^ b
                links[t] = get(t, 0) | b
    return Hypergraph(k, n, tuple(sorted(edges)))
