"""Exact small-case Turán numbers ex(n, F) with extremal witnesses.

The search is branch and bound over the lexicographic list of all C(n, k)
candidate edges.  Every copy of F inside the complete k-graph on [n] is
precomputed as a bitmask over candidate-edge indices (CopyIndex).  Each
copy's mask is one int, shared by the per-edge lists of all of its edges.
Every F goes through one enumeration: its distinct labelings of [v(F)],
found as the orbit of its edge set under the adjacent transpositions
(a complete F has one), are mapped onto every v(F)-subset of [n].

The alive set of a node is a bitmask of the later candidates that can
still be added without closing a copy of F.  Including candidate j can
only kill a candidate that lies in a copy through j, so the child's alive
set is the parent's tail minus one kill mask: the OR of the single missing
edge of every copy through j that the new inclusion set covers but for
one edge.  A branch is cut when the included count plus the number of
alive candidates cannot beat the incumbent.  Dropping dead candidates is
value-preserving: an edge that closes a copy against the current
inclusion can never be added later on the same branch.

Two further layers that do not change returned values:
  - exclude chains are collapsed into a choose-next-included-edge loop;
  - at the root, only the first branch is explored (root_symmetry): any
    optimum relabels, by a vertex permutation, to one containing the first
    candidate edge, and that relabeling also preserves the lexicographically
    smallest optimal edge list, which is the witness tie-break.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExceededError, ParameterError
from .hypergraph import FamilySpec, Hypergraph

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class TuranResult:
    n: int
    family: FamilySpec
    value: int
    witness: Hypergraph
    nodes_explored: int
    exhausted: bool


class _Budget(Exception):
    pass


def _labelings(f: Hypergraph) -> list[tuple[int, ...]]:
    """F's distinct labelings of [v(F)], each as the sorted positions of its
    edges in the lex list of k-subsets of [v(F)].

    They are the orbit of F's edge set under the adjacent transpositions
    (i, i+1), which generate every relabeling; a complete F has one.
    """
    subsets = list(combinations(range(f.n), f.k))
    pos = {e: i for i, e in enumerate(subsets)}
    swaps = []
    for i in range(f.n - 1):
        tau = {i: i + 1, i + 1: i}
        swaps.append([pos[tuple(sorted(tau.get(v, v) for v in e))]
                      for e in subsets])
    orbit = [tuple(sorted(pos[e] for e in f.edges))]
    seen = set(orbit)
    for edges in orbit:
        for swap in swaps:
            image = tuple(sorted(swap[p] for p in edges))
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    return orbit


class CopyIndex:
    """Copies of F inside the complete k-graph on [n], as edge-index masks.

    through[j] holds the full edge mask of every copy using candidate edge
    j; each copy's mask is one int shared by all of its edges.  Adding edge
    j to an F-free inclusion set creates a copy exactly when one of those
    masks has no edge outside the set and j.
    """

    def __init__(self, n: int, f: Hypergraph):
        if f.edge_count == 0 and f.n <= n:
            raise ParameterError("F without edges is contained in every graph")
        self.cand: list[tuple[int, ...]] = list(combinations(range(n), f.k))
        self.index = {e: i for i, e in enumerate(self.cand)}
        # a helper, so that its set of seen masks is freed before the lists
        # are copied into tuples: that keeps the peak memory down
        through = self._copies_through(n, f)
        self.through: tuple[tuple[int, ...], ...] = tuple(tuple(t) for t in through)

    def _copies_through(self, n: int, f: Hypergraph) -> list[list[int]]:
        # every injection V(F) -> [n] is a relabeling of [v(F)] followed by
        # the order-preserving map onto its image, so map F's labelings onto
        # each v(F)-subset of [n]; a copy that leaves some vertex of F
        # isolated comes from several subsets and is stored once
        through: list[list[int]] = [[] for _ in self.cand]
        labelings = _labelings(f) if f.n <= n else []
        seen: set[int] = set()
        for s in combinations(range(n), f.n):
            ids = [self.index[e] for e in combinations(s, f.k)]
            bits = [1 << j for j in ids]
            for edges in labelings:
                m = 0
                for p in edges:
                    m |= bits[p]
                if m not in seen:
                    seen.add(m)
                    for p in edges:
                        through[ids[p]].append(m)
        return through

    def addable(self, inc: int, j: int) -> bool:
        outside = ~(inc | 1 << j)
        for m in self.through[j]:
            if not m & outside:
                return False
        return True


def turan_number(
    n: int,
    f: Hypergraph,
    budget: int = DEFAULT_BUDGET,
    family: FamilySpec | None = None,
    root_symmetry: bool = True,
) -> TuranResult:
    """Maximum edge count of an F-free k-graph on n vertices.

    Exact when the search exhausts within the node budget; otherwise the
    best lower bound found so far is returned with exhausted=False.  The
    witness is the lexicographically smallest optimal edge list.
    """
    if budget <= 0:
        raise ParameterError(f"budget must be positive, got {budget}")
    k = f.k
    if family is None:
        family = FamilySpec.custom(f)
    if f.edge_count == 0 and f.n > n:
        full = tuple(combinations(range(n), k))
        return TuranResult(n, family, len(full), Hypergraph(k, n, full), 0, True)

    engine = CopyIndex(n, f)
    cand = engine.cand
    through = engine.through
    chosen: list[int] = []
    best = 0
    witness: tuple[int, ...] = ()
    nodes = 0
    exhausted = True

    def rec(alive: int, count: int, inc: int) -> None:
        # alive: bitmask of the candidates after the last included one that
        # can still be added to inc without closing a copy of F
        nonlocal best, witness, nodes, exhausted
        nodes += 1
        if nodes > budget:
            exhausted = False
            raise _Budget
        if count > best:
            best = count
            witness = tuple(chosen)
        rest = alive
        left = alive.bit_count()
        while rest and count + left > best:
            low = rest & -rest
            rest ^= low
            left -= 1
            j = low.bit_length() - 1
            inc2 = inc | low
            # a later candidate dies exactly when some copy through j now
            # misses only that candidate
            outside = ~inc2
            kill = 0
            for m in through[j]:
                miss = m & outside
                if not miss & (miss - 1):
                    kill |= miss
            chosen.append(j)
            rec(rest & ~kill, count + 1, inc2)
            chosen.pop()

    root_alive = sum(1 << j for j in range(len(cand)) if engine.addable(0, j))
    # rec recurses once per included edge; CPython >= 3.11 makes
    # Python-to-Python calls without the C stack, so only the limit binds
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + len(cand))
    try:
        if root_alive and root_symmetry:
            # sound cut: some optimum (and the lex-min one) contains cand[j0]
            low = root_alive & -root_alive
            j0 = low.bit_length() - 1
            chosen.append(j0)
            best = 1
            witness = (j0,)
            alive = sum(1 << j for j in range(j0 + 1, len(cand))
                        if root_alive >> j & 1 and engine.addable(low, j))
            rec(alive, 1, low)
            chosen.pop()
        else:
            rec(root_alive, 0, 0)
    except _Budget:
        pass
    finally:
        sys.setrecursionlimit(limit)
    edges = tuple(cand[j] for j in witness)
    return TuranResult(
        n, family, best, Hypergraph(k, n, edges), nodes, exhausted
    )


def extremal_witness(
    n: int, f: Hypergraph, budget: int = DEFAULT_BUDGET
) -> Hypergraph:
    """An F-free graph attaining ex(n, F); errors out if the search was cut."""
    result = turan_number(n, f, budget=budget)
    if not result.exhausted:
        raise BudgetExceededError(
            f"turan search for n={n} not exhausted within {budget} nodes"
        )
    return result.witness


def random_maximal_free(n: int, f: Hypergraph, seed: int) -> Hypergraph:
    """Greedy maximal F-free graph over a seed-shuffled candidate order."""
    engine = CopyIndex(n, f)
    order = list(range(len(engine.cand)))
    random.Random(seed).shuffle(order)
    inc = 0
    for j in order:
        if engine.addable(inc, j):
            inc |= 1 << j
    edges = [engine.cand[j] for j in range(len(engine.cand)) if inc >> j & 1]
    return Hypergraph(f.k, n, tuple(edges))
