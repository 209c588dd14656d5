"""Decision procedures for the two density-separation criteria.

Given k-graphs F' ⊆ F on m = v(F) vertices, the pair has separated Turán
densities when either condition holds:

  (1)  ex(m, F') + prod_{i=0}^{k-1} floor((m+i)/k)  <  e(F);
  (2)  for every k-partition V(F) = V_1 ∪ ... ∪ V_k in which every edge of
       F meets V_1, some j in {2..k} has F' ⊆ F - V_j.

Condition (1) delegates to the exact Turán search.  A search cut by the
budget still bounds ex(m, F') from both sides, by its KNS cap above and
its witness below, and condition (1) reports "unknown" only when the
threshold lies between the two.  The report gives the upper bound that
decides it as ex_upper: the value of an exhausted search, else the cap.
Condition (2) enumerates vertex assignments as base-k counters (vertex 0
the most significant digit), keeping each part as a vertex mask.  An
edge is fully assigned once its last vertex is, so a prefix is cut as
soon as such an edge's vertex mask misses V_1.  Parts may be empty, and
a partition with an empty V_j, j >= 2, passes automatically since
F - ∅ = F ⊇ F'.  Parts 2..k play symmetric roles, so only assignments
whose non-first labels appear in increasing first-occurrence order are
enumerated; relabeling parts 2..k keeps a violation, so the first one
found is the first in base-k order.
F's twins compose with that: vertices u < v are twins when the
transposition (u v) is an automorphism of F, and swapping the labels of
twins keeps a violation too.  The first violation in base-k order is
therefore lex-min in its orbit under both, so it gives each twin class
non-decreasing labels in vertex order, and v's label loop starts at the
label of its previous twin.
F' ⊆ F - V_j is decided by the copy search on F's own links over the
vertices outside V_j, under functools.cache on the mask of V_j, so the
cached function's cache_info() gives the memo's hits and misses.  The
enumeration stops at the first violation and leaves the parts as they are
on the way out, so the counterexample is the parts where it stopped.

Both conditions read F' without its isolated vertices.  π(F') does not
depend on them, and they would keep F' out of an F - V_j with room for
its edges but not for them.  Condition (1) needs F' to have an edge:
every graph on v(F) vertices contains an edgeless F', so no graph is
F'-free and ex(v(F), F') has no value.  Condition (2) then holds
vacuously.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import embed
from .errors import ParameterError
from .exact import DEFAULT_BUDGET, turan_number
from .hypergraph import Hypergraph, delete, drop_isolated

Partition = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Condition1Result:
    m: int
    ex_value: int
    ex_exhausted: bool
    # the upper bound on ex(m, F') that the search holds: its value when
    # it exhausts, else the KNS cap
    ex_upper: int
    floor_product: int
    e_f: int
    holds: bool | None  # None when the search's bounds do not decide it


@dataclass(frozen=True)
class Condition2Result:
    holds: bool
    counterexample: Partition | None
    partitions_checked: int


@dataclass(frozen=True)
class SeparationReport:
    condition1: Condition1Result
    condition2: Condition2Result
    verdict: str  # "separated" | "not-established"


def floor_product(m: int, k: int) -> int:
    """prod_{i=0}^{k-1} floor((m+i)/k); requires m >= k >= 1."""
    if k < 1 or m < k:
        raise ParameterError(f"need m >= k >= 1, got m={m}, k={k}")
    out = 1
    for i in range(k):
        out *= (m + i) // k
    return out


def de_caen_bound(m: int, k: int) -> Fraction:
    """Upper bound 1 - 1/C(m-1, k-1) for the density of the complete k-graph."""
    if k < 2 or m <= k:
        raise ParameterError(f"need m > k >= 2, got m={m}, k={k}")
    return 1 - Fraction(1, comb(m - 1, k - 1))


def _sub_core(f: Hypergraph, f_sub: Hypergraph) -> Hypergraph:
    """F' without its isolated vertices, which π(F') does not see; it must
    be a subgraph of F."""
    if f.k != f_sub.k:
        raise ParameterError(
            f"uniformity mismatch: F has k={f.k}, F' has k={f_sub.k}")
    core = drop_isolated(f_sub)
    if embed.contains(f, core) is None:
        raise ParameterError("F' is not a subgraph of F")
    return core


def check_condition1(
    f: Hypergraph, f_sub: Hypergraph, budget: int = DEFAULT_BUDGET
) -> Condition1Result:
    """Evaluate condition (1) for the pair (F, F'); F' ⊆ F is required."""
    f_sub = _sub_core(f, f_sub)
    m, k = f.n, f.k
    if m <= k:
        raise ParameterError(f"need v(F) > k, got v(F)={m}, k={k}")
    if not f_sub.edge_count:
        raise ParameterError("F' has no edges, so ex(v(F), F') is not defined")
    result = turan_number(m, f_sub, budget=budget)
    fp = floor_product(m, k)
    upper = result.upper
    holds: bool | None = None
    if upper + fp < f.edge_count:
        holds = True
    elif result.value + fp >= f.edge_count:
        # the witness bounds ex(m, F') from below
        holds = False
    return Condition1Result(
        m=m,
        ex_value=result.value,
        ex_exhausted=result.exhausted,
        ex_upper=upper,
        floor_product=fp,
        e_f=f.edge_count,
        holds=holds,
    )


def check_condition2(f: Hypergraph, f_sub: Hypergraph) -> Condition2Result:
    """Evaluate condition (2) for the pair (F, F'); F' ⊆ F is required.

    On failure the counterexample is the first violating partition in
    enumeration order, as a k-tuple of vertex lists.
    """
    f_sub = _sub_core(f, f_sub)
    m, k = f.n, f.k
    # vertices are assigned in index order, so an edge is fully assigned
    # once its last vertex is: ending_at[v] holds the vertex masks of the
    # edges whose last vertex is v
    ending_at: list[list[int]] = [[] for _ in range(m)]
    for e in f.edges:
        ending_at[e[-1]].append(sum(1 << v for v in e))
    edge_masks = [e for masks in ending_at for e in masks]
    twin = _previous_twins(m, edge_masks)
    tree = embed._compile(f_sub)[1]
    full = (1 << m) - 1

    @functools.cache
    def contained_after_removing(part_mask: int) -> bool:
        # F - V_j needs v(F') vertices and e(F') edges before the search
        return (m - part_mask.bit_count() >= f_sub.n
                and sum(not e & part_mask for e in edge_masks) >= f_sub.edge_count
                and embed._extend(tree, f.links, [], full ^ part_mask))

    # labels stay at m or below, so the parts past m + 1 stay empty; when
    # k > m + 2, part m + 1 is empty too and every partition passes
    part_masks = [0] * min(k, m + 2)
    labels = [0] * m
    checked = 0

    def enumerate_from(v: int, used_labels: int) -> bool:
        nonlocal checked
        if v == m:
            checked += 1
            return any(not p or contained_after_removing(p) for p in part_masks[1:])
        # v in part 1 passes the filter, as the edges ending at v contain v;
        # v in parts 2..k passes only if those edges already meet part 1
        top = min(used_labels + 2, k) if all(
            e & part_masks[0] for e in ending_at[v]) else 1
        # a twin class takes non-decreasing labels in vertex order
        start = labels[twin[v]] if twin[v] >= 0 else 0
        bit = 1 << v
        for label in range(start, top):
            labels[v] = label
            part_masks[label] |= bit
            if not enumerate_from(v + 1, max(used_labels, label)):
                return False
            part_masks[label] ^= bit
        return True

    try:
        # one call per vertex, and at its foot the copy search of F'
        with embed._deeper(m + f_sub.n):
            holds = enumerate_from(0, 0)
    finally:
        # enumerate_from refers to itself through its closure; without this
        # the cycle keeps the cache of contained_after_removing alive until
        # a full collection
        del enumerate_from
    # no caller undoes a part on the way out of a violation, so the parts
    # are where the enumeration stopped
    return Condition2Result(
        holds=holds,
        counterexample=None if holds else tuple(
            tuple(u for u in range(m) if p >> u & 1) for p in part_masks),
        partitions_checked=checked,
    )


def _previous_twins(m: int, edge_masks: list[int]) -> list[int]:
    """For each vertex v, the largest u < v such that the transposition
    (u v) is an automorphism of the graph with these edge masks, or -1.

    (u v) fixes the edges holding both or neither of u and v, and swaps
    the others in pairs that differ by the two bits.  Twins form an
    equivalence relation, so each vertex's previous twin links its class.
    """
    edges = set(edge_masks)
    twin = [-1] * m
    for v in range(m):
        for u in range(v - 1, -1, -1):
            uv = 1 << u | 1 << v
            if all(e ^ uv in edges for e in edges if e & uv not in (0, uv)):
                twin[v] = u
                break
    return twin


def verify_counterexample(
    f: Hypergraph, f_sub: Hypergraph, partition: Partition
) -> bool:
    """Independent re-check that a partition really violates condition (2)."""
    m, k = f.n, f.k
    if len(partition) != k:
        return False
    seen: set[int] = set()
    for part in partition:
        for v in part:
            if v < 0 or v >= m or v in seen:
                return False
            seen.add(v)
    if len(seen) != m:
        return False
    first = set(partition[0])
    if any(not first.intersection(e) for e in f.edges):
        return False
    core = drop_isolated(f_sub)
    return all(
        embed.contains(delete(f, part), core) is None for part in partition[1:]
    )


def separate(
    f: Hypergraph, f_sub: Hypergraph, budget: int = DEFAULT_BUDGET
) -> SeparationReport:
    """Run both criteria on (F, F') and combine the verdict."""
    cond1 = check_condition1(f, f_sub, budget=budget)
    cond2 = check_condition2(f, f_sub)
    separated = cond1.holds is True or cond2.holds
    return SeparationReport(
        condition1=cond1,
        condition2=cond2,
        verdict="separated" if separated else "not-established",
    )
