"""The benchmark's own brute-force reference code.

Every witness turansep reports (embeddings, violating subsets, condition-2
partitions, extremal and budget-cut witnesses) is re-checked here, outside
the timed region, with code that shares nothing with turansep.  Graphs are
plain ``(k, n, edges)`` triples with edges as sorted tuples.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial, perm

# Frankl-Furedi 3-graph on six vertices: every 4-set spans at most two edges.
S6 = ((0, 1, 2), (0, 1, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5),
      (1, 2, 3), (1, 3, 5), (1, 4, 5), (2, 3, 4), (2, 4, 5))


def family(token: str) -> tuple[int, int, list[tuple[int, ...]]]:
    """(k, n, edges) of a family token ``K:l,k``, ``K-:l,k``, ``D:t,k`` or ``S6``."""
    if token == "S6":
        return 3, 6, list(S6)
    kind, body = token.split(":")
    a, k = (int(x) for x in body.split(","))
    if kind == "K":
        return k, a, list(combinations(range(a), k))
    if kind == "K-":
        return k, a, list(combinations(range(a), k))[:-1]
    if kind == "D":
        return k, k + 1, list(combinations(range(k + 1), k))[:a]
    raise ValueError(f"unknown family token {token!r}")


def threshold(token: str) -> tuple[int, int]:
    """(r, max_edges): the token's family is contained iff some r-set spans
    more than max_edges edges.  Holds for complete, complete-minus and daisy."""
    kind, body = token.split(":")
    a, k = (int(x) for x in body.split(","))
    if kind == "K":
        return a, comb(a, k) - 1
    if kind == "K-":
        return a, comb(a, k) - 2
    if kind == "D":
        return k + 1, a - 1
    raise ValueError(f"no threshold form for {token!r}")


def read_graph(path) -> tuple[int, int, list[tuple[int, ...]]]:
    """Parse the ``k n`` / one-edge-per-line text format."""
    header = None
    edges = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            values = tuple(int(x) for x in line.split())
            if header is None:
                header = values
            else:
                edges.append(tuple(sorted(values)))
    k, n = header
    return k, n, sorted(edges)


def write_graph(path, k: int, n: int, edges) -> None:
    lines = [f"{k} {n}"] + [" ".join(map(str, e)) for e in sorted(edges)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def edges_digest(edges) -> str:
    """SHA-256 of the sorted edge list, independent of file formatting."""
    canon = sorted(tuple(sorted(e)) for e in edges)
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()


def relabel(edges, permutation) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(permutation[v] for v in e)) for e in edges)


def lex_rank(subset, n: int) -> int:
    """Position of a sorted r-subset of range(n) among all r-subsets in
    lexicographic order (the order ``itertools.combinations`` yields)."""
    r = len(subset)
    rank = 0
    prev = -1
    for i, s in enumerate(subset):
        for v in range(prev + 1, s):
            rank += comb(n - 1 - v, r - 1 - i)
        prev = s
    return rank


def subset_counts(k: int, n: int, edges, r: int):
    """Every r-subset of range(n), in lex order, with its spanned edge count."""
    edge_set = set(edges)
    return ((s, sum(1 for e in combinations(s, k) if e in edge_set))
            for s in combinations(range(n), r))


def first_violation(k: int, n: int, edges, r: int, max_edges: int):
    """Lexicographically first r-subset spanning more than max_edges edges,
    as (subset, count), or None."""
    for s, c in subset_counts(k, n, edges, r):
        if c > max_edges:
            return s, c
    return None


def is_maximal_free(k: int, n: int, edges, r: int, max_edges: int) -> bool:
    """Threshold-free, and adding any missing k-set breaks the threshold."""
    edge_set = set(edges)
    blocked = set()
    for s, c in subset_counts(k, n, edges, r):
        if c > max_edges:
            return False
        if c == max_edges:
            blocked.update(e for e in combinations(s, k) if e not in edge_set)
    return all(e in edge_set or e in blocked for e in combinations(range(n), k))


def is_embedding(h_edges, f_n: int, f_edges, mapping) -> bool:
    """mapping[f_vertex] = h_vertex is injective and edge-preserving."""
    if len(mapping) != f_n or len(set(mapping)) != f_n:
        return False
    edge_set = set(h_edges)
    return all(tuple(sorted(mapping[v] for v in e)) in edge_set for e in f_edges)


def find_copy(h_n: int, h_edges, f_n: int, f_edges):
    """Some embedding of F into H, or None, by trying every f_n-subset that
    spans enough edges and every ordering of it."""
    if f_n > h_n:
        return None
    edge_set = set(h_edges)
    k = len(f_edges[0])
    for s in combinations(range(h_n), f_n):
        if sum(1 for e in combinations(s, k) if e in edge_set) < len(f_edges):
            continue
        for image in permutations(s):
            if all(tuple(sorted(image[v] for v in e)) in edge_set for e in f_edges):
                return image
    return None


def condition2_violation_holds(f_token: str, sub_token: str, partition) -> bool:
    """The partition refutes condition (2) for (F, F'): it partitions V(F)
    into k parts, every edge of F meets the first part, and for each later
    part V_j the graph F - V_j contains no copy of F'."""
    k, m, f_edges = family(f_token)
    _, sub_n, sub_edges = family(sub_token)
    parts = [tuple(p) for p in partition]
    flat = [v for p in parts for v in p]
    if len(parts) != k or sorted(flat) != list(range(m)):
        return False
    first = set(parts[0])
    if any(not first.intersection(e) for e in f_edges):
        return False
    for part in parts[1:]:
        keep = [v for v in range(m) if v not in part]
        relabel_to = {v: i for i, v in enumerate(keep)}
        rest = [tuple(relabel_to[v] for v in e) for e in f_edges
                if not set(e) & set(part)]
        if find_copy(len(keep), rest, sub_n, sub_edges) is not None:
            return False
    return True


def crossing_expectation(n: int, k: int, t0: int, edge_count: int) -> Fraction:
    """e(H) * k! s^k (n-k)!/n! with s = n/t0."""
    s = n // t0
    return edge_count * Fraction(factorial(k) * s**k, perm(n, k))


def near_equal_sizes(n: int, parts: int) -> list[int]:
    q, r = divmod(n, parts)
    return [q + (1 if i < r else 0) for i in range(parts)]


def s6_star_edges(n: int) -> int:
    """Edge count of the iterated blow-up of S6 on n vertices."""
    if n < 6:
        return 0
    sizes = near_equal_sizes(n, 6)
    top = sum(sizes[a] * sizes[b] * sizes[c] for a, b, c in S6)
    return top + sum(s6_star_edges(s) for s in sizes)


def bipartite_g_edges(n: int) -> int:
    """Edge count of the bipartite-style 3-graph with sides of size n."""
    return sum(2 * j * j for j in range(1, n))


def densopt_value() -> float:
    """(31097 + 277 sqrt(277)) / 59248."""
    return (31097 + 277 * 277**0.5) / 59248
