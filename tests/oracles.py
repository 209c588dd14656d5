"""Slow reference paths that the tests check the library against."""

import random
from itertools import chain, combinations, product
from operator import lt

from turansep.errors import ParameterError, ParseError
from turansep.hypergraph import Hypergraph, _line_error
from turansep.partitions import (
    BalancedParts,
    ExpectationReport,
    crossing_count,
    crossing_probability,
)


def enumerate_balanced_parts(n, k, t0):
    """All ordered choices of k disjoint (n/t0)-subsets of [n], in
    lexicographic order; t0 must divide n."""
    yield from _extend_parts((), tuple(range(n)), k, n // t0)


def _extend_parts(chosen, available, k, s):
    """The choices of enumerate_balanced_parts that start with chosen, its
    further parts drawn from available."""
    if len(chosen) == k:
        yield chosen
        return
    for part in combinations(available, s):
        rest = tuple(v for v in available if v not in part)
        yield from _extend_parts(chosen + (part,), rest, k, s)


def blown(pattern, parts):
    """The pattern blown up over parts, with no assumption on their layout:
    part names in order of first appearance, each edge sorted on its own."""
    picks = product(*(combinations(parts[j], pattern.count(j))
                      for j in dict.fromkeys(pattern)))
    return [tuple(sorted(chain.from_iterable(pick))) for pick in picks]


def check_edge_list(k, n, edges):
    """Raise ParameterError at the first bad edge of a k-graph's edge list
    over [n], walking the edges one by one, or where the list is out of
    order."""
    for e in edges:
        if len(e) != k:
            raise ParameterError(f"edge {e} does not have {k} vertices")
        if not all(map(lt, e, e[1:])):
            raise ParameterError(f"edge {e} is not strictly increasing")
        if e[0] < 0 or e[-1] >= n:
            raise ParameterError(f"edge {e} out of range [0, {n})")
    if not all(map(lt, edges, edges[1:])):
        bad = next(b for a, b in zip(edges, edges[1:]) if a >= b)
        raise ParameterError(f"edge list not strictly sorted at {bad}")


def parse_sorting(text):
    """The text format parsed by sorting every edge and then the edge list
    before the one validating build."""
    rows = (r for r in map(str.split, text.splitlines()) if r and r[0][0] != "#")
    header = next(rows, None)
    if header is None:
        raise ParseError("missing 'k n' header line")
    try:
        k, n = map(int, header)
        edges = sorted([tuple(sorted(map(int, r))) for r in rows])
        return Hypergraph(k, n, tuple(edges))
    except (ValueError, ParameterError) as exc:
        raise ParseError(_line_error(text) or str(exc)) from None


def expectation_by_sample(h, t0, trials, seed):
    """The expectation report from trial i's parts drawn by
    ``random.Random(f"{seed}:{i}").sample`` and counted by one public
    crossing_count call each."""
    n, k = h.n, h.k
    s = n // t0
    values = []
    for i in range(trials):
        draw = random.Random(f"{seed}:{i}").sample(range(n), k * s)
        parts = BalancedParts(tuple(tuple(draw[j:j + s]) for j in range(0, k * s, s)))
        values.append(crossing_count(h, parts))
    exact = h.edge_count * crossing_probability(n, k, t0)
    mean = sum(values) / trials
    var = sum((v - mean) ** 2 for v in values) / (trials - 1) if trials > 1 else 0.0
    stderr = (var / trials) ** 0.5
    z = (mean - float(exact)) / stderr if stderr > 0 else 0.0
    return ExpectationReport(mean, exact, z)


def quad_is_positive(q):
    """The sign of a + b*sqrt(d) by cases: the sign of a or b when the
    other is zero or shares it, else a^2 against b^2 d on the side of the
    term with the larger square."""
    if q.b == 0:
        return q.a > 0
    if q.a == 0:
        return q.b > 0
    if q.a > 0 and q.b > 0:
        return True
    if q.a < 0 and q.b < 0:
        return False
    if q.a > 0:
        return q.a * q.a > q.b * q.b * q.d
    return q.a * q.a < q.b * q.b * q.d


def previous_twins(m, edge_masks):
    """For each vertex v, the largest u < v whose transposition with v maps
    the edge masks onto themselves, or -1: each pair tried by a scan over
    every edge, for one holding exactly one of u and v whose image under
    (u v) is missing."""
    edges = set(edge_masks)
    twin = [-1] * m
    for v in range(m):
        for u in range(v - 1, -1, -1):
            uv = 1 << u | 1 << v
            if all(e ^ uv in edges for e in edges if e & uv not in (0, uv)):
                twin[v] = u
                break
    return twin
