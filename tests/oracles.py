"""Slow reference paths that the tests check the library against."""

from itertools import chain, combinations, product
from operator import lt

from turansep.errors import ParameterError


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
