"""Slow reference enumerations that the tests check the library against."""

from itertools import combinations


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
