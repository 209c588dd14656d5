"""Balanced random part selection and the crossing-edge expectation.

For k pairwise disjoint vertex sets U_1..U_k of size s = n/t0, an edge is
crossing when it meets every U_i in exactly one vertex.  For a uniformly
random ordered choice of the parts, each edge is crossing with probability
k! s^k (n-k)! / n!, so the expected number of crossing edges is e(H) times
that; this module computes the probability exactly, samples parts
reproducibly, and checks the identity empirically.

The count reads ``Hypergraph.links``: a crossing edge is a transversal of
U_1..U_{k-1} together with a vertex of U_k in its link, so one trial costs
s^(k-1) link lookups, whatever e(H) is.

Divisibility t0 | n is required; per-trial randomness is a deterministic
function of (seed, trial index), so trials are schedule-independent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import factorial, perm
from typing import Iterator

from .errors import ParameterError
from .hypergraph import Hypergraph


@dataclass(frozen=True)
class BalancedParts:
    """k pairwise disjoint, equally sized vertex subsets."""

    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ParameterError("need at least one part")
        size = len(self.parts[0])
        seen: set[int] = set()
        for p in self.parts:
            if len(p) != size or len(set(p)) != size:
                raise ParameterError(f"part {p} is not a {size}-set")
            if seen.intersection(p):
                raise ParameterError(f"part {p} overlaps an earlier part")
            seen.update(p)


@dataclass(frozen=True)
class ExpectationReport:
    seed: int
    empirical_mean: float
    exact_expectation: Fraction
    z_score: float


def _validate(n: int, k: int, t0: int) -> int:
    if n < k:
        raise ParameterError(f"need n >= k, got n={n}, k={k}")
    if t0 < 1 or n % t0 != 0:
        raise ParameterError(f"t0 must divide n, got n={n}, t0={t0}")
    if t0 < k:
        raise ParameterError(
            f"need t0 >= k so that k parts of size n/t0 fit, got t0={t0}, k={k}")
    return n // t0


def crossing_probability(n: int, k: int, t0: int) -> Fraction:
    """Exact probability that a fixed edge is crossing: k! s^k (n-k)!/n!."""
    s = _validate(n, k, t0)
    return Fraction(factorial(k) * s**k, perm(n, k))


def sample_parts(n: int, k: int, t0: int, seed) -> BalancedParts:
    """Uniform ordered choice of k disjoint s-sets, deterministic per seed."""
    s = _validate(n, k, t0)
    rng = random.Random(seed)
    draw = rng.sample(range(n), k * s)
    return BalancedParts(
        tuple(tuple(sorted(draw[i * s:(i + 1) * s])) for i in range(k))
    )


def enumerate_balanced_parts(n: int, k: int, t0: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All ordered choices of k disjoint s-sets, in lexicographic order."""
    s = _validate(n, k, t0)
    yield from _extend_parts((), tuple(range(n)), k, s)


def _extend_parts(chosen: tuple, available: tuple, k: int, s: int):
    """The choices of enumerate_balanced_parts that start with chosen, its
    further parts drawn from available."""
    if len(chosen) == k:
        yield chosen
        return
    for part in combinations(available, s):
        rest = tuple(v for v in available if v not in part)
        yield from _extend_parts(chosen + (part,), rest, k, s)


def crossing_count(h: Hypergraph, parts: BalancedParts) -> int:
    """Number of edges meeting every part in exactly one vertex.

    Such an edge is a transversal t of U_1..U_{k-1} plus a vertex of U_k
    in the link of t, so the count is s^(k-1) lookups in ``h.links``.
    """
    if len(parts.parts) != h.k:
        raise ParameterError(
            f"need k={h.k} parts, got {len(parts.parts)}")
    for p in parts.parts:
        for v in p:
            if v < 0 or v >= h.n:
                raise ParameterError(f"vertex {v} out of range [0, {h.n})")
    *heads, last = parts.parts
    target = sum(1 << v for v in last)
    links = h.links
    return sum((links.get(tuple(sorted(t)), 0) & target).bit_count()
               for t in product(*heads))


def expectation_check(
    h: Hypergraph, t0: int, trials: int, seed: int
) -> ExpectationReport:
    """Empirical mean of the crossing count over reproducible trials,
    against the exact expectation e(H) * crossing probability."""
    if trials < 1:
        raise ParameterError(f"need trials >= 1, got {trials}")
    n, k = h.n, h.k
    p = crossing_probability(n, k, t0)
    exact = h.edge_count * p
    values = []
    for i in range(trials):
        parts = sample_parts(n, k, t0, seed=f"{seed}:{i}")
        values.append(crossing_count(h, parts))
    mean = sum(values) / trials
    if trials > 1:
        var = sum((v - mean) ** 2 for v in values) / (trials - 1)
    else:
        var = 0.0
    stderr = (var / trials) ** 0.5
    z = (mean - float(exact)) / stderr if stderr > 0 else 0.0
    return ExpectationReport(
        seed=seed,
        empirical_mean=mean,
        exact_expectation=exact,
        z_score=z,
    )
