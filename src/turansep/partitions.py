"""Balanced random part selection and the crossing-edge expectation.

For k pairwise disjoint vertex sets U_1..U_k of size s = n/t0, an edge is
crossing when it meets every U_i in exactly one vertex.  For a uniformly
random ordered choice of the parts, each edge is crossing with probability
k! s^k (n-k)! / n!, so the expected number of crossing edges is e(H) times
that; this module computes the probability exactly, samples parts
reproducibly, and checks the identity empirically.

The count reads ``Hypergraph.incidence``, each vertex's bitmask over the
edge indices: OR the rows of each part, AND the k results and count the
bits.  An edge has k vertices, so an edge that meets all k disjoint
parts meets each one exactly once.  One trial costs k*s ORs of e(H)-bit
ints, where reading the links of every transversal would cost s^(k-1)
lookups.

Divisibility t0 | n is required; per-trial randomness is a deterministic
function of (seed, trial index), so trials are schedule-independent.
``expectation_check`` hands one generator, ``_draws``, the seed
``f"{seed}:{i}"`` of every trial i, which draws the same parts as
``sample_parts`` with that seed, and counts each flat draw in steps of
s, unsorted, without validating it.

``_draws`` re-seeds one ``Random`` for each seed and yields the picks of
``random.Random(seed).sample(range(n), m)``; ``sample_parts`` takes its
first draw.  Its per-call constants, the regime, each bound's bit length
and the pool template, are computed once per call.  Only ``sample``'s
pool regime is copied, the one the crossing hosts draw in (m = 9 of 12
vertices, m = 6 of the six-part host's 46), without the per-call
overhead of ``sample`` (a sequence check, the population list, a method
call per index).  It calls the generator's ``getrandbits`` exactly as
CPython 3.11's ``sample`` and ``_randbelow`` do: the regime chosen by
the same float expression, each index drawn with as many bits as its
bound has and redrawn while out of range, then a pool swap.  The same
bits in the same order give the same picks, so every report stays as it
was.  Past the cutoff, in the set regime, ``_draws`` calls ``sample``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, factorial, log, perm
from typing import Iterable, Iterator, Sequence

from .errors import ParameterError
from .hypergraph import Hypergraph, _check_vertices


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
    draw = next(_draws(random.Random(), n, k * s, [seed]))
    return BalancedParts(
        tuple([tuple(sorted(draw[i:i + s])) for i in range(0, k * s, s)]))


def _draws(rng: random.Random, n: int, m: int, seeds: Iterable) -> Iterator[list[int]]:
    """For each seed, rng re-seeded with it and the picks of
    ``rng.sample(range(n), m)``, for 0 <= m <= n, drawn from the same
    ``getrandbits`` calls."""
    # sample's own cutoff, float log included: a pool of n indices when
    # it is smaller than a set of m; past it, sample itself
    if n > 21 + (4 ** ceil(log(3 * m, 4)) if m > 5 else 0):
        for seed in seeds:
            rng.seed(seed)
            yield rng.sample(range(n), m)
        return
    getrandbits = rng.getrandbits
    # each index is drawn below its bound i with i's bit length
    bounds = [(i, i.bit_length()) for i in range(n, n - m, -1)]
    template = list(range(n))
    for seed in seeds:
        rng.seed(seed)
        # partial Fisher-Yates: the unpicked indices are pool[:i]
        pool = template[:]
        picks = []
        for i, bits in bounds:
            j = getrandbits(bits)
            while j >= i:
                j = getrandbits(bits)
            picks.append(pool[j])
            pool[j] = pool[i - 1]
        yield picks


def crossing_count(h: Hypergraph, parts: BalancedParts) -> int:
    """Number of edges meeting every part in exactly one vertex.

    These are the edges meeting all k parts: the AND over the parts of
    the OR of their vertices' rows in ``h.incidence``.
    """
    if len(parts.parts) != h.k:
        raise ParameterError(
            f"need k={h.k} parts, got {len(parts.parts)}")
    for p in parts.parts:
        _check_vertices(h, p)
    s = len(parts.parts[0])
    if not s:
        return 0  # empty parts meet no edge
    return _count(h.incidence, [v for p in parts.parts for v in p], s)


def _count(rows: list[int], picks: Sequence[int], s: int) -> int:
    """Crossing edges of the valid parts picks[0:s], picks[s:2s], ...,
    read off the host's incidence rows."""
    common = -1
    for i in range(0, len(picks), s):
        edges = 0
        for v in picks[i:i + s]:
            edges |= rows[v]
        common &= edges
    return common.bit_count()


def expectation_check(
    h: Hypergraph, t0: int, trials: int, seed: int
) -> ExpectationReport:
    """Empirical mean of the crossing count over reproducible trials,
    against the exact expectation e(H) * crossing probability."""
    if trials < 1:
        raise ParameterError(f"need trials >= 1, got {trials}")
    n, k = h.n, h.k
    s = _validate(n, k, t0)
    exact = h.edge_count * crossing_probability(n, k, t0)
    rows = h.incidence
    # trial i draws as sample_parts(n, k, t0, f"{seed}:{i}") does
    draws = _draws(random.Random(), n, k * s, (f"{seed}:{i}" for i in range(trials)))
    values = [_count(rows, picks, s) for picks in draws]
    mean = sum(values) / trials
    if trials > 1:
        var = sum((v - mean) ** 2 for v in values) / (trials - 1)
    else:
        var = 0.0
    stderr = (var / trials) ** 0.5
    z = (mean - float(exact)) / stderr if stderr > 0 else 0.0
    return ExpectationReport(
        empirical_mean=mean, exact_expectation=exact, z_score=z)
