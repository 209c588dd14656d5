"""Balanced part sampling and the crossing-edge expectation identity."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from turansep.errors import ParameterError
from turansep.hypergraph import FamilySpec, Hypergraph, build_named, from_edges
from turansep.partitions import (
    BalancedParts,
    _draw,
    crossing_count,
    crossing_probability,
    expectation_check,
    sample_parts,
)

from oracles import enumerate_balanced_parts, expectation_by_sample


def K(ell, k):
    return build_named(FamilySpec.complete(ell, k))


def test_crossing_probability_examples():
    assert crossing_probability(3, 3, 3) == 1
    assert crossing_probability(4, 4, 4) == 1
    assert crossing_probability(6, 3, 6) == Fraction(1, 20)
    assert crossing_probability(12, 3, 4) == Fraction(27, 220)


@pytest.mark.parametrize("n,k,t0", [(10, 3, 4), (6, 3, 2), (5, 3, 2), (2, 3, 1)])
def test_crossing_probability_errors(n, k, t0):
    with pytest.raises(ParameterError):
        crossing_probability(n, k, t0)


def test_probability_matches_enumeration():
    # count, over every ordered choice of parts, how often a fixed edge crosses
    for n, k, t0 in ((6, 3, 6), (6, 3, 3), (8, 2, 4)):
        s = n // t0
        edge = tuple(range(k))
        hits = total = 0
        for parts in enumerate_balanced_parts(n, k, t0):
            total += 1
            if all(len(set(p) & set(edge)) == 1 for p in parts):
                hits += 1
        assert Fraction(hits, total) == crossing_probability(n, k, t0)


def test_balanced_parts_validation():
    with pytest.raises(ParameterError):
        BalancedParts(((0, 1), (1, 2)))
    with pytest.raises(ParameterError):
        BalancedParts(((0, 1), (2,)))
    with pytest.raises(ParameterError):
        BalancedParts(())


def test_sample_parts_invariants():
    for seed in range(200):
        parts = sample_parts(12, 3, 4, seed)
        sizes = {len(p) for p in parts.parts}
        assert sizes == {3}
        flat = [v for p in parts.parts for v in p]
        assert len(set(flat)) == 9


def test_sample_parts_covers_when_exact():
    parts = sample_parts(6, 3, 3, seed=5)
    assert sorted(v for p in parts.parts for v in p) == list(range(6))


def test_sample_parts_deterministic():
    assert sample_parts(12, 3, 4, 42) == sample_parts(12, 3, 4, 42)
    assert sample_parts(12, 3, 4, 42) != sample_parts(12, 3, 4, 43)


def test_sample_parts_marginal_uniformity():
    # P(vertex 0 in U_1) = s/n; binomial check over many samples
    n, k, t0 = 6, 3, 3
    s = n // t0
    trials = 100_000
    hits = sum(
        1 for i in range(trials) if 0 in sample_parts(n, k, t0, f"m:{i}").parts[0]
    )
    p = s / n
    se = (p * (1 - p) / trials) ** 0.5
    assert abs(hits / trials - p) < 5 * se


def test_crossing_count_basics():
    empty = Hypergraph(3, 6, ())
    parts = BalancedParts(((0, 1), (2, 3), (4, 5)))
    assert crossing_count(empty, parts) == 0
    inside = from_edges(3, 6, [(0, 1, 2)])  # two vertices in the first part
    assert crossing_count(inside, parts) == 0
    assert crossing_count(K(6, 3), parts) == 8  # s^k transversals
    with pytest.raises(ParameterError):
        crossing_count(K(6, 3), BalancedParts(((0, 1), (2, 3))))
    with pytest.raises(ParameterError):
        crossing_count(K(6, 3), BalancedParts(((0, 1), (2, 3), (4, 6))))
    with pytest.raises(ParameterError):
        crossing_count(K(6, 3), BalancedParts(((-1, 1), (2, 3), (4, 5))))


def _edge_mask_count(h, parts):
    """Reference count: test every edge against every part."""
    masks = [sum(1 << v for v in p) for p in parts.parts]
    return sum(
        all((sum(1 << v for v in e) & m).bit_count() == 1 for m in masks)
        for e in h.edges
    )


@st.composite
def _hosts_and_parts(draw):
    k = draw(st.integers(2, 5))
    n = draw(st.integers(k, 12))
    t0 = draw(st.sampled_from([t for t in range(k, n + 1) if n % t == 0]))
    s = n // t0
    cand = list(combinations(range(n), k))
    host = draw(st.sampled_from(["empty", "complete", "random"]))
    if host == "empty":
        edges = []
    elif host == "complete":
        edges = cand
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        edges = rng.sample(cand, rng.randint(0, len(cand)))
    how = draw(st.sampled_from(["sampled", "permuted", "descending"]))
    if how == "sampled":
        parts = sample_parts(n, k, t0, draw(st.integers(0, 2**32)))
    else:
        # hand-built parts whose order is not the vertex order
        order = (draw(st.permutations(range(n))) if how == "permuted"
                 else list(range(n - 1, -1, -1)))
        parts = BalancedParts(
            tuple(tuple(order[i * s:(i + 1) * s]) for i in range(k)))
    return from_edges(k, n, edges), parts


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_hosts_and_parts())
def test_crossing_count_matches_edge_mask_oracle(case):
    h, parts = case
    assert crossing_count(h, parts) == _edge_mask_count(h, parts)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_hosts_and_parts())
@example((Hypergraph(3, 6, ()), BalancedParts(((0, 1), (2, 3), (4, 5)))))
@example((from_edges(3, 9, [(0, 2, 4), (2, 4, 6)]),
          BalancedParts(((0, 1, 2), (3, 4, 5), (6, 7, 8)))))
def test_incidence_matches_edge_scan_oracle(case):
    # edgeless hosts and hosts with isolated vertices give rows equal to 0
    h, _ = case
    assert h.incidence == [sum(1 << j for j, e in enumerate(h.edges) if v in e)
                           for v in range(h.n)]


@st.composite
def _trial_cases(draw):
    k = draw(st.integers(2, 4))
    if draw(st.booleans()):
        n = draw(st.integers(k, 12))
        t0 = draw(st.sampled_from([t for t in range(k, n + 1) if n % t == 0]))
        cand = list(combinations(range(n), k))
        most = len(cand)
    else:
        # parts of one vertex on up to 30: past 21 vertices random.sample
        # keeps a set of the picks, not a pool; at most 200 edges keep the
        # host quick to build
        n = t0 = draw(st.integers(k, 30))
        cand = list(combinations(range(n), k))
        most = min(len(cand), 200)
    rng = random.Random(draw(st.integers(0, 2**32)))
    h = from_edges(k, n, rng.sample(cand, rng.randint(0, most)))
    return h, t0, draw(st.integers(1, 30)), draw(st.integers(-2**40, 2**40))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_trial_cases())
# three parts of two vertices on 86 vertices: the set regime with m = 6
@example((from_edges(3, 86, [(0, 1, 2), (3, 50, 85), (10, 20, 30)]), 43, 40, 5))
@example((K(22, 3), 22, 30, -1))
def test_expectation_check_matches_per_trial_oracle(case):
    # the floats are compared exactly: the loop must draw the same parts
    # and sum the same counts in the same order
    h, t0, trials, seed = case
    assert expectation_check(h, t0, trials, seed) == expectation_by_sample(h, t0, trials, seed)


def _sample_cutoff(m):
    """The largest n for which random.sample(range(n), m) keeps a pool."""
    return 21 + (4 ** math.ceil(math.log(3 * m, 4)) if m > 5 else 0)


@st.composite
def _draw_cases(draw):
    m = draw(st.integers(0, 40))
    cutoff = _sample_cutoff(m)
    # about half the cases on each side of sample's cutoff
    if draw(st.booleans()):
        n = draw(st.integers(max(m, 1), max(m, cutoff)))
    else:
        n = draw(st.integers(max(m, cutoff + 1), cutoff + 60))
    return n, m, draw(st.one_of(st.integers(-2**70, 2**70), st.text(max_size=8)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_draw_cases())
@example((21, 5, 0))   # the pool regime's largest n for m <= 5
@example((22, 5, 0))   # the set regime's smallest
@example((22, 1, "x"))
@example((21, 2, 3))
@example((85, 6, 1))   # the same edge for m = 6
@example((86, 6, 1))
@example((1, 1, 0))    # m = 1
@example((500, 1, 4))
@example((30, 30, 2))  # m = n, which always keeps a pool
@example((90, 90, 2))
@example((8, 0, 0))    # nothing drawn
@example((64, 16, 9))  # a power of two bounds the draws
def test_draw_matches_random_sample(case):
    # the same picks and the same generator state afterwards
    n, m, seed = case
    ours, theirs = random.Random(seed), random.Random(seed)
    assert _draw(ours, n, m) == theirs.sample(range(n), m)
    assert ours.getstate() == theirs.getstate()


def test_expectation_exact_on_complete_graph():
    rep = expectation_check(K(12, 3), 4, trials=200, seed=1)
    assert rep.exact_expectation == 27
    # every balanced choice crosses the complete graph in s^k edges
    assert rep.empirical_mean == 27.0 and rep.z_score == 0.0


def test_expectation_empty_graph():
    rep = expectation_check(Hypergraph(3, 6, ()), 3, trials=50, seed=0)
    assert rep.exact_expectation == 0 and rep.empirical_mean == 0.0


def test_expectation_deterministic_per_seed():
    h = from_edges(3, 9, list(combinations(range(6), 3)))
    a = expectation_check(h, 3, trials=500, seed=9)
    b = expectation_check(h, 3, trials=500, seed=9)
    assert a == b


def test_linearity_by_full_enumeration():
    # average crossing count over all choices equals e(H) * probability
    rng = random.Random(3)
    for n, k, t0 in ((6, 3, 3), (6, 3, 6), (8, 2, 4)):
        cand = list(combinations(range(n), k))
        h = from_edges(k, n, rng.sample(cand, len(cand) // 2))
        total = 0
        count = 0
        for parts in enumerate_balanced_parts(n, k, t0):
            total += 1
            count += crossing_count(h, BalancedParts(parts))
        assert Fraction(count, total) == h.edge_count * crossing_probability(n, k, t0)


def test_existence_of_below_average_choice():
    # first-moment principle: some choice achieves at most the expectation
    rng = random.Random(8)
    for n, k, t0 in ((6, 3, 3), (9, 3, 3), (8, 4, 4)):
        cand = list(combinations(range(n), k))
        h = from_edges(k, n, rng.sample(cand, max(1, len(cand) // 3)))
        expect = h.edge_count * crossing_probability(n, k, t0)
        best = min(
            crossing_count(h, BalancedParts(parts))
            for parts in enumerate_balanced_parts(n, k, t0)
        )
        assert best <= expect


def test_statistical_z_scores_are_reasonable():
    # non-degenerate graph: z should rarely exceed 4 for honest sampling
    rng = random.Random(99)
    cand = list(combinations(range(12), 3))
    h = from_edges(3, 12, rng.sample(cand, 110))
    bad = 0
    for seed in range(20):
        rep = expectation_check(h, 4, trials=400, seed=seed)
        if abs(rep.z_score) > 4:
            bad += 1
    assert bad <= 1
