"""Containment search, freeness, and the r-subset threshold scan."""

import gc
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from turansep.constructions import SixPartParams, iterated_blowup_s6, six_part_h
from turansep.criteria import check_condition2
from turansep.embed import (
    Embedding,
    _vertex_order,
    check_free,
    contains,
    is_free,
    spanned_edge_violation,
    threshold_free_params,
    validate_embedding,
)
from turansep.errors import ParameterError
from turansep.exact import _labelings, random_maximal_free, turan_number
from turansep.hypergraph import FamilySpec, Hypergraph, build_named, from_edges


def K(ell, k):
    return build_named(FamilySpec.complete(ell, k))


def Km(ell, k):
    return build_named(FamilySpec.complete_minus(ell, k))


S6 = build_named(FamilySpec.s6())


def test_contains_identity():
    emb = contains(S6, S6)
    assert emb is not None
    assert validate_embedding(S6, S6, emb)


def test_contains_k4_in_k5_minus():
    emb = contains(Km(5, 3), K(4, 3))
    assert emb is not None
    assert validate_embedding(Km(5, 3), K(4, 3), emb)


def test_s6_k4_free():
    assert contains(S6, K(4, 3)) is None
    # independent brute force over the 4-subsets
    for s in combinations(range(6), 4):
        spanned = sum(1 for e in S6.edges if set(e) <= set(s))
        assert spanned < 4


def test_is_free_examples():
    assert is_free(S6, Km(4, 3))
    assert not is_free(K(5, 3), K(4, 3))
    assert is_free(Hypergraph(3, 6, ()), S6)
    # the target does not fit in the host, so no scan is possible
    tight = Hypergraph(3, 3, ((0, 1, 2),))
    assert check_free(tight, K(4, 3)) == ("embedding-search", None)


def test_uniformity_mismatch():
    with pytest.raises(ParameterError):
        contains(K(5, 3), K(5, 4))
    with pytest.raises(ParameterError):
        check_free(K(5, 3), K(5, 4))


def test_embedding_maps_isolated_vertices():
    daisy1 = build_named(FamilySpec.daisy(1, 3))  # one edge plus a loose vertex
    host3 = K(4, 3)
    emb = contains(host3, daisy1)
    assert emb is not None and validate_embedding(host3, daisy1, emb)
    tight = Hypergraph(3, 3, ((0, 1, 2),))  # no room for the fourth vertex
    assert contains(tight, daisy1) is None


def test_threshold_scan_examples():
    assert spanned_edge_violation(K(5, 3), 5, 8) is not None
    assert spanned_edge_violation(Km(5, 3), 5, 8) is not None
    assert spanned_edge_violation(S6, 4, 2) is None
    with pytest.raises(ParameterError):
        spanned_edge_violation(S6, 7, 2)
    with pytest.raises(ParameterError):
        spanned_edge_violation(S6, 2, 2)


def test_threshold_violation_is_lex_first():
    violation = spanned_edge_violation(K(6, 3), 4, 3)
    assert violation == ((0, 1, 2, 3), 4)


def _random_graph(rng, n, k):
    cand = list(combinations(range(n), k))
    picked = [e for e in cand if rng.random() < 0.4]
    return from_edges(k, n, picked)


def test_agreement_with_threshold_scan():
    # is_free and the subset scan must agree for complete(-minus) targets
    rng = random.Random(2024)
    families = [K(4, 3), Km(4, 3), K(5, 3), Km(5, 3)]
    checked = 0
    for _ in range(200):
        n = rng.randint(5, 12)
        h = _random_graph(rng, n, 3)
        f = families[rng.randrange(len(families))]
        r = f.n
        max_edges = f.edge_count - 1
        assert is_free(h, f) == (spanned_edge_violation(h, r, max_edges) is None)
        checked += 1
    assert checked == 200
    # negative searches: hosts free of the target, where the embedding
    # search must exhaust every partial map
    blowup = iterated_blowup_s6(36)
    hosts = [(blowup, K(4, 3)), (blowup, Km(5, 3))]
    hosts += [(random_maximal_free(15, K(4, 3), s), K(4, 3)) for s in range(4)]
    for h, f in hosts:
        assert spanned_edge_violation(h, f.n, f.edge_count - 1) is None
        assert contains(h, f) is None


def _contains_oracle(h, f):
    # reference search in the same vertex order: every host vertex in turn,
    # a degree filter and a set lookup per F-edge
    if h.k != f.k:
        raise ParameterError(f"uniformity mismatch: H has k={h.k}, F has k={f.k}")
    if f.n > h.n or f.edge_count > h.edge_count:
        return None
    order = _vertex_order(f)
    pos = {v: i for i, v in enumerate(order)}
    edges_at = [[] for _ in range(f.n)]
    for e in f.edges:
        edges_at[max(pos[v] for v in e)].append(e)
    image = [-1] * f.n
    used = [False] * h.n

    def extend(depth):
        if depth == f.n:
            return True
        fv = order[depth]
        for hv in range(h.n):
            if used[hv] or h.degrees[hv] < f.degrees[fv]:
                continue
            image[fv] = hv
            if all(tuple(sorted(image[v] for v in e)) in h.edge_set
                   for e in edges_at[depth]):
                used[hv] = True
                if extend(depth + 1):
                    return True
                used[hv] = False
            image[fv] = -1
        return False

    return Embedding(tuple(image)) if extend(0) else None


@st.composite
def _graph(draw, k, n, levels):
    # each k-subset is kept when its draw falls below the level: level 0
    # gives the empty graph, level 10 the complete one
    cand = list(combinations(range(n), k))
    level = draw(st.sampled_from(levels))
    draws = draw(st.lists(st.integers(0, 9), min_size=len(cand), max_size=len(cand)))
    return from_edges(k, n, [e for e, d in zip(cand, draws) if d < level])


@st.composite
def _host_and_target(draw):
    k = draw(st.integers(2, 4))
    # orders of k vertices or more come first; smaller ones have no edges
    f_n = draw(st.sampled_from([*range(k, k + 4), *range(k)]))
    h_n = draw(st.sampled_from([*range(k, 11), *range(k)]))
    f = draw(_graph(k, f_n, (4, 7, 10, 2, 0)))
    h = draw(_graph(k, h_n, (6, 8, 3, 10, 0)))
    return h, f


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_host_and_target())
def test_contains_matches_search_oracle(pair):
    h, f = pair
    emb = contains(h, f)
    assert emb == _contains_oracle(h, f)
    assert is_free(h, f) == (emb is None)
    if emb is not None:
        assert validate_embedding(h, f, emb)


def test_searches_leave_no_reference_cycles():
    # a call that leaves a cycle keeps its graphs, copy index or memo alive
    # until the next full collection
    hosts = [random_maximal_free(15, Km(5, 3), s) for s in range(10)]
    gc.collect()
    gc.disable()
    try:
        for s, h in enumerate(hosts):
            contains(h, Km(5, 3))
            random_maximal_free(15, Km(5, 3), s)
        turan_number(6, K(4, 3))
        turan_number(10, S6, budget=10)
        assert spanned_edge_violation(iterated_blowup_s6(36), 4, 3) is None
        assert spanned_edge_violation(K(6, 3), 4, 3) is not None
        six_part_h(SixPartParams((7, 7, 9, 7, 7, 9)))
        check_condition2(Km(9, 6), K(8, 6))
        check_condition2(Km(9, 5), K(8, 5))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_freeness_monotone_under_edge_removal():
    rng = random.Random(7)
    f = Km(4, 3)
    for _ in range(50):
        h = _random_graph(rng, 8, 3)
        sub_edges = [e for e in h.edges if rng.random() < 0.6]
        sub = from_edges(3, 8, sub_edges)
        if is_free(h, f):
            assert is_free(sub, f)


def _oracle_violation(h, r, max_edges):
    # brute force over r-subsets in lex order, counting spanned edges directly
    for subset in combinations(range(h.n), r):
        spanned = sum(1 for e in combinations(subset, h.k) if e in h.edge_set)
        if spanned > max_edges:
            return subset, spanned
    return None


@st.composite
def _hosts(draw):
    k = draw(st.integers(2, 5))
    n = draw(st.integers(k, 10))
    cand = list(combinations(range(n), k))
    keep = draw(st.lists(st.booleans(), min_size=len(cand), max_size=len(cand)))
    return from_edges(k, n, [e for e, kept in zip(cand, keep) if kept])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_hosts(), st.integers(0, 10))
def test_scan_matches_lex_first_oracle(h, extra):
    links = {}
    for t in combinations(range(h.n), h.k - 1):
        mask = sum(1 << v for v in range(h.n)
                   if tuple(sorted(t + (v,))) in h.edge_set)
        if mask:
            links[sum(1 << u for u in t)] = mask
    assert h.links == links
    for r in range(h.k, h.n + 1):
        most = max(sum(1 for e in combinations(s, h.k) if e in h.edge_set)
                   for s in combinations(range(h.n), r))
        # thresholds just below and at the maximum give both verdicts
        for max_edges in (most - 1, most, most - 1 - extra):
            assert (spanned_edge_violation(h, r, max_edges)
                    == _oracle_violation(h, r, max_edges))


@st.composite
def _near_extremal_hosts(draw):
    # a maximal F-free graph sits at the threshold almost everywhere, and
    # one or two added non-edges push some subsets just past it
    f = draw(st.sampled_from([K(4, 3), Km(5, 3), build_named(FamilySpec.daisy(2, 3)),
                              build_named(FamilySpec.daisy(3, 3))]))
    h = random_maximal_free(draw(st.integers(6, 9)), f, draw(st.integers(0, 10**6)))
    non_edges = [e for e in combinations(range(h.n), h.k) if e not in h.edge_set]
    added = draw(st.lists(st.sampled_from(non_edges), max_size=2, unique=True))
    return from_edges(h.k, h.n, [*h.edges, *added]), f


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_near_extremal_hosts())
def test_scan_matches_oracle_on_near_extremal_hosts(pair):
    h, f = pair
    params = threshold_free_params(f)
    assert spanned_edge_violation(h, *params) == _oracle_violation(h, *params)


def test_scan_violations_pinned_at_benchmark_size():
    h = six_part_h(SixPartParams((7, 7, 9, 7, 7, 9)))
    assert spanned_edge_violation(h, 4, 3) == ((0, 2, 3, 7), 4)
    assert spanned_edge_violation(h, 5, 7) == ((0, 1, 2, 3, 7), 8)
    assert spanned_edge_violation(iterated_blowup_s6(36), 5, 8) is None


def test_generic_scan_path_k4():
    # the first 5-set of K6(4)- avoids the missing edge (2,3,4,5) and so
    # is complete
    h = Km(6, 4)
    assert spanned_edge_violation(h, 5, 4) == ((0, 1, 2, 3, 4), 5)
    assert spanned_edge_violation(h, 6, 13) is not None
    assert spanned_edge_violation(h, 6, 14) is None


def test_threshold_free_params():
    # the named families keep the parameters their definitions give
    for k in range(2, 7):
        for ell in range(k + 1, k + 6):
            edges = comb(ell, k)
            assert threshold_free_params(K(ell, k)) == (ell, edges - 1)
            assert threshold_free_params(Km(ell, k)) == (ell, edges - 2)
        for t in range(1, k + 2):
            daisy = build_named(FamilySpec.daisy(t, k))
            assert threshold_free_params(daisy) == (k + 1, t - 1)
    assert threshold_free_params(S6) is None
    assert threshold_free_params(Hypergraph(3, 4, ())) is None
    # a single edge with room for loose vertices stays on the search
    assert threshold_free_params(from_edges(3, 5, [(0, 1, 2)])) is None


def test_threshold_free_params_match_labelings():
    # parameters are given where every e-edge k-graph on v vertices is a
    # copy of F, that is where F has C(C(v, k), e) labelings, and for two
    # edges or more nowhere else; the first e k-subsets in lex order stand
    # for every F of that size
    checked = 0
    for k in (2, 3, 4):
        for v in range(k, 10):
            subsets = list(combinations(range(v), k))
            if len(subsets) > 40:
                break
            for e in range(1, len(subsets) + 1):
                f = from_edges(k, v, subsets[:e])
                params = threshold_free_params(f)
                if params is not None:
                    assert params == (v, e - 1)
                    assert len(_labelings(f)) == comb(len(subsets), e)
                    checked += 1
                elif e > 1:
                    assert len(_labelings(f)) < comb(len(subsets), e)
    assert checked == 37
