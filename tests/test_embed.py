"""Containment search, freeness, and the r-subset threshold scan."""

import gc
import random
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from turansep import embed
from turansep.constructions import SixPartParams, iterated_blowup_s6, six_part_h
from turansep.criteria import check_condition2
from turansep.embed import (
    Embedding,
    _PairMatrices,
    _pair_found,
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
    k = draw(st.integers(2, 7))
    n = draw(st.integers(k, 10))
    cand = list(combinations(range(n), k))
    keep = draw(st.lists(st.booleans(), min_size=len(cand), max_size=len(cand)))
    return from_edges(k, n, [e for e, kept in zip(cand, keep) if kept])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_hosts(), st.integers(0, 10))
# k = r - 1 at r = n: each prefix hands its children (k-3)-subsets of
# nearly all of its vertices
@example(K(8, 7), 0)
@example(Km(8, 7), 1)
@example(Km(7, 6), 0)
@example(build_named(FamilySpec.daisy(3, 6)), 2)
@example(from_edges(6, 10, [e for e in combinations(range(10), 6) if sum(e) % 3]), 1)
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


def _miss_levels(h, prefix, slack):
    # level j: the vertices w outside the prefix for which at most j of the
    # k-subsets of prefix + w through w are non-edges
    miss = [0] * (slack + 1)
    for w in set(range(h.n)) - set(prefix):
        missed = sum(1 for t in combinations(prefix, h.k - 1)
                      if tuple(sorted(t + (w,))) not in h.edge_set)
        for j in range(missed, slack + 1):
            miss[j] |= 1 << w
    return miss


def _pair_oracle(h, prefix, slack, xs):
    # brute force over the pairs: some x in xs and y > x for which at most
    # slack of the k-subsets of prefix + {x, y} through x or y are non-edges
    for x in xs:
        for y in range(x + 1, h.n):
            grown = sorted((*prefix, x, y))
            missed = sum(1 for t in combinations(grown, h.k)
                          if (x in t or y in t) and t not in h.edge_set)
            if missed <= slack:
                return True
    return False


def test_pair_test_matches_pair_oracle():
    # slack 0 is a complete target, 1 complete-minus or D:3,3, 2 and 3 the
    # daisies D:2,3 and D:1,3; prefixes and candidates are random, as the
    # test reads nothing but the levels, the (k-2)-subsets and c
    rng = random.Random(24)
    outcomes = set()
    for _ in range(2000):
        k = rng.randint(2, 4)
        n = rng.randint(k + 1, 11)
        density = rng.choice([0.5, 0.8, 0.95])
        h = from_edges(k, n, [e for e in combinations(range(n), k)
                              if rng.random() < density])
        prefix = tuple(sorted(rng.sample(range(n - 1), rng.randint(0, n - 2))))
        slack = rng.randint(0, 3)
        miss = _miss_levels(h, prefix, slack)
        above = prefix[-1] + 1 if prefix else 0
        xs = [v for v in range(above, n) if miss[-1] >> v & 1 and rng.random() < 0.7]
        subs = [sum(1 << u for u in t) for t in combinations(prefix, k - 2)]
        pairs = _PairMatrices(h.links, n, len(subs), slack)
        found = _pair_found(pairs, subs, miss, sum(1 << x for x in xs))
        assert found == _pair_oracle(h, prefix, slack, xs), (h, prefix, slack, xs)
        outcomes.add(found)
    assert outcomes == {True, False}


@st.composite
def _dense_hosts(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(12, 24))
    density = draw(st.sampled_from([0.9, 0.7, 0.5, 0.35, 0.2]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    h = from_edges(k, n, [e for e in combinations(range(n), k)
                          if rng.random() < density])
    targets = [K(k + 1, k), K(k + 2, k), Km(k + 1, k), Km(k + 2, k)]
    targets += [build_named(FamilySpec.daisy(t, k)) for t in range(1, k + 1)]
    return h, draw(st.sampled_from(targets))


def test_scan_matches_oracle_on_dense_hosts():
    # hosts of 12 to 24 vertices, where prefixes of r - 2 vertices have
    # enough candidates for the pair test to run and cut
    cuts = []

    def counted(*args):
        found = _pair_found(*args)
        cuts.append(not found)
        return found

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(_dense_hosts())
    def check(pair):
        h, f = pair
        params = threshold_free_params(f)
        assert spanned_edge_violation(h, *params) == _oracle_violation(h, *params)

    with mock.patch.object(embed, "_pair_found", counted):
        check()
    assert any(cuts)


def test_scan_builds_no_pair_matrices_on_sparse_hosts():
    # 600 vertices and 3,000 random triples: no prefix has the candidates
    # for which the pair test pays, so no pair matrix of n rows is built;
    # one per vertex would take about 26 MB
    rng = random.Random(600)
    triples = set()
    while len(triples) < 3000:
        triples.add(tuple(sorted(rng.sample(range(600), 3))))
    h = from_edges(3, 600, triples)
    with mock.patch.object(embed, "_pair_found") as test:
        found = spanned_edge_violation(h, 4, 3)
    assert not test.called
    assert (found is None) == (contains(h, K(4, 3)) is None)


def test_pair_test_skips_wide_hosts():
    # K_{2,1998}: each hub's prefix has 1,998 candidates, but each step
    # reads a two-bit link while a test would multiply 4-million-bit
    # matrices; past 691 vertices no prefix has candidates enough to pay
    n = 2000
    h = from_edges(2, n, [(a, x) for a in (0, 1) for x in range(2, n)])
    with mock.patch.object(embed, "_pair_found") as test:
        assert spanned_edge_violation(h, 3, 2) is None
    assert not test.called
    assert _PairMatrices({}, 691, 1, 0).least[0] <= 691
    assert _PairMatrices({}, 692, 1, 0).least[0] > 692


def test_scan_violations_pinned_at_benchmark_size():
    h = six_part_h(SixPartParams((7, 7, 9, 7, 7, 9)))
    assert spanned_edge_violation(h, 4, 3) == ((0, 2, 3, 7), 4)
    assert spanned_edge_violation(h, 5, 7) == ((0, 1, 2, 3, 7), 8)
    assert spanned_edge_violation(iterated_blowup_s6(36), 5, 8) is None


def test_count_cut_skips_short_prefixes():
    # the six-part host relabelled by the benchmark's seed-1 shuffle:
    # every call's top level holds the r - d vertices its prefix of d still
    # needs above its last vertex (without the cut 1,690 calls did not)
    h = six_part_h(SixPartParams((7, 7, 9, 7, 7, 9)))
    perm = list(range(h.n))
    random.Random("construction-verify:1:six-part").shuffle(perm)
    host = from_edges(3, h.n, [[perm[v] for v in e] for e in h.edges])
    complete, calls, short = embed._complete, [], []

    def counted(pairs, k, r, prefix, subs, miss, c):
        calls.append(prefix)
        if prefix and (miss[-1] & -(prefix[-1] << 1)).bit_count() < r - len(prefix):
            short.append(prefix)
        return complete(pairs, k, r, prefix, subs, miss, c)

    with mock.patch.object(embed, "_complete", counted):
        assert spanned_edge_violation(host, 5, 8) is None
    assert calls and not short


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
