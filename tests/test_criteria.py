"""Decision procedures for the two separation criteria."""

import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from turansep import embed
from turansep.criteria import (
    check_condition1,
    check_condition2,
    de_caen_bound,
    floor_product,
    separate,
    verify_counterexample,
)
from turansep.errors import ParameterError
from turansep.hypergraph import FamilySpec, build_named, delete, from_edges


def K(ell, k):
    return build_named(FamilySpec.complete(ell, k))


def Km(ell, k):
    return build_named(FamilySpec.complete_minus(ell, k))


def D(t, k):
    return build_named(FamilySpec.daisy(t, k))


def naive_condition2(f, fs):
    """Unoptimized oracle: plain base-k counter over all assignments, on F'
    without its isolated vertices."""
    used = sorted({v for e in fs.edges for v in e})
    fs = from_edges(fs.k, len(used), [[used.index(v) for v in e] for e in fs.edges])
    m, k = f.n, f.k
    for assign in product(range(k), repeat=m):
        parts = [[v for v in range(m) if assign[v] == j] for j in range(k)]
        if any(not set(parts[0]) & set(e) for e in f.edges):
            continue
        if not any(
            not parts[j] or embed.contains(delete(f, parts[j]), fs) is not None
            for j in range(1, k)
        ):
            return False, tuple(tuple(p) for p in parts)
    return True, None


def test_floor_product():
    for k in range(2, 7):
        assert floor_product(k + 1, k) == 2
        assert floor_product(k, k) == 1
    assert floor_product(7, 3) == 12
    with pytest.raises(ParameterError):
        floor_product(2, 3)


def test_de_caen_bound():
    assert de_caen_bound(4, 3) == Fraction(2, 3)
    assert de_caen_bound(5, 3) == Fraction(5, 6)
    assert de_caen_bound(6, 4) == Fraction(9, 10)
    with pytest.raises(ParameterError):
        de_caen_bound(3, 3)


def test_condition1_daisy_pairs():
    r = check_condition1(D(4, 4), D(2, 4))
    assert r.holds is True
    assert (r.ex_value, r.floor_product, r.e_f) == (1, 2, 4)


def test_condition1_self_pair_fails():
    r = check_condition1(K(4, 3), K(4, 3))
    assert r.holds is False
    assert r.ex_value + r.floor_product == 5


def test_condition1_k5_minus_vs_k4():
    # ex(5, K4) = 7 and the floor product is 4, so 11 >= 9 and it fails
    r = check_condition1(Km(5, 3), K(4, 3))
    assert (r.ex_value, r.floor_product, r.e_f, r.holds) == (7, 4, 9, False)


def _corollary_ex(k):
    """ex(k+2, K_{k+1}^k) by the edge-cover argument.

    A k-set of [k+2] is the complement of a pair, and the k-sets inside
    [k+2] - v are the complements of the pairs through v.  So a k-graph on
    [k+2] is K_{k+1}^k-free exactly when its missing pairs cover every
    vertex, and it misses at least a minimum edge cover of K_{k+2}.  By
    Gallai's identity that cover has k+2 - nu pairs, nu = floor((k+2)/2)
    being the largest matching.
    """
    v = k + 2
    return comb(v, 2) - (v - v // 2)


def test_condition1_corollary_pairs_close():
    # the KNS cap floor((k+2) * k / 2) from ex(k+1, K_{k+1}^k) = k is the
    # optimum, so every search closes at its first optimal incumbent
    start = time.monotonic()
    for k in range(4, 31):
        r = check_condition1(Km(k + 2, k), K(k + 1, k))
        assert r.ex_exhausted and r.ex_value == _corollary_ex(k), k
        assert (r.floor_product, r.e_f) == (4, comb(k + 2, 2) - 1), k
        assert r.holds is (k >= 9), k
    assert time.monotonic() - start < 10


def test_condition1_unknown_under_budget():
    r = check_condition1(Km(5, 3), K(4, 3), budget=3)
    assert r.holds is None and not r.ex_exhausted


def test_condition1_bounds_of_a_cut_search_agree_with_the_full_search():
    # a cut search decides condition 1 only by its cap (holds) or its
    # witness (fails), so its verdict is the full search's or unknown;
    # ex_value and ex_upper bracket the exact ex(m, F')
    pairs = [(K(5, 3), K(4, 3)), (Km(5, 3), K(4, 3)), (K(5, 3), Km(4, 3)),
             (Km(5, 3), Km(4, 3)), (K(6, 3), K(4, 3)), (K(6, 3), Km(5, 3)),
             (Km(6, 3), K(5, 3)), (D(3, 3), D(2, 3)), (K(5, 4), K(5, 4)),
             (Km(6, 4), K(5, 4)), (K(6, 4), Km(5, 4))]
    decided = set()
    for f, fs in pairs:
        full = check_condition1(f, fs)
        assert full.ex_exhausted and full.holds is not None
        assert full.ex_upper == full.ex_value
        for budget in range(1, 41):
            r = check_condition1(f, fs, budget=budget)
            assert r.holds in (None, full.holds), (f, fs, budget)
            assert r.ex_value <= full.ex_value <= r.ex_upper, (f, fs, budget)
            if not r.ex_exhausted:
                decided.add(r.holds)
    # the cap and the witness each decide some cut search
    assert decided == {None, True, False}


def test_condition1_requires_subgraph():
    with pytest.raises(ParameterError):
        check_condition1(D(2, 3), K(4, 3))


def test_condition2_cliques():
    assert check_condition2(K(5, 3), K(4, 3)).holds
    assert check_condition2(Km(6, 4), K(5, 4)).holds


def test_condition2_failure_witness():
    r = check_condition2(Km(5, 3), K(4, 3))
    assert not r.holds
    v1, v2, v3 = r.counterexample
    assert sorted(map(len, (v1, v2, v3)), reverse=True) == [3, 1, 1]
    # the missing edge (2,3,4) lies inside the first part
    assert set(v1) == {2, 3, 4}
    assert verify_counterexample(Km(5, 3), K(4, 3), r.counterexample)


def test_verify_counterexample_rejects_bad_partitions():
    f, fs = Km(5, 3), K(4, 3)
    assert not verify_counterexample(f, fs, ((0, 1, 2), (3,), (4,)))
    assert not verify_counterexample(f, fs, ((2, 3, 4), (0, 1), ()))
    assert not verify_counterexample(f, fs, ((2, 3, 4), (0,), (0,)))
    assert not verify_counterexample(f, fs, ((2, 3, 4), (0,)))


def test_condition2_named_pairs_match_oracle():
    pairs = [
        (K(5, 3), K(4, 3)),
        (K(6, 3), K(5, 3)),
        (Km(5, 3), Km(4, 3)),
        (Km(6, 3), Km(5, 3)),
        (Km(6, 4), K(5, 4)),
        (Km(5, 3), K(4, 3)),
        (D(4, 3), D(2, 3)),
    ]
    for f, fs in pairs:
        got = check_condition2(f, fs)
        # the first violation of the relabel-pruned enumeration is the
        # first one of the full base-k order, exactly
        assert (got.holds, got.counterexample) == naive_condition2(f, fs)


def test_condition2_time_guard_at_benchmark_size():
    start = time.perf_counter()
    r6 = check_condition2(Km(9, 6), K(8, 6))
    r5 = check_condition2(Km(9, 5), K(8, 5))
    r10 = check_condition2(Km(12, 10), K(11, 10))
    elapsed = time.perf_counter() - start
    assert (r6.holds, r6.partitions_checked, r6.counterexample) == (True, 180, None)
    assert (r5.holds, r5.partitions_checked) == (False, 88)
    assert r5.counterexample == ((4, 5, 6, 7, 8), (0,), (1,), (2,), (3,))
    assert (r10.holds, r10.partitions_checked, r10.counterexample) == (True, 2291, None)
    assert elapsed < 2.0


def test_condition2_random_targets_against_oracle():
    rng = random.Random(5)
    k4 = K(4, 3)
    for _ in range(10):
        n = rng.randint(4, 6)
        cand = list(combinations(range(n), 3))
        edges = set(rng.sample(cand, rng.randint(2, len(cand))))
        edges.add((0, 1, 2))
        f = from_edges(3, n, edges)
        fs_pool = [fs for fs in (k4, D(2, 3), D(1, 3)) if embed.contains(f, fs)]
        if not fs_pool:
            continue
        fs = fs_pool[0]
        got = check_condition2(f, fs)
        expect_holds, _ = naive_condition2(f, fs)
        assert got.holds == expect_holds
        if got.counterexample is not None:
            assert verify_counterexample(f, fs, got.counterexample)


@st.composite
def _pairs(draw):
    """F on at most six vertices with k in 2..4, and F' made of some of
    F's edges on a prefix of its vertices, so that F' ⊆ F."""
    k = draw(st.integers(2, 4))
    m = draw(st.integers(k, 6))
    cand = list(combinations(range(m), k))
    keep = draw(st.lists(st.booleans(), min_size=len(cand), max_size=len(cand)))
    edges = [e for e, kept in zip(cand, keep) if kept] or [cand[0]]
    sub = [e for e in edges if draw(st.booleans())]
    m_sub = draw(st.integers(max((e[-1] + 1 for e in sub), default=0), m))
    return from_edges(k, m, edges), from_edges(k, m_sub, sub)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_pairs())
def test_condition2_matches_naive_oracle(pair):
    f, fs = pair
    naive_holds, naive_witness = naive_condition2(f, fs)
    fast = check_condition2(f, fs)
    assert fast.holds == naive_holds
    assert fast.counterexample == naive_witness
    if not fast.holds:
        assert verify_counterexample(f, fs, fast.counterexample)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_pairs(), st.data())
def test_padding_f_sub_with_isolated_vertices_keeps_the_verdict(pair, data):
    # π(F') does not see isolated vertices: F' padded with up to three more,
    # its vertices shuffled, gets the oracle's condition-2 answer and the
    # verdict of F' itself, also when it outgrows v(F)
    f, fs = pair
    n = fs.n + data.draw(st.integers(0, 3))
    image = data.draw(st.permutations(range(n)))
    padded = from_edges(fs.k, n, [[image[v] for v in e] for e in fs.edges])
    got = check_condition2(f, padded)
    assert (got.holds, got.counterexample) == naive_condition2(f, fs)
    # condition 1 needs v(F) > k, and an F' with an edge: one without
    # fits in every graph, so ex(m, F') is not defined
    if f.n > f.k and fs.edge_count:
        assert separate(f, padded).verdict == separate(f, fs).verdict


def _twins(f):
    """Pairs u < v whose transposition maps F's edge set onto itself."""
    edges = set(f.edges)
    return {(u, v) for u, v in combinations(range(f.n), 2)
            if {tuple(sorted({u: v, v: u}.get(w, w) for w in e))
                for e in edges} == edges}


def test_condition2_relabelled_twin_classes_match_oracle():
    # K-:6,4 has the twin classes {0, 1} and {2, 3, 4, 5}, D:2,3 has {0, 1}
    # and {2, 3}, S6 has none; a relabelling scatters them, and the first
    # violation must still be the oracle's, with F itself as one F'
    rng = random.Random(7)
    s6 = build_named(FamilySpec.s6())
    scattered = 0
    for f, subs in ((Km(6, 4), (K(5, 4), D(2, 4))), (D(2, 3), (D(1, 3),)),
                    (s6, (D(2, 3),))):
        for _ in range(3):
            perm = list(range(f.n))
            rng.shuffle(perm)
            g = from_edges(f.k, f.n, [tuple(perm[v] for v in e) for e in f.edges])
            twins = _twins(g)
            scattered += any((u, w) not in twins
                             for u, v in twins for w in range(u + 1, v))
            for fs in subs + (g,):
                got = check_condition2(g, fs)
                assert (got.holds, got.counterexample) == naive_condition2(g, fs)
    assert scattered


def test_condition2_relabeling_invariance():
    rng = random.Random(31)
    f, fs = Km(5, 3), K(4, 3)
    base = check_condition2(f, fs).holds
    for _ in range(5):
        perm = list(range(5))
        rng.shuffle(perm)
        relabeled = from_edges(
            3, 5, [tuple(perm[v] for v in e) for e in f.edges])
        assert check_condition2(relabeled, fs).holds == base
        assert check_condition1(relabeled, fs).holds == check_condition1(f, fs).holds


def test_condition2_trivial_empty_subgraph():
    # empty F' on k-1 vertices embeds into F - V_j for some j in every
    # partition that passes the edge filter
    rng = random.Random(13)
    for _ in range(8):
        n = rng.randint(4, 6)
        cand = list(combinations(range(n), 3))
        f = from_edges(3, n, rng.sample(cand, rng.randint(1, len(cand))))
        empty = from_edges(3, 2, [])
        assert check_condition2(f, empty).holds


def test_separate_verdicts():
    r = separate(K(5, 3), K(4, 3))
    assert r.verdict == "separated"
    assert r.condition1.holds is False and r.condition2.holds

    r = separate(Km(7, 5), K(6, 5))
    assert r.verdict == "separated" and r.condition2.holds

    r = separate(D(4, 4), D(2, 4))
    assert r.verdict == "separated" and r.condition1.holds is True

    # K4 written on five vertices, one of them isolated, is still K4
    r = separate(K(5, 3), from_edges(3, 5, K(4, 3).edges))
    assert r.verdict == "separated" and r.condition2.holds

    r = separate(Km(5, 3), K(4, 3))
    assert r.verdict == "not-established"
    assert r.condition1.holds is False and not r.condition2.holds
