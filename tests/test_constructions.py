"""Blow-ups, the six-part construction, and the matching augmentation."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles import blown
from turansep import constructions
from turansep.constructions import (
    ALLOWED_PART_TRIPLES,
    BlowupSpec,
    SixPartParams,
    augment_matching,
    bipartite_g,
    bipartite_g_edge_count,
    blowup,
    iterated_blowup_s6,
    s6_star_edge_count,
    six_part_breakdown,
    six_part_h,
    six_part_with_breakdown,
)
from turansep.embed import is_free, spanned_edge_violation
from turansep.errors import ConsistencyError, ParameterError
from turansep.exact import random_maximal_free
from turansep.hypergraph import (
    FamilySpec,
    Hypergraph,
    build_named,
    density,
    from_edges,
    induced,
    serialize,
)


def K(ell, k):
    return build_named(FamilySpec.complete(ell, k))


S6 = build_named(FamilySpec.s6())


def test_allowed_part_triples():
    assert len(ALLOWED_PART_TRIPLES) == 16
    for banned in ((1, 2, 3), (4, 5, 6), (1, 2, 6), (3, 4, 5)):
        assert banned not in ALLOWED_PART_TRIPLES


def test_blowup_single_edge():
    base = from_edges(3, 3, [(0, 1, 2)])
    h = blowup(BlowupSpec(base, (2, 2, 2)))
    assert h.n == 6 and h.edge_count == 8


def test_blowup_identity():
    assert blowup(BlowupSpec(S6, (1,) * 6)) == S6


def test_blowup_s6_doubled():
    h = blowup(BlowupSpec(S6, (2,) * 6))
    assert h.edge_count == 80


def test_blowup_errors():
    with pytest.raises(ParameterError):
        BlowupSpec(S6, (1, 1, 1))
    with pytest.raises(ParameterError):
        BlowupSpec(S6, (1, 1, 1, 1, 1, 0))


def test_iterated_blowup_base_cases():
    for n in range(6):
        assert iterated_blowup_s6(n).edge_count == 0
    assert iterated_blowup_s6(6) == S6
    with pytest.raises(ParameterError):
        iterated_blowup_s6(-1)


def test_iterated_blowup_structure_at_36():
    h = iterated_blowup_s6(36)
    # each top-level part of size 6 carries an internal copy of the pattern
    assert induced(h, range(6)) == S6
    assert induced(h, range(6, 12)) == S6
    assert spanned_edge_violation(h, 4, 2) is None


def test_iterated_blowup_counts():
    for n in (7, 9, 13, 36, 100, 216):
        assert iterated_blowup_s6(n).edge_count == s6_star_edge_count(n)
    assert s6_star_edge_count(7) == 15
    assert s6_star_edge_count(36) == 2220


def test_iterated_blowup_density_monotone_below_two_sevenths():
    # normalized density 6e/n^3 climbs toward the 2/7 limit
    scaled = [Fraction(6 * s6_star_edge_count(n), n**3) for n in (6, 36, 216)]
    assert scaled == sorted(scaled)
    assert all(d <= Fraction(2, 7) for d in scaled)
    # the per-C(n,3) density stays within the 2/7 + 3/n envelope
    for n in (6, 36, 216):
        h_density = Fraction(s6_star_edge_count(n)) / Fraction(
            n * (n - 1) * (n - 2), 6)
        assert h_density <= Fraction(2, 7) + Fraction(3, n)


def test_bipartite_g_small():
    g = bipartite_g(2)
    assert g.edges == ((0, 1, 2), (0, 2, 3))
    assert bipartite_g(1).edge_count == 0


def test_bipartite_g_count_formula():
    for n in range(1, 31):
        assert bipartite_g(n).edge_count == bipartite_g_edge_count(n)
    assert bipartite_g_edge_count(10) == 570


def test_bipartite_g_k4_free():
    assert spanned_edge_violation(bipartite_g(10), 4, 3) is None
    with pytest.raises(ParameterError):
        bipartite_g(0)


def test_six_part_params_validation():
    with pytest.raises(ParameterError):
        SixPartParams((1, 2, 3, 4, 4, 5))
    with pytest.raises(ParameterError):
        SixPartParams((2, 2, 3, 2, 2, 0))
    assert SixPartParams((2, 2, 3, 2, 2, 3)).n == 14


def test_six_part_minimal_sizes():
    bd = six_part_breakdown(SixPartParams((1, 1, 1, 1, 1, 1)))
    assert bd["transversal"] == 16
    assert sum(bd.values()) == 16


def test_six_part_layer_formulas():
    s, u = 3, 4
    p = SixPartParams((s, s, u, s, s, u))
    bd = six_part_breakdown(p)
    assert bd["transversal"] == 4 * s**3 + 8 * s**2 * u + 4 * s * u**2
    assert bd["pair_in_y"] == 4 * s * comb(u, 2)
    assert bd["pair_in_x"] == 4 * u * comb(s, 2)
    assert bd["bipartite_g"] == 2 * bipartite_g_edge_count(s)
    assert sum(bd.values()) == six_part_h(p).edge_count


@pytest.mark.parametrize("sizes", [(2, 2, 5, 3, 3, 4), (4, 4, 1, 2, 2, 6)])
def test_six_part_layer_formulas_uneven(sizes):
    # s1 != s4 and s3 != s6, so a layer that swapped part 3 with part 6, or
    # parts 1, 2 with parts 4, 5, would change its count
    s1, s2, s3, s4, s5, s6 = sizes
    bd = six_part_breakdown(SixPartParams(sizes))
    assert bd == {
        "transversal": sum(sizes[a - 1] * sizes[b - 1] * sizes[c - 1]
                           for a, b, c in combinations(range(1, 7), 3)
                           if (a, b, c) not in {(1, 2, 3), (4, 5, 6),
                                                (1, 2, 6), (3, 4, 5)}),
        "pair_in_y": comb(s3, 2) * (s1 + s2) + comb(s6, 2) * (s4 + s5),
        "pair_in_x": (comb(s1, 2) + comb(s2, 2)) * s6
                     + (comb(s4, 2) + comb(s5, 2)) * s3,
        "inner_blowup": sum(s6_star_edge_count(s) for s in sizes),
        "bipartite_g": bipartite_g_edge_count(s1) + bipartite_g_edge_count(s4),
    }


# (edge count, SHA-256 of serialize) of each builder's output, frozen so
# that a change to a builder keeps every edge where it was
_BUILT = [
    (lambda: six_part_h(SixPartParams((7, 7, 9, 7, 7, 9))), 9420,
     "44ff30bfcb93d99df79bdb2e07a78ebad64692aebef5694924078c4993ba96d5"),
    (lambda: iterated_blowup_s6(36), 2220,
     "429f83ffc7ee50ea623c98510208cb450855f80a6f3a9cb08cceb1bf5bb9d6ff"),
    (lambda: bipartite_g(10), 570,
     "84933a7a62238ce4e38b887507b75648942718aaa2371d72a4d2ccbbefa05241"),
    (lambda: blowup(BlowupSpec(S6, (2,) * 6)), 80,
     "f2c9c1d56a2309b7b2b7666798664e9e206239f872a81171af65556b737f9ee0"),
]


@pytest.mark.parametrize("build, edges, digest", _BUILT,
                         ids=["six_part", "s6star", "bipartite_g", "blowup"])
def test_builder_output_pinned(build, edges, digest):
    h = build()
    assert h.edge_count == edges
    assert hashlib.sha256(serialize(h).encode()).hexdigest() == digest


def test_six_part_breakdown_pinned():
    assert six_part_breakdown(SixPartParams((7, 7, 9, 7, 7, 9))) == {
        "transversal": 7168, "pair_in_y": 1008, "pair_in_x": 756,
        "inner_blowup": 124, "bipartite_g": 364,
    }


def test_six_part_layers_disjoint_random_sizes():
    rng = random.Random(17)
    for _ in range(10):
        s1 = rng.randint(1, 4)
        s4 = rng.randint(1, 4)
        sizes = (s1, s1, rng.randint(1, 5), s4, s4, rng.randint(1, 5))
        p = SixPartParams(sizes)
        # six_part_h asserts layer disjointness internally
        h = six_part_h(p)
        assert h.edge_count == sum(six_part_breakdown(p).values())
        assert six_part_with_breakdown(p) == (h, six_part_breakdown(p))


def test_six_part_overlapping_layers_raise():
    # a pair-in-y edge copied into the last layer: the one sort of all the
    # layers meets it twice, and the message names the later layer
    layers = constructions._six_part_layers
    p = SixPartParams((2, 2, 3, 2, 2, 3))

    def overlapping(params):
        out = layers(params)
        out["bipartite_g"] = out["bipartite_g"] + out["pair_in_y"][:1]
        return out

    with mock.patch.object(constructions, "_six_part_layers", overlapping):
        with pytest.raises(ConsistencyError,
                           match="^layer bipartite_g overlaps an earlier layer$"):
            six_part_with_breakdown(p)


@st.composite
def _patterns_over_ranges(draw):
    # consecutive, ascending part ranges from any start, and a pattern that
    # may name a part more than once, in any order
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    start = draw(st.integers(0, 3))
    parts = constructions._consecutive(start, sizes)
    pattern = draw(st.lists(st.integers(0, len(parts) - 1), min_size=1, max_size=5))
    return tuple(pattern), parts


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_patterns_over_ranges())
def test_blown_matches_per_edge_sorting_oracle(case):
    pattern, parts = case
    edges = constructions._blown(pattern, parts)
    assert sorted(edges) == sorted(blown(pattern, parts))
    assert all(all(a < b for a, b in zip(e, e[1:])) for e in edges)
    # one sorted run, as the builders' single sort expects
    assert edges == sorted(edges)


def test_six_part_five_set_case_analysis():
    # at sizes (3,3,4,3,3,4): any 5-set meeting five distinct parts, and any
    # 5-set with >= 4 vertices in one part, misses at least two edges
    p = SixPartParams((3, 3, 4, 3, 3, 4))
    h = six_part_h(p)
    bounds = []
    start = 0
    for s in p.sizes:
        bounds.append(range(start, start + s))
        start += s

    def part_of(v):
        for i, r in enumerate(bounds):
            if v in r:
                return i
        raise AssertionError

    for five in combinations(range(h.n), 5):
        profile = [0] * 6
        for v in five:
            profile[part_of(v)] += 1
        touched = sum(1 for c in profile if c)
        if touched == 5 or max(profile) >= 4:
            spanned = sum(1 for e in h.edges if set(e) <= set(five))
            assert spanned <= 8


def test_augment_empty_graph():
    out = augment_matching(Hypergraph(3, 10, ()))
    assert out.edge_count == 2
    assert spanned_edge_violation(out, 5, 8) is None
    assert out.edges == ((0, 1, 2), (5, 6, 7))


def test_augment_adds_floor_n_over_5():
    k4 = K(4, 3)
    for n in (10, 12, 15):
        h = random_maximal_free(n, k4, seed=3)
        out = augment_matching(h)
        assert out.edge_count == h.edge_count + n // 5


def test_augment_added_edges_disjoint():
    k4 = K(4, 3)
    h = random_maximal_free(15, k4, seed=8)
    out = augment_matching(h)
    added = [e for e in out.edges if e not in h.edge_set]
    assert len(added) == 3
    seen = set()
    for e in added:
        assert not seen.intersection(e)
        seen.update(e)


def test_augment_rejects_non_k4_free():
    for host in (K(5, 3), K(4, 3)):
        with pytest.raises(ParameterError):
            augment_matching(host)
    with pytest.raises(ParameterError):
        augment_matching(build_named(FamilySpec.complete(5, 4)))
