"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every stated tolerance and time limit is asserted here.
"""

import time
from fractions import Fraction
from itertools import combinations, permutations

from turansep.cli import run
from turansep.constructions import (
    SixPartParams,
    augment_matching,
    bipartite_g,
    bipartite_g_edge_count,
    iterated_blowup_s6,
    s6_star_edge_count,
    six_part_h,
)
from turansep.criteria import check_condition1, check_condition2
from turansep.densopt import (
    Quad,
    exact_count,
    h_density_poly,
    maximize_constrained,
    reference_bounds,
)
from turansep.embed import spanned_edge_violation
from turansep.exact import random_maximal_free, turan_number
from turansep.hypergraph import FamilySpec, build_named, density, serialize
from turansep.partitions import crossing_probability, expectation_check

from oracles import enumerate_balanced_parts


def K(ell, k):
    return build_named(FamilySpec.complete(ell, k))


def Km(ell, k):
    return build_named(FamilySpec.complete_minus(ell, k))


def D(t, k):
    return build_named(FamilySpec.daisy(t, k))


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_condition2_truth_table():
    start = time.monotonic()
    true_pairs = [
        (K(5, 3), K(4, 3)),
        (K(6, 3), K(5, 3)),
        (K(7, 3), K(6, 3)),
        (Km(5, 3), Km(4, 3)),
        (Km(6, 3), Km(5, 3)),
        (Km(6, 4), K(5, 4)),
        (Km(7, 5), K(6, 5)),
        (Km(8, 5), K(7, 5)),
    ]
    for f, fs in true_pairs:
        assert check_condition2(f, fs).holds, (f.n, f.k)
    res = check_condition2(Km(5, 3), K(4, 3))
    assert not res.holds
    sizes = sorted(map(len, res.counterexample), reverse=True)
    assert sizes == [3, 1, 1]
    assert set(res.counterexample[0]) == {2, 3, 4}  # missing edge inside V1
    elapsed = time.monotonic() - start
    _report("criterion 1: condition-2 truth table",
            elapsed < 10.0, f"{elapsed:.2f}s < 10s")


def test_criterion_2_daisy_condition1_suite():
    for k in (3, 4, 5):
        for t in range(1, k + 2):
            t0 = time.monotonic()
            res = turan_number(k + 1, D(t, k))
            elapsed = time.monotonic() - t0
            assert res.exhausted and res.value == t - 1, (k, t, res.value)
            assert elapsed < 1.0, (k, t, elapsed)
        for t in range(1, k):
            r = check_condition1(D(t + 2, k), D(t, k))
            assert r.holds is True, (k, t)
    _report("criterion 2: daisy condition-1 suite", True,
            "ex(k+1, H_t) = t-1 and all pairs hold")


def _oracle_contains(edges, n, f):
    es = set(edges)
    for image in permutations(range(n), f.n):
        if all(tuple(sorted(image[v] for v in e)) in es for e in f.edges):
            return True
    return False


def _oracle_turan_n5(f):
    cand = list(combinations(range(5), 3))
    best = 0
    for mask in range(1 << 10):
        edges = [cand[i] for i in range(10) if mask >> i & 1]
        if len(edges) > best and not _oracle_contains(edges, 5, f):
            best = len(edges)
    return best


def test_criterion_3_exact_search_oracle_equivalence():
    targets = [K(4, 3), Km(4, 3)] + [D(t, 3) for t in range(1, 5)]
    for f in targets:
        assert turan_number(5, f).value == _oracle_turan_n5(f)
    start = time.monotonic()
    values = {n: turan_number(n, K(4, 3)) for n in (4, 5, 6, 7)}
    elapsed_n7 = time.monotonic() - start
    assert all(v.exhausted for v in values.values())
    # 750,253 nodes before the packing bound, 21,754 before the
    # vertex-deletion cut, 9,409 before the second-edge rule and 7,262
    # before the untouched-vertex rule, with the same lex-min witness
    assert (values[7].value, values[7].nodes_explored) == (23, 5_573)
    lex_min = ("012 013 014 015 023 024 025 034 035 046 056 126 136 145 146 "
               "156 236 245 246 256 345 346 356")
    assert values[7].witness.edges == tuple(
        tuple(int(c) for c in w) for w in lex_min.split())
    densities = [Fraction(values[n].value, len(list(combinations(range(n), 3))))
                 for n in (4, 5, 6, 7)]
    assert all(a >= b for a, b in zip(densities, densities[1:]))
    _report("criterion 3: oracle equivalence + density monotonicity",
            elapsed_n7 < 60.0,
            f"ex values {[values[n].value for n in (4, 5, 6, 7)]}, "
            f"{elapsed_n7:.1f}s < 60s")


def test_criterion_4_density_optimum():
    opt = maximize_constrained(h_density_poly())
    assert abs(opt.value - 0.602673) < 1e-6
    assert opt.exact_value == Quad(
        Fraction(31097, 59248), Fraction(277, 59248), 277)
    assert opt.exact_x == Quad(Fraction(45, 184), Fraction(-1, 184), 277)
    assert opt.exact_y == Quad(Fraction(1, 92), Fraction(1, 92), 277)
    chung_lu = reference_bounds()["chung_lu_k4_upper"].value
    assert opt.value > chung_lu + 0.009
    _report("criterion 4: density optimum", True,
            f"value {opt.value:.9f}, margin {opt.value - chung_lu:.6f}")


def test_criterion_5_six_part_freeness():
    p = SixPartParams((7, 7, 9, 7, 7, 9))
    h = six_part_h(p)
    assert h.n == 46
    start = time.monotonic()
    free = spanned_edge_violation(h, 5, 8) is None
    elapsed = time.monotonic() - start
    assert free
    inner = tuple(s6_star_edge_count(s) for s in p.sizes)
    between = (bipartite_g_edge_count(7), bipartite_g_edge_count(7))
    assert exact_count(p, inner, between) == h.edge_count
    _report("criterion 5: six-part construction freeness",
            elapsed < 60.0,
            f"{h.edge_count} edges, five-subset scan in {elapsed:.1f}s < 60s")


def test_criterion_6_component_constructions():
    g = bipartite_g(10)
    assert g.edge_count == 570
    assert spanned_edge_violation(g, 4, 3) is None
    s36 = iterated_blowup_s6(36)
    assert spanned_edge_violation(s36, 4, 2) is None
    scaled = [Fraction(6 * s6_star_edge_count(n), n**3) for n in (6, 36, 216)]
    assert scaled == sorted(scaled)
    assert all(d <= Fraction(2, 7) for d in scaled)
    _report("criterion 6: component constructions", True,
            f"scaled densities {[float(d) for d in scaled]}")


def test_criterion_7_matching_augmentation():
    k4 = K(4, 3)
    start = time.monotonic()
    for seed in range(100):
        h = random_maximal_free(15, k4, seed)
        out = augment_matching(h)
        assert out.edge_count == h.edge_count + 3, seed
        assert spanned_edge_violation(out, 5, 8) is None, seed
    elapsed = time.monotonic() - start
    _report("criterion 7: matching augmentation",
            elapsed < 30.0, f"100 seeds in {elapsed:.1f}s < 30s")


def test_criterion_8_crossing_expectation():
    p = crossing_probability(12, 3, 4)
    assert p == Fraction(27, 220)
    edge = (0, 1, 2)
    hits = total = 0
    for parts in enumerate_balanced_parts(12, 3, 4):
        total += 1
        if all(len(set(part) & set(edge)) == 1 for part in parts):
            hits += 1
    assert Fraction(hits, total) == p
    rep = expectation_check(K(12, 3), 4, trials=100_000, seed=505)
    assert rep.exact_expectation == 27
    # within 3 standard errors of 27; the complete graph has zero variance,
    # so the mean must land exactly on the expectation
    assert abs(rep.z_score) <= 3
    assert rep.empirical_mean == 27.0
    _report("criterion 8: crossing expectation", True,
            f"probability {p}, mean {rep.empirical_mean}")


def test_criterion_9_thread_determinism(tmp_path, capsys):
    files = {}
    k4 = K(4, 3)
    g = random_maximal_free(12, k4, 0)
    files["g"] = tmp_path / "g.hg"
    files["g"].write_text(serialize(g))
    files["k12"] = tmp_path / "k12.hg"
    files["k12"].write_text(serialize(K(12, 3)))
    commands = [
        ["turan", "5", "K:4,3"],
        ["separate", "K:5,3", "K:4,3"],
        ["condition2", "K-:5,3", "K:4,3"],
        ["free-check", str(files["g"]), "K-:5,3"],
        ["crossing", str(files["k12"]), "--t0", "4", "--trials", "200",
         "--seed", "7"],
        ["construct", "six-part", "3", "3", "4", "3", "3", "4"],
        ["densopt"],
    ]
    for argv in commands:
        outputs = []
        for threads in ("1", "8"):
            code = run(argv + ["--threads", threads])
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0] == outputs[1], argv
    _report("criterion 9: thread determinism", True,
            f"{len(commands)} commands byte-identical at --threads 1 and 8")
