"""Density polynomial derivation, exact optimization, reference bounds."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import quad_is_positive
from turansep.constructions import (
    SixPartParams,
    bipartite_g_edge_count,
    s6_star_edge_count,
    six_part_h,
)
from turansep.densopt import (
    DensityPolynomial,
    Quad,
    exact_count,
    h_density_poly,
    maximize_constrained,
    reference_bounds,
    s6_star_limit_density,
)
from turansep.errors import ConsistencyError, ParameterError
from turansep.hypergraph import density

SQRT277 = 277


def test_quad_arithmetic():
    a = Quad(Fraction(1, 2), Fraction(1, 3), 5)
    b = Quad(Fraction(1), Fraction(-1, 3), 5)
    assert (a + b).a == Fraction(3, 2) and (a + b).b == 0
    prod = a * b
    assert prod.a == Fraction(1, 2) - Fraction(5, 9)
    assert float(a) == pytest.approx(0.5 + 5**0.5 / 3)
    with pytest.raises(ParameterError):
        a + Quad(Fraction(0), Fraction(1), 7)


def test_quad_exact_sign():
    assert Quad(Fraction(-4), Fraction(1), 17).is_positive()  # sqrt17 > 4
    assert not Quad(Fraction(-5), Fraction(1), 17).is_positive()
    assert Quad(Fraction(5), Fraction(-1), 17).is_positive()
    assert not Quad(Fraction(4), Fraction(-1), 17).is_positive()
    assert Quad(Fraction(0), Fraction(0), 17) < Quad(Fraction(1), Fraction(0), 17)


@st.composite
def _quads(draw):
    # near-ties: a within two units of the drawn denominator of
    # -b*sqrt(d), and for d = 1 exact ties, where the value is zero
    d = draw(st.sampled_from([1, 2, 3, 5, 17, 277]))
    b = Fraction(draw(st.integers(-10**6, 10**6)), draw(st.integers(1, 10**3)))
    scale = draw(st.integers(1, 10**4))
    root = math.isqrt(d * (b.numerator * scale) ** 2)
    near = Fraction(-root + draw(st.integers(-2, 2)), b.denominator * scale)
    if b < 0:
        near = -near
    a = draw(st.one_of(st.just(near), st.just(Fraction(0)),
                       st.fractions(max_denominator=10**3)))
    return Quad(a, b if draw(st.booleans()) else Fraction(0), d)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_quads())
@example(Quad(Fraction(-3), Fraction(3), 1))
@example(Quad(Fraction(3, 2), Fraction(-3, 2), 1))
@example(Quad(Fraction(0), Fraction(0), 5))
# sqrt(2) = 1.41421356237...
@example(Quad(Fraction(-1414213562, 10**9), Fraction(1), 2))
@example(Quad(Fraction(-1414213563, 10**9), Fraction(1), 2))
def test_quad_sign_matches_case_oracle(q):
    assert q.is_positive() == quad_is_positive(q)
    # a value and its negation are never both positive
    neg = Quad(-q.a, -q.b, q.d)
    assert not (q.is_positive() and neg.is_positive())


def test_s6_star_limit_density():
    assert s6_star_limit_density() == Fraction(2, 7)


def test_h_density_poly_coefficients():
    poly = h_density_poly()
    assert poly.c_x3 == Fraction(232, 7)
    assert poly.c_y3 == Fraction(4, 7)
    assert poly.c_x2y == Fraction(60)
    assert poly.c_xy2 == Fraction(36)
    # the x^3 coefficient decomposes as transversal + inner + between-pair
    assert Fraction(24) + Fraction(8, 7) + Fraction(8) == poly.c_x3


def test_poly_evaluation():
    poly = h_density_poly()
    assert poly.evaluate(Fraction(1, 6), Fraction(1, 6)) == Fraction(227, 378)


def test_poly_rejects_negative_coefficients():
    with pytest.raises(ParameterError):
        DensityPolynomial(Fraction(-1), Fraction(0), Fraction(0), Fraction(0))


def test_maximize_matches_exact_radicals():
    opt = maximize_constrained(h_density_poly())
    assert opt.exact_x == Quad(Fraction(45, 184), Fraction(-1, 184), SQRT277)
    assert opt.exact_y == Quad(Fraction(1, 92), Fraction(1, 92), SQRT277)
    assert opt.exact_value == Quad(
        Fraction(31097, 59248), Fraction(277, 59248), SQRT277)
    assert opt.value == pytest.approx(0.602673, abs=1e-6)
    assert opt.x_star == pytest.approx(0.1541, abs=1e-4)


def test_maximize_constraint_and_stationarity():
    opt = maximize_constrained(h_density_poly())
    # the constraint holds exactly in the radical field
    residual = opt.exact_x.scale(4) + opt.exact_y.scale(2)
    assert residual == Quad(Fraction(1), Fraction(0), SQRT277)
    assert abs(4 * opt.x_star + 2 * opt.y_star - 1) <= 1e-12
    # first-order optimality: the reduced derivative (3/7)(368x^2-180x+19)
    x = opt.exact_x
    deriv = (x * x).scale(368) - x.scale(180) + Quad.rational(19, SQRT277)
    assert deriv == Quad.rational(0, SQRT277)


def test_maximize_interior_beats_endpoints():
    poly = h_density_poly()
    opt = maximize_constrained(poly)
    at_zero = poly.evaluate(Fraction(0), Fraction(1, 2))
    assert at_zero == Fraction(1, 14)
    assert float(at_zero) < opt.value
    at_quarter = poly.evaluate(Fraction(1, 4), Fraction(0))
    assert float(at_quarter) < opt.value


def test_golden_section_cross_check():
    opt = maximize_constrained(h_density_poly())
    assert abs(opt.cross_check_value - opt.value) <= 1e-9


def test_maximize_degenerate_polynomials():
    # pure y^3 is maximized at the x=0 endpoint
    opt = maximize_constrained(
        DensityPolynomial(Fraction(0), Fraction(1), Fraction(0), Fraction(0)))
    assert opt.x_star == 0.0 and opt.value == pytest.approx(1 / 8)
    # pure x^3 at the x=1/4 endpoint
    opt = maximize_constrained(
        DensityPolynomial(Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
    assert opt.x_star == pytest.approx(0.25) and opt.value == pytest.approx(1 / 64)
    # these coefficients cancel the x^3 term of the reduced cubic, so its
    # derivative is linear, with its root at x = 1/6 inside [0, 1/4]
    opt = maximize_constrained(DensityPolynomial(
        Fraction(1), Fraction(0), Fraction(5, 2), Fraction(1)))
    assert opt.exact_x == opt.exact_y == Quad.rational(Fraction(1, 6), 1)
    assert opt.exact_value == Quad.rational(Fraction(1, 48), 1)


def test_maximize_perfect_square_discriminant():
    # x y^2: g' = (4x - 1)(12x - 1)/4 has rational roots, so the optimum
    # is rational and carries no sqrt(1) part
    opt = maximize_constrained(
        DensityPolynomial(Fraction(0), Fraction(0), Fraction(0), Fraction(1)))
    assert opt.exact_x == Quad.rational(Fraction(1, 12), 1)
    assert opt.exact_y == Quad.rational(Fraction(1, 3), 1)
    assert opt.exact_value == Quad.rational(Fraction(1, 108), 1)
    assert [str(q) for q in (opt.exact_x, opt.exact_y, opt.exact_value)] == [
        "1/12", "1/3", "1/108"]
    assert opt.x_star == 1 / 12 and opt.value == 1 / 108


def test_quad_text():
    assert str(Quad(Fraction(3, 7), Fraction(0), 5)) == "3/7"
    assert str(Quad(Fraction(1, 4), Fraction(1, 12), 17)) == "1/4 + 1/12*sqrt(17)"
    assert str(Quad(Fraction(45, 184), Fraction(-1, 184), 277)) == (
        "45/184 - 1/184*sqrt(277)")
    assert str(Quad(Fraction(-2), Fraction(-3, 2), 3)) == "-2 - 3/2*sqrt(3)"


def test_reference_bounds():
    table = reference_bounds()
    chung_lu = table["chung_lu_k4_upper"]
    assert chung_lu.exact == Quad(Fraction(1, 4), Fraction(1, 12), 17)
    assert chung_lu.value == pytest.approx(0.593592135468, abs=1e-12)
    assert table["baber_k4_upper"].exact == Fraction(5615, 10000)
    assert table["bcl_k5minus_lower"].exact == Fraction(58656, 100000)
    assert table["de_caen_k4_upper"].exact == Fraction(2, 3)


def test_separation_at_the_bound():
    opt = maximize_constrained(h_density_poly())
    chung_lu = reference_bounds()["chung_lu_k4_upper"].value
    assert opt.value > chung_lu + 0.009


def test_exact_count_minimal():
    p = SixPartParams((1, 1, 1, 1, 1, 1))
    assert exact_count(p, (0,) * 6, (0, 0)) == 16


def test_exact_count_matches_built_graph():
    for sizes in ((2, 2, 2, 2, 2, 2), (7, 7, 9, 7, 7, 9)):
        p = SixPartParams(sizes)
        inner = tuple(s6_star_edge_count(s) for s in sizes)
        between = (
            bipartite_g_edge_count(sizes[0]),
            bipartite_g_edge_count(sizes[3]),
        )
        assert exact_count(p, inner, between) == six_part_h(p).edge_count


def test_exact_count_randomized_sizes():
    rng = random.Random(23)
    for _ in range(50):
        s1, s4 = rng.randint(1, 5), rng.randint(1, 5)
        sizes = (s1, s1, rng.randint(1, 6), s4, s4, rng.randint(1, 6))
        p = SixPartParams(sizes)
        inner = tuple(s6_star_edge_count(s) for s in sizes)
        between = (
            bipartite_g_edge_count(sizes[0]),
            bipartite_g_edge_count(sizes[3]),
        )
        assert exact_count(p, inner, between) == six_part_h(p).edge_count


def test_exact_count_detects_mismatch():
    p = SixPartParams((2, 2, 2, 2, 2, 2))
    with pytest.raises(ConsistencyError):
        exact_count(p, (1, 0, 0, 0, 0, 0), (0, 0))
    with pytest.raises(ParameterError):
        exact_count(p, (0, 0, 0), (0, 0))


def test_finite_n_density_approaches_polynomial():
    # proportions x = 1/7, y = 3/14 satisfy the constraint: sizes (2t,2t,3t,..)
    poly = h_density_poly()
    target = poly.evaluate(Fraction(1, 7), Fraction(3, 14))
    for t in (1, 2, 4):
        sizes = (2 * t, 2 * t, 3 * t, 2 * t, 2 * t, 3 * t)
        h = six_part_h(SixPartParams(sizes))
        diff = density(h) - target
        assert 0 <= diff <= Fraction(1, h.n)
