"""Edge-count bookkeeping and exact maximization of the density polynomial.

The six-part construction with part proportions (x, x, y, x, x, y) has,
per unit of C(n, 3), the asymptotic density

    c3 x^3 + c30 y^3 + c21 x^2 y + c12 x y^2

whose coefficients are re-derived here from the five finite edge layers
rather than hard-coded.  Layers (a)-(c) are the part patterns
ALLOWED_PART_TRIPLES, PAIR_IN_Y and PAIR_IN_X of the constructions module
blown up over the parts, where a part named m times gives each edge m
distinct vertices; each pattern contributes the leading term of its count,
the product of |V_j|^m / m! over its parts, to the monomial of its x/y
size type.  The inner blow-ups contribute through the fixed-point density
of the iterated blow-up, and the bipartite-style layer through the leading
term of its closed-form count.

exact_count writes the binomial counts of layers (b) and (c) out by hand
rather than reading them from the patterns, so that it checks them.

All coefficient work is exact rational; the constrained optimum on
4x + 2y = 1 reduces to a univariate cubic whose stationary points live in
a real quadratic field, kept symbolically as a + b*sqrt(d) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

from .constructions import (
    ALLOWED_PART_TRIPLES,
    PAIR_IN_X,
    PAIR_IN_Y,
    SixPartParams,
    six_part_h,
)
from .criteria import de_caen_bound
from .errors import ConsistencyError, ParameterError
from .hypergraph import S6_EDGES

_X_PARTS = frozenset({1, 2, 4, 5})  # parts of proportional size x; 3, 6 have y


@dataclass(frozen=True)
class Quad:
    """Exact element a + b*sqrt(d) of a real quadratic field, d squarefree."""

    a: Fraction
    b: Fraction
    d: int

    def _check(self, other: "Quad") -> None:
        if self.d != other.d:
            raise ParameterError(f"mixed radicands {self.d} and {other.d}")

    @classmethod
    def rational(cls, value, d: int) -> "Quad":
        return cls(Fraction(value), Fraction(0), d)

    def __add__(self, other: "Quad") -> "Quad":
        self._check(other)
        return Quad(self.a + other.a, self.b + other.b, self.d)

    def __sub__(self, other: "Quad") -> "Quad":
        self._check(other)
        return Quad(self.a - other.a, self.b - other.b, self.d)

    def __mul__(self, other: "Quad") -> "Quad":
        self._check(other)
        return Quad(
            self.a * other.a + self.b * other.b * self.d,
            self.a * other.b + self.b * other.a,
            self.d,
        )

    def scale(self, c) -> "Quad":
        c = Fraction(c)
        return Quad(self.a * c, self.b * c, self.d)

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * self.d ** 0.5

    def is_positive(self) -> bool:
        """Exact sign test of a + b*sqrt(d) > 0.

        x|x| is odd and increasing, so a > -b*sqrt(d) exactly when
        a|a| > -(b*sqrt(d))|b*sqrt(d)| = -b|b|d.
        """
        a, b = self.a, self.b
        return a * abs(a) + b * abs(b) * self.d > 0

    def __lt__(self, other: "Quad") -> bool:
        return (other - self).is_positive()

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*sqrt({self.d})"


def _squarefree_split(value: int) -> tuple[int, int]:
    """value = s^2 * d with d squarefree; returns (s, d)."""
    s, d = 1, 1
    rest = value
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            power = 0
            while rest % p == 0:
                rest //= p
                power += 1
            s *= p ** (power // 2)
            if power % 2:
                d *= p
        p += 1
    return s, d * rest


@dataclass(frozen=True)
class DensityPolynomial:
    """c_x3 x^3 + c_y3 y^3 + c_x2y x^2 y + c_xy2 x y^2, coefficients >= 0."""

    c_x3: Fraction
    c_y3: Fraction
    c_x2y: Fraction
    c_xy2: Fraction

    def __post_init__(self) -> None:
        if min(self.c_x3, self.c_y3, self.c_x2y, self.c_xy2) < 0:
            raise ParameterError("density coefficients must be nonnegative")

    def evaluate(self, x: Fraction, y: Fraction) -> Fraction:
        return (
            self.c_x3 * x**3
            + self.c_y3 * y**3
            + self.c_x2y * x**2 * y
            + self.c_xy2 * x * y**2
        )


@dataclass(frozen=True)
class OptimumResult:
    x_star: float
    y_star: float
    value: float
    exact_x: Quad
    exact_y: Quad
    exact_value: Quad
    cross_check_value: float
    method: str


def s6_star_limit_density() -> Fraction:
    """Fixed point of e(n) = |S6| (n/6)^3 + 6 e(n/6), normalized by n^3/6."""
    # c = |S6|/6^3 + c/6^2  =>  c = |S6|/(6 (6^2 - 1))
    return 6 * Fraction(len(S6_EDGES), 6 * 35)


def h_density_poly() -> DensityPolynomial:
    """Re-derive the density polynomial from the five finite edge layers."""
    # layers (a)-(c): a pattern naming part j m_j times blows up to
    # prod C(|V_j|, m_j) ~ prod |V_j|^m_j / m_j! edges, a monomial in x, y
    by_x_count = [Fraction(0)] * 4
    for pattern in ALLOWED_PART_TRIPLES + PAIR_IN_Y + PAIR_IN_X:
        x_count = sum(j in _X_PARTS for j in pattern)
        by_x_count[x_count] += Fraction(
            1, prod(factorial(pattern.count(j)) for j in set(pattern)))
    c_y3, c_xy2, c_x2y, c_x3 = by_x_count
    # layer (d): inner blow-ups at the limit density, 4 parts of size x n and
    # 2 of size y n; C(m,3) ~ m^3/6 and the normalization cancels the 6
    inner = s6_star_limit_density() / 6
    c_x3 += 4 * inner
    c_y3 += 2 * inner
    # layer (e): two copies between x-parts; (m-1)m(2m-1)/3 ~ (2/3) m^3
    c_x3 += 2 * Fraction(2, 3)
    # normalize per C(n,3) ~ n^3/6
    return DensityPolynomial(6 * c_x3, 6 * c_y3, 6 * c_x2y, 6 * c_xy2)


def exact_count(
    p: SixPartParams,
    s6_edge_counts: tuple[int, ...],
    g_edge_counts: tuple[int, ...],
) -> int:
    """Exact edge count of the six-part construction from its layer counts.

    The caller supplies the per-part inner blow-up counts and the two
    between-pair counts (for instance s6_star_edge_count and
    bipartite_g_edge_count of the part sizes).  Layer (a) is counted over
    ALLOWED_PART_TRIPLES and layers (b), (c) by binomial closed forms
    written independently of PAIR_IN_Y and PAIR_IN_X.  The total is
    cross-checked against the built graph and a mismatch raises.
    """
    if len(s6_edge_counts) != 6:
        raise ParameterError("need six inner blow-up edge counts")
    if len(g_edge_counts) != 2:
        raise ParameterError("need two between-pair edge counts")
    s = p.sizes
    transversal = sum(
        s[a - 1] * s[b - 1] * s[c - 1] for a, b, c in ALLOWED_PART_TRIPLES
    )
    pair_in_y = comb(s[2], 2) * (s[0] + s[1]) + comb(s[5], 2) * (s[3] + s[4])
    pair_in_x = (comb(s[0], 2) + comb(s[1], 2)) * s[5] + (
        comb(s[3], 2) + comb(s[4], 2)
    ) * s[2]
    total = (
        transversal
        + pair_in_y
        + pair_in_x
        + sum(s6_edge_counts)
        + sum(g_edge_counts)
    )
    built = six_part_h(p).edge_count
    if built != total:
        raise ConsistencyError(
            f"layer bookkeeping gives {total} edges but the built graph has {built}")
    return total


def _golden_section_max(fn, lo: float, hi: float) -> float:
    """Maximum value of a unimodal-enough fn on [lo, hi] (endpoint aware)."""
    invphi = (5**0.5 - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > 1e-13:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return max(fn(lo), fn(hi), fc, fd)


def maximize_constrained(poly: DensityPolynomial) -> OptimumResult:
    """Maximize the polynomial on x, y >= 0 with 4x + 2y = 1.

    Substituting y = 1/2 - 2x gives a cubic g on [0, 1/4], read off its
    values d_0..d_3 at x = 0..3 (DensityPolynomial.evaluate) by Newton's
    forward differences.  Stationary points come from the quadratic
    formula applied to g' and are compared exactly against the endpoints.
    A golden-section search on g must agree with the exact value to 1e-9.
    """
    half = Fraction(1, 2)
    d0, d1, d2, d3 = (poly.evaluate(Fraction(i), half - 2 * i) for i in range(4))
    delta1, delta2, delta3 = d1 - d0, d2 - 2 * d1 + d0, d3 - 3 * d2 + 3 * d1 - d0
    # g = d0 + delta1 x + delta2 x(x-1)/2 + delta3 x(x-1)(x-2)/6
    g = (d0, delta1 - delta2 / 2 + delta3 / 3, (delta2 - delta3) / 2, delta3 / 6)
    # derivative a2 x^2 + a1 x + a0
    a0, a1, a2 = g[1], 2 * g[2], 3 * g[3]

    lo, hi = Fraction(0), Fraction(1, 4)
    disc_num = a1 * a1 - 4 * a2 * a0
    d_field = 1
    candidates: list[Quad] = []
    if a2 != 0 and disc_num > 0:
        s, d_field = _squarefree_split(
            disc_num.numerator * disc_num.denominator)
        root_coeff = Fraction(s, disc_num.denominator)  # sqrt(disc) = s/den * sqrt(d)
        for sign in (-1, 1):
            a, b = -a1 / (2 * a2), sign * root_coeff / (2 * a2)
            # a perfect-square discriminant gives rational roots
            x = Quad.rational(a + b, 1) if d_field == 1 else Quad(a, b, d_field)
            if Quad.rational(lo, d_field) < x < Quad.rational(hi, d_field):
                candidates.append(x)
    elif a2 == 0 and a1 != 0:
        x0 = -a0 / a1
        if lo < x0 < hi:
            candidates.append(Quad.rational(x0, d_field))
    candidates.append(Quad.rational(lo, d_field))
    candidates.append(Quad.rational(hi, d_field))

    def value_at(x: Quad) -> Quad:
        out = Quad.rational(g[3], x.d)
        for c in g[2::-1]:
            out = out * x + Quad.rational(c, x.d)
        return out

    # the first candidate of largest value
    best_x = max(candidates, key=value_at)
    best_val = value_at(best_x)
    best_y = Quad.rational(half, best_x.d) - best_x.scale(2)

    def g_float(x: float) -> float:
        return sum(float(c) * x**i for i, c in enumerate(g))

    cross = _golden_section_max(g_float, 0.0, 0.25)
    if abs(cross - float(best_val)) > 1e-9:
        raise ConsistencyError(
            f"golden-section value {cross!r} disagrees with exact optimum "
            f"{float(best_val)!r}")
    return OptimumResult(
        x_star=float(best_x),
        y_star=float(best_y),
        value=float(best_val),
        exact_x=best_x,
        exact_y=best_y,
        exact_value=best_val,
        cross_check_value=cross,
        method="reduced-cubic stationary points vs endpoints",
    )


@dataclass(frozen=True)
class ReferenceBound:
    exact: Quad | Fraction
    value: float
    kind: str  # "lower" | "upper"


def reference_bounds() -> dict[str, ReferenceBound]:
    """Literature constants the new optimum is compared against."""
    chung_lu = Quad(Fraction(1, 4), Fraction(1, 12), 17)  # (3 + sqrt 17)/12
    de_caen = de_caen_bound(4, 3)
    return {
        "chung_lu_k4_upper": ReferenceBound(chung_lu, float(chung_lu), "upper"),
        "baber_k4_upper": ReferenceBound(Fraction(5615, 10000), 0.5615, "upper"),
        "bcl_k5minus_lower": ReferenceBound(
            Fraction(58656, 100000), 0.58656, "lower"),
        "de_caen_k4_upper": ReferenceBound(de_caen, float(de_caen), "upper"),
    }
