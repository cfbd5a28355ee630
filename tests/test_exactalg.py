"""Unit and property tests for the exact-algebra layer."""
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from isingmaps.errors import DegenerateInterval, NonZeroRemainder
from isingmaps.exactalg import (
    ParamPoly,
    SturmChain,
    UniPoly,
    bisect_isolated_root,
    cauchy_root_bound,
    discriminant,
    interpolate,
    isolate_real_roots,
    poly_gcd,
    rational_sqrt,
    refine_isolated_root,
    resultant,
    ring_exact_div,
    squarefree_part,
    sturm_count,
)

# -- strategies -------------------------------------------------------------

small_rationals = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=5
)
nonzero_rationals = small_rationals.filter(bool)


def poly_from_coeffs(coeffs):
    return UniPoly([Fraction(c) for c in coeffs])


rational_polys = st.lists(small_rationals, min_size=1, max_size=7).map(poly_from_coeffs)
nonzero_polys = rational_polys.filter(lambda p: not p.is_zero())


def x_minus(r):
    return UniPoly([-Fraction(r), Fraction(1)])


# -- rational square roots --------------------------------------------------

def test_rational_sqrt():
    assert rational_sqrt(Fraction(4)) == 2
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None
    assert rational_sqrt(Fraction(49, 121)) == Fraction(7, 11)


# -- ParamPoly --------------------------------------------------------------

class TestParamPoly:
    def test_constructors_and_eq(self):
        nu, c = ParamPoly.nu(), ParamPoly.c()
        p = 9 * nu ** 4 * c ** 2 + 8 * nu ** 2 + 1
        assert p == ParamPoly({(4, 2): 9, (2, 0): 8, (0, 0): 1})
        assert p.to_str() == "9*nu^4*c^2 + 8*nu^2 + 1"
        assert ParamPoly.constant(3) == 3

    def test_arithmetic_matches_evaluation(self):
        nu, c = ParamPoly.nu(), ParamPoly.c()
        p = 2 * nu ** 2 * c - 5 * c ** 3 + Fraction(1, 3)
        q = nu * c - 7
        pt = (Fraction(2, 3), Fraction(5, 4))
        for expr, val in [
            (p + q, p.evaluate(*pt) + q.evaluate(*pt)),
            (p - q, p.evaluate(*pt) - q.evaluate(*pt)),
            (p * q, p.evaluate(*pt) * q.evaluate(*pt)),
            (p ** 3, p.evaluate(*pt) ** 3),
        ]:
            assert expr.evaluate(*pt) == val

    def test_laurent_shift_and_range(self):
        nu, c = ParamPoly.nu(), ParamPoly.c()
        p = (nu ** 2 * c + 3).shift_c(-2)
        assert p.c_degree_range() == (-2, -1)
        assert p.evaluate(Fraction(1), Fraction(2)) == Fraction(1, 2) + Fraction(3, 4)

    def test_substitute_neg_nu(self):
        nu, c = ParamPoly.nu(), ParamPoly.c()
        p = nu ** 3 * c - 4 * nu ** 2 + nu - 9
        q = p.substitute_neg_nu()
        assert q == -(nu ** 3) * c - 4 * nu ** 2 - nu - 9
        assert q.substitute_neg_nu() == p

    def test_c_log_derivative(self):
        nu, c = ParamPoly.nu(), ParamPoly.c()
        p = nu * c ** 3 + 5 * c - 2 + c ** -2 * nu ** 2
        # c * d/dc multiplies each monomial by its c-exponent
        assert p.c_log_derivative() == 3 * nu * c ** 3 + 5 * c - 2 * nu ** 2 * c ** -2

    def test_exact_div(self):
        nu, c = ParamPoly.nu(), ParamPoly.c()
        a = nu ** 2 - 1
        b = (nu + 1) * (nu - 1)
        assert b.exact_div(nu + 1) == nu - 1
        assert (a * (3 * c ** 2 - nu)).exact_div(a) == 3 * c ** 2 - nu
        with pytest.raises(NonZeroRemainder):
            (nu ** 2 + 1).exact_div(nu - 1)

    def test_exact_div_laurent(self):
        nu, c = ParamPoly.nu(), ParamPoly.c()
        p = (nu * c + c ** -1).shift_c(-1) * (c ** 2 - nu)
        assert p.exact_div(c ** 2 - nu) == (nu * c + c ** -1).shift_c(-1)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 3), small_rationals),
                    min_size=0, max_size=5),
           st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 3), nonzero_rationals),
                    min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_mul_div_roundtrip(self, aterms, bterms):
        a = ParamPoly({(dv, dc): q for dv, dc, q in aterms})
        b = ParamPoly({(dv, dc): q for dv, dc, q in bterms})
        if b.is_zero():
            return
        assert (a * b).exact_div(b) == a


# -- the coefficient ring of ParamPoly: int when integral, else Fraction -----

def assert_ring_coefficients(p: ParamPoly):
    for coef in p.terms.values():
        assert type(coef) in (int, Fraction), "coefficient %r" % (coef,)
        if type(coef) is Fraction:
            assert coef.denominator != 1, "integral Fraction %r" % (coef,)


mixed_coefficients = st.one_of(st.integers(-6, 6), small_rationals)
param_polys = st.lists(
    st.tuples(st.integers(0, 3), st.integers(-2, 3), mixed_coefficients), max_size=5,
).map(lambda ts: ParamPoly({(dv, dc): q for dv, dc, q in ts}))
positive_rationals = st.fractions(
    min_value=Fraction(1, 5), max_value=Fraction(5), max_denominator=7
)


class TestParamPolyRing:
    @given(param_polys, param_polys, positive_rationals, positive_rationals)
    @settings(max_examples=100, deadline=None)
    def test_ring_operations_commute_with_evaluation(self, p, q, nu_v, c_v):
        pv, qv = p.evaluate(nu_v, c_v), q.evaluate(nu_v, c_v)
        third = Fraction(1, 3)
        for got, want in [
            (p + q, pv + qv),
            (p - q, pv - qv),
            (p * q, pv * qv),
            (p * third, pv * third),
            (third * p, pv * third),
            (p * 3, pv * 3),
        ]:
            assert_ring_coefficients(got)
            assert got.evaluate(nu_v, c_v) == want

    @given(param_polys, st.integers(-2, 2), positive_rationals, positive_rationals)
    @settings(max_examples=100, deadline=None)
    def test_exact_div_by_non_unit_leading_coefficient(self, p, shift, nu_v, c_v):
        nu, c = ParamPoly.nu(), ParamPoly.c()
        divisor = (3 * nu + 2).shift_c(shift)
        product = p * divisor
        quotient = product.exact_div(divisor)
        assert_ring_coefficients(product)
        assert_ring_coefficients(quotient)
        assert quotient == p
        want = product.evaluate(nu_v, c_v) / divisor.evaluate(nu_v, c_v)
        assert quotient.evaluate(nu_v, c_v) == want
        even = 2 * c ** 2 + 4 * nu
        halves = (p * Fraction(1, 2) * even).exact_div(even)
        assert_ring_coefficients(halves)
        assert halves == p * Fraction(1, 2)

    @given(st.sampled_from([2, 3, -5, Fraction(2, 3)]), st.integers(-3, 3).filter(bool),
           st.integers(1, 3), positive_rationals)
    @settings(max_examples=50, deadline=None)
    def test_negative_powers_of_c_monomials(self, coef, deg, k, c_v):
        m = coef * ParamPoly.c() ** deg
        inv = m ** -k
        assert_ring_coefficients(inv)
        assert inv.terms == {(0, -deg * k): Fraction(coef) ** -k}
        assert inv.evaluate(Fraction(1), c_v) == m.evaluate(Fraction(1), c_v) ** -k
        assert_ring_coefficients(inv * m ** k)
        assert inv * m ** k == 1

    def test_integral_coefficients_are_int(self):
        nu, c = ParamPoly.nu(), ParamPoly.c()
        for p in (nu, c, ParamPoly.constant(Fraction(4, 2)), ParamPoly.monomial(3, 1, -1),
                  ParamPoly({(0, 0): Fraction(1, 2), (1, 0): 2}) * 2,
                  (nu * Fraction(1, 2) + c) + nu * Fraction(1, 2),
                  (nu * Fraction(3, 2)) * (c * Fraction(2, 3))):
            assert_ring_coefficients(p)
        assert (nu * Fraction(3, 2)) * (c * Fraction(2, 3)) == nu * c
        assert ParamPoly.constant(Fraction(4, 2)).to_str() == "2"

    def test_non_integral_quotients_are_fractions(self):
        third = ParamPoly.constant(1).exact_div(ParamPoly.constant(3))
        assert third.terms == {(0, 0): Fraction(1, 3)}
        assert type(third.terms[(0, 0)]) is Fraction
        half = (2 * ParamPoly.c()) ** -1
        assert half.terms == {(0, -1): Fraction(1, 2)}
        assert type(half.terms[(0, -1)]) is Fraction
        with pytest.raises(TypeError):
            ParamPoly.constant(0.5)

    def test_no_float_from_int_division(self):
        assert (ParamPoly.c() ** -2).evaluate(1, 3) == Fraction(1, 9)
        assert type((ParamPoly.c() ** -2).evaluate(1, 3)) is Fraction
        assert type(ring_exact_div(1, 3)) is Fraction
        assert ring_exact_div(1, 3) == Fraction(1, 3)


# -- UniPoly basics ---------------------------------------------------------

class TestUniPoly:
    def test_eval_and_derivative(self):
        p = poly_from_coeffs([1, -3, 0, 2])  # 2x^3 - 3x + 1
        assert p.eval_scalar(Fraction(2)) == 16 - 6 + 1
        assert p.derivative() == poly_from_coeffs([-3, 0, 6])

    def test_from_roots(self):
        p = UniPoly.from_roots([1, 2])
        assert p == poly_from_coeffs([2, -3, 1])

    def test_exact_div_remainder_raises(self):
        p = poly_from_coeffs([1, 0, 1])  # x^2 + 1
        with pytest.raises(NonZeroRemainder):
            p.exact_div(x_minus(1))

    def test_exact_div_scalar(self):
        p = poly_from_coeffs([2, 4, 6])
        assert p.exact_div(Fraction(2)) == poly_from_coeffs([1, 2, 3])

    @given(rational_polys, nonzero_polys)
    @settings(max_examples=100, deadline=None)
    def test_mul_div_roundtrip(self, p, q):
        assert (p * q).exact_div(q) == p


# -- resultants and discriminants ------------------------------------------

class TestResultant:
    def test_linear_linear(self):
        a, b = Fraction(3, 2), Fraction(-5)
        assert resultant(x_minus(a), x_minus(b)) == b - a

    def test_quadratic_linear(self):
        p = poly_from_coeffs([1, 0, 1])  # x^2 + 1
        assert resultant(p, x_minus(1)) == 2

    def test_shared_root_gives_zero(self):
        p = UniPoly.from_roots([1, 2, 3])
        q = UniPoly.from_roots([3, 5])
        assert resultant(p, q) == 0

    def test_discriminant_quadratic(self):
        b, c = Fraction(7, 3), Fraction(-2)
        p = poly_from_coeffs([c, b, 1])
        assert discriminant(p) == b * b - 4 * c

    def test_discriminant_depressed_cubic(self):
        p_, q_ = Fraction(-3), Fraction(1, 2)
        poly = poly_from_coeffs([q_, p_, 0, 1])
        assert discriminant(poly) == -4 * p_ ** 3 - 27 * q_ ** 2

    @given(st.lists(small_rationals, min_size=2, max_size=5).map(
        lambda rs: UniPoly.from_roots(rs)),
        st.lists(small_rationals, min_size=1, max_size=4).map(
        lambda rs: UniPoly.from_roots(rs)))
    @settings(max_examples=80, deadline=None)
    def test_zero_iff_common_factor(self, p, q):
        shares = poly_gcd(p, q).degree() > 0
        assert (resultant(p, q) == 0) == shares

    @staticmethod
    def _sylvester_det(f: UniPoly, g: UniPoly) -> Fraction:
        n, m = f.degree(), g.degree()
        fc = [sympy.Rational(c) for c in reversed(f.coeffs)]
        gc = [sympy.Rational(c) for c in reversed(g.coeffs)]
        rows = [[0] * i + fc + [0] * (m - 1 - i) for i in range(m)]
        rows += [[0] * i + gc + [0] * (n - 1 - i) for i in range(n)]
        if not rows:
            return Fraction(1)
        return Fraction(str(sympy.Matrix(rows).det()))

    @given(st.lists(small_rationals, min_size=2, max_size=5),
           st.lists(small_rationals, min_size=2, max_size=5),
           nonzero_rationals, nonzero_rationals)
    @settings(max_examples=50, deadline=None)
    def test_matches_sylvester_determinant(self, ac, bc, alc, blc):
        f = poly_from_coeffs(ac[:-1] + [alc])
        g = poly_from_coeffs(bc[:-1] + [blc])
        n, m = f.degree(), g.degree()
        expected = self._sylvester_det(f, g) * (-1) ** (n * m)
        assert resultant(f, g) == expected

    @given(st.lists(small_rationals, min_size=2, max_size=5), nonzero_rationals)
    @settings(max_examples=50, deadline=None)
    def test_discriminant_matches_sympy(self, coeffs, lc):
        p = poly_from_coeffs(coeffs[:-1] + [lc])
        if p.degree() < 1:
            return
        x = sympy.Symbol("x")
        ps = sum(sympy.Rational(c) * x ** i for i, c in enumerate(p.coeffs))
        assert discriminant(p) == Fraction(str(sympy.discriminant(ps, x)))

    @given(st.lists(small_rationals, min_size=2, max_size=4),
           st.lists(small_rationals, min_size=2, max_size=4),
           nonzero_rationals, nonzero_rationals)
    @settings(max_examples=50, deadline=None)
    def test_product_rule(self, ac, bc, alc, blc):
        p = poly_from_coeffs(ac[:-1] + [alc])
        q = poly_from_coeffs(bc[:-1] + [blc])
        lhs = discriminant(p * q)
        rhs = discriminant(p) * discriminant(q) * resultant(p, q) ** 2
        assert lhs == rhs


# -- gcd / squarefree -------------------------------------------------------

class TestGcd:
    def test_gcd_known_factor(self):
        p = UniPoly.from_roots([1, 2, 3])
        q = UniPoly.from_roots([2, 3, 7])
        g = poly_gcd(p, q)
        expected = UniPoly.from_roots([2, 3])
        assert g.exact_div(g.lc()) == expected

    def test_squarefree_part_strips_multiplicity(self):
        square = UniPoly.from_roots([2, 2, 2, 5])
        sf = squarefree_part(square)
        assert sf.exact_div(sf.lc()) == UniPoly.from_roots([2, 5])

    @given(st.lists(small_rationals, min_size=1, max_size=3, unique=True),
           st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_squarefree_idempotent(self, roots, mult):
        p = UniPoly.from_roots(list(roots) * mult)
        sf = squarefree_part(p)
        assert squarefree_part(sf).degree() == sf.degree()
        assert sf.degree() == len(roots)

    def test_integer_coefficients_stay_exact(self):
        def exact(values):
            return all(isinstance(v, (int, Fraction)) for v in values)

        roots = isolate_real_roots(UniPoly([-2, 0, 3]))
        assert roots == [(Fraction(-5, 3), 0), (0, Fraction(5, 3))]
        assert all(exact(iv) for iv in roots)
        g = poly_gcd(UniPoly([-1, 0, 3]), UniPoly([1, 3]))
        assert g == UniPoly([1]) and exact(g.coeffs)
        sf = squarefree_part(UniPoly([1, 2, 1]))
        assert sf == UniPoly([1, 1]) and exact(sf.coeffs)
        bound = cauchy_root_bound(UniPoly([1, 2, 3]))
        assert bound == Fraction(5, 3) and exact([bound])


# -- Sturm counting and isolation ------------------------------------------

class TestSturm:
    def test_count_simple(self):
        p = UniPoly.from_roots([1, 2, 3])
        assert sturm_count(p, 0, Fraction(5, 2)) == 2
        assert sturm_count(p, 0, 10) == 3
        assert sturm_count(p, 3, 10) == 0
        # (a, b] includes the right endpoint
        assert sturm_count(p, Fraction(5, 2), 3) == 1

    def test_multiplicity_counted_once(self):
        p = UniPoly.from_roots([2, 2, 2, 5])
        assert sturm_count(p, 0, 10) == 2

    def test_degenerate_interval(self):
        p = x_minus(1)
        with pytest.raises(DegenerateInterval):
            sturm_count(p, 3, 3)
        with pytest.raises(DegenerateInterval):
            SturmChain(p).count(Fraction(4), Fraction(1))

    @given(st.lists(st.fractions(min_value=Fraction(-9), max_value=Fraction(9),
                                 max_denominator=4),
                    min_size=1, max_size=6, unique=True),
           small_rationals, small_rationals)
    @settings(max_examples=100, deadline=None)
    def test_count_matches_known_roots(self, roots, a, b):
        if a == b:
            return
        a, b = min(a, b), max(a, b)
        p = UniPoly.from_roots(roots)
        expected = sum(1 for r in roots if a < r <= b)
        assert sturm_count(p, a, b) == expected

    def test_cauchy_bound_contains_roots(self):
        p = UniPoly.from_roots([-7, Fraction(1, 3), 5])
        bound = cauchy_root_bound(p)
        assert all(abs(r) < bound for r in [-7, Fraction(1, 3), 5])

    def test_isolation_spec_example(self):
        p = poly_from_coeffs([-40, 8100])
        intervals = isolate_real_roots(p)
        assert len(intervals) == 1
        a, b = intervals[0]
        assert a < Fraction(2, 405) <= b
        lo, hi = refine_isolated_root(p, a, b, Fraction(1, 10 ** 12))
        assert lo <= Fraction(2, 405) <= hi
        assert hi - lo <= Fraction(1, 10 ** 12)

    def test_refine_hits_exact_root(self):
        p = x_minus(Fraction(1, 2))
        lo, hi = refine_isolated_root(p, Fraction(0), Fraction(1), Fraction(1, 4))
        assert lo == hi == Fraction(1, 2)

    @given(st.lists(st.fractions(min_value=Fraction(-5), max_value=Fraction(5),
                                 max_denominator=3),
                    min_size=1, max_size=5, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_isolation_separates_all_roots(self, roots):
        p = UniPoly.from_roots(roots)
        intervals = isolate_real_roots(p)
        assert len(intervals) == len(roots)
        for (a, b), r in zip(intervals, sorted(roots)):
            assert a < r <= b
        # intervals are pairwise disjoint and ordered
        for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
            assert b1 <= a2

    @given(st.lists(small_rationals, min_size=1, max_size=5),
           st.lists(st.fractions(min_value=Fraction(-5), max_value=Fraction(5),
                                 max_denominator=7),
                    min_size=1, max_size=4, unique=True),
           st.integers(min_value=0, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_sign_bisection_matches_sturm_bisection(self, coeffs, roots, k):
        p = squarefree_part(poly_from_coeffs(coeffs or [1]) * UniPoly.from_roots(roots))
        if p.degree() < 1:
            return
        width = Fraction(1, 2 ** k)
        for a, b in isolate_real_roots(p):
            assert refine_isolated_root(p, a, b, width) == _sturm_bisection(p, a, b, width)

    def test_sign_bisection_reaches_an_irrational_root(self):
        p = poly_from_coeffs([-2, 0, 1])  # root sqrt(2)
        lo, hi = bisect_isolated_root(p, Fraction(1), Fraction(2), Fraction(1, 2 ** 30))
        assert lo < hi and hi - lo <= Fraction(1, 2 ** 30)
        assert lo * lo < 2 < hi * hi


def _sturm_bisection(p, a, b, width):
    """Refinement by a Sturm count per bisection step: the oracle that sign
    bisection must reproduce interval for interval."""
    sf = squarefree_part(p)
    if sf.eval_scalar(b) == 0:
        return (b, b)
    chain = SturmChain(sf)
    assert chain.count(a, b) == 1
    while b - a > width:
        mid = (a + b) / 2
        if sf.eval_scalar(mid) == 0:
            return (mid, mid)
        if chain.count(a, mid) == 1:
            b = mid
        else:
            a = mid
    return (a, b)


class TestInterpolate:
    @given(rational_polys, small_rationals)
    @settings(max_examples=60, deadline=None)
    def test_rebuilds_the_polynomial(self, p, start):
        nodes = [start + k for k in range(p.degree() + 2)]
        assert interpolate(nodes, [p.eval_scalar(x) for x in nodes]) == p

    def test_lowest_degree_through_points(self):
        nodes = [Fraction(0), Fraction(1), Fraction(3)]
        assert interpolate(nodes, [Fraction(1)] * 3) == poly_from_coeffs([1])
        assert interpolate(nodes, [Fraction(0), Fraction(1), Fraction(9)]) == \
            poly_from_coeffs([0, 0, 1])
