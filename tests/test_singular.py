"""Singularity location, discriminant structure, and Puiseux machinery."""
from fractions import Fraction

import mpmath
import pytest
import sympy

from isingmaps import singular
from isingmaps.errors import DegenerateBranch
from isingmaps.exactalg import (
    UniPoly,
    cauchy_root_bound,
    sturm_count,
)
from isingmaps.series import IsingParams, lagrangian_numer_denom
from isingmaps.singular import (
    SingularityReport,
    cancelling_polynomial,
    cancelling_polynomial_squarefree,
    characteristic_root_polynomial,
    critical_point,
    discriminant_in_z,
    dominant_expansions,
    dominant_exponent,
    newton_polygon_expand,
    p1_p2_p3,
    radius_numeric,
    rho_closed_form,
    s_at_rho_closed_form,
)


def params(nu, c=1):
    return IsingParams(nu=nu, c=c)


class TestClosedForms:
    def test_branches_agree_exactly_at_four(self):
        low = 2 * (1 + 2 * 2) / (Fraction(9) * (1 + 2) ** 2 * (1 + 4) ** 2)
        high = (3 * Fraction(4) ** 2 - 8) / (36 * (Fraction(4) ** 2 - 1) ** 2)
        assert rho_closed_form(Fraction(4)) == low == high == Fraction(2, 405)
        assert s_at_rho_closed_form(Fraction(4)) == Fraction(1, 45)

    def test_square_nu_values_exact(self):
        assert rho_closed_form(Fraction(1, 4)) == Fraction(256, 2025)
        assert s_at_rho_closed_form(Fraction(1, 4)) == Fraction(8, 45)
        assert rho_closed_form(Fraction(5)) == Fraction(67, 20736)
        assert s_at_rho_closed_form(Fraction(5)) == Fraction(1, 72)
        assert rho_closed_form(Fraction(9)) == Fraction(47, 46080)
        assert s_at_rho_closed_form(Fraction(9)) == Fraction(1, 240)

    def test_irrational_nu_returns_high_precision_real(self):
        val = rho_closed_form(Fraction(2), precision_bits=160)
        assert isinstance(val, mpmath.mpf)
        with mpmath.workprec(160):
            r = mpmath.sqrt(mpmath.mpf(2))
            direct = 2 * (1 + 2 * r) / (9 * (1 + r) ** 2 * mpmath.mpf(9))
            assert abs(val - direct) < mpmath.mpf(2) ** -140

    def test_decreasing_in_nu(self):
        grid = [Fraction(1, 4), Fraction(9, 4), Fraction(4), Fraction(5), Fraction(9)]
        vals = [rho_closed_form(nu) for nu in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive_nu(self):
        with pytest.raises(ValueError):
            rho_closed_form(Fraction(0))


class TestRepeatedFactorOfN:
    def test_u_squared_divides_n_at_c_one(self):
        for nu in (2, 5, Fraction(7, 2), Fraction(1, 3)):
            nu = Fraction(nu)
            n_poly, _ = lagrangian_numer_denom(params(nu), symbolic=False)
            gamma = 1 - nu ** 2
            u = UniPoly([Fraction(1), 3 * gamma])
            quotient = n_poly.exact_div(u * u)  # NonZeroRemainder on failure
            assert quotient.degree() == 4

    def test_no_repeated_factor_off_c_one(self):
        p = params(2, Fraction(19, 20))
        c_sf_deg = characteristic_root_polynomial(p).degree()
        assert c_sf_deg == 8  # full Q2 survives squarefree reduction


class TestRadiusNumeric:
    def test_exact_endpoint_cases(self):
        for nu, rho, s_star in [
            (4, Fraction(2, 405), Fraction(1, 45)),
            (5, Fraction(67, 20736), Fraction(1, 72)),
            (9, Fraction(47, 46080), Fraction(1, 240)),
        ]:
            rep = radius_numeric(params(nu), with_exponent=False,
                                 scan_uniqueness=False)
            assert rep.exact
            assert rep.rho == rho
            assert rep.mu == rho
            assert rep.s_at_rho == s_star

    def test_certified_interval_matches_closed_form(self):
        tol = Fraction(1, 10 ** 12)
        for nu in (Fraction(1, 4), 2, 5, 9):
            rep = radius_numeric(params(nu), tol=tol, with_exponent=False,
                                 scan_uniqueness=False)
            closed = rho_closed_form(Fraction(nu), precision_bits=192)
            lo, hi = rep.rho_interval
            assert hi - lo <= tol
            if isinstance(closed, Fraction):
                assert lo <= closed <= hi
            else:
                with mpmath.workprec(192):
                    lo_x = mpmath.mpf(lo.numerator) / lo.denominator
                    hi_x = mpmath.mpf(hi.numerator) / hi.denominator
                    assert lo_x - 10 ** -15 <= closed <= hi_x + 10 ** -15

    def test_mu_is_c_times_rho(self):
        rep = radius_numeric(params(2, Fraction(19, 20)), with_exponent=False,
                             scan_uniqueness=False)
        assert rep.mu == Fraction(19, 20) * rep.rho
        assert rep.mu_interval[0] == Fraction(19, 20) * rep.rho_interval[0]

    def test_far_field_requires_flag(self):
        with pytest.raises(ValueError):
            radius_numeric(params(2, 2), with_exponent=False)
        rep = radius_numeric(params(2, Fraction(3, 2)), allow_far_field=True,
                             with_exponent=False, scan_uniqueness=False)
        assert any("validated" in w for w in rep.warnings)
        assert rep.rho > 0

    def test_nu_one_uses_fallback_bound(self):
        rep = radius_numeric(params(1, Fraction(9, 10)), with_exponent=False,
                             scan_uniqueness=False)
        # at nu=1: rho = 1/(12(c^2+1)) from the linear characteristic factor
        expected = Fraction(1) / (12 * (Fraction(9, 10) ** 2 + 1))
        lo, hi = rep.rho_interval
        assert lo <= expected <= hi

    def test_uniqueness_scan_sets_flag(self):
        rep = radius_numeric(params(2), with_exponent=False)
        assert rep.uniqueness_checked
        assert isinstance(rep, SingularityReport)

    def test_root_solve_failure_is_reported(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise mpmath.mp.NoConvergence("no convergence")

        monkeypatch.setattr(singular.mpmath, "polyroots", no_convergence)
        rep = radius_numeric(params(2), with_exponent=False)
        assert not rep.uniqueness_checked
        assert any("root solve failed" in w for w in rep.warnings)


class TestSturmGrid:
    def test_exactly_one_characteristic_root(self):
        for nu in (Fraction(1, 2), Fraction(2), Fraction(5)):
            for c in (Fraction(9, 10), Fraction(19, 20), Fraction(1)):
                p = params(nu, c)
                q = characteristic_root_polynomial(p)
                assert sturm_count(q, 0, critical_point(p).bound) == 1, (nu, c)


class TestDiscriminant:
    def test_divisible_by_p1_cubed_p2_p3(self):
        for nu in (2, 5):
            disc = discriminant_in_z(params(nu))
            p1, p2, p3 = p1_p2_p3(Fraction(nu))
            q = disc
            for factor in (p1, p1, p1, p2, p3):
                q = q.exact_div(factor)  # raises NonZeroRemainder on failure
            assert q.degree() <= 1

    def test_linear_factor_vanishes_at_rho_for_nu_ge_four(self):
        p1, _, _ = p1_p2_p3(Fraction(5))
        assert p1.eval_scalar(Fraction(67, 20736)) == 0

    def test_quadratic_factor_vanishes_at_rho_below_four(self):
        _, p2, _ = p1_p2_p3(Fraction(1, 4))
        assert p2.eval_scalar(Fraction(256, 2025)) == 0

    def test_both_factors_share_rho_at_four(self):
        p1, p2, _ = p1_p2_p3(Fraction(4))
        assert p1.eval_scalar(Fraction(2, 405)) == 0
        assert p2.eval_scalar(Fraction(2, 405)) == 0

    def test_p3_is_p2_with_nu_negated(self):
        _, p2_neg, _ = p1_p2_p3(Fraction(-3))
        _, _, p3 = p1_p2_p3(Fraction(3))
        assert p2_neg == p3

    def test_nonzero_off_c_one(self):
        disc = discriminant_in_z(params(2, Fraction(19, 20)))
        assert disc.degree() >= 7


class TestCriticalPoint:
    def test_one_radius_call_builds_it_once(self, monkeypatch):
        calls = []

        def counted(p, symbolic=None):
            calls.append((p.nu, p.c))
            return lagrangian_numer_denom(p, symbolic=symbolic)

        monkeypatch.setattr(singular, "lagrangian_numer_denom", counted)
        singular._critical_point.cache_clear()
        # exponent and uniqueness scan both read the same CriticalPoint
        radius_numeric(params(Fraction(5, 2), Fraction(21, 20)))
        assert singular._critical_point.cache_info().misses == 1
        assert singular._critical_point.cache_info().hits >= 1
        assert calls == [(Fraction(5, 2), Fraction(21, 20))]

    def test_keyed_on_the_point_only(self):
        a = critical_point(IsingParams(nu=2, c=Fraction(19, 20)))
        b = critical_point(IsingParams(nu=2, c=Fraction(19, 20), precision_bits=64))
        assert a is b

    def test_interval_isolates_the_characteristic_root(self):
        p = params(Fraction(3, 4), Fraction(11, 10))
        cp = critical_point(p)
        lo, hi = cp.interval
        bound = cp.bound
        assert bound == 1 / (3 * Fraction(11, 10) ** 2 * (1 - Fraction(3, 4) ** 2))
        assert 0 <= lo < hi <= bound
        assert hi - lo <= bound / 2 ** 20
        assert sturm_count(cp.char, lo, hi) == 1

    def test_cauchy_bound_at_nu_one(self):
        cp = critical_point(params(1, Fraction(9, 10)))
        assert cp.bound == cauchy_root_bound(cp.char)
        assert sturm_count(cp.char, 0, cp.bound) == 1

    def test_exact_endpoint_interval(self):
        cp = critical_point(params(5))
        assert cp.interval == (Fraction(1, 72), Fraction(1, 72))
        assert cp.z_at(Fraction(1, 72)) == Fraction(67, 20736)

    def test_refine_rejects_a_piece_without_the_root(self):
        cp = critical_point(params(2, Fraction(19, 20)))
        lo, hi = cp.interval
        mid = (lo + hi) / 2
        half = cp.refine(lo, hi, (hi - lo) / 2)
        other = (mid, hi) if half == (lo, mid) else (lo, mid)
        with pytest.raises(ValueError):
            cp.refine(*other, Fraction(1, 2 ** 60))
        with pytest.raises(ValueError):
            cp.refine(hi, hi + 1, Fraction(1, 2 ** 60))
        lo2, hi2 = cp.refine(lo, hi, Fraction(1, 2 ** 60))
        assert hi2 - lo2 <= Fraction(1, 2 ** 60)
        assert sturm_count(cp.char, lo2, hi2) == 1


SYM_S, SYM_Z = sympy.symbols("S z")


def sympy_poly(coeffs, var):
    return sum(sympy.Rational(q.numerator, q.denominator) * var ** k
               for k, q in enumerate(map(Fraction, coeffs)))


def sympy_in_s_and_z(c_sf: UniPoly):
    """A polynomial in S over Q[z] as a sympy expression in S and z."""
    return sum(sympy_poly(q.coeffs, SYM_Z) * SYM_S ** k for k, q in enumerate(c_sf.coeffs))


class TestSquarefreeCancellingPolynomial:
    """The univariate construction against sympy's bivariate gcd."""

    @pytest.mark.parametrize("nu, c", [
        (Fraction(1, 2), 1), (2, 1), (4, 1), (Fraction(13, 2), 1),
        (1, 1), (2, Fraction(19, 20)),
    ])
    def test_matches_bivariate_gcd_up_to_a_rational_factor(self, nu, c):
        p = params(nu, c)
        n_poly, d_poly = lagrangian_numer_denom(p, symbolic=False)
        big_c = sympy.expand(SYM_Z * sympy_poly(d_poly.coeffs, SYM_S) ** 2
                             - SYM_S * sympy_poly(n_poly.coeffs, SYM_S))
        oracle = sympy.Poly(sympy.cancel(big_c / sympy.gcd(big_c, sympy.diff(big_c, SYM_S))),
                            SYM_S, SYM_Z)
        c_sf = cancelling_polynomial_squarefree(p)
        assert c_sf.degree() == oracle.degree(SYM_S)
        pairs = [(Fraction(str(oracle.coeff_monomial(SYM_S ** k * SYM_Z ** j))), q.coeff(j))
                 for k, q in enumerate(c_sf.coeffs) for j in (0, 1)]
        assert all((a == 0) == (b == 0) for a, b in pairs)
        assert len({a / b for a, b in pairs if b != 0}) == 1

    def test_strips_one_factor_at_c_one_only(self):
        for c, drop in ((1, 1), (Fraction(21, 20), 0)):
            p = params(3, c)
            assert (cancelling_polynomial(p).degree()
                    - cancelling_polynomial_squarefree(p).degree()) == drop
            # the divisor is 1 at S = 0, so C_sf(z, 0) = C(z, 0)
            assert cancelling_polynomial_squarefree(p).coeff(0) == \
                cancelling_polynomial(p).coeff(0)


class TestDiscriminantInterpolation:
    @pytest.mark.parametrize("nu, c", [
        (2, Fraction(19, 20)),           # off c = 1
        (Fraction(1, 2), 1), (2, 1), (4, 1), (5, 1),
        (1, Fraction(9, 10)),            # nu = 1: Cauchy-bound search interval
        (2, Fraction(3, 2)),             # far field
    ])
    def test_matches_bivariate_discriminant(self, nu, c):
        p = params(nu, c)
        disc = sympy.discriminant(sympy_in_s_and_z(cancelling_polynomial_squarefree(p)), SYM_S)
        expect = [Fraction(str(q)) for q in reversed(sympy.Poly(disc, SYM_Z).all_coeffs())]
        assert discriminant_in_z(p) == UniPoly(expect)


class TestNewtonPolygon:
    def test_square_root_branch_pair(self):
        exps = newton_polygon_expand({(2, 0): Fraction(1), (0, 1): Fraction(-1)})
        assert len(exps) == 2
        assert sorted(e.terms[0][0] for e in exps) == [Fraction(-1), Fraction(1)]
        assert all(e.leading_exponent() == Fraction(1, 2) for e in exps)
        assert all(e.ramification == 2 for e in exps)
        assert all(e.exact for e in exps)

    def test_cube_root_branch(self):
        exps = newton_polygon_expand({(3, 0): Fraction(1), (0, 1): Fraction(-1)})
        assert any(e.leading_exponent() == Fraction(1, 3) for e in exps)
        for e in exps:
            assert e.leading_exponent() == Fraction(1, 3)
            assert e.ramification == 3

    def test_three_halves_exponent(self):
        exps = newton_polygon_expand({(2, 0): Fraction(1), (0, 3): Fraction(-1)})
        assert all(e.leading_exponent() == Fraction(3, 2) for e in exps)

    def test_transverse_lines_give_integer_branches(self):
        # (Y - Z)(Y - 2Z) = Y^2 - 3ZY + 2Z^2
        exps = newton_polygon_expand({
            (2, 0): Fraction(1), (1, 1): Fraction(-3), (0, 2): Fraction(2),
        })
        leads = sorted(e.terms[0][0] for e in exps)
        assert leads == [Fraction(1), Fraction(2)]
        assert all(e.leading_exponent() == 1 for e in exps)
        assert all(e.exact for e in exps)

    def test_y_factor_gives_zero_branch(self):
        # Y(Y - Z): the zero branch is reported with no terms
        exps = newton_polygon_expand({(2, 0): Fraction(1), (1, 1): Fraction(-1)})
        term_lists = sorted(e.terms for e in exps)
        assert term_lists[0] == ()
        assert term_lists[1] == ((Fraction(1), Fraction(1)),)

    def test_no_y_dependence_raises(self):
        with pytest.raises(DegenerateBranch):
            newton_polygon_expand({(0, 1): Fraction(1), (0, 2): Fraction(3)})

    def test_nonvanishing_origin_raises(self):
        with pytest.raises(DegenerateBranch):
            newton_polygon_expand({(0, 0): Fraction(1), (1, 1): Fraction(1)})

    def test_numeric_coefficients(self):
        with mpmath.workprec(128):
            exps = newton_polygon_expand(
                {(2, 0): mpmath.mpf(1), (0, 1): mpmath.mpf(-1)},
                precision_bits=128,
            )
        assert all(e.leading_exponent() == Fraction(1, 2) for e in exps)

    def test_second_term_of_smooth_branch(self):
        # Y = Z + Z^2 + ... solves Y - Z - Z Y = 0
        exps = newton_polygon_expand(
            {(1, 0): Fraction(1), (0, 1): Fraction(-1), (1, 1): Fraction(-1)},
            max_terms=2,
        )
        assert len(exps) == 1
        assert exps[0].terms[0] == (Fraction(1), Fraction(1))
        assert exps[0].terms[1] == (Fraction(1), Fraction(2))


class TestDominantExponent:
    def test_cube_root_at_critical_point(self):
        assert dominant_exponent(params(4)) == Fraction(1, 3)

    def test_square_root_at_rational_endpoint(self):
        assert dominant_exponent(params(5)) == Fraction(1, 2)
        assert dominant_exponent(params(9)) == Fraction(1, 2)

    def test_square_root_on_numeric_path(self):
        assert dominant_exponent(params(2)) == Fraction(1, 2)

    def test_square_root_off_c_one(self):
        assert dominant_exponent(params(4, Fraction(21, 20))) == Fraction(1, 2)

    def test_independent_of_precision(self):
        p = IsingParams(nu=2, c=Fraction(21, 20), precision_bits=16)
        assert radius_numeric(p).exponent == Fraction(1, 2)

    @pytest.mark.parametrize("num,z_prime,char,interval,expected", [
        # z' = (s^2 - 2)^2: m = 2 at s* = sqrt 2
        ([0, 4, 0, Fraction(-4, 3), 0, Fraction(1, 5)], [4, 0, -4, 0, 1],
         [-2, 0, 1], (1, 2), Fraction(1, 3)),
        # z' = (s - 1)(s + 1)^2: m = 1 at s* = 1; the double root of z' at
        # -1, a root of char outside the interval, does not count
        ([0, -1, Fraction(-1, 2), Fraction(1, 3), Fraction(1, 4)], [-1, -1, 1, 1],
         [-1, 0, 1], (0, 2), Fraction(1, 2)),
    ])
    def test_multiplicity_off_an_exact_hit(self, num, z_prime, char, interval,
                                           expected):
        num = UniPoly(num)
        assert num.derivative() == UniPoly(z_prime)
        cp = singular.CriticalPoint(
            num=num, den=UniPoly([1]), char=UniPoly(char), bound=Fraction(2),
            interval=tuple(map(Fraction, interval)), cancelling_sf=UniPoly([]),
        )
        assert cp.exponent() == expected

    @pytest.mark.parametrize("nu,c", [
        (4, 1), (5, 1), (2, 1), (Fraction(3, 4), Fraction(11, 10)),
        (4, Fraction(21, 20)),
    ])
    def test_matches_puiseux_branches(self, nu, c):
        report, expansions = dominant_expansions(params(nu, c), max_terms=1)
        leads = [e.leading_exponent() for e in expansions]
        assert report.exponent == min(x for x in leads
                                      if x is not None and x.denominator != 1)
