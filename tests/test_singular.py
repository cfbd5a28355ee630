"""Singularity location, discriminant structure, and Puiseux machinery."""
import functools
import math
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from isingmaps import exactalg, series, singular
from isingmaps.critical import chi_closed, m0_closed
from isingmaps.errors import DegenerateBranch, NoRootInRange
from isingmaps.exactalg import (
    PP_ZERO,
    UniPoly,
    cauchy_root_bound,
    squarefree_part,
    sturm_count,
)
from isingmaps.precision import to_mpf
from isingmaps.series import IsingParams, coefficient_sequence
from isingmaps.singular import (
    SingularityReport,
    cancelling_polynomial_squarefree,
    characteristic_root_polynomial,
    critical_point,
    discriminant_in_z,
    dominant_expansions,
    newton_polygon_expand,
    p1_p2_p3,
    radius_numeric,
    rho_closed_form,
    s_at_rho_closed_form,
)
from oracles import (
    approximate_roots_by_fractions, cancelling_pair_by_gcd, mp_value, mpmath_reversion,
    puiseux_residual, real_roots, reduced_z_and_char_by_gcd,
)


def params(nu, c=1):
    return IsingParams(nu=nu, c=c)


def point_n_d(p: IsingParams):
    """N and D at the point, as rational UniPoly read from the model tables."""
    return tuple(UniPoly([tab.get(k, PP_ZERO).evaluate(p.nu, p.c) for k in range(max(tab) + 1)])
                 for tab in series._symbolic_tables()[:2])


# every point the thermo-observables and radius-sweep benchmark pools draw
# (perfbench/workloads.py); radius-sweep's nu = 1/2 and 6 off c = 1 are
# thermo points too
THERMO_POINTS = [(nu, c) for nu in ("1/2", "5/2", "9/2", "6")
                 for c in ("9/10", "19/20", "21/20", "11/10")]
BENCHMARK_POINTS = (
    [(nu, "1") for nu in ("1/2", "3/4", "3/2", "2", "5/2", "3", "7/2", "4", "9/2", "5", "6")]
    + [("3/4", "9/10"), ("3/4", "11/10")] + THERMO_POINTS)
# the critical isotherm nu = 4 and the line nu > 4 close to c = 1, where s*
# nears a root of D; at c = 1 - 10^-20 that root lies in the isolating cell
NEAR_CRITICAL_POINTS = [(Fraction(nu), 1 + sign * Fraction(1, 10 ** e))
                        for nu in ("4", "17/4", "5", "6") for sign in (1, -1)
                        for e in (6, 9, 12, 20)]


# c = 1 and nu = 1, and nu >= 4 at c = 1, where D shares a factor with S N
POLE_GRID = [(Fraction(nu), Fraction(c))
             for nu in ("1/100", "1/4", "1/2", "3/4", "1", "3/2", "2", "5/2", "3", "4",
                        "9/2", "5", "6", "9", "1/100000000000000000000")
             for c in ("3/4", "9/10", "19/20", "1", "21/20", "11/10", "5/4")]


# The c = 1 closed forms as the literature writes them: the nu >= 4 branch
# in nu, the nu < 4 branch in r = sqrt(nu).
STATED_ABOVE = {
    "rho": lambda nu: (3 * nu ** 2 - 8) / (36 * (nu ** 2 - 1) ** 2),
    "s_at_rho": lambda nu: sympy.Rational(1, 3) / (nu ** 2 - 1),
    "M0": lambda nu: 3 * nu * sympy.sqrt(nu ** 2 - 16) / (3 * nu ** 2 - 8),
    "chi": lambda nu: sympy.oo,
}
STATED_BELOW = {
    "rho": lambda r: 2 * (1 + 2 * r) / (9 * (1 + r) ** 2 * (1 + r ** 2) ** 2),
    "s_at_rho": lambda r: sympy.Rational(1, 3) / ((r + 1) * (r ** 2 + 1)),
    "M0": lambda r: sympy.Integer(0),
    "chi": lambda r: 3 * r ** 2 / ((2 * r + 1) * (r - 2) ** 2),
}
CLOSED_FORM_FUNCTIONS = {"rho": rho_closed_form, "s_at_rho": s_at_rho_closed_form,
                         "M0": m0_closed, "chi": chi_closed}
CLOSED_FORM_GRID = sorted({Fraction(p, q) for p in range(1, 13) for q in range(1, 13)})
# where chi's former (sqrt(nu) - 2)^2 cancelled
NEAR_FOUR = [4 + sign * Fraction(1, 10 ** k) for k in (3, 10, 20, 30) for sign in (1, -1)]


def stated(name, nu: Fraction):
    nu = sympy.Rational(nu.numerator, nu.denominator)
    return STATED_ABOVE[name](nu) if nu >= 4 else STATED_BELOW[name](sympy.sqrt(nu))


@functools.lru_cache(maxsize=None)
def stated_value(name, nu: Fraction):
    """The stated value at nu: a Fraction where it is rational, else an mpf
    to 110 digits (sympy's evaluation adapts to the cancellation)."""
    want = stated(name, nu)
    if want == sympy.oo:
        return mpmath.inf
    if want.is_Rational:
        return Fraction(want.p, want.q)
    with mpmath.workprec(400):
        return mpmath.mpf(want.evalf(110))


def table_expression(branch, nu, r):
    """A branch of singular.CLOSED_FORMS as a sympy expression."""
    if branch is None:
        return sympy.oo
    p, q, factors = branch
    out = sympy.Rational(p, q)
    for x, coeffs, e in factors:
        at = nu if x == "nu" else r
        e = Fraction(e)
        out *= sum(a * at ** k for k, a in enumerate(coeffs)) ** sympy.Rational(
            e.numerator, e.denominator)
    return out


class TestClosedForms:
    @pytest.mark.parametrize("name", sorted(singular.CLOSED_FORMS))
    def test_tables_are_the_stated_formulas(self, name):
        nu, r = sympy.symbols("nu r", positive=True)
        for branch, x, want in zip(singular.CLOSED_FORMS[name], (sympy.sqrt(nu), r),
                                   (STATED_ABOVE[name](nu), STATED_BELOW[name](r))):
            got = table_expression(branch, x ** 2, x)
            assert got == want == sympy.oo or sympy.simplify(got - want) == 0

    @pytest.mark.parametrize("bits", [64, 192])
    def test_values_against_sympy_on_a_grid_and_near_four(self, bits):
        """A Fraction exactly where the stated value is rational, equal to
        it; else an mpf within 2^-(bits - 4) of it, relative."""
        for nu in CLOSED_FORM_GRID + NEAR_FOUR:
            for name, function in CLOSED_FORM_FUNCTIONS.items():
                value, want = function(nu, bits), stated_value(name, nu)
                if isinstance(want, Fraction):
                    assert type(value) is Fraction and value == want, (name, nu)
                elif want == mpmath.inf:
                    assert value == mpmath.inf
                else:
                    assert isinstance(value, mpmath.mpf), (name, nu)
                    with mpmath.workprec(400):
                        error = abs(value / want - 1)
                    assert error <= mpmath.mpf(2) ** (4 - bits), (name, nu, error)

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
            n_poly, _ = point_n_d(params(nu))
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

    def test_bad_root_hint_is_reported(self, monkeypatch):
        # every approximate root at 0: the disks coincide, so the float hint
        # loses the verdict instead of faking one
        monkeypatch.setattr(singular, "_approximate_roots",
                            lambda char, bound: [0j] * char.degree())
        for nu, c in ((2, 1), (Fraction(3, 4), Fraction(11, 10))):
            rep = radius_numeric(params(nu, c), with_exponent=False)
            assert not rep.uniqueness_checked
            assert [w for w in rep.warnings if "uniqueness undecided: " in w] == \
                ["dominant-singularity uniqueness undecided: root disks of char overlap"]


GRID_NUS = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1, Fraction(3, 2), 2,
            Fraction(5, 2), 3, Fraction(7, 2), 4, Fraction(9, 2), 5, 6, 9]
GRID_CS = [Fraction(3, 4), Fraction(9, 10), Fraction(19, 20), 1, Fraction(21, 20),
           Fraction(11, 10), Fraction(5, 4)]


def _candidate_moduli(p):
    """|z| at the code's approximate roots of char, and the exact |z(B)|."""
    cp = critical_point(p)
    with mpmath.workprec(64):
        num, den = ([mpmath.mpf(q.numerator) / q.denominator for q in reversed(f.coeffs)]
                    for f in (cp.num, cp.den))
        char_z = [abs(mpmath.polyval(num, r) / mpmath.polyval(den, r))
                  for r in singular._approximate_roots(cp.char, cp.bound)]
    z_b = abs(cp.z_at(cp.bound)) if cp.den.sign_at(cp.bound) else None
    return char_z, z_b


class TestUniquenessCertificate:
    """The root-disk certificate behind ``uniqueness_checked``."""

    @pytest.mark.slow
    def test_grid_certified_and_candidates_are_the_discriminant_roots(self):
        for nu in GRID_NUS:
            for c in GRID_CS:
                p = params(nu, c)
                rep = radius_numeric(p, with_exponent=False, allow_far_field=True)
                assert rep.uniqueness_checked, (nu, c, rep.warnings)
                char_z, z_b = _candidate_moduli(p)
                # the reference roots, solved in w = z / rho so they are of order 1
                disc = squarefree_part(discriminant_in_z(p))
                scaled = [q * rep.rho ** k for k, q in enumerate(disc.coeffs)]
                with mpmath.workprec(64):
                    ref = [abs(w) * rep.rho for w in mpmath.polyroots(
                        [mpmath.mpf(q.numerator) / q.denominator for q in reversed(scaled)],
                        maxsteps=100, extraprec=64)]

                    def near(x, xs):
                        return any(abs(x - y) <= 1e-9 * (y + rep.rho) for y in xs)

                    # every z(sigma) is a branch point; the discriminant has
                    # no other root but z(B), the dropped endpoint factor
                    assert all(near(x, ref) for x in char_z), (nu, c)
                    extra = char_z + ([mpmath.mpf(z_b.numerator) / z_b.denominator]
                                      if z_b is not None else [])
                    assert all(near(x, extra) for x in ref), (nu, c)

    @pytest.mark.parametrize("nu, c", [(6, Fraction(9, 10)), (Fraction(1, 2), 1)])
    def test_rho_interval_on_another_candidate_is_undecided(self, nu, c):
        p = params(nu, c)
        cp = critical_point(p)
        rep = radius_numeric(p, with_exponent=False, scan_uniqueness=False)
        char_z, _ = _candidate_moduli(p)
        rho = mpmath.mpf(rep.rho.numerator) / rep.rho.denominator
        others = [x for x in char_z if abs(x - rho) > 1e-6 * rho]
        assert others
        for x in others:
            mid = Fraction(mpmath.nstr(x, 30))
            fake = (mid - mid / 10 ** 12, mid + mid / 10 ** 12)
            reason = singular._uniqueness_certificate(cp, rep.s_interval, fake,
                                                      (cp.bound,))
            assert reason == "a root of char maps near |z| = rho", (x, reason)
        if cp.den.sign_at(cp.bound):
            fake = (abs(cp.z_at(cp.bound)),) * 2
            assert singular._uniqueness_certificate(
                cp, rep.s_interval, fake, (cp.bound,)).startswith("z(")

    @pytest.mark.parametrize("nu, c", [(Fraction(9, 2), 1), (4, 1), (2, 1)])
    def test_close_calls_certify(self, nu, c):
        p = params(nu, c)
        rep = radius_numeric(p, with_exponent=False)
        assert rep.uniqueness_checked and not rep.warnings
        cp = critical_point(p)
        char_z, z_b = _candidate_moduli(p)
        rho = float(rep.rho)
        if (nu, c) == (Fraction(9, 2), 1):
            # a root of char maps to 0.9997 rho
            assert any(0.9996 < x / rho < 0.9998 for x in char_z)
        if (nu, c) == (4, 1):
            assert rep.exact and rep.s_interval == (cp.bound, cp.bound)
        if (nu, c) == (2, 1):
            # z(B) = 1/81 is inside the disc, not on its circle
            assert z_b == Fraction(1, 81) < rep.rho_interval[0]

    def test_root_hints_equal_the_fraction_scaled_ones(self):
        # char(B t) / lc scaled in integers rounds each coefficient as
        # float(Fraction) does, so the hints are the same floats
        for point in POLE_GRID:
            try:
                cp = critical_point(params(*point))
            except NoRootInRange:
                continue
            assert singular._approximate_roots(cp.char, cp.bound) == \
                approximate_roots_by_fractions(cp.char, cp.bound), point

    def test_tight_root_cluster_is_certified(self, monkeypatch):
        # four roots of char within 5e-11 of 1/3, whose float disks overlap:
        # the integer pass splits them, and their z-values are told apart
        # from rho once it is read to CLUSTER_TOL
        passes = []
        refine = singular._refine_roots
        monkeypatch.setattr(singular, "_refine_roots",
                            lambda *args: passes.append(args[2]) or refine(*args))
        rep = radius_numeric(params(Fraction(1, 10 ** 20)), with_exponent=False)
        assert len(passes) == 1
        assert rep.uniqueness_checked and not rep.warnings

    def test_certified_points_make_no_second_pass(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("second root pass")

        monkeypatch.setattr(singular, "_refine_roots", refuse)
        for nu, c in BENCHMARK_POINTS:
            rep = radius_numeric(params(Fraction(nu), Fraction(c)), with_exponent=False)
            assert rep.uniqueness_checked, (nu, c)

    def test_conjugate_pair_on_the_circle_is_undecided(self):
        # z(s) = s and char = (s - 1/2)(s^2 + 1/4): rho = z(1/2) = 1/2, and
        # the roots +-i/2 of char map onto |z| = rho
        half = Fraction(1, 2)
        cp = singular.CriticalPoint(
            num=UniPoly([0, 1]), den=UniPoly([1]), char=UniPoly([-1, 2, -4, 8]),
            bound=Fraction(1), interval=(half, half))
        assert cp.z_at(half) == half
        reason = singular._uniqueness_certificate(cp, (half, half), (half, half), ())
        assert reason == "a root of char maps near |z| = rho"

    def test_verdict_reads_rho_at_least_to_default_width(self):
        # at tol 1e-3 the reported rho interval reaches another candidate;
        # the verdict reads rho to 1e-12 instead, so it still certifies
        p = params(3, Fraction(9, 10))
        cp = critical_point(p)
        rep = radius_numeric(p, tol=Fraction(1, 1000), with_exponent=False)
        assert rep.uniqueness_checked
        assert rep.rho_interval[1] - rep.rho_interval[0] > Fraction(1, 10 ** 12)
        assert singular._uniqueness_certificate(cp, rep.s_interval, rep.rho_interval,
                                                (cp.bound,)) is not None


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
    def test_gcds_read_off_the_poles_equal_the_remainder_sequences(self, monkeypatch):
        # the CriticalPoint built from the vanishing orders at the poles of
        # D equals, field for field, the one built from two poly_gcd
        # remainder sequences; points with no root in (0, B] fail alike
        def build(point):
            try:
                return singular._critical_point.__wrapped__(*point)
            except NoRootInRange as exc:
                return str(exc)

        fast = {point: build(point) for point in POLE_GRID}
        monkeypatch.setattr(singular, "_reduced_z_and_char", reduced_z_and_char_by_gcd)
        for point in POLE_GRID:
            assert build(point) == fast[point], point
        assert sum(isinstance(cp, str) for cp in fast.values()) < len(POLE_GRID) // 4

    def test_cancelling_pair_equals_the_remainder_sequences(self):
        for point in POLE_GRID:
            p = params(*point)
            try:
                pair = cancelling_polynomial_squarefree(p)
            except NoRootInRange:
                continue
            assert pair == cancelling_pair_by_gcd(p), point

    def test_only_the_squarefree_part_takes_a_gcd(self, monkeypatch):
        calls = []
        gcd_ = exactalg.poly_gcd

        def counted(f, g):
            calls.append((f, g))
            return gcd_(f, g)

        monkeypatch.setattr(exactalg, "poly_gcd", counted)
        monkeypatch.setattr(singular, "poly_gcd", counted)
        # at (5, 1) D shares a factor with S N, at (1/2, 21/20) it does not
        for nu, c in ((Fraction(5), Fraction(1)), (Fraction(1, 2), Fraction(21, 20))):
            singular._critical_point.__wrapped__(nu, c)
            (f, g), = calls
            assert g == f.derivative()
            calls.clear()

    def test_one_radius_call_builds_it_once(self, monkeypatch):
        calls = []
        parts = singular._lagrangian_parts

        def counted(p):
            calls.append((p.nu, p.c))
            return parts(p)

        monkeypatch.setattr(singular, "_lagrangian_parts", counted)
        singular._critical_point.cache_clear()
        # the exponent and the uniqueness certificate both read the one
        # CriticalPoint that radius_numeric looked up
        radius_numeric(params(Fraction(5, 2), Fraction(21, 20)))
        assert singular._critical_point.cache_info().misses == 1
        assert singular._critical_point.cache_info().hits == 0
        assert calls == [(Fraction(5, 2), Fraction(21, 20))]

    @pytest.mark.parametrize("nu, c", [(Fraction(5), Fraction(1)),
                                       (Fraction(2), Fraction(21, 20))])
    def test_branches_and_cancelling_curve_build_it_once(self, monkeypatch, nu, c):
        # the Puiseux branches and the cancelling curve both read the one
        # CriticalPoint: no second evaluation of the N and D tables
        calls = []
        parts = singular._lagrangian_parts

        def counted(p):
            calls.append((p.nu, p.c))
            return parts(p)

        monkeypatch.setattr(singular, "_lagrangian_parts", counted)
        singular._critical_point.cache_clear()
        dominant_expansions(params(nu, c))
        cancelling_polynomial_squarefree(params(nu, c))
        assert calls == [(nu, c)]

    @pytest.mark.parametrize("nu, c", [(nu, "1") for nu in (
        "1/2", "3/4", "3/2", "2", "5/2", "3", "7/2", "4", "9/2", "5", "6")]
        + [(nu, c) for nu in ("1/2", "3/4", "6") for c in ("9/10", "11/10")]
        + [(nu, c) for nu in ("1/2", "5/2", "9/2", "6")
           for c in ("9/10", "19/20", "21/20", "11/10")])
    def test_lagrangian_parts_equal_the_integer_forms(self, nu, c):
        # the radius-sweep and thermo-observables benchmark points: the
        # tables evaluated over one denominator give the integer forms of
        # the Fraction-valued N and D
        p = params(Fraction(nu), Fraction(c))
        n, d = (q.integer_form() for q in point_n_d(p))
        sn, a, dd, b = singular._lagrangian_parts(p)
        assert (sn.coeffs, a, dd.coeffs, b) == ([0, *n.coeffs], n.den, list(d.coeffs), d.den)
        assert all(type(x) is int for x in sn.coeffs + dd.coeffs)

    def test_generic_point_runs_no_gcd_sequence(self, monkeypatch):
        # every gcd is 1 at a generic point: the modular certificate decides
        # each one, and the only remainder sequence is char's Sturm chain
        runs = []
        sequence = exactalg._remainder_sequence

        def counted(f, g, sturm=False):
            runs.append(sturm)
            return sequence(f, g, sturm)

        monkeypatch.setattr(exactalg, "_remainder_sequence", counted)
        singular._critical_point.cache_clear()
        cp = singular._critical_point(Fraction(5, 2), Fraction(21, 20))
        assert cp.exponent() == Fraction(1, 2)
        assert runs == [True]
        # at c = 1 the gcds with D are not 1, but they are read off the
        # poles of D, so again no sequence runs but Sturm chains, and char
        # (up to a positive factor) and interval are those over Q
        runs.clear()
        cp = singular._critical_point(Fraction(2), Fraction(1))
        assert False not in runs
        assert cp.char.lc() > 0 and cp.char.exact_div(cp.char.lc()) == UniPoly(
            [Fraction(-1, 2187), Fraction(4, 729), Fraction(2, 27), Fraction(4, 9), 1])
        assert cp.interval == (Fraction(72389, 1572864), Fraction(434335, 9437184))
        assert cp.exponent() == Fraction(1, 2)

    def test_keyed_on_the_point_only(self):
        a = critical_point(IsingParams(nu=2, c=Fraction(19, 20)))
        b = critical_point(IsingParams(nu=2, c=Fraction(19, 20)))
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

    def test_smallest_of_several_roots(self):
        # at (1/100, 9/10) char has two roots in (0, B], on either side of
        # the pole of z at s ~ 0.37041; s* is the smaller one
        p = params(Fraction(1, 100), Fraction(9, 10))
        cp = critical_point(p)
        lo, hi = cp.interval
        assert sturm_count(cp.char, 0, cp.bound) == 2
        assert sturm_count(cp.char, 0, lo) == 0 and sturm_count(cp.char, lo, hi) == 1
        assert 0.33333 < lo < hi < 0.33335
        rep = radius_numeric(p)
        assert rep.uniqueness_checked and rep.exponent == Fraction(1, 2)
        # Z_n ~ C mu^-n n^(-5/2): mu from the series excludes the second
        # root, whose c z is about 0.215144
        z = coefficient_sequence(p, 200, 128)
        estimate = mpmath.sqrt(z[197] / z[199]) * (mpmath.mpf(198) / 200) ** 1.25
        assert abs(estimate - float(rep.mu)) < 1e-4

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


def _fraction_certify_rho(cp, tol):
    """``singular._certify_rho`` run in Fraction arithmetic, step for step:
    the oracle the integer route must reproduce.  Plain bisection by the
    sign of char first narrows the cell, to 1, 2, 4, ... levels further
    down, while den is not positive on it (its least value taken at the
    ends and at the real zeros of den' inside, found by sympy); then the
    Lipschitz bound of that cell fixes the level where the enclosure is
    within tol, and bisection runs to it.  A rational s* is a multiple of
    1/lc(char); it is tested for once, when the cell first gets narrower
    than 1/lc."""
    lo, hi = cp.interval
    if lo == hi:
        z_exact = cp.z_at(lo)
        return (lo, hi), (z_exact, z_exact), True
    up = cp.char.eval_scalar(hi) > 0
    lc = abs(cp.char.lc())
    turns = real_roots(cp.den.derivative())

    def den_min(lo, hi):
        return min(cp.den.eval_scalar(s) for s in [lo, hi] + [t for t in turns if lo < t < hi])

    def lip(lo, hi):
        scale = max(hi, Fraction(1))
        sup_num_d = singular._poly_abs_bound(cp.num.derivative(), scale)
        sup_num_den_d = (singular._poly_abs_bound(cp.num, scale)
                         * singular._poly_abs_bound(cp.den.derivative(), scale))
        dm = den_min(lo, hi)
        return sup_num_d / dm + sup_num_den_d / dm ** 2

    def bisect(lo, hi, steps, candidate):
        # the cell ``steps`` levels down, or the exact s* met on the way
        while True:
            if candidate and hi - lo < Fraction(1, lc):
                candidate = False
                s = Fraction(math.floor(hi * lc), lc)
                if lo < s and cp.char.eval_scalar(s) == 0:
                    return s, s, candidate
            if not steps:
                return lo, hi, candidate
            steps -= 1
            mid = (lo + hi) / 2
            side = cp.char.eval_scalar(mid)
            if side == 0:
                return mid, mid, candidate
            if (side > 0) == up:
                hi = mid
            else:
                lo = mid

    candidate, step = True, 1
    while lo < hi and den_min(lo, hi) <= 0:
        lo, hi, candidate = bisect(lo, hi, step, candidate)
        step *= 2
    if lo < hi:
        steps, reach = 0, lip(lo, hi) * (hi - lo)
        while reach > tol:
            steps, reach = steps + 1, reach / 2
        lo, hi, candidate = bisect(lo, hi, steps, candidate)
    if lo == hi:
        z_exact = cp.z_at(lo)
        return (lo, hi), (z_exact, z_exact), True
    lower = max(cp.num.eval_scalar(lo) / cp.den.eval_scalar(lo),
                cp.num.eval_scalar(hi) / cp.den.eval_scalar(hi))
    return (lo, hi), (lower, lower + lip(lo, hi) * (hi - lo)), False


CERTIFY_POINTS = [
    (Fraction(1, 2), Fraction(9, 10)), (Fraction(3, 4), Fraction(11, 10)),
    (1, Fraction(9, 10)), (1, Fraction(21, 20)), (Fraction(3, 2), Fraction(19, 20)),
    (2, 1), (Fraction(1, 2), 1), (4, 1), (5, 1), (Fraction(1, 4), 1),
    (4, Fraction(21, 20)), (6, Fraction(11, 10)), (Fraction(4, 9), 1),
]
CERTIFY_TOLS = [Fraction(1, 10 ** 6), Fraction(1, 10 ** 12), Fraction(1, 10 ** 28),
                Fraction(1, 10 ** 40), Fraction(1, 10 ** 60)]


class TestCertifyRhoOracle:
    """The integer loop returns the Fraction loop's intervals, exactly."""

    @pytest.mark.parametrize("nu, c", CERTIFY_POINTS + NEAR_CRITICAL_POINTS)
    def test_matches_the_fraction_loop(self, nu, c):
        cp = critical_point(params(nu, c))
        for tol in CERTIFY_TOLS:
            got = singular._certify_rho(cp, tol)
            assert got == _fraction_certify_rho(cp, tol), (nu, c, tol)
            (s_lo, s_hi), (r_lo, r_hi), exact = got
            assert all(type(v) is Fraction for v in (s_lo, s_hi, r_lo, r_hi))
            assert exact == (s_lo == s_hi) and r_hi - r_lo <= tol

    @pytest.mark.parametrize("nu, c", BENCHMARK_POINTS)
    def test_matches_the_fraction_loop_at_the_benchmark_points(self, nu, c):
        cp = critical_point(params(Fraction(nu), Fraction(c)))
        for tol in CERTIFY_TOLS:
            assert singular._certify_rho(cp, tol) == _fraction_certify_rho(cp, tol), tol

    @given(st.fractions(min_value=Fraction(1, 4), max_value=Fraction(7), max_denominator=12),
           st.fractions(min_value=Fraction(9, 10), max_value=Fraction(11, 10),
                        max_denominator=60))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_fraction_loop_near_c_one(self, nu, c):
        cp = critical_point(params(nu, c))
        for tol in (CERTIFY_TOLS[1], CERTIFY_TOLS[2]):
            assert singular._certify_rho(cp, tol) == _fraction_certify_rho(cp, tol), tol

    @pytest.mark.parametrize("nu", [Fraction(4), Fraction(17, 4), Fraction(5), Fraction(6)])
    def test_a_pole_in_the_isolating_cell_is_narrowed_away(self, nu):
        # den vanishes in the isolating cell, at the root of D next to s*;
        # the returned cell is one where den is positive, inside it
        cp = critical_point(params(nu, 1 - Fraction(1, 10 ** 20)))
        assert cp.den_min(*cp.interval) <= 0
        assert [t for t in cp.turns if cp.interval[0] < t < cp.interval[1]]
        for tol in (CERTIFY_TOLS[1], CERTIFY_TOLS[2]):
            (s_lo, s_hi), (r_lo, r_hi), exact = singular._certify_rho(cp, tol)
            assert not exact and cp.interval[0] <= s_lo < s_hi <= cp.interval[1]
            assert cp.den_min(s_lo, s_hi) > 0 and 0 < r_hi - r_lo <= tol

    def test_den_min_is_the_least_value_on_the_cell(self):
        # den = K (1 - s/r)^2 (1 + s/r)^2 off c = 1: its zeros at +-r and its
        # maximum at 0 are the zeros of den'; sampled values never go below
        cp = critical_point(params(6, Fraction(11, 10)))
        r = singular._poles(Fraction(6), Fraction(11, 10))[0]
        assert cp.turns == tuple(sorted((r, Fraction(0), -r)))
        assert cp.den_min(Fraction(-1, 100), Fraction(1, 100)) == 0
        for lo, hi in ((Fraction(-1, 1000), Fraction(1, 1000)), (Fraction(0), Fraction(1, 200))):
            least = cp.den_min(lo, hi)
            assert least in (cp.den.eval_scalar(lo), cp.den.eval_scalar(hi))
            assert all(cp.den.eval_scalar(lo + (hi - lo) * j / 64) >= least for j in range(65))

    def test_exact_hits_at_c_one(self):
        # (4, 1) and (5, 1): s* is the end B of the search interval
        for nu in (4, 5):
            cp = critical_point(params(nu))
            assert cp.interval[0] == cp.interval[1]
            assert singular._certify_rho(cp, CERTIFY_TOLS[-1])[2]
        # (1/4, 1): s* = B/2, so a loop started on (0, B] hits it at the
        # first midpoint
        cp = critical_point(params(Fraction(1, 4)))
        wide = cp._replace(interval=(Fraction(0), cp.bound))
        got = singular._certify_rho(wide, CERTIFY_TOLS[-1])
        assert got == _fraction_certify_rho(wide, CERTIFY_TOLS[-1])
        assert got[0] == (cp.bound / 2, cp.bound / 2) and got[2]

    def test_rational_s_star_off_a_bisection_point_is_exact(self):
        # s* = 9/65 at (4/9, 1) is no bisection point of the search interval;
        # the one multiple of 1/lc(char) in a narrow enough interval is s*
        nu = Fraction(4, 9)
        cp = critical_point(params(nu))
        assert cp.interval[0] < cp.interval[1]
        for tol in (Fraction(1, 10 ** 12), Fraction(1, 10 ** 28)):
            rep = radius_numeric(params(nu), tol=tol, with_exponent=False)
            assert rep.exact and rep.s_at_rho == Fraction(9, 65) == s_at_rho_closed_form(nu)
            assert rep.rho == rho_closed_form(nu)
        # an irrational s* stays an interval
        assert not radius_numeric(params(Fraction(1, 2)), with_exponent=False).exact

    @pytest.mark.parametrize("c", [Fraction(9, 10), Fraction(21, 20), Fraction(3)])
    def test_linear_char_at_nu_one_is_exact(self, c):
        # z(s) = s - 3 (1 + c^2) s^2, so s* = 1/(6 (1 + c^2)), rho = 1/(12 (1 + c^2))
        cp = critical_point(params(1, c))
        s_star = 1 / (6 * (1 + c * c))
        assert cp.char.degree() == 1 and cp.interval == (s_star, s_star)
        rep = radius_numeric(params(1, c))
        assert rep.exact and rep.rho == 1 / (12 * (1 + c * c)) and rep.s_at_rho == s_star
        assert rep.exponent == Fraction(1, 2)
        # every c is validated at nu = 1, far field included
        assert rep.uniqueness_checked and rep.warnings == ()

    @pytest.mark.parametrize("nu, c", [(1, Fraction(9, 10)), (1, Fraction(11, 10)),
                                       (Fraction(3, 4), Fraction(11, 10)),
                                       (2, Fraction(19, 20))])
    def test_from_the_whole_search_interval(self, nu, c):
        # started on (0, B]: at nu = 1, B > 1, so the sup bounds are retaken
        # at every step while hi > 1
        cp = critical_point(params(nu, c))
        wide = cp._replace(interval=(Fraction(0), cp.bound))
        for tol in (CERTIFY_TOLS[1], CERTIFY_TOLS[-1]):
            assert singular._certify_rho(wide, tol) == _fraction_certify_rho(wide, tol)


class TestRefinementWork:
    """Signs counted, not timed: quadratic interval refinement takes a few
    where bisection took one per bit (21 to isolate s*, 175 to 271 more for
    the radius at tol 1e-28 at the thermo points, and 300 to 770 close to
    c = 1 at nu >= 4)."""

    @pytest.mark.parametrize("nu, c", NEAR_CRITICAL_POINTS)
    def test_sign_evaluations_close_to_the_critical_line(self, monkeypatch, nu, c):
        calls = []
        dyadic = exactalg.IntegerForm.dyadic

        def counted(form, x, k):
            calls.append(k)
            return dyadic(form, x, k)

        cp = critical_point(params(nu, c))
        monkeypatch.setattr(exactalg.IntegerForm, "dyadic", counted)
        for tol in (Fraction(1, 10 ** 12), Fraction(1, 10 ** 28)):
            calls.clear()
            singular._certify_rho(cp, tol)
            assert len(calls) <= 60, tol

    @pytest.mark.parametrize("nu, c", THERMO_POINTS)
    def test_sign_evaluations_at_the_thermo_points(self, monkeypatch, nu, c):
        calls = []
        dyadic = exactalg.IntegerForm.dyadic

        def counted(form, x, k):
            calls.append(k)
            return dyadic(form, x, k)

        monkeypatch.setattr(exactalg.IntegerForm, "dyadic", counted)
        # the uncached build: its only signs isolate s* to width B / 2^20,
        # from (0, B], where the first secant steps can fail
        cp = singular._critical_point.__wrapped__(Fraction(nu), Fraction(c))
        assert len(calls) <= 15
        calls.clear()
        singular._certify_rho(cp, Fraction(1, 10 ** 28))
        assert len(calls) <= 40


SYM_S, SYM_Z = sympy.symbols("S z")


def sympy_poly(coeffs, var):
    return sum(sympy.Rational(q.numerator, q.denominator) * var ** k
               for k, q in enumerate(map(Fraction, coeffs)))


def sympy_in_s_and_z(c_sf):
    """z B(S) - A(S), for the pair (A, B), as a sympy expression in S and z."""
    a_poly, b_poly = c_sf
    return SYM_Z * sympy_poly(b_poly.coeffs, SYM_S) - sympy_poly(a_poly.coeffs, SYM_S)


class TestSquarefreeCancellingPolynomial:
    """The univariate construction against sympy's bivariate gcd."""

    @pytest.mark.parametrize("nu, c", [
        (Fraction(1, 2), 1), (2, 1), (4, 1), (Fraction(13, 2), 1),
        (1, 1), (2, Fraction(19, 20)),
    ])
    def test_matches_bivariate_gcd_up_to_a_rational_factor(self, nu, c):
        p = params(nu, c)
        n_poly, d_poly = point_n_d(p)
        big_c = sympy.expand(SYM_Z * sympy_poly(d_poly.coeffs, SYM_S) ** 2
                             - SYM_S * sympy_poly(n_poly.coeffs, SYM_S))
        oracle = sympy.Poly(sympy.cancel(big_c / sympy.gcd(big_c, sympy.diff(big_c, SYM_S))),
                            SYM_S, SYM_Z)
        a_poly, b_poly = cancelling_polynomial_squarefree(p)
        d = max(a_poly.degree(), b_poly.degree())
        assert d == oracle.degree(SYM_S)
        pairs = [(Fraction(str(oracle.coeff_monomial(SYM_S ** k * SYM_Z ** j))), q)
                 for k in range(d + 1)
                 for j, q in enumerate((-a_poly.coeff(k), b_poly.coeff(k)))]
        assert all((a == 0) == (b == 0) for a, b in pairs)
        assert len({a / b for a, b in pairs if b != 0}) == 1

    def test_strips_one_factor_at_c_one_only(self):
        for c, drop in ((1, 1), (Fraction(21, 20), 0)):
            p = params(3, c)
            n_poly, d_poly = point_n_d(p)
            sn, dd = UniPoly([0] + n_poly.coeffs), d_poly * d_poly
            a_poly, b_poly = cancelling_polynomial_squarefree(p)
            assert (max(sn.degree(), dd.degree())
                    - max(a_poly.degree(), b_poly.degree())) == drop
            # the divisor is 1 at S = 0, so C_sf(z, 0) = C(z, 0)
            assert (a_poly.coeff(0), b_poly.coeff(0)) == (sn.coeff(0), dd.coeff(0))

    @pytest.mark.parametrize("nu, c", [(5, 1), (Fraction(1, 4), 1), (4, 1), (6, 1),
                                       (1, Fraction(21, 20))])
    def test_point_taylor_lists_are_the_sympy_expansion(self, nu, c):
        # at exact hits (irrational edge roots at (5, 1), rational ones at
        # (1/4, 1), the cube-root point (4, 1), nu = 1) the enclosures of
        # num(s* - Y) and den(s* - Y) that dominant_expansions reads are
        # points, the whole polynomials as sympy expands them
        report = radius_numeric(params(nu, c), scan_uniqueness=False)
        assert report.exact
        cp, big_y = critical_point(params(nu, c)), sympy.Symbol("Y")
        s0 = sympy.Rational(report.s_at_rho.numerator, report.s_at_rho.denominator)
        for poly in (cp.num, cp.den):
            order = max(len(cp.num.coeffs), len(cp.den.coeffs))
            lists = singular._taylor_at(poly, report.s_interval, order, 256)
            shifted = sympy.Poly(sympy.expand(sympy_poly(poly.coeffs, SYM_S).subs(
                SYM_S, s0 - big_y)), big_y)
            expect = [Fraction(str(q)) for q in reversed(shifted.all_coeffs())]
            expect += [Fraction(0)] * (order - len(expect))
            assert lists == [(x, x) for x in expect]


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


def point_list(*xs):
    """Point enclosures of the coefficients xs of Y^0, Y^1, .."""
    return [(Fraction(x), Fraction(x)) for x in xs]


class TestNewtonPolygon:
    """Toy curves Z b(Y) = a(Y), as (a, b) coefficient lists."""

    def test_square_root_branch_pair(self):
        exps = newton_polygon_expand(point_list(0, 0, 1), point_list(1), 2)
        assert len(exps) == 2
        assert sorted(e.terms[0][0] for e in exps) == [Fraction(-1), Fraction(1)]
        assert all(e.leading_exponent() == Fraction(1, 2) for e in exps)
        assert all(e.ramification == 2 for e in exps)
        assert all(e.exact for e in exps)

    def test_cube_root_branch(self):
        exps = newton_polygon_expand(point_list(0, 0, 0, 1), point_list(1), 3)
        assert any(e.leading_exponent() == Fraction(1, 3) for e in exps)
        for e in exps:
            assert e.leading_exponent() == Fraction(1, 3)
            assert e.ramification == 3

    def test_ramification_four_is_refused_and_named(self):
        with pytest.raises(DegenerateBranch, match="ramification 4"):
            newton_polygon_expand(point_list(0, 0, 0, 0, 1), point_list(1), 4)

    @pytest.mark.parametrize("max_terms", [0, -1])
    def test_max_terms_below_one_raises(self, max_terms):
        with pytest.raises(ValueError):
            newton_polygon_expand(point_list(0, 0, 1), point_list(1), 2, max_terms=max_terms)
        with pytest.raises(ValueError):
            dominant_expansions(params(2), max_terms=max_terms)

    def test_cube_roots_of_a_negative_leading_coefficient(self):
        # -8 Z = Y^3: Y = -2 Z^(1/3) and its two rotations, the real one first
        exps = newton_polygon_expand(point_list(0, 0, 0, 1), point_list(-8), 3)
        assert exps[0].terms == ((Fraction(-2), Fraction(1, 3)),)
        assert all(e.exact for e in exps)
        for e in exps[1:]:
            (box, _), = e.terms
            assert box.re == (Fraction(1), Fraction(1))
            lo, hi = box.im
            assert lo < hi and lo * hi > 0 and min(lo * lo, hi * hi) < 3 < max(lo * lo, hi * hi)

    def test_imaginary_square_roots(self):
        # -Z (1 + Y) = Y^2: Y = +-i Z^(1/2) to leading order
        exps = newton_polygon_expand(point_list(0, 0, 1), point_list(-1, -1), 2, max_terms=2)
        leads = [e.terms[0][0] for e in exps]
        assert [box.im for box in leads] == [(-1, -1), (1, 1)]
        assert all(box.re == (0, 0) for box in leads)
        assert not any(e.exact for e in exps)

    def test_second_term_of_smooth_branch(self):
        # Y = Z + Z^2 + ... solves Z (1 + Y) = Y
        exps = newton_polygon_expand(point_list(0, 1), point_list(1, 1), 1, max_terms=2)
        assert len(exps) == 1
        assert exps[0].terms[0] == (Fraction(1), Fraction(1))
        assert exps[0].terms[1] == (Fraction(1), Fraction(2))


PUISEUX_POINTS = [(2, Fraction(21, 20)), (2, 1), (6, Fraction(11, 10)),
                  (Fraction(3, 4), Fraction(11, 10)), (5, 1), (4, 1), (Fraction(1, 4), 1)]


class TestReversion:
    @pytest.mark.parametrize("nu, c", PUISEUX_POINTS)
    def test_enclosures_hold_a_400_bit_reversion(self, nu, c):
        report, expansions = dominant_expansions(params(nu, c), max_terms=8)
        reference = mpmath_reversion(params(nu, c), 8)
        branches = [e for e in expansions if e.terms]
        assert len(branches) == len(reference) == report.exponent.denominator
        with mpmath.workprec(400):
            tol = mpmath.mpf(2) ** -300
            for e in branches:
                assert e.ramification == report.exponent.denominator
                lead = mp_value(e.terms[0][0])
                ref = min(reference, key=lambda b: abs(b[0] - lead))
                assert [t for _, t in e.terms] == [Fraction(j, e.ramification) for j in range(1, 9)]
                for (coef, _), x in zip(e.terms, ref):
                    if isinstance(coef, Fraction):
                        assert abs(x - to_mpf(coef)) <= tol * abs(x)
                        continue
                    for (lo, hi), part in ((coef.re, x.real), (coef.im, x.imag)):
                        if lo == hi:
                            assert abs(part - to_mpf(lo)) <= tol * abs(x)
                        else:
                            assert to_mpf(lo) < part < to_mpf(hi)
                            # rounded outward to 192 bits, not wider
                            assert hi - lo <= max(abs(lo), abs(hi)) / 2 ** 189

    @pytest.mark.parametrize("nu", [Fraction(1, 4), 4, 5, 6, 1])
    def test_branches_at_exact_hits_back_substitute(self, nu):
        c = Fraction(21, 20) if nu == 1 else 1
        report, expansions = dominant_expansions(params(nu, c), max_terms=5)
        assert report.exact
        for e in expansions:
            if not e.terms:
                assert e.exact
                continue
            last = e.terms[-1][1]
            residual = puiseux_residual(params(nu, c), report.s_at_rho, report.rho, e.terms)
            # a wrong coefficient at Z^e shows at Z^(e + 1 - 1/v), the
            # truncation only at Z^(last + 1), which sets the scale: the
            # terms past it grow like rho^-x and would hide a wrong last one
            low = {x: r for x, r in residual.items() if x < last + 1}
            if all(isinstance(coef, Fraction) for coef, _ in e.terms):
                assert all(r == 0 for r in low.values())
            else:
                top = max([abs(mpmath.mpc(r)) for x, r in residual.items()
                           if x <= last + 1] + [1])
                assert all(abs(mpmath.mpc(r)) <= top * mpmath.mpf(2) ** -150 for r in low.values())

    @pytest.mark.parametrize("nu, c, zero", [
        (nu, 1, True) for nu in ("4", "9/2", "5", "6", "25/4")] + [
        (nu, 1, False) for nu in ("1/4", "9/4", "1/9", "49/16")] + [
        ("1", c, False) for c in ("1", "21/20", "3/2")])
    def test_zero_branch_exactly_where_s_star_is_a_root_of_d(self, nu, c, zero):
        # the exact hits: the line S = s* of the cancelling curve, at c = 1
        # for nu >= 4, gives the zero branch Y = 0 first; elsewhere none
        report, expansions = dominant_expansions(params(Fraction(nu), Fraction(c)), max_terms=2)
        assert report.exact
        empty = [i for i, e in enumerate(expansions) if not e.terms]
        assert empty == ([0] if zero else [])
        if zero:
            assert expansions[0].exact and expansions[0].ramification == 1
        assert len(expansions) == zero + report.exponent.denominator

    def test_shorter_runs_are_prefixes(self):
        full = dominant_expansions(params(2, Fraction(21, 20)), max_terms=6)[1]
        for n in range(1, 6):
            assert [e.terms for e in dominant_expansions(params(2, Fraction(21, 20)),
                                                         max_terms=n)[1]] \
                == [e.terms[:n] for e in full]

    def test_quarter_is_rational_and_cube_root_point_is_not(self):
        quarter = dominant_expansions(params(Fraction(1, 4)))[1]
        assert [e.terms[0][0] for e in quarter] == [Fraction(-1, 3), Fraction(1, 3)]
        zero, real, low, high = dominant_expansions(params(4))[1]
        assert zero.terms == () and zero.exact
        assert real.terms[0][0].im == (0, 0)
        assert low.terms[0][0].im[1] < 0 < high.terms[0][0].im[0]
        # Z^1 is c_3 / alpha on every branch: exact, and real
        assert {e.terms[2][0] for e in (real, low, high)} == \
            {singular.Enclosure((Fraction(-225, 1024),) * 2)}


class TestDominantExponent:
    def test_cube_root_at_critical_point(self):
        assert critical_point(params(4)).exponent() == Fraction(1, 3)

    def test_square_root_at_rational_endpoint(self):
        assert critical_point(params(5)).exponent() == Fraction(1, 2)
        assert critical_point(params(9)).exponent() == Fraction(1, 2)

    def test_square_root_on_numeric_path(self):
        assert critical_point(params(2)).exponent() == Fraction(1, 2)

    def test_square_root_off_c_one(self):
        assert critical_point(params(4, Fraction(21, 20))).exponent() == Fraction(1, 2)

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
            interval=tuple(map(Fraction, interval)),
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
