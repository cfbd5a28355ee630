"""Tests for observables and exponent estimation."""
import decimal
import math
from fractions import Fraction

import mpmath
from mpmath.libmp import finf, fninf, to_rational
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from isingmaps import cli, critical, dyadic
from isingmaps.critical import (
    FIT_GUARD_BITS,
    FitResult,
    chi_closed,
    exponent_fit,
    finite_free_energy,
    finite_magnetization,
    finite_susceptibility,
    _rho_point,
    _symbolic_Z,
    _theta_Z,
    free_energy,
    m0_closed,
    m_critical_asymptote,
    thermo_enclosures,
    thermo_magnetization,
    thermo_susceptibility,
    transition_exponents,
)
from isingmaps.errors import NonPositiveSequence, PrecisionExhausted
from isingmaps.exactalg import UniPoly
from isingmaps.precision import DEFAULT_PRECISION_BITS, to_mpf
from isingmaps.series import (
    IsingParams,
    _symbolic_tables,
    coefficient_sequence,
    exact_Z,
    nu_one_jets,
    scaled_Z,
)
from isingmaps.singular import radius_numeric, rho_closed_form
from oracles import magnetization_limit_estimate, mpmath_fit, mu_from_ratios


def _as_mpf(x):
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return x


class TestFreeEnergy:
    def test_critical_point_value(self):
        F = free_energy(IsingParams(nu=4, c=1), precision_bits=192)
        with mpmath.workprec(192):
            assert abs(F - mpmath.log(mpmath.mpf(405) / 2)) < mpmath.mpf(2) ** -180

    def test_supercritical_value(self):
        F = free_energy(IsingParams(nu=5, c=1), precision_bits=192)
        with mpmath.workprec(192):
            assert abs(F - mpmath.log(mpmath.mpf(20736) / 67)) < mpmath.mpf(2) ** -180

    def test_increasing_in_nu(self):
        values = [free_energy(IsingParams(nu=nu, c=1))
                  for nu in (Fraction(1, 4), 2, 4, 5)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_finite_size_value_matches_symbolic_polynomial(self):
        # Z_2(1, 1) = 9 + 8 + 1 = 18
        F2 = finite_free_energy(2, IsingParams(nu=1, c=1), precision_bits=80)
        with mpmath.workprec(80):
            assert abs(F2 - mpmath.log(18) / 2) < mpmath.mpf(2) ** -70

    def test_finite_size_gap_shrinks(self):
        # |F_{2n} - F_n| decreasing along a doubling ladder of sizes
        seq = coefficient_sequence(IsingParams(nu=2, c=1), 200, 128)
        with mpmath.workprec(128):
            F = {n: mpmath.log(seq[n - 1]) / n for n in (25, 50, 100, 200)}
            gaps = [abs(F[50] - F[25]), abs(F[100] - F[50]), abs(F[200] - F[100])]
        assert gaps[0] > gaps[1] > gaps[2]


class TestFiniteObservables:
    def test_single_vertex_spin_is_forced(self):
        params = IsingParams(nu=3, c=Fraction(7, 5))
        assert finite_magnetization(1, params) == 1
        assert finite_susceptibility(1, params) == 0

    def test_two_vertex_point_value(self):
        assert finite_magnetization(2, IsingParams(nu=1, c=1)) == Fraction(1, 2)

    def test_two_vertex_closed_formula(self):
        # Z_2 = 9 nu^4 c^2 + 8 nu^2 + 1 gives M_2 = 9 nu^4 c^2 / Z_2
        nu, c = Fraction(2), Fraction(3, 2)
        z2 = 9 * nu ** 4 * c ** 2 + 8 * nu ** 2 + 1
        expected = 9 * nu ** 4 * c ** 2 / z2
        assert finite_magnetization(2, IsingParams(nu=nu, c=c)) == expected

    @pytest.mark.parametrize("nu", [Fraction(1, 2), Fraction(1), Fraction(3)])
    def test_magnetization_bounded_and_monotone_in_c(self, nu):
        grid = [Fraction(1, 2), Fraction(4, 5), Fraction(1), Fraction(6, 5), Fraction(2)]
        for n in range(1, 5):
            values = [finite_magnetization(n, IsingParams(nu=nu, c=c)) for c in grid]
            assert all(-1 <= v <= 1 for v in values)
            assert all(a <= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("nu", [Fraction(1, 2), Fraction(1), Fraction(3)])
    def test_susceptibility_nonnegative(self, nu):
        grid = [Fraction(1, 2), Fraction(1), Fraction(2)]
        for n in range(1, 5):
            for c in grid:
                assert finite_susceptibility(n, IsingParams(nu=nu, c=c)) >= 0

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            finite_magnetization(0, IsingParams(nu=1, c=1))

    @pytest.mark.parametrize("nu", [Fraction(1), Fraction(2)])
    def test_every_observable_rejects_nonpositive_size(self, nu):
        for n in (0, -1):
            for observable in (finite_magnetization, finite_susceptibility,
                               finite_free_energy):
                with pytest.raises(ValueError):
                    observable(n, IsingParams(nu=nu, c=Fraction(21, 20)))

    @pytest.mark.parametrize("c", [Fraction(9, 10), Fraction(21, 20), Fraction(3)])
    def test_nu_one_spins_are_independent(self, c):
        # Z_n(1, c) = q_n c (c + 1/c)^(n - 1): the n - 1 free spins are independent
        params = IsingParams(nu=1, c=c)
        u, v = (c * c - 1) / (c * c + 1), 4 * c * c / (c * c + 1) ** 2
        for n in (1, 2, 24):
            assert finite_magnetization(n, params) == (1 + (n - 1) * u) / n
            assert finite_susceptibility(n, params) == (n - 1) * v / n
            assert _theta_Z(Fraction(1), c, n) == nu_one_jets(c, n)[n]

    def test_off_nu_one_one_jet_pass_serves_all_three(self):
        _theta_Z.cache_clear()
        params = IsingParams(nu=Fraction(3, 2), c=Fraction(19, 20))
        finite_free_energy(9, params)
        assert 0 < finite_magnetization(9, params) < 1
        assert finite_susceptibility(9, params) > 0
        info = _theta_Z.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_size_twenty_matches_symbolic_polynomial(self):
        nu, c = Fraction(2), Fraction(21, 20)
        z = _symbolic_Z(20)[20]
        tz = z.c_log_derivative()
        zf, df, ddf = (p.evaluate(nu, c) for p in (z, tz, tz.c_log_derivative()))
        params = IsingParams(nu=nu, c=c)
        assert finite_magnetization(20, params) == df / (20 * zf)
        assert finite_susceptibility(20, params) == (ddf * zf - df * df) / (20 * zf * zf)
        with mpmath.workprec(192):
            assert finite_free_energy(20, params, 192) == mpmath.log(to_mpf(zf)) / 20


class TestClosedForms:
    def test_magnetization_vanishes_up_to_critical(self):
        assert m0_closed(2) == 0
        assert m0_closed(4) == 0

    def test_magnetization_supercritical_exact(self):
        assert m0_closed(5) == Fraction(45, 67)

    def test_magnetization_irrational_argument(self):
        val = m0_closed(Fraction(9, 2), precision_bits=120)
        with mpmath.workprec(120):
            nu = mpmath.mpf(9) / 2
            direct = 3 * nu * mpmath.sqrt(nu ** 2 - 16) / (3 * nu ** 2 - 8)
            assert abs(val - direct) < mpmath.mpf(2) ** -100

    def test_magnetization_onset_asymptote(self):
        # M_0(nu) ~ (6 sqrt(2)/5) sqrt(nu/4 - 1) just above the transition
        with mpmath.workprec(160):
            for eps in (Fraction(1, 10 ** 4), Fraction(1, 10 ** 6)):
                nu = 4 * (1 + eps)
                val = _as_mpf(m0_closed(nu, precision_bits=160))
                asym = 6 * mpmath.sqrt(2) / 5 * mpmath.sqrt(_as_mpf(Fraction(nu, 4) - 1))
                assert abs(val / asym - 1) < mpmath.mpf(1) / 100

    def test_susceptibility_exact_values(self):
        assert chi_closed(1) == 1
        assert chi_closed(Fraction(9, 4)) == Fraction(27, 4)

    def test_susceptibility_divergence_flag(self):
        assert chi_closed(4) == mpmath.inf
        assert chi_closed(5) == mpmath.inf

    def test_susceptibility_divergence_rate(self):
        # chi(nu, 1) ~ 12/(5 (1 - nu/4)^2) as nu -> 4-
        with mpmath.workprec(160):
            for eps in (Fraction(1, 10 ** 3), Fraction(1, 10 ** 4)):
                nu = 4 * (1 - eps)
                val = _as_mpf(chi_closed(nu, precision_bits=160))
                asym = mpmath.mpf(12) / (5 * _as_mpf(1 - Fraction(nu, 4)) ** 2)
                assert abs(val / asym - 1) < mpmath.mpf(1) / 100

    def test_positive_argument_required(self):
        with pytest.raises(ValueError):
            m0_closed(0)
        with pytest.raises(ValueError):
            chi_closed(-1)

    def test_critical_isotherm_scale(self):
        val = m_critical_asymptote(1 + Fraction(1, 32), precision_bits=120)
        with mpmath.workprec(120):
            expected = mpmath.mpf(3) / 10 * mpmath.mpf(2) ** (mpmath.mpf(3) / 5)
            assert abs(val - expected) < mpmath.mpf(2) ** -100
        with pytest.raises(ValueError):
            m_critical_asymptote(1)

    def test_critical_isotherm_vanishes_at_zero_field(self):
        vals = [m_critical_asymptote(1 + Fraction(1, 10 ** k)) for k in (1, 3, 5)]
        assert vals[0] > vals[1] > vals[2] > 0


class TestTransitionExponents:
    def test_alpha_beta_gamma_with_their_derivatives_and_amplitudes(self):
        t = transition_exponents()
        assert (t.alpha, t.beta, t.gamma) == (-1, Fraction(1, 2), 2)
        assert t.above == (Fraction(7, 15), Fraction(-83, 900), Fraction(49, 2700))
        assert t.below == (Fraction(7, 15), Fraction(-83, 900), Fraction(797, 21600))
        assert (t.m0_squared, t.chi) == (Fraction(18, 25), Fraction(192, 5))

    def test_against_sympy_on_the_literature_formulas(self):
        nu, r = sympy.symbols("nu r", positive=True)
        above = -sympy.log((3 * nu ** 2 - 8) / (36 * (nu ** 2 - 1) ** 2))
        below = -sympy.log(2 * (1 + 2 * sympy.sqrt(nu))
                           / (9 * (1 + sympy.sqrt(nu)) ** 2 * (1 + nu) ** 2))
        t = transition_exponents()
        for expr, want in ((above, t.above), (below, t.below)):
            assert tuple(sympy.diff(expr, nu, k).subs(nu, 4) for k in (1, 2, 3)) \
                == tuple(sympy.Rational(a.numerator, a.denominator) for a in want)
        m0_squared = 9 * nu ** 2 * (nu ** 2 - 16) / (3 * nu ** 2 - 8) ** 2
        chi = 3 * r ** 2 / ((2 * r + 1) * (r - 2) ** 2)
        assert sympy.cancel(m0_squared / (nu - 4)).subs(nu, 4) == sympy.Rational(18, 25)
        assert sympy.cancel(chi * (r ** 2 - 4) ** 2).subs(r, 2) == sympy.Rational(192, 5)


class TestThermoObservables:
    def test_no_spontaneous_magnetization_below_critical(self):
        assert abs(thermo_magnetization(2, 1)) < mpmath.mpf(10) ** -6

    def test_susceptibility_matches_closed_form(self):
        for nu in (Fraction(1), Fraction(2), Fraction(3)):
            chi = thermo_susceptibility(nu, 1)
            cf = _as_mpf(chi_closed(nu, precision_bits=120))
            assert abs(chi - cf) / cf < mpmath.mpf(1) / 1000

    def test_susceptibility_never_significantly_negative(self):
        for nu, c in ((Fraction(2), Fraction(6, 5)), (Fraction(1), Fraction(4, 5))):
            assert thermo_susceptibility(nu, c) > -mpmath.mpf(10) ** -9

    def test_magnetization_near_branch_point(self):
        c = 1 + Fraction(1, 10 ** 4)
        M = thermo_magnetization(4, c)
        assert abs(M - _implicit_observables(4, c)["M"]) < mpmath.mpf(10) ** -25

    def test_magnetization_approaches_spontaneous_value(self):
        m0 = _as_mpf(Fraction(45, 67))
        errors = []
        for k in (2, 3, 4):
            t = Fraction(1, 10 ** k)
            M = thermo_magnetization(5, 1 + t)
            errors.append(abs(M - m0))
        assert errors[0] > errors[1] > errors[2]
        est = magnetization_limit_estimate(5)
        assert abs(est - m0) < mpmath.mpf(1) / 100

    def test_magnetization_limit_vanishes_below_critical(self):
        assert abs(magnetization_limit_estimate(2)) < mpmath.mpf(10) ** -4

    def test_critical_isotherm_ratio(self):
        # the measured constant is twice the quoted asymptote scale
        t = Fraction(1, 10 ** 3)
        M = thermo_magnetization(4, 1 + t)
        ratio = M / m_critical_asymptote(1 + t)
        assert mpmath.mpf("1.8") < ratio < mpmath.mpf("2.1")


def _implicit_observables(nu, c, dps=80):
    """M and chi by sympy implicit differentiation of z(s, c) = s N / D^2.

    s* solves z_s = 0 from the midpoint of the certified s-interval; then
    rho' = z_c and rho'' = z_cc - z_sc^2 / z_ss there.
    """
    s, cs = sympy.symbols("s c")
    nu, c = Fraction(nu), Fraction(c)

    def to_sympy(tab):
        return sum(sympy.Rational(a.numerator, a.denominator) * cs ** dc
                   * sympy.Rational(nu.numerator, nu.denominator) ** dn
                   * s ** k for k, p in tab.items()
                   for (dn, dc), a in p.terms.items())

    n_tab, d_tab = _symbolic_tables()[:2]
    z = s * to_sympy(n_tab) / to_sympy(d_tab) ** 2
    parts = {name: sympy.lambdify((s, cs), expr, "mpmath") for name, expr in (
        ("z", z), ("zs", sympy.diff(z, s)), ("zc", sympy.diff(z, cs)),
        ("zss", sympy.diff(z, s, 2)), ("zsc", sympy.diff(z, s, cs)),
        ("zcc", sympy.diff(z, cs, 2)))}
    lo, hi = _rho_point(nu, c).s_interval
    with mpmath.workdps(dps):
        cx = _as_mpf(c)
        s_star = mpmath.findroot(lambda x: parts["zs"](x, cx), _as_mpf((lo + hi) / 2))
        v = {name: f(s_star, cx) for name, f in parts.items()}
        ld = cx * v["zc"] / v["z"]
        sd = cx ** 2 * (v["zcc"] - v["zsc"] ** 2 / v["zss"]) / v["z"]
        return {"M": -(1 + ld), "chi": ld * ld - ld - sd}


class TestEnvelopeDerivatives:
    # (5/2, 11/10), (6, 9/10) and (9/2, 19/20) defeated the former
    # finite-difference estimator's step audit
    POINTS = ((Fraction(5, 2), Fraction(11, 10)), (Fraction(6), Fraction(9, 10)),
              (Fraction(9, 2), Fraction(19, 20)), (Fraction(1, 2), Fraction(21, 20)))

    def test_enclosures_hold_implicit_differentiation(self):
        for nu, c in self.POINTS:
            box = thermo_enclosures(nu, c)
            reference = _implicit_observables(nu, c)
            for name in ("M", "chi"):
                lo, hi = box[name]
                assert hi - lo < Fraction(1, 10 ** 25)
                with mpmath.workdps(80):
                    slack = mpmath.mpf(10) ** -70
                    assert _as_mpf(lo) - slack <= reference[name] <= _as_mpf(hi) + slack
            assert abs(thermo_magnetization(nu, c) - reference["M"]) < mpmath.mpf(10) ** -25
            assert abs(thermo_susceptibility(nu, c) - reference["chi"]) < mpmath.mpf(10) ** -25

    @pytest.mark.parametrize("c", [Fraction(9, 10), Fraction(21, 20), Fraction(3)])
    def test_nu_one_enclosures_hold_the_exact_values(self, c):
        # rho = 1/(12 (1 + c^2)) exactly, so M = -(1 + theta log rho) and
        # chi = theta M are rational; s* is exact, so the s-box is a point
        s_star = 1 / (6 * (1 + c * c))
        assert _rho_point(Fraction(1), c).s_interval == (s_star, s_star)
        box = thermo_enclosures(1, c)
        exact = {"M": (c * c - 1) / (c * c + 1), "chi": 4 * c * c / (c * c + 1) ** 2}
        for name, value in exact.items():
            lo, hi = box[name]
            assert lo <= value <= hi and hi - lo < Fraction(1, 10 ** 50)

    def test_fine_step_differences_of_the_radius(self):
        for nu, c in self.POINTS[:2]:
            rho = lambda x: _rho_point(nu, x).rho
            h = Fraction(1, 10 ** 8)
            ld = c * (rho(c + h) - rho(c - h)) / (2 * h * rho(c))
            assert abs(thermo_magnetization(nu, c) + 1 + _as_mpf(ld)) < mpmath.mpf(10) ** -12
            h = Fraction(1, 10 ** 6)
            ld = c * (rho(c + h) - rho(c - h)) / (2 * h * rho(c))
            sd = c ** 2 * (rho(c + h) - 2 * rho(c) + rho(c - h)) / (h ** 2 * rho(c))
            chi = _as_mpf(ld * ld - ld - sd)
            assert abs(thermo_susceptibility(nu, c) - chi) < mpmath.mpf(10) ** -8

    def test_closed_forms_at_c_one(self):
        with mpmath.workprec(192):
            assert thermo_magnetization(5, 1, precision_bits=192) == _as_mpf(Fraction(45, 67))
        assert thermo_susceptibility(5, 1) == mpmath.inf
        for nu in (Fraction(1), Fraction(2), Fraction(3), Fraction(7, 2)):
            cf = _as_mpf(chi_closed(nu))
            assert abs(thermo_susceptibility(nu, 1) - cf) < mpmath.mpf(10) ** -25 * cf


def _iv(q: Fraction):
    return mpmath.iv.mpf(q.numerator) / q.denominator


def _iv_eval(poly: UniPoly, s):
    acc = mpmath.iv.mpf(0)
    for a in reversed(poly.coeffs):
        acc = acc * s + _iv(a)
    return acc


def _iv_log_derivatives(polys, nu, c, s):
    f, tf, ttf = (UniPoly([a.evaluate(nu, c) for a in p]) for p in polys)
    value = _iv_eval(f, s)
    t = _iv_eval(tf, s) / value
    fs = _iv_eval(f.derivative(), s) / value
    return (t,
            _iv_eval(ttf, s) / value - t ** 2,
            _iv_eval(tf.derivative(), s) / value - t * fs,
            _iv_eval(f.derivative().derivative(), s) / value - fs ** 2)


def _iv_enclosures(nu, c, bits):
    """The envelope-theorem enclosures in mpmath's interval context at
    ``bits``: the same expression tree as thermo_enclosures, with every
    coefficient rounded to a ``bits``-bit interval.  None for a name whose
    box is unbounded."""
    report = _rho_point(nu, c)
    iv = mpmath.iv
    saved = iv.prec
    iv.prec = bits
    try:
        (s_lo, s_hi), (r_lo, r_hi) = report.s_interval, report.rho_interval
        s = iv.mpf([_iv(s_lo).a, _iv(s_hi).b])
        mu = iv.mpf([_iv(c * r_lo).a, _iv(c * r_hi).b])
        n_polys, d_polys = critical._defining_polys()
        t, tt, st, ss = (a - 2 * b for a, b in zip(
            _iv_log_derivatives(n_polys, nu, c, s), _iv_log_derivatives(d_polys, nu, c, s)))
        ss = ss - 1 / s ** 2
        values = {"F": -iv.log(mu), "M": -(1 + t), "chi": st ** 2 / ss - tt}
    finally:
        iv.prec = saved
    return {name: None if finf in v._mpi_ or fninf in v._mpi_
            else tuple(Fraction(*to_rational(e)) for e in v._mpi_)
            for name, v in values.items()}


class TestThermoOracle:
    GRID_NU = ("1/100", "1/2", "1", "5/2", "4", "9/2", "6", "10")
    GRID_C = ("9/10", "19/20", "21/20", "11/10")

    @pytest.mark.parametrize("nu", GRID_NU)
    def test_boxes_lie_inside_the_interval_context_ones(self, nu):
        bits = DEFAULT_PRECISION_BITS
        dps = cli._digits(bits)
        for c in map(Fraction, self.GRID_C):
            box = thermo_enclosures(Fraction(nu), c)
            reference = _iv_enclosures(Fraction(nu), c, bits)
            s_lo, s_hi = _rho_point(Fraction(nu), c).s_interval
            for name in ("F", "M", "chi"):
                lo, hi = box[name]
                ref_lo, ref_hi = reference[name]
                assert ref_lo <= lo <= hi <= ref_hi, (nu, c, name)
                new = cli.format_enclosure(lo, hi, dps)
                old = cli.format_enclosure(ref_lo, ref_hi, dps)
                if s_lo < s_hi:
                    assert new == old, (nu, c, name)
                    continue
                # s* is exact (nu = 1), so the boxes are one or two ulps wide at
                # ``bits`` and print to every digit they resolve: past dps,
                # inside the interval-context box, and M and chi as close to
                # (c^2 - 1)/(c^2 + 1) and 4c^2/(c^2 + 1)^2 as the box is wide
                digits = decimal.Decimal(new).as_tuple().digits
                assert dps < len(digits) <= math.ceil(bits * math.log10(2)) + 1, (c, name)
                assert ref_lo <= Fraction(new) <= ref_hi, (c, name)
                exact = {"M": (c * c - 1) / (c * c + 1), "chi": 4 * c * c / (c * c + 1) ** 2}
                if name in exact:
                    error = abs(Fraction(new) - exact[name])
                    assert error <= hi - lo < abs(exact[name]) / 10 ** dps, (c, name)

    @pytest.mark.parametrize("bits", [8, 53, 256])
    def test_boxes_lie_inside_at_other_precisions(self, bits):
        for nu, c in ((Fraction(1, 2), Fraction(19, 20)), (Fraction(6), Fraction(11, 10))):
            box = thermo_enclosures(nu, c, bits)
            reference = _iv_enclosures(nu, c, bits)
            for name in ("F", "M", "chi"):
                lo, hi = box[name]
                # ends of at most ``bits`` significant bits
                for end in (lo, hi):
                    man = end.numerator
                    man //= man & -man  # drop the factors of 2
                    assert abs(man).bit_length() <= bits
                if reference[name] is not None:
                    ref_lo, ref_hi = reference[name]
                    assert ref_lo <= lo <= hi <= ref_hi, (nu, c, name)

    @pytest.mark.parametrize("nu", [4, 5, 6])
    def test_s_at_a_root_of_d_has_no_enclosure(self, nu):
        with pytest.raises(PrecisionExhausted):
            thermo_enclosures(nu, 1)


class TestExponentFit:
    def test_synthetic_power_law(self):
        with mpmath.workprec(128):
            seq = [mpmath.mpf(2) ** n / mpmath.mpf(n) ** 3 for n in range(1, 201)]
        fit = exponent_fit(seq, Fraction(1, 2), (10, 200), precision_bits=128)
        assert abs(fit.alpha_exponent - 3) < mpmath.mpf(1) / 1000
        assert abs(fit.aitken_exponent - 3) < mpmath.mpf(1) / 1000
        assert abs(fit.amplitude - 1) < mpmath.mpf(1) / 1000
        assert fit.residual < mpmath.mpf(10) ** -20
        assert fit.n_range == (10, 200)

    @given(st.integers(1, 8), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_recovers_exact_exponents(self, num, den):
        alpha = Fraction(num, den)
        with mpmath.workprec(128):
            af = _as_mpf(alpha)
            seq = [mpmath.mpf(3) ** n * mpmath.mpf(n) ** -af for n in range(1, 61)]
            fit = exponent_fit(seq, Fraction(1, 3), (5, 60), precision_bits=128)
            assert abs(fit.alpha_exponent - af) < mpmath.mpf(10) ** -25

    def test_real_sequence_recovers_generic_exponent(self):
        seq = coefficient_sequence(IsingParams(nu=2, c=1), 120, 128)
        mu = rho_closed_form(2, precision_bits=128)
        fit = exponent_fit(seq, mu, (30, 120), precision_bits=128)
        with mpmath.workprec(128):
            target = mpmath.mpf(5) / 2
            assert abs(fit.alpha_exponent - target) < mpmath.mpf(1) / 10
            assert abs(fit.aitken_exponent - target) < mpmath.mpf(1) / 20

    @pytest.mark.parametrize("n_range", [(2, 3), (2, 4), (2, 5), (7, 40)])
    def test_aitken_step_on_the_last_pointwise_slopes(self, n_range):
        # every pointwise slope over the range, then the Aitken step on the
        # last three (or the last slope alone when there are fewer), exact
        # in the kernel's logs: midpoints at scale 2^-(p+1), log n as a sum
        # of prime logs, then one rounding to an mpf
        bits = 96
        p = bits + FIT_GUARD_BITS

        def log(q):
            return sum(dyadic.log(q.numerator, q.denominator, p))

        with mpmath.workprec(p):
            seq = [mpmath.mpf(5) ** n * mpmath.mpf(n) ** -mpmath.mpf(2.5)
                   * (1 + mpmath.mpf(1) / n) for n in range(1, 41)]
            fit = exponent_fit(seq, Fraction(1, 5), n_range, precision_bits=bits)
            ns = range(n_range[0], n_range[1] + 1)
            ys = [log(Fraction(*to_rational(seq[n - 1]._mpf_))) + n * log(Fraction(1, 5))
                  for n in ns]
            xs = [sum(e * log(Fraction(q)) for q, e in sympy.factorint(n).items())
                  for n in ns]
            slopes = [Fraction(ys[i - 1] - ys[i], xs[i] - xs[i - 1])
                      for i in range(1, len(xs))]
            if len(slopes) < 3:
                want = slopes[-1]
            else:
                a0, a1, a2 = slopes[-3:]
                want = a2 - (a2 - a1) ** 2 / (a2 - 2 * a1 + a0)
            assert fit.aitken_exponent == to_mpf(want)

    @pytest.mark.parametrize("nu, c, n_range", [
        (2, 1, (25, 200)), (Fraction(3, 2), Fraction(21, 20), (10, 120)),
        (4, 1, (5, 60)), (1, Fraction(9, 10), (12, 100))])
    def test_outputs_hold_a_1024_bit_mpmath_fit(self, nu, c, n_range):
        # the same exact Z_n and mu, fitted in mpmath floating point with
        # mpmath logs at 1024 bits: every output agrees to the precision
        bits = 128
        params = IsingParams(nu=nu, c=c)
        exact = exact_Z(params, n_range[1])[1:]
        mu = radius_numeric(params, tol=Fraction(1, 10 ** 40)).mu
        h, scale = scaled_Z(params, n_range[1])
        ref = mpmath_fit(exact, mu, n_range, precision_bits=1024)
        for fit in (exponent_fit(exact, mu, n_range, precision_bits=bits),
                    exponent_fit(h[1:], mu, n_range, precision_bits=bits, scale=scale)):
            assert fit.n_range == ref.n_range
            with mpmath.workprec(1024):
                for key in ("alpha_exponent", "aitken_exponent", "amplitude", "residual"):
                    want = getattr(ref, key)
                    assert abs(getattr(fit, key) - want) <= abs(want) * mpmath.mpf(2) ** -bits, key

    def test_mpf_terms_read_exactly_as_dyadic_rationals(self):
        with mpmath.workprec(100):
            seq = [mpmath.mpf(7) ** n / mpmath.mpf(n) ** 3 for n in range(1, 51)]
        as_fractions = [Fraction(*to_rational(z._mpf_)) for z in seq]
        assert (exponent_fit(seq, Fraction(1, 7), (5, 50), precision_bits=80)
                == exponent_fit(as_fractions, Fraction(1, 7), (5, 50), precision_bits=80))

    def test_scale_keeps_the_sign_check(self):
        # Z_n = h_n / (K r^n) is positive only where h_n and K share a sign
        h = [-(3 ** n) for n in range(1, 11)]
        fit = exponent_fit(h, Fraction(1, 3), (2, 10), scale=(-1, 1))
        assert abs(fit.alpha_exponent) < mpmath.mpf(10) ** -40
        with pytest.raises(NonPositiveSequence):
            exponent_fit(h, Fraction(1, 3), (2, 10), scale=(1, 1))
        with pytest.raises(ValueError):
            exponent_fit(h, Fraction(1, 3), (2, 10), scale=(-1, 0))

    def test_rejects_nonpositive_terms(self):
        with pytest.raises(NonPositiveSequence):
            exponent_fit([1, 2, 0, 4, 5, 6], 1, (2, 6))
        for bad in (mpmath.mpf(-3), mpmath.mpf(0), Fraction(-1, 3)):
            with pytest.raises(NonPositiveSequence):
                exponent_fit([1, 2, bad, 4, 5, 6], 1, (2, 6))

    def test_range_validation(self):
        seq = [1, 2, 3, 4]
        with pytest.raises(ValueError):
            exponent_fit(seq, 1, (1, 4))
        with pytest.raises(ValueError):
            exponent_fit(seq, 1, (3, 3))
        with pytest.raises(ValueError):
            exponent_fit(seq, 1, (2, 9))


class TestRatioExtrapolation:
    def test_synthetic_geometric(self):
        with mpmath.workprec(128):
            seq = [mpmath.mpf(2) ** n * (1 + mpmath.mpf(1) / n) for n in range(1, 101)]
            mu = mu_from_ratios(seq, nodes=[12, 25, 50, 100], precision_bits=128)
            assert abs(mu - mpmath.mpf(1) / 2) < mpmath.mpf(10) ** -6

    def test_real_sequence(self):
        seq = coefficient_sequence(IsingParams(nu=2, c=1), 120, 128)
        mu = mu_from_ratios(seq, nodes=[15, 30, 60, 120], precision_bits=128)
        target = rho_closed_form(2, precision_bits=128)
        assert abs(mu - target) < mpmath.mpf(10) ** -6

    def test_rejects_bad_nodes(self):
        with pytest.raises(ValueError):
            mu_from_ratios([1, 2, 3], nodes=[1, 2])
        with pytest.raises(ValueError):
            mu_from_ratios([1, 2, 3], nodes=[2, 8])
        with pytest.raises(NonPositiveSequence):
            mu_from_ratios([1, -2, 3, 4], nodes=[2, 4])
