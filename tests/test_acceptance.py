"""Acceptance battery: one end-to-end check per shipped claim.

Each test states a concrete numeric or exact-algebra guarantee of the
package at its published tolerance, so ``pytest -v`` on this module reads
as a pass/fail scorecard.  Heavy fixtures (400-term high-precision
coefficient runs) are shared across tests at module scope.
"""
import time
from fractions import Fraction

import mpmath
import pytest

from isingmaps.critical import (
    chi_closed,
    exponent_fit,
    m0_closed,
    m_critical_asymptote,
    thermo_magnetization,
    thermo_susceptibility,
)
from isingmaps.exactalg import ParamPoly, sturm_count
from isingmaps.mapcount import survey
from isingmaps.precision import to_mpf
from isingmaps.series import IsingParams, coefficient_sequence, solve_S, solve_Z
from isingmaps.singular import (
    characteristic_root_polynomial,
    discriminant_in_z,
    p1_p2_p3,
    radius_numeric,
    rho_closed_form,
    s_at_rho_closed_form,
)
from oracles import magnetization_limit_estimate, mu_from_ratios

BITS = 192
N_MAX = 400
FIT_RANGE = (50, N_MAX)


def _sequence(nu, c):
    return coefficient_sequence(IsingParams(nu=Fraction(nu), c=Fraction(c)), N_MAX, BITS)


@pytest.fixture(scope="module")
def seq_2_1():
    return _sequence(2, 1)


@pytest.fixture(scope="module")
def seq_4_1():
    return _sequence(4, 1)


@pytest.fixture(scope="module")
def seq_4_105():
    return _sequence(4, Fraction(21, 20))


def test_01_low_order_coefficients_exact():
    """Z_1..Z_3 as exact Laurent polynomials in nu and c, in under a second."""
    started = time.monotonic()
    series = solve_Z(IsingParams(nu=2, c=1), 3)
    assert series.coefficient(1) == ParamPoly({(2, 1): 2})
    assert series.coefficient(2) == ParamPoly({(4, 2): 9, (2, 0): 8, (0, 0): 1})
    assert series.coefficient(3) == ParamPoly({
        (6, 3): 54, (4, 1): 72, (4, -1): 36, (2, 1): 36, (2, -1): 18,
    })
    assert time.monotonic() - started < 1.0


def test_02_enumeration_oracle_equivalence():
    """The dart-level brute-force count reproduces the series solver exactly."""
    series = solve_Z(IsingParams(nu=2, c=1), 3)
    for n in (1, 2, 3):
        assert survey(n).partition_polynomial == series.coefficient(n)


def test_02_enumeration_oracle_order_four():
    started = time.monotonic()
    series = solve_Z(IsingParams(nu=2, c=1), 4)
    assert survey(4).partition_polynomial == series.coefficient(4)
    assert time.monotonic() - started < 60.0


@pytest.mark.slow
def test_02_enumeration_oracle_order_five():
    started = time.monotonic()
    series = solve_Z(IsingParams(nu=2, c=1), 5)
    assert survey(5).partition_polynomial == series.coefficient(5)
    assert time.monotonic() - started < 60.0


def test_03_auxiliary_series_integrality():
    """S-coefficients up to z^15 are polynomials with nonnegative integers."""
    started = time.monotonic()
    series = solve_S(IsingParams(nu=2, c=1), 15)
    for n in range(16):
        for coef in series.coefficient(n).terms.values():
            assert type(coef) is int
            assert coef >= 0
    assert time.monotonic() - started < 30.0


def test_04_closed_form_branches_meet_at_transition():
    """Both closed-form branches agree exactly at nu = 4."""
    nu, root = Fraction(4), Fraction(2)
    low_rho = 2 * (1 + 2 * root) / (9 * (1 + root) ** 2 * (1 + nu) ** 2)
    high_rho = (3 * nu ** 2 - 8) / (36 * (nu ** 2 - 1) ** 2)
    assert low_rho == high_rho == Fraction(2, 405) == rho_closed_form(4)
    low_s = Fraction(1, 3) / ((root + 1) * (nu + 1))
    high_s = Fraction(1, 3) / (nu ** 2 - 1)
    assert low_s == high_s == Fraction(1, 45) == s_at_rho_closed_form(4)


def test_05_certified_radius_and_ratio_convergence(seq_2_1):
    """Sturm-bisected radius matches closed forms to 1e-10; the coefficient
    ratio extrapolation at (2, 1) recovers mu to 1e-6 by n = 400."""
    for nu in (Fraction(1, 4), Fraction(2), Fraction(5), Fraction(9)):
        report = radius_numeric(IsingParams(nu=nu, c=1), tol=Fraction(1, 10 ** 12))
        closed = rho_closed_form(nu, precision_bits=BITS)
        if isinstance(closed, Fraction):
            assert abs(report.rho - closed) <= Fraction(1, 10 ** 10)
        else:
            with mpmath.workprec(BITS):
                assert abs(to_mpf(report.rho) - closed) < mpmath.mpf(10) ** -10

    report = radius_numeric(IsingParams(nu=2, c=1), tol=Fraction(1, 10 ** 12))
    estimate = mu_from_ratios(seq_2_1, nodes=(50, 100, 200, 400),
                              precision_bits=BITS)
    with mpmath.workprec(BITS):
        assert abs(estimate - to_mpf(report.mu)) < mpmath.mpf(10) ** -6


def test_06_coefficient_exponent_fits(seq_2_1, seq_4_1, seq_4_105):
    """Fitted polynomial decay exponents: 7/3 at the transition point,
    5/2 off it, each within 0.05, with global and Aitken estimates agreeing."""
    cases = [
        (seq_4_1, Fraction(4), Fraction(1), Fraction(7, 3)),
        (seq_2_1, Fraction(2), Fraction(1), Fraction(5, 2)),
        (seq_4_105, Fraction(4), Fraction(21, 20), Fraction(5, 2)),
    ]
    with mpmath.workprec(BITS):
        tol = mpmath.mpf(5) / 100
        for seq, nu, c, target in cases:
            report = radius_numeric(IsingParams(nu=nu, c=c))
            fit = exponent_fit(seq, report.mu, FIT_RANGE, precision_bits=BITS)
            assert abs(fit.alpha_exponent - to_mpf(target)) < tol
            assert abs(fit.alpha_exponent - fit.aitken_exponent) < tol
            # the amplitude is reported, not checked against a reference
            assert fit.amplitude > 0


def test_07_discriminant_factor_structure():
    """discriminant(z) = P1^3 P2 P3 x (z-linear factor), by exact division."""
    for nu in (Fraction(2), Fraction(5)):
        disc = discriminant_in_z(IsingParams(nu=nu, c=1))
        p1, p2, p3 = p1_p2_p3(nu)
        quotient = disc
        for factor in (p1, p1, p1, p2, p3):
            quotient = quotient.exact_div(factor)
        assert quotient.degree() <= 1


def test_08_characteristic_root_uniqueness():
    """Exactly one characteristic root in (0, 1/(3 c^2 |1 - nu^2|)] on a
    3 x 3 parameter grid, by Sturm count."""
    for nu in (Fraction(1, 2), Fraction(2), Fraction(5)):
        for c in (Fraction(9, 10), Fraction(19, 20), Fraction(1)):
            poly = characteristic_root_polynomial(IsingParams(nu=nu, c=c))
            bound = 1 / (3 * c ** 2 * abs(1 - nu ** 2))
            assert sturm_count(poly, Fraction(0), bound) == 1


def test_09_branch_point_exponents_exact():
    """Newton-polygon leading exponents: 1/3 at (4, 1), 1/2 generically."""
    cases = [
        (Fraction(4), Fraction(1, 3)),
        (Fraction(2), Fraction(1, 2)),
        (Fraction(5), Fraction(1, 2)),
    ]
    for nu, expected in cases:
        report = radius_numeric(IsingParams(nu=nu, c=1), with_exponent=True)
        assert report.exponent == expected


def test_10_observable_closed_forms_and_limits():
    """Exact spontaneous-magnetization and susceptibility values, the
    envelope-theorem estimators against them, and the onset/divergence
    rates near the transition."""
    assert m0_closed(4) == 0
    assert m0_closed(5) == Fraction(45, 67)
    assert chi_closed(1) == 1

    with mpmath.workprec(BITS):
        # thermodynamic susceptibility against the closed form
        for nu in (Fraction(1), Fraction(2), Fraction(3)):
            chi = thermo_susceptibility(nu, Fraction(1), precision_bits=BITS)
            closed = chi_closed(nu, precision_bits=BITS)
            assert abs(chi / to_mpf(closed) - 1) < mpmath.mpf(10) ** -3

        # magnetization at vanishing field: the direct value at offset 1e-4
        # still carries a ~2.2*sqrt(c-1) transient, so the limit is taken by
        # extrapolating over the approach offsets down to and including 1e-4
        estimate = magnetization_limit_estimate(Fraction(5), precision_bits=BITS)
        assert abs(estimate - to_mpf(Fraction(45, 67))) < mpmath.mpf(1) / 100

        # onset rate M0 ~ (6 sqrt(2)/5) sqrt(nu/4 - 1) from above
        for eps in (Fraction(1, 10 ** 4), Fraction(1, 10 ** 6)):
            nu = 4 * (1 + eps)
            val = to_mpf(m0_closed(nu))
            asym = 6 * mpmath.sqrt(2) / 5 * mpmath.sqrt(to_mpf(eps))
            assert abs(val / asym - 1) < mpmath.mpf(1) / 100

        # divergence rate chi ~ 12/(5 (1 - nu/4)^2) from below
        for eps in (Fraction(1, 10 ** 3), Fraction(1, 10 ** 4)):
            nu = 4 * (1 - eps)
            val = chi_closed(nu, precision_bits=BITS)
            asym = mpmath.mpf(12) / (5 * to_mpf(eps) ** 2)
            assert abs(val / asym - 1) < mpmath.mpf(1) / 100


def test_11_critical_isotherm_scaling():
    """M(4, c) follows the (c - 1)^(1/5) law with scale twice the 1x
    reference form (3/5) 2^(3/5); the doubled value is confirmed
    independently by finite-size log-derivative estimates."""
    with mpmath.workprec(BITS):
        for k in (3, 4):
            t = Fraction(1, 10 ** k)
            M = thermo_magnetization(Fraction(4), 1 + t, precision_bits=BITS)
            ratio = M / m_critical_asymptote(1 + t, precision_bits=BITS)
            assert abs(ratio / 2 - 1) < mpmath.mpf(5) / 100


def test_12_transition_is_third_order():
    """Across nu = 4, one-sided finite differences of -log rho(nu) agree to
    1e-3 at first and second order; the third difference jumps by > 1e-2."""
    bits = 320
    h = Fraction(1, 10 ** 6)

    def G(nu):
        r = rho_closed_form(nu, precision_bits=bits)
        with mpmath.workprec(bits):
            return -mpmath.log(to_mpf(r) if isinstance(r, Fraction) else r)

    with mpmath.workprec(bits):
        hh = to_mpf(h)
        right = [G(4 + i * h) for i in range(5)]
        left = [G(4 - i * h) for i in range(5)]

        def one_sided(f, sign):
            d1 = sign * (-3 * f[0] + 4 * f[1] - f[2]) / (2 * hh)
            d2 = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / hh ** 2
            d3 = sign * (-5 * f[0] + 18 * f[1] - 24 * f[2] + 14 * f[3]
                         - 3 * f[4]) / (2 * hh ** 3)
            return d1, d2, d3

        d1r, d2r, d3r = one_sided(right, 1)
        d1l, d2l, d3l = one_sided(left, -1)
        tol = mpmath.mpf(1) / 1000
        assert abs(d1r - d1l) < tol
        assert abs(d2r - d2l) < tol
        assert abs(d3r - d3l) > 10 * tol
