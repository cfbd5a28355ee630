"""Tests for the Lagrangian series engine."""
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_rational, round_nearest

from isingmaps.errors import NonZeroRemainder, NumericModeAtNuOne
from isingmaps.exactalg import ParamPoly
from isingmaps.series import (
    IsingParams,
    TruncatedSeries,
    _Model,
    _series_powers,
    _solve_S_ring,
    _solve_Z_ring,
    coefficient_sequence,
    fixed_point_residual,
    lagrangian_numer_denom,
    pol_Z_eval,
    solve_S,
    solve_Z,
)

NU = ParamPoly.nu()
C = ParamPoly.c()

SYM = IsingParams(nu=2, c=1)  # mode is symbolic; the point is irrelevant there


def expected_Z(n: int) -> ParamPoly:
    if n == 1:
        return 2 * NU ** 2 * C
    if n == 2:
        return 9 * NU ** 4 * C ** 2 + 8 * NU ** 2 + 1
    if n == 3:
        return 18 * (
            3 * NU ** 6 * C ** 3
            + 4 * NU ** 4 * C
            + 2 * NU ** 2 * C
            + 2 * NU ** 4 * C ** -1
            + NU ** 2 * C ** -1
        )
    raise ValueError(n)


def exact_ring_Z(nu, c, order):
    """Z_1..Z_order over Fractions at the point, with no rescaling: the
    reference the integer pipeline must reproduce exactly."""
    model = _Model(IsingParams(nu=nu, c=c), "exact")
    s = _solve_S_ring(model, order + 2)
    pw = _series_powers(s, 7)
    one = TruncatedSeries([model.one] + [model.zero] * (order + 2), model.zero)
    w = TruncatedSeries([model.zero] * (order + 3), model.zero)
    for (spow, zpow), coef in model.bracket_tab.items():
        w = w + (pw[spow] if spow else one).shift_up(zpow).scale(coef)
    g = w.divide(one + s.scale(model.e1))
    assert all(g.coefficient(i) == 0 for i in (0, 1, 2))
    return [g.coefficient(n + 2) / model.nine_gamma / c ** n
            for n in range(1, order + 1)]


def lagrange_S(params: IsingParams, order: int, symbolic: bool) -> list:
    """S_1..S_order by Lagrange inversion of z = S / phi(S), phi = D^2 / N:
    S_n = (1/n) [u^(n-1)] phi(u)^n, with no use of the engine's recurrence."""
    n_poly, d_poly = lagrangian_numer_denom(params, symbolic=symbolic)
    zero = n_poly.zero

    def series(poly):
        return TruncatedSeries((list(poly.coeffs) + [zero] * order)[:order], zero)

    d_series = series(d_poly)
    phi = (d_series * d_series).divide(series(n_poly))
    out = []
    power = phi
    for n in range(1, order + 1):
        out.append(power.coefficient(n - 1) * Fraction(1, n))
        power = power * phi
    return out


def rounded(q: Fraction, bits: int):
    """The raw mpf nearest to q with ``bits`` bits."""
    return from_rational(q.numerator, q.denominator, bits, round_nearest)


# -- parameter validation ---------------------------------------------------

class TestIsingParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            IsingParams(nu=0, c=1)
        with pytest.raises(ValueError):
            IsingParams(nu=2, c=Fraction(-1, 2))

    def test_numeric_mode_rejects_nu_one(self):
        with pytest.raises(NumericModeAtNuOne):
            IsingParams(nu=1, c=1, precision_bits=192)

    def test_symbolic_mode_allows_nu_one(self):
        p = IsingParams(nu=1, c=1)
        assert p.symbolic


# -- truncated series plumbing ---------------------------------------------

class TestTruncatedSeries:
    def test_mul_truncates(self):
        a = TruncatedSeries([Fraction(1), Fraction(1), Fraction(1)], Fraction(0))
        b = TruncatedSeries([Fraction(1), Fraction(2)], Fraction(0))
        prod = a * b
        assert prod.order == 1
        assert prod.coeffs == [Fraction(1), Fraction(3)]

    def test_divide_roundtrip(self):
        a = TruncatedSeries([Fraction(1), Fraction(-3), Fraction(5), Fraction(7)],
                            Fraction(0))
        b = TruncatedSeries([Fraction(1), Fraction(2), Fraction(-1), Fraction(4)],
                            Fraction(0))
        assert ((a * b).divide(b)).coeffs == a.coeffs

    def test_shift_down(self):
        a = TruncatedSeries([Fraction(0), Fraction(0), Fraction(3), Fraction(4)],
                            Fraction(0))
        assert a.shift_down(2).coeffs == [Fraction(3), Fraction(4)]

    def test_sparse_operands_over_int(self):
        a = TruncatedSeries([0, 3, 0, 0, -2, 0, 1], 0)
        b = TruncatedSeries([1, 0, 0, 5, 0, 0, 0], 0)
        dense = [sum(a.coeffs[i] * b.coeffs[k - i] for i in range(k + 1))
                 for k in range(7)]
        assert (a * b).coeffs == dense
        assert (b * a).coeffs == dense
        assert (a * b).divide(b).coeffs == a.coeffs

    def test_divide_by_non_unit_int_stays_exact(self):
        q = TruncatedSeries([1, 0, 0], 0).divide(TruncatedSeries([3, 1, 0], 0))
        assert q.coeffs == [Fraction(1, 3), Fraction(-1, 9), Fraction(1, 27)]
        assert all(type(x) is Fraction for x in q.coeffs)


# -- the defining polynomials ----------------------------------------------

class TestLagrangianPolynomials:
    def test_symbolic_degrees(self):
        n_poly, d_poly = lagrangian_numer_denom(SYM, symbolic=True)
        n_degs = {k for k, coef in enumerate(n_poly.coeffs) if coef}
        d_degs = {k for k, coef in enumerate(d_poly.coeffs) if coef}
        assert n_degs == {0, 1, 2, 4, 6}
        assert d_degs == {0, 2}

    def test_point_nu_one(self):
        n_poly, d_poly = lagrangian_numer_denom(IsingParams(nu=1, c=1),
                                                symbolic=False)
        assert n_poly.coeffs == [Fraction(1), Fraction(-6)]
        assert d_poly.coeffs == [Fraction(1)]

    def test_nu_to_zero_limit(self):
        # As nu -> 0 the numerator degenerates to 1 - 21c^2 S^2 + 135 c^4 S^4
        # - 243 c^6 S^6; compare the symbolic table evaluated at nu=0 against
        # that closed form on a few rational c.
        n_poly, _ = lagrangian_numer_denom(SYM, symbolic=True)
        for c_val in (Fraction(1), Fraction(1, 2), Fraction(7, 5)):
            vals = [coef.evaluate(Fraction(0), c_val) for coef in n_poly.coeffs]
            expect = [
                Fraction(1), 0, -21 * c_val ** 2, 0, 135 * c_val ** 4, 0,
                -243 * c_val ** 6,
            ]
            assert vals == [Fraction(e) for e in expect]


# -- the S series -----------------------------------------------------------

class TestSolveS:
    def test_low_order_symbolic(self):
        s = solve_S(SYM, 2)
        assert s.coefficient(0).is_zero()
        assert s.coefficient(1) == ParamPoly.constant(1)
        assert s.coefficient(2) == 3 * NU ** 2 * (C ** 2 + 1)

    def test_symbolic_coefficients_integer_nonnegative(self):
        s = solve_S(SYM, 6)
        for n in range(1, 7):
            coef = s.coefficient(n)
            rng = coef.c_degree_range()
            assert rng is not None and rng[0] >= 0, "not a polynomial in c"
            for q in coef.terms.values():
                assert type(q) is int, "non-integer coefficient %r" % (q,)
                assert q >= 0, "negative coefficient"

    def test_fixed_point_residual_symbolic(self):
        residual = fixed_point_residual(SYM, 8)
        assert all(r.is_zero() for r in residual)

    def test_fixed_point_residual_numeric(self):
        params = IsingParams(nu=Fraction(5, 2), c=Fraction(9, 10),
                             precision_bits=128)
        residual = fixed_point_residual(params, 20)
        assert len(residual) == 21
        assert all(r == 0 for r in residual)

    def test_lagrange_inversion_oracle_symbolic(self):
        s = solve_S(SYM, 8)
        for n, expect in enumerate(lagrange_S(SYM, 8, symbolic=True), start=1):
            assert s.coefficient(n) == expect, "S_%d" % n

    @pytest.mark.parametrize("nu, c", [
        (Fraction(3, 2), Fraction(21, 20)), (Fraction(7, 5), Fraction(11, 13)),
    ])
    def test_lagrange_inversion_oracle_at_points(self, nu, c):
        oracle = lagrange_S(IsingParams(nu=nu, c=c), 30, symbolic=False)
        exact = _solve_S_ring(_Model(IsingParams(nu=nu, c=c), "exact"), 30)
        assert exact.coeffs[1:] == oracle
        got = solve_S(IsingParams(nu=nu, c=c, precision_bits=96), 30)
        assert [x._mpf_ for x in got.coeffs[1:]] == [rounded(q, 96) for q in oracle]

    @pytest.mark.parametrize("nu, c", [
        (Fraction(3, 2), Fraction(21, 20)), (Fraction(7, 5), Fraction(11, 13)),
    ])
    def test_numeric_is_exact_ring_rounded(self, nu, c):
        exact = _solve_S_ring(_Model(IsingParams(nu=nu, c=c), "exact"), 30)
        got = solve_S(IsingParams(nu=nu, c=c, precision_bits=96), 30)
        for n in range(31):
            assert got.coefficient(n)._mpf_ == rounded(exact.coefficient(n), 96)


# -- the partition-function series -----------------------------------------

class TestSolveZ:
    def test_first_three_coefficients_verbatim(self):
        z_series = solve_Z(SYM, 3)
        assert z_series.coefficient(0).is_zero()
        for n in (1, 2, 3):
            assert z_series.coefficient(n) == expected_Z(n), "n=%d" % n

    def test_symbolic_coefficients_are_int(self):
        z_series = solve_Z(SYM, 12)
        for n in range(1, 13):
            for q in z_series.coefficient(n).terms.values():
                assert type(q) is int, "Z_%d has coefficient %r" % (n, q)

    def test_laurent_window_and_parity(self):
        z_series = solve_Z(SYM, 6)
        for n in range(1, 7):
            coef = z_series.coefficient(n)
            lo, hi = coef.c_degree_range()
            assert -n <= lo and hi <= n
            for (_, dc), q in coef.terms.items():
                assert (dc - n) % 2 == 0
                assert q > 0  # positive weights only

    def test_scaling_identity(self):
        # Z(nu,c,cz) * 9 z^2 (1-nu^2) (1+3c^2(1-nu^2)S) == bracket(S, z)
        order = 6
        z_series = solve_Z(SYM, order)
        s = solve_S(SYM, order)
        g = 1 - NU ** 2
        zero = ParamPoly()
        rescaled = TruncatedSeries(
            [z_series.coefficient(n).shift_c(n) for n in range(order + 1)], zero
        )
        e_series = TruncatedSeries([ParamPoly.constant(1)] + [zero] * order,
                                   zero) + s.scale(3 * C ** 2 * g)
        lhs = (rescaled * e_series).scale(9 * g).shift_up(2)
        rhs = pol_Z_eval(s, SYM, order)
        for n in range(order + 1):
            assert lhs.coefficient(n) == rhs.coefficient(n), "z^%d" % n

    def test_numeric_matches_symbolic_at_points(self):
        z_sym = solve_Z(SYM, 12)
        points = [
            (Fraction(1, 2), Fraction(1)),
            (Fraction(2), Fraction(1)),
            (Fraction(3, 2), Fraction(11, 10)),
            (Fraction(4), Fraction(9, 10)),
            (Fraction(1, 3), Fraction(2)),
        ]
        for nu, c in points:
            params = IsingParams(nu=nu, c=c, precision_bits=128)
            z_num = solve_Z(params, 12)
            for n in range(1, 13):
                exact = z_sym.coefficient(n).evaluate(nu, c)
                assert z_num.coefficient(n)._mpf_ == rounded(exact, 128), "n=%d" % n

    @pytest.mark.parametrize("nu, c", [
        (Fraction(3, 2), Fraction(21, 20)),
        (Fraction(7, 5), Fraction(11, 13)),
        (Fraction(13, 7), Fraction(5, 3)),
        (Fraction(1, 3), Fraction(2)),
    ])
    def test_integer_ring_equals_exact_ring(self, nu, c):
        # L = (den nu * den c)^2 mixes distinct primes from nu and from c.
        got = _solve_Z_ring(_Model(IsingParams(nu=nu, c=c), "integer"), 60)
        assert got[0] == 0
        assert got[1:] == exact_ring_Z(nu, c, 60)

    @given(st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6)
           .filter(lambda nu: nu != 1),
           st.fractions(min_value=Fraction(3, 4), max_value=Fraction(5, 4),
                        max_denominator=12))
    @settings(max_examples=12, deadline=None)
    def test_integer_ring_equals_exact_ring_property(self, nu, c):
        got = _solve_Z_ring(_Model(IsingParams(nu=nu, c=c), "integer"), 25)
        assert got[1:] == exact_ring_Z(nu, c, 25)

    def test_corrupted_bracket_fails_exact_cancellation(self):
        model = _Model(IsingParams(nu=Fraction(3, 2), c=Fraction(21, 20)), "integer")
        model.bracket_tab[(2, 0)] += 1
        with pytest.raises(NonZeroRemainder):
            _solve_Z_ring(model, 5)

    def test_bracket_at_point_matches_symbolic(self):
        nu, c = Fraction(5, 2), Fraction(9, 10)
        params = IsingParams(nu=nu, c=c, precision_bits=128)
        w_num = pol_Z_eval(solve_S(params, 8), params)
        w_sym = pol_Z_eval(solve_S(SYM, 8), SYM)
        with mpmath.workprec(128):
            for n in range(9):
                ref = mpmath.mpf(rounded(w_sym.coefficient(n).evaluate(nu, c), 256))
                assert abs(w_num.coefficient(n) - ref) <= mpmath.mpf(2) ** -100 * max(1, abs(ref))


class TestCoefficientSequence:
    def test_small_values(self):
        seq = coefficient_sequence(
            IsingParams(nu=Fraction(1, 2), c=1, precision_bits=96), 2
        )
        assert abs(seq[0] - mpmath.mpf(1) / 2) < mpmath.mpf(2) ** -40
        seq2 = coefficient_sequence(IsingParams(nu=2, c=1, precision_bits=96), 2)
        assert abs(seq2[1] - 177) < mpmath.mpf(2) ** -40

    @pytest.mark.parametrize("nu, c", [
        (Fraction(1, 2), Fraction(1)),
        (Fraction(2), Fraction(1)),
        (Fraction(3, 2), Fraction(11, 10)),
        (Fraction(4), Fraction(9, 10)),
        (Fraction(1, 3), Fraction(2)),
    ])
    def test_correctly_rounded(self, nu, c):
        exact = exact_ring_Z(nu, c, 30)
        for bits in (96, 128):
            seq = coefficient_sequence(IsingParams(nu=nu, c=c, precision_bits=bits), 30)
            assert [z._mpf_ for z in seq] == [rounded(q, bits) for q in exact]

    def test_positivity(self):
        seq = coefficient_sequence(IsingParams(nu=4, c=1, precision_bits=128), 50)
        assert len(seq) == 50
        assert all(v > 0 for v in seq)

    def test_requires_numeric_mode(self):
        with pytest.raises(ValueError):
            coefficient_sequence(SYM, 5)
