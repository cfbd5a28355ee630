"""Tests for the Lagrangian series engine."""
import dataclasses
import sys
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_rational, round_nearest

from isingmaps import series
from isingmaps.cli import main
from isingmaps.errors import NonZeroRemainder
from isingmaps.exactalg import PP_ONE, PP_ZERO, ParamPoly
from isingmaps.mapcount import survey
from isingmaps.precision import to_mpf
from isingmaps.series import (
    IsingParams,
    TruncatedSeries,
    _Jet,
    _Model,
    _l1,
    _majorant,
    _pack,
    _unpack,
    _series_powers,
    _solve_S_ring,
    _solve_Z_ring,
    coefficient_sequence,
    exact_Z,
    lagrangian_numer_denom,
    nu_one_jets,
    solve_S,
    solve_Z,
    solve_Z_jets,
)

NU = ParamPoly.nu()
C = ParamPoly.c()

SYM = IsingParams(nu=2, c=1)  # the symbolic series does not depend on the point


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


def bracket_at(s, tab, order, zero, one):
    """The bracket polynomial ``tab`` ({(s_degree, z_degree): coefficient})
    at the series S, to z^order, from TruncatedSeries products alone."""
    s = TruncatedSeries((s.coeffs + [zero] * order)[:order + 1], zero)
    pw = _series_powers(s, 7)
    pw[0] = TruncatedSeries([one] + [zero] * order, zero)
    out = TruncatedSeries([zero] * (order + 1), zero)
    for (i, j), coef in tab.items():
        out = out + pw[i].shift_up(j).scale(coef)
    return out


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


def reduced_S(params: IsingParams, order: int) -> TruncatedSeries:
    """S_0..S_order exact at the point, from the reduced integer pass."""
    model = _Model(params, "integer")
    return TruncatedSeries(model.s_coefficients(_solve_S_ring(model, order).coeffs),
                           Fraction(0))


def fixed_point_residual(params: IsingParams, order: int, symbolic: bool) -> list:
    """Coefficients of S N(S) - z D(S)^2 for the computed S (all should vanish).

    The residual is formed from TruncatedSeries products with the unreduced
    N and D, not from the power columns of the forward recurrence or the
    reduced curve the point pass solves, so it checks both independently.
    ``symbolic`` reads the packed pass and returns ParamPoly entries;
    otherwise the reduced pass at the point, with exact Fraction entries.
    """
    if symbolic:
        n_tab, d_tab = series._symbolic_tables()[:2]
        zero, one = PP_ZERO, PP_ONE
        s = solve_S(params, order)
    else:
        model = _Model(params, "exact")
        n_tab, d_tab, zero, one = model.n_tab, model.d_tab, model.zero, model.one
        s = reduced_S(params, order)
    pw = _series_powers(s, max(max(n_tab), max(d_tab)))
    pw[0] = TruncatedSeries([one] + [zero] * order, zero)

    def at_s(tab):
        out = TruncatedSeries([zero] * (order + 1), zero)
        for k, coef in tab.items():
            out = out + pw[k].scale(coef)
        return out

    ns, ds = at_s(n_tab), at_s(d_tab)
    return (s * ns - (ds * ds).shift_up(1)).coeffs


# -- parameter validation ---------------------------------------------------

class TestIsingParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            IsingParams(nu=0, c=1)
        with pytest.raises(ValueError):
            IsingParams(nu=2, c=Fraction(-1, 2))

    def test_symbolic_mode_allows_nu_one(self):
        p = IsingParams(nu=1, c=1)
        assert solve_S(p, 3).coefficient(1) == PP_ONE

    def test_is_a_bare_point(self):
        assert [f.name for f in dataclasses.fields(IsingParams)] == ["nu", "c"]
        p = IsingParams(nu=Fraction(3, 2), c="21/20")
        assert (p.nu, p.c) == (Fraction(3, 2), Fraction(21, 20))


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
        residual = fixed_point_residual(SYM, 8, symbolic=True)
        assert all(r.is_zero() for r in residual)

    def test_fixed_point_residual_numeric(self):
        params = IsingParams(nu=Fraction(5, 2), c=Fraction(9, 10))
        residual = fixed_point_residual(params, 20, symbolic=False)
        assert len(residual) == 21
        assert all(r == 0 for r in residual)

    @pytest.mark.parametrize("nu", [Fraction(1, 2), Fraction(2), Fraction(5)])
    def test_fixed_point_residual_numeric_at_c_one(self, nu):
        # the residual reads the unreduced N and D, while the S under test
        # comes from the curve with 1 + e1 S cancelled
        params = IsingParams(nu=nu, c=1)
        assert "d_tab" not in vars(_Model(params, "integer"))
        residual = fixed_point_residual(params, 20, symbolic=False)
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
        assert reduced_S(IsingParams(nu=nu, c=c), 30).coeffs[1:] == oracle

    @pytest.mark.parametrize("nu, c", [
        (Fraction(3, 2), Fraction(21, 20)), (Fraction(7, 5), Fraction(11, 13)),
    ])
    def test_numeric_is_exact_ring_rounded(self, nu, c):
        # the reduced pass, rounded once, against the unreduced exact ring
        exact = _solve_S_ring(_Model(IsingParams(nu=nu, c=c), "exact"), 30)
        got = series._rounded(reduced_S(IsingParams(nu=nu, c=c), 30).coeffs, 96)
        for n in range(31):
            assert got[n]._mpf_ == rounded(exact.coefficient(n), 96)


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
        rhs = bracket_at(s, series._symbolic_tables()[2], order, PP_ZERO, PP_ONE)
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
            z_num = coefficient_sequence(IsingParams(nu=nu, c=c), 12, 128)
            for n in range(1, 13):
                exact = z_sym.coefficient(n).evaluate(nu, c)
                assert z_num[n - 1]._mpf_ == rounded(exact, 128), "n=%d" % n

    @pytest.mark.parametrize("nu, c", [
        (Fraction(3, 2), Fraction(21, 20)),
        (Fraction(7, 5), Fraction(11, 13)),
        (Fraction(13, 7), Fraction(5, 3)),
        (Fraction(1, 3), Fraction(2)),
        (Fraction(1, 2), Fraction(1)),
        (Fraction(7, 2), Fraction(1)),
        (Fraction(4), Fraction(1)),
        (Fraction(5), Fraction(1)),
        (Fraction(4), Fraction(19, 20)),
        (Fraction(1, 3), Fraction(7, 5)),
    ])
    def test_integer_ring_equals_exact_ring(self, nu, c):
        # The scale mixes distinct primes from nu and from c, and can be a
        # fraction; at c = 1 the curve itself is reduced.
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

    @pytest.mark.parametrize("c", [Fraction(21, 20), Fraction(1)])
    def test_bracket_off_the_curve_fails_the_fold(self, monkeypatch, c):
        # a bracket term that is not a multiple of 1 + e1 S on the curve
        # leaves a remainder in the fold, off c = 1 and at c = 1
        n_tab, d_tab, bracket_tab, e1, nine_gamma = series._symbolic_tables()
        bracket_tab = dict(bracket_tab)
        bracket_tab[(0, 0)] = ParamPoly.constant(1)
        monkeypatch.setattr(series, "_symbolic_tables",
                            lambda: (n_tab, d_tab, bracket_tab, e1, nine_gamma))
        with pytest.raises(NonZeroRemainder):
            _Model(IsingParams(nu=Fraction(3, 2), c=c), "integer")

    @pytest.mark.parametrize("nu, c, scale", [
        (Fraction(1, 2), 1, Fraction(4, 3)), (Fraction(2), 1, Fraction(1, 3)),
        (Fraction(5), 1, Fraction(1, 6)), (Fraction(6), 1, Fraction(1)),
        (Fraction(4), Fraction(19, 20), Fraction(100, 3)),
        (Fraction(3, 2), Fraction(19, 20), Fraction(1600)),
    ])
    def test_reduced_model_shape(self, nu, c, scale):
        model = _Model(IsingParams(nu=nu, c=c), "integer")
        assert model.scale == scale and model.e1 == 0
        assert max(i for i, _ in model.bracket_tab) == 6
        assert max(j for _, j in model.bracket_tab) <= 2
        # at c = 1 the curve has degree 6, so S^7 is never formed
        assert max(k + 1 for k in model.n_tab) == (6 if c == 1 else 7)
        assert max(model.e_tab) == (3 if c == 1 else 4)
        assert model.n_tab[0] == model.e_tab[0] == 1
        tabs = list(model.n_tab.values()) + list(model.e_tab.values()) \
            + list(model.bracket_tab.values())
        assert all(type(v) is int for v in tabs)

    def test_fold_identities_hold_identically(self):
        # the remainders of B and P = S N - z D^2 modulo 1 + e1 S satisfy
        # r_B = k(z) r_P with k linear in z, identically in nu and c; and
        # at c = 1, 1 + e1 S divides both N and D
        n_tab, d_tab, bracket_tab, e1, _ = series._symbolic_tables()
        nu, c, s, z = sympy.symbols("nu c s z")

        def sym(p):
            return sum(q * nu ** dv * c ** dc for (dv, dc), q in p.terms.items())

        big_n = sum(sym(v) * s ** k for k, v in n_tab.items())
        big_d = sum(sym(v) * s ** k for k, v in d_tab.items())
        bracket = sum(sym(v) * s ** i * z ** j for (i, j), v in bracket_tab.items())
        root = -1 / sym(e1)
        r_b = sympy.together(bracket.subs(s, root))
        r_p = sympy.together((s * big_n - z * big_d ** 2).subs(s, root))
        k = (36 * c ** 2 * (nu ** 2 - 1) ** 2 * z - 3 * nu ** 2 + 8) \
            / (3 * (c ** 2 - 1) * (nu ** 2 - 1))
        assert sympy.cancel(r_b - k * r_p) == 0
        unit = (1 + sym(e1) * s).subs(c, 1)
        for poly in (big_n, big_d):
            assert sympy.rem(sympy.expand(poly.subs(c, 1)), unit, s) == 0

    def test_bracket_at_point_matches_symbolic(self):
        nu, c = Fraction(5, 2), Fraction(9, 10)
        params = IsingParams(nu=nu, c=c)
        model = _Model(params, "exact")
        with mpmath.workprec(128):
            s_num = TruncatedSeries(series._rounded(reduced_S(params, 8).coeffs, 128),
                                    mpmath.mpf(0))
            w_num = bracket_at(s_num, {k: to_mpf(v) for k, v in
                                                    model.bracket_tab.items()},
                               8, model.zero, model.one)
        w_sym = bracket_at(solve_S(SYM, 8), series._symbolic_tables()[2], 8, PP_ZERO, PP_ONE)
        with mpmath.workprec(128):
            for n in range(9):
                ref = mpmath.mpf(rounded(w_sym.coefficient(n).evaluate(nu, c), 256))
                assert abs(w_num.coefficient(n) - ref) <= mpmath.mpf(2) ** -100 * max(1, abs(ref))


@pytest.fixture(scope="module")
def param_poly_pass_18():
    """S_0..S_18 and g_0..g_18 (the bracket at S over 1 + e1 S) over ParamPoly,
    from TruncatedSeries arithmetic alone: S by Lagrange inversion."""
    top = 18
    s = TruncatedSeries([PP_ZERO] + lagrange_S(SYM, top, symbolic=True), PP_ZERO)
    one = TruncatedSeries([PP_ONE] + [PP_ZERO] * top, PP_ZERO)
    g = bracket_at(s, series._symbolic_tables()[2], top, PP_ZERO, PP_ONE).divide(
        one + s.scale(series._symbolic_tables()[3]))
    return s.coeffs, g.coeffs


even_param_polys = st.dictionaries(
    st.tuples(st.integers(0, 5).map(lambda a: 2 * a), st.integers(0, 4).map(lambda b: 2 * b)),
    st.integers(-2 ** 20, 2 ** 20), max_size=8).map(ParamPoly)


def tables_with(**changes):
    """The model tables with some bracket or N entries replaced."""
    n_tab, d_tab, bracket_tab, e1, nine_gamma = series._symbolic_tables()
    n_tab, bracket_tab = dict(n_tab), dict(bracket_tab)
    for key, entry in changes.get("bracket", {}).items():
        bracket_tab[key] = entry
    for key, entry in changes.get("n", {}).items():
        n_tab[key] = entry
    return lambda: (n_tab, d_tab, bracket_tab, e1, nine_gamma)


class TestPackedPass:
    @given(even_param_polys, even_param_polys, st.integers(-6, 6))
    @settings(max_examples=60, deadline=None)
    def test_pack_is_a_ring_homomorphism(self, a, b, shift):
        # slot bound 2^47 > 8 * 2^40 bounds every coefficient of a b;
        # c^2-degrees stay below 9 slots
        bits, slots = 48, 9
        pa, pb = _pack(a, bits, slots), _pack(b, bits, slots)
        assert _unpack(pa, bits, slots) == a
        assert _unpack(pa + pb, bits, slots) == a + b
        assert _unpack(pa - pb, bits, slots) == a - b
        assert _unpack(pa * pb, bits, slots) == a * b
        assert _unpack(pa, bits, slots, shift) == a.shift_c(shift)
        assert _unpack(pa, bits, slots, shift).shift_c(-shift) == a

    def test_majorant_bounds_every_coefficient(self, param_poly_pass_18):
        s_ref, g_ref = param_poly_pass_18
        tables = series._symbolic_tables()
        nine_gamma = tables[4]
        for order in range(1, 17):
            top = order + 2
            s_major, g_major = _majorant(*tables[:4], top)
            model = _Model(SYM, "symbolic", order)
            half = 1 << (model.bits - 1)
            assert 2 * max(s_major + g_major) < half
            for m in range(top + 1):
                assert _l1(s_ref[m]) <= s_major[m], "S_%d" % m
                assert _l1(g_ref[m]) <= g_major[m], "g_%d" % m
                if m >= 3:
                    q = g_ref[m].exact_div(nine_gamma)
                    assert 9 * max(map(abs, q.terms.values())) <= g_major[m], "q_%d" % m

    def test_matches_the_param_poly_pass(self, param_poly_pass_18):
        s_ref, g_ref = param_poly_pass_18
        nine_gamma = series._symbolic_tables()[4]
        assert solve_S(SYM, 16).coeffs == s_ref[:17]
        z = solve_Z(SYM, 16)
        assert z.coefficient(0).is_zero()
        for n in range(1, 17):
            assert z.coefficient(n) == g_ref[n + 2].exact_div(nine_gamma).shift_c(-n)

    def test_indivisible_bracket_raises(self, monkeypatch):
        # nu^2 c^6 S^7 first reaches z^7, past the low-order check, and
        # 9(1 - nu^2) does not divide what it adds there
        entry = series._symbolic_tables()[2][(7, 0)] + NU ** 2 * C ** 6
        monkeypatch.setattr(series, "_symbolic_tables", tables_with(bracket={(7, 0): entry}))
        with pytest.raises(NonZeroRemainder):
            solve_Z(SYM, 6)

    def test_remainder_or_quotient_outside_the_slot_range_raises(self):
        # an exact integer quotient whose digit is too large for the product
        # with 9(1 - nu^2) to be read back is no proof of divisibility
        model = _Model(SYM, "symbolic", 4)
        half = 1 << (model.bits - 1)
        big = model.nine_gamma * (half - 1)
        with pytest.raises(NonZeroRemainder):
            model.z_coefficient(big, 1)
        small = model.nine_gamma * (half // 18)
        assert model.z_coefficient(small, 1) == ParamPoly({(0, -1): half // 18})
        with pytest.raises(NonZeroRemainder):
            model.z_coefficient(small + 1, 1)

    @pytest.mark.parametrize("changes", [
        {"bracket": {(0, 2): 3 * C ** 6 * (1 - NU ** 2)}},  # c^2-degree 3 > 0 + 2
        {"n": {1: -3 * NU ** 2 * (C ** 4 + 1)}},  # c^2-degree 2 > 1
        {"n": {2: NU * C ** 2}},  # odd power of nu
    ])
    def test_table_outside_the_degree_bound_is_refused(self, monkeypatch, changes):
        monkeypatch.setattr(series, "_symbolic_tables", tables_with(**changes))
        with pytest.raises(ValueError, match="c\\^2-degree"):
            _Model(SYM, "symbolic", 4)

    def test_packed_model_refuses_higher_orders(self):
        model = _Model(SYM, "symbolic", 4)
        with pytest.raises(ValueError):
            _solve_Z_ring(model, 5)
        with pytest.raises(ValueError):
            model.s_coefficients(_solve_S_ring(model, 7).coeffs)
        assert len(model.s_coefficients(_solve_S_ring(model, 6).coeffs)) == 7
        with pytest.raises(ValueError):
            _Model(SYM, "symbolic")

    def test_no_param_poly_product_in_the_pass(self, monkeypatch, capsys):
        inside, outside = [], []
        passes = {"_power_columns", "_solve_Z_ring"}
        mul = ParamPoly.__mul__

        def counted(self, other):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_name not in passes:
                frame = frame.f_back
            (outside if frame is None else inside).append(1)
            return mul(self, other)

        monkeypatch.setattr(ParamPoly, "__mul__", counted)
        monkeypatch.setattr(ParamPoly, "__rmul__", counted)
        series._symbolic_tables.cache_clear()
        try:
            assert main(["coeffs", "--symbolic", "--n-max", "12"]) == 0
        finally:
            series._symbolic_tables.cache_clear()
        assert "9*nu^4*c^2 + 8*nu^2 + 1" in capsys.readouterr().out
        assert outside, "the counter saw no ParamPoly product at all"
        assert not inside


def symbolic_theta_Z(z_sym, nu, c, n):
    """(Z_n, theta Z_n, theta^2 Z_n) from the symbolic polynomial at (nu, c)."""
    zn = z_sym.coefficient(n)
    tzn = zn.c_log_derivative()
    return tuple(p.evaluate(nu, c) for p in (zn, tzn, tzn.c_log_derivative()))


@pytest.fixture(scope="module")
def z_sym_14():
    return solve_Z(SYM, 14)


class TestJetPass:
    def test_leibniz_product(self):
        # theta(f g) = f theta g + g theta f and
        # theta^2(f g) = f theta^2 g + 2 theta f theta g + g theta^2 f
        j = _Jet(3, 2, 5) * _Jet(-1, 4, 1)
        assert (j.f, j.tf, j.ttf) == (-3, 3 * 4 + 2 * -1, 3 * 1 + 2 * 2 * 4 + 5 * -1)
        assert not _Jet(0) and _Jet(0, 0, 1) and _Jet(0, 1)

    @pytest.mark.parametrize("nu", [Fraction(1, 2), Fraction(3, 2), Fraction(2),
                                    Fraction(3), Fraction(4), Fraction(5), Fraction(6)])
    def test_equals_symbolic_theta_derivatives(self, z_sym_14, nu):
        for c in (Fraction(1), Fraction(9, 10), Fraction(11, 10), Fraction(19, 20),
                  Fraction(21, 20)):
            jets = solve_Z_jets(IsingParams(nu=nu, c=c), 14)
            assert len(jets) == 15 and jets[0] == (0, 0, 0)
            for n in range(1, 15):
                want = symbolic_theta_Z(z_sym_14, nu, c, n)
                assert jets[n] == want, "nu=%s c=%s n=%d" % (nu, c, n)
                assert all(type(x) is Fraction for x in jets[n])

    @given(st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6)
           .filter(lambda nu: nu != 1),
           st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=7),
           st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_equals_symbolic_theta_derivatives_property(self, z_sym_14, nu, c, n):
        assert solve_Z_jets(IsingParams(nu=nu, c=c), n)[n] \
            == symbolic_theta_Z(z_sym_14, nu, c, n)

    def test_value_part_equals_integer_pass(self):
        params = IsingParams(nu=Fraction(7, 5), c=Fraction(11, 13))
        values = [j[0] for j in solve_Z_jets(params, 30)]
        assert values[1:] == _solve_Z_ring(_Model(params, "integer"), 30)[1:]

    def test_refuses_empty_order(self):
        for nu in (1, 2):
            with pytest.raises(ValueError):
                solve_Z_jets(IsingParams(nu=nu, c=1), 0)

    def test_nu_one_reads_the_closed_form(self):
        c = Fraction(3, 2)
        assert solve_Z_jets(IsingParams(nu=1, c=c), 16) == nu_one_jets(c, 16)

    def test_corrupted_bracket_fails_exact_cancellation(self):
        model = _Model(IsingParams(nu=Fraction(3, 2), c=Fraction(21, 20)), "jet")
        model.bracket_tab[(2, 0)] = model.bracket_tab[(2, 0)] + _Jet(0, 0, 1)
        with pytest.raises(NonZeroRemainder):
            _solve_Z_ring(model, 5)


class TestCoefficientSequence:
    def test_small_values(self):
        seq = coefficient_sequence(IsingParams(nu=Fraction(1, 2), c=1), 2, 96)
        assert abs(seq[0] - mpmath.mpf(1) / 2) < mpmath.mpf(2) ** -40
        seq2 = coefficient_sequence(IsingParams(nu=2, c=1), 2, 96)
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
            seq = coefficient_sequence(IsingParams(nu=nu, c=c), 30, bits)
            assert [z._mpf_ for z in seq] == [rounded(q, bits) for q in exact]

    def test_positivity(self):
        seq = coefficient_sequence(IsingParams(nu=4, c=1), 50, 128)
        assert len(seq) == 50
        assert all(v > 0 for v in seq)

    def test_defaults_to_the_default_precision(self):
        params = IsingParams(nu=Fraction(3, 2), c=Fraction(21, 20))
        seq = coefficient_sequence(params, 12)
        assert [z._mpf_ for z in seq] == [rounded(q, 192) for q in exact_Z(params, 12)[1:]]
        with pytest.raises(ValueError):
            coefficient_sequence(params, 0)


def _agree_as_laurent_polynomials(poly, value_at, n):
    """poly(1, c) == value_at(c) as Laurent polynomials in c, where value_at
    is one of Z_n, theta Z_n, theta^2 Z_n in closed form, whose exponents lie
    in [2 - n, n].  Both sides are Laurent polynomials, so agreement at more
    positive points than the span of their exponents proves the identity."""
    exponents = [dc for _, dc in poly.terms] + [2 - n, n]
    span = max(exponents) - min(exponents)
    return all(poly.evaluate(1, c) == value_at(c) for c in range(1, span + 2))


class TestNuOneClosedForm:
    """Z_n(1, c) = q_n c (c + 1/c)^(n - 1): the spins decouple at nu = 1."""

    def test_equals_the_packed_pass_to_order_24(self):
        z_sym = solve_Z(SYM, 24)  # one packed pass
        for n in range(1, 25):
            zn = z_sym.coefficient(n)
            tzn = zn.c_log_derivative()
            for k, poly in enumerate((zn, tzn, tzn.c_log_derivative())):
                assert _agree_as_laurent_polynomials(
                    poly, lambda c: nu_one_jets(c, n)[n][k], n), (n, k)

    def test_equals_the_enumeration_oracle(self):
        for n in range(1, 6):
            report = survey(n)
            assert _agree_as_laurent_polynomials(
                report.partition_polynomial, lambda c: nu_one_jets(c, n)[n][0], n)
            assert nu_one_jets(1, n)[n][0] == report.rooted_map_count * 2 ** (n - 1)

    def test_tutte_census(self):
        # q_n = 2 3^n (2n)! / (n! (n + 2)!) rooted quartic maps, at c = 1 times 2^(n - 1)
        q = [2, 9, 54, 378, 2916, 24057, 208494]
        assert [z for z, _, _ in nu_one_jets(1, 7)[1:]] == \
            [qn * 2 ** (n - 1) for n, qn in enumerate(q, start=1)]

    def test_logarithmic_derivatives(self):
        c = Fraction(21, 20)
        u, v = (c * c - 1) / (c * c + 1), 4 * c * c / (c * c + 1) ** 2
        for n, (z, tz, ttz) in enumerate(nu_one_jets(c, 30)[1:], start=1):
            assert tz / z == 1 + (n - 1) * u
            assert (ttz * z - tz * tz) / (z * z) == (n - 1) * v

    def test_numeric_mode_rounds_the_closed_form(self):
        c = Fraction(9, 10)
        exact = exact_Z(IsingParams(nu=1, c=c), 40)
        assert exact == [z for z, _, _ in nu_one_jets(c, 40)]
        for bits in (53, 192):
            seq = coefficient_sequence(IsingParams(nu=1, c=c), 40, bits)
            assert [z._mpf_ for z in seq] == [rounded(q, bits) for q in exact[1:]]

    def test_point_models_refuse_nu_one(self):
        params = IsingParams(nu=1, c=Fraction(21, 20))
        for kind in ("integer", "exact", "jet"):
            with pytest.raises(ValueError, match="nu = 1"):
                _Model(params, kind)
        assert solve_S(IsingParams(nu=1, c=Fraction(21, 20)), 3).coefficient(1) == PP_ONE
