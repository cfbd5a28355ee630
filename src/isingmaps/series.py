"""Truncated-series engine for the spin-weighted quartic-map generating function.

The partition-function series Z(nu, c, z) = sum_{n>=1} Z_n(nu, c) z^n is
produced through an auxiliary algebraic series S(z) with S(0) = 0 that
satisfies

    z = S * N(S) / D(S)^2,

where N and D are explicit polynomials in S over Q[nu, c] (see
:func:`lagrangian_numer_denom`).  A fixed bracket polynomial in (S, z) divided
by 9 z^2 (1 - nu^2) (1 + 3 c^2 (1 - nu^2) S) then yields Z(nu, c, c z), from
which the coefficients are read off after a per-order rescale by c^-n.

S is solved by one forward pass: with S = O(z), the defining equation
makes S_n explicit in S_1..S_(n-1) through the coefficients of S^2..S^7,
and those powers are filled coefficient by coefficient alongside S (see
:func:`_power_columns`).  The bracket is then a linear combination of the
same power columns, followed by one online division by the bracket's
denominator factor; no step divides by anything but 1, so the pass runs
unchanged over every coefficient ring.

Two modes are supported, selected by :class:`IsingParams`: symbolic
(coefficients are :class:`~isingmaps.exactalg.ParamPoly`) and
numeric-at-point.  Numeric mode is exact at the point, rounded once: the
solve runs over plain ``int`` after the rescaling S = L T, z = L w with
L = (den nu * den c)^2, which makes every table entry an integer; each
exact rational Z_n (or S_n) is then rounded to the nearest mpf at the
requested precision.  Both modes share one pipeline, including the exact
check that the three lowest coefficients cancel.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import List, Optional, Tuple

import mpmath
from mpmath.libmp import from_rational, round_nearest

from .errors import NonZeroRemainder, NumericModeAtNuOne
from .exactalg import PP_ONE, PP_ZERO, ParamPoly, UniPoly, ring_exact_div
from .precision import to_mpf


@dataclass(frozen=True)
class IsingParams:
    """A parameter point (nu, c) plus the computation mode.

    ``nu`` is the monochromatic-edge weight, ``c`` the spin-imbalance weight;
    both are kept as exact rationals no matter the mode.  ``precision_bits``
    selects the mode for series work: ``None`` for symbolic coefficients, a
    bit count for numeric-at-point mode, whose values are exact at the
    point and rounded once to that many bits.  Numeric mode
    refuses nu = 1 because the parametrization's 1/(1 - nu^2) prefactor is a
    pointwise 0/0 there; symbolic mode divides it out exactly instead.
    """

    nu: Fraction
    c: Fraction
    precision_bits: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "nu", Fraction(self.nu))
        object.__setattr__(self, "c", Fraction(self.c))
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.precision_bits is not None:
            if self.precision_bits < 8:
                raise ValueError("precision_bits must be at least 8")
            if self.nu == 1:
                raise NumericModeAtNuOne(
                    "numeric mode is undefined at nu = 1; use symbolic mode"
                )

    @property
    def symbolic(self) -> bool:
        return self.precision_bits is None


# ---------------------------------------------------------------------------
# Model tables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _symbolic_tables():
    """The defining polynomials, with ParamPoly coefficients.

    Returns (n_tab, d_tab, bracket_tab, e1, nine_gamma):
      * n_tab, d_tab: {s_degree: coefficient} for N(S) and D(S);
      * bracket_tab: {(s_degree, z_degree): coefficient} for the bracket
        polynomial of the parametrization;
      * e1: the S-coefficient of the denominator factor 1 + 3c^2(1-nu^2)S;
      * nine_gamma: the exact-division constant 9(1-nu^2).
    """
    nu = ParamPoly.nu()
    c = ParamPoly.c()
    g = 1 - nu ** 2
    n_tab = {
        0: PP_ONE,
        1: -3 * nu ** 2 * (c ** 2 + 1),
        2: -3 * c ** 2 * g * (3 * nu ** 2 + 7),
        4: 135 * c ** 4 * g ** 3,
        6: -243 * c ** 6 * g ** 5,
    }
    d_tab = {0: PP_ONE, 2: -9 * c ** 2 * g ** 2}
    bracket_tab = {
        (7, 0): 405 * c ** 6 * g ** 4,
        (6, 0): 351 * c ** 4 * g ** 3,
        (5, 1): -324 * c ** 4 * g ** 4,
        (5, 0): -27 * c ** 2 * g ** 2 * (5 * c ** 2 - nu ** 2),
        (4, 1): 108 * c ** 4 * g ** 3,
        (4, 0): 3 * c ** 2 * g * (-3 * nu ** 2 - 47),
        (3, 1): 252 * g ** 2 * c ** 2,
        (3, 0): -(6 * c ** 2 + 15) * nu ** 2 - 9 * c ** 2,
        (2, 2): -108 * c ** 2 * g ** 3,
        (2, 1): 9 * g * (4 * c ** 2 + nu ** 2),
        (2, 0): ParamPoly.constant(5),
        (1, 2): -27 * c ** 2 * g ** 2,
        (1, 1): 3 * nu ** 2 - 8,
        (0, 2): 3 * g,
    }
    e1 = 3 * c ** 2 * g
    nine_gamma = 9 * g
    return n_tab, d_tab, bracket_tab, e1, nine_gamma


class _Model:
    """The tables of :func:`_symbolic_tables` realized over a concrete ring.

    ``kind`` is one of "symbolic", "exact" (Fractions at the rational point)
    or "integer" (the exact tables in the variables T = S/L and w = z/L,
    with L = (den nu * den c)^2, over plain ``int``).

    In the integer kind the N and D coefficients of degree k carry L^k, e1
    carries L and the bracket entry of S^i z^j carries L^(i+j); each is an
    integer because its nu- and c-degrees are at most twice its power of L.
    N(0) = D(0) = 1 survive the rescaling, so the forward recurrence for T
    needs no division and the bracket divisor 1 + e1 T has constant term 1:
    the solve never leaves the integers.  ``nine_gamma`` stays the exact
    9(1 - nu^2).
    """

    def __init__(self, params: IsingParams, kind: str):
        n_tab, d_tab, bracket_tab, e1, nine_gamma = _symbolic_tables()
        self.kind = kind
        if kind == "symbolic":
            conv = lambda p: p
            self.zero, self.one = PP_ZERO, PP_ONE
        elif kind in ("exact", "integer"):
            conv = lambda p: p.evaluate(params.nu, params.c)
            self.zero, self.one = Fraction(0), Fraction(1)
        else:  # pragma: no cover - internal misuse
            raise ValueError(kind)
        self.n_tab = {k: conv(v) for k, v in n_tab.items()}
        self.d_tab = {k: conv(v) for k, v in d_tab.items()}
        self.bracket_tab = {k: conv(v) for k, v in bracket_tab.items()}
        self.e1 = conv(e1)
        self.nine_gamma = conv(nine_gamma)
        self.params = params
        if kind == "integer":
            self._rescale_to_int()

    def _rescale_to_int(self):
        big_l = (self.params.nu.denominator * self.params.c.denominator) ** 2
        self.scale = big_l
        self.zero, self.one = 0, 1
        self.n_tab = {k: _integral(v * big_l ** k) for k, v in self.n_tab.items()}
        self.d_tab = {k: _integral(v * big_l ** k) for k, v in self.d_tab.items()}
        self.e1 = _integral(self.e1 * big_l)
        self.bracket_tab = {(i, j): _integral(v * big_l ** (i + j))
                            for (i, j), v in self.bracket_tab.items()}

    def z_coefficient(self, g, n: int):
        """Z_n from the coefficient g of z^(n+2) (w^(n+2) in the integer
        kind) of bracket / (1 + e1 S): divide by 9(1 - nu^2) and undo the
        z -> cz substitution and, in the integer kind, the rescaling."""
        if self.kind == "symbolic":
            return g.exact_div(self.nine_gamma).shift_c(-n)
        return (Fraction(g, self.scale ** (n + 2))
                / (self.nine_gamma * self.params.c ** n))

    def s_coefficients(self, t_coeffs) -> List[Fraction]:
        """Coefficients in z of L * F(z / L), for the integer-kind series F(w)."""
        return [Fraction(t) * Fraction(self.scale) ** (1 - n)
                for n, t in enumerate(t_coeffs)]


def _integral(x: Fraction) -> int:
    if x.denominator != 1:  # pragma: no cover - the degree bounds exclude it
        raise ArithmeticError("rescaled table entry %s is not an integer" % x)
    return x.numerator


def _rounded(values, bits: int) -> List[mpmath.mpf]:
    """Each exact rational rounded to the nearest mpf with ``bits`` bits."""
    with mpmath.workprec(bits):
        return [mpmath.mpf(from_rational(q.numerator, q.denominator, bits,
                                         round_nearest))
                for q in map(Fraction, values)]


# ---------------------------------------------------------------------------
# Truncated power series
# ---------------------------------------------------------------------------

class TruncatedSeries:
    """A power series in z truncated at a fixed order N (coefficients z^0..z^N).

    The coefficient ring is pluggable; ``zero`` is the ring's zero element.
    Binary operations truncate to the shorter order.  Instances are treated
    as immutable.
    """

    __slots__ = ("coeffs", "zero")

    def __init__(self, coeffs, zero):
        self.coeffs = list(coeffs)
        self.zero = zero
        if not self.coeffs:
            self.coeffs = [zero]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int):
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return self.zero

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self.pad(order)
        return TruncatedSeries(self.coeffs[: order + 1], self.zero)

    def pad(self, order: int) -> "TruncatedSeries":
        if order <= self.order:
            return self
        return TruncatedSeries(
            self.coeffs + [self.zero] * (order - self.order), self.zero
        )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)], self.zero
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(
            [self.coeffs[i] - other.coeffs[i] for i in range(n + 1)], self.zero
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        out = [self.zero] * (n + 1)
        right = _nonzero_terms(other.coeffs, 0, n)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if not a:
                continue
            for j, b in right:
                if i + j > n:
                    break
                out[i + j] = out[i + j] + a * b
        return TruncatedSeries(out, self.zero)

    def scale(self, factor) -> "TruncatedSeries":
        return TruncatedSeries([c * factor for c in self.coeffs], self.zero)

    def shift_up(self, k: int) -> "TruncatedSeries":
        """Multiply by z^k, keeping the order (top coefficients fall off)."""
        if k == 0:
            return self
        return TruncatedSeries(
            [self.zero] * k + self.coeffs[: len(self.coeffs) - k], self.zero
        )

    def shift_down(self, k: int) -> "TruncatedSeries":
        """Divide by z^k, discarding the k lowest coefficients."""
        return TruncatedSeries(self.coeffs[k:], self.zero)

    def divide(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Series division; the divisor's constant term must be invertible."""
        n = min(self.order, other.order)
        b0 = other.coeffs[0]
        if not b0:
            raise ZeroDivisionError("series division by z-divisible series")
        unit = _is_ring_one(b0)
        right = _nonzero_terms(other.coeffs, 1, n)
        out = []
        live = []  # live[k]: out[k] is nonzero
        for i in range(n + 1):
            acc = self.coeffs[i]
            for j, bj in right:
                if j > i:
                    break
                if live[i - j]:
                    acc = acc - bj * out[i - j]
            val = acc if unit else ring_exact_div(acc, b0)
            out.append(val)
            live.append(bool(val))
        return TruncatedSeries(out, self.zero)


def _nonzero_terms(coeffs, lo: int, hi: int) -> list:
    """[(j, coeffs[j])] for lo <= j <= hi with coeffs[j] nonzero, j ascending."""
    return [(j, coeffs[j]) for j in range(lo, hi + 1) if coeffs[j]]


def _is_ring_one(x) -> bool:
    if isinstance(x, ParamPoly):
        return x == PP_ONE
    return x == 1


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def lagrangian_numer_denom(
    params: IsingParams, symbolic: Optional[bool] = None
) -> Tuple[UniPoly, UniPoly]:
    """The polynomials N and D of the defining equation z = S N(S)/D(S)^2.

    Returned as UniPoly in S.  With ``symbolic=True`` the coefficients are
    ParamPoly; otherwise they are exact rationals evaluated at the point
    (params.nu, params.c).  Defaults to the params' own mode.
    """
    if symbolic is None:
        symbolic = params.symbolic
    kind = "symbolic" if symbolic else "exact"
    model = _Model(params, kind)
    n_deg = max(model.n_tab)
    d_deg = max(model.d_tab)
    n_poly = UniPoly(
        [model.n_tab.get(k, model.zero) for k in range(n_deg + 1)], zero=model.zero
    )
    d_poly = UniPoly(
        [model.d_tab.get(k, model.zero) for k in range(d_deg + 1)], zero=model.zero
    )
    return n_poly, d_poly


def _series_powers(s: TruncatedSeries, top: int) -> List[TruncatedSeries]:
    """[1-placeholder, S, S^2, ..., S^top] (index 0 unused)."""
    powers = [None, s]
    for k in range(2, top + 1):
        powers.append(powers[k // 2] * powers[k - k // 2])
    return powers


def _dot(left, right, zero):
    """sum(l * r) over the paired entries, the ring zero as the start value."""
    return sum(map(mul, left, right), zero)


def _power_columns(model: _Model, order: int) -> list:
    """[None, P_1, ..., P_top], P_k the coefficient list of S^k to z^order.

    S N(S) = z D(S)^2 with N(0) = 1 and S = O(z) gives, coefficient by
    coefficient,

        S_n = [z^(n-1)] D(S)^2 - sum_{k>=1} n_k [S^(k+1)]_n,

    and for k >= 2 the entry [S^k]_n involves only S_1..S_(n-k+1).  So step n
    first fills [S^k]_n for every k >= 2 as one dot product each, with
    S^k = S^a * S^(k-a), a = k // 2 (half the terms, doubled, for a square),
    and then S_n from the powers.  No division happens, so the same code
    runs over every ring of the model.  ``top`` is the highest power that the
    recurrence or the bracket reads.
    """
    zero = model.zero
    d_sq = {}
    for i, di in model.d_tab.items():
        for j, dj in model.d_tab.items():
            d_sq[i + j] = d_sq.get(i + j, zero) + di * dj
    n_terms = [(k + 1, v) for k, v in model.n_tab.items() if k >= 1]
    d_terms = [(k, v) for k, v in d_sq.items() if k >= 1]
    top = max([k for k, _ in n_terms + d_terms]
              + [i for i, _ in model.bracket_tab])
    cols = [None] + [[zero] * (order + 1) for _ in range(top)]
    s = cols[1]
    if order >= 1:
        s[1] = d_sq[0]
    for n in range(2, order + 1):
        for k in range(2, min(top, n) + 1):
            a, b = k // 2, k - k // 2
            pa = cols[a]
            if a == b:
                half = _dot(pa[a:(n + 1) // 2], pa[n - a:n // 2:-1], zero)
                val = half + half
                if n % 2 == 0:
                    val = val + pa[n // 2] * pa[n // 2]
            else:
                val = _dot(pa[a:n - b + 1], cols[b][n - a:b - 1:-1], zero)
            cols[k][n] = val
        acc = zero
        for k, coef in d_terms:
            acc = acc + coef * cols[k][n - 1]
        for k, coef in n_terms:
            acc = acc - coef * cols[k][n]
        s[n] = acc
    return cols


def _solve_S_ring(model: _Model, order: int) -> TruncatedSeries:
    """S to z^order over the model's ring, by the forward recurrence of
    :func:`_power_columns`."""
    return TruncatedSeries(_power_columns(model, order)[1], model.zero)


def solve_S(params: IsingParams, order: int) -> TruncatedSeries:
    """The unique series S with S(0) = 0 solving z = S N(S)/D(S)^2, to z^order.

    Symbolic mode gives ParamPoly coefficients (integer polynomials in nu, c
    with nonnegative coefficients); numeric mode gives each S_n exact at the
    point, rounded once to the nearest mpf at ``precision_bits``.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if params.symbolic:
        return _solve_S_ring(_Model(params, "symbolic"), order)
    model = _Model(params, "integer")
    t = _solve_S_ring(model, order)
    return TruncatedSeries(
        _rounded(model.s_coefficients(t.coeffs), params.precision_bits),
        mpmath.mpf(0),
    )


def _bracket_eval(model: _Model, s: TruncatedSeries, order: int) -> TruncatedSeries:
    s = s.truncate(order)
    pw = _series_powers(s, 7)
    out = TruncatedSeries([model.zero] * (order + 1), model.zero)
    for (spow, zpow), coef in model.bracket_tab.items():
        term = pw[spow] if spow else TruncatedSeries(
            [model.one] + [model.zero] * order, model.zero
        )
        out = out + term.shift_up(zpow).scale(coef)
    return out


def pol_Z_eval(
    s: TruncatedSeries, params: IsingParams, order: Optional[int] = None
) -> TruncatedSeries:
    """The bracket polynomial of the parametrization, evaluated on the series S.

    The bracket is a degree-7 polynomial in s whose coefficients carry z- and
    z^2-terms; the result is its value at s = S(z), truncated at ``order``
    (default: the order of S).  Numeric mode evaluates at ``precision_bits``.
    """
    if order is None:
        order = s.order
    if params.symbolic:
        return _bracket_eval(_Model(params, "symbolic"), s, order)
    model = _Model(params, "exact")
    with mpmath.workprec(params.precision_bits):
        model.bracket_tab = {k: to_mpf(v) for k, v in model.bracket_tab.items()}
        return _bracket_eval(model, s, order)


def _solve_Z_ring(model: _Model, order: int) -> list:
    """[0, Z_1, ..., Z_order], exact: ParamPoly or Fraction by the model kind.

    The bracket is a linear combination of the power columns (S^0 = 1),
    divided online by 1 + e1 S; its three lowest coefficients must cancel.
    """
    top = order + 2
    zero = model.zero
    cols = _power_columns(model, top)
    w = [zero] * (top + 1)
    for (i, j), coef in model.bracket_tab.items():
        if i == 0:
            w[j] = w[j] + coef
            continue
        col = cols[i]
        for n in range(i + j, top + 1):
            w[n] = w[n] + coef * col[n - j]
    s = cols[1]
    e1 = model.e1
    g = [w[0]]
    for n in range(1, top + 1):
        g.append(w[n] - e1 * _dot(s[1:n + 1], g[::-1], zero))
    for i in (0, 1, 2):
        if g[i]:
            raise NonZeroRemainder(
                "low-order coefficients of the parametrization numerator "
                "did not cancel (z^%d)" % i
            )
    return [zero] + [model.z_coefficient(g[n + 2], n) for n in range(1, order + 1)]


def solve_Z(params: IsingParams, order: int) -> TruncatedSeries:
    """The partition-function series sum_{n>=1} Z_n(nu,c) z^n, up to z^order.

    Pipeline: evaluate the bracket polynomial on S, divide by the series
    1 + 3c^2(1-nu^2)S, check exactly that the three lowest z-coefficients
    cancel, shift down by z^2, divide exactly by 9(1-nu^2), then rescale
    coefficient n by c^-n (the parametrization natively produces
    Z(nu, c, cz)).  Numeric mode runs the same pipeline over ``int`` and
    rounds each exact Z_n once to the nearest mpf at ``precision_bits``.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if params.symbolic:
        return TruncatedSeries(_solve_Z_ring(_Model(params, "symbolic"), order),
                               PP_ZERO)
    exact = _solve_Z_ring(_Model(params, "integer"), order)
    return TruncatedSeries(_rounded(exact, params.precision_bits), mpmath.mpf(0))


def coefficient_sequence(params: IsingParams, n_max: int) -> List[mpmath.mpf]:
    """Z_n(nu, c) for n = 1..n_max, each exact at the point and rounded once
    to the nearest mpf at ``precision_bits``."""
    if params.symbolic:
        raise ValueError("coefficient_sequence requires numeric mode")
    series = solve_Z(params, n_max)
    return series.coeffs[1:]


def fixed_point_residual(params: IsingParams, order: int) -> list:
    """Coefficients of S N(S) - z D(S)^2 for the computed S (all should vanish).

    The residual is formed from TruncatedSeries products, not from the
    power columns of the forward recurrence, so it checks that recurrence
    independently.  Symbolic mode returns ParamPoly entries; numeric mode
    returns the exact residual at the point, rounded to mpf.  Both must be
    exactly zero.
    """

    def run_with(model):
        s = _solve_S_ring(model, order)
        pw = _series_powers(s, max(max(model.n_tab), max(model.d_tab)))
        pw[0] = TruncatedSeries([model.one] + [model.zero] * order, model.zero)

        def at_s(tab):
            out = TruncatedSeries([model.zero] * (order + 1), model.zero)
            for k, coef in tab.items():
                out = out + pw[k].scale(coef)
            return out

        ns, ds = at_s(model.n_tab), at_s(model.d_tab)
        f = s * ns - (ds * ds).shift_up(1)
        return f.coeffs

    if params.symbolic:
        return run_with(_Model(params, "symbolic"))
    model = _Model(params, "integer")
    return _rounded(model.s_coefficients(run_with(model)), params.precision_bits)
