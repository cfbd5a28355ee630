"""Singularity analysis for the map partition-function series.

Everything here works at an exact rational parameter point (nu, c).  The
radius of convergence rho of the z-series is located through the critical
point of the defining equation z = S N(S)/D(S)^2: the value s* = S(rho) is
a root of the characteristic polynomial ``char``, the numerator of z'(s)
for z(s) in lowest terms with its poles stripped, and in the validated
parameter region it is the smallest root of ``char`` in (0, B],
B = 1/(3 c^2 |1 - nu^2|) (a Cauchy root bound at nu = 1).  The exact data
of that critical point are computed once per (nu, c), from one evaluation
of N and D, and cached as a CriticalPoint built over Z (the factors
shared with D read off its two linear factors, one gcd for the squarefree
part): z(s) in lowest terms, ``char``, B, an interval isolating s*
(Sturm counts, quadratic interval refinement), and the zeros of den',
which are rational.  rho is enclosed from z(s) on a cell around s*: the
same refinement takes the isolating cell to a level fixed once from a
Lipschitz bound of z on it, with den's least value there taken exactly at
the cell's ends and those zeros; mu = c * rho.

The dominant singular exponent of S is exact: it is 1/(m + 1), where m is
the multiplicity of s* as a root of z'(s), so 1/2 generically and 1/3 where
two saddles coalesce, at (nu, c) = (4, 1).  The branches themselves are
the series reversion of Z = rho - z(s* - Y), by one route at every point:
the Taylor coefficients of num and den enclosed over the s-interval, a
point at an exact hit, where every step is exact.

That rho is the only singularity on |z| = rho is certified from the same
CriticalPoint: the other candidates are z at the roots of ``char`` and at
one exact point, and disjoint root disks of ``char``, checked in
integers, bound each candidate's modulus away from the rho interval (see
:func:`radius_numeric`).  The squarefree cancelling polynomial is read off
the CriticalPoint too, and its discriminant in z, whose roots are those
candidates, is interpolated from univariate discriminants at integer z; it
serves as the reference for that candidate set and for the c = 1 factors
of :func:`p1_p2_p3`.  At c = 1, rho, s*, M0 and chi have closed forms, each
branch stated once in :data:`CLOSED_FORMS` and read by :func:`closed_form`.
"""
from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import ceil, comb, floor, gcd, isfinite, isqrt, ldexp
from typing import List, NamedTuple, Optional, Tuple, Union

import mpmath

from . import dyadic
from .errors import DegenerateBranch, FarField, NoRootInRange, PrecisionExhausted
from .exactalg import (
    PP_ZERO,
    IntegerForm,
    SturmChain,
    UniPoly,
    bisect_isolated_root,
    cauchy_root_bound,
    common_denominator,
    discriminant,
    evaluate_together,
    interpolate,
    poly_gcd,
    primitive,
    rational_root,
    refine_root_cell,
    squarefree_part,
)
from .precision import DEFAULT_PRECISION_BITS, to_mpf
from .series import IsingParams, _symbolic_tables

VALIDATED_C_HALF_WIDTH = Fraction(1, 4)
UNIQUENESS_TOL = Fraction(1, 10 ** 12)
CLUSTER_TOL = Fraction(1, 10 ** 40)

Number = Union[Fraction, mpmath.mpf]


def characteristic_root_polynomial(params: IsingParams) -> UniPoly:
    """Numerator of z'(s) for the reduced defining function, poles stripped.

    This is ``critical_point(params).char`` (see :func:`critical_point`), so
    it raises NoRootInRange where the polynomial has no root in the search
    interval (0, B].
    """
    return critical_point(params).char


def cancelling_polynomial_squarefree(params: IsingParams) -> Tuple[UniPoly, UniPoly]:
    """The cancelling polynomial C = z D(S)^2 - S N(S), linear in z, with
    repeated S-factors removed: the rational pair (A, B) of
    C_sf = z B(S) - A(S), read off :func:`critical_point`.

    With g = gcd(S N, D^2), C = g (z den - num) up to a constant, for z(s)
    = num / den in lowest terms; z den - num is irreducible and prime to
    g, so C_sf = (g / gcd(g, g')) (z den - num).  g holds each root of D
    (:func:`_poles`) to the order k <= 2 that S N does, and den holds it to
    the order 2 - k, so g / gcd(g, g') is the product of the linear factors
    of the roots where den has multiplicity below 2: at c = 1 the one at
    B, which is s* for nu >= 4, and none off c = 1.  B(0) is scaled to 1,
    so C_sf agrees with C at S = 0.  Raises NoRootInRange as
    :func:`critical_point` does.
    """
    cp = critical_point(params)
    a, b = cp.num, cp.den
    for pole in _poles(params.nu, params.c):
        if _divide_out(cp.den, pole, 2)[1] < 2:
            factor = UniPoly([-pole.numerator, pole.denominator])
            a, b = a * factor, b * factor
    w = b.coeff(0)
    return tuple(UniPoly([Fraction(x, w) for x in q.coeffs]) for q in (a, b))


def discriminant_in_z(params: IsingParams) -> UniPoly:
    """Discriminant (in S) of the squarefree cancelling polynomial.

    Returned as a UniPoly in z with exact rational coefficients at the point.

    Degree bound.  C_sf = z B(S) - A(S) has S-degree d, and its coefficient
    of S^k depends on z exactly when k <= b = deg B = deg(D^2 / h).  In the
    Sylvester matrix of C_sf and C_sf' (2d - 1 columns, for S^(2d-2) down to
    S^0), row i of the C_sf block holds the coefficient of S^(k-i) in column
    S^k, i <= d - 2, and row i of the C_sf' block that of S^(k-i+1) times
    k - i + 1, i <= d - 1; so every z-dependent entry lies in the d + b - 1
    columns S^0..S^(d+b-2).  Each term of the determinant takes one entry
    per column, hence at most d + b - 1 z-linear factors, and the resultant
    has z-degree at most d + b - 1.  With b < d the leading S-coefficient
    is a nonzero constant, so dividing by it keeps the bound.  The
    discriminant is evaluated by the univariate formula at the d + b
    integers z = 0..d+b-1, where the S-degree is always d, and interpolated
    exactly.
    """
    a_poly, b_poly = cancelling_polynomial_squarefree(params)
    d, b = a_poly.degree(), b_poly.degree()
    if b >= d:
        raise ArithmeticError("leading S-coefficient of C_sf depends on z")
    nodes = [Fraction(z) for z in range(d + b)]
    values = [discriminant(b_poly.scale(z) - a_poly) for z in nodes]
    return interpolate(nodes, values)


def p1_p2_p3(nu: Fraction) -> Tuple[UniPoly, UniPoly, UniPoly]:
    """The three singularity-candidate factors of the discriminant at c = 1.

    P1 is linear, P2 quadratic, and P3(nu, z) = P2(-nu, z); their roots carry
    all candidate dominant singularities of the algebraic series S at c = 1.
    """
    nu = Fraction(nu)

    def build(n: Fraction) -> UniPoly:
        return UniPoly([
            -16 * n + 4,
            36 * (3 * n - 1) * (n + 1) ** 2,
            81 * (n ** 2 - 1) ** 2 * (n + 1) ** 2,
        ])

    p1 = UniPoly([-3 * nu ** 2 + 8, 36 * (nu ** 2 - 1) ** 2])
    return p1, build(nu), build(-nu)


# ---------------------------------------------------------------------------
# Closed forms at c = 1
# ---------------------------------------------------------------------------

_HALF = Fraction(1, 2)

# The c = 1 closed forms of the Boulatov-Kazakov solution (Phys. Lett. B 186,
# 379, 1987), each stated once as (branch for nu >= 4, branch for nu < 4).
# A branch (p, q, factors) is p/q times the product of f(x)^e over its
# factors (x, coefficients of f from degree 0 up, e), x being nu or
# r = sqrt(nu) and e an integer or 1/2; None is +inf.  The rho and s*
# branches meet at nu = 4; M0 and chi each have one factor vanishing there.
CLOSED_FORMS = {
    "rho": ((1, 36, (("nu", (-8, 0, 3), 1), ("nu", (-1, 0, 1), -2))),
            (2, 9, (("r", (1, 2), 1), ("r", (1, 1), -2), ("nu", (1, 1), -2)))),
    "s_at_rho": ((1, 3, (("nu", (-1, 0, 1), -1),)),
                 (1, 3, (("r", (1, 1), -1), ("nu", (1, 1), -1)))),
    "M0": ((3, 1, (("nu", (0, 1), 1), ("nu", (-8, 0, 3), -1), ("nu", (-16, 0, 1), _HALF))),
           (0, 1, ())),
    "chi": (None,
            (3, 1, (("nu", (0, 1), 1), ("r", (2, 1), 2), ("r", (1, 2), -1),
                    ("nu", (-4, 1), -2)))),
}

CLOSED_FORM_GUARD_BITS = 16


def closed_form(name: str, nu, precision_bits: int = DEFAULT_PRECISION_BITS,
                branch: Optional[int] = None) -> Number:
    """The closed form ``name`` of :data:`CLOSED_FORMS` at nu > 0, on the
    branch nu lies on unless ``branch`` (0 or 1) is given: a Fraction where
    every factor is rational (r where sqrt(nu) is, a half power where its
    value is a square), else the product of the other factors in mpmath at
    CLOSED_FORM_GUARD_BITS more bits, rounded once to ``precision_bits``.
    """
    nu = Fraction(nu)
    if nu <= 0:
        raise ValueError("nu must be positive")
    form = CLOSED_FORMS[name][nu < 4 if branch is None else branch]
    if form is None:
        return mpmath.inf
    p, q, factors = form
    exact, rounded = Fraction(p, q), []
    root = rational_root(nu)
    with mpmath.workprec(precision_bits + CLOSED_FORM_GUARD_BITS):
        r = root if root is not None else mpmath.sqrt(to_mpf(nu))
        for x, coeffs, e in factors:
            f = UniPoly(coeffs).eval_scalar(nu if x == "nu" else r)
            if e == _HALF:
                half = rational_root(f) if isinstance(f, Fraction) else None
                f, e = half if half is not None else mpmath.sqrt(to_mpf(f)), 1
            if isinstance(f, Fraction):
                exact *= f ** e
            else:
                rounded.append(f ** e)
        if not rounded:
            return exact
        value = to_mpf(exact) * mpmath.fprod(rounded)
    with mpmath.workprec(precision_bits):
        return +value


def rho_closed_form(nu, precision_bits: int = DEFAULT_PRECISION_BITS) -> Number:
    """Radius of convergence of the z-series at c = 1."""
    return closed_form("rho", nu, precision_bits)


def s_at_rho_closed_form(nu, precision_bits: int = DEFAULT_PRECISION_BITS) -> Number:
    """Value of the algebraic series S at its radius, at c = 1."""
    return closed_form("s_at_rho", nu, precision_bits)


def m0_closed(nu, precision_bits: int = DEFAULT_PRECISION_BITS) -> Number:
    """Spontaneous magnetization at c = 1, 0 for nu <= 4."""
    return closed_form("M0", nu, precision_bits)


def chi_closed(nu, precision_bits: int = DEFAULT_PRECISION_BITS) -> Number:
    """Zero-field susceptibility at c = 1, +inf for nu >= 4."""
    return closed_form("chi", nu, precision_bits)


# ---------------------------------------------------------------------------
# Certified radius at a rational point
# ---------------------------------------------------------------------------

class SingularityReport(NamedTuple):
    """Certified location of the dominant singularity at a parameter point.

    ``rho`` and ``mu = c * rho`` are midpoints of the certified intervals;
    when ``exact`` is True the intervals have zero width and the values are
    exact rationals.  ``exponent`` is the dominant singular exponent of S,
    exact and independent of the working precision (1/2 generically, 1/3 at
    the critical point; see :meth:`CriticalPoint.exponent`), or None if not
    requested.  ``uniqueness_checked`` is True when the root-disk
    certificate of :func:`radius_numeric` shows that no candidate
    singularity other than rho has modulus rho; False when it was not
    requested or could not decide, the latter with a warning that says why.
    """

    rho: Fraction
    rho_interval: Tuple[Fraction, Fraction]
    mu: Fraction
    mu_interval: Tuple[Fraction, Fraction]
    s_at_rho: Fraction
    s_interval: Tuple[Fraction, Fraction]
    exact: bool
    exponent: Optional[Fraction] = None
    uniqueness_checked: bool = False
    warnings: Tuple[str, ...] = ()


def _poly_abs_bound(p: UniPoly, scale: Fraction) -> Fraction:
    """Crude sup bound for |p| on [0, b], given scale = max(b, 1); an
    ``int`` for integer p and scale."""
    return sum(abs(c) * scale ** k for k, c in enumerate(p.coeffs))


def _lagrangian_parts(params: IsingParams) -> Tuple[UniPoly, int, UniPoly, int]:
    """(sn, a, d, b): S N(S) = sn / a and D(S) = d / b, sn and d integer
    polynomials and a, b the least positive integers that serve.

    The N and D tables are evaluated together over one denominator of the
    point; dividing a polynomial's values and that denominator by their gcd
    leaves the least denominator.
    """
    n_tab, d_tab = _symbolic_tables()[:2]
    rows = [[tab.get(k, PP_ZERO) for k in range(max(tab) + 1)] for tab in (n_tab, d_tab)]
    values, den = evaluate_together(rows[0] + rows[1], params.nu, params.c)
    parts = []
    for vals in (values[:len(rows[0])], values[len(rows[0]):]):
        t = gcd(den, *vals)
        parts.append((UniPoly([v // t for v in vals]), den // t))
    (n, a), (d, b) = parts
    return UniPoly([0] + n.coeffs), a, d, b


class CriticalPoint(NamedTuple):
    """The exact critical point s* of z(s) at one parameter point (nu, c).

    Built once per (nu, c) by :func:`critical_point`; the certified radius,
    the uniqueness certificate, the dominant exponent, the Puiseux
    expansions and the cancelling polynomial all read it.  ``num / den``
    is z(s) in lowest terms, both integer polynomials over one shared
    positive scale (their coefficients coprime taken together), so
    :meth:`z_at` is exact integer Horner.
    ``char`` is the squarefree numerator of z'(s) with its poles stripped,
    as a primitive integer polynomial: a positive multiple of the one over
    Q, so every sign and count is that of the rational one.  z at its
    roots other than s* are the branch points the uniqueness certificate
    bounds away from |z| = rho.  ``bound`` is B:
    1/(3 c^2 |1 - nu^2|), or the Cauchy root bound of ``char`` at nu = 1.

    s* is the smallest root of ``char`` in the search interval (0, B].
    S_n >= 0 and z'(0) = 1, so z increases on [0, s*) and s* is the first
    positive zero of z'; a pole of z before it would carry S along all of
    [0, infinity), which its finite radius excludes.  Usually s* is the
    only root there, as one Sturm count certifies; where the count is
    higher, as at (1/100, 9/10), Sturm bisection isolates the smallest.
    ``interval`` = (lo, hi] is the cell of width at most B / 2^20 in which
    bisection by the sign of char would stop, found by quadratic interval
    refinement (:func:`~isingmaps.exactalg.bisect_isolated_root`), or is
    (s*, s*) when char is linear, as at nu = 1, or when a bisection
    midpoint is s*, as s* = B is at c = 1, nu >= 4.

    ``turns`` are the zeros of den', all rational and sorted.  Over Q,
    den = K (1 - s/r)^m1 (1 + s/r)^m2, +-r the roots of D (:func:`_poles`)
    and m = 2 - k where k factors cancelled against S N; so den' vanishes
    at r where m1 = 2, at -r where m2 = 2, and at r (m2 - m1)/(m1 + m2)
    where both are positive.  :meth:`den_min` reads den's least value over
    a cell off them.
    """

    num: UniPoly
    den: UniPoly
    char: UniPoly
    bound: Fraction
    interval: Tuple[Fraction, Fraction]
    turns: Tuple[Fraction, ...] = ()

    def z_at(self, s: Fraction) -> Fraction:
        """z(s) exactly, from the integer forms of num and den."""
        x, w = s.numerator, s.denominator
        e = self.den.degree() - self.num.degree()
        n = self.num.integer_form().value(x, w)
        d = self.den.integer_form().value(x, w)
        return Fraction(n * w ** e, d) if e >= 0 else Fraction(n, d * w ** -e)

    def den_min(self, lo: Fraction, hi: Fraction) -> Fraction:
        """The least value of den on [lo, hi], exactly: at an end or at a
        zero of den' between."""
        form, e = self.den.integer_form(), self.den.degree()
        return min(Fraction(form.value(s.numerator, s.denominator), form.den * s.denominator ** e)
                   for s in (lo, hi, *(t for t in self.turns if lo < t < hi)))

    def refine(self, lo: Fraction, hi: Fraction, width: Fraction) -> Tuple[Fraction, Fraction]:
        """Shrink (lo, hi], a piece of ``interval`` that holds s*, below width.

        On ``interval``, char has the sign of its value at the top end
        exactly at the points above s*.  That sign test, in integers
        (:meth:`UniPoly.sign_at`), certifies the piece and drives the
        quadratic interval refinement of
        :func:`~isingmaps.exactalg.bisect_isolated_root`; no Sturm count is
        needed.
        """
        a, b = self.interval
        top = self.char.sign_at(b)
        if not (a <= lo < hi <= b and self.char.sign_at(hi) * top > 0
                and (lo == a or self.char.sign_at(lo) * top < 0)):
            raise ValueError("(%s, %s] does not hold the critical point" % (lo, hi))
        return bisect_isolated_root(self.char, lo, hi, width)

    def exponent(self) -> Fraction:
        """The branch exponent 1/(m + 1) of S at s*.

        m is the multiplicity of s* as a root of dz = num' den - num den',
        the number of successive derivatives of dz that vanish there.
        den(s*) != 0, so z - rho ~ a (s - s*)^(m + 1) with a != 0.  m >= 1:
        char divides dz by construction, so the count starts at dz'.  On an
        exact hit a polynomial q vanishes at s* iff q(s*) = 0; otherwise iff
        gcd(q, char) changes sign over ``interval``, which holds no other
        root of char and none at either end.  That gcd is 1 at generic
        points, which the modular certificate of
        :func:`~isingmaps.exactalg.poly_gcd` shows without a remainder
        sequence.
        """
        lo, hi = self.interval

        def vanishes(q: UniPoly) -> bool:
            if lo == hi:
                return q.sign_at(lo) == 0
            g = poly_gcd(q, self.char)
            return g.degree() >= 1 and g.sign_at(lo) * g.sign_at(hi) < 0

        dz = self.num.derivative() * self.den - self.num * self.den.derivative()
        q, m = dz.derivative(), 1
        while vanishes(q):
            m += 1
            q = q.derivative()
        return Fraction(1, m + 1)


def critical_point(params: IsingParams) -> CriticalPoint:
    """The CriticalPoint of (params.nu, params.c), computed once and cached.

    Raises NoRootInRange when the characteristic polynomial has no root
    in (0, B] (see :class:`CriticalPoint`).
    """
    return _critical_point(params.nu, params.c)


def _poles(nu: Fraction, c: Fraction) -> Tuple[Fraction, ...]:
    """The roots +-r, r = 1/(3c(1 - nu^2)), of D; none at nu = 1.

    Over Q, D = (1 - 3c(1 - nu^2)S)(1 + 3c(1 - nu^2)S), and D = 1 at
    nu = 1.  So any factor that a polynomial shares with a power of D is a
    product of powers of the linear factors of these roots, and a gcd with
    D^2 is read off the vanishing orders there (:func:`_divide_out`),
    with no remainder sequence.
    """
    if nu == 1:
        return ()
    r = 1 / (3 * c * (1 - nu ** 2))
    return r, -r


def _divide_out(p: UniPoly, root: Fraction, most: Optional[int] = None) -> Tuple[UniPoly, int]:
    """(p / L^k, k) for L = q x - p0 the linear factor of ``root`` = p0 / q
    and k its multiplicity in p, capped at ``most``.  L is primitive with
    positive leading coefficient, as a primitive gcd is, so the quotient of
    an integer p stays in Z[x] with the sign it had."""
    factor, k = UniPoly([-root.numerator, root.denominator]), 0
    while (most is None or k < most) and p.sign_at(root) == 0:
        p, k = p.exact_div(factor), k + 1
    return p, k


def _reduced_z_and_char(nu: Fraction, c: Fraction
                        ) -> Tuple[UniPoly, UniPoly, UniPoly, Tuple[Fraction, ...]]:
    """(num, den, char, turns) of :class:`CriticalPoint`, char not yet
    squarefree.

    The factor S N shares with D^2, every factor char shares with den, and
    the zeros of den' are read off the poles of D (:func:`_poles`).
    """
    sn, a, d, b = _lagrangian_parts(IsingParams(nu=nu, c=c))
    poles = _poles(nu, c)
    # z(s) = b^2 sn / (a d^2) in lowest terms: at c = 1 for nu >= 4, s* is
    # a root of D and the unreduced s N(S)/D(S)^2 is a 0/0 there.  d has
    # simple roots at the poles, so d^2 double ones.
    dd, orders = d * d, []
    for pole in poles:
        sn, k = _divide_out(sn, pole, 2)
        dd = _divide_out(dd, pole, k)[0]
        orders.append(2 - k)
    turns = [pole for pole, m in zip(poles, orders) if m == 2]
    if poles and all(orders):
        m1, m2 = orders
        turns.append(poles[0] * (m2 - m1) / (m1 + m2))
    num, den = sn.scale(b * b), dd.scale(a)
    t = gcd(*num.coeffs, *den.coeffs)
    num, den = (UniPoly([x // t for x in q.coeffs]) for q in (num, den))
    # Removing every factor the numerator of z' shares with den discards
    # the spurious pole-located roots D would contribute (at c = 1 they sit
    # at the end of the search interval for nu on one side of 1), while the
    # genuine critical point survives: for nu >= 4 it is the cancelled
    # factor's location, a root of the reduced numerator's derivative.
    if all(m == 2 for m in orders):
        # den = (a / t) d^2, so num' den - num den' is (a / t) d times
        # num' d - 2 num d': that factor d is stripped here, the sign of
        # its leading coefficient kept
        char = primitive(num.derivative() * d - (num * d.derivative()).scale(2))
        char = char if d.lc() > 0 else -char
    else:
        char = primitive(num.derivative() * den - num * den.derivative())
    for pole, m in zip(poles, orders):
        if m:
            char = _divide_out(char, pole)[0]
    return num, den, char, tuple(sorted(turns))


@lru_cache(maxsize=512)
def _critical_point(nu: Fraction, c: Fraction) -> CriticalPoint:
    num, den, char, turns = _reduced_z_and_char(nu, c)
    char = squarefree_part(char)
    bound = cauchy_root_bound(char) if nu == 1 else \
        Fraction(1, 3) / (c ** 2 * abs(1 - nu ** 2))
    chain = SturmChain(char)
    count = chain.count(Fraction(0), bound)
    # At c = 1 with nu between 1 and 4 the end of the search interval is
    # itself a critical point, but of a further sheet (its z-value lies below
    # the radius); it is only the dominant point when it is the *sole* root.
    if count > 1 and char.sign_at(bound) == 0:
        char = char.exact_div(primitive(UniPoly([-bound, Fraction(1)])))
        chain = SturmChain(char)
        count = chain.count(Fraction(0), bound)
    if count == 0:
        raise NoRootInRange("no characteristic root in (0, %s]" % bound)
    # s* is the smallest root (see CriticalPoint): Sturm bisection keeps
    # (0, lo] free of roots and (lo, hi] holding count >= 1 of them
    lo, hi = Fraction(0), bound
    while count > 1:
        mid = (lo + hi) / 2
        below = chain.count(lo, mid)
        if below:
            hi, count = mid, below
        else:
            lo = mid
    if char.degree() == 1:
        interval = (Fraction(-char.coeff(0), char.coeff(1)),) * 2
    elif char.sign_at(hi) == 0:
        interval = (hi, hi)
    else:
        interval = bisect_isolated_root(char, lo, hi, bound / 2 ** 20)
    return CriticalPoint(num=num, den=den, char=char, bound=bound, interval=interval,
                         turns=turns)


def _certify_rho(
    cp: CriticalPoint, tol: Fraction
) -> Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction], bool]:
    """From the isolating interval for s*, certify an interval for rho.

    The s-interval is a cell of the bisection of ``interval`` by the sign
    of char, at a level fixed before any step.  On a cell (lo, hi] where den
    is positive, with den_min its least value there
    (:meth:`CriticalPoint.den_min`, exact) and sup bounds of |num'| and
    |num| |den'| on [0, max(hi, 1)], lip = sup|num'| / den_min +
    sup(|num| |den'|) / den_min^2 bounds |z'|; the enclosure is lower =
    max z(end), upper = lower + lip (hi - lo).  On a nested cell den_min
    does not fall and the sup bounds, sums of |coefficient| max(hi, 1)^j,
    do not grow, so lip taken on one cell serves every cell in it: the
    level where it brings lip (hi - lo) within ``tol`` is fixed from that
    cell, quadratic interval refinement
    (:func:`~isingmaps.exactalg.refine_root_cell`) goes straight to it, and
    the enclosure is formed on the cell it returns.  Returns (s_interval,
    rho_interval, exact).

    Where den_min is not positive, a pole of z lies in the cell: near
    c = 1 for nu > 4, s* is close to a root of D.  The cell is then first
    narrowed, by the same refinement to 1, 2, 4, ... levels further down,
    until den is positive on it.

    A rational s* is a multiple of 1/lc(char), char being primitive over Z,
    so the one such multiple in a cell narrower than 1/lc is s* if any is;
    it is looked for on the returned cell, if that is narrower.

    All signs run in integers: the cells of level k have ends L/W and H/W
    over W = w0 2^k, and char is evaluated on its integer form scaled by
    1/w0.  Fractions are built for the ends of the cells where den_min and
    z are taken.

    The global bound is loose on purpose: it refines s far past what the
    rho width needs, and that s-interval is what makes the thermodynamic M
    and chi enclosures (:func:`~isingmaps.critical.thermo_enclosures`)
    1e-31 to 1e-45 wide at tol 1e-28.  Since z'(s*) = 0, a bound local to
    the interval would stop once |z''| w^2 / 2 <= tol, at an s-width w of
    about sqrt(2 tol / |z''|), near 1e-15; M, which depends on s to first
    order, would then be only about 1e-13 wide at (1/2, 19/20) and 1e-11
    at (6, 11/10).
    """
    num_d, den_d = cp.num.derivative(), cp.den.derivative()

    def lip(hi: Fraction, den_min: Fraction) -> Fraction:
        scale = max(hi, 1)
        return (_poly_abs_bound(num_d, scale) / den_min
                + _poly_abs_bound(cp.num, scale) * _poly_abs_bound(den_d, scale) / den_min ** 2)

    lo, hi = cp.interval
    (L, H), w0 = common_denominator((lo, hi))
    char = cp.char.integer_form().scaled(w0)
    k, step = 0, 1
    while L < H:
        lo, hi = Fraction(L, w0 << k), Fraction(H, w0 << k)
        den_min = cp.den_min(lo, hi)
        if den_min > 0:
            level = (ceil(lip(hi, den_min) * (H - L) / (w0 * tol)) - 1).bit_length()
            L, H, k = refine_root_cell(char, L, H, level, k)
            break
        L, H, k = refine_root_cell(char, L, H, k + step, k)
        step *= 2
    lo, hi = Fraction(L, w0 << k), Fraction(H, w0 << k)
    lc = abs(cp.char.lc())
    if L < H and (H - L) * lc < w0 << k:
        s_exact = Fraction(H * lc // (w0 << k), lc)  # the last multiple up to hi
        if s_exact > lo and cp.char.sign_at(s_exact) == 0:
            lo = hi = s_exact
    if lo == hi:
        z_exact = cp.z_at(lo)
        return (lo, hi), (z_exact, z_exact), True
    lower = max(cp.z_at(lo), cp.z_at(hi))
    upper = lower + lip(hi, cp.den_min(lo, hi)) * (hi - lo)
    return (lo, hi), (lower, upper), False


def _approximate_roots(char: UniPoly, bound: Fraction) -> List[complex]:
    """Complex-float approximations of the roots of ``char``, or [] when
    floats cannot hold the problem.

    Durand-Kerner on the monic char(B t) / lc, B = ``bound``, whose roots t
    are of order 1, started at d equal angles, turned by 0.4 off the real
    axis, on the circle of radius |a_0|^(1/d), the geometric mean of the
    root moduli (radius 1 if a_0 = 0); returned as the points B t.  The
    steps are measured against twice the Fujiwara bound.  Only a hint for
    :func:`_uniqueness_certificate`, which checks every disk exactly: a
    poor approximation can lose the verdict, never make a false one.
    """
    # char(B t) / lc in integers, B = u / v: coefficient k is
    # a_k u^k v^(d - k) / (a_d u^d), which int true division rounds once,
    # as float(Fraction) does
    form = char.integer_form().scaled(bound.denominator)
    d, u = form.degree(), bound.numerator
    scaled = [c * u ** k for k, c in enumerate(form.coeffs)]
    try:
        a = [c / scaled[-1] for c in scaled[:-1]]
        r = 2 * max(abs(x) ** (1 / (d - k)) for k, x in enumerate(a)) or 1.0
        mean = abs(a[0]) ** (1 / d) or 1.0
        ts = [mean * cmath.exp(1j * (2 * cmath.pi * k / d + 0.4)) for k in range(d)]
        polish = False
        for _ in range(100):
            step = 0.0
            for i, t in enumerate(ts):
                p = 1.0
                for x in reversed(a):
                    p = p * t + x
                q = 1.0
                for j, u in enumerate(ts):
                    if j != i:
                        q *= t - u
                ts[i] = t - p / q
                step = max(step, abs(p / q))
            # convergence is quadratic: one sweep past 2^-40 reaches rounding
            if polish:
                break
            polish = step <= r * 2.0 ** -40
        b = float(bound)
    except (OverflowError, ZeroDivisionError):
        return []
    return [b * t for t in ts]


def _modulus_bounds(re: int, im: int) -> Tuple[int, int]:
    """Integers lo <= |re + i im| <= hi."""
    sq = re * re + im * im
    lo = isqrt(sq)
    return lo, lo if lo * lo == sq else lo + 1


def _derivative_form(form: IntegerForm, absolute: bool = False) -> IntegerForm:
    """The form of p' over the same denominator as p's (of |p|' termwise
    if ``absolute``): coefficients j a_j, degree d - 1."""
    return IntegerForm([j * (abs(a) if absolute else a)
                        for j, a in enumerate(form.coeffs)][1:], form.den)


_OVERLAP = "root disks of char overlap"
# the grid of the second root pass: at nu = 10^-20, c = 1 four roots of
# char lie within 5e-11 of 1/3, and the z-bounds over their disks part from
# rho only on a grid about 2^-256 B fine
REFINE_BITS = 192
REFINE_SWEEPS = 200


def _root_disks(char: IntegerForm, points: List[Tuple[int, int]],
                k: int) -> Tuple[List[Tuple[int, int, int]], Optional[str]]:
    """The disks (x, y, radius) in units of 2^-k of the points (x + iy) / 2^k
    (see :func:`_uniqueness_certificate`), and None when they are pairwise
    disjoint, else the reason they certify nothing."""
    d = char.degree()
    char_d = _derivative_form(char)
    disks = []
    for x, y in points:
        q_lo = _modulus_bounds(*char_d.gaussian(x, y, k))[0]
        if q_lo == 0:
            return disks, "char' vanishes at an approximate root"
        p_hi = _modulus_bounds(*char.gaussian(x, y, k))[1]
        disks.append((x, y, -(-d * p_hi // q_lo)))
    for i, (x1, y1, r1) in enumerate(disks):
        for x2, y2, r2 in disks[:i]:
            if (x1 - x2) ** 2 + (y1 - y2) ** 2 <= (r1 + r2) ** 2:
                return disks, _OVERLAP
    return disks, None


def _refine_roots(char: IntegerForm, points: List[Tuple[int, int]],
                  k: int) -> Optional[List[Tuple[int, int]]]:
    """Durand-Kerner on the points (x + iy) / 2^k in Gaussian fixed point,
    or None when two of them meet.

    Each step sigma_i -= char(sigma_i) / (lc prod_(j != i) (sigma_i -
    sigma_j)) is formed from exact values (:meth:`IntegerForm.gaussian`)
    and rounded to the grid, points updated in place as in
    :func:`_approximate_roots`.  So the roots are found to the grid, and
    a cluster that floats blur into one is split.  It stops when no point
    moves by more than one unit of 2^-k, or after ``REFINE_SWEEPS`` sweeps;
    like the float hints the result is only checked, never trusted.
    """
    lc = char.coeffs[-1]
    points = list(points)
    for _ in range(REFINE_SWEEPS):
        moved = 0
        for i, (x, y) in enumerate(points):
            # q = lc prod (sigma_i - sigma_j), in units of 2^(-k(d - 1))
            qr, qi = lc, 0
            for j, (u, v) in enumerate(points):
                if j != i:
                    qr, qi = qr * (x - u) - qi * (y - v), qr * (y - v) + qi * (x - u)
            m = qr * qr + qi * qi
            if not m:
                return None
            # char(sigma_i) / q in units of 2^-k, rounded: value * conj(q) / |q|^2
            pr, pi = char.gaussian(x, y, k)
            sr = (2 * (pr * qr + pi * qi) + m) // (2 * m)
            si = (2 * (pi * qr - pr * qi) + m) // (2 * m)
            points[i] = (x - sr, y - si)
            moved = max(moved, sr * sr + si * si)
        if moved <= 1:
            break
    return points


def _uniqueness_certificate(
    cp: CriticalPoint, s_iv: Tuple[Fraction, Fraction],
    rho_iv: Tuple[Fraction, Fraction], extra: Tuple[Fraction, ...],
) -> Optional[str]:
    """None if no candidate singularity other than rho itself has modulus
    in ``rho_iv``, else the reason the check is undecided.

    The candidates are z(sigma) for the roots sigma of ``char`` and the
    exact z(s) for s in ``extra`` (see :func:`radius_numeric`).  Each
    approximate root from :func:`_approximate_roots` is rounded to a
    dyadic point sigma = (x + iy) / 2^k, k = 64 bits past the order of B,
    and given the disk of radius d |char / char'|(sigma): char'/char is the
    sum of 1/(s - r_j) over the d roots r_j, so one of them lies in that
    disk (Henrici, Applied and Computational Complex Analysis I), and d
    pairwise disjoint disks hold one root each.  The disk of s* is then
    the only one that meets ``s_iv``.  Over every other disk |num| and
    |den| lie within radius * sup |num'| and radius * sup |den'| of their
    values at sigma, which bounds |z| = |num| / |den|; the bound must lie
    strictly below or strictly above ``rho_iv``.

    Where these disks overlap, a tight cluster of roots of char that
    doubles cannot split, the roots are found again from the float hints on
    a grid ``REFINE_BITS`` finer (:func:`_refine_roots`), and the disks are
    checked there.  The roots of such a cluster map close to rho, so the s
    and rho intervals are then certified again to ``CLUSTER_TOL`` where
    they are wider.  Where the float disks are disjoint neither step runs.

    Integers only: values at sigma by complex Horner on the integer forms
    (:meth:`IntegerForm.gaussian`), moduli bounded by ``math.isqrt``, radii
    rounded up to whole units of 2^-k, and every comparison cross-multiplied.
    """
    for s in extra:
        if cp.den.sign_at(s) != 0 and s_iv != (s, s) \
                and rho_iv[0] <= abs(cp.z_at(s)) <= rho_iv[1]:
            return "z(%s) has modulus within the rho interval" % s
    char = cp.char.integer_form()
    d = char.degree()
    approx = _approximate_roots(cp.char, cp.bound)
    if len(approx) != d or not all(isfinite(abs(root)) for root in approx):
        return "no usable root approximations of char"
    k = max(0, 64 - cp.bound.numerator.bit_length() + cp.bound.denominator.bit_length())
    points = [(round(ldexp(root.real, k)), round(ldexp(root.imag, k))) for root in approx]
    disks, reason = _root_disks(char, points, k)
    if reason == _OVERLAP:
        points = _refine_roots(char, [(x << REFINE_BITS, y << REFINE_BITS)
                                      for x, y in points], k + REFINE_BITS)
        if points is not None:
            k += REFINE_BITS
            disks, reason = _root_disks(char, points, k)
            if rho_iv[1] - rho_iv[0] > CLUSTER_TOL:
                s_iv, rho_iv = _certify_rho(cp, CLUSTER_TOL)[:2]
    if reason:
        return reason
    (a_lo, b_lo), (a_hi, b_hi) = ((r.numerator, r.denominator) for r in rho_iv)
    s_lo = (s_iv[0].numerator << k) // s_iv[0].denominator
    s_hi = -((-s_iv[1].numerator << k) // s_iv[1].denominator)
    meets = [disk for disk in disks
             if max(s_lo - disk[0], disk[0] - s_hi, 0) ** 2 + disk[1] ** 2 <= disk[2] ** 2]
    if len(meets) != 1:
        return "%d root disks of char meet the s* interval" % len(meets)
    num, den = cp.num.integer_form(), cp.den.integer_form()
    num_d, den_d = _derivative_form(num, True), _derivative_form(den, True)
    scale_n, scale_d = num.den << k * num.degree(), den.den << k * den.degree()
    for x, y, r in disks:
        if (x, y, r) == meets[0]:
            continue
        # |num| on the disk lies in [n_lo, n_hi] / scale_n, |den| in
        # [d_lo, d_hi] / scale_d
        reach = abs(x) + abs(y) + r
        spread = r * num_d.dyadic(reach, k)
        n_lo, n_hi = _modulus_bounds(*num.gaussian(x, y, k))
        n_lo, n_hi = n_lo - spread, n_hi + spread
        spread = r * den_d.dyadic(reach, k)
        d_lo, d_hi = _modulus_bounds(*den.gaussian(x, y, k))
        d_lo, d_hi = d_lo - spread, d_hi + spread
        inside = d_lo > 0 and n_hi * scale_d * b_lo < a_lo * scale_n * d_lo
        outside = n_lo * scale_d * b_hi > a_hi * scale_n * d_hi
        if not (inside or outside):
            return "a root of char maps near |z| = rho"
    return None


def _far_field_warnings(params: IsingParams, allow_far_field: bool) -> List[str]:
    """Guard the validated region |c - 1| <= 1/4.

    Outside it, raise FarField unless ``allow_far_field``, in which case
    the returned list carries a warning; inside it the list is empty.  At
    nu = 1 every c is validated: Z is Tutte's quartic-map series at
    z (c + 1/c) (:func:`~isingmaps.series.nu_one_jets`), whose only
    singularity on its circle is mu = c / (12 (1 + c^2)).
    """
    if params.nu == 1 or abs(params.c - 1) <= VALIDATED_C_HALF_WIDTH:
        return []
    if not allow_far_field:
        raise FarField("c = %s is outside the validated region |c-1| <= 1/4" % params.c)
    return ["c outside the validated region |c-1| <= 1/4; results carry no guarantee"]


def radius_numeric(
    params: IsingParams,
    tol: Fraction = Fraction(1, 10 ** 12),
    allow_far_field: bool = False,
    with_exponent: bool = True,
    scan_uniqueness: bool = True,
) -> SingularityReport:
    """Certified radius of convergence rho, mu = c rho, and S(rho).

    s* is the smallest root of the characteristic polynomial in (0, B],
    B = 1/(3 c^2 |1 - nu^2|) (Cauchy bound at nu = 1), isolated by Sturm
    counts and refined by quadratic interval refinement to the cell sign
    bisection would stop in (see :class:`CriticalPoint` and
    :func:`_certify_rho`);
    rho is the reduced rational function z(s) evaluated there, with an
    interval enclosure of width <= tol.  Points with |c - 1| > 1/4 are
    outside the validated region and require ``allow_far_field=True``,
    which records a warning instead.

    With ``scan_uniqueness``, ``uniqueness_checked`` is True when no other
    candidate singularity of Z has modulus in the rho interval, certified
    at tol 1e-12 or finer whatever ``tol`` (1e-40 where a tight cluster of
    roots of ``char`` maps close to rho); otherwise it is False and a
    warning "dominant-singularity uniqueness undecided: <reason>" says why.
    The candidates: the leading S-coefficient of the squarefree cancelling
    polynomial is a constant, so S has no poles and every singularity of S
    is a root of its z-discriminant, which is z(sigma) for a root sigma of
    ``char`` or z(B), B being the endpoint factor :func:`critical_point`
    drops at c = 1.  Z = Q(S) adds none: on the curve, Z(nu, c, c z) =
    A(S, z) / (9 (1 - nu^2) z^2) with A a polynomial (the reduced model of
    :mod:`isingmaps.series`), so 1 + e1 S = 0 is no pole of Z.
    :func:`_uniqueness_certificate` checks every candidate exactly.
    Candidates strictly inside |z| < rho are allowed on the Pringsheim
    argument: Z_n >= 0, since Z counts maps with positive weights, so the
    radius of Z is a singularity on the positive axis (Flajolet-Sedgewick,
    Analytic Combinatorics, Thm IV.6), and with that radius equal to rho
    the candidates inside the disc lie on other sheets.  That the radius of
    Z is rho is the argument's premise, not something this check proves.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    warnings = _far_field_warnings(params, allow_far_field)
    cp = critical_point(params)
    s_iv, rho_iv, exact = _certify_rho(cp, tol)
    rho_mid = (rho_iv[0] + rho_iv[1]) / 2 if not exact else rho_iv[0]
    s_mid = (s_iv[0] + s_iv[1]) / 2 if not exact else s_iv[0]
    mu_iv = (params.c * rho_iv[0], params.c * rho_iv[1])
    unique = False
    if scan_uniqueness:
        # the verdict reads rho to UNIQUENESS_TOL at least, whatever ``tol``
        ivs = (s_iv, rho_iv) if tol <= UNIQUENESS_TOL else _certify_rho(cp, UNIQUENESS_TOL)
        reason = _uniqueness_certificate(cp, *ivs[:2], (cp.bound,))
        unique = reason is None
        if not unique:
            warnings.append("dominant-singularity uniqueness undecided: " + reason)
    return SingularityReport(
        rho=rho_mid,
        rho_interval=rho_iv,
        mu=params.c * rho_mid,
        mu_interval=mu_iv,
        s_at_rho=s_mid,
        s_interval=s_iv,
        exact=exact,
        exponent=cp.exponent() if with_exponent else None,
        uniqueness_checked=unique,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Puiseux branches by series reversion
# ---------------------------------------------------------------------------

Interval = Tuple[Fraction, Fraction]
PUISEUX_GUARD_BITS = 64
_ZERO = (Fraction(0), Fraction(0))
_ONE = (Fraction(1), Fraction(1))


class Enclosure(NamedTuple):
    """A certified box re + i im, each part a closed interval (lo, hi) of
    rationals; im is the point 0 on a real branch."""

    re: Interval
    im: Interval = _ZERO


class PuiseuxExpansion(NamedTuple):
    """Initial terms of one branch Y(Z) = sum coeff * Z^exponent at Z = 0.

    Fraction coefficients on a branch whose every term is a rational known
    exactly, Enclosures (a point where exact) on any other.  ``exact``
    marks a branch whose recorded terms are all of it: the zero branch,
    and those of Z = alpha Y^v.  The centre (rho, s*) is the
    SingularityReport's.
    """

    terms: Tuple[Tuple[Union[Fraction, Enclosure], Fraction], ...]
    ramification: int
    exact: bool = False

    def leading_exponent(self) -> Optional[Fraction]:
        return self.terms[0][1] if self.terms else None


def _hull(ends, bits: int) -> Interval:
    """(min, max) of ``ends``; unless a point, rounded outward to ``bits``
    significant bits, so that Fraction sizes stay bounded."""
    lo, hi = min(ends), max(ends)
    if lo == hi:
        return lo, hi
    scales = [Fraction(2) ** (bits - x.numerator.bit_length() + x.denominator.bit_length())
              for x in (lo, hi)]
    return floor(lo * scales[0]) / scales[0], ceil(hi * scales[1]) / scales[1]


def _add(a: Interval, b: Interval, bits: int) -> Interval:
    return _hull((a[0] + b[0], a[1] + b[1]), bits)


def _sub(a: Interval, b: Interval, bits: int) -> Interval:
    return _hull((a[0] - b[1], a[1] - b[0]), bits)


def _mul(a: Interval, b: Interval, bits: int) -> Interval:
    return _hull([x * y for x in a for y in b], bits)


def _div(a: Interval, b: Interval, bits: int) -> Interval:
    if b[0] <= 0 <= b[1]:
        raise PrecisionExhausted("a Puiseux divisor enclosure contains 0")
    return _mul(a, (1 / b[1], 1 / b[0]), bits)


def _root(x: Interval, n: int, bits: int) -> Interval:
    """x^(1/n) over the positive interval x: the point root where x is a
    point with a rational n-th root (:func:`~isingmaps.exactalg.rational_root`),
    else ends by :func:`~isingmaps.dyadic.root` at about ``bits`` significant
    bits."""
    lo, hi = x
    exact = rational_root(lo, n) if lo == hi else None
    if exact is not None:
        return exact, exact
    p = max(0, bits + 1 - (lo.numerator.bit_length() - lo.denominator.bit_length()) // n)
    return (Fraction(dyadic.root(lo.numerator, lo.denominator, n, p)[0], 1 << p),
            Fraction(dyadic.root(hi.numerator, hi.denominator, n, p)[1], 1 << p))


def _taylor_at(p: UniPoly, s: Interval, order: int, bits: int) -> List[Interval]:
    """Enclosures of the coefficients of Y^0 .. Y^(order-1) in p(s - Y)
    for s in ``s``: (-1)^i p^(i)(s) / i!, each by Horner over ``s``."""
    out = []
    for i in range(order):
        acc = _ZERO
        for k in range(p.degree(), i - 1, -1):
            a = (-1) ** i * comb(k, i) * p.coeff(k)
            acc = _add(_mul(acc, s, bits), (a, a), bits)
        out.append(acc)
    return out


def _quotient_tail(a: List[Interval], b: List[Interval], v: int, count: int,
                   bits: int) -> List[Interval]:
    """The coefficients of Y^v .. Y^(v+count-1) of the series a / b, whose
    coefficients below Y^v are 0; those of a there are not read."""
    q: List[Interval] = []
    for i in range(v, v + count):
        acc = a[i] if i < len(a) else _ZERO
        for k in range(1, min(i - v, len(b) - 1) + 1):
            acc = _sub(acc, _mul(b[k], q[i - v - k], bits), bits)
        q.append(_div(acc, b[0], bits))
    return q


# cos(pi m / 6) for m = 0..11 as (p, q), meaning p + q sqrt(3); sin is the
# entry at m - 3
_COS_TWELFTHS = ((1, 0), (0, _HALF), (_HALF, 0), (0, 0), (-_HALF, 0), (0, -_HALF),
                 (-1, 0), (0, -_HALF), (-_HALF, 0), (0, 0), (_HALF, 0), (0, _HALF))


def _reversion_branches(z: List[Interval], v: int, bits: int,
                        exact: bool) -> List[PuiseuxExpansion]:
    """The v branches Y(Z) through 0 of Z = sum_i z[i] Y^(v+i), to len(z)
    terms each: real leading coefficients ascending, then complex ones by
    ascending imaginary part.

    With alpha = z[0] and Z = alpha Y^v (1 + u(Y)), w = (Z / alpha)^(1/v)
    is Y (1 + u)^(1/v), and Lagrange inversion gives Y = sum_j c_j w^j,
    c_j = [Y^(j-1)] (1 + u)^(-j/v) / j (Flajolet-Sedgewick, Analytic
    Combinatorics, sec. VI.7 and A.6), each power by J. C. P. Miller's
    recurrence (Knuth, TAOCP 2, sec. 4.7).  The v values of w are
    |alpha|^(-1/v) Z^(1/v) e^(i pi m / 6) for the m with
    e^(i pi m v / 6) = sign(alpha), so branch m has the coefficient
    c_j |alpha|^(-j/v) e^(i pi j m / 6) at Z^(j/v).  For v <= 3 the angles
    are multiples of pi / 6, whose cosines are rationals or rational
    multiples of sqrt(3); a larger v raises DegenerateBranch.

    Point intervals z[i], as at an exact hit, keep every step exact.  A
    branch is rational, with Fraction terms, when every z[i] and
    |alpha|^(1/v) are and m is 0 or 6.  Any other term is an Enclosure,
    worked at ``bits`` + PUISEUX_GUARD_BITS and rounded outward to ``bits``
    significant bits.  Terms with c_j exactly 0 are left out.
    """
    if v > 3:
        raise DegenerateBranch("branches of ramification %d are not expanded (at most 3)" % v)
    work, alpha = bits + PUISEUX_GUARD_BITS, z[0]
    if alpha[0] <= 0 <= alpha[1]:
        raise PrecisionExhausted("the leading Puiseux coefficient enclosure contains 0")
    g = [_ONE] + [_div(x, alpha, work) for x in z[1:]]
    c = []
    for j in range(1, len(z) + 1):
        f = [_ONE]
        for n in range(1, j):
            acc = _ZERO
            for k in range(1, n + 1):
                weight = Fraction((v - j) * k - n * v, n * v)
                acc = _add(acc, _mul(_mul(g[k], f[n - k], work), (weight, weight), work), work)
            f.append(acc)
        c.append(_mul(f[j - 1], (Fraction(1, j),) * 2, work))
    sign = 1 if alpha[0] > 0 else -1
    inverse = tuple(sorted((sign / alpha[0], sign / alpha[1])))
    powers = [_ONE]  # |alpha|^(-j/v)
    for j in range(1, len(z) + 1):
        powers.append(_mul(powers[j - v], inverse, work) if j >= v else
                      _root(_hull((inverse[0] ** j, inverse[1] ** j), work), v, work))
    rational = all(x[0] == x[1] for x in z + powers[1:2])
    sqrt3 = _root((Fraction(3),) * 2, 2, work)
    branches = []
    for m in ((6 * (sign < 0) + 12 * k) // v for k in range(v)):
        terms = []
        for j, cj in enumerate(c, start=1):
            if cj != _ZERO:
                size = _mul(cj, powers[j], work)
                re, im = (_mul(_mul(size, sqrt3, work) if q else size, (q or p,) * 2, work)
                          for p, q in (_COS_TWELFTHS[j * m % 12], _COS_TWELFTHS[(j * m - 3) % 12]))
                coefficient = re[0] if rational and m % 6 == 0 else \
                    Enclosure(_hull(re, bits), _hull(im, bits))
                terms.append((coefficient, Fraction(j, v)))
        branches.append(PuiseuxExpansion(tuple(terms), v, exact))

    def order(branch: PuiseuxExpansion):
        lead = branch.terms[0][0]
        if isinstance(lead, Fraction):
            return False, lead
        return lead.im != _ZERO, sum(lead.re if lead.im == _ZERO else lead.im)
    return sorted(branches, key=order)


def newton_polygon_expand(
    a: List[Interval], b: List[Interval], v: int, max_terms: int = 3,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> List[PuiseuxExpansion]:
    """The v Puiseux branches Y(Z) through 0 of the curve Z b(Y) = a(Y).

    ``a`` and ``b`` enclose the coefficients of Y^0, Y^1, .. of a and b; a
    vanishes to order v, so those below Y^v are not read.
    :func:`_reversion_branches` expands Z = a / b (:func:`_quotient_tail`)
    to ``max_terms`` terms, ``exact`` when the lists are points and a / b
    is the monomial alpha Y^v.  Raises DegenerateBranch when v > 3.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    z = _quotient_tail(a, b, v, max_terms, precision_bits + PUISEUX_GUARD_BITS)
    alpha = z[0][0]
    monomial = all(lo == hi for lo, hi in a[v:] + b) and all(
        x == alpha * y for (x, _), (y, _) in zip_longest(a[v:], b, fillvalue=_ZERO))
    return _reversion_branches(z, v, precision_bits, monomial)


# ---------------------------------------------------------------------------
# Branches at the dominant singularity
# ---------------------------------------------------------------------------

def dominant_expansions(
    params: IsingParams,
    max_terms: int = 3,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> Tuple[SingularityReport, List[PuiseuxExpansion]]:
    """Puiseux branches S = s* - Y(Z), Z = rho - z, at the dominant singularity.

    One route at every point: :func:`newton_polygon_expand` expands
    Z = a / b, a(Y) = rho den(s* - Y) - num(s* - Y) and b(Y) = den(s* - Y)
    for the :class:`CriticalPoint`, v = 1 / exponent, with the Taylor
    coefficients enclosed over an s-interval, rho = num / den there: the
    point s* at an exact hit, whole polynomials, else s* refined to a
    relative width of 2^-(bits + PUISEUX_GUARD_BITS), to Y^(v+max_terms-1).
    The coefficients of a below Y^v vanish at s* with z', .., z^(v-1), as
    :meth:`CriticalPoint.exponent` certifies.  Where s* is a root of D
    (c = 1, nu >= 4) the cancelling curve keeps the line S = s*
    (:func:`cancelling_polynomial_squarefree`): its zero branch Y = 0 comes
    first, exact, with no terms.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    report = radius_numeric(params, scan_uniqueness=False)
    cp, v = critical_point(params), report.exponent.denominator
    work = precision_bits + PUISEUX_GUARD_BITS
    if report.exact:
        s, order = report.s_interval, max(len(cp.num.coeffs), len(cp.den.coeffs))
    else:
        s, order = cp.refine(*report.s_interval, report.s_interval[0] / 2 ** work), v + max_terms
    n, d = (_taylor_at(p, s, order, work) for p in (cp.num, cp.den))
    rho = _div(n[0], d[0], work)
    a = [_sub(_mul(rho, di, work), ni, work) for ni, di in zip(n, d)]
    on_pole = report.exact and s[0] in _poles(params.nu, params.c)
    zero = [PuiseuxExpansion((), 1, True)] if on_pole else []
    return report, zero + newton_polygon_expand(a, d, v, max_terms, precision_bits)
