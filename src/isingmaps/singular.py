"""Singularity analysis for the map partition-function series.

Everything here works at an exact rational parameter point (nu, c).  The
radius of convergence rho of the z-series is located through the critical
point of the defining equation z = S N(S)/D(S)^2: the value s* = S(rho) is
a root of the characteristic polynomial ``char``, the numerator of z'(s)
for z(s) in lowest terms with its poles stripped, and in the validated
parameter region it is the smallest root of ``char`` in (0, B],
B = 1/(3 c^2 |1 - nu^2|) (a Cauchy root bound at nu = 1).  The exact data
of that critical point are computed once per (nu, c), from one evaluation
of N and D, and cached as a CriticalPoint built over Z (gcds certified
modulo a prime, one primitive remainder sequence where that fails): z(s)
in lowest terms, ``char``, B, an interval isolating s* (Sturm counts, sign
bisection), and the squarefree cancelling polynomial.  rho is recovered
by evaluating z(s) at s*, with certified interval arithmetic; mu = c * rho.

The dominant singular exponent of S is exact: it is 1/(m + 1), where m is
the multiplicity of s* as a root of z'(s), so 1/2 generically and 1/3 where
two saddles coalesce, at (nu, c) = (4, 1).  Newton-polygon Puiseux
expansions of the cancelling polynomial z D(S)^2 - S N(S) shifted to
(rho, s*) give the branches themselves.

That rho is the only singularity on |z| = rho is certified from the same
CriticalPoint: the other candidates are z at the roots of ``char`` and at
one exact point, and disjoint root disks of ``char``, checked in
integers, bound each candidate's modulus away from the rho interval (see
:func:`radius_numeric`).  The discriminant in z of the cancelling
polynomial, whose roots are those candidates, is interpolated from
univariate discriminants at integer z; it serves as the reference for that
candidate set and for the c = 1 factors of :func:`p1_p2_p3`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isfinite, isqrt, lcm, ldexp
from typing import Dict, List, Optional, Tuple, Union

import mpmath

from .errors import DegenerateBranch, NoRootInRange, PrecisionExhausted
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
    rational_sqrt,
    squarefree_part,
)
from .precision import DEFAULT_PRECISION_BITS, to_mpf
from .series import IsingParams, _symbolic_tables

VALIDATED_C_HALF_WIDTH = Fraction(1, 4)
UNIQUENESS_TOL = Fraction(1, 10 ** 12)

Number = Union[Fraction, mpmath.mpf]


def characteristic_root_polynomial(params: IsingParams) -> UniPoly:
    """Numerator of z'(s) for the reduced defining function, poles stripped.

    This is ``critical_point(params).char`` (see :func:`critical_point`), so
    it raises NoRootInRange where the polynomial has no root in the search
    interval (0, B].
    """
    return critical_point(params).char


def _z_linear(b: UniPoly, a: UniPoly) -> UniPoly:
    """z b(S) - a(S) as a polynomial in S over Q[z]."""
    zero_z = UniPoly([], zero=Fraction(0))
    deg = max(b.degree(), a.degree())
    return UniPoly([UniPoly([-a.coeff(k), b.coeff(k)]) for k in range(deg + 1)],
                   zero=zero_z)


def cancelling_polynomial(params: IsingParams) -> UniPoly:
    """z D(S)^2 - S N(S) as a polynomial in S over Q[z] (z-degree 1).

    Coefficients are UniPoly in z over exact rationals at the point.
    """
    sn, a, d, b = _lagrangian_parts(params)
    return _z_linear(_over(d * d, b * b), _over(sn, a))


def cancelling_polynomial_squarefree(params: IsingParams) -> UniPoly:
    """The cancelling polynomial with repeated S-factors removed.

    With g = gcd(S N, D^2) in Q[S], C = z D^2 - S N is g (z B - A) for
    coprime A = S N / g and B = D^2 / g.  The factor z B - A is linear in z
    with coprime coefficients, hence irreducible, and prime to g, so
    gcd(C, dC/dS) = gcd(g, g'): a univariate gcd.  At c = 1 the numerator N
    degenerates to a perfect-square multiple, g is that squared linear
    factor, and dividing it out once keeps the curve while giving a
    discriminant that does not vanish identically.  Off c = 1, g is 1 and C
    is returned as it is.  The divisor is scaled to 1 at S = 0, so the
    result agrees with C there.

    This is ``critical_point(params).cancelling_sf``, so it raises
    NoRootInRange where the characteristic polynomial has no root in the
    search interval.
    """
    return critical_point(params).cancelling_sf


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
    c_sf = critical_point(params).cancelling_sf
    d = c_sf.degree()
    b = max(k for k, q in enumerate(c_sf.coeffs) if q.degree() >= 1)
    if b >= d:
        raise ArithmeticError("leading S-coefficient of C_sf depends on z")
    nodes = [Fraction(z) for z in range(d + b)]
    values = [discriminant(UniPoly([q.eval_scalar(z) for q in c_sf.coeffs]))
              for z in nodes]
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
# Closed forms for the radius at c = 1
# ---------------------------------------------------------------------------

def rho_closed_form(nu, precision_bits: int = DEFAULT_PRECISION_BITS) -> Number:
    """Radius of convergence of the z-series at c = 1.

    Exact Fraction when nu >= 4 (rational) or sqrt(nu) is rational; otherwise
    an mpmath real at the requested precision.
    """
    nu = Fraction(nu)
    if nu <= 0:
        raise ValueError("nu must be positive")
    if nu >= 4:
        return (3 * nu ** 2 - 8) / (36 * (nu ** 2 - 1) ** 2)
    root = rational_sqrt(nu)
    if root is not None:
        return 2 * (1 + 2 * root) / (9 * (1 + root) ** 2 * (1 + nu) ** 2)
    with mpmath.workprec(precision_bits):
        r = mpmath.sqrt(to_mpf(nu))
        return 2 * (1 + 2 * r) / (9 * (1 + r) ** 2 * to_mpf((1 + nu) ** 2))


def s_at_rho_closed_form(nu, precision_bits: int = DEFAULT_PRECISION_BITS) -> Number:
    """Value of the algebraic series S at its radius, at c = 1."""
    nu = Fraction(nu)
    if nu <= 0:
        raise ValueError("nu must be positive")
    if nu >= 4:
        return Fraction(1, 3) / (nu ** 2 - 1)
    root = rational_sqrt(nu)
    if root is not None:
        return Fraction(1, 3) / ((root + 1) * (nu + 1))
    with mpmath.workprec(precision_bits):
        r = mpmath.sqrt(to_mpf(nu))
        return 1 / (3 * (r + 1) * to_mpf(nu + 1))


# ---------------------------------------------------------------------------
# Certified radius at a rational point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularityReport:
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
        parts.append((UniPoly([v // t for v in vals], zero=0), den // t))
    (n, a), (d, b) = parts
    return UniPoly([0] + n.coeffs, zero=0), a, d, b


def _over(p: UniPoly, w: int) -> UniPoly:
    """The rational polynomial p / w."""
    return UniPoly([Fraction(c, w) for c in p.coeffs])


@dataclass(frozen=True)
class CriticalPoint:
    """The exact critical point s* of z(s) at one parameter point (nu, c).

    Built once per (nu, c) by :func:`critical_point`; the certified radius,
    the uniqueness certificate, the dominant exponent and the Puiseux
    expansions all read it.  ``num / den`` is z(s) in lowest terms, both
    integer polynomials over one shared positive scale (their coefficients
    coprime taken together), so :meth:`z_at` is exact integer Horner.
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
    ``interval`` = (lo, hi] isolates s* to width B / 2^20, or is (s*, s*)
    when char is linear, as at nu = 1, or when a bisection point hits s*,
    as s* = B does at c = 1, nu >= 4.
    ``cancelling_sf`` is the squarefree cancelling polynomial.
    """

    num: UniPoly
    den: UniPoly
    char: UniPoly
    bound: Fraction
    interval: Tuple[Fraction, Fraction]
    cancelling_sf: UniPoly

    def z_at(self, s: Fraction) -> Fraction:
        """z(s) exactly, from the integer forms of num and den."""
        x, w = s.numerator, s.denominator
        e = self.den.degree() - self.num.degree()
        n = self.num.integer_form().value(x, w)
        d = self.den.integer_form().value(x, w)
        return Fraction(n * w ** e, d) if e >= 0 else Fraction(n, d * w ** -e)

    def refine(self, lo: Fraction, hi: Fraction, width: Fraction) -> Tuple[Fraction, Fraction]:
        """Shrink (lo, hi], a piece of ``interval`` that holds s*, below width.

        On ``interval``, char has the sign of its value at the top end
        exactly at the points above s*.  That sign test, in integers
        (:meth:`UniPoly.sign_at`), certifies the piece and drives the
        bisection; no Sturm count is needed.
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


@lru_cache(maxsize=512)
def _critical_point(nu: Fraction, c: Fraction) -> CriticalPoint:
    sn, a, d, b = _lagrangian_parts(IsingParams(nu=nu, c=c))
    dd = d * d
    # z(s) = b^2 sn / (a d^2) in lowest terms: at c = 1 for nu >= 4, s* is
    # a root of D and the unreduced s N(S)/D(S)^2 is a 0/0 there.  Off
    # c = 1 the modular certificate shows gcd 1 without a remainder
    # sequence.  Divisors are primitive, so every quotient stays in Z[x].
    g = primitive(poly_gcd(sn, dd))
    num, den = sn.scale(b * b).exact_div(g), dd.scale(a).exact_div(g)
    t = gcd(*num.coeffs, *den.coeffs)
    num, den = (UniPoly([x // t for x in q.coeffs], zero=0) for q in (num, den))
    # Removing every factor the numerator of z' shares with den discards
    # the spurious pole-located roots D would contribute (at c = 1 they sit
    # at the end of the search interval for nu on one side of 1), while the
    # genuine critical point survives: for nu >= 4 it is the cancelled
    # factor's location, a root of the reduced numerator's derivative.
    if g.degree() == 0:
        # den = (a / t) d^2, so num' den - num den' is (a / t) d times
        # num' d - 2 num d': that factor d is stripped here, the sign of
        # its leading coefficient kept
        char = primitive(num.derivative() * d - (num * d.derivative()).scale(2))
        char = char if d.lc() > 0 else -char
    else:
        char = primitive(num.derivative() * den - num * den.derivative())
    common = poly_gcd(char, den)
    while common.degree() >= 1:
        char = char.exact_div(primitive(common))
        common = poly_gcd(char, den)
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
    # squarefree cancelling polynomial: divide g (z B - A) by gcd(g, g'),
    # scaled to 1 at S = 0 (D(0) = 1, so S does not divide it)
    h = primitive(poly_gcd(g, g.derivative()))
    if h.degree() >= 1:
        sn, dd = (q.exact_div(h).scale(h.coeff(0)) for q in (sn, dd))
    return CriticalPoint(num=num, den=den, char=char, bound=bound, interval=interval,
                         cancelling_sf=_z_linear(_over(dd, b * b), _over(sn, a)))


def _certify_rho(
    cp: CriticalPoint, tol: Fraction
) -> Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction], bool]:
    """From the isolating interval for s*, certify an interval for rho.

    Sign bisection as in :meth:`CriticalPoint.refine`, one step at a time
    until the Lipschitz enclosure of z over the interval is within ``tol``:
    with den_min the smaller value of den at the two ends (den is decreasing
    on [0, s_D)) and sup bounds of |num'| and |num| |den'| on [0, max(hi, 1)],
    lip = sup|num'| / den_min + sup(|num| |den'|) / den_min^2, and the
    enclosure is lower = max z(end), upper = lower + lip * (hi - lo).
    Returns (s_interval, rho_interval, exact).

    A rational s* is a multiple of 1/lc(char), char being primitive over Z,
    so the one such multiple in an interval narrower than 1/lc is tested
    once; a root there makes the result exact, with no extra bisection step.

    The loop runs in integers, as :func:`~isingmaps.exactalg.bisect_isolated_root`
    does: the ends are L/W and H/W over one shared W = w0 2^k, and char and
    den are evaluated by integer Horner on their forms scaled by 1/w0.  The
    stored den values u den(end), u = q W^e (q the denominator of den's
    integer form, e = deg den), only shift left by e bits when a step
    doubles W.  The stopping test
    lip (hi - lo) <= tol is cross-multiplied over u, W and the common
    denominator of the bounds and tol.  Fractions are built once, for the
    returned intervals.

    The global bound is loose on purpose: it refines s far past what the
    rho width needs, and that s-interval is what makes the thermodynamic M
    and chi enclosures (:func:`~isingmaps.critical.thermo_enclosures`)
    1e-31 to 1e-45 wide at tol 1e-28.  Since z'(s*) = 0, a bound local to
    the interval would stop once |z''| w^2 / 2 <= tol, at an s-width w of
    about sqrt(2 tol / |z''|), near 1e-15; M, which depends on s to first
    order, would then be only about 1e-13 wide at (1/2, 19/20) and 1e-11
    at (6, 11/10).
    """
    lo, hi = cp.interval
    if lo == hi:
        z_exact = cp.z_at(lo)
        return (lo, hi), (z_exact, z_exact), True
    num_d = cp.num.derivative()
    den_d = cp.den.derivative()
    (L, H), w0 = common_denominator((lo, hi))
    k = 0
    char = cp.char.integer_form().scaled(w0)
    den = cp.den.integer_form().scaled(w0)
    e = den.degree()
    up = char.dyadic(H, 0) > 0  # the sign of char just above s*
    den_lo, den_hi, u = den.dyadic(L, 0), den.dyadic(H, 0), den.den
    bounds_scale = None
    lc = abs(cp.char.lc())
    candidate = True  # the one multiple of 1/lc in (lo, hi] is still untested
    while True:
        if candidate and (H - L) * lc < w0 << k:
            candidate = False
            s_exact = Fraction(H * lc // (w0 << k), lc)  # the last multiple up to hi
            if s_exact > Fraction(L, w0 << k) and cp.char.sign_at(s_exact) == 0:
                z_exact = cp.z_at(s_exact)
                return (s_exact, s_exact), (z_exact, z_exact), True
        if den_lo > 0 and den_hi > 0:
            # the sup bounds on [0, hi] depend on hi only through max(hi, 1)
            scale = Fraction(H, w0 << k) if H > w0 << k else 1
            if scale != bounds_scale:
                bounds_scale = scale
                sup_num_d = _poly_abs_bound(num_d, scale)
                sup_num_den_d = (_poly_abs_bound(cp.num, scale)
                                 * _poly_abs_bound(den_d, scale))
                (alpha, beta, tau), _ = common_denominator(
                    (sup_num_d, sup_num_den_d, tol))
            dm = min(den_lo, den_hi)
            if (alpha * dm + beta * u) * u * (H - L) <= tau * dm * dm * (w0 << k):
                break
        mid = L + H
        L, H, k = L << 1, H << 1, k + 1
        den_lo, den_hi, u = den_lo << e, den_hi << e, u << e
        side = char.dyadic(mid, k)
        if side == 0:
            s_exact = Fraction(mid, w0 << k)
            z_exact = cp.z_at(s_exact)
            return (s_exact, s_exact), (z_exact, z_exact), True
        if (side > 0) == up:
            H, den_hi = mid, den.dyadic(mid, k)
        else:
            L, den_lo = mid, den.dyadic(mid, k)
    lo, hi = Fraction(L, w0 << k), Fraction(H, w0 << k)
    den_min = Fraction(dm, u)
    lip = sup_num_d / den_min + sup_num_den_d / den_min ** 2
    lower = max(cp.z_at(lo), cp.z_at(hi))
    upper = lower + lip * (hi - lo)
    return (lo, hi), (lower, upper), False


def _approximate_roots(char: UniPoly, bound: Fraction) -> List[complex]:
    """Complex-float approximations of the roots of ``char``, or [] when
    floats cannot hold the problem.

    Durand-Kerner on the monic char(B t) / lc, B = ``bound``, whose roots t
    are of order 1, from the usual spiral of starting points at twice the
    Fujiwara bound; returned as the points B t.  Only a hint for
    :func:`_uniqueness_certificate`, which checks every disk exactly: a
    poor approximation can lose the verdict, never make a false one.
    """
    scaled = [c * bound ** k for k, c in enumerate(char.coeffs)]
    d = len(scaled) - 1
    try:
        a = [float(c / scaled[-1]) for c in scaled[:-1]]
        r = 2 * max(abs(x) ** (1 / (d - k)) for k, x in enumerate(a)) or 1.0
        ts = [r * (0.4 + 0.9j) ** k for k in range(d)]
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

    Integers only: values at sigma by complex Horner on the integer forms
    (:meth:`IntegerForm.gaussian`), moduli bounded by ``math.isqrt``, radii
    rounded up to whole units of 2^-k, and every comparison cross-multiplied.
    """
    (a_lo, b_lo), (a_hi, b_hi) = ((r.numerator, r.denominator) for r in rho_iv)
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
    char_d = _derivative_form(char)
    disks = []
    for root in approx:
        x, y = round(ldexp(root.real, k)), round(ldexp(root.imag, k))
        q_lo = _modulus_bounds(*char_d.gaussian(x, y, k))[0]
        if q_lo == 0:
            return "char' vanishes at an approximate root"
        p_hi = _modulus_bounds(*char.gaussian(x, y, k))[1]
        disks.append((x, y, -(-d * p_hi // q_lo)))
    for i, (x1, y1, r1) in enumerate(disks):
        for x2, y2, r2 in disks[:i]:
            if (x1 - x2) ** 2 + (y1 - y2) ** 2 <= (r1 + r2) ** 2:
                return "root disks of char overlap"
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

    Outside it, raise ValueError unless ``allow_far_field``, in which case
    the returned list carries a warning; inside it the list is empty.  At
    nu = 1 every c is validated: Z is Tutte's quartic-map series at
    z (c + 1/c) (:func:`~isingmaps.series.nu_one_jets`), whose only
    singularity on its circle is mu = c / (12 (1 + c^2)).
    """
    if params.nu == 1 or abs(params.c - 1) <= VALIDATED_C_HALF_WIDTH:
        return []
    if not allow_far_field:
        raise ValueError(
            "c is outside the validated neighborhood of 1; "
            "pass allow_far_field=True to proceed anyway"
        )
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
    counts and refined by sign bisection (see :class:`CriticalPoint`);
    rho is the reduced rational function z(s) evaluated there, with an
    interval enclosure of width <= tol.  Points with |c - 1| > 1/4 are
    outside the validated region and require ``allow_far_field=True``,
    which records a warning instead.

    With ``scan_uniqueness``, ``uniqueness_checked`` is True when no other
    candidate singularity of Z has modulus in the rho interval, certified
    at tol 1e-12 or finer whatever ``tol``; otherwise it is False and a
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
# Newton-polygon Puiseux expansions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PuiseuxExpansion:
    """Initial terms of one branch y(Z) = sum coeff * Z^exponent at Z = 0.

    ``ramification`` is the lcm of the exponent denominators; ``exact`` marks
    a branch whose recorded terms solve the polynomial identically (a
    polynomial root found in finitely many steps).
    """

    center: Optional[Number]
    terms: Tuple[Tuple[Number, Fraction], ...]
    ramification: int
    exact: bool = False

    def leading_exponent(self) -> Optional[Fraction]:
        for _, e in self.terms:
            return e
        return None


SupportDict = Dict[Tuple[int, Fraction], object]


def _as_support(P) -> Tuple[SupportDict, bool]:
    """Normalize input to {(y_degree, z_exponent): coefficient}."""
    support: SupportDict = {}
    exact = True
    if isinstance(P, UniPoly):
        for i, ci in enumerate(P.coeffs):
            if isinstance(ci, UniPoly):
                for j, a in enumerate(ci.coeffs):
                    if not a == 0:
                        support[(i, Fraction(j))] = a
                        exact = exact and isinstance(a, (int, Fraction))
            elif not ci == 0:
                support[(i, Fraction(0))] = ci
                exact = exact and isinstance(ci, (int, Fraction))
    elif isinstance(P, dict):
        for (i, j), a in P.items():
            if not a == 0:
                support[(int(i), Fraction(j))] = a
                exact = exact and isinstance(a, (int, Fraction))
    else:
        raise TypeError("expected a UniPoly over UniPoly or a support dict")
    return support, exact


def _to_num(x):
    """Coerce exact scalars to mpmath under the ambient precision."""
    if isinstance(x, int):
        return mpmath.mpf(x)
    if isinstance(x, Fraction):
        return to_mpf(x)
    return x


def _num_abs(x) -> mpmath.mpf:
    return abs(_to_num(x))


def _clean_support(support: SupportDict, exact: bool, threshold) -> SupportDict:
    if exact:
        return {k: v for k, v in support.items() if v != 0}
    if not support:
        return {}
    top = max(_num_abs(v) for v in support.values())
    cut = top * threshold
    return {k: v for k, v in support.items() if _num_abs(v) > cut}


def _lower_hull(points: List[Tuple[int, Fraction]]) -> List[Tuple[int, Fraction]]:
    """Lower convex hull of (i, e) points, increasing in i."""
    pts = sorted(points)
    best: Dict[int, Fraction] = {}
    for i, e in pts:
        if i not in best or e < best[i]:
            best[i] = e
    pts = sorted(best.items())
    hull: List[Tuple[int, Fraction]] = []
    for p in pts:
        while len(hull) >= 2:
            (i1, e1), (i2, e2) = hull[-2], hull[-1]
            # drop middle point if it lies on or above the chord
            if (e2 - e1) * (p[0] - i1) >= (p[1] - e1) * (i2 - i1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _edge_roots(chi: List, exact: bool, precision_bits: int):
    """Distinct nonzero roots of the edge polynomial (list indexed by power).

    Exact rational roots are returned as Fractions whenever verification
    succeeds; everything else comes back as mpmath numbers.
    """
    while chi and (chi[-1] == 0 if exact else _num_abs(chi[-1]) == 0):
        chi.pop()
    roots: List[object] = []
    if exact:
        poly = UniPoly([Fraction(c) for c in chi])
        with mpmath.workprec(precision_bits):
            approx = mpmath.polyroots(
                [to_mpf(Fraction(c)) for c in reversed(chi)],
                maxsteps=200, extraprec=precision_bits,
            )
        for r in approx:
            if abs(r) == 0:
                continue
            if abs(mpmath.im(r)) < mpmath.mpf(2) ** (-precision_bits // 2):
                guess = Fraction(str(mpmath.re(r))).limit_denominator(10 ** 12)
                if poly.eval_scalar(guess) == 0 and guess != 0:
                    if guess not in roots:
                        roots.append(guess)
                    continue
            roots.append(r)
    else:
        with mpmath.workprec(precision_bits):
            approx = mpmath.polyroots(
                [_to_num(c) for c in reversed(chi)],
                maxsteps=200, extraprec=precision_bits,
            )
        roots = [r for r in approx if _num_abs(r) > 0]
    # collapse duplicates (multiple roots reported separately)
    out: List[object] = []
    for r in roots:
        dup = False
        for s in out:
            if isinstance(r, Fraction) and isinstance(s, Fraction):
                dup = r == s
            else:
                with mpmath.workprec(precision_bits):
                    dup = bool(_num_abs(_to_num(r) - _to_num(s))
                               < mpmath.mpf(2) ** (-precision_bits // 3))
            if dup:
                break
        if not dup:
            out.append(r)
    return out


def _substitute_branch(
    support: SupportDict, mu: Fraction, c_root, exact: bool
) -> SupportDict:
    """Support of P(Z, Z^mu (c + Y)) with the minimal z-exponent subtracted."""
    new: SupportDict = {}
    c_val = c_root if exact else _to_num(c_root)
    powers: List[object] = [1 if exact else mpmath.mpf(1)]
    max_i = max(i for i, _ in support)
    for _ in range(max_i):
        powers.append(powers[-1] * c_val)
    for (i, e), a in support.items():
        for k in range(i + 1):
            coef = a * comb(i, k) * powers[i - k]
            key = (k, e + i * mu)
            if key in new:
                new[key] = new[key] + coef
            else:
                new[key] = coef
    new = {k: v for k, v in new.items() if (v != 0 if exact else _num_abs(v) > 0)}
    if not new:
        return new
    shift = min(e for _, e in new)
    return {(i, e - shift): v for (i, e), v in new.items()}


def _expand_support(
    support: SupportDict,
    exact: bool,
    terms_left: int,
    precision_bits: int,
    acc: List[Tuple[object, Fraction]],
    base: Fraction,
    results: List[Tuple[List[Tuple[object, Fraction]], bool]],
):
    threshold = mpmath.mpf(2) ** (-(precision_bits // 2))
    support = _clean_support(support, exact, threshold)
    if not support:
        # previous substitution solved the polynomial identically
        results.append((list(acc), True))
        return
    recorded_here = False
    i_min = min(i for i, _ in support)
    if i_min > 0:
        # Y^i_min factors out: the accumulated terms are an exact branch
        results.append((list(acc), True))
        recorded_here = True
        support = {(i - i_min, e): v for (i, e), v in support.items()}
        support = _clean_support(support, exact, threshold)
        if all(i == 0 for i, _ in support):
            return
    if all(i == 0 for i, _ in support):
        raise DegenerateBranch(
            "no Y-dependence left: the polynomial has a Y-independent factor"
        )
    if (0, Fraction(0)) in support:
        if not acc and not recorded_here:
            raise DegenerateBranch(
                "polynomial does not vanish at the origin; shift it first"
            )
        # no further branch passes through the origin of this node
        return
    if terms_left == 0:
        results.append((list(acc), False))
        return
    hull = _lower_hull(list(support.keys()))
    found_edge = False
    for (i1, e1), (i2, e2) in zip(hull, hull[1:]):
        if e1 <= e2:
            continue  # only strictly falling edges give y -> 0 branches
        found_edge = True
        mu = Fraction(e1 - e2, i2 - i1)
        chi: List[object] = [0] * (i2 - i1 + 1)
        for (i, e), a in support.items():
            # on the edge: e = e1 - mu (i - i1)
            if i1 <= i <= i2 and e == e1 - mu * (i - i1):
                chi[i - i1] = chi[i - i1] + a
        for c_root in _edge_roots(chi, exact, precision_bits):
            branch_exact = exact and isinstance(c_root, Fraction)
            if exact and not branch_exact:
                with mpmath.workprec(precision_bits):
                    sub_support = {k: _to_num(v) for k, v in support.items()}
            else:
                sub_support = support
            with mpmath.workprec(precision_bits):
                new_support = _substitute_branch(
                    sub_support, mu, c_root, branch_exact
                )
                _expand_support(
                    new_support, branch_exact, terms_left - 1, precision_bits,
                    acc + [(c_root, base + mu)], base + mu, results,
                )
    if not found_edge:
        raise DegenerateBranch("no admissible Newton-polygon slope at this node")


def newton_polygon_expand(
    P, max_terms: int = 3, precision_bits: int = DEFAULT_PRECISION_BITS,
    center: Optional[Number] = None,
) -> List[PuiseuxExpansion]:
    """All Puiseux branches y(Z) with y(0) = 0 of a bivariate polynomial.

    ``P`` is either a UniPoly in Y whose coefficients are UniPoly in Z, or a
    dict {(y_degree, z_degree): coefficient}.  Exact rational coefficients
    keep exponents and rational branch coefficients exact; irrational branch
    coefficients continue in mpmath arithmetic at ``precision_bits``.  Every
    returned expansion is verified by back-substitution.
    """
    support, exact = _as_support(P)
    if not support:
        raise ValueError("zero polynomial has no Puiseux branches")
    results: List[Tuple[List[Tuple[object, Fraction]], bool]] = []
    _expand_support(support, exact, max_terms, precision_bits, [], Fraction(0), results)
    expansions = []
    for terms, is_exact in results:
        denoms = [e.denominator for _, e in terms] or [1]
        ram = 1
        for d in denoms:
            ram = lcm(ram, d)
        exp = PuiseuxExpansion(
            center=center,
            terms=tuple((c, e) for c, e in terms),
            ramification=ram,
            exact=is_exact and all(isinstance(c, (int, Fraction))
                                   for c, _ in terms),
        )
        _verify_expansion(support, exact, exp, precision_bits)
        expansions.append(exp)
    return expansions


def _verify_expansion(
    support: SupportDict, exact: bool, exp: PuiseuxExpansion, bits: int
) -> None:
    """Back-substitute the branch; residual must start above the last exponent."""
    if not exp.terms:
        return
    with mpmath.workprec(bits):
        # represent y(Z) as {exponent: coeff} and P(Z, y) as the same
        y: Dict[Fraction, object] = {}
        for c, e in exp.terms:
            y[e] = y.get(e, 0) + c
        last = exp.terms[-1][1]
        residual: Dict[Fraction, object] = {}
        for (i, e), a in support.items():
            # expand a * y^i * Z^e, truncating exponents beyond last + 1
            acc: Dict[Fraction, object] = {Fraction(0): a}
            for _ in range(i):
                nxt: Dict[Fraction, object] = {}
                for e1, c1 in acc.items():
                    for e2, c2 in y.items():
                        ee = e1 + e2
                        if ee > last * (max(i for i, _ in support) + 1) + 1:
                            continue
                        nxt[ee] = nxt.get(ee, 0) + c1 * c2
                acc = nxt
            for e1, c1 in acc.items():
                residual[e1 + e] = residual.get(e1 + e, 0) + c1
        if exact and exp.exact:
            bad = {e: c for e, c in residual.items() if c != 0 and e <= last}
        else:
            vals = [_num_abs(c) for c in residual.values()]
            top = max(vals) if vals else mpmath.mpf(1)
            top = max(top, mpmath.mpf(1))
            tolerance = top * mpmath.mpf(2) ** (-(bits // 3))
            bad = {
                e: c for e, c in residual.items()
                if e <= last and _num_abs(c) > tolerance
            }
        if bad:
            raise PrecisionExhausted(
                "Puiseux branch failed its back-substitution self-check "
                "(surviving exponents: %s)" % sorted(bad)
            )


# ---------------------------------------------------------------------------
# Dominant exponent
# ---------------------------------------------------------------------------

def _shifted_cancelling_support(
    c_sf: UniPoly, s_point: Fraction, rho_point: Fraction
) -> Dict[Tuple[int, int], Fraction]:
    """Exact support of C(rho - Z, s* - Y) for the squarefree cancelling poly."""
    out: Dict[Tuple[int, int], Fraction] = {}
    for k, qk in enumerate(c_sf.coeffs):
        # qk(z) is z-linear at most: qk(rho - Z) = qk(rho) - qk'(rho) Z ...
        sub = [qk.eval_scalar(rho_point)]
        work = qk
        fact = 1
        j = 1
        while work.degree() >= 1:
            work = work.derivative()
            fact *= j
            sub.append(Fraction(-1) ** j * work.eval_scalar(rho_point) / fact)
            j += 1
        # (s* - Y)^k
        for a in range(k + 1):
            coef_y = comb(k, a) * s_point ** (k - a) * Fraction(-1) ** a
            for zdeg, cz in enumerate(sub):
                if cz == 0 or coef_y == 0:
                    continue
                key = (a, zdeg)
                out[key] = out.get(key, Fraction(0)) + coef_y * cz
    return {k: v for k, v in out.items() if v != 0}


def dominant_expansions(
    params: IsingParams,
    max_terms: int = 3,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> Tuple[SingularityReport, List[PuiseuxExpansion]]:
    """Puiseux branches of the cancelling polynomial at the dominant singularity.

    At exact endpoint singularities the branches are exact; otherwise the
    critical point is refined to width 2^(-3 bits/4), placed exactly on the
    curve at the refined midpoint, and expanded numerically at the working
    precision.  The report carries the exact exponent.
    """
    report = radius_numeric(params, scan_uniqueness=False)
    cp = critical_point(params)
    if report.exact:
        support = _shifted_cancelling_support(cp.cancelling_sf, report.s_at_rho,
                                              report.rho)
        return report, newton_polygon_expand(
            support, max_terms=max_terms, precision_bits=precision_bits, center=report.rho
        )
    lo, hi = cp.refine(*report.s_interval, Fraction(1, 2 ** (3 * precision_bits // 4)))
    s0 = (lo + hi) / 2
    rho0 = cp.z_at(s0)
    support = _shifted_cancelling_support(cp.cancelling_sf, s0, rho0)
    with mpmath.workprec(precision_bits):
        num_support = {k: to_mpf(v) for k, v in support.items()}
        return report, newton_polygon_expand(
            num_support, max_terms=max_terms, precision_bits=precision_bits,
            center=to_mpf(rho0),
        )
