"""Singularity analysis for the map partition-function series.

Everything here works at an exact rational parameter point (nu, c).  The
radius of convergence rho of the z-series is located through the critical
point of the defining equation z = S N(S)/D(S)^2: the value s* = S(rho) is
a root of the characteristic polynomial ``char``, the numerator of z'(s)
for z(s) in lowest terms with its poles stripped, and in the validated
parameter region it is the unique root of ``char`` in (0, B],
B = 1/(3 c^2 |1 - nu^2|) (a Cauchy root bound at nu = 1).  The exact data
of that critical point are computed once per (nu, c), from one evaluation
of N and D, and cached as a CriticalPoint: z(s) in lowest terms, ``char``,
B, an interval isolating s* (one Sturm count, sign bisection), and the
squarefree cancelling polynomial.  rho is recovered by evaluating z(s) at
s*, with certified interval arithmetic; mu = c * rho.

The dominant singular exponent of S is exact: it is 1/(m + 1), where m is
the multiplicity of s* as a root of z'(s), so 1/2 generically and 1/3 where
two saddles coalesce, at (nu, c) = (4, 1).  Newton-polygon Puiseux
expansions of the cancelling polynomial z D(S)^2 - S N(S) shifted to
(rho, s*) give the branches themselves.  Its discriminant in z, which carries
the other candidate singularities, is interpolated from univariate
discriminants at integer z.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Dict, List, Optional, Tuple, Union

import mpmath

from .errors import DegenerateBranch, NoRootInRange, PrecisionExhausted
from .exactalg import (
    SturmChain,
    UniPoly,
    bisect_isolated_root,
    cauchy_root_bound,
    discriminant,
    interpolate,
    poly_gcd,
    rational_sqrt,
    squarefree_part,
)
from .precision import default_precision_bits, to_mpf
from .series import IsingParams, lagrangian_numer_denom

VALIDATED_C_HALF_WIDTH = Fraction(1, 4)

Number = Union[Fraction, mpmath.mpf]


def characteristic_root_polynomial(params: IsingParams) -> UniPoly:
    """Numerator of z'(s) for the reduced defining function, poles stripped.

    This is ``critical_point(params).char`` (see :func:`critical_point`), so
    it raises NoRootInRange where the polynomial does not have exactly one
    root in the search interval (0, B].
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
    s_n, d_sq, _ = _lagrangian_parts(params)
    return _z_linear(d_sq, s_n)


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
    NoRootInRange where the characteristic polynomial does not have exactly
    one root in the search interval.
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

def rho_closed_form(nu, precision_bits: Optional[int] = None) -> Number:
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
    bits = precision_bits or default_precision_bits()
    with mpmath.workprec(bits):
        r = mpmath.sqrt(to_mpf(nu))
        return 2 * (1 + 2 * r) / (9 * (1 + r) ** 2 * to_mpf((1 + nu) ** 2))


def s_at_rho_closed_form(nu, precision_bits: Optional[int] = None) -> Number:
    """Value of the algebraic series S at its radius, at c = 1."""
    nu = Fraction(nu)
    if nu <= 0:
        raise ValueError("nu must be positive")
    if nu >= 4:
        return Fraction(1, 3) / (nu ** 2 - 1)
    root = rational_sqrt(nu)
    if root is not None:
        return Fraction(1, 3) / ((root + 1) * (nu + 1))
    bits = precision_bits or default_precision_bits()
    with mpmath.workprec(bits):
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
    requested.
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
    """Crude sup bound for |p| on [0, b], given scale = max(b, 1)."""
    return sum((abs(c) * scale ** k for k, c in enumerate(p.coeffs)), Fraction(0))


def _lagrangian_parts(params: IsingParams) -> Tuple[UniPoly, UniPoly, UniPoly]:
    """S N(S), D(S)^2 and their monic gcd in Q[S]."""
    n_poly, d_poly = lagrangian_numer_denom(params, symbolic=False)
    s_n = UniPoly.variable() * n_poly
    d_sq = d_poly * d_poly
    return s_n, d_sq, poly_gcd(s_n, d_sq)


@dataclass(frozen=True)
class CriticalPoint:
    """The exact critical point s* of z(s) at one parameter point (nu, c).

    Built once per (nu, c) by :func:`critical_point`; the certified radius,
    the uniqueness scan, the dominant exponent and the Puiseux expansions
    all read it.  ``num / den`` is z(s) in lowest terms and ``char`` the
    squarefree numerator of z'(s) with its poles stripped, whose one root
    in the search interval (0, B] is s*, as one Sturm count certifies.
    ``bound`` is B: 1/(3 c^2 |1 - nu^2|), or the Cauchy root bound of
    ``char`` at nu = 1.  ``interval`` = (lo, hi] isolates s* to width
    B / 2^20, or is (s*, s*) when s* = B.  ``cancelling_sf`` is the
    squarefree cancelling polynomial.
    """

    num: UniPoly
    den: UniPoly
    char: UniPoly
    bound: Fraction
    interval: Tuple[Fraction, Fraction]
    cancelling_sf: UniPoly

    def z_at(self, s: Fraction) -> Fraction:
        return self.num.eval_scalar(s) / self.den.eval_scalar(s)

    def refine(self, lo: Fraction, hi: Fraction, width: Fraction) -> Tuple[Fraction, Fraction]:
        """Shrink (lo, hi], a piece of ``interval`` that holds s*, below width.

        On ``interval``, char has the sign of its value at the top end
        exactly at the points above s*.  That sign test certifies the piece
        and drives the bisection; no Sturm count is needed.
        """
        a, b = self.interval
        top = self.char.eval_scalar(b)
        if not (a <= lo < hi <= b and self.char.eval_scalar(hi) * top > 0
                and (lo == a or self.char.eval_scalar(lo) * top < 0)):
            raise ValueError("(%s, %s] does not hold the critical point" % (lo, hi))
        return bisect_isolated_root(self.char, lo, hi, width)

    def exponent(self) -> Fraction:
        """The branch exponent 1/(m + 1) of S at s*.

        m is the multiplicity of s* as a root of dz = num' den - num den',
        the number of successive derivatives of dz that vanish there.
        den(s*) != 0, so z - rho ~ a (s - s*)^(m + 1) with a != 0.  On an
        exact hit a polynomial q vanishes at s* iff q(s*) = 0; otherwise iff
        gcd(q, char) changes sign over ``interval``, which holds no other
        root of char and none at either end.
        """
        lo, hi = self.interval

        def vanishes(q: UniPoly) -> bool:
            if lo == hi:
                return q.eval_scalar(lo) == 0
            g = poly_gcd(q, self.char)
            return g.degree() >= 1 and g.eval_scalar(lo) * g.eval_scalar(hi) < 0

        q = self.num.derivative() * self.den - self.num * self.den.derivative()
        m = 0
        while vanishes(q):
            m += 1
            q = q.derivative()
        return Fraction(1, m + 1)


def critical_point(params: IsingParams) -> CriticalPoint:
    """The CriticalPoint of (params.nu, params.c), computed once and cached.

    Raises NoRootInRange unless the characteristic polynomial has exactly
    one root in (0, B] (see :class:`CriticalPoint`).
    """
    return _critical_point(params.nu, params.c)


@lru_cache(maxsize=512)
def _critical_point(nu: Fraction, c: Fraction) -> CriticalPoint:
    s_n, d_sq, g = _lagrangian_parts(IsingParams(nu=nu, c=c))
    # z(s) in lowest terms: at c = 1 for nu >= 4, s* is a root of D and the
    # unreduced s N(S)/D(S)^2 is a 0/0 there
    num, den = (s_n.exact_div(g), d_sq.exact_div(g)) if g.degree() > 0 else (s_n, d_sq)
    # Removing every factor the numerator of z' shares with den discards
    # the spurious pole-located roots D would contribute (at c = 1 they sit
    # at the end of the search interval for nu on one side of 1), while the
    # genuine critical point survives: for nu >= 4 it is the cancelled
    # factor's location, a root of the reduced numerator's derivative.
    char = num.derivative() * den - num * den.derivative()
    common = poly_gcd(char, den)
    while common.degree() >= 1:
        char = char.exact_div(common)
        common = poly_gcd(char, den)
    char = squarefree_part(char)
    bound = cauchy_root_bound(char) if nu == 1 else \
        Fraction(1, 3) / (c ** 2 * abs(1 - nu ** 2))
    count = SturmChain(char).count(Fraction(0), bound)
    # At c = 1 with nu between 1 and 4 the end of the search interval is
    # itself a critical point, but of a further sheet (its z-value lies below
    # the radius); it is only the dominant point when it is the *sole* root.
    if count > 1 and char.eval_scalar(bound) == 0:
        char = char.exact_div(UniPoly([-bound, Fraction(1)]))
        count = SturmChain(char).count(Fraction(0), bound)
    if count != 1:
        raise NoRootInRange(
            "expected exactly one characteristic root in (0, %s], found %d"
            % (bound, count)
        )
    if char.eval_scalar(bound) == 0:
        interval = (bound, bound)
    else:
        interval = bisect_isolated_root(char, Fraction(0), bound, bound / 2 ** 20)
    # squarefree cancelling polynomial: divide g (z B - A) by gcd(g, g'),
    # scaled to 1 at S = 0 (D(0) = 1, so S does not divide it)
    h = poly_gcd(g, g.derivative())
    if h.degree() >= 1:
        h = h.scale(1 / h.coeff(0))
        s_n, d_sq = s_n.exact_div(h), d_sq.exact_div(h)
    return CriticalPoint(num=num, den=den, char=char, bound=bound,
                         interval=interval, cancelling_sf=_z_linear(d_sq, s_n))


def _certify_rho(
    cp: CriticalPoint, tol: Fraction
) -> Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction], bool]:
    """From the isolating interval for s*, certify an interval for rho.

    Sign bisection as in :meth:`CriticalPoint.refine`, one step at a time
    until the Lipschitz enclosure of z over the interval is within ``tol``.
    Returns (s_interval, rho_interval, exact).
    """
    lo, hi = cp.interval
    if lo == hi:
        z_exact = cp.z_at(lo)
        return (lo, hi), (z_exact, z_exact), True
    num_d = cp.num.derivative()
    den_d = cp.den.derivative()
    up = cp.char.eval_scalar(hi) > 0  # the sign of char just above s*
    num_lo, den_lo = cp.num.eval_scalar(lo), cp.den.eval_scalar(lo)
    num_hi, den_hi = cp.num.eval_scalar(hi), cp.den.eval_scalar(hi)
    bounds_scale = None
    while True:
        if den_lo > 0 and den_hi > 0:
            # the sup bounds on [0, hi] depend on hi only through max(hi, 1)
            scale = max(hi, Fraction(1))
            if scale != bounds_scale:
                bounds_scale = scale
                sup_num_d = _poly_abs_bound(num_d, scale)
                sup_num_den_d = (_poly_abs_bound(cp.num, scale)
                                 * _poly_abs_bound(den_d, scale))
            width = hi - lo
            den_min = min(den_lo, den_hi)  # D^2 is decreasing on [0, s_D)
            lip = sup_num_d / den_min + sup_num_den_d / den_min ** 2
            lower = max(num_lo / den_lo, num_hi / den_hi)
            upper = lower + lip * width
            if upper - lower <= tol:
                return (lo, hi), (lower, upper), False
        mid = (lo + hi) / 2
        side = cp.char.eval_scalar(mid)
        if side == 0:
            z_exact = cp.z_at(mid)
            return (mid, mid), (z_exact, z_exact), True
        if (side > 0) == up:
            hi, num_hi, den_hi = mid, cp.num.eval_scalar(mid), cp.den.eval_scalar(mid)
        else:
            lo, num_lo, den_lo = mid, cp.num.eval_scalar(mid), cp.den.eval_scalar(mid)


def _uniqueness_scan(
    params: IsingParams, rho_mid: Fraction, warnings: List[str]
) -> bool:
    """Heuristic check that no other discriminant root shares the modulus of rho.

    Roots strictly inside the disc belong to other sheets of the curve and
    are fine; a root at distance < 1e-6 in modulus (other than rho itself)
    leaves uniqueness unconfirmed.
    """
    disc = discriminant_in_z(params)
    if disc.degree() < 1:
        warnings.append("uniqueness scan skipped: constant discriminant")
        return False
    sf = squarefree_part(disc)
    with mpmath.workprec(128):
        gap = mpmath.mpf(10) ** -6
        coeffs = [to_mpf(c) for c in reversed(sf.coeffs)]
        try:
            roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=120)
        except mpmath.mp.NoConvergence as exc:
            warnings.append("uniqueness scan skipped: root solve failed (%s)" % exc)
            return False
        rho_x = to_mpf(rho_mid)
        for r in roots:
            if abs(r - rho_x) < gap:
                continue
            if abs(abs(r) - rho_x) < gap:
                warnings.append(
                    "another branch point has modulus within 1e-6 of rho; "
                    "dominant-singularity uniqueness not confirmed"
                )
                return False
    return True


def _far_field_warnings(params: IsingParams, allow_far_field: bool) -> List[str]:
    """Guard the validated region |c - 1| <= 1/4.

    Outside it, raise ValueError unless ``allow_far_field``, in which case
    the returned list carries a warning; inside it the list is empty.
    """
    if abs(params.c - 1) <= VALIDATED_C_HALF_WIDTH:
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

    s* is the unique root of the characteristic polynomial in (0, B],
    B = 1/(3 c^2 |1 - nu^2|) (Cauchy bound at nu = 1), isolated by one
    Sturm count and refined by sign bisection (see :class:`CriticalPoint`);
    rho is the reduced rational function z(s) evaluated there, with an
    interval enclosure of width <= tol.  Points with |c - 1| > 1/4 are
    outside the validated region and require ``allow_far_field=True``,
    which records a warning instead.
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
    unique = _uniqueness_scan(params, rho_mid, warnings) if scan_uniqueness else False
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
    P, max_terms: int = 3, precision_bits: Optional[int] = None,
    center: Optional[Number] = None,
) -> List[PuiseuxExpansion]:
    """All Puiseux branches y(Z) with y(0) = 0 of a bivariate polynomial.

    ``P`` is either a UniPoly in Y whose coefficients are UniPoly in Z, or a
    dict {(y_degree, z_degree): coefficient}.  Exact rational coefficients
    keep exponents and rational branch coefficients exact; irrational branch
    coefficients continue in mpmath arithmetic at ``precision_bits``.  Every
    returned expansion is verified by back-substitution.
    """
    bits = precision_bits or default_precision_bits()
    support, exact = _as_support(P)
    if not support:
        raise ValueError("zero polynomial has no Puiseux branches")
    results: List[Tuple[List[Tuple[object, Fraction]], bool]] = []
    _expand_support(support, exact, max_terms, bits, [], Fraction(0), results)
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
        _verify_expansion(support, exact, exp, bits)
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


def dominant_exponent(params: IsingParams) -> Fraction:
    """The singular exponent of S at its radius: 1/2 generically, 1/3 at (4,1).

    Points outside the validated region raise ValueError, as in
    :func:`radius_numeric`.
    """
    _far_field_warnings(params, allow_far_field=False)
    return critical_point(params).exponent()


def dominant_expansions(
    params: IsingParams,
    max_terms: int = 3,
    precision_bits: Optional[int] = None,
) -> Tuple[SingularityReport, List[PuiseuxExpansion]]:
    """Puiseux branches of the cancelling polynomial at the dominant singularity.

    At exact endpoint singularities the branches are exact; otherwise the
    critical point is refined to width 2^(-3 bits/4), placed exactly on the
    curve at the refined midpoint, and expanded numerically at the working
    precision.  The report carries the exact exponent.
    """
    report = radius_numeric(params, scan_uniqueness=False)
    bits = precision_bits or params.precision_bits or default_precision_bits()
    cp = critical_point(params)
    if report.exact:
        support = _shifted_cancelling_support(cp.cancelling_sf, report.s_at_rho,
                                              report.rho)
        return report, newton_polygon_expand(
            support, max_terms=max_terms, precision_bits=bits, center=report.rho
        )
    lo, hi = cp.refine(*report.s_interval, Fraction(1, 2 ** (3 * bits // 4)))
    s0 = (lo + hi) / 2
    rho0 = cp.z_at(s0)
    support = _shifted_cancelling_support(cp.cancelling_sf, s0, rho0)
    with mpmath.workprec(bits):
        num_support = {k: to_mpf(v) for k, v in support.items()}
        return report, newton_polygon_expand(
            num_support, max_terms=max_terms, precision_bits=bits,
            center=to_mpf(rho0),
        )
