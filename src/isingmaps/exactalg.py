"""Exact scalar and polynomial algebra.

This module supplies the arithmetic backbone used everywhere else:

* ``ParamPoly`` -- sparse polynomials in the vertex weight ``nu`` that are
  Laurent polynomials in the magnetic weight ``c``, with integer
  coefficients kept as ``int`` and a Fraction only where a quotient is not
  integral;
* ``UniPoly`` -- dense univariate polynomials over Q (other coefficients
  are held as data only);
* gcds, resultants and discriminants along one Euclidean remainder
  sequence over Q (no modular arithmetic);
* exact polynomial interpolation (Newton divided differences);
* Sturm sequences and certified real-root isolation over the rationals,
  with sign bisection to refine an isolated simple root.

Sign conventions (fixed by the test suite):

* ``resultant(p, q) = lc(q)^deg(p) * prod p(beta_i)`` over the roots of q,
  so ``resultant(x - a, x - b) = b - a``;
* ``discriminant(p) = (-1)^(d(d-1)/2) * resultant(p, p') / lc(p)``;
* ``sturm_count(p, a, b)`` counts distinct real roots in the half-open
  interval ``(a, b]``.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence

import mpmath

from .errors import DegenerateInterval, NonZeroRemainder

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rational_sqrt(x: Fraction):
    """Exact square root of a rational, or None when irrational/negative."""
    x = Fraction(x)
    if x < 0:
        return None
    rn = isqrt(x.numerator)
    rd = isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def _fmt_coeff(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def _q(x):
    """A ParamPoly coefficient: ``x`` as an ``int`` when it is integral, else
    as a Fraction.  Never a float: ``int / int`` must not reach the ring."""
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise TypeError("float coefficient %r in an exact ring" % x)
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


# ---------------------------------------------------------------------------
# ParamPoly: sparse in nu, Laurent in c
# ---------------------------------------------------------------------------

class ParamPoly:
    """Sparse element of Q[nu, c, c^-1], kept in Z[nu, c, c^-1] when it can be.

    ``terms`` maps ``(deg_nu, deg_c)`` to a nonzero coefficient: an ``int``
    when it is integral, a Fraction only when it is not (see :func:`_q`).
    ``deg_nu >= 0`` while ``deg_c`` may be negative.  Instances are treated
    as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict = {}
        if terms:
            for (dv, dc), coef in terms.items():
                coef = _q(coef)
                if coef:
                    key = (int(dv), int(dc))
                    prev = clean.get(key)
                    if prev is None:
                        clean[key] = coef
                    else:
                        tot = _q(prev + coef)
                        if tot:
                            clean[key] = tot
                        else:
                            del clean[key]
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value) -> "ParamPoly":
        return cls({(0, 0): _q(value)})

    @classmethod
    def monomial(cls, coef, deg_nu: int = 0, deg_c: int = 0) -> "ParamPoly":
        return cls({(deg_nu, deg_c): _q(coef)})

    @classmethod
    def nu(cls) -> "ParamPoly":
        return cls({(1, 0): 1})

    @classmethod
    def c(cls) -> "ParamPoly":
        return cls({(0, 1): 1})

    # -- predicates / structure --------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, ParamPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == ParamPoly.constant(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def c_degree_range(self):
        """(min, max) c-exponent over the support, or None for zero."""
        if not self.terms:
            return None
        degs = [dc for _, dc in self.terms]
        return (min(degs), max(degs))

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self) -> "ParamPoly":
        out = ParamPoly()
        out.terms = {k: -v for k, v in self.terms.items()}
        return out

    def __add__(self, other) -> "ParamPoly":
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.constant(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        res = dict(self.terms)
        for k, v in other.terms.items():
            prev = res.get(k)
            if prev is None:
                res[k] = v
            else:
                tot = prev + v
                if tot:
                    if type(tot) is not int and tot.denominator == 1:
                        tot = tot.numerator
                    res[k] = tot
                else:
                    del res[k]
        out = ParamPoly()
        out.terms = res
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "ParamPoly":
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.constant(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ParamPoly":
        return (-self) + other

    def __mul__(self, other) -> "ParamPoly":
        if isinstance(other, (int, Fraction)):
            q = _q(other)
            if not q:
                return ParamPoly()
            out = ParamPoly()
            out.terms = {k: _q(v * q) for k, v in self.terms.items()}
            return out
        if not isinstance(other, ParamPoly):
            return NotImplemented
        res: dict = {}
        for (a1, b1), v1 in self.terms.items():
            for (a2, b2), v2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                prod = v1 * v2
                prev = res.get(key)
                if prev is None:
                    res[key] = prod
                else:
                    tot = prev + prod
                    if tot:
                        res[key] = tot
                    else:
                        del res[key]
        for key, v in res.items():
            if type(v) is not int and v.denominator == 1:
                res[key] = v.numerator
        out = ParamPoly()
        out.terms = res
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ParamPoly":
        if k < 0:
            # Only monomials without nu-content are invertible in Q[nu, c, 1/c].
            if len(self.terms) == 1:
                ((dv, dc), coef), = self.terms.items()
                if dv == 0:
                    # Fraction, not int: int ** -k is a float.
                    return ParamPoly({(0, dc * k): Fraction(coef) ** k})
            raise ValueError("negative power of a non-invertible ParamPoly")
        result = ParamPoly.constant(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- calculus / substitutions ------------------------------------------

    def c_log_derivative(self) -> "ParamPoly":
        """Apply the Euler operator c * d/dc (degree-preserving)."""
        out = ParamPoly()
        out.terms = {k: _q(v * k[1]) for k, v in self.terms.items() if k[1]}
        return out

    def substitute_neg_nu(self) -> "ParamPoly":
        """Replace nu by -nu."""
        out = ParamPoly()
        out.terms = {k: (-v if k[0] % 2 else v) for k, v in self.terms.items()}
        return out

    def shift_c(self, k: int) -> "ParamPoly":
        """Multiply by the monomial c^k (Laurent shift)."""
        out = ParamPoly()
        out.terms = {(dv, dc + k): v for (dv, dc), v in self.terms.items()}
        return out

    def evaluate(self, nu, c):
        """Evaluate at a point.  Accepts Fractions (exact result) or mpmath
        floats (result at the ambient precision)."""
        exact = isinstance(nu, (int, Fraction)) and isinstance(c, (int, Fraction))
        if exact:
            # Fractions, so that c ** -k stays exact for an int c.
            nu, c = Fraction(nu), Fraction(c)
        total = _ZERO if exact else mpmath.mpf(0)
        for (dv, dc), coef in self.terms.items():
            term = (nu ** dv) * (c ** dc)
            if exact:
                total += coef * term
            else:
                total += term * coef.numerator / coef.denominator
        return total

    def exact_div(self, divisor: "ParamPoly") -> "ParamPoly":
        """Exact division; raises NonZeroRemainder when not divisible.

        Monomials are ordered lexicographically by (deg_nu, deg_c); a leading
        term that the divisor's leading term cannot divide ends the division
        with an error.  Termination is guarded for Laurent inputs.
        """
        if isinstance(divisor, (int, Fraction)):
            divisor = ParamPoly.constant(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero ParamPoly")
        lead_key = max(divisor.terms)
        lead_coef = divisor.terms[lead_key]
        rem = dict(self.terms)
        quo: dict = {}
        guard = 4 * (len(self.terms) + 1) * (len(divisor.terms) + 1) + 64
        steps = 0
        while rem:
            steps += 1
            if steps > guard * (len(quo) + 1):
                raise NonZeroRemainder("division did not terminate; remainder nonzero")
            rk = max(rem)
            if rk[0] < lead_key[0]:
                raise NonZeroRemainder("leading term not divisible")
            qk = (rk[0] - lead_key[0], rk[1] - lead_key[1])
            qc = _q(Fraction(rem[rk]) / lead_coef)
            quo[qk] = quo.get(qk, 0) + qc
            for dk, dv in divisor.terms.items():
                key = (qk[0] + dk[0], qk[1] + dk[1])
                prev = rem.get(key, 0)
                tot = prev - qc * dv
                if tot:
                    rem[key] = tot
                elif key in rem:
                    del rem[key]
        out = ParamPoly()
        out.terms = {k: _q(v) for k, v in quo.items() if v}
        return out

    # -- formatting ---------------------------------------------------------

    def to_str(self, nu_name: str = "nu", c_name: str = "c") -> str:
        if not self.terms:
            return "0"
        pieces = []
        for (dv, dc) in sorted(self.terms, reverse=True):
            coef = self.terms[(dv, dc)]
            parts = []
            if dv:
                parts.append(nu_name if dv == 1 else "%s^%d" % (nu_name, dv))
            if dc:
                parts.append(c_name if dc == 1 else "%s^%d" % (c_name, dc))
            mag = abs(coef)
            if not parts:
                body = _fmt_coeff(mag)
            elif mag == 1:
                body = "*".join(parts)
            else:
                body = "*".join([_fmt_coeff(mag)] + parts)
            pieces.append(("- " if coef < 0 else "+ ") + body)
        head = pieces[0]
        head = "-" + head[2:] if head.startswith("- ") else head[2:]
        return " ".join([head] + pieces[1:])

    def __repr__(self):
        return "ParamPoly(%s)" % self.to_str()


PP_ZERO = ParamPoly()
PP_ONE = ParamPoly.constant(1)


# ---------------------------------------------------------------------------
# Coefficient helpers
# ---------------------------------------------------------------------------

def ring_exact_div(a, b):
    """Exact quotient of two rationals (``int / int`` gives a Fraction, never
    a float) or of two ParamPoly; raises NonZeroRemainder when a ParamPoly
    quotient does not exist."""
    if isinstance(a, ParamPoly) or isinstance(b, ParamPoly):
        if not isinstance(a, ParamPoly):
            a = ParamPoly.constant(a)
        if not isinstance(b, ParamPoly):
            b = ParamPoly.constant(b)
        return a.exact_div(b)
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


# ---------------------------------------------------------------------------
# UniPoly: dense univariate over Q
# ---------------------------------------------------------------------------

class UniPoly:
    """Dense univariate polynomial over Q; index equals degree.

    Arithmetic, division, gcd, resultants and root finding take rational
    coefficients (``int`` or Fraction).  A UniPoly may also hold other
    objects as data only: ParamPoly coefficients (the symbolic N and D of
    :func:`~isingmaps.series.lagrangian_numer_denom`) or UniPoly
    coefficients in z (the cancelling polynomial in S over Q[z]).  Such
    holders are built, read through :meth:`coeff`, :meth:`lc`,
    :meth:`degree` and ``==``, and evaluated coefficient by coefficient.
    ``zero`` is what :meth:`coeff` returns past the degree.
    """

    __slots__ = ("coeffs", "zero")

    def __init__(self, coeffs: Sequence = (), zero=_ZERO):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = cs
        self.zero = zero

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_roots(cls, roots: Iterable[Fraction]) -> "UniPoly":
        p = cls([_ONE])
        for r in roots:
            p = p * cls([-Fraction(r), _ONE])
        return p

    @classmethod
    def variable(cls) -> "UniPoly":
        return cls([_ZERO, _ONE])

    # -- structure ----------------------------------------------------------

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def lc(self):
        if not self.coeffs:
            return self.zero
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.zero

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs], zero=self.zero)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self.coeff(i) + other.coeff(i) for i in range(n)], zero=self.zero)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self.coeff(i) - other.coeff(i) for i in range(n)], zero=self.zero)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return UniPoly([], zero=self.zero)
        out = [self.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out, zero=self.zero)

    def scale(self, factor) -> "UniPoly":
        """Multiply by a rational scalar."""
        if not factor:
            return UniPoly([], zero=self.zero)
        return UniPoly([c * factor for c in self.coeffs], zero=self.zero)

    def derivative(self) -> "UniPoly":
        out = [c * i for i, c in enumerate(self.coeffs[1:], start=1)]
        return UniPoly(out, zero=self.zero)

    def eval_scalar(self, x):
        """Horner evaluation when coefficients are plain scalars."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def exact_div(self, divisor) -> "UniPoly":
        """Exact division by a UniPoly or a rational scalar."""
        if not isinstance(divisor, UniPoly):
            return UniPoly([ring_exact_div(c, divisor) for c in self.coeffs], zero=self.zero)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return UniPoly([], zero=self.zero)
        rem = list(self.coeffs)
        dd = divisor.degree()
        dlc = divisor.lc()
        if len(rem) - 1 < dd:
            raise NonZeroRemainder("degree of dividend below divisor")
        qdeg = len(rem) - 1 - dd
        quo = [self.zero] * (qdeg + 1)
        for k in range(qdeg, -1, -1):
            top = rem[k + dd]
            if not top:
                continue
            q = ring_exact_div(top, dlc)
            quo[k] = q
            for j, dc in enumerate(divisor.coeffs):
                rem[k + j] = rem[k + j] - q * dc
        if any(rem):
            raise NonZeroRemainder("polynomial division left a remainder")
        return UniPoly(quo, zero=self.zero)

    def __repr__(self):
        return "UniPoly(%r)" % (self.coeffs,)


# ---------------------------------------------------------------------------
# Euclidean remainder sequence over Q (gcd, squarefree part, resultant,
# discriminant) and interpolation
# ---------------------------------------------------------------------------

def _remainder(f: UniPoly, g: UniPoly) -> UniPoly:
    """f mod g over Q."""
    dd = g.degree()
    if dd < 0:
        raise ZeroDivisionError("remainder by the zero polynomial")
    rem = list(f.coeffs)
    glc = g.lc()
    while len(rem) - 1 >= dd:
        if not rem[-1]:
            rem.pop()
            continue
        k = len(rem) - 1 - dd
        q = ring_exact_div(rem[-1], glc)
        for j in range(dd + 1):
            rem[k + j] = rem[k + j] - q * g.coeffs[j]
        rem.pop()
    return UniPoly(rem, zero=f.zero)


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd over Q (the zero polynomial when both are zero)."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, _remainder(a, b)
    if a.is_zero():
        return a
    return a.exact_div(a.lc())


def squarefree_part(p: UniPoly) -> UniPoly:
    """p divided by gcd(p, p'), computed so the division is exact."""
    if p.degree() < 1:
        return p
    g = poly_gcd(p, p.derivative())
    if g.degree() == 0:
        return p
    return p.exact_div(g)


def resultant(f: UniPoly, g: UniPoly):
    """Resultant with the convention res(p, q) = lc(q)^deg(p) * prod p(beta)
    over the roots beta of q.

    Computed along the Euclidean remainder sequence over Q with two
    identities: r = p mod q agrees with p at every root of q, so
    res(p, q) = lc(q)^(deg p - deg r) * res(r, q); and
    res(p, q) = (-1)^(deg p * deg q) * res(q, p).  A constant q ends the
    sequence with res(p, q) = lc(q)^deg(p), a zero remainder with 0.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    acc = _ONE
    while g.degree() > 0:
        r = _remainder(f, g)
        if r.is_zero():
            return _ZERO
        acc = acc * g.lc() ** (f.degree() - r.degree())
        if (r.degree() * g.degree()) % 2:
            acc = -acc
        f, g = g, r
    return acc * g.lc() ** f.degree()


def discriminant(p: UniPoly):
    """(-1)^(d(d-1)/2) * resultant(p, p') / lc(p)."""
    d = p.degree()
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    val = ring_exact_div(resultant(p, p.derivative()), p.lc())
    return -val if (d * (d - 1) // 2) % 2 else val


def interpolate(nodes: Sequence[Fraction], values: Sequence[Fraction]) -> UniPoly:
    """The polynomial of degree < len(nodes) through the points, exactly.

    Newton divided differences, then the Newton form expanded by Horner's
    rule; the nodes must be distinct.
    """
    diffs = [Fraction(v) for v in values]
    for j in range(1, len(nodes)):
        for i in range(len(nodes) - 1, j - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (nodes[i] - nodes[i - j])
    poly = UniPoly(diffs[-1:])
    for i in range(len(nodes) - 2, -1, -1):
        poly = poly * UniPoly([-Fraction(nodes[i]), _ONE]) + UniPoly([diffs[i]])
    return poly


# ---------------------------------------------------------------------------
# Sturm sequences, root counting, isolation
# ---------------------------------------------------------------------------

def _sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


class SturmChain:
    """Sturm chain of a squarefree rational polynomial, with evaluation
    caching kept to the caller."""

    def __init__(self, p: UniPoly):
        if p.degree() < 0:
            raise ValueError("Sturm chain of the zero polynomial")
        seq = [p]
        if p.degree() >= 1:
            seq.append(p.derivative())
            while seq[-1].degree() > 0:
                r = _remainder(seq[-2], seq[-1])
                if r.is_zero():
                    break
                seq.append(-r)
        self.seq = seq

    def variations(self, x: Fraction) -> int:
        signs = []
        for q in self.seq:
            s = _sign(q.eval_scalar(x))
            if s:
                signs.append(s)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def count(self, a: Fraction, b: Fraction) -> int:
        """Distinct real roots in (a, b]."""
        if a >= b:
            raise DegenerateInterval("need a < b for (a, b]")
        return self.variations(a) - self.variations(b)


def sturm_count(p: UniPoly, a, b) -> int:
    """Number of distinct real roots of p in (a, b].

    The polynomial is reduced to its squarefree part first, so multiple
    roots are counted once.
    """
    a = Fraction(a)
    b = Fraction(b)
    if a >= b:
        raise DegenerateInterval("need a < b for (a, b]")
    sf = squarefree_part(p)
    return SturmChain(sf).count(a, b)


def cauchy_root_bound(p: UniPoly) -> Fraction:
    """B with every real root of p strictly inside (-B, B)."""
    if p.degree() < 1:
        return Fraction(1)
    lc = abs(p.lc())
    mx = max((abs(c) for c in p.coeffs[:-1]), default=_ZERO)
    return Fraction(1) + ring_exact_div(mx, lc)


def isolate_real_roots(p: UniPoly):
    """Disjoint half-open rational intervals (a, b], each containing exactly
    one distinct real root of p, in increasing order."""
    if p.degree() < 1:
        return []
    sf = squarefree_part(p)
    chain = SturmChain(sf)
    bound = cauchy_root_bound(sf)
    out = []
    stack = [(-bound, bound)]
    while stack:
        a, b = stack.pop()
        cnt = chain.count(a, b)
        if cnt == 0:
            continue
        if cnt == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        stack.append((a, mid))
        stack.append((mid, b))
    out.sort()
    return out


def refine_isolated_root(p: UniPoly, a, b, width) -> tuple:
    """Shrink an isolating interval (a, b] below ``width``.

    One Sturm count certifies that (a, b] isolates a single root; the
    shrinking is then done by :func:`bisect_isolated_root`.  Returns
    (lo, hi) with hi - lo <= width; when the root is hit exactly the pair
    (r, r) is returned.
    """
    a = Fraction(a)
    b = Fraction(b)
    width = Fraction(width)
    sf = squarefree_part(p)
    if sf.eval_scalar(b) == 0:
        return (b, b)
    if SturmChain(sf).count(a, b) != 1:
        raise ValueError("interval does not isolate exactly one root")
    return bisect_isolated_root(sf, a, b, width)


def bisect_isolated_root(sf: UniPoly, a: Fraction, b: Fraction, width) -> tuple:
    """Sign bisection of (a, b], which must isolate a root r of the
    squarefree ``sf`` with sf(b) != 0.

    The root is simple, so on (a, b] sf has the sign of sf(b) exactly above
    r: each midpoint's sign says which half holds r, and the halves chosen
    are those a Sturm count per step would choose.  Returns (lo, hi) with
    hi - lo <= width, or (r, r) when a midpoint hits r.
    """
    side_b = _sign(sf.eval_scalar(b))
    while b - a > width:
        mid = (a + b) / 2
        side = _sign(sf.eval_scalar(mid))
        if side == 0:
            return (mid, mid)
        if side == side_b:
            b = mid
        else:
            a = mid
    return (a, b)
