"""Exact scalar and polynomial algebra.

This module supplies the arithmetic backbone used everywhere else:

* ``ParamPoly`` -- sparse polynomials in the vertex weight ``nu`` that are
  Laurent polynomials in the magnetic weight ``c``, with integer
  coefficients kept as ``int`` and a Fraction only where a quotient is not
  integral;
* ``UniPoly`` -- dense univariate polynomials over a pluggable coefficient
  ring (rationals, ``ParamPoly``, nested ``UniPoly`` or mpmath floats);
* resultants and discriminants through a primitive polynomial-remainder
  sequence (pseudo-remainders with content reduction, no modular arithmetic);
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
from typing import Callable, Iterable, Sequence

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
# Generic ring helpers
# ---------------------------------------------------------------------------

def is_zero_elem(x) -> bool:
    if isinstance(x, ParamPoly):
        return x.is_zero()
    if isinstance(x, UniPoly):
        return x.is_zero()
    return x == 0


def ring_zero_like(x):
    if isinstance(x, ParamPoly):
        return PP_ZERO
    if isinstance(x, UniPoly):
        return UniPoly([], zero=x.zero)
    if isinstance(x, Fraction):
        return _ZERO
    return x * 0


def ring_one_like(x):
    if isinstance(x, ParamPoly):
        return PP_ONE
    if isinstance(x, UniPoly):
        return UniPoly([ring_one_like(x.zero)], zero=x.zero)
    if isinstance(x, Fraction):
        return _ONE
    return x * 0 + 1


def ring_exact_div(a, b):
    """Exact division in the coefficient ring; raises NonZeroRemainder when
    the quotient does not exist in the ring."""
    if isinstance(a, ParamPoly) or isinstance(b, ParamPoly):
        if not isinstance(a, ParamPoly):
            a = ParamPoly.constant(a)
        if not isinstance(b, ParamPoly):
            b = ParamPoly.constant(b)
        return a.exact_div(b)
    if isinstance(a, UniPoly):
        return a.exact_div(b)
    if isinstance(b, UniPoly):
        raise NonZeroRemainder("scalar not divisible by nonconstant polynomial")
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


def ring_pow(a, k: int):
    out = ring_one_like(a)
    base = a
    while k:
        if k & 1:
            out = ring_mul(out, base)
        base = ring_mul(base, base)
        k >>= 1
    return out


def ring_mul(a, b):
    if isinstance(a, UniPoly) and isinstance(b, UniPoly):
        return a * b
    if isinstance(a, UniPoly):
        return a.scale(b)
    if isinstance(b, UniPoly):
        return b.scale(a)
    return a * b


def ring_add(a, b):
    if isinstance(a, UniPoly) and not isinstance(b, UniPoly):
        return a + UniPoly([b], zero=a.zero)
    if isinstance(b, UniPoly) and not isinstance(a, UniPoly):
        return b + UniPoly([a], zero=b.zero)
    return a + b


def ring_neg(a):
    return -a


# ---------------------------------------------------------------------------
# UniPoly: dense univariate over a ring
# ---------------------------------------------------------------------------

class UniPoly:
    """Dense univariate polynomial; index equals degree.

    The coefficient ring is whatever the entries are: Fraction, ParamPoly,
    another UniPoly (for bivariate work such as Q[z][S]) or mpmath numbers.
    The ``zero`` sample fixes the ring for empty/padded slots.  Ring-scalar
    multiplication goes through :meth:`scale`; ``*`` combines two UniPoly of
    the same level.
    """

    __slots__ = ("coeffs", "zero")

    def __init__(self, coeffs: Sequence = (), zero=_ZERO):
        cs = list(coeffs)
        while cs and is_zero_elem(cs[-1]):
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
    def variable(cls, zero=_ZERO) -> "UniPoly":
        one = ring_one_like(zero)
        return cls([zero, one], zero=zero)

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
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(
            is_zero_elem(a - b) if not isinstance(a, UniPoly) else a == b
            for a, b in zip(self.coeffs, other.coeffs)
        )

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.zero

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self) -> "UniPoly":
        return UniPoly([ring_neg(c) for c in self.coeffs], zero=self.zero)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            out.append(self.coeff(i) + other.coeff(i))
        return UniPoly(out, zero=self.zero)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            out.append(self.coeff(i) - other.coeff(i))
        return UniPoly(out, zero=self.zero)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return UniPoly([], zero=self.zero)
        out = [self.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if is_zero_elem(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ring_mul(a, b)
        return UniPoly(out, zero=self.zero)

    def scale(self, factor) -> "UniPoly":
        """Multiply by a ring scalar."""
        if is_zero_elem(factor):
            return UniPoly([], zero=self.zero)
        return UniPoly([ring_mul(c, factor) for c in self.coeffs], zero=self.zero)

    def shift(self, k: int) -> "UniPoly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return UniPoly([self.zero] * k + self.coeffs, zero=self.zero)

    def derivative(self) -> "UniPoly":
        out = [ring_mul(c, i) for i, c in enumerate(self.coeffs[1:], start=1)]
        return UniPoly(out, zero=self.zero)

    def __call__(self, x):
        """Horner evaluation; x may be a ring scalar or another UniPoly."""
        if not self.coeffs:
            return self.zero
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = ring_add(ring_mul(acc, x), c)
        return acc

    def eval_scalar(self, x):
        """Horner evaluation when coefficients are plain scalars."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def map(self, fn: Callable, zero=None) -> "UniPoly":
        return UniPoly([fn(c) for c in self.coeffs], zero=self.zero if zero is None else zero)

    def exact_div(self, divisor) -> "UniPoly":
        """Exact division by a UniPoly or a ring scalar."""
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
            if is_zero_elem(top):
                continue
            q = ring_exact_div(top, dlc)
            quo[k] = q
            for j, dc in enumerate(divisor.coeffs):
                rem[k + j] = rem[k + j] - ring_mul(q, dc)
        if any(not is_zero_elem(r) for r in rem):
            raise NonZeroRemainder("polynomial division left a remainder")
        return UniPoly(quo, zero=self.zero)

    # -- formatting ---------------------------------------------------------

    def to_str(self, var: str = "x") -> str:
        if self.is_zero():
            return "0"
        pieces = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if is_zero_elem(c):
                continue
            if isinstance(c, ParamPoly):
                body = "(%s)" % c.to_str()
                neg = False
            elif isinstance(c, UniPoly):
                body = "(%s)" % c.to_str("z")
                neg = False
            else:
                neg = c < 0
                mag = abs(c)
                body = _fmt_coeff(Fraction(mag))
            if k:
                xpart = var if k == 1 else "%s^%d" % (var, k)
                if not isinstance(c, (ParamPoly, UniPoly)) and abs(c) == 1:
                    body = xpart
                else:
                    body = body + "*" + xpart
            pieces.append(("- " if neg else "+ ") + body)
        head = pieces[0]
        head = "-" + head[2:] if head.startswith("- ") else head[2:]
        return " ".join([head] + pieces[1:])

    def __repr__(self):
        return "UniPoly(%s)" % self.to_str()


# ---------------------------------------------------------------------------
# Pseudo-remainders, contents, resultants
# ---------------------------------------------------------------------------

def pseudo_rem(f: UniPoly, g: UniPoly) -> UniPoly:
    """Pseudo-remainder with the deterministic scaling
    lc(g)^(deg f - deg g + 1) * f = q*g + prem(f, g)."""
    n, m = f.degree(), g.degree()
    if m < 0:
        raise ZeroDivisionError("pseudo-remainder by zero")
    if n < m:
        return f
    lcg = g.lc()
    r = f
    steps = 0
    while not r.is_zero() and r.degree() >= m:
        k = r.degree() - m
        r = r.scale(lcg) - g.shift(k).scale(r.lc())
        steps += 1
    want = n - m + 1
    if steps < want:
        r = r.scale(ring_pow(lcg, want - steps))
    return r


def poly_content(p: UniPoly):
    """Content of a UniPoly whose coefficients are themselves UniPoly over a
    field: the monic gcd of the coefficients.  Over a field the content is 1."""
    if p.is_zero():
        return ring_one_like(p.zero)
    sample = p.coeffs[-1]
    if not isinstance(sample, UniPoly):
        return ring_one_like(sample)
    g = None
    for c in p.coeffs:
        if is_zero_elem(c):
            continue
        g = c if g is None else poly_gcd_field(g, c)
        if g.degree() == 0:
            break
    return g if g is not None else ring_one_like(sample)


def poly_primitive(p: UniPoly) -> UniPoly:
    cont = poly_content(p)
    if isinstance(cont, UniPoly) and cont.degree() == 0:
        cont = cont.coeffs[0]
        return p.map(lambda c: c.exact_div(cont))
    if isinstance(cont, UniPoly):
        return p.map(lambda c: c.exact_div(cont))
    return p


def resultant(f: UniPoly, g: UniPoly):
    """Resultant with the convention res(p, q) = lc(q)^deg(p) * prod p(beta)
    over the roots beta of q.

    Computed by a polynomial-remainder sequence with pseudo-remainders whose
    growth is controlled by content (primitive-part) reduction; divisions stay
    exact in the coefficient ring throughout.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    one = ring_one_like(f.lc())
    sign_neg = False
    num = one
    den = one
    while True:
        n, m = f.degree(), g.degree()
        if m == 0:
            base = ring_pow(g.lc(), n)
            val = ring_mul(num, base)
            res = ring_exact_div(val, den)
            return ring_neg(res) if sign_neg else res
        if n < m:
            if (n * m) % 2:
                sign_neg = not sign_neg
            f, g = g, f
            continue
        r = pseudo_rem(f, g)
        if r.is_zero():
            z = ring_zero_like(f.lc())
            return z
        cont = poly_content(r)
        nontrivial = isinstance(cont, UniPoly) and cont.degree() > 0
        if nontrivial:
            r = r.map(lambda c: c.exact_div(cont))
        k = r.degree()
        l = n - m + 1
        e = l * m + k - n
        if nontrivial:
            num = ring_mul(num, ring_pow(cont, m))
        den = ring_mul(den, ring_pow(g.lc(), e))
        if (k * m) % 2:
            sign_neg = not sign_neg
        f, g = g, r


def discriminant(p: UniPoly):
    """(-1)^(d(d-1)/2) * resultant(p, p') / lc(p)."""
    d = p.degree()
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    res = resultant(p, p.derivative())
    val = ring_exact_div(res, p.lc())
    if (d * (d - 1) // 2) % 2:
        val = ring_neg(val)
    return val


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
# Gcd and squarefree machinery
# ---------------------------------------------------------------------------

def _divmod_field(f: UniPoly, g: UniPoly):
    rem = list(f.coeffs)
    dd = g.degree()
    if dd < 0:
        raise ZeroDivisionError
    glc = g.lc()
    quo = [f.zero] * max(0, len(rem) - dd)
    while len(rem) - 1 >= dd and rem:
        while rem and is_zero_elem(rem[-1]):
            rem.pop()
        if len(rem) - 1 < dd or not rem:
            break
        k = len(rem) - 1 - dd
        q = ring_exact_div(rem[-1], glc)
        quo[k] = q
        for j in range(dd + 1):
            rem[k + j] = rem[k + j] - q * g.coeffs[j]
        rem.pop()
    return UniPoly(quo, zero=f.zero), UniPoly(rem, zero=f.zero)


def poly_gcd_field(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd over a coefficient field (Fraction entries)."""
    a, b = f, g
    while not b.is_zero():
        _, r = _divmod_field(a, b)
        a, b = b, r
    if a.is_zero():
        return a
    lc = a.lc()
    return a.map(lambda c: ring_exact_div(c, lc))


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Gcd up to a unit/content, valid over Fraction or UniPoly coefficients."""
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    if not isinstance(f.lc(), UniPoly):
        return poly_gcd_field(f, g)
    a, b = (f, g) if f.degree() >= g.degree() else (g, f)
    while not b.is_zero():
        r = pseudo_rem(a, b)
        if not r.is_zero():
            r = poly_primitive(r)
        a, b = b, r
    return poly_primitive(a)


def squarefree_part(p: UniPoly) -> UniPoly:
    """p divided by gcd(p, p'), computed so the division is exact."""
    if p.degree() < 1:
        return p
    g = poly_gcd(p, p.derivative())
    if g.degree() == 0:
        return p
    return p.exact_div(g)


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
                _, r = _divmod_field(seq[-2], seq[-1])
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
