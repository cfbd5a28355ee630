"""Exact scalar and polynomial algebra.

This module supplies the arithmetic backbone used everywhere else:

* ``ParamPoly`` -- sparse polynomials in the vertex weight ``nu`` that are
  Laurent polynomials in the magnetic weight ``c``, with integer
  coefficients kept as ``int`` and a Fraction only where a quotient is not
  integral;
* ``UniPoly`` -- dense univariate polynomials over Q, with ``int`` or
  Fraction coefficients;
* gcds, squarefree parts, Sturm chains, resultants and discriminants
  along one primitive pseudo-remainder sequence over Z (Brown, J. ACM 18,
  1971), each member a positive multiple of the Euclidean one over Q; a
  gcd of 1 is certified modulo a prime first, without the sequence;
* exact polynomial interpolation (Newton divided differences);
* ``IntegerForm`` -- a rational polynomial as integer coefficients over
  one positive denominator, evaluated at a point x/w by homogeneous integer
  Horner; every sign test below runs on it;
* Sturm sequences and certified real-root isolation over the rationals,
  with quadratic interval refinement of an isolated simple root to the
  cell sign bisection would stop in.

Sign conventions (fixed by the test suite):

* ``resultant(p, q) = lc(q)^deg(p) * prod p(beta_i)`` over the roots of q,
  so ``resultant(x - a, x - b) = b - a``;
* ``discriminant(p) = (-1)^(d(d-1)/2) * resultant(p, p') / lc(p)``;
* ``sturm_count(p, a, b)`` counts distinct real roots in the half-open
  interval ``(a, b]``.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .dyadic import iroot
from .errors import DegenerateInterval, NonZeroRemainder

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rational_root(x: Fraction, n: int = 2):
    """Exact n-th root of a rational, or None when irrational/negative."""
    x = Fraction(x)
    if x < 0:
        return None
    rn, rd = iroot(x.numerator, n), iroot(x.denominator, n)
    if rn ** n == x.numerator and rd ** n == x.denominator:
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

    def evaluate(self, nu, c) -> Fraction:
        """The exact value at a rational point (``int`` or Fraction), as
        one Fraction."""
        (acc,), den = evaluate_together((self,), Fraction(nu), Fraction(c))
        return Fraction(acc, den)

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


def evaluate_together(polys: Sequence[ParamPoly], nu: Fraction,
                      c: Fraction) -> Tuple[List[int], int]:
    """Integers h_i and one positive den with p_i(nu, c) = h_i / den.

    With nu = p/q, c = r/s, dv <= top and lo <= dc <= hi over all the
    supports, and L the lcm of the coefficient denominators, each term is
    coef L p^dv q^(top-dv) r^(dc-lo) s^(hi-dc) over L q^top s^(hi-lo),
    times c^lo; the integer powers are built once per call.
    """
    degrees = [k for poly in polys for k in poly.terms]
    if not degrees:
        return [0] * len(polys), 1
    p, q = nu.numerator, nu.denominator
    r, s = c.numerator, c.denominator
    nu_degrees, c_degrees = zip(*degrees)
    top, lo, hi = max(nu_degrees), min(c_degrees), max(c_degrees)
    nu_w = [p ** i * q ** (top - i) for i in range(top + 1)]
    c_w = [r ** j * s ** (hi - lo - j) for j in range(hi - lo + 1)]
    den = lcm(*(v.denominator for poly in polys for v in poly.terms.values()))
    # c^lo: a negative lo moves r into the denominator, exactly.
    c_num, c_den = (r ** lo, s ** lo) if lo >= 0 else (s ** -lo, r ** -lo)
    values = []
    for poly in polys:
        acc = 0
        for (dv, dc), coef in poly.terms.items():
            acc += coef.numerator * (den // coef.denominator) * nu_w[dv] * c_w[dc - lo]
        values.append(acc * c_num)
    return values, den * q ** top * s ** (hi - lo) * c_den


# ---------------------------------------------------------------------------
# Coefficient helpers
# ---------------------------------------------------------------------------

def ring_exact_div(a, b):
    """Exact quotient of two rationals: ``int / int`` gives a Fraction,
    never a float."""
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


# ---------------------------------------------------------------------------
# UniPoly: dense univariate over Q
# ---------------------------------------------------------------------------

class UniPoly:
    """Dense univariate polynomial over Q; index equals degree.

    The coefficients are rationals, ``int`` or Fraction; :meth:`coeff` past
    the degree is 0.  Instances are treated as immutable:
    :meth:`integer_form` is computed once and kept.
    """

    __slots__ = ("coeffs", "_form")

    def __init__(self, coeffs: Sequence = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = cs
        self._form = None

    # -- structure ----------------------------------------------------------

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def lc(self):
        return self.coeffs[-1] if self.coeffs else 0

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
        return 0

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return UniPoly([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    def scale(self, factor) -> "UniPoly":
        """Multiply by a rational scalar."""
        if not factor:
            return UniPoly([])
        return UniPoly([c * factor for c in self.coeffs])

    def derivative(self) -> "UniPoly":
        out = [c * i for i, c in enumerate(self.coeffs[1:], start=1)]
        return UniPoly(out)

    def eval_scalar(self, x):
        """Horner evaluation at x.

        For a value, not a sign: sign tests at a rational point run on
        :meth:`integer_form` (see :meth:`sign_at`).
        """
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def integer_form(self) -> "IntegerForm":
        """The :class:`IntegerForm` of a rational polynomial, built once."""
        if self._form is None:
            self._form = IntegerForm(*common_denominator(self.coeffs))
        return self._form

    def sign_at(self, x) -> int:
        """The sign (-1, 0 or 1) of p(x) at a rational x, in integers."""
        return _sign(self.integer_form().value(x.numerator, x.denominator))

    def exact_div(self, divisor) -> "UniPoly":
        """Exact division by a UniPoly or a rational scalar.  An integer
        polynomial divided by one of its divisors in Z[x] stays in ``int``."""
        if not isinstance(divisor, UniPoly):
            return UniPoly([ring_exact_div(c, divisor) for c in self.coeffs])
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return UniPoly([])
        rem = list(self.coeffs)
        dd = divisor.degree()
        dlc = divisor.lc()
        if len(rem) - 1 < dd:
            raise NonZeroRemainder("degree of dividend below divisor")
        qdeg = len(rem) - 1 - dd
        quo = [0] * (qdeg + 1)
        for k in range(qdeg, -1, -1):
            top = rem[k + dd]
            if not top:
                continue
            if type(top) is int and type(dlc) is int and not top % dlc:
                q = top // dlc
            else:
                q = ring_exact_div(top, dlc)
            quo[k] = q
            for j, dc in enumerate(divisor.coeffs):
                rem[k + j] = rem[k + j] - q * dc
        if any(rem):
            raise NonZeroRemainder("polynomial division left a remainder")
        return UniPoly(quo)

    def __repr__(self):
        return "UniPoly(%r)" % (self.coeffs,)


def common_denominator(xs: Sequence) -> Tuple[List[int], int]:
    """Integers n_i and the least w > 0 with x_i = n_i / w, for rationals x_i."""
    w = lcm(*(x.denominator for x in xs))
    return [x.numerator * (w // x.denominator) for x in xs], w


class IntegerForm:
    """A rational polynomial p as p(x) = (a_0 + a_1 x + ... + a_d x^d) / den.

    The a_i are ``int`` and ``den`` is a positive ``int`` (the lcm of the
    coefficient denominators, from :meth:`UniPoly.integer_form`).  At a point x/w with integers x and w > 0 the homogeneous
    form H(x, w) = sum a_i x^i w^(d - i) equals den * w^d * p(x/w), so it has
    the sign of p(x/w), and p(x/w) = H / (den * w^d): sign tests and exact
    values need no Fraction arithmetic.  Instances are immutable.
    """

    __slots__ = ("coeffs", "den")

    def __init__(self, coeffs: Sequence[int], den: int):
        self.coeffs = tuple(coeffs)
        self.den = den

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def value(self, x: int, w: int) -> int:
        """H(x, w) = den * w^d * p(x/w), for w > 0."""
        acc, wp = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * x + c * wp
            wp *= w
        return acc

    def dyadic(self, x: int, k: int) -> int:
        """H(x, 2^k) = den * 2^(k d) * p(x / 2^k), by shifts instead of the
        powers of w."""
        acc, shift = 0, 0
        for c in reversed(self.coeffs):
            acc = acc * x + (c << shift)
            shift += k
        return acc

    def gaussian(self, x: int, y: int, k: int) -> Tuple[int, int]:
        """Real and imaginary parts of H(x + iy, 2^k) = den * 2^(k d) *
        p((x + iy) / 2^k), by complex Horner on Gaussian integers."""
        re = im = shift = 0
        for c in reversed(self.coeffs):
            re, im = re * x - im * y + (c << shift), re * y + im * x
            shift += k
        return re, im

    def scaled(self, w: int) -> "IntegerForm":
        """The form of y -> p(y/w), w > 0: coefficients a_i w^(d - i) over
        den * w^d, so its H(y, v) is H(y, w v) of this form."""
        d = self.degree()
        return IntegerForm([c * w ** (d - i) for i, c in enumerate(self.coeffs)],
                           self.den * w ** max(d, 0))


# ---------------------------------------------------------------------------
# One primitive remainder sequence over Z (gcd, squarefree part, Sturm
# chain, resultant, discriminant), a modular coprimality certificate in
# front of the gcd, and interpolation
# ---------------------------------------------------------------------------

# Mersenne primes for the certificate; a later one is used only when an
# earlier one divides a leading coefficient.
_PRIMES = (2 ** 61 - 1, 2 ** 89 - 1, 2 ** 107 - 1)


def _primitive(p: UniPoly) -> Tuple[List[int], int]:
    """Coprime integers P and t > 0 with p = (t / den) P, den that of
    p's :class:`IntegerForm`: P is a positive multiple of p."""
    form = p.integer_form()
    t = gcd(*form.coeffs)
    return [c // t for c in form.coeffs], t


def primitive(p: UniPoly) -> UniPoly:
    """The positive multiple of a nonzero rational polynomial whose
    coefficients are coprime integers (``int``)."""
    return UniPoly(_primitive(p)[0])


def _coprime_mod_p(f: List[int], g: List[int]) -> bool:
    """True when f and g, integer coefficient lists, are certified coprime
    over Q: for a prime p that divides neither leading coefficient, every
    common factor over Q is, by Gauss's lemma, a primitive integer
    polynomial whose leading coefficient p does not divide, so it survives
    mod p; a gcd of degree 0 mod p leaves none (von zur Gathen-Gerhard,
    Modern Computer Algebra, ch. 6).  False means undecided."""
    for p in _PRIMES:
        if f[-1] % p and g[-1] % p:
            break
    else:
        return False
    a, b = [c % p for c in f], [c % p for c in g]
    while len(b) > 1:
        inv, db = pow(b[-1], -1, p), len(b) - 1
        while len(a) > db:
            top = a.pop() * inv % p
            if top:
                k = len(a) - db
                for j in range(db):
                    a[k + j] = (a[k + j] - top * b[j]) % p
        while a and not a[-1]:
            a.pop()
        if not a:
            return False
        a, b = b, a
    return True


def _pseudo_remainder(f: List[int], g: List[int]) -> Tuple[List[int], int, int]:
    """(r, t, m) with m f - q g = t r over Z[x]: deg r < deg g, r primitive
    (``[]`` when g divides f), t its content and m > 0 a product of
    divisors of |lc g|.  So f mod g = (t / m) r over Q, a positive multiple
    of r.  Each step multiplies by |lc g| / gcd(|lc g|, lead) only."""
    r = list(f)
    dg = len(g) - 1
    a = abs(g[-1])
    low = g[:-1] if g[-1] > 0 else [-c for c in g[:-1]]
    m = 1
    while len(r) > dg:
        top = r.pop()
        if not top:
            continue
        t = gcd(top, a)
        if t != a:
            u = a // t
            r = [u * c for c in r]
            m *= u
        top //= t
        k = len(r) - dg
        for j, c in enumerate(low):
            r[k + j] -= top * c
    while r and not r[-1]:
        r.pop()
    t = gcd(*r)
    return [c // t for c in r] if t > 1 else r, t, m


def _remainder_sequence(f: List[int], g: List[int], sturm: bool = False):
    """The primitive pseudo-remainder sequence f, g, r_2, ... over Z.

    Member i + 1 is the primitive remainder of members i - 1 and i,
    negated when ``sturm``, so each is a positive multiple of the member of
    the Euclidean (or Sturm) sequence over Q.  It stops at a constant
    member or before a zero remainder.  Returns the members and, per
    remainder, its (t, m) from :func:`_pseudo_remainder`.
    """
    seq, scalars = [f, g], []
    while len(seq[-1]) > 1:
        r, t, m = _pseudo_remainder(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r] if sturm else r)
        scalars.append((t, m))
    return seq, scalars


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd over Q (the zero polynomial when both are zero).

    The modular certificate (:func:`_coprime_mod_p`) decides a gcd of 1
    first, without a remainder sequence; only when it fails does the
    primitive sequence over Z run, whose last member is the gcd.
    """
    if f.is_zero() or g.is_zero():
        a = g if f.is_zero() else f
        return a if a.is_zero() else a.exact_div(a.lc())
    a, b = _primitive(f)[0], _primitive(g)[0]
    if _coprime_mod_p(a, b):
        return UniPoly([_ONE])
    h = UniPoly(_remainder_sequence(a, b)[0][-1])
    return h.exact_div(h.lc())


def squarefree_part(p: UniPoly) -> UniPoly:
    """p divided by gcd(p, p'): p itself when the two are coprime, else the
    primitive integer quotient (a positive multiple of p / gcd)."""
    if p.degree() < 1:
        return p
    g = poly_gcd(p, p.derivative())
    if g.degree() == 0:
        return p
    return primitive(p).exact_div(primitive(g))


def resultant(f: UniPoly, g: UniPoly):
    """Resultant with the convention res(p, q) = lc(q)^deg(p) * prod p(beta)
    over the roots beta of q.

    Computed along the primitive remainder sequence over Z with three
    identities: r = p mod q agrees with p at every root of q, so
    res(p, q) = lc(q)^(deg p - deg r) * res(r, q); res(alpha p, q) =
    alpha^deg(q) * res(p, q), with the symmetric rule for q; and
    res(p, q) = (-1)^(deg p * deg q) * res(q, p).  A constant q ends the
    sequence with res(p, q) = lc(q)^deg(p), a zero remainder with 0.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    (a, ta), (b, tb) = _primitive(f), _primitive(g)
    acc = (Fraction(ta, f.integer_form().den) ** g.degree()
           * Fraction(tb, g.integer_form().den) ** f.degree())
    seq, scalars = _remainder_sequence(a, b)
    if len(seq[-1]) > 1:
        return _ZERO
    for p, q, r, (t, m) in zip(seq, seq[1:], seq[2:], scalars):
        # p mod q = (t / m) r
        acc *= q[-1] ** (len(p) - len(r)) * Fraction(t, m) ** (len(q) - 1)
        if (len(q) - 1) * (len(r) - 1) % 2:
            acc = -acc
    return acc * seq[-1][-1] ** (len(seq[-2]) - 1)


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
    caching kept to the caller.

    The members are the primitive remainder sequence over Z of p and p',
    each remainder negated (:func:`_remainder_sequence`): positive
    multiples of the chain over Q, so the signs and every count are the
    same.  Each is kept as an :class:`IntegerForm` over 1: the sign at a
    rational x = n/m is that of the integer H(n, m), so counting sign
    variations takes integer Horner only.
    """

    def __init__(self, p: UniPoly):
        if p.degree() < 0:
            raise ValueError("Sturm chain of the zero polynomial")
        f = _primitive(p)[0]
        df = [j * c for j, c in enumerate(f)][1:]
        seq = _remainder_sequence(f, df, sturm=True)[0] if df else [f]
        self.forms = [IntegerForm(q, 1) for q in seq]

    def variations(self, x: Fraction) -> int:
        n, m = x.numerator, x.denominator
        signs = []
        for form in self.forms:
            s = _sign(form.value(n, m))
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
    if sf.sign_at(b) == 0:
        return (b, b)
    if SturmChain(sf).count(a, b) != 1:
        raise ValueError("interval does not isolate exactly one root")
    return bisect_isolated_root(sf, a, b, width)


def bisect_isolated_root(sf: UniPoly, a: Fraction, b: Fraction, width) -> tuple:
    """The cell of width <= ``width`` in which bisection of (a, b] by the
    sign of sf stops, or (r, r) when one of its midpoints is r; (a, b] must
    isolate the root r of the squarefree ``sf``, and sf(b) != 0.

    That cell lies at the first level k with (b - a) / 2^k <= width, and
    :func:`refine_root_cell` reaches it by quadratic interval refinement.
    With w0 the lcm of the denominators of a and b, the cells of level k
    have ends x/(w0 2^k), where sf has the sign of the :class:`IntegerForm`
    of sf(y/w0) at x/2^k.  Fractions are built only for the returned ends.
    """
    (lo, hi), w0 = common_denominator((a, b))
    width = Fraction(width)
    level = (-(-(hi - lo) * width.denominator // (w0 * width.numerator)) - 1).bit_length()
    lo, hi, k = refine_root_cell(sf.integer_form().scaled(w0), lo, hi, level)
    return (Fraction(lo, w0 << k), Fraction(hi, w0 << k))


def refine_root_cell(form: IntegerForm, lo: int, hi: int, level: int,
                     k: int = 0) -> Tuple[int, int, int]:
    """Quadratic interval refinement (QIR) of the cell (lo, hi) of level k
    around the simple root r of p, the polynomial of ``form``, to its
    piece of level ``level``: the cell bisection by the sign of p stops in
    there.

    The cells of level j are the 2^j equal pieces of the cell of level 0,
    with ends x/2^j in the frame of :meth:`IntegerForm.dyadic`, so every
    cell of every level is hi - lo wide in its own units.  r must be the
    only root of p in (lo, hi), and p(hi) != 0.  Returns the cell as
    (x, y, max(k, level)), or r = x/2^j as (x, x, j) when bisection down to
    ``level`` meets r at a midpoint, that is when r lies on the grid of a
    level j up to ``level``.

    A step of m levels (Abbott, arXiv:1203.1227) snaps the secant root of p
    through the cell's ends to the grid of its 2^m pieces and takes the
    signs at that grid point j and the next one towards r.  If they bracket
    r the step holds: that piece is the new cell and m doubles.  Otherwise
    m halves, and if the known signs leave r in an aligned block of 2^s
    pieces at an end of the cell, that block is the new cell.  A step of
    m = 1 takes j at the midpoint: a bisection step.  It also serves while
    p(lo) = 0, where the secant says nothing, and p(lo) is evaluated only
    once a secant needs it.  Near a simple root the secant's error is
    quadratic in the width, so m keeps doubling: the steps grow with
    log log of the final width.  No step goes past ``level``, so every grid
    point met lies on a level up to it, and a block is never a cell below
    it.
    """
    if k >= level:
        return lo, hi, k
    width, shift = hi - lo, form.degree()

    def value(i: int) -> Optional[int]:
        # p at grid point i of the step, (lo 2^m + i width) / 2^(k + m)
        if i == 0:
            return None if f_lo is None else f_lo << (m * shift)
        if i == 1 << m:
            return f_hi << (m * shift)
        return form.dyadic((lo << m) + i * width, k + m)

    def hit(i: int) -> Tuple[int, int, int]:
        # grid point i of the step is r
        x = (lo << m) + i * width
        return x, x, k + m

    f_lo, f_hi = None, form.dyadic(hi, k)
    up = f_hi > 0  # p has this sign exactly above r
    m = 1
    while True:
        m = min(m, level - k)
        if m > 1 and f_lo is None:
            f_lo = form.dyadic(lo, k)
        if m > 1 and f_lo:
            # the grid point nearest the secant root lo + t (hi - lo), t in (0, 1)
            t_num, t_den = (f_lo, f_lo - f_hi) if f_lo > 0 else (-f_lo, f_hi - f_lo)
            j = ((2 * t_num << m) + t_den) // (2 * t_den)
        else:
            m, j = 1, 1
        f_j = value(j)
        if not f_j:
            return hit(j)
        above = (f_j > 0) == up
        a = j - 1 if above else j + 1
        f_a, inner = value(a), 0 < a < 1 << m
        if inner and not f_a:
            return hit(a)
        # r lies in the block of grid pieces from P to Q; an end of the cell
        # as a lies on r's far side from j
        if not inner or ((f_a > 0) == up) != above:
            (P, f_P), (Q, f_Q) = sorted(((a, f_a), (j, f_j)))
        elif a < j:
            P, f_P, Q, f_Q = 0, value(0), a, f_a
        else:
            P, f_P, Q, f_Q = a, f_a, 1 << m, value(1 << m)
        size, top = Q - P, k + m
        m = 2 * m if size == 1 else m // 2
        if size & (size - 1):
            continue
        s = size.bit_length() - 1  # an aligned block is a cell of level top - s
        lo = (lo << (top - s - k)) + (P >> s) * width
        hi, k = lo + width, top - s
        f_lo = None if f_P is None else f_P >> (shift * s)
        f_hi = f_Q >> (shift * s)
        if k == level:
            return lo, hi, k
