"""Truncated-series engine for the spin-weighted quartic-map generating function.

The partition-function series Z(nu, c, z) = sum_{n>=1} Z_n(nu, c) z^n is
produced through an auxiliary algebraic series S(z) with S(0) = 0 that
satisfies

    S * N(S) = z * E(S),    E = D^2,

where N and D are explicit polynomials in S over Q[nu, c], kept with the
rest of the model as {degree: ParamPoly} tables (:func:`_symbolic_tables`).
A fixed bracket polynomial B in (S, z) divided by
9 z^2 (1 - nu^2) (1 + e1 S), e1 = 3 c^2 (1 - nu^2), then yields
Z(nu, c, c z), from which the coefficients are read off after a per-order
rescale by c^-n.

S is solved by one forward pass: with S = O(z), the defining equation
makes S_n explicit in S_1..S_(n-1) through the coefficients of the powers
of S, and those powers are filled coefficient by coefficient alongside S
(see :func:`_power_columns`).  The bracket is then a linear combination of
the same power columns, followed, where the model keeps the divisor, by
one online division by 1 + e1 S, whose constant term is 1.  Beyond that
the one division is an exact halving: each odd power column comes from
squares by polarization, 2 X Y = (X + Y)^2 - X^2 - Y^2, an identity of
commutative rings, so the numerator is twice a ring element whatever the
ring, the packed ``int`` of a polynomial included (packing is a ring
homomorphism into Z).  So the pass runs unchanged over every coefficient
ring; only the packed jets of the jet kind are reduced as they are
stored (see :func:`_power_columns`).

The pass runs over plain ``int`` in two ways.  :func:`solve_Z` and
:func:`solve_S` give the symbolic series, whose coefficients are
:class:`~isingmaps.exactalg.ParamPoly` polynomials in nu and c, whatever
point their :class:`IsingParams` names; :func:`scaled_Z`, :func:`exact_Z` and
:func:`coefficient_sequence` work at the point.

The symbolic series comes from one packed point (Kronecker substitution).
Every table entry lies in Z[nu^2, c^2]; it is evaluated at nu^2 = 2^(W K),
c^2 = 2^W, which puts the coefficient of nu^(2a) c^(2b) in the W-bit slot
a K + b.  Packing is a ring homomorphism, so the pass over the packed
``int`` tables yields the packed coefficients, which balanced base-2^W
digits unpack exactly when each has c^2-degree below K and every
coefficient is below 2^(W - 1) in absolute value.  Both hold by
construction, not by trial.  The degree bound: the entries of N and D at
S^k have c^2-degree at most k, the bracket's entry of S^i z^j at most
i + j and e1 at most 1, so by induction S_n has c^2-degree at most n - 1,
[S^k]_n at most n - k, and the coefficient g_m of z^m of the bracket over
1 + e1 S at most m; K = order + 3 covers g_(order+2).  The size bound: a majorant pass, the same pass run over the l1 norms of the table
entries with signs set so that every step adds, bounds the l1 norm of
every S_n and g_m, hence every coefficient that is tested for zero or
unpacked, and each quotient g_m / (9 (1 - nu^2)) has coefficients at most
l1(g_m) / 9.  W - 1 is the bit length of twice the largest majorant value:
W holds a sign bit, and room for the product 9 (1 - nu^2) q that certifies
a quotient q (see :meth:`_Model.z_coefficient`).

At a point the series is exact: the solve runs on a reduced model of the
point (see :class:`_Model`).  Off c = 1 the divisor is folded into the
bracket: B and P = S N - z E leave remainders modulo 1 + e1 S that are
proportional, so on the curve Z(nu, c, c z) = A(S, z) / (9 z^2 (1 - nu^2))
with A a polynomial.  At c = 1, 1 + e1 S divides N, D and B, and is
cancelled from the curve itself.  The rescaling S = lambda T, z = lambda w
then makes every table entry an integer, lambda being the smallest such
scale at the primes below 64, so
Z_n = g_(n+2) / (bracket_den lambda^2 9(1 - nu^2) (lambda c)^n) with g
the bracket integers (:meth:`_Model.z_scale`).  :func:`scaled_Z` hands
over g and that scale as they are; the exponent fit
(:func:`~isingmaps.critical.exponent_fit`) takes logs of those integers,
so no Z_n is formed or rounded on its path.  :func:`exact_Z` forms each
Z_n as a Fraction, and :func:`coefficient_sequence`, for
``coeffs --numeric``, rounds each once to the nearest mpf at the
precision it is given.
The symbolic and the point series share one pipeline, including the exact
check that the three lowest coefficients cancel.  The same pass over a
third packing gives Z_n and its first two theta-derivatives,
theta = c d/dc, exactly at the point (the jet kind of :class:`_Model`,
which the finite-size observables of :mod:`isingmaps.critical` run).  Taking
f(nu, c) to f(nu, c(1 + t)) mod t^3 is a ring homomorphism, so the
unreduced tables, each entry as its jet (f, theta f, Delta f) with
Delta = (theta^2 - theta) / 2, integers after the rescaling below, packed
at t = 2^W, give the packed jet of every coefficient.  The pass reduces
each value it stores mod t^3, which is mod 2^(3W) read balanced; a
majorant pass fixes W, as for the symbolic packing
(:meth:`_Model._pack_jets`).  At nu = 1, where every point model would
divide by 9(1 - nu^2) = 0, Z_n is in closed form (:func:`nu_one_jets`).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from types import SimpleNamespace
from typing import List, NamedTuple, Optional, Tuple

import mpmath
from mpmath.libmp import from_rational, round_nearest

from .errors import NonZeroRemainder
from .exactalg import PP_ONE, PP_ZERO, ParamPoly, evaluate_together, ring_exact_div
from .precision import DEFAULT_PRECISION_BITS


class _Point(NamedTuple):
    nu: Fraction
    c: Fraction


class IsingParams(_Point):
    """A parameter point (nu, c) of the model, as exact rationals.

    ``nu`` is the monochromatic-edge weight, ``c`` the external-field
    weight; both must be positive.  An immutable value: equal points are
    equal and hash alike.
    """

    __slots__ = ()

    def __new__(cls, nu, c):
        nu, c = Fraction(nu), Fraction(c)
        if nu <= 0:
            raise ValueError("nu must be positive")
        if c <= 0:
            raise ValueError("c must be positive")
        return super().__new__(cls, nu, c)


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
    # each power is formed once and shared: nu^2, c^2, c^4, c^6 and
    # g^1..g^5 for g = 1 - nu^2
    nu2 = ParamPoly.monomial(1, 2, 0)
    c2 = ParamPoly.monomial(1, 0, 2)
    c4, c6 = ParamPoly.monomial(1, 0, 4), ParamPoly.monomial(1, 0, 6)
    g = [PP_ONE, 1 - nu2]
    for _ in range(4):
        g.append(g[-1] * g[1])
    n_tab = {
        0: PP_ONE,
        1: -3 * nu2 * (c2 + 1),
        2: -3 * c2 * g[1] * (3 * nu2 + 7),
        4: 135 * c4 * g[3],
        6: -243 * c6 * g[5],
    }
    d_tab = {0: PP_ONE, 2: -9 * c2 * g[2]}
    bracket_tab = {
        (7, 0): 405 * c6 * g[4],
        (6, 0): 351 * c4 * g[3],
        (5, 1): -324 * c4 * g[4],
        (5, 0): -27 * c2 * g[2] * (5 * c2 - nu2),
        (4, 1): 108 * c4 * g[3],
        (4, 0): 3 * c2 * g[1] * (-3 * nu2 - 47),
        (3, 1): 252 * g[2] * c2,
        (3, 0): -(6 * c2 + 15) * nu2 - 9 * c2,
        (2, 2): -108 * c2 * g[3],
        (2, 1): 9 * g[1] * (4 * c2 + nu2),
        (2, 0): ParamPoly.constant(5),
        (1, 2): -27 * c2 * g[2],
        (1, 1): 3 * nu2 - 8,
        (0, 2): 3 * g[1],
    }
    e1 = 3 * c2 * g[1]
    nine_gamma = 9 * g[1]
    return n_tab, d_tab, bracket_tab, e1, nine_gamma


class _Model:
    """The tables of :func:`_symbolic_tables` realized over a concrete ring.

    Every kind carries the curve S N(S) = z E(S) as ``n_tab`` and ``e_tab``
    ({s_degree: coefficient}) and the numerator of Z as ``bracket_tab``
    ({(s_degree, z_degree): coefficient}) over the divisor 1 + ``e1`` S: on
    the curve, bracket / (1 + e1 S) is ``bracket_den`` 9 z^2 (1 - nu^2)
    Z(nu, c, c z), with z read as the rescaled variable in the kinds that
    rescale.  ``kind`` is one of

      * "symbolic": the tables packed to plain ``int`` (:func:`_pack`) at
        the point of the module docstring for a pass to z^(``order`` + 2),
        with ``bits`` = W and ``slots`` = K from :func:`_packing`; E = D^2,
        also keeping ``d_tab``;
      * "exact": Fractions at the rational point, likewise: the unreduced
        reference;
      * "integer": the reduced model of the point (:meth:`_fold_divisor`),
        with no divisor left (e1 = 0) and no ``d_tab``, rescaled to plain
        ``int``;
      * "jet": the unreduced tables at the point for a pass to
        z^(``order`` + 2), each entry p packed to one ``int``: the Taylor
        coefficients of p(nu, c(1 + t)) to t^2, the jet (p, theta p,
        Delta p), Delta = (theta^2 - theta) / 2, at t = 2^``bits``
        (:meth:`_pack_jets`), E = D^2 formed after the packing.  It keeps
        the divisor: the fold's factor k has c^2 - 1 in its denominator
        and the c = 1 cancellation holds at c = 1 only, so neither is
        carried to the c-derivatives.

    ``reduce`` is None except in the jet kind, where the pass applies it to
    every value it stores (see :func:`_power_columns`).

    The rescaling is S = lambda T, z = lambda w, ``scale`` = lambda.  N, D
    and E coefficients of degree k carry lambda^k, e1 carries lambda and
    the bracket entry of S^i z^j carries lambda^(i+j) and the common
    denominator ``bracket_den``.  The jet kind takes lambda = L =
    (den nu * den c)^2, which makes each Taylor coefficient an integer
    because its nu- and c-degrees are at most twice its power of L (the
    Taylor coefficients of c^b are C(b, k) c^b), so ``bracket_den`` = 1
    there.  The integer kind takes the smallest lambda that makes its N
    and E integral (:func:`_smallest_scale`), a fraction at some points
    (:meth:`_rescale_to_int`).  N(0) = E(0) = 1 survive, so the forward
    recurrence for T needs no division and a divisor that is kept has
    constant term 1: the solve never leaves the integers.  ``nine_gamma``
    stays the exact 9(1 - nu^2), which does not depend on c.  The point
    kinds refuse nu = 1, where it and e1 vanish, with ValueError.
    """

    def __init__(self, params: IsingParams, kind: str, order: Optional[int] = None):
        if kind != "symbolic" and params.nu == 1:
            raise ValueError("the point models divide by 9(1 - nu^2) = 0 at nu = 1")
        n_tab, d_tab, bracket_tab, e1, nine_gamma = _symbolic_tables()
        self.kind = kind
        self.params = params
        self.scale = self.bracket_den = 1
        self.reduce = None
        if kind != "symbolic":
            self.nine_gamma = nine_gamma.evaluate(params.nu, params.c)
        if kind == "jet":
            self._pack_jets(order)
            return
        if kind == "symbolic":
            self.bits, self.slots = _packing(n_tab, d_tab, bracket_tab, e1, nine_gamma,
                                             order)
            self.nine_gamma_l1 = _l1(nine_gamma)
            conv = lambda p: _pack(p, self.bits, self.slots)
            self.zero, self.one = 0, 1
            self.nine_gamma = conv(nine_gamma)
        elif kind in ("exact", "integer"):
            conv = lambda p: p.evaluate(params.nu, params.c)
            self.zero, self.one = Fraction(0), Fraction(1)
        else:  # pragma: no cover - internal misuse
            raise ValueError(kind)
        self.n_tab = {k: conv(v) for k, v in n_tab.items()}
        d_tab = {k: conv(v) for k, v in d_tab.items()}
        self.bracket_tab = {k: conv(v) for k, v in bracket_tab.items()}
        self.e1 = conv(e1)
        self.e_tab = _square(d_tab, self.zero)
        if kind == "integer":
            self._fold_divisor()
            self._rescale_to_int()
        else:
            self.d_tab = d_tab

    def _pack_jets(self, order: Optional[int]):
        """The jet tables for a pass to z^(order + 2), from one
        evaluation of :func:`_taylor_tables` at the point.

        W = ``bits`` is fixed by construction.  Each of the three Taylor
        coefficients of an entry p lambda^k is at most in absolute value
        the matching one of |p|(nu, c(1 + t)) lambda^k, |p| taking every
        coefficient of p to its absolute value.  With N and e1 negated the
        pass over these majorant entries only adds, so it bounds every slot
        of the jet pass, and truncation drops only nonnegative terms from
        it; the three coefficients of its values sum to at most their
        values at t = 1, where it is the integer pass of :func:`_majorant`
        on |p|(nu, 2c) lambda^k.  So M, the largest value of that pass over
        its power columns (S^(top+1) included), g_0..g_(order+2) and E =
        D^2, bounds every slot that the jet pass stores; the running sums
        U_a = S^a + S^(a+1) and the numerators that it halves have slots at
        most 2 M.  A slot read balanced must lie below 2^(W - 1) in
        absolute value, so W - 1 is the bit length of 2 M.
        """
        if order is None or order < 1:
            raise ValueError("the jet model needs an order >= 1")
        keys, polys, weights = _taylor_tables()
        nu, c = self.params
        lam = (nu.denominator * c.denominator) ** 2
        values, den = evaluate_together(polys, nu, c)
        powers = [lam ** k for k in range(max(weights) + 1)]
        parts = [_integral(v * powers[k], den) for v, k in zip(values, weights)]
        tabs = ({}, {}, {}, {})  # N, D, the bracket and {1: e1}
        for m, (table, key) in enumerate(keys):
            tabs[table][key] = parts[4 * m:4 * m + 4]
        major = [{k: v[3] for k, v in tab.items()} for tab in tabs]
        cols, g = _majorant(*major[:3], major[3][1], order + 2, abs)
        peak = max(max(map(max, cols[1:])), max(g), *_square(major[1], 0).values())
        bits = (2 * peak).bit_length() + 1
        pack = lambda tab: {k: _jet_pack(*v[:3], bits) for k, v in tab.items()}
        self.n_tab, d_tab, self.bracket_tab = map(pack, tabs[:3])
        self.e1 = pack(tabs[3])[1]
        self.reduce = _jet_truncation(bits)
        self.e_tab = {k: self.reduce(v) for k, v in _square(d_tab, 0).items()}
        self.zero, self.one = 0, 1
        self.bits, self.order, self.scale = bits, order, lam

    def _fold_divisor(self):
        """Replace bracket / (1 + e1 S) by one polynomial A on the curve.

        B (the bracket) and P = S N - z E are divided by 1 + e1 S in S over
        Q[z]: B = (1 + e1 S) q_B + r_B(z) and P = (1 + e1 S) q_P + r_P(z).
        Off c = 1, r_P is linear in z and divides r_B, r_B = k r_P, so on
        the curve P = 0 the quotient is A = q_B - k q_P, of S-degree <= 6
        and z-degree <= 2.  At c = 1, D = (1 - e1 S)(1 + e1 S) and 1 + e1 S
        divides N and B: r_P = r_B = 0, the factor, a unit on S = O(z), is
        cancelled from the curve, q_P = S N~ - z E~ with E~ of degree 3,
        and A = q_B.  A division that leaves a remainder raises
        NonZeroRemainder.
        """
        curve = {(k + 1, 0): v for k, v in self.n_tab.items()}
        curve.update({(k, 1): -v for k, v in self.e_tab.items()})
        q_b, r_b = _divide_by_unit_linear(self.bracket_tab, self.e1)
        q_p, r_p = _divide_by_unit_linear(curve, self.e1)
        if r_p[1]:
            k1 = r_b[2] / r_p[1]
            k0 = (r_b[1] - k1 * r_p[0]) / r_p[1]
            if r_b[0] != k0 * r_p[0]:
                raise NonZeroRemainder("the bracket's remainder mod 1 + e1 S "
                                       "is not a multiple of the curve's")
            a = [[qb[j] - k0 * qp[j] - (k1 * qp[j - 1] if j else 0)
                  for j in range(3)] for qb, qp in zip(q_b, q_p)]
        elif any(r_p) or any(r_b):
            raise NonZeroRemainder("1 + e1 S divides the curve but not the bracket")
        else:
            self.n_tab = {i - 1: row[0] for i, row in enumerate(q_p) if row[0]}
            self.e_tab = {i: -row[1] for i, row in enumerate(q_p) if row[1]}
            a = q_b
        self.bracket_tab = {(i, j): v for i, row in enumerate(a)
                            for j, v in enumerate(row) if v}
        self.e1 = self.zero

    def _rescale_to_int(self):
        lam = _smallest_scale([(x, k) for tab in (self.n_tab, self.e_tab)
                               for k, x in tab.items() if k],
                              (self.params.nu.denominator * self.params.c.denominator) ** 2)
        den = lcm(*((v * lam ** (i + j)).denominator
                    for (i, j), v in self.bracket_tab.items()))
        integral = lambda v, k, f=1: _integral(v * (f * lam ** k))
        self.zero, self.one = 0, 1
        self.scale, self.bracket_den = lam, den
        self.e_tab = {k: integral(v, k) for k, v in self.e_tab.items()}
        self.n_tab = {k: integral(v, k) for k, v in self.n_tab.items()}
        self.e1 = integral(self.e1, 1)
        self.bracket_tab = {(i, j): integral(v, i + j, den)
                            for (i, j), v in self.bracket_tab.items()}

    def z_coefficient(self, g, n: int):
        """Z_n from the coefficient g of z^(n+2) (w^(n+2) in the rescaled
        kinds) of bracket / (1 + e1 S): divide by 9(1 - nu^2) and undo the
        z -> cz substitution and, in the rescaled kinds, the rescaling and
        ``bracket_den``.

        In the jet kind the slots (f, T, Delta) of g (:func:`_jet_slots`)
        over lambda^(n+2) 9(1 - nu^2) are the Taylor coefficients of
        X = c^n Z_n, so X, theta X and theta^2 X = 2 Delta + T follow, and
        Z_n = c^-n X gives theta Z_n = c^-n (theta X - n X) and
        theta^2 Z_n = c^-n (theta^2 X - 2n theta X + n^2 X); the result is
        the tuple (Z_n, theta Z_n, theta^2 Z_n) of Fractions.  An n past
        the model's ``order`` raises ValueError.

        In the symbolic kind g is packed: the integer quotient by the packed
        9(1 - nu^2) unpacks into c^n Z_n, returned as a ParamPoly with c
        shifted by -n.  A remainder, or a quotient q with
        l1(9(1 - nu^2)) |q| >= 2^(W - 1) (then the product 9(1 - nu^2) q
        might not be the polynomial g), raises NonZeroRemainder.  Below that
        bound both the product and g unpack exactly from one packed value,
        so they are equal; a true quotient is at most l1(g) / 9, which W
        leaves room for.
        """
        if self.kind == "symbolic":
            if n + 3 > self.slots:
                raise ValueError("the model is packed for orders up to %d" % (self.slots - 3))
            q, r = divmod(g, self.nine_gamma)
            zn = _unpack(q, self.bits, self.slots, -n)
            if r or self.nine_gamma_l1 * max(map(abs, zn.terms.values()), default=0) \
                    >> (self.bits - 1):
                raise NonZeroRemainder("9(1 - nu^2) does not divide the coefficient "
                                       "of z^%d" % (n + 2))
            return zn
        if self.kind == "jet":
            if n > self.order:
                raise ValueError("the model is packed for orders up to %d" % self.order)
            f, t, d = _jet_slots(g, self.bits)
            den = self.scale ** (n + 2) * self.nine_gamma
            x, tx, ttx = (Fraction(v) / den for v in (f, t, 2 * d + t))
            back = self.params.c ** -n
            return (back * x, back * (tx - n * x),
                    back * (ttx - 2 * n * tx + n * n * x))
        k, r = self.z_scale()
        return Fraction(g) / (k * r ** n)

    def z_scale(self) -> Tuple[Fraction, Fraction]:
        """(K, r) with Z_n = g / (K r^n) for the coefficient g of z^(n+2)
        (w^(n+2) when rescaled) of bracket / (1 + e1 S), in the exact and
        integer kinds: K = bracket_den lambda^2 9(1 - nu^2) and
        r = lambda c."""
        return (self.bracket_den * self.scale ** 2 * self.nine_gamma,
                self.scale * self.params.c)

    def s_coefficients(self, t_coeffs) -> list:
        """S_0, S_1, ... from the column of the pass: unpacked in the
        symbolic kind, else the coefficients in z of lambda * F(z / lambda),
        for the rescaled series F(w)."""
        if self.kind == "symbolic":
            if len(t_coeffs) > self.slots:
                raise ValueError("the model is packed for orders up to %d" % (self.slots - 3))
            return [_unpack(t, self.bits, self.slots) for t in t_coeffs]
        return [Fraction(t) * self.scale ** (1 - n) for n, t in enumerate(t_coeffs)]


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def _square(tab: dict, zero) -> dict:
    """{degree: coefficient} of the square of the polynomial ``tab``."""
    out = {}
    for i, a in tab.items():
        for j, b in tab.items():
            out[i + j] = out.get(i + j, zero) + a * b
    return out


def _divide_by_unit_linear(tab: dict, e1) -> Tuple[list, list]:
    """(q, r) with tab = (1 + e1 S) q + r, by synthetic division in S over
    Q[z] from the top degree down.

    ``tab`` maps (s_degree, z_degree <= 2) to a coefficient; q is returned
    as rows q[i] = [z^0, z^1, z^2 coefficients of S^i] and r, free of S, as
    one such row.
    """
    rows = [[Fraction(0)] * 3 for _ in range(max(i for i, _ in tab) + 1)]
    for (i, j), v in tab.items():
        rows[i][j] += v
    q = [None] * (len(rows) - 1)
    above = [0] * 3
    for i in range(len(rows) - 1, 0, -1):
        above = q[i - 1] = [(b - a) / e1 for b, a in zip(rows[i], above)]
    return q, [b - a for b, a in zip(rows[0], above)]


def _valuation(x: Fraction, p: int) -> int:
    """The exponent of the prime p in the nonzero rational x."""
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def _smallest_scale(weighted: list, big_l: int) -> Fraction:
    """The scale lambda of :meth:`_Model._rescale_to_int`.

    Every x lambda^k, (x, k) in ``weighted``, is an integer with
    lambda = ``big_l``.  At each prime p < 64 the smallest exponent that
    does it is e_p = max over the nonzero x of ceil(-v_p(x) / k), which
    may be negative; what trial division by those primes leaves of
    ``big_l`` is kept whole.
    """
    lam = Fraction(1)
    for p in _SMALL_PRIMES:
        while big_l % p == 0:
            big_l //= p
        lam *= Fraction(p) ** max((-(_valuation(x, p) // k) for x, k in weighted if x),
                                  default=0)
    return lam * big_l


def _integral(x, den: int = 1) -> int:
    """x / den, an integer, for x a Fraction or an int."""
    q, r = divmod(x, den)
    if r:  # pragma: no cover - the scale excludes it
        raise ArithmeticError("rescaled table entry %s is not an integer" % (x / den))
    return q


def _l1(p: ParamPoly) -> int:
    """The l1 norm of an integer ParamPoly: the sum of |coefficients|."""
    return sum(map(abs, p.terms.values()))


def _pack(p: ParamPoly, bits: int, slots: int) -> int:
    """p(nu^2, c^2) at nu^2 = 2^(bits * slots), c^2 = 2^bits: the
    coefficient of nu^(2a) c^(2b) lands in the bits-wide slot a * slots + b."""
    return sum(v << bits * (slots * (dv >> 1) + (dc >> 1))
               for (dv, dc), v in p.terms.items())


def _unpack(x: int, bits: int, slots: int, c_shift: int = 0) -> ParamPoly:
    """The polynomial that :func:`_pack` sent to x, times c^c_shift.

    x is read as balanced base-2^bits digits d_k in [-2^(bits-1), 2^(bits-1)),
    so the result is exact whenever the packed polynomial has every
    coefficient below 2^(bits - 1) in absolute value and every c^2-degree
    below ``slots``.  Adding 2^(bits-1) to every digit turns them into plain
    base-2^bits digits, which one binary string yields at once.
    """
    count = x.bit_length() // bits + 2  # enough balanced digits for x
    half = 1 << (bits - 1)
    digits = format(x + (int("1".zfill(bits) * count, 2) << (bits - 1)), "b")
    digits = digits.zfill(bits * count)
    terms = {}
    for k in range(count):
        end = len(digits) - bits * k
        d = int(digits[end - bits:end], 2) - half
        if d:
            terms[(2 * (k // slots), 2 * (k % slots) + c_shift)] = d
    out = ParamPoly()
    out.terms = terms
    return out


def _jet_pack(f: int, tf: int, d: int, bits: int) -> int:
    """The jet f + tf t + d t^2 of Z[t] / (t^3) at t = 2^bits."""
    return f + (tf << bits) + (d << 2 * bits)


def _jet_truncation(bits: int):
    """x -> x mod t^3, t = 2^bits: the residue of x mod 2^(3 bits) in
    [-2^(3 bits - 1), 2^(3 bits - 1)).  Packing is a ring homomorphism from
    Z[t], so this is the packed jet of the sum or product that x packs
    whenever each of the three low coefficients of that polynomial in t is
    below 2^(bits - 1) in absolute value, whatever the higher ones."""
    half, mask = 1 << (3 * bits - 1), (1 << 3 * bits) - 1
    return lambda x: ((x + half) & mask) - half


def _jet_slots(x: int, bits: int) -> List[int]:
    """[f, t, d] with x = :func:`_jet_pack` (f, t, d, bits) and each part in
    [-2^(bits - 1), 2^(bits - 1)): the balanced slots of a truncated jet."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    out = []
    for _ in range(3):
        out.append(((x + half) & mask) - half)
        x = (x - out[-1]) >> bits
    return out


@lru_cache(maxsize=1)
def _taylor_tables():
    """(keys, polys, weights): what the jet kind evaluates at a point.

    Entry m of the N, D, bracket and {1: e1} tables (tables 0..3), a
    polynomial p = sum a nu^i c^j, is keys[m] = (table, key), and
    polys[4m:4m+4] are its Taylor coefficients at c(1 + t) to t^2, namely
    p, theta p and Delta p = (theta^2 p - theta p) / 2 = sum C(j, 2) a
    nu^i c^j, then its majorant |p|(nu, 2c) = sum |a| 2^j nu^i c^j.  Each
    weight is the power of L that the entry carries (see :class:`_Model`).
    """
    n_tab, d_tab, bracket_tab, e1, _ = _symbolic_tables()
    keys, polys, weights = [], [], []
    for table, tab in enumerate((n_tab, d_tab, bracket_tab, {1: e1})):
        for key, p in tab.items():
            keys.append((table, key))
            polys += [p, p.c_log_derivative(),
                      ParamPoly({(i, j): a * (j * (j - 1) // 2) for (i, j), a in p.terms.items()}),
                      ParamPoly({(i, j): abs(a) << j for (i, j), a in p.terms.items()})]
            weights += [sum(key) if table == 2 else key] * 4
    return keys, polys, weights


def _packing(n_tab, d_tab, bracket_tab, e1, nine_gamma, order) -> Tuple[int, int]:
    """(W, K) of the packed point for a symbolic pass to z^(order + 2).

    Refuses, with ValueError, a table entry with a non-integer coefficient,
    one outside Z[nu^2, c^2], or one above its c^2-degree bound (entries of
    N, D at S^k: k; of the bracket at S^i z^j: i + j; e1: 1; 9(1 - nu^2):
    0), on which the degree bound K = order + 3 rests.  W - 1 is the bit
    length of twice the largest value of :func:`_majorant`.
    """
    if order is None or order < 1:
        raise ValueError("the symbolic model needs an order >= 1")
    bounded = ([(p, k) for tab in (n_tab, d_tab) for k, p in tab.items()]
               + [(p, i + j) for (i, j), p in bracket_tab.items()]
               + [(e1, 1), (nine_gamma, 0)])
    for p, degree in bounded:
        for (dv, dc), v in p.terms.items():
            if type(v) is not int or dv % 2 or dc % 2 or not 0 <= dc <= 2 * degree:
                raise ValueError("table entry %s is not in Z[nu^2, c^2] with "
                                 "c^2-degree at most %d" % (p.to_str(), degree))
    cols, g_major = _majorant(n_tab, d_tab, bracket_tab, e1, order + 2)
    return (2 * max(cols[1] + g_major)).bit_length() + 1, order + 3


def _majorant(n_tab, d_tab, bracket_tab, e1, top: int, norm=_l1) -> Tuple[list, list]:
    """(columns, g): bounds on the l1 norms of the power columns of
    :func:`_power_columns` and of g_0..g_top (the bracket over 1 + e1 S,
    :func:`_over_divisor`), from the same pass over ``int`` run on the
    norms of the table entries, with N and e1 negated so that every step
    adds: l1 is subadditive and submultiplicative.  That argument concerns
    the values, the coefficients of sums and products of majorant series;
    polarization subtracts on the way to some of them but, being an
    identity over Z, leaves them unchanged.  ``norm`` maps an entry to its
    norm: l1 of a ParamPoly, or ``abs`` on entries that are their norms."""
    major = SimpleNamespace(
        zero=0, reduce=None, n_tab={k: -norm(p) for k, p in n_tab.items()},
        e_tab=_square({k: norm(p) for k, p in d_tab.items()}, 0),
        bracket_tab={k: norm(p) for k, p in bracket_tab.items()}, e1=-norm(e1))
    cols = _power_columns(major, top)
    return cols, _over_divisor(major, cols, top)


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

    def divide(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Series division; the divisor's constant term must be invertible."""
        n = min(self.order, other.order)
        b0 = other.coeffs[0]
        if not b0:
            raise ZeroDivisionError("series division by z-divisible series")
        unit = b0 == 1
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


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def _series_powers(s: TruncatedSeries, top: int) -> List[TruncatedSeries]:
    """[1-placeholder, S, S^2, ..., S^top] (index 0 unused)."""
    powers = [None, s]
    for k in range(2, top + 1):
        powers.append(powers[k // 2] * powers[k - k // 2])
    return powers


def _dot(left, right, zero):
    """sum(l * r) over the paired entries, the ring zero as the start value."""
    return sum(map(mul, left, right), zero)


def _square_at(col: list, a: int, n: int, zero):
    """[X^2]_n for the coefficient list ``col`` of a series X = O(z^a): the
    products below the middle once, doubled, then the middle square."""
    half = _dot(col[a:(n + 1) // 2], col[n - a:n // 2:-1], zero)
    val = half + half
    if n % 2 == 0:
        val = val + col[n // 2] * col[n // 2]
    return val


def _halve(x):
    """x / 2 for an x that is twice a ring element: ``>> 1`` on ``int``,
    ``/ 2`` on Fraction."""
    return x >> 1 if type(x) is int else x / 2


def _power_columns(model: _Model, order: int) -> list:
    """[None, P_1, ..., P_top], P_k the coefficient list of S^k to z^order.

    S N(S) = z E(S) with N(0) = E(0) = 1 and S = O(z) gives, coefficient
    by coefficient,

        S_n = [z^(n-1)] E(S) - sum_{k>=1} n_k [S^(k+1)]_n,

    and for k >= 2 the entry [S^k]_n involves only S_1..S_(n-k+1).  So step n
    first fills [S^k]_n for every k >= 2, each from one square read to half
    its length, and then S_n from the powers.  Even columns square a lower
    one, S^(2a) = (S^a)^2; odd ones polarize,

        [S^(2a+1)]_n = ([(S^a + S^(a+1))^2]_n - [S^(2a)]_n - [S^(2a+2)]_n) / 2,

    with the running sum U_a = S^a + S^(a+1) extended by index n - 1 at the
    start of step n (the square at n reads U_a to index n - a only).  An odd
    ``top`` so fills S^(top+1) as well, for S^top alone, and that column is
    returned last.  The numerator is twice [S^a S^(a+1)]_n in every ring of
    the pass (see the module docstring), so the halving (:func:`_halve`) is
    exact.  ``top`` is the highest power that the recurrence or the bracket
    reads.  A model's ``reduce``, where it is not None, is applied to every
    power column entry and S_n before it is stored, and to the numerator
    before it is halved, so that ``>> 1`` halves a jet whose three slots
    are even and stay below the bound of :meth:`_Model._pack_jets`.
    """
    zero, reduce = model.zero, model.reduce
    n_terms = [(k + 1, v) for k, v in model.n_tab.items() if k >= 1]
    e_terms = [(k, v) for k, v in model.e_tab.items() if k >= 1]
    top = max([k for k, _ in n_terms + e_terms]
              + [i for i, _ in model.bracket_tab])
    cols = [None] + [[zero] * (order + 1) for _ in range(top + top % 2)]
    sums = [None] + [[zero] * (order + 1) for _ in range((top - 1) // 2)]
    s = cols[1]
    if order >= 1:
        s[1] = model.e_tab[0]
    for n in range(2, order + 1):
        for a in range(1, len(sums)):
            sums[a][n - 1] = cols[a][n - 1] + cols[a + 1][n - 1]
        for a in range(1, min(top + 1, n) // 2 + 1):
            x = _square_at(cols[a], a, n, zero)
            cols[2 * a][n] = reduce(x) if reduce else x
        for a in range(1, (min(top, n) - 1) // 2 + 1):
            x = _square_at(sums[a], a, n, zero) - cols[2 * a][n] - cols[2 * a + 2][n]
            cols[2 * a + 1][n] = _halve(reduce(x) if reduce else x)
        acc = zero
        for k, coef in e_terms:
            acc = acc + coef * cols[k][n - 1]
        for k, coef in n_terms:
            acc = acc - coef * cols[k][n]
        s[n] = reduce(acc) if reduce else acc
    return cols


def _solve_S_ring(model: _Model, order: int) -> TruncatedSeries:
    """S to z^order over the model's ring, by the forward recurrence of
    :func:`_power_columns`."""
    return TruncatedSeries(_power_columns(model, order)[1], model.zero)


def solve_S(params: IsingParams, order: int) -> TruncatedSeries:
    """The unique series S with S(0) = 0 solving z = S N(S)/D(S)^2, to z^order.

    The coefficients are ParamPoly (integer polynomials in nu, c with
    nonnegative coefficients), unpacked from the packed pass; they do not
    depend on the point ``params`` names.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    model = _Model(params, "symbolic", order)
    return TruncatedSeries(model.s_coefficients(_solve_S_ring(model, order).coeffs),
                           PP_ZERO)


def _over_divisor(model, cols: list, top: int) -> list:
    """[g_0, ..., g_top]: the bracket at S, a linear combination of the power
    columns ``cols`` (S^0 = 1), divided online by 1 + e1 S unless the model
    has folded that divisor in (e1 = 0); the model's ``reduce``, where it is
    not None, is applied to each quotient coefficient it stores."""
    zero, reduce = model.zero, model.reduce
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
    g = w
    if e1:
        g = [w[0]]
        for n in range(1, top + 1):
            x = w[n] - e1 * _dot(s[1:n + 1], g[::-1], zero)
            g.append(reduce(x) if reduce else x)
    return g


def _bracket_coefficients(model: _Model, order: int) -> list:
    """[g_0, ..., g_(order+2)]: the bracket over 1 + e1 S
    (:func:`_over_divisor`), whose three lowest coefficients must cancel."""
    top = order + 2
    g = _over_divisor(model, _power_columns(model, top), top)
    for i in (0, 1, 2):
        if g[i]:
            raise NonZeroRemainder(
                "low-order coefficients of the parametrization numerator "
                "did not cancel (z^%d)" % i
            )
    return g


def _solve_Z_ring(model: _Model, order: int) -> list:
    """[0, Z_1, ..., Z_order], exact: ParamPoly, Fraction or jet tuples by
    the model kind, read from :func:`_bracket_coefficients`."""
    g = _bracket_coefficients(model, order)
    return [model.zero] + [model.z_coefficient(g[n + 2], n) for n in range(1, order + 1)]


def solve_Z(params: IsingParams, order: int) -> TruncatedSeries:
    """The partition-function series sum_{n>=1} Z_n(nu,c) z^n, up to z^order.

    Pipeline: evaluate the bracket polynomial on S, divide by the series
    1 + 3c^2(1-nu^2)S, check exactly that the three lowest z-coefficients
    cancel, shift down by z^2, divide exactly by 9(1-nu^2), then rescale
    coefficient n by c^-n (the parametrization natively produces
    Z(nu, c, cz)).  The coefficients are ParamPoly, from the packed pass,
    whatever point ``params`` names; :func:`exact_Z` and
    :func:`coefficient_sequence` evaluate at the point.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    model = _Model(params, "symbolic", order)
    return TruncatedSeries([PP_ZERO] + _solve_Z_ring(model, order)[1:], PP_ZERO)


def scaled_Z(params: IsingParams, order: int) -> Tuple[List[int], Tuple[Fraction, Fraction]]:
    """([0, h_1, ..., h_order], (K, r)) with Z_n = h_n / (K r^n) exactly.

    The h_n are the integers of the reduced pass, g_(n+2) of
    :func:`_bracket_coefficients`, with (K, r) from :meth:`_Model.z_scale`;
    at nu = 1 they are Tutte's q_n, with K = (c^2 + 1)/c^2 and
    r = c/(c^2 + 1) (see :func:`nu_one_jets`).  No Z_n is formed, so no
    gcd is taken: :func:`~isingmaps.critical.exponent_fit` reads them so.
    """
    if params.nu == 1:
        c2 = params.c * params.c
        return _tutte_counts(order), ((c2 + 1) / c2, params.c / (c2 + 1))
    model = _Model(params, "integer")
    return [0] + _bracket_coefficients(model, order)[3:], model.z_scale()


def exact_Z(params: IsingParams, order: int) -> list:
    """[0, Z_1, ..., Z_order], exact at the point: each Z_n = h_n / (K r^n)
    of :func:`scaled_Z` as a Fraction."""
    h, (k, r) = scaled_Z(params, order)
    return [0] + [Fraction(x) / (k * r ** n) for n, x in enumerate(h[1:], 1)]


def nu_one_jets(c, order: int) -> List[Tuple[Fraction, Fraction, Fraction]]:
    """(Z_n, theta Z_n, theta^2 Z_n) at nu = 1 for n = 0..order, exact.

    At nu = 1 every edge weighs 1 whatever its spins, so the spins decouple:
    the root vertex's spin is fixed and each other vertex contributes
    c + 1/c.  So Z_n(1, c) = q_n c (c + 1/c)^(n - 1), where
    q_n = 2 3^n (2n)! / (n! (n + 2)!) = 2, 9, 54, 378, ... counts rooted
    quartic maps with n vertices (Tutte, "A census of planar maps", 1963),
    and theta = c d/dc gives theta log Z_n = 1 + (n - 1)(c^2 - 1)/(c^2 + 1)
    and theta^2 log Z_n = 4 (n - 1) c^2 / (c^2 + 1)^2.
    """
    c = Fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    slope, curve = (c * c - 1) / (c * c + 1), 4 * c * c / (c * c + 1) ** 2
    out, spins = [(Fraction(0),) * 3], c
    for n, q in enumerate(_tutte_counts(order)[1:], 1):
        z = q * spins
        t = 1 + (n - 1) * slope  # theta log Z_n
        out.append((z, z * t, z * ((n - 1) * curve + t * t)))
        spins *= c + 1 / c
    return out


def _tutte_counts(order: int) -> List[int]:
    """[0, q_1, ..., q_order]: rooted quartic maps with n vertices,
    q_1 = 2 and q_(n+1) = q_n 6 (2n + 1) / (n + 3), exactly."""
    out, q = [0], 2
    for n in range(1, order + 1):
        out.append(q)
        q = q * 6 * (2 * n + 1) // (n + 3)
    return out


def coefficient_sequence(params: IsingParams, n_max: int,
                         precision_bits: int = DEFAULT_PRECISION_BITS) -> List[mpmath.mpf]:
    """Z_n(nu, c) for n = 1..n_max, each exact at the point (:func:`exact_Z`)
    and rounded once to the nearest mpf at ``precision_bits``."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return _rounded(exact_Z(params, n_max)[1:], precision_bits)
