"""Tests for the outward-rounded fixed-point kernel over ``int``."""
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from isingmaps import dyadic
from isingmaps.errors import PrecisionExhausted

P = 40
mixed = st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6)
intervals = st.tuples(mixed, mixed).map(lambda ab: tuple(sorted(ab)))


def _fixed(box):
    """The fixed-point interval at scale 2^-P around a Fraction interval."""
    lo, hi = box
    return (lo.numerator << P) // lo.denominator, -((-hi.numerator << P) // hi.denominator)


def _holds(fx, exact_values):
    lo, hi = Fraction(fx[0], 1 << P), Fraction(fx[1], 1 << P)
    return lo <= min(exact_values) and max(exact_values) <= hi


class TestFixedPointIntervals:
    @given(intervals, intervals)
    @settings(max_examples=200, deadline=None)
    def test_add_sub_mul_enclose_the_exact_result(self, a, b):
        fa, fb = _fixed(a), _fixed(b)
        assert _holds(dyadic.add(fa, fb), (a[0] + b[0], a[1] + b[1]))
        assert _holds(dyadic.sub(fa, fb), (a[0] - b[1], a[1] - b[0]))
        assert _holds(dyadic.mul(fa, fb, P), [x * y for x in a for y in b])

    @given(intervals)
    @settings(max_examples=200, deadline=None)
    def test_square_encloses_the_exact_result(self, a):
        lo, hi = dyadic.square(_fixed(a), P)
        squares = [a[0] ** 2, a[1] ** 2] + ([0] if a[0] <= 0 <= a[1] else [])
        assert _holds((lo, hi), squares)
        assert lo >= 0

    @given(intervals, intervals)
    @settings(max_examples=200, deadline=None)
    def test_div_encloses_the_exact_result_or_refuses_zero(self, a, b):
        fb = _fixed(b)
        if fb[0] <= 0 <= fb[1]:
            with pytest.raises(PrecisionExhausted):
                dyadic.div(_fixed(a), fb, P)
        else:
            assert _holds(dyadic.div(_fixed(a), fb, P), [x / y for x in a for y in b])

    def test_div_by_a_box_that_holds_zero_is_refused(self):
        one = (1 << P, 1 << P)
        for divisor in ((0, 0), (-1, 1), (0, 5), (-5, 0)):
            with pytest.raises(PrecisionExhausted):
                dyadic.div(one, divisor, P)

    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=7),
           st.tuples(st.fractions(0, 3, max_denominator=10 ** 6),
                     st.fractions(0, 3, max_denominator=10 ** 6)).map(
               lambda ab: tuple(sorted(ab))))
    @settings(max_examples=200, deadline=None)
    def test_horner_encloses_the_polynomial_on_the_interval(self, coeffs, s):
        fx = dyadic.horner(coeffs, _fixed(s), P)
        points = (s[0], (s[0] + s[1]) / 2, s[1])
        assert _holds(fx, [sum(a * x ** k for k, a in enumerate(coeffs)) for x in points])

    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=2, max_size=7),
           st.integers(0, 3 << P))
    @settings(max_examples=200, deadline=None)
    def test_horner_rounds_outward_at_a_point(self, coeffs, x):
        fx = dyadic.horner(coeffs, (x, x), P)
        s = Fraction(x, 1 << P)
        assert _holds(fx, [sum(a * s ** k for k, a in enumerate(coeffs))])


# integers of 1 to 10^4 bits, every bit length about equally likely
big_ints = st.integers(1, 10 ** 4).flatmap(
    lambda n: st.integers(1 << (n - 1), (1 << n) - 1))
scales = st.integers(1, 600)


def _assert_encloses_the_log(a: int, b: int, p: int):
    """log(a, b, p) holds mpmath's log(a / b) at 2p bits and is at most 2
    units of 2^-p wide, as its docstring states."""
    lo, hi = dyadic.log(a, b, p)
    assert hi - lo <= 2
    with mpmath.workprec(2 * p + 16):
        ref = mpmath.log(mpmath.mpf(a) / mpmath.mpf(b)) * mpmath.mpf(2) ** p
        assert lo <= ref <= hi


class TestLog:
    @given(big_ints, big_ints, scales)
    @settings(max_examples=150, deadline=None)
    def test_encloses_the_log_of_a_ratio(self, a, b, p):
        _assert_encloses_the_log(a, b, p)

    @given(big_ints, big_ints, scales)
    @settings(max_examples=100, deadline=None)
    def test_ratios_below_one(self, a, b, p):
        a, b = sorted((a, b))
        if a == b:
            b += 1
        _assert_encloses_the_log(a, b, p)
        assert dyadic.log(a, b, p)[0] < 0

    @given(big_ints, scales)
    @settings(max_examples=50, deadline=None)
    def test_one_itself(self, a, p):
        lo, hi = dyadic.log(a, a, p)
        assert lo <= 0 <= hi and hi - lo <= 2

    @given(st.integers(0, 10 ** 4), st.integers(0, 10 ** 4), st.sampled_from((-1, 0, 1)),
           st.sampled_from((-1, 0, 1)), scales)
    @example(1, 0, 0, 0, 600)
    @settings(max_examples=150, deadline=None)
    def test_powers_of_two_and_their_neighbours(self, i, k, da, db, p):
        a, b = (1 << i) + da, (1 << k) + db
        if a > 0 and b > 0:
            _assert_encloses_the_log(a, b, p)

    @pytest.mark.parametrize("p", [1, 64, 256, 1088, 4000])
    def test_small_integers_at_several_scales(self, p):
        for a in range(1, 40):
            _assert_encloses_the_log(a, 1, p)
            _assert_encloses_the_log(1, a, p)

    def test_refuses_nonpositive_arguments(self):
        for a, b in ((0, 1), (1, 0), (-3, 2), (3, -2)):
            with pytest.raises(ValueError):
                dyadic.log(a, b, 64)


class TestRoot:
    @given(st.integers(0, 2 ** 300), st.integers(1, 7))
    @example(0, 3)
    @example(1, 3)
    @example(2 ** 192, 3)
    @example(3 ** 150 - 1, 3)
    @settings(max_examples=300, deadline=None)
    def test_iroot_is_the_floor_of_the_root(self, x, n):
        r = dyadic.iroot(x, n)
        assert r ** n <= x < (r + 1) ** n

    @given(st.integers(0, 10 ** 40), st.integers(1, 10 ** 40), st.integers(2, 3),
           st.integers(0, 300))
    @settings(max_examples=200, deadline=None)
    def test_root_encloses_the_rational_root(self, a, b, n, p):
        lo, hi = dyadic.root(a, b, n, p)
        assert hi - lo in (0, 1)
        assert Fraction(lo, 2 ** p) ** n <= Fraction(a, b) <= Fraction(hi, 2 ** p) ** n
        assert (lo == hi) == (Fraction(lo, 2 ** p) ** n == Fraction(a, b))

    def test_exact_dyadic_roots_are_points(self):
        assert dyadic.root(27, 8, 3, 10) == (3 << 9, 3 << 9)
        assert dyadic.root(3, 1, 2, 64)[1] - dyadic.root(3, 1, 2, 64)[0] == 1

    def test_refuses_negative_arguments(self):
        for args in ((-1, 2), (4, 0)):
            with pytest.raises(ValueError):
                dyadic.iroot(*args)
        with pytest.raises(ValueError):
            dyadic.root(-1, 1, 2, 8)
        with pytest.raises(ValueError):
            dyadic.root(1, 0, 2, 8)
