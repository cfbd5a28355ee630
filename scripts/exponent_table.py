#!/usr/bin/env python3
"""Tabulate coefficient-asymptotics exponents at several parameter points.

For each requested (nu, c) the script generates the high-precision
coefficient sequence, locates mu by certified bisection, and prints the
global least-squares exponent next to the Aitken-accelerated pointwise one.
The two agreeing is the internal consistency check; 7/3 appears exactly at
the magnetization transition (nu, c) = (4, 1) and 5/2 elsewhere.
"""
import argparse
import time
from fractions import Fraction

import mpmath

from isingmaps.critical import exponent_fit
from isingmaps.series import IsingParams, coefficient_sequence
from isingmaps.singular import radius_numeric


def parse_point(text: str):
    nu, c = text.split(":")
    return Fraction(nu), Fraction(c)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=parse_point, nargs="+",
                    default=[(Fraction(4), Fraction(1)),
                             (Fraction(2), Fraction(1)),
                             (Fraction(4), Fraction(21, 20))],
                    metavar="NU:C")
    ap.add_argument("--n-max", type=int, default=400)
    ap.add_argument("--precision-bits", type=int, default=192)
    args = ap.parse_args()

    print("%-10s %-8s %-12s %-12s %-12s %-10s" %
          ("nu", "c", "alpha(fit)", "alpha(Aitken)", "amplitude", "seconds"))
    for nu, c in args.points:
        started = time.time()
        params = IsingParams(nu=nu, c=c)
        seq = coefficient_sequence(params, args.n_max, args.precision_bits)
        report = radius_numeric(params)
        fit = exponent_fit(seq, report.mu,
                           (max(2, args.n_max // 8), args.n_max),
                           precision_bits=args.precision_bits)
        print("%-10s %-8s %-12s %-12s %-12s %-10.1f" % (
            nu, c,
            mpmath.nstr(fit.alpha_exponent, 6),
            mpmath.nstr(fit.aitken_exponent, 6),
            mpmath.nstr(fit.amplitude, 4),
            time.time() - started,
        ))


if __name__ == "__main__":
    main()
