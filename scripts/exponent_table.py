#!/usr/bin/env python3
"""Tabulate coefficient-asymptotics exponents at several parameter points.

For each requested (nu, c) the script runs the exact series pass to the
integers h_n of Z_n = h_n / (K r^n), locates mu by quadratic interval
refinement of the certified critical point, and fits the h_n with
scale (K, r), as ``isingmaps exponent-fit`` does.  It prints the global
least-squares exponent next to the Aitken-accelerated pointwise one.
The two agreeing is the internal consistency check; 7/3 appears exactly at
the magnetization transition (nu, c) = (4, 1) and 5/2 elsewhere.
"""
import argparse
import time
from fractions import Fraction

import mpmath

from isingmaps.critical import exponent_fit
from isingmaps.series import IsingParams, scaled_Z
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
        h, scale = scaled_Z(params, args.n_max)
        report = radius_numeric(params, with_exponent=False, scan_uniqueness=False)
        fit = exponent_fit(h[1:], report.mu,
                           (max(2, args.n_max // 8), args.n_max),
                           precision_bits=args.precision_bits, scale=scale)
        print("%-10s %-8s %-12s %-12s %-12s %-10.1f" % (
            nu, c,
            mpmath.nstr(fit.alpha_exponent, 6),
            mpmath.nstr(fit.aitken_exponent, 6),
            mpmath.nstr(fit.amplitude, 4),
            time.time() - started,
        ))


if __name__ == "__main__":
    main()
