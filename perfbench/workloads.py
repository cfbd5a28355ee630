"""Seeded, stratified operation batches for the benchmark workloads.

A workload is a list of strata.  A stratum is a pool of CLI argument lists
plus the number of operations a batch draws from it, without replacement.
The counts are fixed, so every seed gives the same mix of operation costs;
the seed only picks which points of each pool run, and in which order.

Pool design.  A batch is kept to about 5-20 s, so that a run can repeat
it; and each stratum holds points whose costs, measured best of three on
the parent code on a 2-core x86 box, agree to within about 10%.

* ``exponent-fit --n-max 200`` costs about 3 s of series work plus one
  radius solve: a batch has one point at c = 1 and one at c = 19/20 or 21/20
  with nu in {3/2, 4, 6}, where that solve costs 1.1-1.3 s.
* ``radius`` at c != 1 costs 0.9-2.8 s, set mostly by nu, so a batch sweeps
  nu in {1/2, 3/4, 6} (about 1.5, 2.0 and 0.9 s), each at c = 9/10 or 11/10,
  plus one point at c = 1, where the exact paths cost 0.05-0.3 s.
* ``observables`` at c != 1 costs 0.45-0.9 s.  A batch takes each nu in
  {1/2, 5/2, 9/2, 6} once below c = 1 and once above.  At nu >= 4 below
  c = 1 every point fails with StepTooLarge at the parent code, as does
  nu = 5/2 above it; those cells stay, so the defect shows in every run.
* The symbolic ring costs depend on the order only, so orders are fixed and
  the seed picks the points the finite-size observables are evaluated at;
  ``enumerate --n 4`` alone takes about 9 s.
"""
from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Sequence, Tuple

NUS = ("1/2", "3/4", "3/2", "2", "5/2", "3", "7/2", "4", "9/2", "5", "6")
C_NEAR = ("19/20", "21/20")
C_WIDE = ("9/10", "11/10")
C_PAIRS = (("9/10", "19/20"), ("21/20", "11/10"))
RADIUS_NUS = ("1/2", "3/4", "6")
THERMO_NUS = ("1/2", "5/2", "9/2", "6")

FIT_N_MAX = 200
FIT_C1_NUS = ("1/2", "3/2", "2", "3", "4", "5", "6")
FIT_OFF_NUS = ("3/2", "4", "6")

ENUMERATE_N = 4
SYMBOLIC_ORDER = 12
FINITE_SIZES = (8, 10, 12)
FINITE_POINTS = tuple((nu, c) for nu in ("1/2", "3/2", "2", "3", "4", "5")
                      for c in ("1", "9/10", "11/10"))


class Stratum(NamedTuple):
    name: str
    pool: Tuple[Tuple[str, ...], ...]
    count: int


def radius_op(nu: str, c: str) -> Tuple[str, ...]:
    return ("radius", "--nu", nu, "--c", c)


def fit_op(nu: str, c: str) -> Tuple[str, ...]:
    return ("exponent-fit", "--nu", nu, "--c", c, "--n-max", str(FIT_N_MAX))


def thermo_op(nu: str, c: str) -> Tuple[str, ...]:
    return ("observables", "--nu", nu, "--c", c)


def finite_op(nu: str, c: str, n: int) -> Tuple[str, ...]:
    return ("observables", "--nu", nu, "--c", c, "--n", str(n))


def coeffs_op(n_max: int) -> Tuple[str, ...]:
    return ("coeffs", "--symbolic", "--n-max", str(n_max))


def enumerate_op(n: int) -> Tuple[str, ...]:
    return ("enumerate", "--n", str(n))


def _cells(make, nus: Sequence[str], c_pairs) -> List[Stratum]:
    """One draw per (nu, pair of neighbouring c) cell."""
    return [Stratum("nu=%s c in %s" % (nu, "|".join(cs)), tuple(make(nu, c) for c in cs), 1)
            for nu in nus for cs in c_pairs]


WORKLOADS: Dict[str, List[Stratum]] = {
    "series-asymptotics": [
        Stratum("c=1", tuple(fit_op(nu, "1") for nu in FIT_C1_NUS), 1),
        Stratum("c!=1", tuple(fit_op(nu, c) for c in C_NEAR for nu in FIT_OFF_NUS), 1),
    ],
    "radius-sweep": [
        Stratum("c=1", tuple(radius_op(nu, "1") for nu in NUS), 1),
    ] + _cells(radius_op, RADIUS_NUS, (C_WIDE,)),
    "thermo-observables": _cells(thermo_op, THERMO_NUS, C_PAIRS),
    "symbolic-oracle": [
        Stratum("enumerate", (enumerate_op(ENUMERATE_N),), 1),
        Stratum("coeffs", (coeffs_op(SYMBOLIC_ORDER),), 1),
    ] + [Stratum("finite n=%d" % n,
                 tuple(finite_op(nu, c, n) for nu, c in FINITE_POINTS), 1)
         for n in FINITE_SIZES],
}


def generate(workload: str, seed: int) -> List[List[str]]:
    """The batch of CLI argument lists of a run; the same seed gives the same batch."""
    rng = random.Random("%s:%d" % (workload, seed))
    ops: List[List[str]] = []
    for stratum in WORKLOADS[workload]:
        ops.extend(list(op) for op in rng.sample(stratum.pool, stratum.count))
    rng.shuffle(ops)
    return ops


def all_ops(workload: str) -> List[Tuple[str, ...]]:
    """Every operation a batch of this workload can draw."""
    return [op for stratum in WORKLOADS[workload] for op in stratum.pool]
