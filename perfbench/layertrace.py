"""Outside-in spans around the package's layer functions.

The package has no tracing of its own, so the benchmark wraps each target
function after import: in its defining module, in every package module that
imported it by name, and on the class for methods (aliases such as
``__rmul__ = __mul__`` included).  A span records calls, inclusive time
(counted once per outermost activation, so recursion is not double counted)
and self time, which is inclusive time minus the time of child spans.

A target that cannot be found, for example after a rename, is reported as
absent rather than as zero.
"""
from __future__ import annotations

import functools
import sys
import time
import types
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "isingmaps"

# (metric prefix, defining module, attribute path)
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("cli.main", "cli", "main"),
    ("series.solve_Z", "series", "solve_Z"),
    ("series.solve_S", "series", "solve_S"),
    ("series.coefficient_sequence", "series", "coefficient_sequence"),
    ("series.TruncatedSeries.mul", "series", "TruncatedSeries.__mul__"),
    ("series.TruncatedSeries.divide", "series", "TruncatedSeries.divide"),
    ("exactalg.squarefree_part", "exactalg", "squarefree_part"),
    ("exactalg.SturmChain.init", "exactalg", "SturmChain.__init__"),
    ("exactalg.SturmChain.count", "exactalg", "SturmChain.count"),
    ("exactalg.refine_isolated_root", "exactalg", "refine_isolated_root"),
    ("exactalg.discriminant", "exactalg", "discriminant"),
    ("exactalg.poly_gcd", "exactalg", "poly_gcd"),
    ("exactalg.ParamPoly.mul", "exactalg", "ParamPoly.__mul__"),
    ("singular.radius_numeric", "singular", "radius_numeric"),
    ("singular.characteristic_root_polynomial", "singular",
     "characteristic_root_polynomial"),
    ("singular.cancelling_polynomial_squarefree", "singular",
     "cancelling_polynomial_squarefree"),
    ("singular.discriminant_in_z", "singular", "discriminant_in_z"),
    ("singular.newton_polygon_expand", "singular", "newton_polygon_expand"),
    ("critical.thermo_magnetization", "critical", "thermo_magnetization"),
    ("critical.thermo_susceptibility", "critical", "thermo_susceptibility"),
    ("critical.free_energy", "critical", "free_energy"),
    ("critical.exponent_fit", "critical", "exponent_fit"),
    ("critical.finite_magnetization", "critical", "finite_magnetization"),
    ("critical.finite_susceptibility", "critical", "finite_susceptibility"),
    ("critical.finite_free_energy", "critical", "finite_free_energy"),
)
AUDITED = ("precision.audited", "precision", "audited")
POLYROOTS = ("singular.polyroots", "singular")
SURVEY = ("mapcount.survey", "mapcount", "survey")
SURVEY_FIELDS = ("total_matchings", "connected_matchings", "planar_matchings")
CACHES = (("critical.rho_point", "critical", "_rho_point"),
          ("critical.symbolic_Z", "critical", "_symbolic_Z"))

SPAN_NAMES = ([name for name, _, _ in FUNCTIONS]
              + [AUDITED[0], AUDITED[0] + ".run_p", AUDITED[0] + ".run_2p",
                 POLYROOTS[0], SURVEY[0]])
COUNTER_NAMES = ([SURVEY[0] + "." + f for f in SURVEY_FIELDS]
                 + [SURVEY[0] + ".planar_ratio"]
                 + [name + suffix for name, _, _ in CACHES
                    for suffix in (".hits", ".misses")]
                 + [CACHES[0][0] + ".hit_ratio"])


class Tracer:
    """Span statistics: name -> [calls, inclusive seconds, self seconds]."""

    def __init__(self):
        self.stats: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self._stack: List[List[float]] = []
        self._open: Dict[str, int] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, opened = self._stack, self._open
        opened.setdefault(name, 0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            opened[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                opened[name] -= 1
                stats[0] += 1
                stats[2] += elapsed - children[0]
                if not opened[name]:
                    stats[1] += elapsed
                if stack:
                    stack[-1][0] += elapsed

        return span

    def report(self) -> Dict[str, Dict[str, float]]:
        return {name: {"calls": s[0], "s": s[1], "self_s": s[2]}
                for name, s in self.stats.items()}


class _ModuleView(types.ModuleType):
    """A module seen with some attributes replaced, for one importer only."""

    def __init__(self, module: types.ModuleType, **overrides):
        super().__init__(module.__name__, module.__doc__)
        self.__dict__.update(overrides)
        self.__dict__["_module"] = module

    def __getattr__(self, name):
        return getattr(self._module, name)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _replace_everywhere(original, replacement) -> None:
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _module(short: str) -> Optional[types.ModuleType]:
    return sys.modules.get("%s.%s" % (PACKAGE, short))


def _install_function(tracer: Tracer, name: str, module: str, path: str,
                      make: Optional[Callable] = None) -> bool:
    owner = _module(module)
    if owner is None:
        return False
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    original = vars(owner).get(attr)
    if original is None:
        return False
    wrapped = (make or tracer.wrap)(name, original)
    if isinstance(owner, type):
        for alias, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, alias, wrapped)
    else:
        _replace_everywhere(original, wrapped)
    return True


def _audited_maker(tracer: Tracer):
    def make(name, audited):
        run_p = tracer.wrap(name + ".run_p", lambda run, bits: run(bits))
        run_2p = tracer.wrap(name + ".run_2p", lambda run, bits: run(bits))
        span = tracer.wrap(name, audited)

        @functools.wraps(audited)
        def traced(run, precision_bits, *args, **kwargs):
            def timed_run(bits):
                return (run_p if bits == precision_bits else run_2p)(run, bits)
            return span(timed_run, precision_bits, *args, **kwargs)

        return traced
    return make


def _survey_maker(tracer: Tracer):
    def make(name, survey):
        span = tracer.wrap(name, survey)

        @functools.wraps(survey)
        def counted(*args, **kwargs):
            report = span(*args, **kwargs)
            for field in SURVEY_FIELDS:
                if hasattr(report, field):
                    tracer.counters[name + "." + field] = getattr(report, field)
            if hasattr(report, "planar_matchings") and getattr(report, "total_matchings", 0):
                tracer.counters[name + ".planar_ratio"] = (
                    report.planar_matchings / report.total_matchings)
            return report

        return counted
    return make


def _install_polyroots(tracer: Tracer, name: str, module: str) -> bool:
    """Wrap mpmath.polyroots as the given module calls it, and only there."""
    import mpmath
    owner = _module(module)
    if owner is None:
        return False
    original = mpmath.polyroots
    wrapped = tracer.wrap(name, original)
    found = False
    for attr, value in list(vars(owner).items()):
        if value is mpmath:
            setattr(owner, attr, _ModuleView(mpmath, polyroots=wrapped))
            found = True
        elif value is original:
            setattr(owner, attr, wrapped)
            found = True
    return found


def install(tracer: Tracer) -> List[str]:
    """Wrap every target; returns the names of the absent ones."""
    absent = []
    for name, module, path in FUNCTIONS:
        if not _install_function(tracer, name, module, path):
            absent.append(name)
    if not _install_function(tracer, *AUDITED, make=_audited_maker(tracer)):
        absent += [AUDITED[0], AUDITED[0] + ".run_p", AUDITED[0] + ".run_2p"]
    if not _install_polyroots(tracer, *POLYROOTS):
        absent.append(POLYROOTS[0])
    if not _install_function(tracer, *SURVEY, make=_survey_maker(tracer)):
        absent.append(SURVEY[0])
    return absent


def find_caches() -> Dict[str, Callable]:
    """The functools caches whose hit counts the benchmark reads."""
    found = {}
    for name, module, attr in CACHES:
        fn = getattr(_module(module), attr, None)
        if hasattr(fn, "cache_info"):
            found[name] = fn
    return found


def cache_counts(caches: Dict[str, Callable]) -> Dict[str, Tuple[int, int]]:
    return {name: tuple(fn.cache_info()[:2]) for name, fn in caches.items()}


def add_cache_deltas(tracer: Tracer, before, after) -> None:
    for name, (hits, misses) in after.items():
        old_hits, old_misses = before[name]
        for suffix, delta in ((".hits", hits - old_hits), (".misses", misses - old_misses)):
            tracer.counters[name + suffix] = tracer.counters.get(name + suffix, 0) + delta
