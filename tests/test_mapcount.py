"""Tests for the brute-force map enumeration oracle."""
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import List, Tuple

import pytest

from isingmaps.errors import EnumerationBound
from isingmaps.exactalg import ParamPoly
from isingmaps import mapcount
from isingmaps.mapcount import (
    EnumerationSurvey,
    _face_count,
    _open_darts_on_face,
    _spin_polynomial,
    _walk_planar,
    canonical_sigma,
    dart_vertex,
    survey,
)
from isingmaps.series import IsingParams, solve_Z


@dataclass(frozen=True)
class DartMap:
    """A rooted map: canonical rotation plus an edge involution on 4n darts.

    ``alpha`` is a tuple of length 4n+1 with alpha[0] = 0 unused; the root
    dart is always 1.  An oracle for the walk of :func:`survey`, which never
    builds one.
    """

    n: int
    alpha: Tuple[int, ...]

    def __post_init__(self):
        if len(self.alpha) != 4 * self.n + 1:
            raise ValueError("alpha must cover darts 1..4n")
        for d in range(1, 4 * self.n + 1):
            a = self.alpha[d]
            if a == d:
                raise ValueError("alpha must be fixed-point free")
            if not 1 <= a <= 4 * self.n or self.alpha[a] != d:
                raise ValueError("alpha must be an involution on 1..4n")

    def face_count(self) -> int:
        """Number of cycles of sigma o alpha (alpha first)."""
        return _face_count(canonical_sigma(self.n), self.alpha)

    def is_connected(self) -> bool:
        """Transitivity of the group generated by sigma and alpha on darts."""
        sigma = canonical_sigma(self.n)
        seen = [False] * (4 * self.n + 1)
        stack = [1]
        seen[1] = True
        count = 0
        while stack:
            d = stack.pop()
            count += 1
            for nxt in (sigma[d], self.alpha[d]):
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append(nxt)
        return count == 4 * self.n

    def genus(self) -> int:
        """From Euler's relation with V = n, E = 2n (map must be connected)."""
        chi = self.n - 2 * self.n + self.face_count()
        return (2 - chi) // 2

    def edges(self) -> List[Tuple[int, int]]:
        """Edges as sorted vertex pairs (self-loops allowed), one per dart pair."""
        out = []
        for d in range(1, 4 * self.n + 1):
            a = self.alpha[d]
            if d < a:
                u, v = dart_vertex(d), dart_vertex(a)
                out.append((u, v) if u <= v else (v, u))
        return out


def genus_check(dart_map: DartMap) -> bool:
    """True iff the map is connected and embeds in the sphere (genus 0)."""
    return dart_map.is_connected() and dart_map.face_count() == dart_map.n + 2


def all_pairings(n: int) -> List[DartMap]:
    """Every fixed-point-free involution on 4n darts as a DartMap."""
    total = 4 * n
    out: List[DartMap] = []
    alpha = [0] * (total + 1)

    def rec(d: int):
        while d <= total and alpha[d]:
            d += 1
        if d > total:
            out.append(DartMap(n=n, alpha=tuple(alpha)))
            return
        for e in range(d + 1, total + 1):
            if alpha[e]:
                continue
            alpha[d], alpha[e] = e, d
            rec(d + 1)
            alpha[d], alpha[e] = 0, 0

    rec(1)
    return out


def labelled_pairing_survey(n):
    """The survey by walking all (4n - 1)!! labelled pairings on 4n darts.

    Each planar pairing is weighted by its spin sum with vertex 0 forced to
    spin +, and the totals are divided by the orbit size n! 4^n / (4n).
    Returns the five counts and the polynomial as a tuple.
    """
    total_darts = 4 * n
    alpha = [0] * (total_darts + 1)
    stats = {"total": 0, "connected": 0, "planar": 0}
    accum = ParamPoly()

    def leaf():
        nonlocal accum
        stats["total"] += 1
        m = DartMap(n=n, alpha=tuple(alpha))
        if not m.is_connected():
            return
        stats["connected"] += 1
        if m.face_count() != n + 2:
            return
        stats["planar"] += 1
        accum = accum + _spin_polynomial(tuple(sorted(m.edges())), n)

    def pair_from(d):
        while d <= total_darts and alpha[d]:
            d += 1
        if d > total_darts:
            leaf()
            return
        for e in range(d + 1, total_darts + 1):
            if not alpha[e]:
                alpha[d], alpha[e] = e, d
                pair_from(d + 1)
                alpha[d], alpha[e] = 0, 0

    pair_from(1)
    norm = Fraction(4 * n, factorial(n) * 4 ** n)
    rooted = stats["planar"] * norm
    assert rooted.denominator == 1
    return (n, stats["total"], stats["connected"], stats["planar"],
            int(rooted), accum * norm)


def unpruned_canonical_survey(n):
    """The survey by the canonical walk over every connected rooted map.

    The walk of :func:`survey` without the face rule: the smallest unpaired
    dart d pairs with any unpaired dart in (d, 4k] or opens vertex k, so
    every genus is reached and the planar maps are picked at the leaves.
    Returns the survey, with connected pairings counted at the leaves, and
    the planar leaf pairings as alpha tuples.
    """
    sigma = canonical_sigma(n)
    alpha = [0] * (4 * n + 1)
    connected = 0
    planar_leaves = []

    def leaf():
        nonlocal connected
        connected += 1
        if _face_count(sigma, alpha) == n + 2:
            planar_leaves.append(tuple(alpha))

    def pair_from(d, k):
        top = 4 * k
        while d <= top and alpha[d]:
            d += 1
        if d > top:
            if k == n:
                leaf()
            return
        for e in range(d + 1, top + 1):
            if not alpha[e]:
                alpha[d], alpha[e] = e, d
                pair_from(d + 1, k)
                alpha[e] = 0
        if k < n:
            alpha[d], alpha[top + 1] = top + 1, d
            pair_from(d + 1, k + 1)
            alpha[top + 1] = 0
        alpha[d] = 0

    pair_from(1, 1)

    poly = ParamPoly()
    for leaf_alpha in planar_leaves:
        edges = tuple(sorted((dart_vertex(d), dart_vertex(a))
                             for d, a in enumerate(leaf_alpha) if d < a))
        poly = poly + _spin_polynomial(edges, n)
    orbit = factorial(n - 1) * 4 ** (n - 1)
    total = 1
    for odd in range(1, 4 * n, 2):
        total *= odd
    report = EnumerationSurvey(
        n=n,
        total_matchings=total,
        connected_matchings=connected * orbit,
        planar_matchings=len(planar_leaves) * orbit,
        rooted_map_count=len(planar_leaves),
        partition_polynomial=poly,
    )
    return report, planar_leaves


def planar_walk_leaves(n):
    leaves = []
    _walk_planar(n, lambda alpha: leaves.append(tuple(alpha)))
    return leaves


def tutte_rooted_quartic(n):
    """Rooted planar 4-valent maps on n vertices: 2 3^n (2n)! / (n! (n+2)!)."""
    return 2 * 3 ** n * factorial(2 * n) // (factorial(n) * factorial(n + 2))


ALL_SIZES = [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)]


class TestDartMap:
    def test_sigma_cycle_structure(self):
        sigma = canonical_sigma(2)
        assert sigma[1:5] == [2, 3, 4, 1]
        assert sigma[5:9] == [6, 7, 8, 5]

    def test_one_vertex_hand_cases(self):
        # pairing (1 2)(3 4): two nested loops, sphere
        m = DartMap(n=1, alpha=(0, 2, 1, 4, 3))
        assert m.face_count() == 3
        assert genus_check(m)
        # pairing (1 3)(2 4): crossing loops, torus
        m = DartMap(n=1, alpha=(0, 3, 4, 1, 2))
        assert m.face_count() == 1
        assert m.genus() == 1
        assert not genus_check(m)
        # pairing (1 4)(2 3)
        m = DartMap(n=1, alpha=(0, 4, 3, 2, 1))
        assert m.face_count() == 3
        assert genus_check(m)

    def test_rejects_bad_involutions(self):
        with pytest.raises(ValueError):
            DartMap(n=1, alpha=(0, 1, 2, 4, 3))  # fixed point at 1
        with pytest.raises(ValueError):
            DartMap(n=1, alpha=(0, 2, 3, 1, 4))  # not an involution

    def test_disconnected_detected(self):
        # two vertices, each pairing its own darts: 2-component map
        m = DartMap(n=2, alpha=(0, 2, 1, 4, 3, 6, 5, 8, 7))
        assert not m.is_connected()
        assert not genus_check(m)


class TestEnumeration:
    def test_survey_one_vertex(self):
        s = survey(1)
        assert s.total_matchings == 3
        assert s.connected_matchings == 3
        assert s.planar_matchings == 2
        assert s.rooted_map_count == 2
        nu, c = ParamPoly.nu(), ParamPoly.c()
        assert s.partition_polynomial == 2 * nu ** 2 * c

    def test_rooted_map_counts(self):
        assert survey(2).rooted_map_count == 9
        assert survey(3).rooted_map_count == 54

    def test_total_matchings_double_factorial(self):
        assert survey(2).total_matchings == 7 * 5 * 3 * 1
        assert survey(3).total_matchings == 11 * 9 * 7 * 5 * 3 * 1

    def test_connected_matchings_two_vertices(self):
        # disconnected pairings keep each vertex's four darts internal: 3 x 3
        assert survey(2).connected_matchings == 105 - 9

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_oracle_equals_series(self, n):
        z_series = solve_Z(IsingParams(nu=2, c=1), 3)
        assert survey(n).partition_polynomial == z_series.coefficient(n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_spinless_specialization(self, n):
        s = survey(n)
        value = s.partition_polynomial.evaluate(Fraction(1), Fraction(1))
        assert value == 2 ** (n - 1) * s.rooted_map_count

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_labelled_pairing_walk(self, n):
        s = survey(n)
        assert (s.n, s.total_matchings, s.connected_matchings,
                s.planar_matchings, s.rooted_map_count,
                s.partition_polynomial) == labelled_pairing_survey(n)

    @pytest.mark.parametrize("n", ALL_SIZES)
    def test_rooted_maps_match_tutte(self, n):
        assert survey(n).rooted_map_count == tutte_rooted_quartic(n)

    @pytest.mark.parametrize("n", ALL_SIZES)
    def test_connected_matchings_exponential_formula(self, n):
        # a pairing splits into the component of vertex 0, on k vertices,
        # and an arbitrary pairing of the other n - k vertices
        def total(m):
            return survey(m).total_matchings if m else 1

        assert total(n) == sum(
            comb(n - 1, k - 1) * survey(k).connected_matchings * total(n - k)
            for k in range(1, n + 1)
        )

    def test_four_vertices_pinned(self):
        s = survey(4)
        assert s.connected_matchings == 1880064
        assert s.planar_matchings == 145152

    def test_enumeration_bound(self):
        with pytest.raises(EnumerationBound):
            survey(6)
        with pytest.raises(EnumerationBound):
            survey(0)


class TestFaceRule:
    """The pruned walk of :func:`survey` against the unpruned oracle."""

    def test_one_vertex_leaves(self):
        # (1 2)(3 4) and (1 4)(2 3) are planar leaves; the torus pairing
        # (1 3)(2 4) is not reached
        assert sorted(planar_walk_leaves(1)) == [(0, 2, 1, 4, 3), (0, 4, 3, 2, 1)]

    def test_empty_vertex_is_one_face(self):
        sigma = canonical_sigma(1)
        assert sorted(_open_darts_on_face(sigma, [0] * 5, 1)) == [2, 3, 4]

    def test_crossing_pair_splits_darts_two_and_four(self):
        # with (1 3) paired the faces are (1 4) and (2 3): 4 is off 2's face
        sigma = canonical_sigma(1)
        alpha = [0, 3, 0, 1, 0]
        assert _open_darts_on_face(sigma, alpha, 2) == []
        assert _open_darts_on_face(sigma, alpha, 4) == []
        # with (1 2) paired, 3 and 4 share a face, as they do with (1 4)
        assert _open_darts_on_face(sigma, [0, 2, 1, 0, 0], 3) == [4]
        assert _open_darts_on_face(sigma, [0, 4, 0, 0, 1], 2) == [3]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_survey_equals_unpruned_walk(self, n):
        assert survey(n) == unpruned_canonical_survey(n)[0]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_leaves_are_the_planar_leaves_of_the_unpruned_walk(self, n):
        leaves = planar_walk_leaves(n)
        assert len(set(leaves)) == len(leaves)
        assert sorted(leaves) == sorted(unpruned_canonical_survey(n)[1])

    def test_leaf_failing_the_face_count_raises(self, monkeypatch):
        monkeypatch.setattr(mapcount, "_face_count", lambda sigma, alpha: 0)
        with pytest.raises(RuntimeError, match="faces"):
            survey.__wrapped__(2)


class TestStructuralInvariants:
    def test_edge_count_and_genus_range(self):
        for m in all_pairings(2):
            assert len(m.edges()) == 4
            if m.is_connected():
                g = m.genus()
                assert 0 <= g <= 1
                chi = m.n - 2 * m.n + m.face_count()
                assert chi % 2 == 0

    def test_face_parity_one_vertex(self):
        for m in all_pairings(1):
            assert len(m.edges()) == 2
            assert (m.face_count() - m.n) % 2 == 0


class TestExtendedEnumeration:
    def test_four_vertices_matches_series(self):
        s = survey(4)
        assert s.rooted_map_count == 378
        z_series = solve_Z(IsingParams(nu=2, c=1), 4)
        assert s.partition_polynomial == z_series.coefficient(4)

    @pytest.mark.slow
    def test_five_vertices_matches_series(self):
        s = survey(5)
        assert s.rooted_map_count == 2916
        assert s.connected_matchings == 616108032
        assert s.planar_matchings == 17915904
        assert s.total_matchings == 654729075
        z_series = solve_Z(IsingParams(nu=2, c=1), 5)
        assert s.partition_polynomial == z_series.coefficient(5)
