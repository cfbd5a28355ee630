"""Brute-force oracle: enumerate rooted 4-valent planar maps with spins.

A map on n vertices is encoded by permutations of the darts 1..4n: the
vertex rotation is pinned to the canonical permutation with cycles
(1,2,3,4)(5,6,7,8)..., so a map is an edge pairing (a fixed-point-free
involution) alpha.  Faces are the cycles of sigma o alpha (alpha applied
first); Euler's relation V - E + F = 2 - 2g then gives the genus.

:func:`survey` generates one pairing per planar rooted map, its canonical
labelling: the root dart is 1, and vertices and their darts are numbered
in the order a walk from the root discovers them.  The walk only pairs two
darts that lie on one face of the partial map, where alpha fixes every
unpaired dart.  In a connected partial map (a ribbon graph with dangling
darts) pairing two darts of one face splits it, and opening a new vertex
adds one vertex, one edge and the new vertex's face, which the edge merges
into the old one: both keep the genus.  Pairing darts of two different
faces merges them and raises the genus by 1.  No step lowers the genus, so
a pruned branch never reaches a planar leaf, and the walk meets every
planar rooted map and no other (see the docstring of :func:`survey`).

A rooted map has no automorphism, so every count over all (4n - 1)!!
labelled pairings follows from the rooted ones by the orbit size
(n - 1)! 4^(n-1).  The connected ones, which the walk no longer visits, are
counted by the root-vertex recurrence of :func:`connected_matchings`.  Each
planar rooted map is weighted by its spin sum, with the root vertex forced
to spin +.

Deliberately independent of the series pipeline: no shared model tables,
just permutations and dictionaries.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Dict, List, Sequence, Tuple

from .errors import EnumerationBound
from .exactalg import ParamPoly

MAX_VERTICES = 5


def canonical_sigma(n: int) -> List[int]:
    """The vertex rotation on darts 1..4n, as a lookup table (index 0 unused)."""
    sigma = [0] * (4 * n + 1)
    for d in range(1, 4 * n + 1):
        sigma[d] = d - 3 if d % 4 == 0 else d + 1
    return sigma


def dart_vertex(d: int) -> int:
    """Vertex owning dart d (vertices numbered from 0)."""
    return (d - 1) // 4


def _face_count(sigma: Sequence[int], alpha: Sequence[int]) -> int:
    """Number of cycles of sigma o alpha (alpha first) on darts 1..len - 1."""
    total = len(alpha) - 1
    seen = [False] * (total + 1)
    faces = 0
    for start in range(1, total + 1):
        if seen[start]:
            continue
        faces += 1
        d = start
        while not seen[d]:
            seen[d] = True
            d = sigma[alpha[d]]
    return faces


@dataclass(frozen=True)
class DartMap:
    """A rooted map: canonical rotation plus an edge involution on 4n darts.

    ``alpha`` is a tuple of length 4n+1 with alpha[0] = 0 unused; the root
    dart is always 1.
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
    if not dart_map.is_connected():
        return False
    return dart_map.face_count() == dart_map.n + 2


def _spin_polynomial(edges: Tuple[Tuple[int, int], ...], n: int) -> ParamPoly:
    """Sum over spin assignments with vertex 0 forced to spin +.

    Each assignment contributes nu^(#monochromatic edges) * c^(#plus - #minus).
    """
    terms: Dict[Tuple[int, int], int] = {}
    for mask in range(1 << (n - 1)):
        # bit v-1 of mask = 1 means vertex v carries spin -, vertex 0 is +
        minus = bin(mask).count("1")
        mono = 0
        for u, v in edges:
            su = 0 if u == 0 else (mask >> (u - 1)) & 1
            sv = 0 if v == 0 else (mask >> (v - 1)) & 1
            if su == sv:
                mono += 1
        key = (mono, n - 2 * minus)
        terms[key] = terms.get(key, 0) + 1
    return ParamPoly(terms)


@dataclass(frozen=True)
class EnumerationSurvey:
    """Rooted-map enumeration at size n, with the labelled-pairing counts."""

    n: int
    total_matchings: int
    connected_matchings: int
    planar_matchings: int
    rooted_map_count: int
    partition_polynomial: ParamPoly


def _open_darts_on_face(sigma: Sequence[int], alpha: Sequence[int], d: int
                        ) -> List[int]:
    """The unpaired darts other than d on the face of the unpaired dart d.

    The face is d's cycle of sigma o alpha in the partial map, where alpha
    fixes the unpaired darts (alpha[e] == 0).
    """
    out = []
    e = sigma[d]
    while e != d:
        a = alpha[e]
        if not a:
            out.append(e)
        e = sigma[a or e]
    return out


def total_matchings(n: int) -> int:
    """All pairings of the 4n darts of n vertices: (4n - 1)!!."""
    total = 1
    for odd in range(1, 4 * n, 2):
        total *= odd
    return total


def connected_matchings(n: int) -> int:
    """Connected pairings on n labelled vertices, by the root-vertex recurrence.

    A pairing splits into the component of vertex 0, on k vertices chosen
    with it in C(n - 1, k - 1) ways, and any pairing of the other n - k:
    T_n = sum_k C(n - 1, k - 1) C_k T_{n-k} with T_m = (4m - 1)!!, so
    C_n = T_n - sum_{k<n} C(n - 1, k - 1) C_k T_{n-k}.
    """
    connected = [0] * (n + 1)
    for m in range(1, n + 1):
        connected[m] = total_matchings(m) - sum(
            comb(m - 1, k - 1) * connected[k] * total_matchings(m - k)
            for k in range(1, m)
        )
    return connected[n]


def _walk_planar(n: int, leaf: Callable[[List[int]], None]) -> None:
    """Call ``leaf(alpha)`` on the canonical labelling of each planar rooted map.

    ``alpha`` is the walk's working list (index 0 unused); copy it to keep it.
    """
    sigma = canonical_sigma(n)
    alpha = [0] * (4 * n + 1)

    def pair_from(d: int, k: int):
        top = 4 * k
        while d <= top and alpha[d]:
            d += 1
        if d > top:
            if k == n:
                leaf(alpha)
            return
        for e in _open_darts_on_face(sigma, alpha, d):
            alpha[d], alpha[e] = e, d
            pair_from(d + 1, k)
            alpha[e] = 0
        if k < n:
            alpha[d], alpha[top + 1] = top + 1, d
            pair_from(d + 1, k + 1)
            alpha[top + 1] = 0
        alpha[d] = 0

    pair_from(1, 1)


@lru_cache(maxsize=8)
def survey(n: int) -> EnumerationSurvey:
    """Enumerate the planar rooted maps on n vertices by canonical labelling.

    The walk: vertex 0 owns the root dart 1.  With k vertices discovered
    (darts 1..4k), pair the smallest unpaired dart d with either an unpaired
    dart e on d's face of the partial map (the face rule below), or, when
    k < n, with dart 4k + 1, which opens vertex k with its darts labelled
    along sigma from the dart it was entered by.  If all 4k darts are
    paired while k < n the map is disconnected and the branch is dropped;
    at k = n the leaf is a connected planar map.  Its n + 2 faces are
    counted again as a certificate, which raises if it fails.

    Face rule: faces of the partial map are the cycles of sigma o alpha with
    alpha fixing each unpaired dart.  The partial map is connected, with
    genus g from V - E + F = 2 - 2g (V = k, E the paired edges).  Pairing d
    with e multiplies sigma o alpha by the transposition (d e): on one face
    that splits it (E + 1, F + 1), on two faces that merges them (E + 1,
    F - 1, so g + 1).  Opening vertex k adds its own face (4k+1 .. 4k+4)
    and merges it into d's (V + 1, E + 1, F unchanged).  The genus never
    drops, so skipping the merges of two faces loses no planar leaf, and
    every leaf reached has g = 0.

    Bijection: every leaf is connected, since each vertex is entered along
    an edge from one discovered before it.  Conversely, running the walk's
    rule on a connected rooted map (take the smallest labelled dart with an
    unlabelled edge; if its partner sits on an unlabelled vertex, label that
    vertex next, from the partner along sigma) labels every dart in one way
    only.  For a planar map none of its steps merges two faces, since the
    genus never drops, so the pruned walk follows it to a leaf.  Two leaves
    are distinct labelled pairings, so they are distinct rooted maps.

    Orbit size: relabellings that keep the canonical rotation form its
    centralizer, of order n! 4^n (permute the vertices, turn each).  A
    relabelling that fixes a connected pairing and one dart fixes every
    dart, because sigma and alpha act transitively.  The centralizer thus
    acts freely on (connected pairing, root dart) pairs, whose orbits are
    the rooted maps, so each rooted map stands for n! 4^n / (4n) =
    (n - 1)! 4^(n-1) connected labelled pairings, exactly.  Forcing spin +
    on vertex 0 of each pairing and on the root vertex of each rooted map
    gives the same total, since the walk puts the root on vertex 0.
    ``connected_matchings`` comes from :func:`connected_matchings`.
    """
    if not 1 <= n <= MAX_VERTICES:
        raise EnumerationBound(
            "enumeration is limited to 1 <= n <= %d vertices" % MAX_VERTICES
        )
    sigma = canonical_sigma(n)
    vertex = [dart_vertex(d) for d in range(4 * n + 1)]
    planar_edge_sets: Dict[Tuple[Tuple[int, int], ...], int] = {}

    def leaf(alpha: List[int]):
        faces = _face_count(sigma, alpha)
        if faces != n + 2:
            raise RuntimeError(
                "face rule reached a leaf with %d faces, not %d" % (faces, n + 2)
            )
        key = tuple(sorted(
            (vertex[d], vertex[a]) for d, a in enumerate(alpha) if d < a
        ))
        planar_edge_sets[key] = planar_edge_sets.get(key, 0) + 1

    _walk_planar(n, leaf)

    poly = ParamPoly()
    for key, multiplicity in planar_edge_sets.items():
        poly = poly + _spin_polynomial(key, n) * multiplicity
    rooted = sum(planar_edge_sets.values())
    orbit = factorial(n - 1) * 4 ** (n - 1)
    return EnumerationSurvey(
        n=n,
        total_matchings=total_matchings(n),
        connected_matchings=connected_matchings(n),
        planar_matchings=rooted * orbit,
        rooted_map_count=rooted,
        partition_polynomial=poly,
    )


def bruteforce_Z(n: int) -> ParamPoly:
    """Z_n(nu, c) by exhaustive enumeration (n <= MAX_VERTICES)."""
    return survey(n).partition_polynomial


def all_pairings(n: int) -> List[DartMap]:
    """Every fixed-point-free involution on 4n darts as a DartMap (n <= 2).

    Intended for exhaustive structural tests; (4n-1)!! grows too fast beyond
    tiny n for this convenience form.
    """
    if not 1 <= n <= 2:
        raise EnumerationBound("all_pairings is for n <= 2 only")
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
