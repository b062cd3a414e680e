"""Random rooted complexes: finite-support laws on rooted isomorphism classes.

A law is stored as a list of support points, each a rooted complex with a
positive rational weight; weights sum to one.  Expectations are plain
weighted sums, so points that share a rooted isomorphism class count as
one point of their summed weight in every statistic; only
:meth:`RandomRootedComplex.validate` refuses such a law.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations
from typing import NamedTuple

from .complexes import RootedComplex, SimplicialComplex, _check_nonempty, _component_map
from .encoding import CanonicalCode, _ball_codes, _root_classes
from .errors import ValidationError, _check_int

__all__ = [
    "SupportPoint",
    "RandomRootedComplex",
    "uniform_rooting",
    "BallDistribution",
    "ball_distribution",
    "measure_distance",
    "MassTransportResult",
    "mass_transport_check",
    "standard_battery",
    "non_unimodular_example",
    "degree_truncate",
    "expected_p_degree",
]

_ZERO = Fraction(0)


class SupportPoint:
    """One isomorphism class in a law: a rooted complex plus its weight.

    The point is immutable, so its codes are memoized: one ball code per
    radius, the whole-complex code under radius None.
    """

    __slots__ = ("rooted", "weight", "_codes")

    def __init__(self, rooted: RootedComplex, weight):
        try:
            w = Fraction(weight)
        except (TypeError, ValueError, OverflowError):
            w = 0
        if w <= 0:
            raise ValidationError(f"support weights must be positive, not {weight!r}")
        self.rooted = rooted
        self.weight = w
        self._codes = {}

    def ball_code(self, r: int | None) -> CanonicalCode:
        """Code of the radius-``r`` ball at the root (the whole complex when
        ``r`` is None), computed once and read from the rooted complex
        without cutting the ball.  ``r`` is checked before the memo is read."""
        if r is not None:
            r = _check_int(r, "ball radius")
        code = self._codes.get(r)
        if code is None:
            rc = self.rooted
            code = self._codes[r] = _ball_codes(rc.complex, rc.root, (r,))[0]
        return code

    def _code_radii(self, radii) -> None:
        """Memoize the ball codes of the ascending ``radii``: those missing
        all come from one ball (:func:`encoding._ball_codes`)."""
        missing = [r for r in radii if r not in self._codes]
        if missing:
            rc = self.rooted
            self._codes.update(
                zip(missing, _ball_codes(rc.complex, rc.root, missing)))

    def __repr__(self) -> str:
        return f"SupportPoint(root={self.rooted.root}, weight={self.weight})"


class RandomRootedComplex:
    """Finitely supported probability law on rooted isomorphism classes;
    points of one class count as one point of their summed weight."""

    __slots__ = ("points",)

    def __init__(self, points):
        points = tuple(points)
        if not points:
            raise ValidationError("a law needs at least one support point")
        total = sum((pt.weight for pt in points), _ZERO)
        if total != 1:
            raise ValidationError(f"support weights sum to {total}, not 1")
        self.points = points

    @classmethod
    def point_mass(cls, rooted: RootedComplex) -> "RandomRootedComplex":
        return cls((SupportPoint(rooted, Fraction(1)),))

    def validate(self) -> None:
        """Full check: weights were verified on construction; here no two
        points may share a class, decided by search, not by codes."""
        pairs = [(pt.rooted.complex, pt.rooted.root) for pt in self.points]
        if len(set(_root_classes(pairs))) != len(pairs):
            raise ValidationError("two support points share an isomorphism class")

    def expect(self, fn):
        """Weighted sum of ``fn(point)`` over the support."""
        return sum(pt.weight * fn(pt) for pt in self.points)

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"RandomRootedComplex({len(self.points)} support points)"


def uniform_rooting(cx: SimplicialComplex) -> RandomRootedComplex:
    """Root ``cx`` at a uniform vertex, in its component (each cut once),
    and group roots by isomorphism search (:func:`encoding._root_classes`):
    each class is its smallest root, weighted by its share of roots."""
    n = _check_nonempty(cx, "uniform rooting")
    comp_of = _component_map(cx)
    pairs = [(comp_of[v], v) for v in cx.vertices]
    return RandomRootedComplex(
        SupportPoint(RootedComplex(*pairs[i]), Fraction(count, n))
        for i, count in Counter(_root_classes(pairs)).items())


class BallDistribution(dict):
    """Probability map from canonical radius-``r`` ball codes to weights."""

    __slots__ = ("radius",)

    def __init__(self, radius: int, probs):
        super().__init__(probs)
        self.radius = _check_int(radius, "ball radius")

    def validate(self) -> None:
        if sum(self.values(), _ZERO) != 1:
            raise ValidationError("ball distribution weights must sum to 1")
        if min(self.values()) <= 0:
            raise ValidationError("ball distribution weights must be positive")
        for code in self:
            rc = code.decode()
            if _ball_codes(rc.complex, rc.root, (self.radius,))[0] != code:
                raise ValidationError(
                    f"key is not a radius-{self.radius} ball: {code}")


def _integer_weights(weights) -> tuple:
    """(D, [w * D for each weight w]): D the lcm of the weights'
    denominators, so every scaled weight is an integer and a sum of weights
    is one integer over D."""
    weights = list(weights)
    d = math.lcm(*[w.denominator for w in weights])
    return d, [w.numerator * (d // w.denominator) for w in weights]


def _code_sums(weighted, r: int) -> dict:
    """Integer weight per radius-``r`` ball code over (point, weight) pairs."""
    sums = {}
    for pt, w in weighted:
        code = pt.ball_code(r)
        sums[code] = sums.get(code, 0) + w
    return sums


def ball_distribution(mu: RandomRootedComplex, r: int) -> BallDistribution:
    """Law of the radius-``r`` ball at the root, keyed by canonical code.

    Codes come from :meth:`SupportPoint.ball_code`, so a law's ball at a
    radius is coded once, from its parent complex, however often it is
    asked for.  Weights are summed per code as integers over the lcm of
    their denominators, and each code's sum becomes one fraction.
    """
    # ball_code would take r = None as the whole complex
    r = _check_int(r, "ball radius")
    d, weights = _integer_weights(pt.weight for pt in mu.points)
    sums = _code_sums(zip(mu.points, weights), r)
    return BallDistribution(r, {code: Fraction(w, d) for code, w in sums.items()})


def measure_distance(mu: RandomRootedComplex, nu: RandomRootedComplex,
                     rmax: int) -> Fraction:
    """Sum over r <= rmax of 2^-r times the TV gap between ball laws.

    No ball law is built: with D the lcm of both laws' weight
    denominators, each radius sums the integer weights w * D per code, +
    for ``mu`` and - for ``nu``, and its gap g_r is the sum of their
    absolute values, so the distance is Σ g_r 2^(rmax-r) / (D 2^(rmax+1)).
    g_0 = 0, as every 0-ball is the root alone, and past N, the largest
    vertex count of a support complex, every ball is its whole component.
    So balls are coded for r = 1..R, R = min(rmax, N), and the rest of the
    sum is g_R (2^(rmax-R) - 1).  Support points memoize their codes, so
    measuring many laws against one codes each of its balls once, and a
    point reads the radii it lacks in 1..R from one ball.
    """
    rmax = _check_int(rmax, "rmax")
    points = mu.points + nu.points
    split = len(mu.points)
    d, weights = _integer_weights(pt.weight for pt in points)
    signed = list(zip(points, weights[:split] + [-w for w in weights[split:]]))
    reach = min(rmax, max(len(pt.rooted.complex.faces(0)) for pt in points))
    for pt in points:
        pt._code_radii(range(1, reach + 1))
    total = gap = 0
    for r in range(1, reach + 1):
        gap = sum(map(abs, _code_sums(signed, r).values()))
        total += gap << (rmax - r)
    total += gap * ((1 << (rmax - reach)) - 1)
    return Fraction(total, d << (rmax + 1))


class MassTransportResult(NamedTuple):
    """Sent and received expectations, and whether they are equal."""

    lhs: Fraction
    rhs: Fraction
    passed: bool


def mass_transport_check(mu: RandomRootedComplex, fn) -> MassTransportResult:
    """Compare expected mass sent from the root against mass received by it.

    ``fn(cx, x, y)`` must depend only on the isomorphism class of
    ``(cx, x, y)``.  For laws given by uniform rooting the two sides agree
    exactly; a skewed root distribution can break the identity.  Weights
    are exact, so the check passes only when the sides are equal.
    """
    lhs = mu.expect(lambda pt: sum(fn(pt.rooted.complex, pt.rooted.root, y)
                                   for y in pt.rooted.complex.vertices))
    rhs = mu.expect(lambda pt: sum(fn(pt.rooted.complex, x, pt.rooted.root)
                                   for x in pt.rooted.complex.vertices))
    return MassTransportResult(lhs, rhs, lhs == rhs)


def standard_battery():
    """Named isomorphism-invariant transport functions for identity checks.

    The distance functions share one search per (complex, vertex), read
    from either end of a pair, so a transport check searches once per root.
    """
    searched = {}

    def distance(cx, x, y):
        if (cx, y) in searched:
            return searched[cx, y].get(x)
        if (cx, x) not in searched:
            searched[cx, x] = cx.distances(x)
        return searched[cx, x].get(y)

    def same_vertex(cx, x, y):
        return 1 if x == y else 0

    def degree_at_self(cx, x, y):
        return cx.degree(x) if x == y else 0

    def adjacency(cx, x, y):
        return 1 if y in cx.neighbors(x) else 0

    def adjacency_times_far_degree(cx, x, y):
        return cx.degree(y) if y in cx.neighbors(x) else 0

    def adjacency_uphill(cx, x, y):
        return 1 if y in cx.neighbors(x) and cx.degree(x) > cx.degree(y) else 0

    def adjacency_min_degree(cx, x, y):
        return min(cx.degree(x), cx.degree(y)) if y in cx.neighbors(x) else 0

    def adjacency_to_degree_two(cx, x, y):
        return 1 if y in cx.neighbors(x) and cx.degree(y) == 2 else 0

    def common_neighbors(cx, x, y):
        if y not in cx.neighbors(x):
            return 0
        return len(set(cx.neighbors(x)) & set(cx.neighbors(y)))

    def shared_triangles(cx, x, y):
        if y not in cx.neighbors(x):
            return 0
        return sum(1 for s in cx.star(x) if len(s) == 3 and y in s)

    def at_distance_two(cx, x, y):
        return 1 if distance(cx, x, y) == 2 else 0

    def inverse_distance(cx, x, y):
        d = distance(cx, x, y)
        return _ZERO if d is None else Fraction(1, 1 + d)

    def nearby_triangle_degree(cx, x, y):
        d = distance(cx, x, y)
        return cx.p_degree(y, 2) if d is not None and d <= 2 else 0

    return tuple((fn.__name__, fn) for fn in (
        same_vertex, degree_at_self, adjacency, adjacency_times_far_degree,
        adjacency_uphill, adjacency_min_degree, adjacency_to_degree_two,
        common_neighbors, shared_triangles, at_distance_two, inverse_distance,
        nearby_triangle_degree))


def non_unimodular_example():
    """A law and a transport function for which the identity fails.

    A three-vertex path rooted always at an end sends mass 1 to its
    degree-two center but, having degree one itself, receives none.
    """
    path = SimplicialComplex.closure([(0, 1), (1, 2)])
    mu = RandomRootedComplex.point_mass(RootedComplex(path, 0))
    return mu, dict(standard_battery())["adjacency_to_degree_two"]


def degree_truncate(cx: SimplicialComplex, max_deg: int) -> SimplicialComplex:
    """Delete edges until every vertex degree is at most ``max_deg``.

    Deterministic greedy rule, re-evaluated after every deletion: pick the
    lowest-numbered vertex of maximum degree, detach it from its
    lowest-numbered neighbor of maximum degree, and drop every simplex
    containing that edge.  Vertices are never removed, so truncation can
    leave isolated vertices behind.  A deletion removes no other edge, so
    the rule runs on the graph alone and the complex is built once.
    """
    max_deg = _check_int(max_deg, "degree bound")
    if cx.max_degree() <= max_deg:
        return cx
    nbrs = {v: set(cx.neighbors(v)) for v in cx.vertices}

    def rank(w):  # maximum degree first, then the lowest-numbered vertex
        return -len(nbrs[w]), w

    heap = sorted(map(rank, nbrs))  # a sorted list is a heap
    deleted = set()
    while True:
        top = heappop(heap)
        v = top[1]
        if top != rank(v):
            continue  # stale: v has lost an edge since
        if -top[0] <= max_deg:
            break
        u = min(nbrs[v], key=rank)
        for a, b in ((v, u), (u, v)):
            nbrs[a].remove(b)
            heappush(heap, rank(a))
        deleted.add((v, u) if v < u else (u, v))
    return SimplicialComplex._from_faces(
        [[s for s in cx.faces(p) if deleted.isdisjoint(combinations(s, 2))]
         for p in range(cx.dim + 1)])


def expected_p_degree(mu: RandomRootedComplex, p: int) -> Fraction:
    """Mean number of p-simplices containing the root."""
    p = _check_int(p, "dimension")
    return mu.expect(lambda pt: pt.rooted.p_degree(p))
