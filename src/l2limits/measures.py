"""Random rooted complexes: finite-support laws on rooted isomorphism classes.

A law is stored as a list of support points, each a rooted complex with a
positive rational weight; weights sum to one.  Support points are pairwise
non-isomorphic as rooted complexes, so every isomorphism class appears at
most once and expectations are plain weighted sums.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations

from .complexes import RootedComplex, SimplicialComplex
from .encoding import CanonicalCode, _ball_code, _IsoContext, _search
from .errors import ValidationError

__all__ = [
    "SupportPoint",
    "RandomRootedComplex",
    "uniform_rooting",
    "BallDistribution",
    "ball_distribution",
    "total_variation",
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

    __slots__ = ("rooted", "weight", "_ball_codes")

    def __init__(self, rooted: RootedComplex, weight):
        weight = Fraction(weight)
        if weight <= 0:
            raise ValidationError("support weights must be positive")
        self.rooted = rooted
        self.weight = weight
        self._ball_codes = {}

    @property
    def code(self) -> CanonicalCode:
        # computed on demand: whole-complex canonicalization can be costly
        return self.ball_code(None)

    def ball_code(self, r: int | None) -> CanonicalCode:
        """Code of the radius-``r`` ball at the root (the whole complex when
        ``r`` is None), computed once and read from the rooted complex
        without cutting the ball."""
        code = self._ball_codes.get(r)
        if code is None:
            rc = self.rooted
            code = self._ball_codes[r] = _ball_code(rc.complex, rc.root, r)
        return code

    def __repr__(self) -> str:
        return f"SupportPoint(root={self.rooted.root}, weight={self.weight})"


class RandomRootedComplex:
    """Finitely supported probability law on rooted isomorphism classes."""

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
        """Full check: weights already verified, here codes must be distinct."""
        codes = [pt.code for pt in self.points]
        if len(set(codes)) != len(codes):
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
    """Root ``cx`` at a uniform vertex and group roots by isomorphism class.

    Rooting lands in the root's connected component.  Classes are found by
    explicit isomorphism search rather than by canonicalizing every rooted
    copy, and a search runs only between roots with the same fingerprint:
    component size, f-vector and refined vertex colour.  Unequal
    fingerprints prove two roots non-isomorphic, so on complexes without
    symmetry colours alone separate the classes and no search runs.  Each
    successful search yields a whole vertex bijection, and merging
    ``z ~ map(z)`` for every ``z`` collapses entire automorphism orbits at
    once; on vertex-transitive inputs a handful of searches classify all
    roots.
    """
    verts = cx.vertices
    if not verts:
        raise ValidationError("cannot root an empty complex")
    comps = ((cx,) if cx.is_connected()
             else tuple(cx.induced(c) for c in cx.components()))
    ctx_of = {}
    for comp in comps:
        ctx = _IsoContext(comp)
        for v in ctx.verts:
            ctx_of[v] = ctx

    parent = {v: v for v in verts}

    def find(v):
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    # A representative is the first vertex of its class and stays the root
    # of its union-find tree, so "already classified" is a set lookup.
    reps = set()
    reps_by_print = {}
    for v in verts:
        if find(v) in reps:
            continue
        ctx = ctx_of[v]
        candidates = reps_by_print.setdefault(
            (ctx.n, ctx.fvec, ctx.colors[ctx.idx[v]]), [])
        for r in candidates:
            vmap = _search(ctx_of[r], r, ctx, v)
            if vmap is not None:
                # vmap is a bijection from r's component onto v's sending r
                # to v; it identifies the class of every vertex it touches
                for z, w in vmap.items():
                    pa, pb = find(z), find(w)
                    if pa != pb:
                        if pb in reps:
                            pa, pb = pb, pa
                        parent[pb] = pa
                break
        else:
            reps.add(v)
            candidates.append(v)

    # every root is a representative, met first at its smallest vertex
    counts = {}
    for v in verts:
        root = find(v)
        counts[root] = counts.get(root, 0) + 1
    n = len(verts)
    points = [
        SupportPoint(RootedComplex._make(ctx_of[r].cx, r), Fraction(count, n))
        for r, count in counts.items()
    ]
    return RandomRootedComplex(points)


class BallDistribution(dict):
    """Probability map from canonical radius-``r`` ball codes to weights."""

    __slots__ = ("radius",)

    def __init__(self, radius: int, probs):
        super().__init__(probs)
        self.radius = radius

    def validate(self) -> None:
        if sum(self.values(), _ZERO) != 1:
            raise ValidationError("ball distribution weights must sum to 1")
        for code in self:
            rc = code.decode()
            if _ball_code(rc.complex, rc.root, self.radius) != code:
                raise ValidationError(
                    f"key is not a radius-{self.radius} ball: {code}")


def ball_distribution(mu: RandomRootedComplex, r: int) -> BallDistribution:
    """Law of the radius-``r`` ball at the root, keyed by canonical code.

    Codes come from :meth:`SupportPoint.ball_code`, so a law's ball at a
    radius is coded once, from its parent complex, however often it is
    asked for.
    """
    if r < 0:
        raise ValidationError("ball radius must be nonnegative")
    out = {}
    for pt in mu.points:
        code = pt.ball_code(r)
        out[code] = out.get(code, _ZERO) + pt.weight
    return BallDistribution(r, out)


def total_variation(p, q) -> Fraction:
    keys = set(p) | set(q)
    return sum((abs(p.get(k, _ZERO) - q.get(k, _ZERO)) for k in keys), _ZERO) / 2


def measure_distance(mu: RandomRootedComplex, nu: RandomRootedComplex,
                     rmax: int) -> Fraction:
    """Sum over r <= rmax of 2^-r times the TV gap between ball laws.

    The radius-0 term is always 0 (every 0-ball is the root alone), so ball
    laws are built, and balls coded, only for r = 1..rmax.  Support points
    memoize their ball codes, so measuring many laws against one codes
    each of its balls once.
    """
    if rmax < 0:
        raise ValidationError("rmax must be nonnegative")
    return sum((Fraction(1, 2 ** r) * total_variation(
        ball_distribution(mu, r), ball_distribution(nu, r))
        for r in range(1, rmax + 1)), _ZERO)


class MassTransportResult:
    """Sent/received expectations plus the verdict; unpacks as a triple."""

    __slots__ = ("lhs", "rhs", "passed")

    def __init__(self, lhs, rhs, tolerance: float):
        self.lhs = lhs
        self.rhs = rhs
        self.passed = abs(lhs - rhs) <= tolerance

    def __iter__(self):
        return iter((self.lhs, self.rhs, self.passed))

    def __repr__(self) -> str:
        return (f"MassTransportResult(lhs={self.lhs}, "
                f"rhs={self.rhs}, passed={self.passed})")


def mass_transport_check(mu: RandomRootedComplex, fn,
                         tolerance: float = 0) -> MassTransportResult:
    """Compare expected mass sent from the root against mass received by it.

    ``fn(cx, x, y)`` must depend only on the isomorphism class of
    ``(cx, x, y)``.  For laws given by uniform rooting the two sides agree
    exactly; a skewed root distribution can break the identity.  Weights
    are exact, so by default the check passes only when the sides are
    equal.
    """
    lhs = _ZERO
    rhs = _ZERO
    for pt in mu.points:
        cx = pt.rooted.complex
        root = pt.rooted.root
        lhs += pt.weight * sum(fn(cx, root, y) for y in cx.vertices)
        rhs += pt.weight * sum(fn(cx, x, root) for x in cx.vertices)
    return MassTransportResult(lhs, rhs, tolerance)


def _adjacent(cx: SimplicialComplex, x: int, y: int) -> bool:
    return y in cx.neighbors(x)


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
        return 1 if _adjacent(cx, x, y) else 0

    def adjacency_times_far_degree(cx, x, y):
        return cx.degree(y) if _adjacent(cx, x, y) else 0

    def adjacency_uphill(cx, x, y):
        return 1 if _adjacent(cx, x, y) and cx.degree(x) > cx.degree(y) else 0

    def adjacency_min_degree(cx, x, y):
        return min(cx.degree(x), cx.degree(y)) if _adjacent(cx, x, y) else 0

    def adjacency_to_degree_two(cx, x, y):
        return 1 if _adjacent(cx, x, y) and cx.degree(y) == 2 else 0

    def common_neighbors(cx, x, y):
        if not _adjacent(cx, x, y):
            return 0
        return len(set(cx.neighbors(x)) & set(cx.neighbors(y)))

    def shared_triangles(cx, x, y):
        if not _adjacent(cx, x, y):
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

    return (
        ("same_vertex", same_vertex),
        ("degree_at_self", degree_at_self),
        ("adjacency", adjacency),
        ("adjacency_times_far_degree", adjacency_times_far_degree),
        ("adjacency_uphill", adjacency_uphill),
        ("adjacency_min_degree", adjacency_min_degree),
        ("adjacency_to_degree_two", adjacency_to_degree_two),
        ("common_neighbors", common_neighbors),
        ("shared_triangles", shared_triangles),
        ("at_distance_two", at_distance_two),
        ("inverse_distance", inverse_distance),
        ("nearby_triangle_degree", nearby_triangle_degree),
    )


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
    if max_deg < 0:
        raise ValidationError("degree bound must be nonnegative")
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
    return mu.expect(lambda pt: pt.rooted.p_degree(p))
