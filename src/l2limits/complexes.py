"""Finite abstract simplicial complexes and rooted variants.

A complex is stored as its simplices grouped by dimension, each group a
sorted tuple, with the star and neighbours of every vertex; a simplex is a
sorted tuple of distinct integer vertices.  Instances are immutable and
hashable, so they are safe to share across threads and to use as cache keys.
"""

from __future__ import annotations

import operator

from itertools import chain, combinations

from .errors import MalformedInputError, ValidationError

__all__ = [
    "SimplicialComplex",
    "RootedComplex",
    "rooted_at",
]


def _as_simplex(vertices) -> tuple:
    try:
        simplex = tuple(sorted(operator.index(v) for v in vertices))
    except TypeError:
        raise MalformedInputError(f"vertex ids must be integers: {vertices!r}")
    if len(simplex) == 0:
        raise MalformedInputError("empty simplex")
    if len(set(simplex)) != len(simplex):
        raise MalformedInputError(f"duplicate vertices inside one simplex: {vertices!r}")
    # ids become bit positions in the subset encoding, so they must be >= 0
    if simplex[0] < 0:
        raise MalformedInputError(f"vertex ids must be nonnegative: {vertices!r}")
    return simplex


class SimplicialComplex:
    """Immutable finite abstract simplicial complex on integer vertices."""

    __slots__ = ("_by_dim", "_star", "_neighbors", "_hash", "_connected")

    def __init__(self, simplices):
        """Build from an iterable of simplices that is already downward closed.

        Use :meth:`closure` to build from maximal simplices.  Raises
        ``ValidationError`` if some face of a listed simplex is missing.
        """
        groups: list[set] = []
        for raw in simplices:
            s = _as_simplex(raw)
            while len(groups) < len(s):
                groups.append(set())
            groups[len(s) - 1].add(s)
        for p in range(1, len(groups)):
            for s in groups[p]:
                for face in combinations(s, p):
                    if face not in groups[p - 1]:
                        raise ValidationError(f"missing face {face} of simplex {s}")
        self._build(groups)

    @classmethod
    def _from_faces(cls, groups) -> "SimplicialComplex":
        """Trusted fast path: the list ``groups`` holds at ``p`` the distinct
        normalized p-simplices, in any order, and together they are downward
        closed.  The list is consumed: each group becomes its sorted tuple."""
        cx = object.__new__(cls)
        cx._build(groups)
        return cx

    def _build(self, by_dim: list) -> None:
        # Groups, stars and neighbour lists are each swapped for a tuple in
        # place, so each is freed as its tuple is made and the peak stays
        # near the finished complex's size.
        for p, group in enumerate(by_dim):
            by_dim[p] = tuple(sorted(group))
        while by_dim and not by_dim[-1]:
            by_dim.pop()
        # Stars read the sorted faces, so each is in (dimension, lexicographic)
        # order and filtering keeps that order.  Vertices come first, so they
        # key the stars in ascending order.
        star: dict[int, list[tuple]] = {}
        for group in by_dim:
            for s in group:
                for v in s:
                    star.setdefault(v, []).append(s)
        neighbors: dict[int, list[int]] = {v: [] for v in star}
        for u, w in by_dim[1] if len(by_dim) > 1 else ():
            neighbors[u].append(w)
            neighbors[w].append(u)
        for v, group in star.items():
            star[v] = tuple(group)
        for v, ns in neighbors.items():
            ns.sort()
            neighbors[v] = tuple(ns)
        self._fill(tuple(by_dim), star, neighbors)

    def _fill(self, by_dim, star, neighbors) -> None:
        self._by_dim = by_dim
        self._star = star
        self._neighbors = neighbors
        self._hash = None
        self._connected = None

    @classmethod
    def closure(cls, maximal) -> "SimplicialComplex":
        """The smallest simplicial complex containing every listed simplex."""
        groups: list[set] = []
        for raw in maximal:
            simplex = _as_simplex(raw)
            while len(groups) < len(simplex):
                groups.append(set())
            if simplex in groups[len(simplex) - 1]:
                continue
            for size in range(1, len(simplex) + 1):
                groups[size - 1].update(combinations(simplex, size))
        return cls._from_faces(groups)

    # -- basic queries ------------------------------------------------------

    @property
    def simplices(self) -> frozenset:
        """Every simplex, built on each call from the sorted faces."""
        return frozenset(chain.from_iterable(self._by_dim))

    @property
    def vertices(self) -> tuple:
        return tuple(s[0] for s in self.faces(0))

    @property
    def dim(self) -> int:
        """Dimension; -1 for the empty complex."""
        return len(self._by_dim) - 1

    def faces(self, p: int) -> tuple:
        """All p-simplices, as a sorted tuple."""
        if 0 <= p < len(self._by_dim):
            return self._by_dim[p]
        return ()

    def f_vector(self) -> tuple:
        return tuple(len(group) for group in self._by_dim)

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * count for p, count in enumerate(self.f_vector()))

    def maximal_simplices(self) -> tuple:
        """Simplices that are not a face of any larger simplex, sorted."""
        maximal = []
        for s in chain.from_iterable(self._by_dim):
            cofaces = self._star[s[0]]
            if not any(len(t) > len(s) and set(s) <= set(t) for t in cofaces):
                maximal.append(s)
        return tuple(sorted(maximal))

    def star(self, v: int) -> tuple:
        """All simplices containing the vertex v."""
        return self._star.get(v, ())

    def neighbors(self, v: int) -> tuple:
        return self._neighbors.get(v, ())

    def degree(self, v: int) -> int:
        """Number of edges containing v."""
        return len(self._neighbors.get(v, ()))

    def p_degree(self, v: int, p: int) -> int:
        """Number of p-simplices containing v."""
        return sum(1 for s in self._star.get(v, ()) if len(s) == p + 1)

    def max_degree(self) -> int:
        if not self._neighbors:
            return 0
        return max(len(ns) for ns in self._neighbors.values())

    def has_vertex(self, v: int) -> bool:
        return v in self._star

    # -- metric structure ---------------------------------------------------

    def distances(self, root: int) -> dict:
        """Graph distances from root along the 1-skeleton, in search order."""
        return _bfs(self, root)

    def is_connected(self) -> bool:
        # the complex is immutable, so one search answers for its lifetime
        if self._connected is None:
            verts = self._star
            self._connected = (not verts or
                               len(self.distances(next(iter(verts)))) == len(verts))
        return self._connected

    def components(self) -> tuple:
        """Vertex sets of the connected components, sorted by smallest vertex."""
        seen: set[int] = set()
        comps = []
        for v in self.vertices:
            if v in seen:
                continue
            comp = frozenset(self.distances(v))
            seen.update(comp)
            comps.append(comp)
        return tuple(comps)

    def induced(self, vertex_subset) -> "SimplicialComplex":
        """Full subcomplex on the given vertices.

        Built from this complex's sorted structures: a kept vertex whose
        neighbours are all kept shares its star and neighbour tuples, and
        only the stars of the boundary layer are filtered, in order.
        """
        keep = frozenset(vertex_subset)
        all_stars = self._star
        all_neighbors = self._neighbors
        star = {}
        neighbors = {}
        by_dim: list[list[tuple]] = [[] for _ in self._by_dim]
        for v in sorted(v for v in keep if v in all_stars):
            group = all_stars[v]
            ns = all_neighbors[v]
            if not keep.issuperset(ns):
                group = tuple([s for s in group if keep.issuperset(s)])
                ns = tuple([w for w in ns if w in keep])
            star[v] = group
            neighbors[v] = ns
            # a simplex is met once, in the star of its smallest vertex; with
            # vertices ascending and stars sorted, each dimension comes sorted
            for s in [s for s in group if s[0] == v]:
                by_dim[len(s) - 1].append(s)
        while by_dim and not by_dim[-1]:
            by_dim.pop()
        sub = object.__new__(SimplicialComplex)
        sub._fill(tuple(tuple(group) for group in by_dim), star, neighbors)
        return sub

    # -- dunder surface -----------------------------------------------------

    def __contains__(self, simplex) -> bool:
        simplex = tuple(sorted(simplex))
        return bool(simplex) and simplex in self._star.get(simplex[0], ())

    def __len__(self) -> int:
        return sum(self.f_vector())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._by_dim == other._by_dim

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._by_dim)
        return self._hash

    def __repr__(self) -> str:
        return f"SimplicialComplex(f_vector={self.f_vector()})"


class RootedComplex:
    """A connected simplicial complex with a distinguished root vertex."""

    __slots__ = ("complex", "root", "_hash")

    def __init__(self, complex: SimplicialComplex, root: int):
        if not complex.has_vertex(root):
            raise ValidationError(f"root {root} is not a vertex")
        if not complex.is_connected():
            raise ValidationError("rooted complex must be connected")
        self.complex = complex
        self.root = root
        self._hash = None

    @classmethod
    def _make(cls, complex: SimplicialComplex, root: int) -> "RootedComplex":
        # Trusted fast path: caller guarantees root membership and connectivity.
        rc = object.__new__(cls)
        rc.complex = complex
        rc.root = root
        rc._hash = None
        return rc

    def ball(self, r: int) -> "RootedComplex":
        """Closed ball: the subcomplex induced by vertices at distance <= r.

        A ball that already holds every vertex is rooted in this complex.
        """
        if r < 0:
            raise ValidationError("ball radius must be nonnegative")
        cx = self.complex
        inside = _bfs(cx, self.root, r)
        if len(inside) == len(cx.faces(0)):
            return RootedComplex._make(cx, self.root)
        return RootedComplex._make(cx.induced(inside), self.root)

    def p_degree(self, p: int) -> int:
        return self.complex.p_degree(self.root, p)

    def eccentricity(self) -> int:
        return max(self.complex.distances(self.root).values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootedComplex):
            return NotImplemented
        return self.root == other.root and self.complex == other.complex

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.complex, self.root))
        return self._hash

    def __repr__(self) -> str:
        return f"RootedComplex(root={self.root}, f_vector={self.complex.f_vector()})"


def _bfs(cx: SimplicialComplex, root: int, radius=None) -> dict:
    """Distances from ``root`` along the 1-skeleton, up to ``radius`` if set.

    The package's one breadth-first search.  The dict's insertion order is
    the search order, layer by layer with each vertex's neighbours in
    ascending order; the isomorphism search takes its vertex order from
    it.  A negative ``radius`` never matches a layer, so the search covers
    the root's whole component; callers that take a radius reject one
    below 0 first.
    """
    dist = {root: 0}
    frontier = [root]
    neighbors = cx._neighbors
    d = 0
    while frontier and d != radius:
        d += 1
        nxt = []
        for u in frontier:
            for w in neighbors.get(u, ()):
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def rooted_at(cx: SimplicialComplex, root: int) -> RootedComplex:
    """Root ``cx`` at a vertex, restricting to that vertex's component."""
    if not cx.has_vertex(root):
        raise ValidationError(f"root {root} is not a vertex")
    if cx.is_connected():
        return RootedComplex._make(cx, root)
    return RootedComplex._make(cx.induced(cx.distances(root)), root)
