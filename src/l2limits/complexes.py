"""Finite abstract simplicial complexes and rooted variants.

A complex is stored as its simplices grouped by dimension, each group a
sorted tuple, with the star and neighbours of every vertex; a simplex is a
sorted tuple of distinct integer vertices.  Instances are immutable and
hashable, so they are safe to share across threads and to use as cache keys.
"""

from __future__ import annotations

import operator

from itertools import chain, combinations, repeat

from .errors import MalformedInputError, ValidationError, _check_int

__all__ = [
    "SimplicialComplex",
    "RootedComplex",
    "rooted_at",
]


def _as_simplex(vertices) -> tuple:
    # A tuple that is already normalized is returned as it is, so a complex
    # built from another complex's faces shares that complex's tuples.
    if (type(vertices) is tuple and {*map(type, vertices)} == {int}
            and vertices[0] >= 0 and all(map(operator.lt, vertices, vertices[1:]))):
        return vertices
    try:
        simplex = tuple(sorted(map(operator.index, vertices)))
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


def _grouped(simplices) -> list[set]:
    """The normalized ``simplices``, one set per dimension up to the top."""
    groups: list[set] = []
    for s in simplices:
        while len(groups) < len(s):
            groups.append(set())
        groups[len(s) - 1].add(s)
    return groups


class SimplicialComplex:
    """Immutable finite abstract simplicial complex on integer vertices."""

    __slots__ = ("_by_dim", "_star", "_neighbors", "_hash", "_connected")

    def __init__(self, simplices):
        """Build from an iterable of simplices that is already downward closed.

        Use :meth:`closure` to build from maximal simplices.  Raises
        ``ValidationError`` if some face of a listed simplex is missing.
        """
        groups = _grouped(map(_as_simplex, simplices))
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
        """The one layout of every complex: sorted faces per dimension, stars
        in (dimension, lexicographic) order and sorted neighbours.  Each
        group, star and neighbour list is swapped for its tuple in place, so
        the peak stays near the finished complex's size."""
        for p, group in enumerate(by_dim):
            by_dim[p] = tuple(sorted(group))
        while by_dim and not by_dim[-1]:
            by_dim.pop()
        # Stars read the sorted faces, so each is in (dimension, lexicographic)
        # order, and the vertices, read first, key them in ascending order.
        star = {s[0]: [s] for s in by_dim[0]} if by_dim else {}
        for group in by_dim[1:]:
            for s in group:
                for v in s:
                    star[v].append(s)
        neighbors: dict[int, list[int]] = {v: [] for v in star}
        for u, w in by_dim[1] if len(by_dim) > 1 else ():
            neighbors[u].append(w)
            neighbors[w].append(u)
        for v, group in star.items():
            star[v] = tuple(group)
        for v, ns in neighbors.items():
            ns.sort()
            neighbors[v] = tuple(ns)
        self._by_dim = tuple(by_dim)
        self._star = star
        self._neighbors = neighbors
        self._hash = None
        self._connected = None

    @classmethod
    def closure(cls, maximal) -> "SimplicialComplex":
        """The smallest simplicial complex containing every listed simplex.

        The faces are added one dimension at a time, from the top down, so
        each face is made once per simplex one dimension above it; a face
        that is listed keeps its listed tuple.
        """
        groups = _grouped(map(_as_simplex, maximal))
        for p in range(len(groups) - 1, 1, -1):
            groups[p - 1].update(chain.from_iterable(
                map(combinations, groups[p], repeat(p))))
        if len(groups) > 1:
            groups[0].update((v,) for v in set(chain.from_iterable(groups[1])))
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
        p = _check_int(p, "dimension")
        return sum(1 for s in self._star.get(v, ()) if len(s) == p + 1)

    def max_degree(self) -> int:
        return max(map(len, self._neighbors.values()), default=0)

    def has_vertex(self, v) -> bool:
        try:
            return v in self._star
        except TypeError:  # an unhashable value is no vertex
            return False

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
        """Full subcomplex on the given vertices (other ids are ignored):
        each kept simplex is taken from the star of its first vertex, and
        :meth:`_from_faces` lays the groups out."""
        keep = frozenset(vertex_subset)
        groups: list[list] = [[] for _ in self._by_dim]
        for v in keep:
            for s in self._star.get(v, ()):
                if s[0] == v and keep.issuperset(s):
                    groups[len(s) - 1].append(s)
        return SimplicialComplex._from_faces(groups)

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

    __slots__ = ("complex", "root")

    def __init__(self, complex: SimplicialComplex, root: int):
        if not complex.has_vertex(root):
            raise ValidationError(f"root {root} is not a vertex")
        if not complex.is_connected():
            raise ValidationError("rooted complex must be connected")
        self.complex = complex
        self.root = _check_int(root, "root")

    def ball(self, r: int) -> "RootedComplex":
        """Closed ball: the subcomplex induced by vertices at distance <= r.

        A ball that already holds every vertex is rooted in this complex.
        """
        cx = self.complex
        inside = _bfs(cx, self.root, _check_int(r, "ball radius"))
        if len(inside) < len(cx.faces(0)):
            cx = _connected_cut(cx, inside)
        return RootedComplex(cx, self.root)

    def p_degree(self, p: int) -> int:
        return self.complex.p_degree(self.root, p)

    def eccentricity(self) -> int:
        return max(self.complex.distances(self.root).values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootedComplex):
            return NotImplemented
        return self.root == other.root and self.complex == other.complex

    def __hash__(self) -> int:
        return hash((self.complex, self.root))

    def __repr__(self) -> str:
        return f"RootedComplex(root={self.root}, f_vector={self.complex.f_vector()})"


def _bfs(cx: SimplicialComplex, root: int, radius=None) -> dict:
    """Distances from ``root`` along the 1-skeleton, up to ``radius`` if set.

    The package's one breadth-first search.  The dict's insertion order is
    the search order, layer by layer with each vertex's neighbours in
    ascending order; the isomorphism search takes its vertex order from
    it.  A ``radius`` that is negative or not an integer never matches a
    layer, so the search covers the root's whole component; callers that
    take a radius refuse such a one first, with :func:`errors._check_int`.
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


def _connected_cut(cx: SimplicialComplex, inside) -> SimplicialComplex:
    """The full subcomplex on ``inside``, a connected vertex set (a ball or a
    component), recorded as connected so rooting it runs no search."""
    sub = cx.induced(inside)
    sub._connected = True
    return sub


def _component_map(cx: SimplicialComplex) -> dict:
    """Each vertex's component: ``cx`` itself when it is connected, else
    each component cut once."""
    if cx.is_connected():
        return dict.fromkeys(cx._star, cx)
    return {v: sub for comp in cx.components()
            for sub in [_connected_cut(cx, comp)] for v in comp}


def rooted_at(cx: SimplicialComplex, root: int) -> RootedComplex:
    """Root ``cx`` at a vertex, in that vertex's component, cut once."""
    if cx.has_vertex(root) and not cx.is_connected():
        cx = _connected_cut(cx, cx.distances(_check_int(root, "root")))
    return RootedComplex(cx, root)
