"""Complex families used throughout: tori, random models, and small fixtures.

All randomness flows through numpy's seedable PCG64 generator
(``np.random.default_rng(seed)``); generation is a pure function of its
parameters and seed.
"""
from __future__ import annotations

from itertools import combinations
from numbers import Real

from .complexes import SimplicialComplex
from .errors import ValidationError, _check_int

__all__ = [
    "torus_tower",
    "linial_meshulam",
    "random_flag",
    "fixtures",
]


def torus_tower(d: int, n: int) -> SimplicialComplex:
    """Level-n quotient of the standard Z^d lattice triangulation.

    d=1 gives the n-cycle.  d=2 gives the diagonal triangulation of the
    n x n torus: vertex (i,j) is numbered i*n+j, each unit square is split
    along its (+1,+1) diagonal, so there are n^2 vertices, 3n^2 edges and
    2n^2 triangles and every vertex has degree 6.
    """
    if _check_int(n, "side length") < 3:
        raise ValidationError("side length below 3 does not quotient simplicially")
    if _check_int(d, "torus dimension") not in (1, 2):
        raise ValidationError("only dimensions 1 and 2 are generated")
    # The faces are listed in closed form, each once, and every face holds
    # the one int object of each of its vertices.
    ids = list(range(n ** d))
    vertices = [(v,) for v in ids]
    if d == 1:
        return SimplicialComplex._from_faces(
            [vertices, [(ids[0], ids[-1])] + list(zip(ids, ids[1:]))])
    edges = []
    triangles = []
    for i in range(n):
        row, up = i * n, (i + 1) % n * n
        for j in range(n):
            k = (j + 1) % n
            # the unit square a = (i, j), b = (i+1, j), c = (i+1, j+1), d = (i, j+1)
            a, b, c, d_ = ids[row + j], ids[up + j], ids[up + k], ids[row + k]
            edges += [_pair(a, b), _pair(a, c), _pair(a, d_)]
            triangles += [tuple(sorted((a, b, c))), tuple(sorted((a, d_, c)))]
    return SimplicialComplex._from_faces([vertices, edges, triangles])


def _pair(u: int, w: int) -> tuple:
    return (u, w) if u < w else (w, u)


def linial_meshulam(d: int, n: int, prob: float, seed: int) -> SimplicialComplex:
    """Full (d-1)-skeleton on n vertices plus independent random d-faces."""
    if _check_int(d, "face dimension") < 1:
        raise ValidationError("face dimension must be at least 1")
    if _check_int(n, "vertex count") < d + 1:
        raise ValidationError(f"need at least {d + 1} vertices")
    if not (isinstance(prob, Real) and 0 <= prob <= 1):
        raise ValidationError(f"probability must lie in [0, 1], not {prob!r}")
    seed = _check_int(seed, "seed")
    import numpy as np

    rng = np.random.default_rng(seed)
    ids = list(range(n))
    groups = [list(combinations(ids, k)) for k in range(1, d + 1)]
    groups.append([face for face in combinations(ids, d + 1) if rng.random() < prob])
    return SimplicialComplex._from_faces(groups)


def random_flag(n: int, prob: float, max_dim: int, seed: int) -> SimplicialComplex:
    """Clique complex of a G(n, prob) graph, truncated at max_dim."""
    if _check_int(n, "vertex count") < 1:
        raise ValidationError("need at least one vertex")
    if not (isinstance(prob, Real) and 0 <= prob <= 1):
        raise ValidationError(f"probability must lie in [0, 1], not {prob!r}")
    seed = _check_int(seed, "seed")
    if _check_int(max_dim, "max_dim") < 1:
        raise ValidationError("flag completion starts at dimension 1")
    import numpy as np

    rng = np.random.default_rng(seed)
    adj = {v: set() for v in range(n)}
    layer = []
    for u, v in combinations(range(n), 2):
        if rng.random() < prob:
            adj[u].add(v)
            adj[v].add(u)
            layer.append((u, v))
    groups = [[(v,) for v in range(n)], layer]
    # grow cliques one vertex at a time, always extending past the maximum
    while layer and len(groups) <= max_dim:
        layer = [s + (w,) for s in layer
                 for w in sorted(set.intersection(*(adj[v] for v in s)))
                 if w > s[-1]]
        groups.append(layer)
    return SimplicialComplex._from_faces(groups)


def fixtures() -> dict:
    """The small named complexes used as the exact-value corpus."""
    octa_triangles = [(a, b, c) for a in (0, 3) for b in (1, 4) for c in (2, 5)]
    book_triangles = [(0, 1, 2), (0, 1, 3)]
    return {
        "single_vertex": SimplicialComplex.closure([(0,)]),
        "edge": SimplicialComplex.closure([(0, 1)]),
        "path3": SimplicialComplex.closure([(0, 1), (1, 2)]),
        "path4": SimplicialComplex.closure([(0, 1), (1, 2), (2, 3)]),
        "star5": SimplicialComplex.closure([(0, i) for i in range(1, 6)]),
        "cycle5": torus_tower(1, 5),
        "cycle6": torus_tower(1, 6),
        "hollow_triangle": SimplicialComplex.closure([(0, 1), (1, 2), (0, 2)]),
        "filled_triangle": SimplicialComplex.closure([(0, 1, 2)]),
        "two_triangles": SimplicialComplex.closure(
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
        "book": SimplicialComplex.closure(book_triangles),
        "tetrahedron_boundary": SimplicialComplex.closure(
            list(combinations(range(4), 3))),
        "solid_tetrahedron": SimplicialComplex.closure([(0, 1, 2, 3)]),
        "octahedron": SimplicialComplex.closure(octa_triangles),
        "torus4": torus_tower(2, 4),
    }
