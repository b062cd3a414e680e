"""Boundary operators, Hodge Laplacians, Betti numbers, spectral measures.

Two independent computation routes are kept deliberately separate: Betti
numbers come from exact rational ranks of the boundary operators, while
spectra come from a dense symmetric eigensolver.  The eigensolver never
sees Delta_p = d_p^T d_p + d_{p+1} d_{p+1}^T itself: the nonzero spectrum
of Delta_p is the union of those of its two terms (Eckmann 1944; Horak &
Jost, Adv. Math. 2013), and each term's is that of the smaller Gram
matrix of its d, d d^T or d^T d.  ``spectral_measure`` eigensolves those
two pieces, checks each piece's zero cluster against its size minus the
exact rank of its d, and refuses to return on disagreement.

Both routes, and the moment walk of ``estimators``, take their signs from
one rule, :func:`_signed_faces`; the walk's cofaces read it backwards.
:func:`_gram` is the one dense assembly: the spectra eigensolve the smaller
Gram matrix of each d, and :func:`laplacian_matrix` adds d_p^T d_p and
d_{p+1} d_{p+1}^T for the tests and the golden digests; no spectrum reads
it.
The walk's exact rows (:class:`_Incidence`) are built lazily instead, so a
local moment pays for the simplices it reaches.  :func:`boundary_matrix` is
an independent reference for the tests: no rank, Gram matrix, moment or
norm bound reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .complexes import SimplicialComplex
from .errors import CrossCheckError, ValidationError
from .exact import rational_rank

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BoundaryMatrix",
    "boundary_matrix",
    "boundary_rank",
    "betti",
    "betti_normalized",
    "laplacian_matrix",
    "SpectralMeasure",
    "spectral_measure",
    "NormBounds",
    "operator_norm_bounds",
    "euler_poincare",
    "write_spectrum_csv",
    "write_betti_csv",
]

DENSE_EIGENSOLVE_CAP = 4096
ZERO_TOL = 1e-7


def _signed_faces(s: tuple) -> list:
    """[(face, sign)] of a simplex: the face omitting the i-th vertex of an
    ascending simplex carries sign (-1)**i.  A vertex has none: d_0 is zero."""
    if len(s) < 2:
        return []
    return [(s[:i] + s[i + 1:], -1 if i & 1 else 1) for i in range(len(s))]


class _Incidence:
    """Signed faces, cofaces and Laplacian rows of one complex, on demand.

    Faces come from :func:`_signed_faces`.  A simplex's cofaces are read
    from the star of its first vertex; the face of a coface omitting its
    i-th vertex carries sign (-1)**i there, so the simplex's sign in a
    coface is read from the index of the vertex the coface adds.  Cofaces
    and rows are memoized for the lifetime of the instance, so walks pay
    for the simplices they reach and for no others.  ``walks`` keeps the
    diagonal ⟨Δ^r σ, σ⟩ of each carrier σ that the moment walk of
    ``estimators`` computed, keyed by (carrier, order), so a carrier shared
    by several roots is walked once.
    """

    __slots__ = ("star", "walks", "_cofaces", "_rows")

    def __init__(self, cx: SimplicialComplex):
        self.star = cx.star
        self.walks: dict = {}
        self._cofaces: dict = {}
        self._rows: dict = {}

    def cofaces(self, s: tuple) -> list:
        hit = self._cofaces.get(s)
        if hit is None:
            n = len(s)
            hit = self._cofaces[s] = []
            for t in self.star(s[0]):
                if len(t) == n + 1:
                    # s is the face of t omitting t[i], if any, where i is
                    # the first index at which the two differ
                    i = 0
                    while i < n and t[i] == s[i]:
                        i += 1
                    if t[i + 1:] == s[i:]:
                        hit.append((t, -1 if i & 1 else 1))
        return hit

    def row(self, s: tuple) -> list:
        """[(simplex, entry)] of the row of Delta_p at the p-simplex ``s``,
        without zero entries: d_p^T d_p through its faces' cofaces, plus
        d_{p+1} d_{p+1}^T through its cofaces' faces."""
        hit = self._rows.get(s)
        if hit is None:
            hit = self._rows[s] = self._row(s)
        return hit

    def _row(self, s: tuple) -> list:
        entries: dict = {}
        get = entries.get
        faces, cofaces = _signed_faces, self.cofaces
        for f, a in faces(s):
            for t, b in cofaces(f):
                entries[t] = get(t, 0) + a * b
        for t, a in cofaces(s):
            for f, b in faces(t):
                entries[f] = get(f, 0) + a * b
        return [(t, c) for t, c in entries.items() if c]


@dataclass(frozen=True)
class BoundaryMatrix:
    """Signed incidence of p-simplices (columns) against their faces (rows).

    The face omitting the i-th vertex of an ascending-ordered simplex
    carries sign (-1)**i.
    """

    rows: tuple
    cols: tuple
    by_col: tuple  # per column: ((row_index, sign), ...)

    def dense(self) -> np.ndarray:
        import numpy as np

        out = np.zeros((len(self.rows), len(self.cols)), dtype=np.int64)
        for j, entries in enumerate(self.by_col):
            for i, sign in entries:
                out[i, j] = sign
        return out


def boundary_matrix(cx: SimplicialComplex, p: int) -> BoundaryMatrix:
    """The boundary operator from p-chains to (p-1)-chains; d_0 is zero.

    Its sign loop is its own, so tests can check :func:`_signed_faces` on it.
    """
    if p < 0:
        return BoundaryMatrix((), (), ())
    if p == 0:
        cols = cx.faces(0)
        return BoundaryMatrix((), cols, tuple(() for _ in cols))
    rows = cx.faces(p - 1)
    cols = cx.faces(p)
    row_index = {s: i for i, s in enumerate(rows)}
    by_col = []
    for s in cols:
        entries = []
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            entries.append((row_index[face], -1 if i % 2 else 1))
        by_col.append(tuple(entries))
    return BoundaryMatrix(rows=rows, cols=cols, by_col=tuple(by_col))


def boundary_rank(cx: SimplicialComplex, p: int) -> int:
    """Exact rational rank of the p-th boundary operator.

    rank d_1 = |V| - #components needs no elimination: the kernel of the
    vertex coboundary is spanned by the components' indicator vectors.
    Above d_1 the rows eliminated are those of d_p^T, which has the same
    rank: one {face: sign} dict per p-simplex.
    """
    if p < 1 or p > cx.dim:
        return 0
    if p == 1:
        return len(cx.vertices) - len(cx.components())
    return rational_rank(dict(_signed_faces(s)) for s in cx.faces(p))


def _boundary_ranks(cx: SimplicialComplex, ps) -> dict:
    """{q: rank d_q} for each p in ``ps`` and p+1, each rank computed once.

    b_p = |K(p)| - rank d_p - rank d_{p+1}, so adjacent degrees share a rank.
    """
    if any(p < 0 for p in ps):
        raise ValidationError("betti degree must be nonnegative")
    return {q: boundary_rank(cx, q) for q in sorted({*ps, *(p + 1 for p in ps)})}


def _betti_numbers(cx: SimplicialComplex, ps, ranks=None) -> dict:
    """{p: b_p} in the order of ``ps``, from ``ranks`` when the caller has
    them (from :func:`_boundary_ranks`) and from new ones otherwise."""
    if ranks is None:
        ranks = _boundary_ranks(cx, ps)
    return {p: len(cx.faces(p)) - ranks[p] - ranks[p + 1] for p in ps}


def betti(cx: SimplicialComplex, p: int) -> int:
    """dim ker Delta_p = |K(p)| - rank d_p - rank d_{p+1}, computed exactly."""
    return _betti_numbers(cx, (p,))[p]


def betti_normalized(cx: SimplicialComplex, p: int) -> Fraction:
    """b_p / |V|, the finite-complex normalized Betti number."""
    n = len(cx.faces(0))
    if n == 0:
        raise ValidationError("normalized Betti number needs a nonempty complex")
    return Fraction(betti(cx, p), n)


def _gram(cx: SimplicialComplex, q: int, upper: bool) -> np.ndarray:
    """A Gram matrix of d_q, as float64 with exact integer entries:
    d_q^T d_q on the q-simplices when ``upper``, else d_q d_q^T on the
    (q-1)-simplices, each in the order of ``faces``.

    Entry (a, b) sums the sign products of a and b over every group of
    d_q's incidences that holds both: a (q-1)-simplex and its cofaces for
    d_q^T d_q, a q-simplex and its faces for d_q d_q^T.  The incidences
    come from :func:`_signed_faces`; the pairs within each group are
    enumerated in numpy and scattered by one ``bincount``, so d_q is never
    formed.
    """
    import numpy as np

    faces, simplices = cx.faces(q - 1), cx.faces(q)
    index = {f: i for i, f in enumerate(faces)}.__getitem__
    signed = [fs for s in simplices for fs in _signed_faces(s)]
    face = np.fromiter((index(f) for f, _ in signed), np.intp, len(signed))
    sign = np.fromiter((g for _, g in signed), np.intp, len(signed))
    simplex = np.arange(len(signed)) // (q + 1)
    if upper:
        size, order = len(simplices), np.argsort(face, kind="stable")
        group, member, sign = face[order], simplex[order], sign[order]
    else:
        size, group, member = len(faces), simplex, face
    # group is ascending: entry e pairs with every entry of its group,
    # which runs from first[e] for width[e] entries
    counts = np.bincount(group)
    width = counts[group]
    first = (np.cumsum(counts) - counts)[group]
    left = np.repeat(np.arange(len(group)), width)
    offset = np.arange(len(left)) - np.repeat(np.cumsum(width) - width, width)
    right = first[left] + offset
    gram = np.bincount(member[left] * size + member[right],
                       weights=sign[left] * sign[right], minlength=size * size)
    # bincount of nothing is int64 whatever its weights
    return gram.astype(np.float64, copy=False).reshape(size, size)


def laplacian_matrix(cx: SimplicialComplex, p: int) -> np.ndarray:
    """Dense Hodge Laplacian on p-simplices, in the order of ``faces(p)``.

    Delta_p = d_p^T d_p + d_{p+1} d_{p+1}^T, the sum of two :func:`_gram`
    matrices, as float64 with exact integer entries.  No spectrum reads it
    (they eigensolve the smaller Gram matrix of each d); it is the reference
    the tests and the golden chain digests read.
    """
    if p < 0:
        raise ValidationError("Laplacian degree must be nonnegative")
    return _gram(cx, p, upper=True) + _gram(cx, p + 1, upper=False)


def _piece_size(cx: SimplicialComplex, q: int) -> int:
    """Order of the Gram piece of d_q: the smaller of f_{q-1} and f_q (0
    for d_0, as there are no (-1)-simplices)."""
    return min(len(cx.faces(q - 1)), len(cx.faces(q)))


def _check_cap(q: int, size: int) -> None:
    if size > DENSE_EIGENSOLVE_CAP:
        raise ValidationError(
            f"the Gram piece of d_{q} has {size} rows, past the dense "
            f"eigensolver cap ({DENSE_EIGENSOLVE_CAP}); use moment "
            "estimators at this scale")


def _nonzero_spectrum(cx: SimplicialComplex, q: int, rank: int) -> list:
    """Nonzero eigenvalues of d_q^T d_q, ascending, from its Gram piece.

    The piece's zero cluster, eigenvalues below ``ZERO_TOL``, must be its
    order minus the exact ``rank`` of d_q, or CrossCheckError names the
    piece.  A piece past ``DENSE_EIGENSOLVE_CAP`` is refused.
    """
    size = _piece_size(cx, q)
    _check_cap(q, size)
    if size == 0:
        return []
    import numpy as np

    upper = len(cx.faces(q - 1)) > len(cx.faces(q))
    eigenvalues = np.linalg.eigvalsh(_gram(cx, q, upper))
    zeros = size - rank
    found = int(np.sum(np.abs(eigenvalues) < ZERO_TOL))
    if found != zeros:
        raise CrossCheckError(
            f"eigensolver zero count {found} != {zeros} in the Gram piece of "
            f"d_{q} ({size} rows, exact rank {rank}; tol {ZERO_TOL})")
    return eigenvalues[zeros:].tolist()


class SpectralMeasure:
    """Spectral measure of Delta_p under uniform rooting of one complex.

    Atom at each eigenvalue with weight 1/|V|; kernel mass is pinned to the
    exact Betti number, so ``mass_at_zero`` is exact even though nonzero
    eigenvalues are floating point.
    """

    __slots__ = ("p", "n_vertices", "eigenvalues", "kernel_dim")

    def __init__(self, p, n_vertices, eigenvalues, kernel_dim):
        self.p = p
        self.n_vertices = n_vertices
        self.eigenvalues = tuple(eigenvalues)
        self.kernel_dim = kernel_dim

    @property
    def weight_unit(self) -> Fraction:
        return Fraction(1, self.n_vertices)

    def total_mass(self) -> Fraction:
        return Fraction(len(self.eigenvalues), self.n_vertices)

    def mass_at_zero(self) -> Fraction:
        return Fraction(self.kernel_dim, self.n_vertices)

    def spectral_radius(self) -> float:
        return max(self.eigenvalues, default=0.0)

    def count_in(self, lo: float, hi: float) -> int:
        """Number of eigenvalues in the open interval (lo, hi)."""
        return sum(1 for ev in self.eigenvalues if lo < ev < hi)

    def near_zero_mass(self, eps: float) -> Fraction:
        """Mass of (-eps, eps) minus the exact atom at zero."""
        count = sum(1 for ev in self.eigenvalues if ev != 0.0 and abs(ev) < eps)
        return Fraction(count, self.n_vertices)

    def moment(self, r: int) -> float:
        return sum(ev ** r for ev in self.eigenvalues) / self.n_vertices

    def atoms(self):
        """Eigenvalues merged within ``ZERO_TOL``: list of (value, weight) pairs."""
        out = []
        for ev in self.eigenvalues:
            if out and abs(ev - out[-1][0]) <= ZERO_TOL:
                value, count = out[-1]
                out[-1] = (value, count + 1)
            else:
                out.append((ev, 1))
        unit = self.weight_unit
        return [(value, unit * count) for value, count in out]


def spectral_measure(cx: SimplicialComplex, p: int) -> SpectralMeasure:
    """Spectral measure of Delta_p with uniform weight 1/|V| per eigenvalue.

    The kernel is pinned to the exact b_p, and the nonzero eigenvalues are
    those of the Gram pieces of d_p and d_{p+1} (:func:`_nonzero_spectrum`),
    each cross-checked against its exact rank; any disagreement raises
    CrossCheckError.  A piece past ``DENSE_EIGENSOLVE_CAP`` rows is refused
    before any rank or eigensolve is computed.
    """
    if p < 0:
        raise ValidationError("spectral degree must be nonnegative")
    n = len(cx.faces(0))
    if n == 0:
        raise ValidationError("spectral measure needs a nonempty complex")
    for q in (p, p + 1):
        _check_cap(q, _piece_size(cx, q))
    ranks = _boundary_ranks(cx, (p,))
    kernel = _betti_numbers(cx, (p,), ranks)[p]
    nonzero = _nonzero_spectrum(cx, p, ranks[p])
    nonzero += _nonzero_spectrum(cx, p + 1, ranks[p + 1])
    nonzero.sort()
    return SpectralMeasure(p, n, [0.0] * kernel + nonzero, kernel)


@dataclass(frozen=True)
class NormBounds:
    boundary_norm_bound: float  # sqrt((p+1)(D-p+1)), bounds ||d_p|| = ||d_p*||
    laplacian_bound: int        # _radius_bound(p, D), bounds rho(Delta_p)
    spectral_radius: float


def operator_norm_bounds(cx: SimplicialComplex, p: int,
                         degree_bound: int) -> NormBounds:
    """Proven degree-based bounds on ||d_p|| and rho(Delta_p), checked.

    A column of d_p has p+1 entries.  A row has at most D-p+1 once the
    max degree, checked, is at most D: a coface of a (p-1)-simplex adds a
    neighbour of one of its vertices, p-1 of whose neighbours it holds.
    So ||d_p||^2 = ||d_p*||^2 <= (p+1)(D-p+1) (Schur's test).  The radius
    of Delta_p is that of :func:`spectral_measure`, with its cap, kernel
    cross-check and refusal of the empty complex; one above the Gershgorin
    bound of :func:`_radius_bound` raises CrossCheckError.
    """
    if p < 1:
        raise ValidationError("norm bounds are stated for p >= 1")
    if cx.max_degree() > degree_bound:
        raise ValidationError(
            f"max degree {cx.max_degree()} exceeds declared bound {degree_bound}")
    radius = spectral_measure(cx, p).spectral_radius()
    lap_bound = _radius_bound(p, degree_bound)
    if radius > lap_bound + 1e-9:
        raise CrossCheckError(
            f"spectral radius {radius:.6f} exceeds the proven bound {lap_bound}")
    return NormBounds(
        boundary_norm_bound=math.sqrt(max(0, (p + 1) * (degree_bound - p + 1))),
        laplacian_bound=lap_bound,
        spectral_radius=radius,
    )


def _radius_bound(p: int, degree: int) -> int:
    """Proven bound on the spectral radius of Delta_p at max vertex degree D.

    Gershgorin on absolute row sums: each (p-1)-face of a p-simplex has at
    most D-p+1 cofaces, giving at most (p+1)(D-p+1) from d_p^T d_p, and the
    simplex has at most D-p cofaces of p+2 faces each, giving at most
    (p+2)(D-p) from d_{p+1} d_{p+1}^T.  A term whose count is negative has
    no simplices behind it and contributes 0.
    """
    return max(0, (p + 1) * (degree - p + 1)) + max(0, (p + 2) * (degree - p))


def euler_poincare(cx: SimplicialComplex):
    """Both sides of the normalized Euler-Poincare identity, exactly.

    Returns (sum (-1)^p b_p / |V|, sum (-1)^p |K(p)| / |V|); the two are
    equal for every finite complex by rank-nullity telescoping.
    """
    n = len(cx.faces(0))
    if n == 0:
        raise ValidationError("Euler-Poincare needs a nonempty complex")
    lhs = Fraction(0)
    rhs = Fraction(0)
    for p, b in _betti_numbers(cx, range(cx.dim + 1)).items():
        lhs += Fraction((-1) ** p * b, n)
        rhs += Fraction((-1) ** p * len(cx.faces(p)), n)
    return lhs, rhs


def write_spectrum_csv(measure: SpectralMeasure, stream) -> None:
    """Two columns: eigenvalue (shortest round-trip float), weight (exact)."""
    stream.write("eigenvalue,weight\n")
    for value, weight in measure.atoms():
        stream.write(f"{value!r},{weight}\n")


def write_betti_csv(cx: SimplicialComplex, stream) -> None:
    stream.write("p,b_p,normalized\n")
    n = len(cx.faces(0))
    for p, b in _betti_numbers(cx, range(cx.dim + 1)).items():
        stream.write(f"{p},{b},{Fraction(b, n)}\n")
