"""Boundary operators, Hodge Laplacians, Betti numbers, spectral measures.

Two independent computation routes are kept deliberately separate: Betti
numbers and ranks come exactly from :func:`_chain_numbers`, while spectra
come from a dense symmetric eigensolver.  The eigensolver never sees
Delta_p = d_p^T d_p + d_{p+1} d_{p+1}^T itself: the nonzero spectrum of
Delta_p is the union of those of its two terms (Eckmann 1944; Horak &
Jost, Adv. Math. 2013), and each term's is that of the smaller Gram
matrix of its d, d d^T or d^T d.  Every spectrum eigensolves those two
pieces in :func:`_nonzero_spectrum`, which checks each piece's zero count,
proven norm bound and power sums and raises CrossCheckError on a failure.
The same pieces give a whole complex's moments exactly, tr Delta_p^r being
the sum of their r-th power traces (:func:`_power_traces`).

Both routes, and the moment walk of ``estimators``, take their signs from
one rule, :func:`_signed_faces`; the walk's cofaces read it backwards.
:func:`_gram` is the one dense assembly: the spectra and power traces read
the smaller Gram matrix of each d, and :func:`laplacian_matrix` adds
d_p^T d_p and d_{p+1} d_{p+1}^T for the tests and the golden digests.
The walk's exact rows (:class:`_Incidence`) are built lazily instead, by
the combinatorial rule for Delta_p from cofaces read off the dimension
blocks of the stars, so a moment pays for the simplices its walks reach;
``estimators`` walks carriers for laws, roots and samples, which are not
whole finite complexes, each once, over one incidence per complex.
:func:`boundary_matrix`, a dense int64 array, is an independent reference
for the tests: no rank, Gram matrix, moment or spectrum check reads it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .complexes import SimplicialComplex
from .errors import CrossCheckError, ValidationError, _check_int
from .exact import rational_rank
from .formats import _text

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "boundary_matrix",
    "boundary_rank",
    "betti",
    "betti_normalized",
    "laplacian_matrix",
    "SpectralMeasure",
    "spectral_measure",
    "euler_poincare",
    "write_spectrum_csv",
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
    """Cofaces and Laplacian rows of one complex, on demand.

    A simplex's cofaces are the simplices one vertex larger that hold it,
    read from the block of its first vertex's star that has that size:
    stars are in (dimension, lexicographic) order, so one bisection finds
    the block, and a vertex's block holds only its own edges.  The
    simplex's sign in a coface is that of the face omitting the vertex the
    coface adds, (-1)**i at its index i (:func:`_signed_faces`).  Rows
    follow the combinatorial rule for Delta_p (Goldberg 2002; Horak & Jost,
    Adv. Math. 2013; see :meth:`row`).  Cofaces and rows are memoized for
    the lifetime of the instance, so walks pay for the simplices they reach
    and for no others.
    """

    __slots__ = ("star", "_cofaces", "_rows")

    def __init__(self, cx: SimplicialComplex):
        self.star = cx.star
        self._cofaces: dict = {}
        self._rows: dict = {}

    def cofaces(self, s: tuple) -> list:
        """[(coface, sign of ``s`` in it, the vertex it adds)] of ``s``."""
        hit = self._cofaces.get(s)
        if hit is None:
            n = len(s)
            v = s[0]
            star = self.star(v)
            if n == 1:
                hit = [(t, -1, t[1]) if t[0] == v else (t, 1, t[0])
                       for t in star[1:bisect_left(star, 3, 1, key=len)]]
            else:
                lo = bisect_left(star, n + 1, key=len)
                hit = []
                for t in star[lo:bisect_left(star, n + 2, lo, key=len)]:
                    # s is the face of t omitting t[i], if any, where i is
                    # the first index at which the two differ
                    i = 0
                    while i < n and t[i] == s[i]:
                        i += 1
                    if t[i + 1:] == s[i:]:
                        hit.append((t, -1 if i & 1 else 1, t[i]))
            self._cofaces[s] = hit
        return hit

    def row(self, s: tuple) -> list:
        """[(simplex, entry)] of the row of Delta_p at the p-simplex ``s``,
        without zero entries.

        At p = 0 it is the graph Laplacian's: the degree on the diagonal
        and -1 at each neighbour.  At p >= 1 the diagonal is p + 1 plus the
        number of cofaces, and a p-simplex t sharing the face omitting s[i]
        has (-1)**i times the sign of that face in t, unless s and t span a
        coface, whose term of d_{p+1} d_{p+1}^T cancels it.
        """
        hit = self._rows.get(s)
        if hit is None:
            hit = self._rows[s] = self._row(s)
        return hit

    def _row(self, s: tuple) -> list:
        cofaces = self.cofaces
        up = cofaces(s)
        n = len(s)
        if n == 1:
            if not up:
                return []
            return [(s, len(up))] + [((w,), -1) for _, _, w in up]
        added = {w for _, _, w in up}
        row = [(s, n + len(up))]
        for i in range(n):
            # a coface t of the face adds w: t is s when w is s[i], and s
            # and t span a coface when w is a vertex that one adds to s
            skip = {*added, s[i]}
            a = -1 if i & 1 else 1
            row += [(t, a * b) for t, b, w in cofaces(s[:i] + s[i + 1:])
                    if w not in skip]
        return row


def boundary_matrix(cx: SimplicialComplex, p: int) -> np.ndarray:
    """The boundary operator from p-chains to (p-1)-chains as a dense int64
    array, rows ``faces(p-1)`` by columns ``faces(p)``; d_0 is zero.  The
    face omitting the i-th vertex of an ascending simplex carries sign
    (-1)**i, by a sign loop of its own, so tests can check
    :func:`_signed_faces` on it."""
    import numpy as np

    rows, cols = cx.faces(p - 1), cx.faces(p)
    out = np.zeros((len(rows), len(cols)), dtype=np.int64)
    if p >= 1:
        row_index = {s: i for i, s in enumerate(rows)}
        for j, s in enumerate(cols):
            for i in range(len(s)):
                out[row_index[s[:i] + s[i + 1:]], j] = -1 if i % 2 else 1
    return out


def boundary_rank(cx: SimplicialComplex, p: int) -> int:
    """Exact rational rank of the p-th boundary operator.

    rank d_1 = |V| - #components needs no elimination: the kernel of the
    vertex coboundary is spanned by the components' indicator vectors.
    Every other d_p, zero ones included, eliminates the rows of d_p^T
    (same rank): one {face: sign} dict per p-simplex, empty for a vertex.
    """
    if p == 1:
        return len(cx.vertices) - len(cx.components())
    return rational_rank(dict(_signed_faces(s)) for s in cx.faces(p))


def _chain_numbers(cx: SimplicialComplex, ps) -> tuple:
    """({p: b_p} in the order of ``ps``, {q: rank d_q} in ascending q for
    each p in ``ps`` and p + 1), each rank computed once: adjacent degrees
    share one, as b_p = |K(p)| - rank d_p - rank d_{p+1}."""
    ps = [_check_int(p, "betti degree") for p in ps]
    ranks = {q: boundary_rank(cx, q) for q in sorted({*ps, *(p + 1 for p in ps)})}
    return {p: len(cx.faces(p)) - ranks[p] - ranks[p + 1] for p in ps}, ranks


def betti(cx: SimplicialComplex, p: int) -> int:
    """dim ker Delta_p = |K(p)| - rank d_p - rank d_{p+1}, computed exactly."""
    return _chain_numbers(cx, (p,))[0][p]


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
    p = _check_int(p, "Laplacian degree")
    return _gram(cx, p, upper=True) + _gram(cx, p + 1, upper=False)


def _piece_size(cx: SimplicialComplex, q: int) -> int:
    """Order of the Gram piece of d_q: the smaller of f_{q-1} and f_q (0
    for d_0, as there are no (-1)-simplices).  A piece past
    ``DENSE_EIGENSOLVE_CAP`` rows raises ValidationError instead."""
    size = min(len(cx.faces(q - 1)), len(cx.faces(q)))
    if size > DENSE_EIGENSOLVE_CAP:
        raise ValidationError(
            f"the Gram piece of d_{q} has {size} rows, past the dense "
            f"eigensolver cap ({DENSE_EIGENSOLVE_CAP}); use moment "
            "estimators at this scale")
    return size


def _power_traces(g: np.ndarray, order: int) -> list:
    """[tr g^r, r = 1..order] as exact ints, for g positive semidefinite
    in float64 with integer entries.

    With R the largest absolute row sum, every partial sum below is at
    most n R^order in size, and every trace lies in [0, n R^order].  Only
    g^1..g^ceil(order/2) are formed, two held at a time, and tr g^(a+b) is
    sum(g^a * g^b).  Below 2^53 one float pass is exact; past it the pass
    runs modulo primes P < 2^20, reduced after each product, so its sums
    stay below n P^2 and n^2 P < 2^53 up to ``DENSE_EIGENSOLVE_CAP``, and
    the Chinese remainder theorem joins the residues once the primes'
    product passes n R^order.
    """
    if order == 0:
        return []
    import numpy as np

    bound = len(g) * int(np.abs(g).sum(axis=1).max(initial=0)) ** order
    primes = [None] if bound < 1 << 53 else (
        c for c in range((1 << 20) - 1, 2, -2)
        if all(c % d for d in range(3, math.isqrt(c) + 1, 2)))
    traces, modulus = [0] * order, 1
    for prime in primes:
        def cut(a):
            return a if prime is None else np.fmod(a, prime)

        base = g if prime is None else np.mod(g, prime)
        power, residues = base, [int(np.trace(base))]
        for r in range(2, order + 1):
            low = power
            if r % 2:
                power = cut(power @ base)
            residues.append(int(cut(low * power).sum()))
        if prime is None:
            return residues
        step = pow(modulus, -1, prime)
        traces = [t + modulus * ((x - t) * step % prime)
                  for t, x in zip(traces, residues)]
        modulus *= prime
        if modulus > bound:
            return traces


def _piece_bound(q: int, degree: int) -> int:
    """Proven bound (q+1)(D-q+1), 0 when negative, on ||d_q||^2, the
    largest eigenvalue of either Gram piece of d_q, at max vertex degree D.

    Schur's test: a column of d_q has q+1 entries, and a row at most D-q+1,
    as a coface of a (q-1)-simplex adds a neighbour of one of its vertices,
    q-1 of whose neighbours it holds.  At D < q-1 there is no q-simplex.
    """
    return max(0, (q + 1) * (degree - q + 1))


def _radius_bound(p: int, degree: int) -> int:
    """Proven bound on the spectral radius of Delta_p at max vertex degree
    D: the bounds of its two terms d_p^T d_p and d_{p+1} d_{p+1}^T added,
    max(0,(p+1)(D-p+1)) + max(0,(p+2)(D-p))."""
    return _piece_bound(p, degree) + _piece_bound(p + 1, degree)


def _nonzero_spectrum(cx: SimplicialComplex, q: int, rank: int,
                      order: int) -> tuple:
    """(nonzero eigenvalues of d_q^T d_q, ascending, [tr (d_q^T d_q)^r for
    r = 1..order]) from its Gram piece, which is built once.

    Every float spectrum passes here, and each of three checks raises
    CrossCheckError naming the piece.  Its zero cluster, eigenvalues below
    ``ZERO_TOL``, must be its order N minus the exact ``rank`` of d_q.  The
    solve's backward error is taken as at most 4 N^2 u rho, u = 2^-53 and
    rho the proven bound :func:`_piece_bound` at ``cx.max_degree()``: so
    the largest eigenvalue may pass rho by that much, and no more, and the
    sums of the eigenvalues and of their squares must lie within
    4 N^2 u rho^r of the exact traces tr g and tr g^2 = ||g||_F^2.  Either
    Gram matrix has those traces (:func:`_power_traces`).  An empty piece
    is 0x0: no eigenvalues, every trace 0.  A piece past
    ``DENSE_EIGENSOLVE_CAP`` is refused.
    """
    size = _piece_size(cx, q)
    import numpy as np

    upper = len(cx.faces(q - 1)) > len(cx.faces(q))
    gram = _gram(cx, q, upper)
    eigenvalues = np.linalg.eigvalsh(gram)
    where = f"the Gram piece of d_{q} ({size} rows"
    zeros = size - rank
    found = int(np.sum(np.abs(eigenvalues) < ZERO_TOL))
    if found != zeros:
        raise CrossCheckError(f"eigensolver zero count {found} != {zeros} in "
                              f"{where}, exact rank {rank}; tol {ZERO_TOL})")
    degree = cx.max_degree()
    bound, slack = _piece_bound(q, degree), 4 * size * size * 2.0 ** -53
    top = float(eigenvalues.max(initial=0.0))
    if top > bound * (1 + slack):
        raise CrossCheckError(
            f"largest eigenvalue {top!r} exceeds the proven bound "
            f"(q+1)(D-q+1) = {bound} at max degree D = {degree} in {where}; "
            f"relative tol {slack:.3g})")
    traces = _power_traces(gram, max(order, 2))
    sums = (eigenvalues.sum(), eigenvalues @ eigenvalues)
    for r, total, exact in zip((1, 2), sums, traces):
        if abs(total - exact) > slack * bound ** r:
            raise CrossCheckError(
                f"eigenvalue power sum {float(total)!r} != tr g^{r} = {exact} "
                f"in {where}; tol {slack * bound ** r:.3g})")
    return eigenvalues[zeros:].tolist(), traces[:order]


class SpectralMeasure(NamedTuple):
    """Spectral measure of Delta_p under uniform rooting of one complex.

    Atom at each eigenvalue (a tuple, ascending) with weight 1/|V|; kernel
    mass is pinned to the exact Betti number, so ``mass_at_zero`` is exact
    even though nonzero eigenvalues are floating point.
    """

    p: int
    n_vertices: int
    eigenvalues: tuple
    kernel_dim: int

    def total_mass(self) -> Fraction:
        return Fraction(len(self.eigenvalues), self.n_vertices)

    def mass_at_zero(self) -> Fraction:
        return Fraction(self.kernel_dim, self.n_vertices)

    def spectral_radius(self) -> float:
        return max(self.eigenvalues, default=0.0)

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
        return [(value, Fraction(count, self.n_vertices)) for value, count in out]


def _measure_and_traces(cx: SimplicialComplex, p: int, order: int) -> tuple:
    """(:func:`spectral_measure`, [tr Delta_p^r for r = 0..order] exactly)
    from one build of each Gram piece: as d_p d_{p+1} = 0, tr Delta_p^r is
    tr (d_p^T d_p)^r + tr (d_{p+1} d_{p+1}^T)^r for r >= 1, and f_p at 0."""
    p = _check_int(p, "spectral degree")
    n = len(cx.faces(0))
    if n == 0:
        raise ValidationError("spectral measure needs a nonempty complex")
    for q in (p, p + 1):
        _piece_size(cx, q)  # refuses a piece past the cap
    bettis, ranks = _chain_numbers(cx, (p,))
    kernel = bettis[p]
    low, low_traces = _nonzero_spectrum(cx, p, ranks[p], order)
    high, high_traces = _nonzero_spectrum(cx, p + 1, ranks[p + 1], order)
    measure = SpectralMeasure(p, n, tuple([0.0] * kernel + sorted(low + high)),
                              kernel)
    return measure, [len(cx.faces(p)), *map(sum, zip(low_traces, high_traces))]


def spectral_measure(cx: SimplicialComplex, p: int) -> SpectralMeasure:
    """Spectral measure of Delta_p with uniform weight 1/|V| per eigenvalue.

    The kernel is pinned to the exact b_p, and the nonzero eigenvalues are
    those of the Gram pieces of d_p and d_{p+1} (:func:`_nonzero_spectrum`),
    each cross-checked against its exact rank; any disagreement raises
    CrossCheckError.  A piece past ``DENSE_EIGENSOLVE_CAP`` rows is refused
    before any rank or eigensolve is computed.
    """
    return _measure_and_traces(cx, p, 0)[0]


def euler_poincare(cx: SimplicialComplex):
    """Both sides of the normalized Euler-Poincare identity, exactly.

    Returns (sum (-1)^p b_p / |V|, sum (-1)^p |K(p)| / |V|); the two are
    equal for every finite complex by rank-nullity telescoping.
    """
    n = len(cx.faces(0))
    if n == 0:
        raise ValidationError("Euler-Poincare needs a nonempty complex")
    bettis = _chain_numbers(cx, range(cx.dim + 1))[0]
    alternating = sum((-1) ** p * b for p, b in bettis.items())
    return Fraction(alternating, n), Fraction(cx.euler_characteristic(), n)


def write_spectrum_csv(measure: SpectralMeasure, target) -> None:
    """Two columns: eigenvalue (shortest round-trip float), weight (exact)."""
    with _text(target, "w") as fh:
        fh.write("eigenvalue,weight\n")
        for value, weight in measure.atoms():
            fh.write(f"{value!r},{weight}\n")
