"""Spectral-moment estimation from local neighbourhoods.

Every moment here but a convergence level's is one weighted sum of
⟨Δ_p^r σ, σ⟩/(p+1) over carriers σ, the p-simplices at a root
(:func:`_moment_sums`): a root's moment, a law's, a complex's vertex
average and each Monte Carlo sample alike; a level reads tr Δ_p^r / |V|
off the Gram pieces its spectrum eigensolves.  The r-th diagonal entry at
a carrier depends only on the (r//2 + 1)-ball around the root, so it
comes from a walk that starts at the carrier (:func:`_carrier_walk`),
without cutting that ball or assembling any matrix, and a carrier shared
by several roots is walked once.
"""
from __future__ import annotations

import csv
import math
from fractions import Fraction
from numbers import Rational, Real
from typing import NamedTuple

from .complexes import RootedComplex, SimplicialComplex, _component_map
from .errors import HypothesisViolationError, ValidationError, _check_int
from .formats import _text
from .measures import (RandomRootedComplex, _integer_weights, measure_distance,
                       uniform_rooting)
from .spectral import (_Incidence, _measure_and_traces, _piece_size,
                       _radius_bound)

__all__ = [
    "MomentVector",
    "RootSample",
    "local_moment",
    "moments_of_measure",
    "exhaustive_moments",
    "vertex_sampler",
    "monte_carlo_moments",
    "kernel_mass_bound",
    "ConvergenceReport",
    "convergence_experiment",
]

class MomentVector:
    """Moments m_0..m_R of one spectral measure, with optional Monte Carlo
    errors; every vector checks itself (:meth:`validate`) when it is made."""

    __slots__ = ("p", "moments", "stderrs")

    def __init__(self, p: int, moments, stderrs=None):
        self.p = _check_int(p, "dimension")
        self.moments = tuple(moments)
        self.stderrs = None if stderrs is None else tuple(stderrs)
        if not self.moments:
            raise ValidationError("a moment vector needs at least m_0")
        if self.stderrs is not None and len(self.stderrs) != len(self.moments):
            raise ValidationError("one standard error per moment order")
        self.validate()

    @property
    def order(self) -> int:
        return len(self.moments) - 1

    def validate(self) -> None:
        """Positivity checks every genuine moment sequence satisfies.

        Exact moments (ints and Fractions) are checked exactly: every
        leading Hankel matrix H_k = (m_{i+j})_{i,j<=k} with 2k <= order
        must be positive semidefinite.  The largest is eliminated
        symmetrically in Fractions; the smaller ones are its leading
        blocks, so they pass with it.  Monte Carlo moments (floats) get
        only m_0 >= 0 and the 2x2 determinant m_0 m_2 - m_1^2 >= 0, with
        1e-7 slack for the rounding of sample means.
        """
        if self.moments[0] < 0:
            raise ValidationError("m_0 is a mass and cannot be negative")
        if all(isinstance(m, Rational) for m in self.moments):
            if not _hankel_psd(self.moments):
                raise ValidationError(
                    "a Hankel matrix of the moments is not positive semidefinite")
        elif self.order >= 2:
            m0, m1, m2 = (float(m) for m in self.moments[:3])
            # the floats of Monte Carlo means need a little slack
            if m0 * m2 - m1 * m1 < -1e-7:
                raise ValidationError("2x2 Hankel determinant is negative")

    def __iter__(self):
        return iter(self.moments)

    def __repr__(self) -> str:
        return f"MomentVector(p={self.p}, moments={self.moments})"


def _hankel_psd(moments) -> bool:
    """Whether (m_{i+j})_{i,j<=k}, k = (len(moments) - 1) // 2, is positive
    semidefinite, by exact symmetric elimination: a negative pivot fails,
    and a zero pivot passes only with a zero row."""
    size = (len(moments) + 1) // 2
    h = [[Fraction(moments[i + j]) for j in range(size)] for i in range(size)]
    for i in range(size):
        pivot = h[i][i]
        if pivot < 0 or (pivot == 0 and any(h[i][i + 1:])):
            return False
        if pivot == 0:
            continue
        for a in range(i + 1, size):
            factor = h[a][i] / pivot
            for b in range(i + 1, size):
                h[a][b] -= factor * h[i][b]
    return True


class RootSample(NamedTuple):
    """A rooted complex sampled for Monte Carlo, with the radius it is declared to reach."""

    rooted: RootedComplex
    declared_radius: int | None = None

    def covers(self, r: int) -> bool:
        """True when moments of order r are computable from this sample:
        the walk of each carrier at the root reads only the (r//2 + 1)-ball."""
        radius = self.declared_radius
        return radius is None or radius >= r // 2 + 1


def _carrier_walk(row, carrier: tuple, order: int) -> tuple:
    """⟨Δ^r σ, σ⟩ for r = 0..order at the carrier σ, exactly.

    With v_0 = σ and v_k = Δ v_{k-1}, taken over the ``row`` of each
    simplex of v_{k-1}, symmetry of Δ gives ⟨Δ^{2k-1} σ, σ⟩ = ⟨v_k, v_{k-1}⟩
    and ⟨Δ^{2k} σ, σ⟩ = ‖v_k‖², so ceil(order/2) passes yield every order.
    A row reaches the simplices sharing a face or a coface with its own, so
    at a carrier of a root the walk reads only the stars of the
    (order//2 + 1)-ball around that root, wherever the complex ends.
    """
    diagonal = [1]
    prev = {carrier: 1}
    while len(diagonal) <= order:
        cur: dict = {}
        get = cur.get
        for s, c in prev.items():
            for t, a in row(s):
                cur[t] = get(t, 0) + a * c
        diagonal.append(sum(c * cur.get(s, 0) for s, c in prev.items()))
        if len(diagonal) <= order:
            diagonal.append(sum(c * c for c in cur.values()))
        prev = cur
    return tuple(diagonal)


def _moment_sums(roots, p: int, order: int) -> list:
    """Σ w · ⟨Δ^r σ, σ⟩, r = 0..order, over (complex, root, integer w)
    triples and the carriers σ at each root.  Each root adds w onto its
    carriers, per complex object; each carrier is then walked once, over
    one :class:`_Incidence` per complex, so rows are built once."""
    by_complex = {}
    for cx, root, w in roots:
        carriers = by_complex.setdefault(id(cx), (cx, {}))[1]
        for s in cx.star(root):
            if len(s) == p + 1:
                carriers[s] = carriers.get(s, 0) + w
    sums = [0] * (order + 1)
    for cx, carriers in by_complex.values():
        row = _Incidence(cx).row
        for s, w in carriers.items():
            for r, m in enumerate(_carrier_walk(row, s, order)):
                sums[r] += w * m
    return sums


def _weighted_moments(roots, p: int, order: int) -> MomentVector:
    """Σ weight · m_r over (complex, root, weight) triples, exactly: the
    integers weight · D, D the lcm of the weights' denominators, go through
    :func:`_moment_sums`, and each order's sum becomes one fraction over
    D (p+1).  The vector checks itself when it is made."""
    p, order = _check_int(p, "dimension"), _check_int(order, "moment order")
    roots = list(roots)
    d, weights = _integer_weights(weight for _, _, weight in roots)
    sums = _moment_sums(((cx, root, w) for (cx, root, _), w in zip(roots, weights)),
                        p, order)
    return MomentVector(p, [Fraction(s, d * (p + 1)) for s in sums])


def local_moment(rc: RootedComplex, p: int, r: int) -> Fraction:
    """Σ over p-simplices at the root of ⟨Δ_p^r σ, σ⟩/(p+1), exactly.

    Only the (r//2 + 1)-ball around the root enters the answer, so the input
    may be the whole complex or any subcomplex containing that ball.  Orders
    0..r are walked to return m_r; every order at one root comes from one
    call, ``moments_of_measure(RandomRootedComplex.point_mass(rc), p, order)``.
    """
    return _weighted_moments(((rc.complex, rc.root, 1),), p, r).moments[r]


def moments_of_measure(mu: RandomRootedComplex, p: int, order: int) -> MomentVector:
    """Exact moments m_0..m_order of the spectral measure of a finite law."""
    return _weighted_moments(
        ((pt.rooted.complex, pt.rooted.root, pt.weight) for pt in mu.points),
        p, order)


def exhaustive_moments(cx: SimplicialComplex, p: int, order: int) -> MomentVector:
    """Average local moments over every vertex; equals the uniform-rooting moments.

    Each vertex adds weight 1/|V| to its carriers, so a p-simplex, a
    carrier of each of its p+1 vertices, is walked once and each row of
    Δ_p is built once; no ball is cut and nothing is searched.  On a
    complex with few rooted isomorphism classes, such as a vertex-transitive
    one, ``moments_of_measure(uniform_rooting(cx), p, order)`` walks only
    the carriers of one root per class and is the cheaper route.
    """
    verts = cx.vertices
    if not verts:
        raise ValidationError("cannot average over an empty complex")
    weight = Fraction(1, len(verts))
    return _weighted_moments(((cx, v, weight) for v in verts), p, order)


def vertex_sampler(cx: SimplicialComplex, radius: int):
    """Sampler of uniform-vertex roots, for Monte Carlo estimation.

    A sample is the drawn vertex's component, rooted there by
    :class:`RootedComplex` and declared to reach ``radius``: the moment
    walk reads only the ball its order needs, so nothing is cut per draw
    and a sample costs the walk, not |V|.  Each component is cut once,
    here, and known to be connected, so no draw searches.
    """
    verts = cx.vertices
    if not verts:
        raise ValidationError("cannot sample from an empty complex")
    radius = _check_int(radius, "ball radius")
    parts = _component_map(cx)

    def sample(rng) -> RootSample:
        v = verts[int(rng.integers(len(verts)))]
        return RootSample(RootedComplex(parts[v], v), radius)

    return sample


def monte_carlo_moments(sampler, p: int, order: int, n_samples: int,
                        seed: int) -> MomentVector:
    """Empirical moments from i.i.d. root samples, with standard errors.

    Each sample draws its own generator from (seed, index), so the result
    does not depend on evaluation order and any prefix of the stream can be
    recomputed independently.
    """
    import numpy as np

    n_samples = _check_int(n_samples, "sample count")
    if n_samples < 1:
        raise ValidationError("need at least one sample")
    seed = _check_int(seed, "seed")
    p, order = _check_int(p, "dimension"), _check_int(order, "moment order")
    values = [[] for _ in range(order + 1)]
    for i in range(n_samples):
        rng = np.random.default_rng([seed, i])
        sample = sampler(rng)
        if isinstance(sample, RootedComplex):
            sample = RootSample(sample)
        if not sample.covers(order):
            raise ValidationError(
                f"sample ball radius {sample.declared_radius} cannot support "
                f"order-{order} moments")
        rooted = sample.rooted
        sums = _moment_sums(((rooted.complex, rooted.root, 1),), p, order)
        for r, t in enumerate(sums):
            # int / int rounds the rational t/(p+1) once, as float(Fraction) does
            values[r].append(t / (p + 1))
    means = [math.fsum(col) / n_samples for col in values]
    if n_samples == 1:
        errs = [0.0] * (order + 1)
    else:
        errs = [
            math.sqrt(math.fsum((x - m) ** 2 for x in col)
                      / (n_samples - 1) / n_samples)
            for col, m in zip(values, means)
        ]
    return MomentVector(p, means, errs)


def _check_eps(eps) -> None:
    if not (isinstance(eps, Real) and 0 < eps < 1):
        raise ValidationError(f"eps must lie strictly between 0 and 1, not {eps!r}")


def kernel_mass_bound(degree_bound: int, p: int, eps: float) -> float:
    """Upper bound on spectral mass in (-eps, eps) excluding the atom at 0.

    The nonzero eigenvalues of an integer positive semidefinite matrix have
    product at least 1, so few of them fit below eps once the spectral
    radius is known.  The radius used is the proven bound on Delta_p at max
    degree D, max((p+1)(D-p+1), (p+2)(D-p), 0): the larger of the bounds
    on its two Gram pieces, which every spectrum checks.  A radius at most
    1 forces the nonzero spectrum to be empty and the bound to 0.
    """
    _check_eps(eps)
    degree_bound = _check_int(degree_bound, "degree bound")
    p = _check_int(p, "dimension")
    radius = _radius_bound(p, degree_bound)
    if radius <= 1:
        return 0.0
    return (math.log(radius) * math.comb(degree_bound, p)
            / ((p + 1) * math.log(1.0 / eps)))


def _level_stats(cx, p, order, eps_list):
    """One level's row, and its uniform-rooting law for the distances; the
    moments are tr Delta_p^r / |V| from the Gram pieces of its spectrum."""
    mu = uniform_rooting(cx)
    measure, traces = _measure_and_traces(cx, p, order)
    mv = MomentVector(p, [Fraction(t, measure.n_vertices) for t in traces])
    nu = {eps: measure.mass_at_zero() + measure.near_zero_mass(eps)
          for eps in eps_list}
    return {
        "n_vertices": measure.n_vertices,
        "b_p": measure.kernel_dim,
        "b_p_normalized": measure.mass_at_zero(),
        "moments": mv.moments,
        "nu": nu,
    }, mu


def _eps_label(eps) -> str:
    """An eps as its column, footer and summary line write it, from its float."""
    return f"{float(eps):g}"


class ConvergenceReport:
    """Per-level statistics of a complex sequence plus trend summaries."""

    __slots__ = ("p", "order", "eps_list", "rmax", "labels", "rows",
                 "distances_to_last", "trends", "degree_bound", "bounds")

    def __init__(self, p, order, eps_list, rmax, labels, rows,
                 distances_to_last, trends, degree_bound, bounds):
        self.p = p
        self.order = order
        self.eps_list = eps_list
        self.rmax = rmax
        self.labels = labels
        self.rows = rows
        self.distances_to_last = distances_to_last
        self.trends = trends
        self.degree_bound = degree_bound
        self.bounds = bounds

    def write_csv(self, target) -> None:
        with _text(target, "w") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["n", "|V|", "p", "b_p", "b_p_normalized",
                             *[f"m{r}" for r in range(self.order + 1)],
                             *(f"nu_eps_{_eps_label(e)}" for e in self.eps_list)])
            for label, row in zip(self.labels, self.rows):
                cells = [label, row["n_vertices"], self.p, row["b_p"],
                         row["b_p_normalized"]]
                cells += list(row["moments"])
                cells += [row["nu"][eps] for eps in self.eps_list]
                writer.writerow([str(c) for c in cells])
            for eps, bound in self.bounds.items():
                fh.write(f"# kernel_mass_bound eps={_eps_label(eps)} "
                         f"D={self.degree_bound} p={self.p}: {bound!r}\n")

    def summary_lines(self):
        lines = []
        for label, row, dist in zip(self.labels, self.rows,
                                    self.distances_to_last):
            lines.append(
                f"n={label} |V|={row['n_vertices']} b_{self.p}={row['b_p']} "
                f"normalized={row['b_p_normalized']} "
                f"dist_to_last(rmax={self.rmax})={dist}")
        for column, flag in self.trends.items():
            lines.append(f"trend {column}: {flag}")
        for eps, bound in self.bounds.items():
            lines.append(
                f"kernel_mass_bound eps={_eps_label(eps)}: {bound:.6g}")
        return lines


def _trend(values) -> str:
    diffs = [b - a for a, b in zip(values, values[1:])]
    if all(d == 0 for d in diffs):
        return "constant"
    if all(d <= 0 for d in diffs):
        return "decreasing"
    if all(d >= 0 for d in diffs):
        return "increasing"
    return "mixed"


def convergence_experiment(sequence, p: int, order: int, eps_list,
                           rmax: int = 2, labels=None, degree_bound=None,
                           threads=None) -> ConvergenceReport:
    """Tabulate Betti numbers, moments, and ball statistics along a sequence.

    The approximation statement this probes requires degrees bounded along
    the whole sequence; a strictly growing degree column (or an explicit
    ``degree_bound`` that some level violates) aborts the experiment.
    Each eps lies strictly between 0 and 1, no two share the ``:g`` label
    that names their column, and ``p``, ``order``, ``rmax`` and
    ``degree_bound`` are nonnegative integers, and no level has a Gram
    piece past the dense eigensolver cap; all are checked before any level
    runs.  Levels run in turn, in this process:
    ``threads`` may only be None or 1.
    """
    if threads not in (None, 1):
        raise ValidationError(f"threads={threads!r}: levels run in one process")
    sequence = list(sequence)
    if not sequence:
        raise ValidationError("need at least one complex")
    eps_list = list(eps_list)
    for eps in eps_list:
        _check_eps(eps)
    columns = [f"nu_eps_{_eps_label(eps)}" for eps in eps_list]
    if len(set(columns)) != len(columns):
        raise ValidationError(
            f"eps values {eps_list} repeat a column label: {columns}")
    rmax = _check_int(rmax, "rmax")
    if degree_bound is not None:
        degree_bound = _check_int(degree_bound, "degree bound")
    p, order = _check_int(p, "dimension"), _check_int(order, "moment order")
    labels = list(range(len(sequence)) if labels is None else labels)
    if len(labels) != len(sequence):
        raise ValidationError("one label per level")
    for cx in sequence:
        for q in (p, p + 1):
            _piece_size(cx, q)  # refuses a piece past the cap

    degrees = [cx.max_degree() for cx in sequence]
    if degree_bound is not None:
        for label, d in zip(labels, degrees):
            if d > degree_bound:
                raise HypothesisViolationError(
                    f"level {label} has max degree {d} > bound {degree_bound}; "
                    "the approximation statement needs uniformly bounded degree")
    elif len(degrees) >= 3 and all(a < b for a, b in zip(degrees, degrees[1:])):
        raise HypothesisViolationError(
            f"max degree grows at every level ({degrees}); "
            "the approximation statement needs uniformly bounded degree")
    observed_bound = degree_bound if degree_bound is not None else max(degrees)

    rows, laws = map(list, zip(*(_level_stats(cx, p, order, eps_list)
                                 for cx in sequence)))

    distances = [measure_distance(law, laws[-1], rmax) for law in laws]

    trends = {"b_p_normalized": _trend([row["b_p_normalized"] for row in rows])}
    for eps, column in zip(eps_list, columns):
        trends[column] = _trend([row["nu"][eps] for row in rows])
    trends["dist_to_last"] = _trend(distances)

    bounds = {eps: kernel_mass_bound(observed_bound, p, eps)
              for eps in eps_list}
    return ConvergenceReport(p, order, eps_list, rmax, labels, rows,
                             distances, trends, observed_bound, bounds)
