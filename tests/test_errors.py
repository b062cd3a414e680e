"""Integer arguments follow one rule, ``errors._check_int``: every public
entry point refuses a non-integer with ValidationError, and a numpy
integer gives the same answer as the Python int it stands for.  Real
arguments (probabilities, eps, support weights) refuse what is no number
with ValidationError too."""
import io
from fractions import Fraction

import numpy as np
import pytest

from l2limits.complexes import RootedComplex, rooted_at
from l2limits.encoding import (CanonicalCode, bs_distance, canonical_code,
                               subset_from_index)
from l2limits.errors import ValidationError
from l2limits.estimators import (MomentVector, RootSample, convergence_experiment,
                                 exhaustive_moments, kernel_mass_bound,
                                 local_moment, moments_of_measure,
                                 monte_carlo_moments, vertex_sampler)
from l2limits.formats import write_scx
from l2limits.generators import (fixtures, linial_meshulam, random_flag,
                                 torus_tower)
from l2limits.measures import (BallDistribution, ball_distribution,
                               degree_truncate, expected_p_degree,
                               measure_distance, SupportPoint,
                               uniform_rooting)
from l2limits.spectral import (betti, boundary_matrix, boundary_rank,
                               laplacian_matrix, spectral_measure)


def _moments(mv):
    return mv.p, mv.moments, mv.stderrs


def _scx(cx, root):
    stream = io.StringIO()
    write_scx(cx, stream, root)
    return stream.getvalue()


def _entry_points():
    """(name, call of one integer argument, a valid value for it)."""
    torus = torus_tower(2, 5)
    rc = rooted_at(torus, 0)
    mu = uniform_rooting(torus)
    pt = mu.points[0]
    pair = [torus_tower(2, 4), torus_tower(2, 5)]
    nu = spectral_measure(pair[0], 1)

    def sampled(radius):
        return vertex_sampler(torus, radius)(np.random.default_rng(0))

    def mc(**kw):
        args = dict(p=1, order=2, n_samples=3, seed=0) | kw
        return _moments(monte_carlo_moments(vertex_sampler(torus, 2), **args))

    def converge(**kw):
        return convergence_experiment(pair, **(dict(p=1, order=2, eps_list=[0.5])
                                               | kw)).summary_lines()

    return [
        ("RootedComplex root", lambda x: RootedComplex(torus, x), 3),
        ("rooted_at root", lambda x: rooted_at(torus, x), 3),
        ("RootedComplex.ball", lambda x: rc.ball(x), 1),
        ("subset_from_index", subset_from_index, 5),
        ("BallDistribution radius",
         lambda x: BallDistribution(x, {CanonicalCode([0]): 1}).radius, 1),
        ("MomentVector p", lambda x: MomentVector(x, [1]).p, 1),
        ("bs_distance", lambda x: bs_distance(rc, rooted_at(pair[0], 0), x), 2),
        ("SupportPoint.ball_code", pt.ball_code, 1),
        ("ball_distribution", lambda x: ball_distribution(mu, x), 1),
        ("measure_distance", lambda x: measure_distance(mu, mu, x), 2),
        ("degree_truncate", lambda x: degree_truncate(torus, x), 3),
        ("expected_p_degree", lambda x: expected_p_degree(mu, x), 1),
        ("local_moment p", lambda x: local_moment(rc, x, 2), 1),
        ("local_moment order", lambda x: local_moment(rc, 1, x), 2),
        ("moments_of_measure", lambda x: _moments(moments_of_measure(mu, x, 2)), 1),
        ("exhaustive_moments", lambda x: _moments(exhaustive_moments(torus, 1, x)), 2),
        ("vertex_sampler", sampled, 2),
        ("monte_carlo_moments n_samples", lambda x: mc(n_samples=x), 3),
        ("monte_carlo_moments seed", lambda x: mc(seed=x), 4),
        ("kernel_mass_bound degree", lambda x: kernel_mass_bound(x, 1, 0.5), 6),
        ("kernel_mass_bound p", lambda x: kernel_mass_bound(6, x, 0.5), 1),
        ("convergence_experiment rmax", lambda x: converge(rmax=x), 1),
        ("convergence_experiment degree_bound",
         lambda x: converge(degree_bound=x), 6),
        ("boundary_rank", lambda x: boundary_rank(torus, x), 1),
        ("boundary_matrix", lambda x: boundary_matrix(torus, x).tolist(), 2),
        ("betti", lambda x: betti(torus, x), 1),
        ("laplacian_matrix", lambda x: laplacian_matrix(torus, x).tolist(), 1),
        ("spectral_measure", lambda x: spectral_measure(torus, x), 1),
        ("SpectralMeasure.moment", nu.moment, 2),
        ("RootSample.covers", lambda x: RootSample(rc, 3).covers(x), 5),
        ("torus_tower d", lambda x: torus_tower(x, 5), 2),
        ("torus_tower n", lambda x: torus_tower(2, x), 5),
        ("linial_meshulam d", lambda x: linial_meshulam(x, 6, 0.5, 0), 2),
        ("linial_meshulam n", lambda x: linial_meshulam(2, x, 0.5, 0), 6),
        ("linial_meshulam seed", lambda x: linial_meshulam(2, 6, 0.5, x), 1),
        ("random_flag n", lambda x: random_flag(x, 0.5, 2, 0), 8),
        ("random_flag max_dim", lambda x: random_flag(8, 0.5, x, 0), 2),
        ("random_flag seed", lambda x: random_flag(8, 0.5, 2, x), 1),
        ("write_scx root", lambda x: _scx(torus, x), 3),
    ]


def test_integer_arguments_follow_one_rule():
    # a float is refused, not floored, even one that hashes like a valid
    # int, and so is a negative int; a root is first looked up, and 1.5 and
    # -1 are no vertices.  A numpy integer is the int it holds.
    for name, call, good in _entry_points():
        for bad in (1.5, float(good)):
            with pytest.raises(ValidationError,
                               match="must be an integer|root 1.5 is not a vertex"):
                call(bad)
        with pytest.raises(ValidationError,
                           match="must be nonnegative|root -1 is not a vertex"):
            call(-1)
        assert call(np.int64(good)) == call(good), name



def test_radius_and_dimension_are_checked_where_they_are_made():
    # a ball law's radius and a moment vector's dimension are refused by
    # the constructor, not first by a later validate() or computation
    path3 = canonical_code(rooted_at(fixtures()["path3"], 0))
    for bad in (1.5, -1, "a"):
        with pytest.raises(ValidationError, match="ball radius"):
            BallDistribution(bad, {path3: 1})
        with pytest.raises(ValidationError, match="dimension"):
            MomentVector(bad, [1])


def test_real_arguments_refuse_what_is_no_number():
    # (call of one real argument, its rule, values it refuses, values it takes)
    rc = rooted_at(torus_tower(1, 5), 0)
    tower = [torus_tower(1, 5)]
    nu = spectral_measure(torus_tower(2, 4), 1)
    table = [
        (lambda x: random_flag(8, x, 2, 0), "probability must lie in",
         ["0.5", None, float("nan"), 1.5], [0.5, np.float64(0.5), Fraction(1, 2)]),
        (lambda x: linial_meshulam(2, 5, x, 0), "probability must lie in",
         ["0.5", None, -0.1], [0.5, np.float32(0.5), Fraction(1, 2)]),
        (lambda x: kernel_mass_bound(6, 1, x), "eps must lie strictly between",
         ["0.5", None, float("nan"), 1], [0.5, np.float64(0.5), Fraction(1, 2)]),
        (lambda x: convergence_experiment(tower, 0, 2, [x]).summary_lines(),
         "eps must lie strictly between", ["0.5", None], [0.5, np.float64(0.5)]),
        (nu.near_zero_mass, "eps must be a real number",
         ["0.5", None, float("nan")], [0.5, np.float64(0.5), Fraction(1, 2)]),
        (lambda x: SupportPoint(rc, x).weight, "support weights must be positive",
         ["x", None, float("nan"), float("inf"), 0, "-1/2"],
         [0.5, np.float64(0.5), Fraction(1, 2), "1/2"]),
    ]
    for call, rule, refused, taken in table:
        for bad in refused:
            with pytest.raises(ValidationError, match=rule) as info:
                call(bad)
            assert repr(bad) in str(info.value)  # the message names the value
        answers = [call(good) for good in taken]
        assert all(answer == answers[0] for answer in answers), rule
