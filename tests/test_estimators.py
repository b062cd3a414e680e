import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import l2limits.estimators as estimators
import l2limits.spectral as spectral
from conftest import point_moments, random_complex, tv_gap
from l2limits.complexes import SimplicialComplex, rooted_at
from l2limits.errors import HypothesisViolationError, ValidationError
from l2limits.estimators import (ConvergenceReport, MomentVector, RootSample,
                                 convergence_experiment,
                                 exhaustive_moments, kernel_mass_bound,
                                 local_moment, monte_carlo_moments,
                                 moments_of_measure, vertex_sampler)
from l2limits.generators import fixtures, linial_meshulam, torus_tower
from l2limits.measures import (RandomRootedComplex, SupportPoint,
                               ball_distribution, expected_p_degree,
                               uniform_rooting)
from l2limits.spectral import (SpectralMeasure, _boundary, _gram,
                               _Incidence, _measure_and_traces,
                               boundary_matrix, laplacian_matrix,
                               spectral_measure)

closure = SimplicialComplex.closure


def test_local_moment_cycle_values():
    rc = rooted_at(fixtures()["cycle5"], 0)
    assert local_moment(rc, 0, 0) == 1
    assert local_moment(rc, 0, 1) == 2   # diagonal of the graph Laplacian
    assert local_moment(rc, 0, 2) == 6   # 2^2 plus one per neighbor


def test_local_moment_path_ends_differ():
    path = fixtures()["path3"]
    assert local_moment(rooted_at(path, 1), 0, 2) == 6
    assert local_moment(rooted_at(path, 0), 0, 2) == 2


def test_local_moment_filled_triangle_powers():
    # Delta_1 of the full triangle is 3 times the identity
    rc = rooted_at(fixtures()["filled_triangle"], 0)
    for r in range(6):
        assert local_moment(rc, 1, r) == 3 ** r


def test_local_moment_zeroth_is_degree_share():
    rng = np.random.default_rng(61)
    for _ in range(20):
        cx = random_complex(rng, 9)
        v = cx.vertices[int(rng.integers(len(cx.vertices)))]
        rc = rooted_at(cx, v)
        for p in range(3):
            assert local_moment(rc, p, 0) == Fraction(rc.p_degree(p), p + 1)
    with pytest.raises(ValidationError):
        local_moment(rc, -1, 0)
    with pytest.raises(ValidationError):
        local_moment(rc, 0, -1)


def test_local_moment_matches_dense_matrix_power():
    rng = np.random.default_rng(67)
    for _ in range(25):
        cx = random_complex(rng, 9)
        v = cx.vertices[int(rng.integers(len(cx.vertices)))]
        rc = rooted_at(cx, v)
        comp = rc.complex
        for p in range(3):
            carriers = [i for i, s in enumerate(comp.faces(p)) if v in s]
            lap = laplacian_matrix(comp, p)
            for r in range(5):
                if carriers:
                    powered = np.linalg.matrix_power(lap, r)
                    want = Fraction(int(sum(powered[i, i] for i in carriers)), p + 1)
                else:
                    want = Fraction(0)
                assert local_moment(rc, p, r) == want


def test_vertex_sum_of_local_moments_is_trace():
    # the 1/(p+1) per-simplex share makes the vertex sum exactly the trace
    rng = np.random.default_rng(71)
    for _ in range(15):
        cx = random_complex(rng, 9)
        for p in range(cx.dim + 1):
            lap = laplacian_matrix(cx, p)
            for r in range(4):
                total = sum(local_moment(rooted_at(cx, v), p, r)
                            for v in cx.vertices)
                assert total == int(np.trace(np.linalg.matrix_power(lap, r)))


def test_one_ball_gives_every_order():
    for cx in fixtures().values():
        for v in cx.vertices:
            rc = rooted_at(cx, v)
            for p in range(cx.dim + 1):
                ms = point_moments(rc, p, 4)
                assert len(ms) == 5
                for r in range(5):
                    assert ms[r] == local_moment(rc, p, r)


def _percolated_torus():
    """The side-10 torus with each triangle kept with probability 0.7."""
    rng = np.random.default_rng(83)
    torus = torus_tower(2, 10)
    kept = [t for t in torus.faces(2) if rng.random() < 0.7]
    return closure(list(torus.faces(1)) + kept)


def test_local_moments_exact_where_the_ball_is_cut():
    # balls smaller than the complex, handed in whole or cut at the
    # (order//2 + 1)-ball: truncated rows must not leak in
    cx = _percolated_torus()
    for p in (0, 1):
        lap = laplacian_matrix(cx, p)
        powers = [np.linalg.matrix_power(lap, r) for r in range(10)]
        for v in (0, 37, 55):
            carriers = [i for i, s in enumerate(cx.faces(p)) if v in s]
            want = tuple(Fraction(int(sum(pw[i, i] for i in carriers)), p + 1)
                         for pw in powers)
            for order in range(5, 10):
                rc = rooted_at(cx, v)
                ball = rc.ball(order // 2 + 1)
                assert len(ball.complex) < len(cx)
                for sample in (rc, ball):
                    assert point_moments(sample, p, order) == want[:order + 1]


def test_moments_read_only_the_half_order_ball():
    # the walk may be handed the (order//2 + 1)-ball instead of the component
    rng = np.random.default_rng(89)
    proper = 0
    for _ in range(20):
        cx = random_complex(rng, 16, max_pieces=14, max_simplex=3)
        v = cx.vertices[int(rng.integers(len(cx.vertices)))]
        rc = rooted_at(cx, v)
        comp = rc.complex
        for p in range(3):
            carriers = [i for i, s in enumerate(comp.faces(p)) if v in s]
            lap = laplacian_matrix(comp, p)
            want = tuple(
                Fraction(int(sum(np.linalg.matrix_power(lap, r)[i, i]
                                 for i in carriers)), p + 1)
                for r in range(10))
            for order in range(10):
                ball = rc.ball(order // 2 + 1)
                proper += len(ball.complex) < len(comp)
                assert point_moments(ball, p, order) == want[:order + 1]
    assert proper > 0


def test_incidence_rows_reproduce_the_dense_laplacian():
    # the walk's rows and the dense reference d_p^T d_p + d_{p+1} d_{p+1}^T
    # agree, with zero entries dropped, at every p up to dim + 1: p = 0
    # (isolated vertices have empty rows), p = dim (no cofaces) and
    # p > dim (no carriers); the diagonal is p + 1 (0 at p = 0) plus the
    # number of cofaces in the star
    rng = np.random.default_rng(97)
    isolated = deep = 0
    for _ in range(30):
        cx = random_complex(rng, 10, max_simplex=5)
        isolated += any(cx.degree(v) == 0 for v in cx.vertices)
        deep += cx.dim >= 3
        incidence = _Incidence(cx)
        for p in range(cx.dim + 2):
            faces = cx.faces(p)
            index = {s: i for i, s in enumerate(faces)}
            down = boundary_matrix(cx, p)
            up = boundary_matrix(cx, p + 1)
            dense = down.T @ down + up @ up.T
            for j, s in enumerate(faces):
                got = incidence.row(s)
                assert all(c for _, c in got)
                cofaces = [t for t in cx.star(s[0])
                           if len(t) == p + 2 and set(s) <= set(t)]
                assert dict(got).get(s, 0) == (p + 1 if p else 0) + len(cofaces)
                got = {index[t]: c for t, c in got}
                assert got == {int(k): int(dense[j, k])
                               for k in np.flatnonzero(dense[j])}
        assert exhaustive_moments(cx, cx.dim + 1, 3).moments == (0,) * 4
    assert isolated and deep


def test_coface_signs_invert_signed_faces():
    # a coface's sign is _boundary's sign at the (coface, omitted vertex)
    # entry, whose face is the simplex, and its third field the vertex it
    # adds
    rng = np.random.default_rng(101)
    cases = list(fixtures().values())
    cases += [random_complex(rng, 10) for _ in range(20)]
    for cx in cases:
        incidence = _Incidence(cx)
        for p in range(cx.dim + 1):
            face, sign = _boundary(cx, p + 1)
            coface_index = {t: j for j, t in enumerate(cx.faces(p + 1))}
            for k, s in enumerate(cx.faces(p)):
                cofaces = incidence.cofaces(s)
                assert sorted(t for t, _, _ in cofaces) == \
                    [t for t in cx.faces(p + 1) if set(s) <= set(t)]
                for t, b, w in cofaces:
                    entry = (p + 2) * coface_index[t] + t.index(w)
                    assert (face[entry], sign[entry]) == (k, b)
                    assert set(t) - set(s) == {w}


def test_exhaustive_moments_order_8_is_the_trace():
    torus = torus_tower(2, 6)
    n = len(torus.vertices)
    for p in range(3):
        lap = laplacian_matrix(torus, p).astype(np.int64)
        power = np.eye(len(lap), dtype=np.int64)
        want = []
        for r in range(9):
            want.append(Fraction(int(np.trace(power)), n))
            power = power @ lap
        assert exhaustive_moments(torus, p, 8).moments == tuple(want)


def test_exhaustive_moments_build_each_row_and_walk_each_carrier_once(
        monkeypatch):
    built, walked = [], []
    build = _Incidence._row
    walk = estimators._carrier_walk

    def counted_build(self, s):
        built.append(s)
        return build(self, s)

    def counted_walk(row, carrier, order):
        walked.append(carrier)
        return walk(row, carrier, order)

    monkeypatch.setattr(_Incidence, "_row", counted_build)
    monkeypatch.setattr(estimators, "_carrier_walk", counted_walk)
    rng = np.random.default_rng(107)
    torus = torus_tower(2, 8)
    kept = [t for t in torus.faces(2) if rng.random() < 0.7]
    for cx in (torus, closure(list(torus.faces(1)) + kept)):
        for p in range(3):
            built.clear()
            walked.clear()
            exhaustive_moments(cx, p, 6)
            # every p-simplex is a carrier of each of its p + 1 vertices
            assert sorted(walked) == list(cx.faces(p))
            assert len(built) == len(set(built)) == len(cx.faces(p))


def test_a_law_walks_each_shared_carrier_once(monkeypatch):
    # roots in one complex object add their weights onto shared carriers,
    # which are then walked once, in the order the roots first reach them
    from test_measures import defect_torus
    path = fixtures()["path4"]
    want = tuple(Fraction(1, 3) * local_moment(rooted_at(path, 0), 1, r)
                 + Fraction(2, 3) * local_moment(rooted_at(path, 1), 1, r)
                 for r in range(7))
    walked = []
    walk = estimators._carrier_walk

    def counted_walk(row, carrier, order):
        walked.append(carrier)
        return walk(row, carrier, order)

    monkeypatch.setattr(estimators, "_carrier_walk", counted_walk)
    law = RandomRootedComplex([SupportPoint(rooted_at(path, 0), Fraction(1, 3)),
                               SupportPoint(rooted_at(path, 1), Fraction(2, 3))])
    assert moments_of_measure(law, 1, 6).moments == want
    assert walked == [(0, 1), (1, 2)]

    cx = defect_torus(6, 1)
    mu = uniform_rooting(cx)
    assert all(pt.rooted.complex is cx for pt in mu.points)
    for p in range(3):
        per_root = [[s for s in cx.star(pt.rooted.root) if len(s) == p + 1]
                    for pt in mu.points]
        distinct = {s for carriers in per_root for s in carriers}
        # at p >= 1 some representatives share a carrier
        assert sum(map(len, per_root)) > len(distinct) or p == 0
        walked.clear()
        moments_of_measure(mu, p, 6)
        assert len(walked) == len(set(walked))
        assert set(walked) == distinct


def _gram_traces(cx, q, order):
    """tr(G^r) for r = 1..order, in Python ints, of the Gram piece G of d_q
    that the eigensolver reads (0 where d_q has no piece)."""
    if not (cx.faces(q - 1) and cx.faces(q)):
        return [0] * order
    upper = len(cx.faces(q - 1)) > len(cx.faces(q))
    gram = _gram(cx, q, upper).astype(np.int64).astype(object)
    power, traces = gram, []
    for _ in range(order):
        traces.append(np.trace(power))
        power = power @ gram
    return traces


def test_exhaustive_moments_are_the_traces_of_the_gram_pieces():
    # a second exact route: Delta_p^r = (d_p^T d_p)^r + (d_{p+1} d_{p+1}^T)^r
    # for r >= 1, and each term's trace is that of the smaller Gram matrix
    # of its d, the piece the eigensolver reads
    cases = list(fixtures().values()) + [torus_tower(2, n) for n in (5, 6, 7)]
    for cx in cases:
        n = len(cx.vertices)
        for p in range(cx.dim + 1):
            want = [a + b for a, b in zip(_gram_traces(cx, p, 6),
                                          _gram_traces(cx, p + 1, 6))]
            moments = exhaustive_moments(cx, p, 6).moments
            assert [n * m for m in moments[1:]] == want


def test_level_moments_are_the_power_traces_of_the_gram_pieces(monkeypatch):
    # two exact routes agree: T_r / |V| from the Gram pieces the spectrum
    # eigensolves, and the carrier walk over the rooting law and over every
    # vertex; order 17 passes 2^53 on the larger pieces, so the modular
    # loop runs
    reductions = []
    fmod = np.fmod
    monkeypatch.setattr(np, "fmod", lambda *a: reductions.append(1) or fmod(*a))
    rng = np.random.default_rng(35)
    draws = [random_complex(rng, 9) for _ in range(8)]
    assert not all(cx.is_connected() for cx in draws)
    cases = [*fixtures().values(), *draws, torus_tower(2, 5),
             linial_meshulam(2, 9, 0.4, 1)]
    order = 17
    for cx in cases:
        n = len(cx.vertices)
        mu = uniform_rooting(cx)
        for p in range(cx.dim + 2):
            measure, traces = _measure_and_traces(cx, p, order)
            assert measure == spectral_measure(cx, p)
            moments = tuple(Fraction(t, n) for t in traces)
            assert moments == moments_of_measure(mu, p, order).moments
            assert moments == exhaustive_moments(cx, p, order).moments
    assert reductions


def test_convergence_experiment_walks_no_carrier_and_builds_each_piece_once(
        monkeypatch):
    walks, grams = [], []
    walk, gram = estimators._carrier_walk, spectral._gram
    monkeypatch.setattr(estimators, "_carrier_walk",
                        lambda *a: walks.append(a) or walk(*a))
    monkeypatch.setattr(spectral, "_gram",
                        lambda cx, q, upper: grams.append((cx, q)) or gram(cx, q, upper))
    torus = torus_tower(2, 6)
    defect = closure(torus.faces(2)[1:])
    levels = [torus_tower(2, 4), torus_tower(2, 5), defect]
    for p in range(4):
        grams.clear()
        convergence_experiment(levels, p, 4, [0.5])
        assert grams == [(cx, q) for cx in levels for q in (p, p + 1)]
    assert walks == []


def test_a_level_past_the_cap_is_refused_before_any_level_runs(monkeypatch):
    rootings = []
    monkeypatch.setattr(estimators, "uniform_rooting", rootings.append)
    with pytest.raises(ValidationError, match="Gram piece of d_2 has 4232 rows"):
        convergence_experiment([torus_tower(2, 40), torus_tower(2, 46)],
                               1, 4, [0.5])
    assert rootings == []


def test_local_moments_build_as_many_rows_on_a_larger_torus(monkeypatch):
    # a local statistic's cost must not grow with |V|: one order-4 walk at
    # p = 1 builds the same number of rows on tori of side 20 and 60
    built = []
    build = _Incidence._row

    def counted_build(self, s):
        built.append(s)
        return build(self, s)

    monkeypatch.setattr(_Incidence, "_row", counted_build)
    counts = []
    for side in (20, 60):
        built.clear()
        point_moments(rooted_at(torus_tower(2, side), 0), 1, 4)
        counts.append(len(built))
    assert counts[0] == counts[1] > 0


@pytest.fixture
def whole_searches(monkeypatch):
    """Record every whole-complex search."""
    calls = []
    original = SimplicialComplex.distances

    def counted(self, root):
        calls.append(self)
        return original(self, root)

    monkeypatch.setattr(SimplicialComplex, "distances", counted)
    return calls


def _two_tori():
    torus = torus_tower(2, 6)
    shifted = [tuple(v + 36 for v in s) for s in torus.faces(2)]
    return closure(list(torus.faces(2)) + shifted)


def test_monte_carlo_samples_never_search_the_complex(whole_searches):
    # connectivity is checked once, when the sampler is built; no draw searches
    for cx in (torus_tower(2, 30), _two_tori()):
        n_components = len(cx.components())
        whole_searches.clear()
        sampler = vertex_sampler(cx, 3)
        built = len(whole_searches)
        assert built <= 1 + n_components
        mv = monte_carlo_moments(sampler, 1, 2, 20, seed=17)
        assert mv.moments[0] == 3.0
        assert len(whole_searches) == built


def test_exhaustive_moments_search_at_most_once(whole_searches):
    for cx in (torus_tower(2, 8), _two_tori(), fixtures()["path4"]):
        exhaustive_moments(cx, 1, 3)
        assert len(whole_searches) <= 1
        whole_searches.clear()


def test_exhaustive_moments_cut_no_ball(monkeypatch):
    calls = []
    original = SimplicialComplex.induced

    def counted(self, vertex_subset):
        calls.append(self)
        return original(self, vertex_subset)

    monkeypatch.setattr(SimplicialComplex, "induced", counted)
    torus = torus_tower(2, 12)
    exhaustive_moments(torus, 1, 3)
    assert calls == []


def test_rooting_remembers_connectivity(whole_searches):
    torus = torus_tower(2, 8)
    for v in torus.vertices:
        rooted_at(torus, v)
    assert len(whole_searches) == 1


def test_moment_vector_validation():
    mv = MomentVector(0, (Fraction(1), Fraction(2), Fraction(5)))
    assert mv.order == 2
    assert list(mv) == list(mv.moments)
    assert repr(mv) == ("MomentVector(p=0, moments="
                        "(Fraction(1, 1), Fraction(2, 1), Fraction(5, 1)))")
    mv.validate()
    with pytest.raises(ValidationError):
        MomentVector(0, ())
    with pytest.raises(ValidationError):
        MomentVector(0, (1.0, 2.0), stderrs=(0.1,))
    with pytest.raises(ValidationError):
        MomentVector(0, (-1.0,)).validate()
    with pytest.raises(ValidationError):
        MomentVector(0, (1.0, 2.0, 1.0)).validate()  # fails Cauchy-Schwarz


def test_exact_moments_get_the_exact_hankel_check():
    # H_2 of (1, 0, 1, 0, 1/2) has determinant -1/2, though its 2x2 block
    # passes; (1, 1, 1, 2, 5) leaves a zero pivot over a nonzero row
    for moments in ((1, 0, 1, 0, Fraction(1, 2)), (1, 1, 1, 2, 5)):
        with pytest.raises(ValidationError, match="Hankel"):
            MomentVector(0, moments).validate()
        # Monte Carlo moments keep only the float 2x2 check
        MomentVector(0, [float(m) for m in moments]).validate()
    MomentVector(0, (1, 0, 0, 0, 0, 0, 0)).validate()  # point mass at 0
    MomentVector(0, (2, 2, 2, 2, 2, 2, 2)).validate()  # mass 2 at 1
    with pytest.raises(ValidationError, match="Hankel"):
        MomentVector(0, (Fraction(1), Fraction(2), Fraction(3))).validate()


def test_exact_check_accepts_every_golden_moment_vector():
    from test_golden import DIMS, ORDER, corpus
    checked = 0
    for _, cx in corpus():
        for p in DIMS:
            for v in cx.vertices:
                MomentVector(p, point_moments(rooted_at(cx, v), p, ORDER)).validate()
                checked += 1
    assert checked > 1000


def test_measure_moments_match_eigenvalues():
    rng = np.random.default_rng(73)
    for _ in range(15):
        cx = random_complex(rng, 9)
        mu = uniform_rooting(cx)
        for p in range(3):
            mv = moments_of_measure(mu, p, 4)
            nu = spectral_measure(cx, p)
            assert mv.moments[0] == expected_p_degree(mu, p) / (p + 1)
            for r in range(5):
                assert float(mv.moments[r]) == pytest.approx(nu.moment(r), rel=1e-8)


def test_exhaustive_equals_measure_moments():
    rng = np.random.default_rng(79)
    for _ in range(15):
        cx = random_complex(rng, 9)
        mu = uniform_rooting(cx)
        for p in range(3):
            assert exhaustive_moments(cx, p, 3).moments == \
                moments_of_measure(mu, p, 3).moments


def test_monte_carlo_determinism():
    sampler = vertex_sampler(fixtures()["path4"], 3)
    a = monte_carlo_moments(sampler, 0, 2, 60, seed=11)
    b = monte_carlo_moments(sampler, 0, 2, 60, seed=11)
    assert a.moments == b.moments
    assert a.stderrs == b.stderrs
    c = monte_carlo_moments(sampler, 0, 2, 60, seed=12)
    assert c.moments != a.moments


def test_monte_carlo_exact_on_transitive_complex():
    torus = torus_tower(2, 5)
    sampler = vertex_sampler(torus, 3)
    mv = monte_carlo_moments(sampler, 1, 2, 40, seed=3)
    exact = exhaustive_moments(torus, 1, 2)
    assert mv.moments[0] == 3.0
    assert all(e == 0.0 for e in mv.stderrs)
    assert mv.moments == tuple(float(m) for m in exact.moments)
    # a sampler that always returns one root of a complex with no symmetry
    # is exact the same way: every sample is that root's exact moments
    cx = _percolated_torus()
    for v in (0, 37, 55):
        rc = rooted_at(cx, v)
        for p in range(3):
            mv = monte_carlo_moments(lambda rng: rc, p, 6, 4, seed=5)
            assert mv.moments == tuple(float(local_moment(rc, p, r))
                                       for r in range(7))
            assert mv.stderrs == (0.0,) * 7


def test_monte_carlo_error_scaling():
    sampler = vertex_sampler(fixtures()["path4"], 2)
    sizes = [200, 800, 3200]
    errs = [monte_carlo_moments(sampler, 0, 1, n, seed=5).stderrs[1]
            for n in sizes]
    slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    assert abs(slope + 0.5) < 0.1


def test_monte_carlo_input_contracts():
    path = fixtures()["path4"]
    with pytest.raises(ValidationError):
        monte_carlo_moments(vertex_sampler(path, 3), 0, 2, 0, seed=1)
    with pytest.raises(ValidationError):
        monte_carlo_moments(vertex_sampler(path, 3), 0, 2, 5, seed=-1)
    with pytest.raises(ValidationError):
        vertex_sampler(closure([]), 3)
    with pytest.raises(ValidationError):
        vertex_sampler(path, -1)
    # one sample has no spread to estimate
    one = monte_carlo_moments(vertex_sampler(path, 3), 0, 2, 1, seed=1)
    assert one.stderrs == (0.0, 0.0, 0.0)
    # declared ball radius too small for the requested order
    with pytest.raises(ValidationError):
        monte_carlo_moments(vertex_sampler(path, 1), 0, 2, 5, seed=1)
    # a sampler may also hand back whole rooted complexes
    def whole(rng):
        return rooted_at(path, int(rng.integers(4)))
    mv = monte_carlo_moments(whole, 0, 2, 30, seed=9)
    assert mv.moments[0] == 1.0


def test_root_sample_covers():
    # order r reads the (r//2 + 1)-ball
    rc = rooted_at(fixtures()["path4"], 0)
    assert RootSample(rc).covers(10)
    assert RootSample(rc, declared_radius=3).covers(5)
    assert not RootSample(rc, declared_radius=3).covers(6)
    assert RootSample(rc, declared_radius=1).covers(1)
    assert not RootSample(rc, declared_radius=1).covers(2)


def test_monte_carlo_needs_only_the_half_order_ball():
    # a 12x12 torus with every third triangle dropped: irregular balls, and
    # radius-3 balls are much smaller than radius-5 ones
    torus = torus_tower(2, 12)
    kept = [t for i, t in enumerate(torus.faces(2)) if i % 3]
    cx = closure(kept + list(torus.faces(1)))
    for p in (0, 1, 2):
        near = monte_carlo_moments(vertex_sampler(cx, 3), p, 4, 30, seed=5)
        far = monte_carlo_moments(vertex_sampler(cx, 5), p, 4, 30, seed=5)
        assert near.moments == far.moments
        assert near.stderrs == far.stderrs
    with pytest.raises(ValidationError):
        monte_carlo_moments(vertex_sampler(cx, 2), 1, 4, 1, seed=5)


def test_convergence_experiment_checks_eps_first(monkeypatch):
    levels = []
    monkeypatch.setattr(estimators, "_level_stats", levels.append)
    for eps_list in ([0.1, 2], [0.0], [1], [float("nan")]):
        with pytest.raises(ValidationError, match="strictly between 0 and 1"):
            convergence_experiment([torus_tower(2, 4), torus_tower(2, 5)],
                                   1, 2, eps_list, threads=1)
    # two values with one :g label would share a CSV column and a trend
    for eps_list in ([0.1, 0.1000001], [0.5, 0.5]):
        with pytest.raises(ValidationError, match="repeat a column label"):
            convergence_experiment([torus_tower(2, 4), torus_tower(2, 5)],
                                   1, 2, eps_list, threads=1)
    assert levels == []


def test_convergence_experiment_checks_rmax_first(monkeypatch):
    levels = []
    monkeypatch.setattr(estimators, "_level_stats", levels.append)
    for p, order, rmax, message in [
            (1, 2, -1, "rmax must be nonnegative"),
            (-1, 2, 2, "dimension must be nonnegative"),
            (1, -1, 2, "moment order must be nonnegative"),
            (1, 2, 1.5, "rmax must be an integer"),
            (1, 2.0, 2, "moment order must be an integer"),
            (1.0, 2, 2, "dimension must be an integer")]:
        with pytest.raises(ValidationError, match=message):
            convergence_experiment([torus_tower(2, 4), torus_tower(2, 5)],
                                   p, order, [0.5], rmax=rmax, threads=1)
    assert levels == []
    # a negative bound is a bad argument, not a level breaking the bound
    for bound, message in [(-1, "degree bound must be nonnegative"),
                           (6.5, "degree bound must be an integer")]:
        with pytest.raises(ValidationError, match=message):
            convergence_experiment([torus_tower(2, 4), torus_tower(2, 5)],
                                   1, 2, [0.5], degree_bound=bound)
    assert levels == []


def test_kernel_mass_bound_formula():
    d, p, eps = 6, 1, 0.5
    radius = 15  # max((p+1)(D-p+1), (p+2)(D-p), 0)
    want = math.log(radius) * math.comb(d, p) / ((p + 1) * math.log(1 / eps))
    assert kernel_mass_bound(d, p, eps) == pytest.approx(want)
    assert kernel_mass_bound(0, 0, 0.5) == 0.0  # a priori radius is 1


def test_fraction_eps_writes_what_its_float_writes(tmp_path):
    # a Fraction eps is labelled by its float in the column, footer and
    # summary, on every Python version the package supports
    tower = [torus_tower(2, 4), torus_tower(2, 5)]
    reports = [convergence_experiment(tower, 1, 2, [eps])
               for eps in (Fraction(1, 2), 0.5)]
    for name, report in zip(("fraction.csv", "float.csv"), reports):
        report.write_csv(tmp_path / name)
    assert ((tmp_path / "fraction.csv").read_bytes()
            == (tmp_path / "float.csv").read_bytes())
    assert reports[0].summary_lines() == reports[1].summary_lines()


def test_kernel_mass_bound_default_radius_holds():
    # The bound grows with the radius, so an a priori radius at least the
    # true one gives a bound at least the one from the true radius.  The
    # old default 2*sqrt((p+2)*D) = 8.49 fails this on torus_tower(2, 8),
    # p=1, whose spectral radius is 8.83.
    corpus = dict(fixtures(), torus8=torus_tower(2, 8))
    for name, cx in corpus.items():
        degree = cx.max_degree()
        for p in range(cx.dim + 1):
            radius = spectral_measure(cx, p).spectral_radius()
            for eps in (0.5, 0.1):
                true_bound = 0.0 if radius <= 1 else (
                    math.log(radius) * math.comb(degree, p)
                    / ((p + 1) * math.log(1 / eps)))
                assert kernel_mass_bound(degree, p, eps) >= \
                    true_bound - 1e-12, (name, p, eps)


def test_kernel_mass_bound_validation():
    for bad_eps in (0.0, 1.0, -0.2, 2.0):
        with pytest.raises(ValidationError):
            kernel_mass_bound(6, 1, bad_eps)
    with pytest.raises(ValidationError):
        kernel_mass_bound(-1, 1, 0.5)
    with pytest.raises(ValidationError, match="dimension must be nonnegative"):
        kernel_mass_bound(6, -1, 0.5)


def test_kernel_mass_bound_checks_measures():
    # the counting bound at the complex's max degree holds on every measure
    corpus = dict(fixtures(), torus8=torus_tower(2, 8))
    for name, cx in corpus.items():
        for p in range(cx.dim + 1):
            nu = spectral_measure(cx, p)
            for eps in (0.5, 0.1):
                bound = kernel_mass_bound(cx.max_degree(), p, eps)
                assert float(nu.near_zero_mass(eps)) <= bound + 1e-12, \
                    (name, p, eps)
    # a fabricated measure crammed with tiny eigenvalues breaks it
    fake = SpectralMeasure(1, 2, (0.001, 0.001, 0.001, 0.001), 0)
    assert float(fake.near_zero_mass(0.5)) > kernel_mass_bound(1, 1, 0.5)


def test_convergence_experiment_torus_rows():
    report = convergence_experiment(
        [torus_tower(2, n) for n in (4, 6, 8)],
        p=1, order=2, eps_list=[0.5], labels=[4, 6, 8])
    assert [row["b_p"] for row in report.rows] == [2, 2, 2]
    assert [row["b_p_normalized"] for row in report.rows] == \
        [Fraction(1, 8), Fraction(1, 18), Fraction(1, 32)]
    assert report.rows[0]["moments"][0] == 3
    assert report.trends["b_p_normalized"] == "decreasing"
    assert report.trends["dist_to_last"] == "decreasing"
    # radius-2 balls stabilize from n=6 on
    assert report.distances_to_last[0] > 0
    assert report.distances_to_last[1] == 0
    assert report.distances_to_last[2] == 0


def test_convergence_experiment_codes_no_radius_zero_ball(monkeypatch):
    # every 0-ball is the root alone, so the distances equal the old sum
    # from r = 0 without coding one
    import l2limits.measures as measures
    rng = np.random.default_rng(59)
    levels = [random_complex(rng, 8) for _ in range(5)]
    radii = []
    code = measures._ball_codes

    def counted(cx, root, asked):
        radii.extend(asked)
        return code(cx, root, asked)

    monkeypatch.setattr(measures, "_ball_codes", counted)
    report = convergence_experiment(levels, 1, 2, [0.5], rmax=3,
                                    degree_bound=8)
    assert radii and 0 not in radii
    last = uniform_rooting(levels[-1])
    old = []
    for cx in levels:
        mu = uniform_rooting(cx)
        old.append(sum((Fraction(1, 2 ** r) * tv_gap(
            ball_distribution(mu, r), ball_distribution(last, r))
            for r in range(4)), Fraction(0)))
    assert report.distances_to_last == old
    assert len(set(old)) > 2


def test_convergence_experiment_constant_sequence():
    cx = torus_tower(1, 6)
    report = convergence_experiment([cx, cx, cx], p=1, order=1, eps_list=[0.5])
    assert all(d == 0 for d in report.distances_to_last)
    assert report.labels == [0, 1, 2]
    assert all(flag == "constant" for flag in report.trends.values())
    # one level is its own last, and a single value has no trend
    single = convergence_experiment([cx], p=1, order=1, eps_list=[0.5])
    assert single.distances_to_last == [0]
    assert len(single.trends) == 3
    assert all(flag == "constant" for flag in single.trends.values())


def test_convergence_experiment_hypothesis_violations():
    tori = [torus_tower(2, n) for n in (4, 6)]
    with pytest.raises(HypothesisViolationError):
        convergence_experiment(tori, 1, 1, [0.5], degree_bound=5)
    growing = [closure(list(combinations(range(n), 2))) for n in (3, 4, 5)]
    with pytest.raises(HypothesisViolationError):
        convergence_experiment(growing, 1, 1, [0.5])
    # an explicit bound that holds silences the growth heuristic
    report = convergence_experiment(growing, 1, 1, [0.5], degree_bound=10)
    assert report.degree_bound == 10


def test_convergence_experiment_input_checks():
    with pytest.raises(ValidationError):
        convergence_experiment([], 1, 1, [0.5])
    with pytest.raises(ValidationError):
        convergence_experiment([torus_tower(1, 4)], 1, 1, [0.5], labels=[1, 2])


def test_convergence_experiment_threads_is_none_or_one(monkeypatch):
    tori = [torus_tower(1, n) for n in (5, 6, 7)]
    default = convergence_experiment(tori, 1, 2, [0.5, 0.1])
    one = convergence_experiment(tori, 1, 2, [0.5, 0.1], threads=1)
    for name in ConvergenceReport.__slots__:
        assert getattr(default, name) == getattr(one, name)
    levels = []
    monkeypatch.setattr(estimators, "_level_stats", levels.append)
    for threads in (2, 0):
        with pytest.raises(ValidationError, match="threads"):
            convergence_experiment(tori, 1, 2, [0.5], threads=threads)
    assert levels == []


def test_convergence_experiment_csv(tmp_path):
    out = tmp_path / "report.csv"
    convergence_experiment(
        [torus_tower(2, n) for n in (4, 6)],
        p=1, order=2, eps_list=[0.5, 0.1], labels=iter([4, "σ"]),
        degree_bound=6).write_csv(out)
    data = out.read_bytes()
    assert b"\r" not in data  # rows end in \n, like the footers
    assert "\nσ,".encode("utf-8") in data  # a path is written as UTF-8
    lines = data.decode("utf-8").splitlines()
    assert lines[0] == "n,|V|,p,b_p,b_p_normalized,m0,m1,m2,nu_eps_0.5,nu_eps_0.1"
    assert lines[1] == "4,16,1,2,1/8,3,12,66,1/8,1/8"
    assert lines[2].startswith("σ,36,1,2,1/18,3,12,66,")
    footers = [line for line in lines if line.startswith("#")]
    assert len(footers) == 2
    assert footers[0].startswith("# kernel_mass_bound eps=0.5 D=6 p=1: ")
