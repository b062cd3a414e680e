from fractions import Fraction

import numpy as np
import pytest

from conftest import random_complex, tv_gap
import l2limits.measures as measures
from l2limits.complexes import RootedComplex, SimplicialComplex, rooted_at
from l2limits.encoding import canonical_code
from l2limits.errors import ValidationError
from l2limits.estimators import local_moment, moments_of_measure
from l2limits.generators import (fixtures, linial_meshulam, random_flag,
                                 torus_tower)
from l2limits.measures import (BallDistribution, RandomRootedComplex,
                               SupportPoint, ball_distribution, degree_truncate,
                               expected_p_degree, mass_transport_check,
                               measure_distance, non_unimodular_example,
                               standard_battery, uniform_rooting)

closure = SimplicialComplex.closure


def weight_of(mu, predicate):
    return sum((pt.weight for pt in mu if predicate(pt)), Fraction(0))


def test_uniform_rooting_path3():
    mu = uniform_rooting(fixtures()["path3"])
    assert len(mu) == 2
    assert weight_of(mu, lambda pt: pt.rooted.p_degree(1) == 1) == Fraction(2, 3)
    assert weight_of(mu, lambda pt: pt.rooted.p_degree(1) == 2) == Fraction(1, 3)
    mu.validate()


def test_uniform_rooting_star():
    mu = uniform_rooting(fixtures()["star5"])
    assert sorted(pt.weight for pt in mu) == [Fraction(1, 6), Fraction(5, 6)]


def test_uniform_rooting_transitive_complexes():
    for cx in (fixtures()["cycle5"], fixtures()["torus4"], torus_tower(2, 6)):
        mu = uniform_rooting(cx)
        assert len(mu) == 1
        assert mu.points[0].weight == 1


def test_uniform_rooting_lands_in_components():
    mu = uniform_rooting(fixtures()["two_triangles"])
    assert len(mu) == 1
    assert len(mu.points[0].rooted.complex.vertices) == 3
    mixed = closure([(0, 1, 2), (5,)])
    mu = uniform_rooting(mixed)
    assert weight_of(mu, lambda pt: pt.rooted.p_degree(1) == 0) == Fraction(1, 4)
    assert weight_of(mu, lambda pt: pt.rooted.p_degree(1) == 2) == Fraction(3, 4)


def test_uniform_rooting_weights_are_vertex_counts():
    rng = np.random.default_rng(43)
    for _ in range(25):
        cx = random_complex(rng, 9)
        mu = uniform_rooting(cx)
        n = len(cx.vertices)
        assert sum(pt.weight for pt in mu) == 1
        for pt in mu:
            assert (pt.weight * n).denominator == 1
        mu.validate()


def defect_torus(side, removed):
    """Side-``side`` torus with ``removed`` triangles drawn by default_rng(0)."""
    full = torus_tower(2, side)
    tris = full.faces(2)
    picks = np.random.default_rng(0).choice(len(tris), removed, replace=False)
    drop = {tris[i] for i in picks}
    return SimplicialComplex.closure(
        list(full.faces(1)) + [t for t in tris if t not in drop])


def _assert_grouped_by_code(cx):
    """``uniform_rooting(cx)`` has one point per canonical code of a root,
    of weight the share of such roots, rooted at the smallest of them."""
    n = len(cx.vertices)
    by_code = {}
    first_root = {}
    for v in sorted(cx.vertices):
        code = canonical_code(rooted_at(cx, v))
        by_code[code] = by_code.get(code, 0) + Fraction(1, n)
        first_root.setdefault(code, v)
    mu = uniform_rooting(cx)
    assert {pt.ball_code(None): pt.weight for pt in mu} == by_code
    # each class is represented by its smallest root, in root order
    assert ([(pt.ball_code(None), pt.rooted.root) for pt in mu]
            == list(first_root.items()))


def test_uniform_rooting_matches_grouping_by_code_on_defect_tori():
    for side in (5, 6):
        for removed in (0, 1, 2):
            _assert_grouped_by_code(defect_torus(side, removed))


def test_smallest_roots_represent_classes_under_any_labelling():
    # An isomorphism found between two roots also merges the roots of
    # later classes, so a class's smallest root may be met in a tree rooted
    # at a larger root of its class.  Here the search from root 0 to root 2
    # puts pendant roots 3, 4 and 5 in one tree rooted at 4 before 3 is met.
    _assert_grouped_by_code(closure(
        [(0, 1), (1, 2), (0, 2), (0, 5), (1, 3), (2, 4)]))
    # triangles and pentagons with pendant paths, and prisms, relabelled
    rng = np.random.default_rng(5)
    for k, legs in ((3, 1), (3, 2), (5, 2), (4, 0), (5, 0)):
        edges = [(i, (i + 1) % k) for i in range(k)]
        if legs:
            edges += [(i + j * k, i + (j + 1) * k)
                      for i in range(k) for j in range(legs)]
        else:  # a prism
            edges += [(k + i, k + (i + 1) % k) for i in range(k)]
            edges += [(i, k + i) for i in range(k)]
        for _ in range(12):
            perm = rng.permutation(k * (legs or 1) + k)
            _assert_grouped_by_code(closure(
                [(int(perm[a]), int(perm[b])) for a, b in edges]))


def test_uniform_rooting_needs_no_search_without_symmetry(monkeypatch):
    import l2limits.encoding as encoding
    calls = []
    real = encoding._search

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(encoding, "_search", counted)
    mu = uniform_rooting(defect_torus(12, 4))
    # refined colours alone separate all 144 roots
    assert len(mu) == 144
    assert calls == []


def test_support_point_and_law_validation():
    edge = closure([(0, 1)])
    with pytest.raises(ValidationError):
        SupportPoint(rooted_at(edge, 0), 0)
    with pytest.raises(ValidationError):
        RandomRootedComplex(())
    with pytest.raises(ValidationError):
        RandomRootedComplex((SupportPoint(rooted_at(edge, 0), Fraction(1, 2)),))
    mu = RandomRootedComplex.point_mass(rooted_at(edge, 0))
    mu.validate()
    assert mu.expect(lambda pt: pt.rooted.p_degree(1)) == 1
    # both roots of an edge are the same class: distinctness must fail
    twin = RandomRootedComplex((
        SupportPoint(rooted_at(edge, 0), Fraction(1, 2)),
        SupportPoint(rooted_at(edge, 1), Fraction(1, 2)),
    ))
    with pytest.raises(ValidationError):
        twin.validate()


def test_ball_distribution_cycles():
    mu6 = uniform_rooting(fixtures()["cycle6"])
    dist = ball_distribution(mu6, 1)
    assert dist.radius == 1
    assert len(dist) == 1
    assert next(iter(dist.values())) == 1
    dist.validate()
    mu5 = uniform_rooting(fixtures()["cycle5"])
    assert ball_distribution(mu5, 1) == dist  # same centered path
    assert ball_distribution(mu5, 2) != ball_distribution(mu6, 2)


def test_ball_distribution_path4():
    mu = uniform_rooting(fixtures()["path4"])
    dist = ball_distribution(mu, 1)
    assert sorted(dist.values()) == [Fraction(1, 2), Fraction(1, 2)]
    dist.validate()
    with pytest.raises(ValidationError):
        ball_distribution(mu, -1)


def test_ball_distribution_validate_rejects_non_balls():
    center = rooted_at(fixtures()["path3"], 1)
    bad = BallDistribution(0, {canonical_code(center): Fraction(1)})
    with pytest.raises(ValidationError):
        bad.validate()
    short = BallDistribution(0, {canonical_code(center.ball(0)): Fraction(1, 2)})
    with pytest.raises(ValidationError):
        short.validate()
    # valid radius-1 keys whose weights sum to 1 but are not all positive
    end = canonical_code(rooted_at(fixtures()["path3"], 0).ball(1))
    for weights in ((Fraction(3, 2), Fraction(-1, 2)), (Fraction(1), Fraction(0))):
        law = BallDistribution(1, dict(zip((canonical_code(center), end), weights)))
        with pytest.raises(ValidationError, match="positive"):
            law.validate()


def test_measure_distance_cycle_example():
    mu5 = uniform_rooting(fixtures()["cycle5"])
    mu6 = uniform_rooting(fixtures()["cycle6"])
    # balls agree through radius 1 and split at radius 2
    assert measure_distance(mu5, mu6, 1) == 0
    assert measure_distance(mu5, mu6, 2) == Fraction(1, 4)
    assert measure_distance(mu5, mu6, 3) == Fraction(1, 4) + Fraction(1, 8)
    assert measure_distance(mu5, mu5, 5) == 0
    assert measure_distance(mu6, mu5, 2) == Fraction(1, 4)


def test_measure_distance_reuses_the_ball_codes(monkeypatch):
    mu = uniform_rooting(random_flag(16, 5 / 16, 3, 3))
    assert len(mu) > 1
    laws = [ball_distribution(mu, r) for r in range(3)]
    calls = []
    code = measures._ball_code

    def counted(*args):
        calls.append(args)
        return code(*args)

    monkeypatch.setattr(measures, "_ball_code", counted)
    assert measure_distance(mu, mu, 2) == 0
    assert [ball_distribution(mu, r) for r in range(3)] == laws
    assert calls == []


def test_support_point_codes_its_complex_once(monkeypatch):
    # the whole-complex code is the ball code of radius None, memoized once
    import l2limits.encoding as encoding
    mu = uniform_rooting(random_flag(16, 5 / 16, 3, 3))
    assert len(mu) > 1
    codes = [pt.ball_code(None) for pt in mu]
    assert codes == [canonical_code(pt.rooted) for pt in mu]
    calls = []
    for module in (encoding, measures):
        code = module._ball_code

        def counted(*args, code=code):
            calls.append(args)
            return code(*args)

        monkeypatch.setattr(module, "_ball_code", counted)
    for pt, code in zip(mu, codes):
        assert pt.ball_code(None) is code
    assert calls == []


def test_ball_laws_cut_no_ball_under_the_tie_cap(monkeypatch):
    # every code is read from the support complex; a ball would be cut only
    # for the automorphism searches of a tie wider than the cap
    import l2limits.encoding as encoding
    mu = uniform_rooting(random_flag(16, 5 / 16, 3, 3))
    assert len(mu) > 1
    calls = []
    original = SimplicialComplex.induced

    def counted(self, vertex_subset):
        calls.append(self)
        return original(self, vertex_subset)

    monkeypatch.setattr(SimplicialComplex, "induced", counted)
    monkeypatch.setattr(encoding, "_CODE_CACHE", {})
    laws = [ball_distribution(mu, r) for r in range(4)]
    assert all(sum(law.values()) == 1 for law in laws)
    assert calls == []


def test_measure_distance_hollow_vs_filled():
    hollow = uniform_rooting(fixtures()["hollow_triangle"])
    filled = uniform_rooting(fixtures()["filled_triangle"])
    assert measure_distance(hollow, filled, 0) == 0
    assert measure_distance(hollow, filled, 1) == Fraction(1, 2)
    with pytest.raises(ValidationError):
        measure_distance(hollow, filled, -1)


def test_measure_distance_codes_no_radius_zero_ball(monkeypatch):
    # Every 0-ball is the root alone, so the old sum from r = 0 has the
    # same value; the distances are taken first, on fresh laws, so no
    # code is memoized before them.
    rng = np.random.default_rng(53)
    laws = [uniform_rooting(random_complex(rng, 8)) for _ in range(8)]
    radii = []
    code = measures._ball_code

    def counted(cx, root, r=None):
        radii.append(r)
        return code(cx, root, r)

    monkeypatch.setattr(measures, "_ball_code", counted)
    got = {(i, j, rmax): measure_distance(a, b, rmax)
           for i, a in enumerate(laws) for j, b in enumerate(laws)
           for rmax in range(4)}
    assert radii and 0 not in radii
    for (i, j, rmax), value in got.items():
        old = sum((Fraction(1, 2 ** r) * tv_gap(
            ball_distribution(laws[i], r), ball_distribution(laws[j], r))
            for r in range(rmax + 1)), Fraction(0))
        assert value == old
    assert len(set(got.values())) > 5


def _per_radius_distance(mu, nu, rmax):
    """Σ_{r=1..rmax} 2^-r TV of the radius-r ball laws, one radius at a time."""
    signed = [(pt, pt.weight) for pt in mu] + [(pt, -pt.weight) for pt in nu]
    return sum((sum(map(abs, measures._code_sums(signed, r).values()))
                / 2 ** (r + 1) for r in range(1, rmax + 1)), Fraction(0))


def test_measure_distance_codes_no_ball_past_the_largest_support(monkeypatch):
    # past the largest support's vertex count (49 here) each ball is its
    # whole component, so the gap stays put and the tail needs no code
    mu = uniform_rooting(torus_tower(2, 6))
    nu = uniform_rooting(torus_tower(2, 7))
    radii = []
    code = measures._ball_code

    def counted(cx, root, r=None):
        radii.append(r)
        return code(cx, root, r)

    monkeypatch.setattr(measures, "_ball_code", counted)
    far = measure_distance(mu, nu, 1000)
    assert sorted(radii) == sorted([*range(1, 50)] * 2)
    monkeypatch.setattr(measures, "_ball_code", code)
    for rmax in (0, 1, 2, 5, 35, 36, 37, 48, 49, 50, 100):
        assert measure_distance(mu, nu, rmax) == _per_radius_distance(mu, nu, rmax)
    assert far == _per_radius_distance(mu, nu, 1000)
    assert far.denominator.bit_length() > 1000
    laws = [uniform_rooting(cx) for cx in fixtures().values() if cx.is_connected()]
    for a in laws:
        for b in laws:
            for rmax in (1, 3, 9):
                assert measure_distance(a, b, rmax) == _per_radius_distance(a, b, rmax)


def test_measure_distance_triangle_inequality():
    rng = np.random.default_rng(47)
    laws = [uniform_rooting(random_complex(rng, 8)) for _ in range(6)]
    for a in laws[:4]:
        for b in laws[:4]:
            assert measure_distance(a, b, 2) == measure_distance(b, a, 2)
            for c in laws[:4]:
                assert (measure_distance(a, c, 2)
                        <= measure_distance(a, b, 2) + measure_distance(b, c, 2))


def test_battery_shape():
    battery = standard_battery()
    assert len(battery) == 12
    assert len({name for name, _ in battery}) == 12


def test_adjacency_is_membership_of_the_edge():
    adjacency = dict(standard_battery())["adjacency"]
    rng = np.random.default_rng(61)
    cases = [fixtures()["path3"], random_flag(20, 0.2, 2, 4)]
    cases += [random_complex(rng, 9) for _ in range(10)]
    for cx in cases:
        edges = set(cx.faces(1))
        points = list(cx.vertices) + [max(cx.vertices) + 1]
        for x in points:
            for y in points:
                assert adjacency(cx, x, y) == (tuple(sorted((x, y))) in edges)


def test_mass_transport_exact_on_fixtures():
    for name, cx in fixtures().items():
        mu = uniform_rooting(cx)
        for fn_name, fn in standard_battery():
            lhs, rhs, passed = mass_transport_check(mu, fn)
            assert passed and lhs == rhs, (name, fn_name)


def test_mass_transport_exact_on_random_complexes():
    rng = np.random.default_rng(53)
    for _ in range(15):
        mu = uniform_rooting(random_complex(rng, 9))
        for fn_name, fn in standard_battery():
            result = mass_transport_check(mu, fn)
            assert result.passed, fn_name


def _per_pair_battery():
    """The battery written pair by pair: each distance is a fresh search."""

    def adjacent(cx, x, y):
        return y in cx.neighbors(x)

    def distance(cx, x, y):
        return cx.distances(x).get(y)

    def within_two(cx, x, y):
        d = distance(cx, x, y)
        return d is not None and d <= 2

    return {
        "same_vertex": lambda cx, x, y: int(x == y),
        "degree_at_self": lambda cx, x, y: cx.degree(x) if x == y else 0,
        "adjacency": lambda cx, x, y: int(adjacent(cx, x, y)),
        "adjacency_times_far_degree":
            lambda cx, x, y: cx.degree(y) if adjacent(cx, x, y) else 0,
        "adjacency_uphill": lambda cx, x, y: int(
            adjacent(cx, x, y) and cx.degree(x) > cx.degree(y)),
        "adjacency_min_degree": lambda cx, x, y: min(
            cx.degree(x), cx.degree(y)) if adjacent(cx, x, y) else 0,
        "adjacency_to_degree_two": lambda cx, x, y: int(
            adjacent(cx, x, y) and cx.degree(y) == 2),
        "common_neighbors": lambda cx, x, y: len(
            set(cx.neighbors(x)) & set(cx.neighbors(y)))
        if adjacent(cx, x, y) else 0,
        "shared_triangles": lambda cx, x, y: sum(
            1 for s in cx.faces(2) if x in s and y in s)
        if adjacent(cx, x, y) else 0,
        "at_distance_two": lambda cx, x, y: int(distance(cx, x, y) == 2),
        "inverse_distance": lambda cx, x, y: Fraction(0)
        if distance(cx, x, y) is None else Fraction(1, 1 + distance(cx, x, y)),
        "nearby_triangle_degree": lambda cx, x, y: cx.p_degree(y, 2)
        if within_two(cx, x, y) else 0,
    }


def test_battery_matches_the_per_pair_reference():
    rng = np.random.default_rng(67)
    laws = [uniform_rooting(cx) for cx in fixtures().values()]
    laws += [uniform_rooting(random_complex(rng, 9)) for _ in range(12)]
    laws += [uniform_rooting(random_flag(14, 0.3, 3, s)) for s in range(2)]
    reference = _per_pair_battery()
    battery = standard_battery()
    assert [name for name, _ in battery] == list(reference)
    for mu in laws:
        for name, fn in battery:
            ref = reference[name]
            assert tuple(mass_transport_check(mu, fn)) == \
                tuple(mass_transport_check(mu, ref)), name
            # every pair, in reverse order so both ends' searches are read
            cx = mu.points[0].rooted.complex
            verts = cx.vertices[::-1]
            for x in verts:
                for y in verts:
                    assert fn(cx, x, y) == ref(cx, x, y), (name, x, y)


def test_battery_searches_once_per_root(monkeypatch):
    import l2limits.complexes as complexes
    bfs = complexes._bfs
    calls = []

    def counted(cx, root, radius=None):
        calls.append(root)
        return bfs(cx, root, radius)

    laws = [uniform_rooting(random_flag(36, 0.25, 3, s)) for s in range(3)]
    monkeypatch.setattr(complexes, "_bfs", counted)
    for name in ("at_distance_two", "inverse_distance",
                 "nearby_triangle_degree"):
        for mu in laws:
            fn = dict(standard_battery())[name]
            calls.clear()
            mass_transport_check(mu, fn)
            support = {id(pt.rooted.complex): len(pt.rooted.complex.vertices)
                       for pt in mu}
            assert len(calls) <= sum(support.values()), name
            assert len(calls) <= len(mu), name


def test_mass_transport_known_values():
    mu = uniform_rooting(fixtures()["path3"])
    battery = dict(standard_battery())
    result = mass_transport_check(mu, battery["degree_at_self"])
    assert result.lhs == Fraction(4, 3)
    result = mass_transport_check(mu, battery["adjacency"])
    assert result.lhs == Fraction(4, 3)


def test_mass_transport_compares_exactly():
    # path3's uniform rooting with 1e-12 moved from the center to an end
    skew = Fraction(1, 10 ** 12)
    path = fixtures()["path3"]
    mu = RandomRootedComplex([
        SupportPoint(rooted_at(path, 0), Fraction(2, 3) + skew),
        SupportPoint(rooted_at(path, 1), Fraction(1, 3) - skew)])
    fn = dict(standard_battery())["adjacency_times_far_degree"]
    lhs, rhs, passed = mass_transport_check(mu, fn)
    assert (lhs, rhs) == (2, 2 - 3 * skew)
    assert not passed


def test_non_unimodular_example_fails_transport():
    mu, fn = non_unimodular_example()
    lhs, rhs, passed = mass_transport_check(mu, fn)
    assert not passed
    assert lhs == 1
    assert rhs == 0
    # the same function passes under honest uniform rooting
    fixed = mass_transport_check(uniform_rooting(mu.points[0].rooted.complex), fn)
    assert fixed.passed


def test_degree_truncate_star():
    out = degree_truncate(fixtures()["star5"], 3)
    assert out.max_degree() == 3
    assert sorted(out.vertices) == [0, 1, 2, 3, 4, 5]
    assert out.faces(1) == ((0, 3), (0, 4), (0, 5))


def test_degree_truncate_filled_triangle():
    out = degree_truncate(fixtures()["filled_triangle"], 1)
    assert sorted(out.vertices) == [0, 1, 2]
    assert out.faces(1) == ((1, 2),)
    assert out.faces(2) == ()


def test_degree_truncate_edge_cases():
    cx = fixtures()["path3"]
    assert degree_truncate(cx, 2) is cx  # already under the cap
    out = degree_truncate(cx, 0)
    assert out.faces(1) == ()
    assert sorted(out.vertices) == [0, 1, 2]
    with pytest.raises(ValidationError):
        degree_truncate(cx, -1)


def test_degree_truncate_properties():
    rng = np.random.default_rng(59)
    for _ in range(40):
        cx = random_complex(rng, 10)
        cap = int(rng.integers(0, 5))
        out = degree_truncate(cx, cap)
        assert out.max_degree() <= cap
        assert sorted(out.vertices) == sorted(cx.vertices)
        assert set(out.simplices) <= set(cx.simplices)
        # result is downward closed and truncation is idempotent
        assert SimplicialComplex(out.simplices).simplices == out.simplices
        assert degree_truncate(out, cap) is out


def _one_edge_truncate(cx, max_deg):
    """The greedy rule deleting one edge per rebuild of the complex."""
    while cx.max_degree() > max_deg:
        top = cx.max_degree()
        v = min(u for u in cx.vertices if cx.degree(u) == top)
        nbrs = cx.neighbors(v)
        nbr_top = max(cx.degree(u) for u in nbrs)
        u = min(w for w in nbrs if cx.degree(w) == nbr_top)
        a, b = (v, u) if v < u else (u, v)
        cx = SimplicialComplex._from_faces(
            [[s for s in cx.faces(p) if not (a in s and b in s)]
             for p in range(cx.dim + 1)])
    return cx


def test_degree_truncate_matches_the_one_edge_rule():
    rng = np.random.default_rng(71)
    cases = [random_complex(rng, 12, max_pieces=10) for _ in range(200)]
    cases += [random_flag(20, 0.4, 3, s) for s in range(4)]
    met = 0
    for cx in cases:
        assert cx.dim <= 3
        top = cx.max_degree()
        for cap in {0, int(rng.integers(0, top + 1)), top, top + 1}:
            out = degree_truncate(cx, cap)
            assert out == _one_edge_truncate(cx, cap), (cx, cap)
            if cap >= top:
                assert out is cx
                met += 1
    assert met >= 2 * len(cases)


def test_expected_p_degree():
    assert expected_p_degree(uniform_rooting(fixtures()["cycle5"]), 1) == 2
    filled = uniform_rooting(fixtures()["filled_triangle"])
    assert expected_p_degree(filled, 1) == 2
    assert expected_p_degree(filled, 2) == 1
    assert expected_p_degree(uniform_rooting(fixtures()["path3"]), 1) == Fraction(4, 3)
    torus = uniform_rooting(fixtures()["torus4"])
    assert expected_p_degree(torus, 1) == 6
    assert expected_p_degree(torus, 2) == 6


def test_repeated_classes_count_as_one_point_of_their_summed_weight():
    # one class split over two points, one of them relabelled, with
    # weights 1/3 and 2/3, against the same class as one point
    cx = random_flag(16, 5 / 16, 3, 1)
    rc = rooted_at(cx, 0)
    perm = {v: 3 * v + 7 for v in rc.complex.vertices}
    image = RootedComplex(SimplicialComplex(
        [tuple(sorted(perm[v] for v in s)) for s in rc.complex.simplices]),
        perm[0])
    merged = RandomRootedComplex.point_mass(rc)
    split = RandomRootedComplex([SupportPoint(rc, Fraction(1, 3)),
                                 SupportPoint(image, Fraction(2, 3))])
    for r in (1, 2):
        assert ball_distribution(split, r) == ball_distribution(merged, r)
    for p in (0, 1):
        assert (moments_of_measure(split, p, 4).moments
                == moments_of_measure(merged, p, 4).moments)
    for _, fn in standard_battery():
        assert (mass_transport_check(split, fn)[:2]
                == mass_transport_check(merged, fn)[:2])
    assert measure_distance(split, merged, 3) == 0
    merged.validate()
    with pytest.raises(ValidationError, match="share an isomorphism class"):
        split.validate()


def _relabelled(rc):
    """``rc`` with each vertex v renamed 3v + 7, in a new complex object."""
    return RootedComplex(SimplicialComplex(
        [tuple(3 * v + 7 for v in s) for s in rc.complex.simplices]),
        3 * rc.root + 7)


def test_validation_decides_classes_by_search_not_codes(monkeypatch):
    import l2limits.encoding as encoding

    def no_code(*args):
        raise AssertionError("validation computed a canonical code")

    monkeypatch.setattr(encoding, "_CODE_CACHE", {})
    monkeypatch.setattr(encoding, "_canonical_order", no_code)
    mu = uniform_rooting(random_flag(60, 0.08, 3, 0))
    assert len(mu) == 60
    mu.validate()
    laws = _unequal_denominator_laws()
    for law in laws[:3] + laws[4:]:
        law.validate()
    with pytest.raises(ValidationError, match="share an isomorphism class"):
        laws[3].validate()
    # isomorphic roots held in different complex objects
    cycle = rooted_at(fixtures()["cycle5"], 0)
    twins = RandomRootedComplex([SupportPoint(cycle, Fraction(1, 2)),
                                 SupportPoint(_relabelled(cycle), Fraction(1, 2))])
    with pytest.raises(ValidationError, match="share an isomorphism class"):
        twins.validate()


def test_validation_refuses_exactly_the_laws_with_a_repeated_code():
    # every root of each complex, then a relabelled copy of every fourth,
    # so classes recur within one complex object and across objects
    pool = [rooted_at(cx, v) for cx in
            [*fixtures().values(), linial_meshulam(2, 10, 0.3, 0),
             *(random_flag(16, 5 / 16, 3, s) for s in range(3))]
            for v in cx.vertices]
    pool += [_relabelled(rc) for rc in pool[::4]]
    rng = np.random.default_rng(11)
    verdicts = []
    for _ in range(400):
        picks = rng.choice(len(pool), int(rng.integers(2, 6)), replace=False)
        law = RandomRootedComplex(
            [SupportPoint(pool[i], Fraction(1, len(picks))) for i in picks])
        codes = [pt.ball_code(None) for pt in law]
        repeated = len(set(codes)) < len(codes)
        try:
            law.validate()
        except ValidationError:
            assert repeated
        else:
            assert not repeated
        verdicts.append(repeated)
    assert 40 < sum(verdicts) < 360


def _unequal_denominator_laws():
    """Laws whose weights have unequal denominators, over complexes of
    different sizes, with one class shared between them: 1/3, 2/7, 8/21;
    5/6, 1/10, 1/15; a uniform rooting; and one class split 1/3 + 2/3
    against the same class as one point."""
    flag = rooted_at(random_flag(16, 5 / 16, 3, 1), 0)
    image = RootedComplex(SimplicialComplex(
        [tuple(3 * v + 7 for v in s) for s in flag.complex.simplices]), 7)
    fx = fixtures()

    def law(*pairs):
        return RandomRootedComplex([SupportPoint(rc, w) for rc, w in pairs])

    return [
        law((rooted_at(fx["path4"], 0), Fraction(1, 3)),
            (flag, Fraction(2, 7)),
            (rooted_at(torus_tower(2, 5), 0), Fraction(8, 21))),
        law((image, Fraction(5, 6)),
            (rooted_at(fx["star5"], 0), Fraction(1, 10)),
            (rooted_at(fx["cycle6"], 0), Fraction(1, 15))),
        uniform_rooting(random_flag(16, 5 / 16, 3, 2)),
        law((flag, Fraction(1, 3)), (image, Fraction(2, 3))),
        RandomRootedComplex.point_mass(flag),
    ]


def test_integer_weight_sums_equal_the_fraction_sums():
    laws = _unequal_denominator_laws()
    for mu in laws:
        for r in (1, 2, 3):
            want = {}
            for pt in mu.points:
                code = pt.ball_code(r)
                want[code] = want.get(code, Fraction(0)) + pt.weight
            got = ball_distribution(mu, r)
            assert got == want and got.radius == r
            assert all(type(w) is Fraction for w in got.values())
        for p in (0, 1):
            assert moments_of_measure(mu, p, 4).moments == tuple(
                sum((pt.weight * local_moment(pt.rooted, p, k)
                     for pt in mu.points), Fraction(0)) for k in range(5))
    gaps = set()
    for mu in laws:
        for nu in laws:
            for rmax in (0, 1, 3):
                want = sum((Fraction(1, 2 ** r) * tv_gap(
                    ball_distribution(mu, r), ball_distribution(nu, r))
                    for r in range(1, rmax + 1)), Fraction(0))
                got = measure_distance(mu, nu, rmax)
                assert got == want and type(got) is Fraction
                gaps.add(got)
    assert len(gaps) > 5


def test_reprs_name_the_shape():
    path = closure([(0, 1), (1, 2)])
    mu = uniform_rooting(path)
    assert repr(path) == "SimplicialComplex(f_vector=(3, 2))"
    assert repr(mu.points[0].rooted) == "RootedComplex(root=0, f_vector=(3, 2))"
    assert repr(mu.points[0]) == "SupportPoint(root=0, weight=2/3)"
    assert repr(mu) == "RandomRootedComplex(2 support points)"
