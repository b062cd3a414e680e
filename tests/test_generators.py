from itertools import combinations

import pytest

from l2limits.complexes import SimplicialComplex, rooted_at
from l2limits.encoding import canonical_code
from l2limits.errors import ValidationError
from l2limits.generators import (fixtures, linial_meshulam, random_flag,
                                 torus_tower)
from l2limits.measures import ball_distribution, uniform_rooting
from l2limits.spectral import betti


def test_torus_2d_counts():
    for n in (3, 4, 5):
        cx = torus_tower(2, n)
        assert cx.f_vector() == (n * n, 3 * n * n, 2 * n * n)
        assert cx.euler_characteristic() == 0
        assert all(cx.degree(v) == 6 for v in cx.vertices)
        assert cx.is_connected()


def test_torus_2d_homology():
    for n in (4, 5):
        cx = torus_tower(2, n)
        assert [betti(cx, p) for p in range(3)] == [1, 2, 1]


def test_torus_1d_is_cycle():
    cx = torus_tower(1, 7)
    assert cx.f_vector() == (7, 7)
    assert [betti(cx, p) for p in range(2)] == [1, 1]


def test_torus_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        torus_tower(2, 2)
    with pytest.raises(ValidationError):
        torus_tower(1, 0)
    with pytest.raises(ValidationError):
        torus_tower(3, 5)


def test_torus_balls_stabilize():
    # the radius-r ball no longer sees the wrap once n >= 2r+2
    for r in (1, 2):
        codes = []
        for n in (2 * r + 2, 2 * r + 3, 2 * r + 6):
            dist = ball_distribution(uniform_rooting(torus_tower(2, n)), r)
            assert len(dist) == 1
            codes.append(next(iter(dist)))
        assert len(set(codes)) == 1
    small = ball_distribution(uniform_rooting(torus_tower(2, 3)), 1)
    big = ball_distribution(uniform_rooting(torus_tower(2, 4)), 1)
    assert next(iter(small)) != next(iter(big))


def test_linial_meshulam_skeleton_and_extremes():
    n = 7
    cx = linial_meshulam(2, n, 0.0, seed=1)
    assert cx.f_vector() == (n, n * (n - 1) // 2)
    full = linial_meshulam(2, n, 1.0, seed=1)
    assert len(full.faces(2)) == n * (n - 1) * (n - 2) // 6
    mid = linial_meshulam(2, n, 0.5, seed=5)
    assert 0 < len(mid.faces(2)) < len(full.faces(2))
    assert mid.faces(1) == cx.faces(1)


def test_linial_meshulam_determinism():
    a = linial_meshulam(2, 9, 0.3, seed=42)
    b = linial_meshulam(2, 9, 0.3, seed=42)
    c = linial_meshulam(2, 9, 0.3, seed=43)
    assert a.simplices == b.simplices
    assert a.simplices != c.simplices


def test_linial_meshulam_general_dimension():
    cx = linial_meshulam(3, 6, 0.5, seed=7)
    assert len(cx.faces(2)) == 20  # full 2-skeleton on 6 vertices
    assert cx.dim == 3


def test_linial_meshulam_validation():
    with pytest.raises(ValidationError):
        linial_meshulam(0, 5, 0.5, seed=1)
    with pytest.raises(ValidationError):
        linial_meshulam(2, 2, 0.5, seed=1)
    with pytest.raises(ValidationError):
        linial_meshulam(2, 5, 1.5, seed=1)
    with pytest.raises(ValidationError):
        linial_meshulam(2, 5, 0.5, seed=-1)


def test_random_flag_is_a_flag_complex():
    cx = random_flag(10, 0.5, 3, seed=13)
    assert cx.dim <= 3
    edges = set(cx.faces(1))
    for size in (3, 4):
        for combo in combinations(range(10), size):
            if all(tuple(sorted(e)) in edges for e in combinations(combo, 2)):
                assert combo in cx


def test_random_flag_dimension_cap():
    full = random_flag(6, 1.0, 2, seed=1)
    assert full.dim == 2
    assert len(full.faces(2)) == 20
    assert len(full.faces(1)) == 15


def test_random_flag_determinism_and_validation():
    a = random_flag(8, 0.4, 2, seed=3)
    b = random_flag(8, 0.4, 2, seed=3)
    assert a.simplices == b.simplices
    with pytest.raises(ValidationError):
        random_flag(0, 0.5, 2, seed=1)
    with pytest.raises(ValidationError):
        random_flag(5, -0.1, 2, seed=1)
    with pytest.raises(ValidationError):
        random_flag(5, 0.5, 0, seed=1)
    with pytest.raises(ValidationError):
        random_flag(5, 0.5, 2, seed=-1)


def test_fixture_corpus():
    corpus = fixtures()
    assert len(corpus) >= 10
    assert corpus["single_vertex"].f_vector() == (1,)
    assert corpus["octahedron"].f_vector() == (6, 12, 8)
    assert corpus["tetrahedron_boundary"].f_vector() == (4, 6, 4)
    assert corpus["solid_tetrahedron"].dim == 3
    assert not corpus["two_triangles"].is_connected()
    # fixtures are nonempty and mostly pairwise non-isomorphic
    codes = set()
    for name, cx in corpus.items():
        assert cx.simplices, name
        comp = sorted(cx.components(), key=len)[-1]
        sub = cx.induced(comp)
        codes.add(min(canonical_code(rooted_at(sub, v)) for v in sub.vertices))
    assert len(codes) >= 12


def _layout(cx):
    return cx._by_dim, list(cx._star.items()), list(cx._neighbors.items())


def test_generators_equal_the_closure_of_their_maximal_simplices():
    built = [torus_tower(1, n) for n in range(3, 10)]
    built += [torus_tower(2, n) for n in range(3, 13)]
    built += [linial_meshulam(d, d + 4, prob, seed)
              for d in (1, 2, 3) for seed in range(10) for prob in (0.0, 0.4, 1.0)]
    for cx in built:
        assert _layout(cx) == _layout(SimplicialComplex.closure(cx.maximal_simplices()))


def test_torus_faces_hold_one_int_per_vertex():
    for n in (3, 17, 20):
        triangles = torus_tower(2, n).faces(2)
        assert len({id(v) for t in triangles for v in t}) == n * n
