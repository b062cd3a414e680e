import operator

from collections import deque
from itertools import combinations

import numpy as np
import pytest

from conftest import random_complex
from l2limits.complexes import RootedComplex, SimplicialComplex, _bfs, rooted_at
from l2limits.errors import MalformedInputError, ValidationError
from l2limits.estimators import vertex_sampler
from l2limits.generators import fixtures, random_flag, torus_tower
from l2limits.measures import degree_truncate, uniform_rooting

closure = SimplicialComplex.closure


def test_closure_expands_faces():
    cx = closure([(0, 1, 2)])
    assert cx.simplices == frozenset(
        {(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)})
    assert cx.f_vector() == (3, 3, 1)
    assert cx.dim == 2


def test_constructor_requires_downward_closure():
    with pytest.raises(ValidationError):
        SimplicialComplex([(0, 1), (0,)])  # missing vertex (1,)


def test_simplex_normalization_and_errors():
    cx = closure([(2, 0, 1)])
    assert (0, 1, 2) in cx
    cases = [((0, 0, 1), "duplicate vertices inside one simplex: (0, 0, 1)"),
             ((), "empty simplex"),
             ((-1, 0), "vertex ids must be nonnegative: (-1, 0)"),
             ((1.5,), "vertex ids must be integers: (1.5,)"),
             (("1",), "vertex ids must be integers: ('1',)"),
             ((None,), "vertex ids must be integers: (None,)"),
             ("1", "vertex ids must be integers: '1'"),
             (None, "vertex ids must be integers: None")]
    for raw, message in cases:
        for build in (closure, SimplicialComplex):
            with pytest.raises(MalformedInputError) as caught:
                build([(0,), raw])
            assert str(caught.value) == message


def _reference_layout(maximal):
    """The per-simplex closure the builder replaced, as a reference: every
    face of every listed simplex is made once per simplex holding it, and
    the stars are grown with ``setdefault`` over the sorted faces."""
    groups = []
    for raw in maximal:
        simplex = tuple(sorted(operator.index(v) for v in raw))
        while len(groups) < len(simplex):
            groups.append(set())
        for size in range(1, len(simplex) + 1):
            groups[size - 1].update(combinations(simplex, size))
    by_dim = tuple(tuple(sorted(group)) for group in groups)
    star = {}
    for group in by_dim:
        for s in group:
            for v in s:
                star.setdefault(v, []).append(s)
    neighbors = {v: [] for v in star}
    for u, w in by_dim[1] if len(by_dim) > 1 else ():
        neighbors[u].append(w)
        neighbors[w].append(u)
    return (by_dim, {v: tuple(ss) for v, ss in star.items()},
            {v: tuple(sorted(ns)) for v, ns in neighbors.items()})


def _assert_layout(cx, by_dim, star, neighbors):
    assert cx._by_dim == by_dim
    assert list(cx._star) == list(star) and cx._star == star
    assert list(cx._neighbors) == list(neighbors) and cx._neighbors == neighbors


def _as_given(rng, simplex):
    """One simplex in one of the spellings callers use: a shuffled tuple or
    list, numpy ints, or bools for the ids 0 and 1."""
    vs = [simplex[i] for i in rng.permutation(len(simplex))]
    form = int(rng.integers(5))
    if form == 1:
        return vs
    if form == 2:
        return tuple(np.array(vs, dtype=np.int64))
    if form == 3:
        return np.array(vs, dtype=np.int32)
    if form == 4:
        return [bool(v) if v < 2 else v for v in vs]
    return tuple(vs)


def test_closure_matches_the_per_simplex_reference():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        listed = [tuple(sorted(rng.choice(n, size=int(rng.integers(1, min(n, 5) + 1)),
                                          replace=False).tolist()))
                  for _ in range(int(rng.integers(0, 10)))]
        # repeats and faces of listed simplices, in any order
        listed += [s[:int(rng.integers(1, len(s) + 1))] for s in listed[::2]]
        listed += listed[1::3]
        order = rng.permutation(len(listed))
        given = [_as_given(rng, listed[i]) for i in order]
        _assert_layout(closure(given), *_reference_layout(given))


def test_closure_shares_the_tuples_it_is_given():
    torus = torus_tower(2, 20)
    again = closure(list(torus.faces(1)) + list(torus.faces(2)))
    assert again == torus
    for p in (1, 2):
        assert all(a is b for a, b in zip(again.faces(p), torus.faces(p)))


def test_faces_sorted_and_counts():
    cx = closure([(0, 1, 2), (2, 3)])
    assert cx.faces(0) == ((0,), (1,), (2,), (3,))
    assert cx.faces(1) == ((0, 1), (0, 2), (1, 2), (2, 3))
    assert cx.faces(2) == ((0, 1, 2),)
    assert cx.faces(5) == ()
    assert cx.euler_characteristic() == 4 - 4 + 1


def test_maximal_simplices():
    cx = closure([(0, 1, 2), (2, 3)])
    assert set(cx.maximal_simplices()) == {(0, 1, 2), (2, 3)}


def test_star_neighbors_degrees():
    cx = closure([(0, 1, 2), (2, 3)])
    assert set(cx.neighbors(2)) == {0, 1, 3}
    assert cx.degree(2) == 3
    assert cx.p_degree(2, 2) == 1
    assert cx.p_degree(3, 2) == 0
    assert cx.max_degree() == 3
    assert all(2 in s for s in cx.star(2))


def test_p_degree_refuses_a_dimension_that_is_no_nonnegative_integer():
    rc = rooted_at(fixtures()["path4"], 1)
    assert rc.p_degree(np.int64(1)) == rc.p_degree(1) == 2
    for p, message in ((1.5, "dimension must be an integer, not 1.5"),
                       (-1, "dimension must be nonnegative")):
        for call in (lambda: rc.p_degree(p), lambda: rc.complex.p_degree(1, p)):
            with pytest.raises(ValidationError, match=message):
                call()


def test_distances_and_connectivity():
    cx = closure([(0, 1), (1, 2), (3, 4)])
    d = cx.distances(0)
    assert d == {0: 0, 1: 1, 2: 2}
    assert not cx.is_connected()
    assert cx.components() == (frozenset({0, 1, 2}), frozenset({3, 4}))
    assert closure([(0, 1, 2)]).is_connected()
    with pytest.raises(ValidationError, match="root 999 is not a vertex"):
        torus_tower(2, 4).distances(999)


def _deque_bfs(cx, root):
    dist = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in sorted(w for s in cx.star(u) if len(s) == 2 for w in s):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return list(dist.items())


def _bfs_cases():
    rng = np.random.default_rng(41)
    cases = list(fixtures().values())
    cases += [random_complex(rng, 10) for _ in range(30)]
    cases.append(closure([(0, 5, 2), (2, 7), (3, 4), (4, 9, 6), (8,)]))
    return cases


def test_bfs_matches_a_queue_search_in_value_and_order():
    for cx in _bfs_cases():
        for v in cx.vertices:
            want = _deque_bfs(cx, v)
            assert list(_bfs(cx, v).items()) == want
            assert list(cx.distances(v).items()) == want


def test_bfs_with_radius_is_the_whole_search_cut_at_it():
    for cx in _bfs_cases():
        for v in cx.vertices:
            whole = list(_bfs(cx, v).items())
            for r in range(max(d for _, d in whole) + 2):
                assert list(_bfs(cx, v, r).items()) == [
                    (w, d) for w, d in whole if d <= r]


def test_induced_subcomplex():
    cx = closure([(0, 1, 2), (2, 3)])
    sub = cx.induced({0, 1, 2})
    assert sub == closure([(0, 1, 2)])
    assert cx.induced({0, 3}) == closure([(0,), (3,)])


def test_the_three_constructors_compare_and_hash_equal():
    rng = np.random.default_rng(29)
    for _ in range(40):
        cx = random_complex(rng, 9)
        listed = SimplicialComplex(sorted(cx.simplices, reverse=True))
        extra = max(cx.vertices) + 1
        wider = closure([*cx.maximal_simplices(),
                         *((v, extra) for v in cx.vertices[::2])])
        for other in (listed, wider.induced(cx.vertices), cx.induced(cx.vertices)):
            assert other == cx and hash(other) == hash(cx)
            assert other.simplices == cx.simplices
        assert wider != cx
        assert len(cx) == len(cx.simplices)


def test_trusted_builds_equal_the_validating_constructor():
    # random_flag and degree_truncate can leave the top dimension empty
    cases = [random_flag(6, 0.0, 3, 1), random_flag(8, 0.5, 3, 2),
             degree_truncate(closure([(0, 1, 2)]), 1),
             degree_truncate(closure([(0, 1, 2, 3)]), 2)]
    for cx in cases:
        again = SimplicialComplex(cx.simplices)
        assert cx == again and hash(cx) == hash(again) and cx.dim == again.dim


def test_membership_reads_the_stars():
    cx = closure([(0, 1, 2), (2, 3)])
    for s in cx.simplices:
        assert s in cx and s[::-1] in cx and list(s) in cx
    for s in [(0, 3), (3, 1), (1, 2, 3), (4,), (0, 1, 2, 3), (4, 0)]:
        assert s not in cx
    assert () not in cx
    assert (0,) not in SimplicialComplex([])
    # every simplex, and every simplex with one vertex added, against the
    # frozenset of simplices
    cx = random_flag(14, 0.4, 3, 2)
    present = cx.simplices
    for s in present:
        assert s in cx
        for v in range(-1, 15):
            grown = tuple(sorted(set(s) | {v}))
            assert (grown in cx) == (grown in present)


def _percolated_torus(side, keep, seed):
    full = torus_tower(2, side)
    rng = np.random.default_rng(seed)
    drop = {t for t in full.faces(2) if rng.random() >= keep}
    return SimplicialComplex([s for s in full.simplices if s not in drop])


def _induced_cases():
    """(complex, vertex subset) pairs: fixtures, random subsets of random
    complexes (empty, with non-vertices, disconnected) and torus balls."""
    rng = np.random.default_rng(23)
    for _, cx in sorted(fixtures().items()):
        verts = cx.vertices
        for subset in (set(verts), set(verts[::2]), set(verts[1:]), set()):
            yield cx, subset
    for _ in range(30):
        cx = random_complex(rng, 12)
        yield cx, set()
        for _ in range(3):
            size = int(rng.integers(1, 16))
            # ids up to 15 include some that are not vertices
            yield cx, set(rng.choice(16, size=size, replace=False).tolist())
    torus = _percolated_torus(30, 0.7, 3)
    for v in rng.choice(torus.vertices, size=25, replace=False).tolist():
        for r in range(6):
            yield torus, set(_bfs(torus, v, r))


def test_induced_matches_a_complex_built_from_scratch():
    disconnected = non_vertices = 0
    for cx, subset in _induced_cases():
        sub = cx.induced(subset)
        picked = {s for v in subset for s in cx.star(v) if subset.issuperset(s)}
        want = SimplicialComplex(picked)
        assert sub == want and hash(sub) == hash(want)
        assert sub.dim == want.dim and sub.f_vector() == want.f_vector()
        for p in range(-1, want.dim + 3):
            assert sub.faces(p) == want.faces(p)
        # every kept vertex, and some vertices of cx that were left out
        for v in sorted(subset | set(cx.vertices[:12])):
            assert sub.star(v) == want.star(v)
            assert sub.neighbors(v) == want.neighbors(v)
            # the documented orders, read off the simplex set itself
            assert want.star(v) == tuple(sorted(
                (s for s in picked if v in s), key=lambda s: (len(s), s)))
            assert want.neighbors(v) == tuple(sorted(
                w for s in picked if len(s) == 2 and v in s for w in s if w != v))
        disconnected += len(sub.components()) > 1
        non_vertices += not subset <= set(cx.vertices)
    assert disconnected and non_vertices


def test_balls_equal_their_parents_stars_and_neighbours(monkeypatch):
    built = []
    original = SimplicialComplex.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    torus = torus_tower(2, 12)
    monkeypatch.setattr(SimplicialComplex, "__init__", counted)
    for v in torus.vertices:
        ball = rooted_at(torus, v).ball(3).complex
        assert len(ball.vertices) < len(torus.vertices)
        for u in _bfs(torus, v, 2):
            assert ball.star(u) == torus.star(u)
            assert all(a is b for a, b in zip(ball.star(u), torus.star(u)))
            assert ball.neighbors(u) == torus.neighbors(u)
    assert built == []


def test_components_equal_their_parents_stars():
    cx = closure([(0, 1, 2), (2, 3), (5, 6, 7), (7, 8), (8, 9), (10,)])
    points = uniform_rooting(cx).points
    assert len({pt.rooted.complex for pt in points}) == 3
    for pt in points:
        comp = pt.rooted.complex
        for v in comp.vertices:
            assert comp.star(v) == cx.star(v)
            assert all(a is b for a, b in zip(comp.star(v), cx.star(v)))
            assert comp.neighbors(v) == cx.neighbors(v)


def test_rooted_complex_validation():
    cx = closure([(0, 1), (2, 3)])
    with pytest.raises(ValidationError):
        RootedComplex(cx, 0)  # disconnected ambient complex
    with pytest.raises(ValidationError):
        RootedComplex(closure([(0, 1)]), 7)
    rc = rooted_at(cx, 0)
    assert rc.complex == closure([(0, 1)])
    assert rc.root == 0


def test_an_unhashable_root_is_no_vertex():
    edge = fixtures()["edge"]
    assert not edge.has_vertex([1])
    for make in (RootedComplex, rooted_at, SimplicialComplex.distances):
        with pytest.raises(ValidationError, match=r"root \[1\] is not a vertex"):
            make(edge, [1])


def test_every_rooted_complex_handed_out_passes_the_constructor(monkeypatch):
    # the constructor is the one way to make a rooted complex, so its checks
    # hold for every rooting, sample and ball, cut or not
    built = []
    original = RootedComplex.__init__

    def counted(self, *args):
        original(self, *args)
        built.append(self)

    monkeypatch.setattr(RootedComplex, "__init__", counted)
    handed_out = []
    for cx in (torus_tower(2, 4), fixtures()["two_triangles"]):
        handed_out += [pt.rooted for pt in uniform_rooting(cx)]
        sample = vertex_sampler(cx, 2)
        handed_out += [sample(np.random.default_rng(i)).rooted for i in range(8)]
        rc = rooted_at(cx, cx.vertices[-1])
        handed_out += [rc] + [rc.ball(r) for r in (0, 1, 10)]
    assert {id(rc) for rc in handed_out} <= {id(rc) for rc in built}


def test_rooted_at_refuses_a_root_before_cutting_its_component(monkeypatch):
    cuts = []
    original = SimplicialComplex.induced

    def counted(self, *args):
        cuts.append(args)
        return original(self, *args)

    monkeypatch.setattr(SimplicialComplex, "induced", counted)
    two_triangles = fixtures()["two_triangles"]
    with pytest.raises(ValidationError, match="root must be an integer, not 1.0"):
        rooted_at(two_triangles, 1.0)
    with pytest.raises(ValidationError, match="root 99 is not a vertex"):
        rooted_at(two_triangles, 99)
    assert cuts == []
    assert rooted_at(two_triangles, 1).complex.vertices == (0, 1, 2)
    assert len(cuts) == 1


def test_ball_contents():
    path = closure([(0, 1), (1, 2), (2, 3), (3, 4)])
    rc = rooted_at(path, 0)
    assert rc.ball(0).complex == closure([(0,)])
    assert rc.ball(1).complex == closure([(0, 1)])
    assert rc.ball(2).complex == closure([(0, 1), (1, 2)])
    assert rc.ball(10).complex == path
    assert rc.eccentricity() == 4
    with pytest.raises(ValidationError):
        rc.ball(-1)


def test_ball_of_ball_is_smaller_ball():
    rng = np.random.default_rng(5)
    for _ in range(40):
        cx = random_complex(rng, 10)
        v = cx.vertices[0]
        rc = rooted_at(cx, v)
        for r in range(3):
            assert rc.ball(r + 1).ball(r) == rc.ball(r)


def test_ball_keeps_only_inside_faces():
    # the triangle needs all three vertices, so a radius-1 ball around a
    # cone point over an edge keeps the triangle but a ball around a far
    # vertex attached by a path must not
    cx = closure([(0, 1, 2), (2, 3)])
    assert rooted_at(cx, 3).ball(1).complex == closure([(2, 3)])
    assert rooted_at(cx, 0).ball(1).complex == closure([(0, 1, 2)])


def test_equality_and_hash():
    a = closure([(0, 1, 2)])
    b = closure([(1, 2), (0, 2), (0, 1), (0, 1, 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != closure([(0, 1), (1, 2), (0, 2)])
    # equal rooted complexes hash alike and share one dict entry
    ra, rb = rooted_at(a, 0), rooted_at(b, 0)
    assert ra == rb and hash(ra) == hash(rb)
    assert {ra: 1, rb: 2} == {ra: 2} and ra != rooted_at(a, 1)
    # another type is unequal, not an error
    assert (a == 3) is False and (ra == 3) is False
