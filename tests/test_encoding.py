import gc
import random
import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

import l2limits.encoding as encoding
from conftest import random_connected_complex
from l2limits.complexes import SimplicialComplex, rooted_at
from l2limits.encoding import (CanonicalCode, _ball_codes, bs_distance,
                               canonical_code,
                               find_rooted_isomorphism, index_of_subset,
                               subset_from_index)
from l2limits.errors import ValidationError
from l2limits.estimators import vertex_sampler
from l2limits.generators import fixtures, random_flag, torus_tower
from l2limits.measures import (BallDistribution, ball_distribution,
                               uniform_rooting)
from test_golden import corpus

closure = SimplicialComplex.closure


def test_subset_enumeration_start():
    want = [{0}, {1}, {0, 1}, {2}, {0, 2}, {1, 2}, {0, 1, 2}, {3}]
    assert [set(subset_from_index(i)) for i in range(8)] == want


def test_subset_enumeration_roundtrip():
    for i in range(200):
        assert index_of_subset(subset_from_index(i)) == i
    assert index_of_subset({0, 1, 2}) == 6
    assert index_of_subset({5}) == 31
    with pytest.raises(ValidationError):
        subset_from_index(-1)
    for subset in (set(), {-1}, {2, -3}):
        with pytest.raises(ValidationError):
            index_of_subset(subset)


def test_code_inputs_must_be_nonnegative_integers():
    for call, arg in ((index_of_subset, [1.5]), (index_of_subset, "12"),
                      (subset_from_index, "3"), (subset_from_index, 2.0),
                      (CanonicalCode, [1.5]), (CanonicalCode, ["a"]),
                      (CanonicalCode, [1, "a"]), (CanonicalCode, [0.5, 3]),
                      (CanonicalCode, [1.5, 2 ** 70]), (CanonicalCode, [-1]),
                      (CanonicalCode, [-1, 2 ** 70])):
        with pytest.raises(ValidationError):
            call(arg)
    assert index_of_subset([np.int64(2)]) == 3
    assert subset_from_index(np.int64(3)) == {2}


def test_first_block_contains_exactly_the_small_subsets():
    # every subset of {0..n} appears among the first 2^(n+1) indices
    for n in range(4):
        seen = {subset_from_index(i) for i in range(2 ** (n + 2))}
        expect = {frozenset(s)
                  for i in range(2 ** (n + 2))
                  for s in [subset_from_index(i)]
                  if max(s) <= n + 1}
        assert expect <= seen


def test_code_order_prefers_earlier_ones():
    # a 1 in an earlier position wins; on a shared prefix more simplices win
    assert CanonicalCode((0, 1, 2)) < CanonicalCode((0, 1, 3))
    assert CanonicalCode((0, 1, 2, 3)) < CanonicalCode((0, 1, 2))
    assert not CanonicalCode((0, 1)) < CanonicalCode((0, 1))
    # another type is unequal and unordered
    assert (CanonicalCode((0, 1)) == 3) is False
    with pytest.raises(TypeError):
        CanonicalCode((0, 1)) < 3


def _first_difference_less(a, b):
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return len(a) > len(b)


def test_packed_codes_keep_indices_equality_and_order():
    # indices of one to nine bytes, so pairs meet unequal field widths
    rng = random.Random(5)
    tops = (2, 200, 70_000, 2 ** 64, 2 ** 70)

    def draw():
        top = rng.choice(tops)
        return sorted({rng.randrange(top) for _ in range(rng.randrange(1, 12))})

    # (513, 1027) packs to the bytes of (1, 2, 3, 4) at half the width
    pairs = [((256, 0), (0, 1)), ((513, 1027), (1, 2, 3, 4)), ((), (0,)),
             ((0,), (0, 2 ** 64)), ((2 ** 64,), (2 ** 64, 2 ** 64 + 1))]
    for _ in range(3000):
        a = draw()
        k = rng.randrange(len(a) + 1)
        b = rng.choice([a, a[:k], a + [a[-1] + 1], draw(),
                        a[:k] + [rng.randrange(2 ** 70)] + a[k + 1:]])
        pairs.append((tuple(a), tuple(b)))
    for a, b in pairs:
        ca, cb = CanonicalCode(a), CanonicalCode(b)
        assert ca.indices == a and CanonicalCode(ca.indices) == ca
        assert hash(CanonicalCode(ca.indices)) == hash(ca)
        assert (ca == cb) == (a == b)
        assert (ca < cb) == _first_difference_less(a, b)
        assert (ca <= cb) == (a == b or _first_difference_less(a, b))
    for indices in ((3, -1), (-(2 ** 70), 2 ** 70)):
        with pytest.raises(ValidationError):
            CanonicalCode(indices)


def test_pack_matches_the_shift_loop_and_unpacks():
    rng = random.Random(9)
    for width in (1, 2, 3, 4, 8, 9, 16):
        values = [rng.randrange(1 << 8 * width) for _ in range(200)]
        packed = 0
        for value in reversed(values):
            packed = packed << 8 * width | value
        data = encoding._pack(values, width)
        assert int.from_bytes(data, "little") == packed
        assert encoding._unpack(data, width) == tuple(values)


def test_single_vertex_and_edge_codes():
    v = rooted_at(closure([(0,)]), 0)
    assert canonical_code(v).indices == (0,)
    e = closure([(0, 1)])
    assert canonical_code(rooted_at(e, 0)).indices == (0, 1, 2)
    assert canonical_code(rooted_at(e, 1)).indices == (0, 1, 2)


def test_path_codes_distinguish_roots():
    path = closure([(0, 1), (1, 2)])
    center = canonical_code(rooted_at(path, 1))
    end = canonical_code(rooted_at(path, 0))
    assert center.indices == (0, 1, 2, 3, 4)
    assert end.indices == (0, 1, 2, 3, 5)
    assert center < end


def test_hollow_triangle_code_root_independent():
    tri = closure([(0, 1), (1, 2), (0, 2)])
    codes = {canonical_code(rooted_at(tri, v)) for v in (0, 1, 2)}
    assert len(codes) == 1


def test_relabeling_invariance():
    rng = np.random.default_rng(17)
    for _ in range(60):
        cx = random_connected_complex(rng, 8)
        verts = list(cx.vertices)
        root = verts[int(rng.integers(len(verts)))]
        perm = dict(zip(verts, rng.permutation(np.array(verts) + 50).tolist()))
        relabeled = SimplicialComplex.closure(
            [tuple(perm[v] for v in s) for s in cx.maximal_simplices()])
        a = canonical_code(rooted_at(cx, root))
        b = canonical_code(rooted_at(relabeled, perm[root]))
        assert a == b


def test_decode_roundtrip():
    rng = np.random.default_rng(23)
    for _ in range(40):
        cx = random_connected_complex(rng, 8)
        rc = rooted_at(cx, cx.vertices[0])
        code = canonical_code(rc)
        decoded = code.decode()
        assert decoded.root == 0
        assert canonical_code(decoded) == code
        assert canonical_code(decoded) == canonical_code(rc)


def test_code_against_exhaustive_relabelings():
    # small but direct: the minimum over every root-fixing labeling
    rng = np.random.default_rng(29)
    for _ in range(50):
        cx = random_connected_complex(rng, 6)
        verts = sorted(cx.vertices)
        root = verts[int(rng.integers(len(verts)))]
        others = [v for v in verts if v != root]
        best = None
        for perm in permutations(range(1, len(verts))):
            label = {root: 0}
            label.update(dict(zip(others, perm)))
            code = CanonicalCode(tuple(sorted(
                index_of_subset({label[v] for v in s}) for s in cx.simplices)))
            if best is None or code < best:
                best = code
        assert canonical_code(rooted_at(cx, root)) == best


def test_rooted_isomorphic_matches_search_oracle():
    rng = np.random.default_rng(31)
    agree = 0
    for _ in range(60):
        a = random_connected_complex(rng, 7)
        b = random_connected_complex(rng, 7)
        ra = rooted_at(a, a.vertices[0])
        rb = rooted_at(b, b.vertices[0])
        via_code = canonical_code(ra) == canonical_code(rb)
        vmap = find_rooted_isomorphism(ra, rb)
        assert via_code == (vmap is not None)
        if vmap is not None:
            agree += 1
            assert vmap[ra.root] == rb.root
            for s in ra.complex.simplices:
                assert tuple(sorted(vmap[v] for v in s)) in rb.complex
    assert agree >= 2  # the sampler does produce coincidences


def test_isomorphism_map_is_a_bijection():
    octa = closure([(a, b, c) for a in (0, 3) for b in (1, 4) for c in (2, 5)])
    vmap = find_rooted_isomorphism(rooted_at(octa, 0), rooted_at(octa, 4))
    assert vmap is not None
    assert sorted(vmap) == sorted(vmap.values())


def test_search_refuses_unequal_profiles_and_disconnected_complexes():
    path4 = fixtures()["path4"]
    assert find_rooted_isomorphism(rooted_at(path4, 0), rooted_at(path4, 1)) is None
    ctx = encoding._IsoContext(fixtures()["two_triangles"])
    with pytest.raises(ValidationError, match="requires connected complexes"):
        encoding._search(ctx, 0, ctx, 0)


def _refined_colors(cx):
    """Each vertex's refined colour, read from the complex's search
    context."""
    ctx = encoding._IsoContext(cx)
    return dict(zip(ctx.verts, ctx.colors))


def test_refined_colors_survive_relabeling():
    rng = np.random.default_rng(61)
    pool = list(fixtures().values())
    pool += [random_flag(14, 0.3, 3, seed) for seed in range(12)]
    for cx in pool:
        verts = list(cx.vertices)
        perm = dict(zip(verts, (int(v) + 7 for v in rng.permutation(len(verts)))))
        image = SimplicialComplex(
            [tuple(sorted(perm[v] for v in s)) for s in cx.simplices])
        colors, moved = _refined_colors(cx), _refined_colors(image)
        assert all(colors[v] == moved[perm[v]] for v in verts)


def _partition(colors):
    classes = {}
    for v, c in colors.items():
        classes.setdefault(c, set()).add(v)
    return {frozenset(group) for group in classes.values()}


def _refined_colors_with_singletons(cx):
    """Star refinement through every simplex of each star, singletons
    included, by the same rounds and stopping rule."""
    stars = {v: cx.star(v) for v in cx.vertices}
    color = {v: hash(tuple(sorted(len(s) for s in st))) for v, st in stars.items()}
    classes = len(set(color.values()))
    while classes < len(color):
        refined = {v: hash((color[v], tuple(sorted(
            hash(tuple(sorted(color[u] for u in s))) for s in st))))
            for v, st in stars.items()}
        count = len(set(refined.values()))
        if count <= classes:
            break
        color, classes = refined, count
    return color


def test_refinement_without_singletons_keeps_the_partition():
    pool = [cx for _, cx in corpus()]
    pool += [random_flag(16, 5 / 16, 3, s) for s in range(50)]
    for cx in pool:
        assert (_partition(_refined_colors(cx))
                == _partition(_refined_colors_with_singletons(cx)))


def _sorted_round_colors(members, star):
    """The refinement with every multiset sorted into a tuple: a simplex's
    colour is the sorted colours of its positions, a position's the
    sorted colours of its star's simplices, by the same rounds and
    stopping rule."""
    color = [hash(tuple(sorted([len(members[k]) for k in ks]))) for ks in star]
    classes = len(set(color))
    while classes < len(color):
        simplex = [hash(tuple(sorted([color[i] for i in positions])))
                   for positions in members]
        refined = [hash((c, tuple(sorted([simplex[k] for k in ks]))))
                   for c, ks in zip(color, star)]
        count = len(set(refined))
        if count <= classes:
            break
        color, classes = refined, count
    return color


def _defect_levels():
    """Sides 6, 7 and 8 of the torus tower, one triangle removed at random,
    14 draws each."""
    rng = np.random.default_rng(44)
    levels = []
    for _ in range(14):
        for side in (6, 7, 8):
            full = torus_tower(2, side)
            tris = full.faces(2)
            drop = tris[int(rng.integers(len(tris)))]
            levels.append(closure(list(full.faces(1))
                                  + [t for t in tris if t != drop]))
    return levels


def test_summed_rounds_keep_the_sorted_rounds_partition():
    prism = closure([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                     (0, 3), (1, 4), (2, 5)])
    k33 = closure([(a, b) for a in (6, 7, 8) for b in (9, 10, 11)])
    for cx in _resume_pool() + _defect_levels() + [prism, k33]:
        ctx = encoding._IsoContext(cx)
        want = _sorted_round_colors(ctx.members, ctx.star)
        assert (_partition(dict(enumerate(ctx.colors)))
                == _partition(dict(enumerate(want))))


def test_array_rounds_keep_the_sorted_rounds_partition_at_the_edges():
    # empty stars, which reduceat would read as the next star's first
    # entry; no simplex to sum at all; components that refine apart;
    # colours that must be mixed before they are summed; tetrahedra; and
    # the many rounds of a large defect torus
    with_isolated = closure([(0,), (1, 2, 3), (3, 4), (4, 5), (6,), (7, 8),
                             (9,)])
    vertices_only = closure([(0,), (3,), (5,), (8,)])
    disconnected = closure([(0, 1, 2), (3, 4), (4, 5), (5, 6), (6, 3),
                            (10, 11, 12, 13)])
    unmixed = closure([(0, 1, 5), (0, 6), (1, 2), (1, 4, 5), (1, 6),
                       (2, 4, 6), (2, 5, 6), (3,)])
    flags = [random_flag(12, 0.6, 3, s) for s in range(6)]
    assert all(len(cx.faces(3)) for cx in flags)
    torus = torus_tower(2, 30)
    tris = torus.faces(2)
    defect = closure(list(torus.faces(1)) + [t for t in tris if t != tris[417]])
    for cx in [with_isolated, vertices_only, disconnected, unmixed, *flags,
               defect]:
        ctx = encoding._IsoContext(cx)
        assert all(type(c) is int for c in ctx.colors)
        want = _sorted_round_colors(ctx.members, ctx.star)
        assert (_partition(dict(enumerate(ctx.colors)))
                == _partition(dict(enumerate(want))))
    assert len(set(encoding._IsoContext(defect).colors)) == 165
    assert len(set(encoding._IsoContext(vertices_only).colors)) == 1


def test_one_star_item_per_simplex():
    for cx in [cx for _, cx in corpus()]:
        ctx = encoding._IsoContext(cx)
        ctx.build_masks()
        item = {}
        for v, items in zip(ctx.verts, ctx.star_items):
            star = cx.star(v)
            assert [tuple(ctx.verts[j] for j in positions)
                    for _, positions in items] == list(star)
            assert ctx.star_masks[ctx.idx[v]] == tuple(m for m, _ in items)
            for s, it in zip(star, items):
                assert it[0] == sum(1 << ctx.idx[u] for u in s)
                assert item.setdefault(s, it) is it
        assert len(item) == len(cx.simplices)
        assert ctx.simplex_masks == {m for m, _ in item.values()}


def test_equal_colors_leave_the_decision_to_the_search():
    # both are 3-regular graphs on 6 vertices: refinement cannot split them
    prism = closure([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                     (0, 3), (1, 4), (2, 5)])
    k33 = closure([(a, b) for a in (6, 7, 8) for b in (9, 10, 11)])
    colors = {**_refined_colors(prism), **_refined_colors(k33)}
    assert len(set(colors.values())) == 1
    assert find_rooted_isomorphism(rooted_at(prism, 0), rooted_at(k33, 6)) is None
    mu = uniform_rooting(SimplicialComplex(prism.simplices | k33.simplices))
    assert sorted(pt.weight for pt in mu) == [Fraction(1, 2), Fraction(1, 2)]
    mu.validate()


def _codes_without_pruning_match(monkeypatch, balls):
    monkeypatch.setattr(encoding, "_CODE_CACHE", {})
    pruned = [canonical_code(rc) for rc in balls]
    monkeypatch.setattr(encoding, "_CODE_CACHE", {})
    monkeypatch.setattr(encoding, "_TIE_CAP", 10**9)
    return pruned == [canonical_code(rc) for rc in balls]


def test_automorphism_pruning_keeps_the_code(monkeypatch):
    torus = torus_tower(2, 8)
    balls = [rooted_at(torus, 0).ball(r) for r in range(1, 4)]
    balls += [rooted_at(fixtures()["octahedron"], 0)]
    cone = closure([(a, b, 8) for a in range(8) for b in range(a + 1, 8)])
    balls += [rooted_at(cone, 8), rooted_at(cone, 0)]
    for seed in range(25):
        cx = random_flag(16, 5 / 16, 3, seed)
        balls += [rooted_at(cx, v).ball(r) for v in range(4) for r in (1, 2)]
    assert len(balls) == 206
    assert _codes_without_pruning_match(monkeypatch, balls)


def test_an_exhausted_automorphism_budget_keeps_every_branch(monkeypatch):
    # With no feasibility check allowed, every automorphism search gives
    # up: each tied branch is kept, and the codes stay the same.
    torus = torus_tower(2, 8)
    balls = [rooted_at(torus, 0).ball(r) for r in (1, 2)]
    balls += [rooted_at(fixtures()[name], 0) for name in ("octahedron", "star5")]
    monkeypatch.setattr(encoding, "_CODE_CACHE", {})
    want = [canonical_code(rc) for rc in balls]
    prune, search = encoding._prune_automorphic, encoding._search
    kept, found = [], []

    def recorded_prune(ctx, partials):
        # the pruning ball is cut on vertices 0..n-1, so its positions
        # are the ball's positions and its root is vertex 0
        assert ctx.verts == tuple(range(ctx.n))
        assert all(branch[0][0] == 0 for branch in partials)
        out = prune(ctx, partials)
        kept.append(out == partials)
        return out

    def recorded_search(*args, **kwargs):
        found.append(search(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(encoding, "_prune_automorphic", recorded_prune)
    monkeypatch.setattr(encoding, "_search", recorded_search)
    monkeypatch.setattr(encoding, "_AUTOMORPHISM_BUDGET", 0)
    monkeypatch.setattr(encoding, "_TIE_CAP", 1)
    monkeypatch.setattr(encoding, "_CODE_CACHE", {})
    assert [canonical_code(rc) for rc in balls] == want
    assert kept and all(kept)
    assert found and found == [None] * len(found)


def test_a_full_code_cache_is_cleared_and_codes_hold(monkeypatch):
    pool = [torus_tower(2, 5)] + [random_flag(16, 5 / 16, 3, s) for s in range(4)]
    jobs = [(cx, v, r) for cx in pool for v in cx.vertices for r in (1, 2, None)]
    monkeypatch.setattr(encoding, "_CODE_CACHE", {})
    want = [_ball_codes(cx, v, (r,))[0] for cx, v, r in jobs]
    monkeypatch.setattr(encoding, "_CODE_CACHE", {})
    monkeypatch.setattr(encoding, "_CODE_CACHE_LIMIT", 3)
    got, sizes = [], []
    for cx, v, r in jobs:
        got.append(_ball_codes(cx, v, (r,))[0])
        sizes.append(len(encoding._CODE_CACHE))
    assert got == want
    # filled to the limit, then cleared and refilled
    assert max(sizes) == 3 and sizes.count(1) > 1


def test_one_breadth_first_search_per_root_per_code(monkeypatch):
    # Past the tie cap every automorphism search starts from the root, and
    # the context keeps that root's search: the code's one search (key and
    # layers) and the automorphism searches' one make two in all, however
    # many searches run.
    import l2limits.complexes as complexes
    bfs_calls, searches = [], []
    bfs, search = complexes._bfs, encoding._search

    def counted_bfs(*args):
        bfs_calls.append(args[1])
        return bfs(*args)

    def counted_search(*args, **kwargs):
        searches.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(complexes, "_bfs", counted_bfs)
    monkeypatch.setattr(encoding, "_bfs", counted_bfs)
    monkeypatch.setattr(encoding, "_search", counted_search)
    k6 = rooted_at(closure([(a, b) for a in range(6) for b in range(a)]), 0)
    want = canonical_code(k6)
    counts = []
    for cap in (1, 4, 64):
        monkeypatch.setattr(encoding, "_TIE_CAP", cap)
        monkeypatch.setattr(encoding, "_CODE_CACHE", {})
        bfs_calls.clear()
        searches.clear()
        assert canonical_code(k6) == want
        assert bfs_calls == [0, 0]
        counts.append(len(searches))
    assert counts == sorted(counts) and counts[0] >= 10 and counts[-1] >= 100


def test_ball_code_read_from_the_parent_equals_the_cut_ball(monkeypatch):
    # each side starts from an empty cache, so neither reads the other's code
    monkeypatch.setattr(encoding, "_CODE_CACHE", {})
    pool = list(fixtures().values())
    pool += [random_flag(16, 5 / 16, 3, seed) for seed in range(4)]
    pool.append(torus_tower(2, 5))
    disconnected = closure([(0, 1, 2), (2, 3), (3, 4), (10, 11, 12, 13),
                            (13, 14), (20,)])
    assert not disconnected.is_connected()
    pool.append(disconnected)
    for cx in pool:
        for v in cx.vertices:
            rc = rooted_at(cx, v)
            for r in (0, 1, 2, 3, None):
                encoding._CODE_CACHE.clear()
                read = _ball_codes(cx, v, (r,))[0]
                encoding._CODE_CACHE.clear()
                cut = canonical_code(rc if r is None else rc.ball(r))
                assert read == cut, (cx, v, r)


def test_negative_radius_is_rejected_before_any_search(monkeypatch):
    # _bfs with radius -1 never meets the radius and would search the
    # whole component; every radius taker refuses first
    import l2limits.complexes as complexes
    mu = uniform_rooting(fixtures()["path4"])
    a, b = (pt.rooted for pt in mu)
    searches = []
    bfs = complexes._bfs

    def counted_bfs(*args):
        searches.append(args)
        return bfs(*args)

    monkeypatch.setattr(encoding, "_bfs", counted_bfs)
    with pytest.raises(ValidationError, match="ball radius"):
        BallDistribution(-1, {CanonicalCode([0]): 1})
    with pytest.raises(ValidationError, match="ball radius"):
        mu.points[0].ball_code(-1)
    with pytest.raises(ValidationError):
        ball_distribution(mu, -1)
    with pytest.raises(ValidationError):
        bs_distance(a, b, -1)
    assert searches == []
    assert mu.points[0]._codes == {}


def test_non_integer_radius_is_rejected():
    # _bfs never meets a layer equal to 1.5, so each radius taker would
    # answer with the whole component; ball_distribution and ball_code
    # refuse 1.0 even when the memo holds radius 1
    torus = torus_tower(2, 6)
    rc = rooted_at(torus, 0)
    mu = uniform_rooting(torus)
    ball_distribution(mu, 1)
    for call in (lambda: rc.ball(1.5),
                 lambda: BallDistribution(1.5, {CanonicalCode([0]): 1}),
                 lambda: mu.points[0].ball_code(1.5),
                 lambda: ball_distribution(mu, 1.5),
                 lambda: ball_distribution(mu, 1.0),
                 lambda: mu.points[0].ball_code(1.0),
                 lambda: vertex_sampler(torus, 1.5)):
        with pytest.raises(ValidationError, match="ball radius must be an integer"):
            call()
    with pytest.raises(ValidationError, match="ball radius must be nonnegative"):
        rc.ball(-1)


def test_discrete_colours_run_no_automorphism_search(monkeypatch):
    # A spider with legs of lengths 1..6: the centre's neighbours tie on
    # every block, so the tie cap is passed, but refinement tells every
    # vertex apart and no branch can be another's automorphic image.
    # Neither the code nor uniform rooting then builds search masks.
    spider = _spider(range(1, 7))
    assert len(set(_refined_colors(spider).values())) == len(spider.vertices)
    prunes, searches, masks = [], [], []
    prune, search = encoding._prune_automorphic, encoding._search
    build_masks = encoding._IsoContext.build_masks

    def counted_prune(*args):
        prunes.append(len(args[-1]))
        return prune(*args)

    def counted_search(*args, **kwargs):
        searches.append(1)
        return search(*args, **kwargs)

    def counted_masks(ctx):
        masks.append(ctx)
        return build_masks(ctx)

    monkeypatch.setattr(encoding, "_CODE_CACHE", {})
    monkeypatch.setattr(encoding, "_prune_automorphic", counted_prune)
    monkeypatch.setattr(encoding, "_search", counted_search)
    monkeypatch.setattr(encoding._IsoContext, "build_masks", counted_masks)
    canonical_code(rooted_at(spider, 0))
    assert prunes and max(prunes) > encoding._TIE_CAP
    assert len(uniform_rooting(spider)) == len(spider.vertices)
    assert searches == [] and masks == []
    assert _codes_without_pruning_match(monkeypatch, [rooted_at(spider, 0)])


def _resume_pool():
    """The golden corpus (fixtures, tori of side 5-7, random flag complexes
    of seeds 0-11, Linial-Meshulam complexes), flag complexes of seeds
    12-59 (60 ``random_flag(16, 5/16, 3, s)`` in all), and side-6 tori
    with half their triangles dropped.  In a flag complex every triangle
    is implied by its edges, so only the last group has balls whose
    triangles tell apart vertices that their edges do not."""
    pool = [cx for _, cx in corpus()]
    pool += [random_flag(16, 5 / 16, 3, s) for s in range(12, 60)]
    torus = torus_tower(2, 6)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        tris = torus.faces(2)
        kept = [t for t, x in zip(tris, rng.random(len(tris))) if x < 0.5]
        pool.append(closure(list(torus.faces(1)) + kept))
    return pool


def _spider(legs):
    """Paths of the given lengths glued at vertex 0."""
    edges, nxt = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return closure(edges)


@pytest.mark.parametrize("cap", [1, 4, 64])
def test_resumed_search_equals_the_fresh_one(monkeypatch, cap):
    # Radii 1, 2, 3 at every vertex, in that order, so the inner ball's
    # entry is there when a ball misses.  Each search that resumes from
    # an inner ball's orders runs again from the root alone: the tied
    # orders, the winning blocks from label m on and the pruning verdict
    # must be identical.  Each code read off a search must equal the
    # ball's simplices relabelled by its first order.
    search = encoding._canonical_order
    resumed = []
    results = []

    def checked(layer, masks, faces, starts):
        got = search(layer, masks, faces, starts)
        m = len(starts[0])
        if m > 1:
            resumed.append(len(starts))
            orders, won, pruned = search(layer, masks, faces, [(0,)])
            assert got == (orders, won[m - 1:], pruned)
        results.append(got)
        return got

    monkeypatch.setattr(encoding, "_canonical_order", checked)
    monkeypatch.setattr(encoding, "_TIE_CAP", cap)
    monkeypatch.setattr(encoding, "_CODE_CACHE", {})
    # first a spider with legs 1..6: at cap 1 only balls without a tie
    # keep orders, and an entry keeps the orders of the first ball coded
    misses = 0
    for cx in [_spider(range(1, 7))] + _resume_pool():
        for v in cx.vertices:
            for r in (1, 2, 3):
                searched = len(results)
                code = _ball_codes(cx, v, (r,))[0]
                if len(results) == searched:
                    continue
                misses += 1
                verts = encoding._ball(cx, v, r)[1]
                bit = {verts[i]: 1 << k for k, i in enumerate(results[-1][0][0])}
                assert code.indices == tuple(sorted(
                    sum(map(bit.__getitem__, s)) - 1
                    for s in cx.induced(verts).simplices))
    assert misses > 1000
    assert len(resumed) > {1: 20, 4: 400, 64: 1500}[cap]
    if cap > 1:  # resumed with several tied orders
        assert max(resumed) > 1


def test_codes_do_not_depend_on_what_the_cache_holds(monkeypatch):
    # cold: an empty cache for every code; then one cache with the
    # requests shuffled, and one emptied before each radius
    monkeypatch.setattr(encoding, "_CODE_CACHE", {})
    cache = encoding._CODE_CACHE
    pool = list(fixtures().values()) + [torus_tower(2, 5)]
    pool += [random_flag(16, 5 / 16, 3, s) for s in range(20)]
    radii = (1, 2, 3, None)
    cold = {}
    for i, cx in enumerate(pool):
        for v in cx.vertices:
            for r in radii:
                cache.clear()
                cold[i, v, r] = _ball_codes(cx, v, (r,))[0]
    jobs = list(cold)
    random.Random(5).shuffle(jobs)
    cache.clear()
    assert [_ball_codes(pool[i], v, (r,))[0]
            for i, v, r in jobs] == [cold[j] for j in jobs]
    for radius in (3, 2, None, 1):
        cache.clear()
        for i, v, r in jobs:
            if r == radius:
                assert _ball_codes(pool[i], v, (r,))[0] == cold[i, v, r]


def test_all_radii_from_one_ball_equal_one_radius_at_a_time(monkeypatch):
    # each vertex coded at radii 1..reach, one radius at a time and then
    # from one ball, each into an empty cache: the same codes, and the
    # same cache entries, orders included; reach passes some
    # eccentricities, where the code stays the whole component's
    monkeypatch.setattr(encoding, "_CODE_CACHE", {})
    cache = encoding._CODE_CACHE
    pool = list(fixtures().values()) + _defect_levels()[:3]
    pool += [random_flag(16, 5 / 16, 3, s) for s in range(6)]
    past = 0
    kept = set()
    for cx in pool:
        for v in cx.vertices:
            ecc = max(cx.distances(v).values())
            reach = min(ecc + 2, 5)
            past += reach > ecc
            cache.clear()
            want = [_ball_codes(cx, v, (r,))[0] for r in range(1, reach + 1)]
            entries = dict(cache)
            kept.update(orders is None for _, orders in entries.values())
            cache.clear()
            assert encoding._ball_codes(cx, v, range(1, reach + 1)) == want
            assert cache == entries
    assert past > 20 and kept == {False, True}


@pytest.mark.parametrize("cap", [4, 64])
def test_orders_are_kept_only_from_unpruned_balls(monkeypatch, cap):
    # Each ball is coded into an empty cache and its one entry read back:
    # it keeps the search's tied orders, byte-packed, unless the search
    # passed the tie cap.  A root's whole component keeps them too, since
    # its key can be an inner ball of another complex.
    search = encoding._canonical_order
    results = []

    def recorded(*args):
        results.append(search(*args))
        return results[-1]

    monkeypatch.setattr(encoding, "_canonical_order", recorded)
    monkeypatch.setattr(encoding, "_TIE_CAP", cap)
    monkeypatch.setattr(encoding, "_CODE_CACHE", {})
    pool = list(fixtures().values()) + [torus_tower(2, 6)]
    pool += [random_flag(16, 5 / 16, 3, s) for s in range(12)]
    seen = set()
    for cx in pool:
        for v in cx.vertices:
            dist = cx.distances(v)
            for r in (1, 2, 3, None):
                encoding._CODE_CACHE.clear()
                _ball_codes(cx, v, (r,))
                ((n, _), (_, kept)), = encoding._CODE_CACHE.items()
                orders, _, pruned = results[-1]
                if pruned:
                    assert kept is None
                else:
                    assert isinstance(kept, bytes)
                    assert [tuple(kept[i:i + n])
                            for i in range(0, len(kept), n)] == orders
                seen.add((pruned, r is None or max(dist.values()) <= r))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}
    # the edge is its whole component and the radius-1 ball of a path's
    # end: the path's radius-2 ball resumes from the edge's orders
    path = closure([(0, 1), (1, 2), (2, 3)])
    encoding._CODE_CACHE.clear()
    fresh = _ball_codes(path, 0, (2,))[0]
    encoding._CODE_CACHE.clear()
    _ball_codes(fixtures()["edge"], 0, (None,))
    starts = []
    monkeypatch.setattr(encoding, "_canonical_order",
                        lambda *args: starts.append(args[-1]) or search(*args))
    assert _ball_codes(path, 0, (2,))[0] == fresh
    assert [[list(start) for start in s] for s in starts] == [[[0, 1]]]


def test_a_ball_of_256_vertices_or_more_keeps_its_orders(monkeypatch):
    # past 255 positions an order no longer fits one byte per position
    search = encoding._canonical_order
    starts = []

    def recorded(*args):
        starts.append(args[-1])
        return search(*args)

    monkeypatch.setattr(encoding, "_canonical_order", recorded)
    monkeypatch.setattr(encoding, "_CODE_CACHE", {})
    path = closure([(i, i + 1) for i in range(300)])
    _ball_codes(path, 0, (280,))
    ((n, _), (_, kept)), = encoding._CODE_CACHE.items()
    assert n == 281
    assert encoding._unpack(kept, encoding._field_bytes(n.bit_length())) \
        == tuple(range(281))
    code = _ball_codes(path, 0, (281,))[0]
    assert [list(start) for start in starts[1]] == [list(range(281))]
    encoding._CODE_CACHE.clear()
    assert code == canonical_code(rooted_at(path, 0).ball(281))


def test_packed_keys_are_equal_exactly_when_the_mask_sets_are(monkeypatch):
    # the frozenset of position masks was the key before
    monkeypatch.setattr(encoding, "_CODE_CACHE", {})
    pairs = []
    for cx in _resume_pool():
        for v in cx.vertices:
            for r in (1, 2, 3):
                verts = encoding._ball(cx, v, r)[1]
                bit = {u: 1 << i for i, u in enumerate(verts)}
                masks = frozenset(sum(bit[u] for u in s)
                                  for s in cx.induced(verts).simplices)
                encoding._CODE_CACHE.clear()
                _ball_codes(cx, v, (r,))
                key, = encoding._CODE_CACHE
                pairs.append((masks, key))
    assert len(pairs) > 3000
    # equal partitions: each old key meets one new key, and back
    assert len(set(pairs)) == len({a for a, _ in pairs}) == len({b for _, b in pairs})
    assert len(set(pairs)) > 1000


def test_ball_positions_follow_distance_then_id_offset_from_the_root():
    rng = np.random.default_rng(7)
    pool = list(fixtures().values())
    pool += [random_connected_complex(rng, 12) for _ in range(20)]
    pool.append(closure([(0, 1, 2), (2, 3), (3, 4), (10, 11, 12, 13),
                         (13, 15), (20,)]))
    for cx in pool:
        span = max(cx.vertices) + 1
        for v in cx.vertices:
            dist = cx.distances(v)
            outer = encoding._ball(cx, v, None)[1]
            assert outer == sorted(dist, key=lambda u: (dist[u], (u - v) % span))
            for r in range(4):
                vert = encoding._ball(cx, v, r)[1]
                assert vert == sorted((u for u in dist if dist[u] <= r),
                                      key=lambda u: (dist[u], (u - v) % span))
                assert vert == outer[:len(vert)]


def _searches_over_every_vertex(monkeypatch, cx, radii) -> int:
    """Canonical searches that coding ``radii`` at every vertex of ``cx``
    runs from an empty cache."""
    search = encoding._canonical_order
    calls = []

    def counted(*args):
        calls.append(1)
        return search(*args)

    monkeypatch.setattr(encoding, "_CODE_CACHE", {})
    monkeypatch.setattr(encoding, "_canonical_order", counted)
    for v in cx.vertices:
        _ball_codes(cx, v, radii)
    return len(calls)


def test_translates_of_a_cycle_share_one_key_per_radius(monkeypatch):
    cycle = torus_tower(1, 12)
    for r in (1, 2):
        keys = set()
        for v in cycle.vertices:
            monkeypatch.setattr(encoding, "_CODE_CACHE", {})
            _ball_codes(cycle, v, (r,))
            keys |= encoding._CODE_CACHE.keys()
        assert len(keys) == 1
    assert _searches_over_every_vertex(monkeypatch, cycle, (1, 2)) == 2


def test_row_translates_of_a_torus_share_searches(monkeypatch):
    # the (distance, id) order searched 34 and 49 times here
    torus = torus_tower(2, 9)
    assert _searches_over_every_vertex(monkeypatch, torus, (1, 2)) == 8
    assert _searches_over_every_vertex(monkeypatch, torus, (3,)) == 7


def test_code_cache_memory_per_entry(monkeypatch):
    # radius-1 and radius-2 balls of every vertex of 40 sparse flag
    # complexes; frozenset keys and bare codes retained about 4,370 B per
    # entry here, packed keys with kept orders about 1,400 B, and codes
    # packed into bytes as well about 505 B
    pool = [random_flag(16, 5 / 16, 3, s) for s in range(40)]

    def code_all():
        for cx in pool:
            for v in cx.vertices:
                for r in (1, 2):
                    _ball_codes(cx, v, (r,))

    search = encoding._canonical_order
    replies = []

    def recorded(*args):
        replies.append(search(*args))
        return replies[-1]

    monkeypatch.setattr(encoding, "_CODE_CACHE", {})
    monkeypatch.setattr(encoding, "_canonical_order", recorded)
    code_all()
    # The traced pass codes the same balls into an empty cache, in the
    # same order, and replays each search's result: the searches' own
    # short-lived allocations would make tracing slow, and no entry keeps
    # any object they return.
    encoding._CODE_CACHE.clear()
    replay = iter(replies)
    monkeypatch.setattr(encoding, "_canonical_order", lambda *args: next(replay))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code_all()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert next(replay, None) is None
    assert len(encoding._CODE_CACHE) > 900
    assert retained / len(encoding._CODE_CACHE) < 800


def test_canonical_code_rejects_disconnected():
    cx = SimplicialComplex.closure([(0, 1), (2, 3)])
    rc = rooted_at(cx, 0)  # restricts to the component, fine
    assert canonical_code(rc).indices == (0, 1, 2)
    from l2limits.complexes import RootedComplex
    with pytest.raises(ValidationError):
        RootedComplex(cx, 0)


def test_bs_distance_examples(monkeypatch):
    c5 = closure([(i, (i + 1) % 5) for i in range(5)])
    c6 = closure([(i, (i + 1) % 6) for i in range(6)])
    assert bs_distance(rooted_at(c5, 0), rooted_at(c6, 0)) == Fraction(1, 2)
    hollow = closure([(0, 1), (1, 2), (0, 2)])
    filled = closure([(0, 1, 2)])
    assert bs_distance(rooted_at(hollow, 0), rooted_at(filled, 0)) == 1
    assert bs_distance(rooted_at(c5, 0), rooted_at(c5, 2)) == 0
    # past the larger eccentricity both balls are whole components, so a
    # large rmax codes no radius beyond it
    calls = []

    def counted(*args):
        calls.append(args)
        return _ball_codes(*args)

    monkeypatch.setattr(encoding, "_ball_codes", counted)
    a = rooted_at(torus_tower(2, 6), 0)
    assert bs_distance(a, a, 1000) == 0
    assert 0 < len(calls) <= 2 * a.eccentricity()


def test_bs_distance_is_an_ultrametric():
    rng = np.random.default_rng(37)
    pool = []
    for _ in range(12):
        cx = random_connected_complex(rng, 6)
        pool.append(rooted_at(cx, cx.vertices[0]))
    for a in pool[:6]:
        for b in pool[:6]:
            for c in pool[:6]:
                dab = bs_distance(a, b)
                dbc = bs_distance(b, c)
                dac = bs_distance(a, c)
                assert dac <= max(dab, dbc)
            assert bs_distance(a, b) == bs_distance(b, a)
    for a in pool:
        assert bs_distance(a, a) == 0


def test_ball_consistency_of_codes():
    # the radius-r ball of the canonical form of the (r+1)-ball has the
    # same code as the radius-r ball itself
    rng = np.random.default_rng(41)
    for _ in range(30):
        cx = random_connected_complex(rng, 8)
        rc = rooted_at(cx, cx.vertices[0])
        for r in range(3):
            direct = canonical_code(rc.ball(r))
            via_bigger = canonical_code(
                canonical_code(rc.ball(r + 1)).decode().ball(r))
            assert direct == via_bigger
