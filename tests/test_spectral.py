import io
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import l2limits.spectral as spectral
from conftest import random_complex, random_connected_complex
from l2limits.cli import main
from l2limits.complexes import SimplicialComplex
from l2limits.errors import CrossCheckError, ValidationError
from l2limits.estimators import exhaustive_moments, vertex_sampler
from l2limits.exact import rational_rank
from l2limits.formats import write_scx
from l2limits.generators import (fixtures, linial_meshulam, random_flag,
                                 torus_tower)
from l2limits.measures import uniform_rooting
from l2limits.spectral import (_boundary, _piece_bound, _radius_bound,
                               betti, betti_normalized, boundary_matrix,
                               boundary_rank, euler_poincare,
                               laplacian_matrix, spectral_measure,
                               write_spectrum_csv)

closure = SimplicialComplex.closure

BETTI_ORACLE = {
    "single_vertex": (1,),
    "edge": (1, 0),
    "path3": (1, 0),
    "path4": (1, 0),
    "star5": (1, 0),
    "cycle5": (1, 1),
    "cycle6": (1, 1),
    "hollow_triangle": (1, 1),
    "filled_triangle": (1, 0, 0),
    "two_triangles": (2, 2),
    "book": (1, 0, 0),
    "tetrahedron_boundary": (1, 0, 1),
    "solid_tetrahedron": (1, 0, 0, 0),
    "octahedron": (1, 0, 1),
    "torus4": (1, 2, 1),
}


def test_boundary_composition_vanishes():
    rng = np.random.default_rng(7)
    for _ in range(30):
        cx = random_complex(rng, 9)
        for p in range(1, cx.dim + 1):
            down = boundary_matrix(cx, p)
            up = boundary_matrix(cx, p + 1)
            if down.size and up.size:
                assert not (down @ up).any()


def test_boundary_matrix_shape_and_signs():
    cx = closure([(0, 1, 2)])
    # rows (0,), (1,), (2,); columns (0, 1), (0, 2), (1, 2)
    d1 = boundary_matrix(cx, 1)
    assert d1.shape == (3, 3) and d1.dtype == np.int64
    assert d1.tolist() == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]
    b2 = boundary_matrix(cx, 2)
    assert b2.tolist() == [[1], [-1], [1]]
    # d_0 has no rows, and past the top dimension there are no columns
    shapes = [boundary_matrix(cx, p).shape for p in (0, 3, 4)]
    assert shapes == [(0, 3), (1, 0), (0, 0)]
    # a negative degree names no boundary operator
    for call in (boundary_matrix, boundary_rank):
        with pytest.raises(ValidationError, match="boundary degree"):
            call(cx, -1)


def test_boundary_builder_scatters_to_the_reference():
    # _boundary's (face, sign) lists, scattered into zeros, are exactly
    # the dense reference: q + 1 entries per q-simplex, no (face, simplex)
    # pair twice, at every degree from d_0 to two past the top
    rng = np.random.default_rng(53)
    cases = list(fixtures().values())
    cases += [random_complex(rng, 12) for _ in range(30)]
    cases += [torus_tower(2, 5), torus_tower(2, 8)]
    disconnected = isolated = deep = False
    for cx in cases:
        disconnected |= len(cx.components()) > 1
        isolated |= any(not cx.neighbors(v) for v in cx.vertices)
        deep |= cx.dim >= 3
        for q in range(cx.dim + 3):
            face, sign = _boundary(cx, q)
            reference = boundary_matrix(cx, q)
            # d_0 is zero: no entries at all
            simplex = [j for j in range(len(cx.faces(q)))
                       for _ in range(q + 1)] if q else []
            assert len(face) == len(sign) == len(simplex)
            assert len(set(zip(face, simplex))) == len(face)
            scattered = np.zeros_like(reference)
            scattered[face, simplex] = sign
            assert np.array_equal(scattered, reference)
    assert disconnected and isolated and deep


def test_rational_rank_matches_numpy():
    rng = np.random.default_rng(11)
    for _ in range(40):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        mat = rng.integers(-3, 4, size=(rows, cols))
        sparse = [{j: int(v) for j, v in enumerate(row) if v} for row in mat]
        assert rational_rank(sparse) == np.linalg.matrix_rank(mat)


def test_boundary_rank_matches_numpy():
    rng = np.random.default_rng(13)
    for _ in range(25):
        cx = random_complex(rng, 9)
        for p in range(1, cx.dim + 1):
            dense = boundary_matrix(cx, p)
            assert boundary_rank(cx, p) == np.linalg.matrix_rank(dense)


def _sparse(mat):
    return [{j: v for j, v in enumerate(row) if v} for row in mat]


def test_integer_rank_matches_numpy_on_wide_entries():
    # entries in -9..9; half the draws are products of thin factors (at
    # most 3 terms of 3 x 1), so their rank sits below min(rows, cols) and
    # elimination must cancel
    rng = np.random.default_rng(41)
    deficient = 0
    for trial in range(120):
        rows, cols = (int(x) for x in rng.integers(1, 9, size=2))
        if trial % 2:
            inner = int(rng.integers(1, 4))
            mat = (rng.integers(-3, 4, size=(rows, inner))
                   @ rng.integers(-1, 2, size=(inner, cols)))
        else:
            mat = rng.integers(-9, 10, size=(rows, cols))
        want = int(np.linalg.matrix_rank(mat))
        deficient += want < min(rows, cols)
        assert rational_rank(_sparse(mat.tolist())) == want
    assert deficient >= 20


def _defect_torus(side, removed, seed):
    """Side-``side`` torus with ``removed`` triangles drawn by default_rng(seed)."""
    full = torus_tower(2, side)
    tris = full.faces(2)
    picks = np.random.default_rng(seed).choice(len(tris), removed, replace=False)
    drop = {tris[i] for i in picks}
    return closure(list(full.faces(1)) + [t for t in tris if t not in drop])


def test_free_column_ranks_match_numpy():
    # complexes that collapse (defect tori), that partly do (Linial-Meshulam
    # and flag complexes) and that have no free column at first (closed tori)
    pool = list(fixtures().values())
    pool += [_defect_torus(side, k, side) for side in range(6, 13) for k in (1, 2, 5)]
    pool += [torus_tower(2, side) for side in (5, 6)]
    pool += [linial_meshulam(2, 10, p, s) for p in (0.3, 0.6) for s in range(4)]
    pool += [random_flag(12, 0.45, 3, s) for s in range(6)]
    for cx in pool:
        for q in range(1, cx.dim + 1):
            assert boundary_rank(cx, q) == np.linalg.matrix_rank(boundary_matrix(cx, q))


def test_a_collapsing_level_is_ranked_without_fill(monkeypatch):
    # a torus with triangles removed collapses onto a graph: each triangle
    # goes by a free column, so the fallback heap never pivots and nothing
    # fills; a closed torus has no free column until elimination frees one
    import heapq
    pops = []
    heappop = heapq.heappop

    def counted(heap):
        pops.append(len(heap))
        return heappop(heap)

    monkeypatch.setattr(heapq, "heappop", counted)
    for side in (6, 8, 12):
        for removed in (1, 3):
            cx = _defect_torus(side, removed, side)
            assert boundary_rank(cx, 2) == len(cx.faces(2))
    assert pops == []
    assert boundary_rank(torus_tower(2, 6), 2) == 71
    assert pops


def test_rank_input_is_left_untouched():
    # the first row is the pivot; the second is scaled by 2 and eliminated
    rows = [{0: 2, 1: 4}, {0: 3, 1: 6}]
    copy = [dict(row) for row in rows]
    assert rational_rank(rows) == 1
    assert rows == copy


def test_rank_of_d1_counts_components():
    # rank d_1 = |V| - #components, taken without elimination; the
    # elimination route must agree on the same draws
    rng = np.random.default_rng(47)
    disconnected = 0
    for _ in range(40):
        cx = random_complex(rng, 12, max_pieces=4)
        if cx.dim < 1:
            continue
        comps = len(cx.components())
        disconnected += comps > 1
        want = len(cx.vertices) - comps
        assert boundary_rank(cx, 1) == want
        face, sign = _boundary(cx, 1)
        assert rational_rank({face[k]: sign[k], face[k + 1]: sign[k + 1]}
                             for k in range(0, len(face), 2)) == want
    assert disconnected >= 5


def test_computation_path_reads_no_boundary_matrix(monkeypatch):
    # boundary_matrix, a dense array, is the independent reference: ranks
    # (each computed once by _chain_numbers), Gram pieces and the spectra's
    # checks read d_q from _boundary, and Laplacian rows and moments from
    # the cofaces of _Incidence
    calls = []
    reference = spectral.boundary_matrix

    def counted(cx, p):
        calls.append(p)
        return reference(cx, p)

    monkeypatch.setattr(spectral, "boundary_matrix", counted)
    for cx in list(fixtures().values()) + [torus_tower(2, 5)]:
        for p in range(cx.dim + 2):
            boundary_rank(cx, p)
            betti(cx, p)
            laplacian_matrix(cx, p)
            spectral_measure(cx, p)
            exhaustive_moments(cx, p, 3)
    assert calls == []


def test_betti_loops_compute_each_rank_once(monkeypatch, tmp_path):
    calls = []
    rank = spectral.boundary_rank

    def counted(cx, q):
        calls.append(q)
        return rank(cx, q)

    monkeypatch.setattr(spectral, "boundary_rank", counted)
    cx = fixtures()["octahedron"]
    write_scx(cx, tmp_path / "octa.scx")
    assert main(["betti", str(tmp_path / "octa.scx")]) == 0
    assert sorted(calls) == [0, 1, 2, 3]
    calls.clear()
    assert euler_poincare(cx) == (Fraction(2, 6), Fraction(2, 6))
    assert sorted(calls) == [0, 1, 2, 3]


def test_betti_oracle_on_fixtures():
    for name, cx in fixtures().items():
        want = BETTI_ORACLE[name]
        got = tuple(betti(cx, p) for p in range(cx.dim + 1))
        assert got == want, name
        assert betti(cx, cx.dim + 1) == 0
    with pytest.raises(ValidationError):
        betti(fixtures()["edge"], -1)


def test_betti_normalized():
    assert betti_normalized(fixtures()["two_triangles"], 0) == Fraction(1, 3)
    assert betti_normalized(torus_tower(2, 4), 1) == Fraction(2, 16)


def test_whole_complex_statistics_refuse_the_empty_complex():
    empty = SimplicialComplex([])
    for call, message in (
            (lambda: exhaustive_moments(empty, 1, 2),
             "exhaustive moments needs a nonempty complex"),
            (lambda: uniform_rooting(empty), "uniform rooting needs a nonempty complex"),
            (lambda: vertex_sampler(empty, 2), "vertex sampler needs a nonempty complex"),
            (lambda: spectral_measure(empty, 0),
             "spectral measure needs a nonempty complex"),
            (lambda: betti_normalized(empty, 0),
             "normalized Betti number needs a nonempty complex"),
            (lambda: euler_poincare(empty),
             "Euler-Poincare needs a nonempty complex")):
        with pytest.raises(ValidationError, match=message):
            call()


def test_laplacian_matches_boundary_product():
    # D^T D + U U^T from the dense boundary matrices is an oracle that does
    # not share the Gram assembly of laplacian_matrix and the spectra, nor
    # the rows of local moments.  Both Gram terms sum no pair at p = 0 of
    # an edgeless complex and at p = dim + 1, where a bincount is int64.
    rng = np.random.default_rng(31)
    cases = list(fixtures().values()) + [torus_tower(2, 5)]
    cases += [random_complex(rng, 10) for _ in range(30)]
    cases += [closure([(0,), (1,), (2,)])]
    for cx in cases:
        for p in range(cx.dim + 2):
            down = boundary_matrix(cx, p)
            up = boundary_matrix(cx, p + 1)
            want = down.T @ down + up @ up.T
            lap = laplacian_matrix(cx, p)
            assert lap.dtype == np.float64
            assert np.array_equal(lap, want)


def _split_cases():
    rng = np.random.default_rng(37)
    cases = list(fixtures().values())
    cases += [random_complex(rng, 10) for _ in range(30)]
    cases += [torus_tower(1, 7), torus_tower(2, 5), torus_tower(2, 8),
              linial_meshulam(2, 12, 0.3, 1)]
    return cases


def test_gram_matrices_give_the_laplacian_spectrum():
    # the nonzero spectrum of Delta_p is the union of those of the Gram
    # pieces of d_p and d_{p+1}; both Gram matrices of each d equal the
    # dense products of the reference boundary matrix
    for cx in _split_cases():
        for q in range(1, cx.dim + 2):
            d = boundary_matrix(cx, q)
            for upper, want in ((True, d.T @ d), (False, d @ d.T)):
                gram = spectral._gram(cx, q, upper)
                assert gram.dtype == np.float64
                assert np.array_equal(gram, want)
        for p in range(cx.dim + 2):
            got = spectral_measure(cx, p).eigenvalues
            want = (np.linalg.eigvalsh(laplacian_matrix(cx, p))
                    if cx.faces(p) else [])
            assert len(got) == len(want)
            assert np.allclose(got, want, rtol=0, atol=1e-9)


def test_spectral_measure_reads_neither_dense_reference(monkeypatch):
    def boom(cx, p):
        raise AssertionError("a spectrum read a dense reference")

    monkeypatch.setattr(spectral, "laplacian_matrix", boom)
    monkeypatch.setattr(spectral, "boundary_matrix", boom)
    for cx in _split_cases():
        for p in range(cx.dim + 2):
            spectral_measure(cx, p)


def test_a_tolerance_that_swallows_a_piece_names_it(monkeypatch):
    # ZERO_TOL between the two pieces' smallest nonzero eigenvalues
    # swallows one of the lower piece only, and its check names it
    named = set()
    for cx in _split_cases():
        for p in range(1, cx.dim):
            low = {q: spectral._nonzero_spectrum(cx, q, boundary_rank(cx, q),
                                                 0)[0][0]
                   for q in (p, p + 1)}
            if abs(low[p] - low[p + 1]) < 1e-3:
                continue
            lower = min(low, key=low.get)
            with monkeypatch.context() as patch:
                patch.setattr(spectral, "ZERO_TOL", sum(low.values()) / 2)
                with pytest.raises(CrossCheckError,
                                   match=f"Gram piece of d_{lower} "):
                    spectral_measure(cx, p)
            named.add(lower - p)
    assert named == {0, 1}


def _int_traces(g, order):
    """tr g^r for r = 1..order by Python-int matrix powers."""
    g = g.astype(np.int64).astype(object)
    power, traces = g, []
    for _ in range(order):
        traces.append(int(np.trace(power)))
        power = power.dot(g)
    return traces


def test_power_traces_are_exact_on_both_sides_of_2_53(monkeypatch):
    # a Gram matrix b^T b of 5 rows, largest absolute row sum 24: 5 * 24^r
    # passes 2^53 at r = 12, where one float pass gives way to primes
    reductions = []
    fmod = np.fmod
    monkeypatch.setattr(np, "fmod", lambda *a: reductions.append(1) or fmod(*a))
    b = np.array([[2, -1, 0, 3, 1], [1, 1, -2, 0, 2], [0, 3, 1, -1, 0],
                  [1, 0, 1, 1, -3]])
    g = (b.T @ b).astype(np.float64)
    assert int(np.abs(g).sum(axis=1).max()) == 24
    for order in (0, 1, 2, 11):
        assert spectral._power_traces(g, order) == _int_traces(g, order)
    assert reductions == []
    for order in (12, 13, 30):
        traces = spectral._power_traces(g, order)
        assert traces == _int_traces(g, order)
    assert reductions
    assert traces[-1] > 2 ** 100
    # primes below 2^20 keep every modular sum exact up to the cap
    assert spectral.DENSE_EIGENSOLVE_CAP * (1 << 20) ** 2 < 2 ** 53


def test_the_cap_applies_per_piece(monkeypatch):
    # the side-6 torus at p=1: pieces of 36 and 72 rows, f_1 = 108
    torus = torus_tower(2, 6)
    assert [min(len(torus.faces(q - 1)), len(torus.faces(q)))
            for q in (1, 2)] == [36, 72]
    assert len(torus.faces(1)) == 108
    want = spectral_measure(torus, 1)
    monkeypatch.setattr(spectral, "DENSE_EIGENSOLVE_CAP", 100)
    got = spectral_measure(torus, 1)
    assert got.eigenvalues == want.eigenvalues
    assert got.mass_at_zero() == Fraction(2, 36)
    monkeypatch.setattr(spectral, "DENSE_EIGENSOLVE_CAP", 71)
    with pytest.raises(ValidationError, match="dense eigensolver cap"):
        spectral_measure(torus, 1)


def test_one_pass_serves_every_degree_and_solves_each_piece_once(
        monkeypatch):
    # the piece of d_q serves Delta_{q-1} and Delta_q: one pass over every
    # degree solves the pieces of d_0 to d_{dim+1} once each, and gives what
    # one pass per degree gives
    cases = [*fixtures().values(), closure(torus_tower(2, 6).faces(2)[1:])]
    eigvalsh, solve = np.linalg.eigvalsh, spectral._nonzero_spectrum
    for cx in cases:
        for order in (0, 3):
            solved, eigensolves = [], []
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigvalsh",
                              lambda a: eigensolves.append(1) or eigvalsh(a))
                patch.setattr(spectral, "_nonzero_spectrum",
                              lambda cx, q, *a: solved.append(q)
                              or solve(cx, q, *a))
                every = spectral._spectra(cx, range(cx.dim + 1), order)
            assert solved == list(range(cx.dim + 2))
            assert len(eigensolves) == cx.dim + 2
            for p in range(cx.dim + 1):
                assert every[p] == spectral._spectra(cx, (p,), order)[p]
                assert every[p][0] == spectral_measure(cx, p)


def test_negative_degree_rejected_by_spectral_route():
    cx = fixtures()["filled_triangle"]
    with pytest.raises(ValidationError):
        laplacian_matrix(cx, -1)
    with pytest.raises(ValidationError):
        spectral_measure(cx, -1)


def test_spectral_measure_filled_triangle():
    nu = spectral_measure(fixtures()["filled_triangle"], 0)
    assert nu.total_mass() == 1
    assert nu.mass_at_zero() == Fraction(1, 3)
    atoms = nu.atoms()
    assert [w for _, w in atoms] == [Fraction(1, 3), Fraction(2, 3)]
    assert atoms[0][0] == 0.0
    assert atoms[1][0] == pytest.approx(3.0)
    # full simplex on 3 vertices: Delta_1 is 3 times the identity
    nu1 = spectral_measure(fixtures()["filled_triangle"], 1)
    assert nu1.atoms() == [(pytest.approx(3.0), Fraction(1))]
    assert nu1.mass_at_zero() == 0


def test_spectral_measure_edge_and_hollow_triangle():
    nu = spectral_measure(fixtures()["edge"], 0)
    assert nu.atoms() == [(0.0, Fraction(1, 2)), (pytest.approx(2.0), Fraction(1, 2))]
    nu1 = spectral_measure(fixtures()["hollow_triangle"], 1)
    assert nu1.mass_at_zero() == Fraction(1, 3)
    assert nu1.atoms()[1] == (pytest.approx(3.0), Fraction(2, 3))


def test_spectral_measure_tetrahedra():
    solid = fixtures()["solid_tetrahedron"]
    for p in (1, 2):
        nu = spectral_measure(solid, p)
        values = {round(v, 9) for v, _ in nu.atoms()}
        assert values == {4.0}  # full simplex: Delta_p = n * identity
    shell = fixtures()["tetrahedron_boundary"]
    nu2 = spectral_measure(shell, 2)
    assert nu2.mass_at_zero() == Fraction(1, 4)
    assert nu2.atoms() == [(0.0, Fraction(1, 4)), (pytest.approx(4.0), Fraction(3, 4))]


def test_cycle_spectrum_matches_closed_form():
    n = 6
    nu = spectral_measure(torus_tower(1, n), 0)
    want = sorted(2 - 2 * math.cos(2 * math.pi * k / n) for k in range(n))
    assert np.allclose(sorted(nu.eigenvalues), want, atol=1e-9)


def test_measure_bookkeeping():
    nu = spectral_measure(torus_tower(1, 5), 1)
    assert nu.total_mass() == 1  # 5 edges over 5 vertices
    # (-0.5, 0.5) holds the kernel alone
    assert nu.mass_at_zero() + nu.near_zero_mass(0.5) == Fraction(1, 5)
    assert nu.near_zero_mass(0.5) == 0  # zero excluded, no small nonzeros
    assert nu.near_zero_mass(5.0) == Fraction(4, 5)
    lap = laplacian_matrix(torus_tower(1, 5), 1)
    assert nu.moment(1) * 5 == pytest.approx(np.trace(lap))
    assert nu.moment(0) == pytest.approx(1.0)


def test_kernel_mass_equals_normalized_betti():
    rng = np.random.default_rng(17)
    for _ in range(20):
        cx = random_complex(rng, 10)
        for p in range(cx.dim + 1):
            assert spectral_measure(cx, p).mass_at_zero() == betti_normalized(cx, p)


def test_spectral_measure_guard_rails(monkeypatch):
    cx = fixtures()["filled_triangle"]
    empty_degree = spectral_measure(cx, 5)
    assert empty_degree.total_mass() == 0
    assert empty_degree.spectral_radius() == 0.0
    # the empty complex is refused, and the cap and the zero tolerance are
    # read when called
    with pytest.raises(ValidationError):
        spectral_measure(SimplicialComplex([]), 1)
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "DENSE_EIGENSOLVE_CAP", 2)
        with pytest.raises(ValidationError, match="dense eigensolver cap"):
            spectral_measure(cx, 1)
    # an absurd zero tolerance swallows genuine eigenvalues and must be caught
    monkeypatch.setattr(spectral, "ZERO_TOL", 2.0)
    with pytest.raises(CrossCheckError):
        spectral_measure(torus_tower(1, 5), 0)


def test_euler_poincare_fixtures_and_random():
    for name, cx in fixtures().items():
        lhs, rhs = euler_poincare(cx)
        assert lhs == rhs, name
        assert rhs * len(cx.faces(0)) == cx.euler_characteristic()
    rng = np.random.default_rng(19)
    for _ in range(30):
        cx = random_complex(rng, 10)
        lhs, rhs = euler_poincare(cx)
        assert lhs == rhs


def test_column_and_row_counts_hold_corpus_wide():
    # every column of d_p has exactly p+1 entries; every row at most D-p+1
    cases = list(fixtures().values()) + [torus_tower(2, 5)]
    rng = np.random.default_rng(23)
    cases += [random_complex(rng, 10) for _ in range(20)]
    for cx in cases:
        degree = cx.max_degree()
        for p in range(1, cx.dim + 1):
            nonzero = boundary_matrix(cx, p) != 0
            assert (nonzero.sum(axis=0) == p + 1).all()
            assert nonzero.sum(axis=1).max() <= degree - p + 1


def test_boundary_norm_within_entry_count_bound():
    # || d_p ||^2 <= (p+1)(D-p+1): both factors are exact entry counts
    cases = list(fixtures().values()) + [torus_tower(2, 6)]
    rng = np.random.default_rng(29)
    cases += [random_complex(rng, 9) for _ in range(20)]
    for cx in cases:
        degree = cx.max_degree()
        for p in range(1, cx.dim + 1):
            dense = boundary_matrix(cx, p).astype(np.float64)
            if not dense.size:
                continue
            top = float(np.linalg.norm(dense, 2))
            assert top ** 2 <= (p + 1) * (degree - p + 1) + 1e-9


def test_tight_pieces_meet_their_norm_bound():
    # each of these pieces has a largest eigenvalue equal to (q+1)(D-q+1),
    # within the eigensolver's rounding, and passes the check
    for name, q in (("edge", 1), ("cycle6", 1), ("filled_triangle", 2),
                    ("solid_tetrahedron", 3)):
        cx = fixtures()[name]
        top = spectral._nonzero_spectrum(cx, q, boundary_rank(cx, q), 0)[0][-1]
        assert top == pytest.approx(_piece_bound(q, cx.max_degree()),
                                    rel=1e-15), name


def test_laplacian_radius_bound_holds_on_dense_complexes():
    # flat tori and complete graphs exceed 2*sqrt((p+2)*D); the proven
    # bound holds on them
    torus = torus_tower(2, 8)
    assert spectral_measure(torus, 1).spectral_radius() == pytest.approx(
        8.83, abs=0.01)
    assert _radius_bound(1, torus.max_degree()) == 15
    k13 = closure(list(combinations(range(13), 2)))
    assert spectral_measure(k13, 1).spectral_radius() == pytest.approx(13.0)
    assert _radius_bound(1, k13.max_degree()) == 33


def test_a_piece_past_its_norm_bound_is_refused(monkeypatch, tmp_path,
                                                capsys):
    # a largest eigenvalue above the proven bound is refused, not reported:
    # by the library, and by every command that eigensolves, with exit 5,
    # one error line and no CSV
    monkeypatch.setattr(spectral, "_piece_bound", lambda q, degree: 1)
    book = fixtures()["book"]
    with pytest.raises(CrossCheckError,
                       match="proven bound .*Gram piece of d_1 "):
        spectral_measure(book, 1)
    path = str(tmp_path / "book.scx")
    write_scx(book, path)
    out = tmp_path / "exp.csv"
    for argv in (["spectrum", path, "--p", "1"], ["betti", path, "--exact"],
                 ["converge", "--family", "torus2d", "--levels", "4,5",
                  "--p", "1", "--out", str(out)]):
        assert main(argv) == 5, argv
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), argv
        assert "proven bound" in lines[0], argv
    assert not out.exists()


def _lose_one(ev):
    """The eigenvalues without the largest nonzero one."""
    return ev[:-1]


def _repeat_one(ev):
    """The eigenvalues with the largest one replaced by a copy of a
    distinct smaller one."""
    ev = ev.copy()
    ev[-1] = ev[ev < ev[-1] - 1e-3][-1]
    return ev


@pytest.mark.parametrize("corrupt", [_lose_one, _repeat_one])
def test_power_sums_catch_a_lost_or_repeated_eigenvalue(monkeypatch, corrupt):
    # the sums of the eigenvalues and of their squares match the exact
    # traces on every fixture and torus, and an eigenvalue dropped, or
    # repeated in place of a distinct one, breaks them
    cases = list(fixtures().values()) + [torus_tower(2, n) for n in (3, 8)]
    for cx in cases:
        for p in range(cx.dim + 1):
            spectral_measure(cx, p)
    eigvalsh = np.linalg.eigvalsh
    # a 0x0 piece has no eigenvalue to corrupt
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: corrupt(eigvalsh(a)) if len(a) else eigvalsh(a))
    for cx in (fixtures()["octahedron"], torus_tower(2, 6)):
        with pytest.raises(CrossCheckError,
                           match=r"power sum .* != tr g\^1 .*Gram piece of d_1 "):
            spectral_measure(cx, 0)


def test_radius_bound_holds_and_clamps():
    # rho(Delta_p) <= max((p+1)(D-p+1), (p+2)(D-p), 0): the larger bound
    # of its two Gram pieces
    cases = list(fixtures().values()) + [torus_tower(2, 8)]
    rng = np.random.default_rng(53)
    cases += [random_complex(rng, 10) for _ in range(20)]
    for cx in cases:
        degree = cx.max_degree()
        for p in range(cx.dim + 3):
            radius = spectral_measure(cx, p).spectral_radius()
            assert radius <= _radius_bound(p, degree) + 1e-9
    assert _radius_bound(1, 6) == 15
    assert _radius_bound(0, 6) == 12  # 2D, the bound of d_1's piece
    assert _radius_bound(4, 2) == 0
    assert _radius_bound(3, 3) == 4  # only the d_p term survives


def test_csv_writers():
    cx = fixtures()["filled_triangle"]
    out = io.StringIO()
    write_spectrum_csv(spectral_measure(cx, 0), out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "eigenvalue,weight"
    assert lines[1] == "0.0,1/3"
    assert lines[2].endswith(",2/3")
    assert float(lines[2].split(",")[0]) == pytest.approx(3.0)
