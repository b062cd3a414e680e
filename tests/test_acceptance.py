"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints one bracketed verdict line (collected again in the
terminal summary).  Criterion 5 fails by design: the claimed operator
norm bounds are not true of simplicial Laplacians, and this suite
reports the violations instead of weakening the assertion.  The bounds
that do hold are asserted in test_spectral.py.
"""
import math
import time
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from conftest import random_complex, random_connected_complex
from l2limits.complexes import SimplicialComplex, rooted_at
from l2limits.encoding import CanonicalCode, canonical_code
from l2limits.estimators import local_moment
from l2limits.generators import (fixtures, linial_meshulam, random_flag,
                                 torus_tower)
from l2limits.measures import (ball_distribution, degree_truncate,
                               expected_p_degree, mass_transport_check,
                               measure_distance, non_unimodular_example,
                               standard_battery, uniform_rooting)
from l2limits.spectral import (betti_normalized, boundary_matrix,
                               laplacian_matrix, spectral_measure)


def test_criterion_1_kernel_mass_is_normalized_betti(criterion):
    start = time.perf_counter()
    corpus = fixtures()
    assert len(corpus) >= 10
    checked = 0
    for name, cx in corpus.items():
        assert len(cx.vertices) <= 60
        for p in range(cx.dim + 1):
            assert spectral_measure(cx, p).mass_at_zero() == \
                betti_normalized(cx, p), (name, p)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    criterion(f"[criterion 1] PASS: nu_p({{0}}) == b_p/|V| exactly on "
              f"{checked} (complex, p) pairs from {len(corpus)} fixtures "
              f"in {elapsed:.2f}s")


def test_criterion_2_euler_poincare(criterion):
    cases = list(fixtures().items())
    for n in (6, 9, 12):
        for prob, seed in ((0.2, 1), (0.6, 2)):
            cases.append((f"lm-{n}-{prob}", linial_meshulam(2, n, prob, seed)))
    for n in (8, 12):
        for prob, seed in ((0.3, 3), (0.6, 4)):
            cases.append((f"flag-{n}-{prob}", random_flag(n, prob, 3, seed)))
    for name, cx in cases:
        nverts = len(cx.vertices)
        lhs = sum(Fraction((-1) ** p) * betti_normalized(cx, p)
                  for p in range(cx.dim + 1))
        rhs = sum(
            Fraction((-1) ** p, p + 1)
            * Fraction(sum(cx.p_degree(v, p) for v in cx.vertices), nverts)
            for p in range(cx.dim + 1))
        assert lhs == rhs, name
    # same identity through the measured expected-degree route
    for name, cx in fixtures().items():
        mu = uniform_rooting(cx)
        rhs = sum(Fraction((-1) ** p, p + 1) * expected_p_degree(mu, p)
                  for p in range(cx.dim + 1))
        lhs = sum(Fraction((-1) ** p) * betti_normalized(cx, p)
                  for p in range(cx.dim + 1))
        assert lhs == rhs, name
    criterion(f"[criterion 2] PASS: alternating kernel-mass sum equals "
              f"alternating expected-degree sum exactly on {len(cases)} "
              f"complexes")


def test_criterion_3_torus_tower(criterion):
    start = time.perf_counter()
    sizes = (4, 8, 16, 32)
    towers = {n: torus_tower(2, n) for n in sizes}
    for n, cx in towers.items():
        assert betti_normalized(cx, 1) == Fraction(2, n * n), n
    laws = {n: uniform_rooting(cx) for n, cx in towers.items()}
    balls = {n: ball_distribution(laws[n], 2) for n in (8, 16, 32)}
    assert balls[8] == balls[16] == balls[32]
    assert measure_distance(laws[8], laws[16], 2) == 0
    assert measure_distance(laws[16], laws[32], 2) == 0
    assert measure_distance(laws[4], laws[8], 2) > 0  # the wrap is visible
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    criterion(f"[criterion 3] PASS: b_1/|V| == 2/n^2 for n in {sizes}; "
              f"r=2 ball law constant and consecutive distances 0 from "
              f"n=8 up, in {elapsed:.2f}s")


def test_criterion_4_moment_locality(criterion):
    rng = np.random.default_rng(101)
    ball_checks = 0
    trace_checks = 0
    for _ in range(100):
        cx = random_complex(rng, 20)
        verts = cx.vertices
        n = len(verts)
        picks = rng.choice(n, size=min(2, n), replace=False).tolist()
        for i in picks:
            root = verts[int(i)]
            rc = rooted_at(cx, root)
            comp = rc.complex
            for p in range(3):
                carriers = [j for j, s in enumerate(comp.faces(p)) if root in s]
                lap = laplacian_matrix(comp, p)
                for r in range(5):
                    if carriers:
                        powered = np.linalg.matrix_power(lap, r)
                        whole = Fraction(
                            int(sum(powered[j, j] for j in carriers)), p + 1)
                    else:
                        whole = Fraction(0)
                    assert local_moment(rc, p, r) == whole
                    ball_checks += 1
        for p in range(3):
            nu = spectral_measure(cx, p)
            for r in range(5):
                avg = Fraction(
                    sum(local_moment(rooted_at(cx, v), p, r) for v in verts), n)
                target = nu.moment(r)
                assert abs(float(avg) - target) <= 1e-8 * max(1.0, abs(target))
                trace_checks += 1
    criterion(f"[criterion 4] PASS: ball-restricted moments equal "
              f"whole-complex values ({ball_checks} exact checks) and vertex "
              f"averages match eigensolver moments within 1e-8 relative "
              f"({trace_checks} checks) on 100 random complexes")


def test_criterion_5_norm_bounds(criterion):
    violations = []
    cases = list(fixtures().items()) + [("torus8", torus_tower(2, 8))]
    for name, cx in cases:
        degree = cx.max_degree()
        for p in range(1, cx.dim + 1):
            dense = boundary_matrix(cx, p).astype(np.float64)
            if dense.size:
                top = float(np.linalg.norm(dense, 2))
                if top > math.sqrt(p + 1) + 1e-9:
                    violations.append(
                        f"{name}: ||d_{p}|| = {top:.6f} > "
                        f"sqrt(p+1) = {math.sqrt(p + 1):.6f}")
                if top > math.sqrt(degree - p + 1) + 1e-9:
                    violations.append(
                        f"{name}: ||d_{p}*|| = {top:.6f} > "
                        f"sqrt(D-p+1) = {math.sqrt(degree - p + 1):.6f}")
            radius = spectral_measure(cx, p).spectral_radius()
            bound = 2.0 * math.sqrt((p + 2) * degree)
            if radius > bound + 1e-9:
                violations.append(
                    f"{name}: rho(Delta_{p}) = {radius:.6f} > "
                    f"2*sqrt((p+2)D) = {bound:.6f}")
    if not violations:
        criterion("[criterion 5] PASS: stated operator norm bounds hold")
        return
    criterion(f"[criterion 5] FAIL: {len(violations)} norm-bound violations; "
              f"e.g. the hollow triangle already has ||d_1|| = sqrt(3) > "
              f"sqrt(2)")
    detail = "\n  ".join(violations[:8])
    pytest.fail(
        "the required operator norm bounds are false as stated and this "
        "suite will not weaken them to pass.  The per-column count of d_p "
        "is exactly p+1 and the per-row count is at most D-p+1, which "
        "gives the true bound ||d_p||^2 <= (p+1)(D-p+1) asserted in "
        "test_spectral.py; the sqrt(p+1), sqrt(D-p+1), and 2*sqrt((p+2)D) "
        "claims fail on standard complexes:\n  " + detail,
        pytrace=False)


def test_criterion_6_counting_bound(criterion):
    cases = list(fixtures().items())
    cases += [("torus6", torus_tower(2, 6)), ("torus8", torus_tower(2, 8))]
    cases += [(f"lm-{seed}", linial_meshulam(2, 10, 0.4, seed))
              for seed in (5, 6)]
    cases += [(f"flag-{seed}", random_flag(10, 0.4, 3, seed))
              for seed in (7, 8)]
    checked = 0
    trivial = 0
    for name, cx in cases:
        degree = cx.max_degree()
        for p in range(cx.dim + 1):
            nu = spectral_measure(cx, p)
            radius = nu.spectral_radius()
            for eps in (0.5, 0.1, 0.01):
                mass = nu.near_zero_mass(eps)
                if radius <= 1.0:
                    # all nonzero eigenvalues of an integer psd matrix
                    # multiply to at least 1, so none fits below 1
                    assert mass == 0, (name, p, eps)
                    trivial += 1
                else:
                    bound = (math.log(radius) * math.comb(degree, p)
                             / ((p + 1) * math.log(1.0 / eps)))
                    assert float(mass) <= bound, (name, p, eps)
                checked += 1
    criterion(f"[criterion 6] PASS: near-zero mass below "
              f"ln(rho)*C(D,p)/((p+1)ln(1/eps)) in all {checked} hard "
              f"checks ({trivial} with rho <= 1 and provably empty "
              f"nonzero spectrum)")


def test_criterion_7_canonical_form(criterion):
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    instances = 0
    while instances < 500:
        cx = random_connected_complex(rng, 7)
        verts = sorted(cx.vertices)
        root = verts[int(rng.integers(len(verts)))]
        rc = rooted_at(cx, root)
        got = canonical_code(rc)
        others = [v for v in verts if v != root]
        best = None
        for perm in permutations(range(1, len(verts))):
            label = dict(zip(others, perm))
            label[root] = 0
            cand = CanonicalCode(tuple(sorted(
                sum(1 << label[v] for v in s) - 1 for s in cx.simplices)))
            if best is None or cand < best:
                best = cand
        assert got == best
        for r in range(4):
            direct = canonical_code(rc.ball(r))
            nested = canonical_code(
                canonical_code(rc.ball(r + 1)).decode().ball(r))
            assert direct == nested, r
        instances += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    criterion(f"[criterion 7] PASS: branch-and-bound codes equal brute-force "
              f"minima and nested ball canonicalization commutes for r <= 3 "
              f"on {instances} connected complexes in {elapsed:.1f}s")


def test_criterion_8_mass_transport(criterion):
    battery = standard_battery()
    assert len(battery) == 12
    for name, cx in fixtures().items():
        mu = uniform_rooting(cx)
        for fn_name, fn in battery:
            lhs, rhs, passed = mass_transport_check(mu, fn)
            assert passed and lhs == rhs, (name, fn_name)
    mu, fn = non_unimodular_example()
    assert not mass_transport_check(mu, fn).passed
    criterion(f"[criterion 8] PASS: 12-function battery exact on all "
              f"{len(fixtures())} uniform rootings; the skew-rooted "
              f"counterexample fails transport as documented")


def test_criterion_9_truncation(criterion):
    rng = np.random.default_rng(109)
    for _ in range(200):
        cx = random_complex(rng, 10)
        cap = int(rng.integers(0, 6))
        out = degree_truncate(cx, cap)
        assert out.max_degree() <= cap
        assert set(out.simplices) <= set(cx.simplices)
        assert sorted(out.vertices) == sorted(cx.vertices)
        assert SimplicialComplex(out.simplices).simplices == out.simplices
        if cx.max_degree() <= cap:
            assert out is cx
        assert degree_truncate(out, cap) is out
    criterion("[criterion 9] PASS: 200 random truncations keep max degree "
              "under the cap, stay downward-closed subcomplexes on the same "
              "vertices, and are the identity when already under the cap")
