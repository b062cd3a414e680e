"""Committed exact moments that every implementation must reproduce.

Local moments are fixed by mathematics, not by the code that computes them,
so a stored value that changes is a bug unless the specification changed.
``golden_moments.json`` holds one SHA-256 digest per (complex, p) of the
exact m_0..m_6 at every vertex v, the moments of its point mass, the
exact means and standard errors of seeded ``monte_carlo_moments`` runs on
a percolated torus, and the chain invariants of each complex for every
p <= dim + 1: b_p, rank d_p, and the SHA-256 of the exact integer entries
of Delta_p in ``faces(p)`` order.  The ``codes`` section holds, per
complex, the SHA-256 of its ``uniform_rooting`` classes as the sorted
(canonical code, weight) pairs, which leaves out the choice of
representative, and of every vertex's radius-1 and radius-2 ball code.

Regenerate (only after a documented change of specification) with

    python tests/test_golden.py --regenerate --force
"""
import hashlib
import json
import sys
from pathlib import Path

if __name__ == "__main__":  # run as a script from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from l2limits.complexes import SimplicialComplex, rooted_at
from l2limits.encoding import canonical_code
from l2limits.estimators import moments_of_measure, monte_carlo_moments, vertex_sampler
from l2limits.generators import fixtures, linial_meshulam, random_flag, torus_tower
from l2limits.measures import RandomRootedComplex, uniform_rooting
from l2limits.spectral import betti, boundary_rank, laplacian_matrix

closure = SimplicialComplex.closure

GOLDEN = Path(__file__).resolve().parent / "golden_moments.json"
ORDER = 6
DIMS = (0, 1, 2)
BALL_RADII = (1, 2)
MC_SIDE, MC_KEEP, MC_RADIUS, MC_ORDER, MC_SAMPLES = 30, 0.7, 5, 4, 40


def corpus():
    """(name, complex) pairs whose local moments are stored."""
    cases = [(f"fixture:{name}", cx) for name, cx in sorted(fixtures().items())]
    cases += [(f"torus_tower(2,{n})", torus_tower(2, n)) for n in (5, 6, 7)]
    cases += [(f"random_flag(16,5/16,3,{s})", random_flag(16, 5 / 16, 3, s))
              for s in range(12)]
    cases += [(f"linial_meshulam(2,10,0.3,{s})", linial_meshulam(2, 10, 0.3, s))
              for s in range(4)]
    return cases


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def moment_digest(cx, p) -> str:
    """SHA-256 of every vertex's exact m_0..m_ORDER, in vertex order."""
    return digest([[v, [str(m) for m in moments_of_measure(
        RandomRootedComplex.point_mass(rooted_at(cx, v)), p, ORDER).moments]]
                   for v in cx.vertices])


def percolated_torus():
    """The side-30 torus with each triangle kept with probability 0.7."""
    torus = torus_tower(2, MC_SIDE)
    rng = np.random.default_rng(30)
    tris = torus.faces(2)
    kept = [t for t, x in zip(tris, rng.random(len(tris))) if x < MC_KEEP]
    return closure(list(torus.faces(1)) + kept)


def monte_carlo_values():
    cx = percolated_torus()
    out = {}
    for p in DIMS:
        mv = monte_carlo_moments(vertex_sampler(cx, MC_RADIUS), p, MC_ORDER,
                                 MC_SAMPLES, seed=100 + p)
        out[f"p{p}"] = {"moments": list(mv.moments), "stderrs": list(mv.stderrs)}
    return out


def local_moment_digests():
    return {f"{name}/p{p}": moment_digest(cx, p)
            for name, cx in corpus() for p in DIMS}


def chain_values():
    """b_p, rank d_p and the Delta_p digest of each complex, p <= dim + 1."""
    return {
        f"{name}/p{p}": {
            "betti": betti(cx, p),
            "boundary_rank": boundary_rank(cx, p),
            "laplacian_sha256": hashlib.sha256(
                laplacian_matrix(cx, p).tobytes()).hexdigest(),
        }
        for name, cx in corpus() for p in range(cx.dim + 2)
    }


def code_digests():
    """Rooting classes and radius-1, -2 ball codes of each complex."""
    out = {}
    for name, cx in corpus():
        out[f"{name}/rooting"] = digest(sorted(
            [list(canonical_code(pt.rooted).indices), str(pt.weight)]
            for pt in uniform_rooting(cx)))
        for r in BALL_RADII:
            out[f"{name}/ball_r{r}"] = digest(
                [[v, list(canonical_code(rooted_at(cx, v).ball(r)).indices)]
                 for v in cx.vertices])
    return out


def compute():
    return {"local_moments": local_moment_digests(),
            "monte_carlo": monte_carlo_values(),
            "chains": chain_values(),
            "codes": code_digests()}


def render(data) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def test_golden_moments():
    want = json.loads(GOLDEN.read_text())
    got = local_moment_digests()
    assert sorted(got) == sorted(want["local_moments"])
    changed = [key for key, digest in want["local_moments"].items()
               if got[key] != digest]
    assert changed == [], f"local moments changed on {changed}"
    # floats round-trip through JSON exactly, so equality is exact
    assert monte_carlo_values() == want["monte_carlo"]


def test_golden_chains():
    want = json.loads(GOLDEN.read_text())["chains"]
    got = chain_values()
    assert sorted(got) == sorted(want)
    changed = [key for key, values in want.items() if got[key] != values]
    assert changed == [], f"chain invariants changed on {changed}"


def test_golden_codes():
    want = json.loads(GOLDEN.read_text())["codes"]
    got = code_digests()
    assert sorted(got) == sorted(want)
    changed = [key for key, value in want.items() if got[key] != value]
    assert changed == [], f"codes changed on {changed}"


def main(argv) -> int:
    if "--regenerate" not in argv:
        print(__doc__)
        return 1
    if GOLDEN.exists() and "--force" not in argv:
        print(f"{GOLDEN.name} exists; pass --force to overwrite it, and list "
              "the regeneration and its reason in CHANGES.md", file=sys.stderr)
        return 1
    GOLDEN.write_text(render(compute()))
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
