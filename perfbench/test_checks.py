"""The benchmark's checks reject corrupted outputs.

    python3 -m pytest perfbench/test_checks.py     (or run this file directly)

Each test computes a real output with the program, confirms the check
accepts it, then corrupts it in one way and confirms the check fails.
"""
import copy
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError, Plain  # noqa: E402
from l2limits import (BallDistribution, CanonicalCode, MomentVector,  # noqa: E402
                      ball_distribution, convergence_experiment,
                      index_of_subset, monte_carlo_moments, torus_tower,
                      uniform_rooting, vertex_sampler)


def rejects(check, *args):
    try:
        check(*args)
    except CheckError:
        return True
    return False


def test_betti_off_by_one_is_rejected():
    full = torus_tower(2, 6)
    cx = workloads._without(full, [full.faces(2)[5]])
    levels = [(Plain(36, cx.faces(1), cx.faces(2)), 1)]
    report = convergence_experiment([cx], 1, 4, (0.5,), rmax=1, threads=1)
    checks.check_tower(levels, report, 4, (0.5,))
    bad = copy.copy(report)
    bad.rows = [dict(report.rows[0], b_p=report.rows[0]["b_p"] + 1)]
    assert rejects(checks.check_tower, levels, bad, 4, (0.5,))


def test_moment_perturbed_by_1e6_relative_is_rejected():
    n, edges, tris = checks.torus(10)
    rng = np.random.default_rng(0)
    kept = [t for t in tris if rng.random() < 0.7]
    cx = workloads._without(torus_tower(2, 10), sorted(set(tris) - set(kept)))
    plain = Plain(n, edges, kept)
    base = vertex_sampler(cx, 5)
    roots = []

    def sampler(gen):
        sample = base(gen)
        roots.append(sample.rooted.root)
        return sample

    mv = monte_carlo_moments(sampler, 1, 4, 6, seed=3)
    checks.check_mc(plain, mv, roots, 1, 4, {})
    moments = list(mv.moments)
    moments[3] *= 1 + 1e-6
    bad = MomentVector(1, moments, mv.stderrs)
    assert rejects(checks.check_mc, plain, bad, roots, 1, 4, {})


def test_code_not_invariant_under_relabeling_is_rejected():
    mu = uniform_rooting(torus_tower(2, 5))
    law = ball_distribution(mu, 2)
    rng = np.random.default_rng(1)
    workloads.check_ball_law(law, mu, rng)
    (code,) = law
    rc = code.decode()
    for _ in range(100):
        perm = [0] + [int(v) + 1 for v in rng.permutation(len(rc.complex.vertices) - 1)]
        other = CanonicalCode(sorted(index_of_subset(perm[v] for v in s)
                                     for s in rc.complex.simplices))
        if other != code:
            break
    bad = BallDistribution(2, {other: law[code]})
    assert rejects(workloads.check_ball_law, bad, mu, rng)


def test_cli_nonzero_exit_is_rejected():
    proc = subprocess.run([sys.executable, "-m", "l2limits.cli", "betti", "missing.scx"],
                          env=workloads.child_env(), capture_output=True, text=True)
    record = {"argv": ["betti", "missing.scx"], "returncode": proc.returncode,
              "stdout": proc.stdout, "stderr": proc.stderr}
    assert proc.returncode != 0
    assert rejects(checks.check_betti, record, Plain(*checks.torus(4)), (1, 2, 1))


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
