"""The four workloads: inputs from a seed, a fixed list of operations, checks.

Each ``prepare_*`` function generates its inputs from the workload seed and
returns a :class:`Workload`.  The number of operations depends only on
``seconds``, through a per-workload rate measured on a shared 2-CPU x86-64
machine, never on the machine's speed or the seed, so every run attempts
whole rounds of the same operations.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from checks import Plain, expect
from l2limits import (RootedComplex, SimplicialComplex, ball_distribution,
                      canonical_code, convergence_experiment,
                      find_rooted_isomorphism, linial_meshulam,
                      measure_distance, monte_carlo_moments, random_flag,
                      torus_tower, uniform_rooting, vertex_sampler, write_scx)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class Workload:
    """``ops``: zero-argument callables, timed one by one.  ``check`` gets
    the outputs of the operations that returned; ``finish`` (traced runs
    only) folds what child processes recorded into the tracer."""

    def __init__(self, ops, check, finish=None):
        self.ops = ops
        self.check = check
        self.finish = finish


def n_ops(rate, seconds):
    return max(1, round(rate * seconds))


def _rng(seed, tag):
    return np.random.default_rng([seed, tag])


def _without(cx, triangles):
    """``cx`` with the given triangles removed (their edges stay)."""
    drop = set(triangles)
    return SimplicialComplex.closure(
        list(cx.faces(1)) + [t for t in cx.faces(2) if t not in drop])


# -- mc-percolated ------------------------------------------------------------

MC_SIDE = 120          # 14,400 vertices
MC_KEEP = 0.7          # each triangle kept with this probability, edges all kept
MC_RADIUS = 5
MC_ORDER = 4
MC_SAMPLES = 4         # samples per monte_carlo_moments call
MC_RATE = 9.0          # operations per nominal second


def prepare_mc(seed, seconds, workdir, tracer):
    rng = _rng(seed, 1)
    full = torus_tower(2, MC_SIDE)
    triangles = full.faces(2)
    kept = rng.random(len(triangles)) < MC_KEEP
    cx = _without(full, [t for t, k in zip(triangles, kept) if not k])
    n, edges, tris = checks.torus(MC_SIDE)
    expect(tris == list(triangles), "torus_tower disagrees with the plain torus")
    plain = Plain(n, edges, [t for t, k in zip(tris, kept) if k])
    base = vertex_sampler(cx, MC_RADIUS)
    op_seeds = [int(s) for s in rng.integers(1 << 31, size=n_ops(MC_RATE, seconds))]

    def op(op_seed):
        drawn = []

        def sampler(gen):
            sample = base(gen)
            drawn.append(sample.rooted.root)
            return sample

        mv = monte_carlo_moments(sampler, 1, MC_ORDER, MC_SAMPLES, op_seed)
        return op_seed, mv, drawn

    def check(outputs):
        memo = {}
        for _, mv, roots in outputs:
            checks.check_mc(plain, mv, roots, 1, MC_ORDER, memo)
        op_seed, first, _ = outputs[0]
        _, again, _ = op(op_seed)
        expect(again.moments == first.moments and again.stderrs == first.stderrs,
               "the same seed gave another MomentVector")

    return Workload([lambda s=s: op(s) for s in op_seeds], check)


# -- tower-defect -------------------------------------------------------------

TOWER_SIDES = (6, 7, 8)
TOWER_DEFECTS = 1      # triangles removed from every level
TOWER_ORDER = 4
TOWER_EPS = (0.5, 0.1)
TOWER_RMAX = 2
TOWER_RATE = 1.4


def prepare_tower(seed, seconds, workdir, tracer):
    rng = _rng(seed, 2)
    towers = []
    for _ in range(n_ops(TOWER_RATE, seconds)):
        levels = []
        for side in TOWER_SIDES:
            full = torus_tower(2, side)
            tris = full.faces(2)
            drop = [tris[i] for i in rng.choice(len(tris), TOWER_DEFECTS, replace=False)]
            cx = _without(full, drop)
            plain = Plain(len(cx.faces(0)), cx.faces(1), cx.faces(2))
            levels.append((cx, plain))
        towers.append(levels)

    def op(levels):
        return convergence_experiment(
            [cx for cx, _ in levels], 1, TOWER_ORDER, TOWER_EPS, rmax=TOWER_RMAX,
            labels=list(TOWER_SIDES), threads=1)

    def check(outputs):
        for levels, report in outputs:
            checks.check_tower([(plain, TOWER_DEFECTS) for _, plain in levels],
                               report, TOWER_ORDER, TOWER_EPS)

    return Workload([lambda t=t: (t, op(t)) for t in towers], check)


# -- ball-laws-flag -----------------------------------------------------------

FLAG_N = 16
FLAG_C = 5.0           # mean degree: edge probability FLAG_C / FLAG_N
FLAG_DIM = 3
FLAG_RADII = (1, 2)
FLAG_RMAX = 2
FLAG_RATE = 20.0


def relabeled(rc, rng):
    """The same rooted complex under a random vertex relabeling."""
    verts = list(rc.complex.vertices)
    perm = dict(zip(verts, (int(v) for v in rng.permutation(len(verts)) + 3)))
    cx = SimplicialComplex([tuple(perm[v] for v in s) for s in rc.complex.simplices])
    return RootedComplex(cx, perm[rc.root])


def check_ball_law(law, mu, rng):
    """Weights sum to 1; a sampled key is invariant under relabeling and
    decodes to a ball of a sampled support point, by a verified isomorphism."""
    checks.check_law(law)
    keys = sorted(law, key=lambda code: code.indices)
    key = keys[int(rng.integers(len(keys)))]
    expect(canonical_code(relabeled(key.decode(), rng)) == key,
           f"radius-{law.radius} code is not invariant under relabeling")
    pt = mu.points[int(rng.integers(len(mu.points)))]
    ball = pt.rooted.ball(law.radius)
    code = canonical_code(relabeled(ball, rng))
    expect(code in law, "a support point's ball is missing from the law")
    checks.verify_isomorphism(find_rooted_isomorphism(code.decode(), ball),
                              code.decode(), ball)


def prepare_flag(seed, seconds, workdir, tracer):
    rng = _rng(seed, 3)
    seeds = [int(s) for s in rng.integers(1 << 31, size=n_ops(FLAG_RATE, seconds) + 1)]
    complexes = [random_flag(FLAG_N, FLAG_C / FLAG_N, FLAG_DIM, s) for s in seeds]
    state = {"prev": uniform_rooting(complexes[0])}

    def op(cx):
        mu = uniform_rooting(cx)
        laws = [ball_distribution(mu, r) for r in FLAG_RADII]
        dist = measure_distance(mu, state["prev"], FLAG_RMAX)
        state["prev"] = mu
        return mu, laws, dist

    def check(outputs):
        crng = _rng(seed, 4)
        for i, (mu, laws, dist) in enumerate(outputs):
            expect(0 <= dist <= 2, f"distance {dist} out of range")
            for law in laws:
                checks.check_law(law)
            # one radius per operation, in turn, keeps the searches affordable
            check_ball_law(laws[i % len(laws)], mu, crng)
            if i % 8 == 0:
                expect(measure_distance(mu, mu, FLAG_RMAX) == 0, "d(mu, mu) != 0")

    return Workload([lambda c=c: op(c) for c in complexes[1:]], check)


# -- cli-spectra --------------------------------------------------------------

CLI_TORUS = 12
CLI_DEFECT_SIDE = 12
CLI_DEFECTS = 2
CLI_LM = (14, 0.3)     # Linial-Meshulam: vertices, triangle probability
CLI_LEVELS = (6, 8, 10)
CLI_ORDER = 4
CLI_RATE = 0.3         # rounds of nine commands per nominal second
STARTUP_SAMPLES = 5


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def prepare_cli(seed, seconds, workdir, tracer):
    rng = _rng(seed, 5)
    n, edges, tris = checks.torus(CLI_TORUS)
    perm = [int(v) for v in rng.permutation(n)]
    torus_plain = Plain(n, [(perm[a], perm[b]) for a, b in edges],
                        [tuple(perm[v] for v in t) for t in tris])
    torus_cx = SimplicialComplex.closure(torus_plain.triangles)
    full = torus_tower(2, CLI_DEFECT_SIDE)
    ftris = full.faces(2)
    drop = [ftris[i] for i in rng.choice(len(ftris), CLI_DEFECTS, replace=False)]
    defect_cx = _without(full, drop)
    lm_cx = linial_meshulam(2, CLI_LM[0], CLI_LM[1], int(rng.integers(1 << 31)))
    files = {}
    for name, cx, want in (("torus", torus_cx, (1, 2, 1)),
                           ("defect", defect_cx, (1, 1 + CLI_DEFECTS, 0)),
                           ("lm", lm_cx, None)):
        write_scx(cx, Path(workdir) / f"{name}.scx")
        plain = Plain(len(cx.faces(0)), cx.faces(1), cx.faces(2))
        files[name] = (plain, want or plain.bettis())

    env = child_env()
    dumps = []
    rounds = n_ops(CLI_RATE, seconds)

    def run(argv, out=None):
        if tracer is not None:
            dump = Path(workdir) / f"trace-{len(dumps)}.json"
            dumps.append(dump)
            cmd = [sys.executable, str(HERE / "tracecli.py"), str(dump)]
        else:
            cmd = [sys.executable, "-m", "l2limits.cli"]
        proc = subprocess.run(cmd + argv, cwd=workdir, env=env,
                              capture_output=True, text=True)
        record = {"argv": argv, "returncode": proc.returncode,
                  "stdout": proc.stdout, "stderr": proc.stderr, "out": out}
        checks.check_exit(record)
        return record

    ops = []
    for i in range(rounds):
        ops += [
            lambda: run(["betti", "torus.scx"]),
            lambda: run(["betti", "torus.scx", "--exact"]),
            lambda i=i: run(["spectrum", "torus.scx", "--p", "1", "--out",
                             f"torus-{i}.csv"], f"torus-{i}.csv"),
            lambda: run(["betti", "defect.scx"]),
            lambda: run(["betti", "defect.scx", "--exact"]),
            lambda i=i: run(["spectrum", "defect.scx", "--p", "1", "--out",
                             f"defect-{i}.csv"], f"defect-{i}.csv"),
            lambda: run(["betti", "lm.scx", "--exact"]),
            lambda i=i: run(["spectrum", "lm.scx", "--p", "1", "--out",
                             f"lm-{i}.csv"], f"lm-{i}.csv"),
            lambda i=i: run(["converge", "--family", "torus2d", "--levels",
                             ",".join(map(str, CLI_LEVELS)), "--p", "1",
                             "--moments", str(CLI_ORDER), "--eps", "0.5,0.1",
                             "--out", f"converge-{i}.csv"], f"converge-{i}.csv"),
        ]

    def read(record):
        return (Path(workdir) / record["out"]).read_text(encoding="utf-8")

    def check(outputs):
        kernel = {}
        for record in outputs:
            argv = record["argv"]
            if argv[0] == "betti":
                name = argv[1][:-4]
                plain, want = files[name]
                checks.check_betti(record, plain, want)
                kernel[name] = checks.parse_betti(record["stdout"])[1][1]
        for record in outputs:
            argv = record["argv"]
            if argv[0] == "spectrum":
                name = argv[1][:-4]
                expect(name in kernel, f"no betti output for {name}")
                checks.check_spectrum(record, read(record), files[name][0],
                                      kernel[name])
            elif argv[0] == "converge":
                checks.check_converge(record, read(record), CLI_LEVELS, CLI_ORDER)

    def finish(tracer):
        for dump in dumps:
            tracer.merge(json.loads(dump.read_text(encoding="utf-8")))
        times = []
        for _ in range(STARTUP_SAMPLES):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import l2limits.cli"],
                           env=env, check=True)
            times.append(time.perf_counter() - start)
        tracer.startup_ms = 1e3 * statistics.median(times)

    return Workload(ops, check, finish)


WORKLOADS = {
    "mc-percolated": prepare_mc,
    "tower-defect": prepare_tower,
    "ball-laws-flag": prepare_flag,
    "cli-spectra": prepare_cli,
}
