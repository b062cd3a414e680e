"""Output checks that rest on the benchmark's own computations.

Nothing here calls the code it checks to produce the expected value: the
Laplacians are assembled with numpy from plain edge and triangle lists, the
degree counts come from those lists, and the Betti numbers of the inputs are
known in closed form or come from numpy's SVD rank.  The exceptions are
isomorphism searches and relabelled canonical codes, which check the program
against itself through an independent route, and each map the search returns
is verified here simplex by simplex.
"""
from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import combinations

import numpy as np

REL_TOL = 1e-9


class CheckError(Exception):
    """An output of the program disagrees with the benchmark's expectation."""


def expect(cond, message):
    if not cond:
        raise CheckError(message)


def close(got, want, what):
    """Floats agree to REL_TOL relative (absolute near 0)."""
    got, want = float(got), float(want)
    expect(abs(got - want) <= REL_TOL * max(1.0, abs(want)),
           f"{what}: got {got!r}, expected {want!r}")


# -- plain complexes: vertex count, edge list, triangle list ------------------


class Plain:
    """A 2-complex as sorted edge and triangle lists, held apart from l2limits."""

    def __init__(self, n_vertices, edges, triangles):
        self.n_vertices = n_vertices
        self.edges = sorted(tuple(sorted(e)) for e in edges)
        self.triangles = sorted(tuple(sorted(t)) for t in triangles)
        self.adj = {v: set() for v in range(n_vertices)}
        for a, b in self.edges:
            self.adj[a].add(b)
            self.adj[b].add(a)
        self.cofaces = {e: 0 for e in self.edges}
        self.tris_at = {v: [] for v in range(n_vertices)}
        for t in self.triangles:
            for e in combinations(t, 2):
                self.cofaces[e] += 1
            self.tris_at[t[0]].append(t)

    def boundaries(self):
        """Dense d_1 (V x E) and d_2 (E x F) as float64."""
        eidx = {e: i for i, e in enumerate(self.edges)}
        d1 = np.zeros((self.n_vertices, len(self.edges)))
        for j, (a, b) in enumerate(self.edges):
            d1[a, j] = -1.0
            d1[b, j] = 1.0
        d2 = np.zeros((len(self.edges), len(self.triangles)))
        for j, (a, b, c) in enumerate(self.triangles):
            d2[eidx[(b, c)], j] = 1.0
            d2[eidx[(a, c)], j] = -1.0
            d2[eidx[(a, b)], j] = 1.0
        return d1, d2

    def laplacian1(self):
        d1, d2 = self.boundaries()
        return d1.T @ d1 + d2 @ d2.T

    def bettis(self):
        """(b_0, b_1, b_2) from numpy SVD ranks of the boundary matrices."""
        d1, d2 = self.boundaries()
        r1 = np.linalg.matrix_rank(d1) if self.edges else 0
        r2 = np.linalg.matrix_rank(d2) if self.triangles else 0
        return (self.n_vertices - r1, len(self.edges) - r1 - r2,
                len(self.triangles) - r2)

    def ball(self, root, radius):
        """Induced subcomplex on the vertices within ``radius`` of root."""
        dist = {root: 0}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if dist[u] == radius:
                continue
            for w in self.adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        keep = set(dist)
        relabel = {v: i for i, v in enumerate(sorted(keep))}
        edges = [(relabel[a], relabel[b]) for a in keep for b in self.adj[a]
                 if a < b and b in keep]
        tris = [tuple(relabel[v] for v in t) for a in keep for t in self.tris_at[a]
                if t[1] in keep and t[2] in keep]
        return Plain(len(keep), edges, tris), relabel[root]


def torus(n):
    """Diagonal triangulation of the n x n torus, vertex (i, j) -> i*n + j."""
    def vid(i, j):
        return (i % n) * n + (j % n)

    tris = []
    for i in range(n):
        for j in range(n):
            tris.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            tris.append((vid(i, j), vid(i, j + 1), vid(i + 1, j + 1)))
    edges = {e for t in tris for e in combinations(sorted(t), 2)}
    return n * n, sorted(edges), sorted(tuple(sorted(t)) for t in tris)


def root_moments(plain: Plain, root: int, order: int):
    """m_0..m_order of Delta_1 at ``root``: degree and coface counts for
    m_0 and m_1, diagonal entries of numpy matrix powers beyond."""
    root_edges = [(min(root, w), max(root, w)) for w in plain.adj[root]]
    m = [Fraction(len(root_edges), 2),
         Fraction(sum(2 + plain.cofaces[e] for e in root_edges), 2)]
    if order >= 2:
        ball, broot = plain.ball(root, order + 1)
        lap = ball.laplacian1()
        cols = [i for i, e in enumerate(ball.edges) if broot in e]
        vec = lap[:, cols]
        for _ in range(2, order + 1):
            vec = lap @ vec
            m.append(Fraction(int(round(vec[cols, range(len(cols))].sum())), 2))
    return m[:order + 1]


def trace_moments(plain: Plain, order: int):
    """tr(Delta_1^r)/|V| from the eigenvalues of the numpy Laplacian."""
    ev = np.linalg.eigvalsh(plain.laplacian1())
    return [float(np.sum(ev ** r)) / plain.n_vertices for r in range(order + 1)], ev


# -- per-workload checks --------------------------------------------------------


def check_mc(plain: Plain, mv, roots, p, order, memo):
    """A Monte Carlo moment vector is the mean (and standard error) of the
    exact local moments at the roots it drew."""
    expect(mv.p == p and len(mv.moments) == order + 1, f"shape of {mv!r}")
    expect(len(roots) >= 1, "no roots drawn")
    rows = []
    for v in roots:
        if v not in memo:
            memo[v] = root_moments(plain, v, order)
        rows.append(memo[v])
    n = len(roots)
    for r in range(order + 1):
        col = [float(row[r]) for row in rows]
        mean = math.fsum(col) / n
        close(mv.moments[r], mean, f"m_{r}")
        if n > 1:
            err = math.sqrt(math.fsum((x - mean) ** 2 for x in col) / (n - 1) / n)
            close(mv.stderrs[r], err, f"stderr of m_{r}")


def check_tower(levels, report, order, eps_list):
    """A p=1 ``ConvergenceReport``; ``levels``: (Plain, triangles removed)
    per level of the tower."""
    expect(report.p == 1 and len(report.rows) == len(levels), "report shape")
    for (plain, k), row in zip(levels, report.rows):
        V, E, F = plain.n_vertices, len(plain.edges), len(plain.triangles)
        expect(plain.bettis() == (1, 1 + k, 0), "input is not a defect torus")
        expect(row["n_vertices"] == V, "vertex count")
        expect(row["b_p"] == 1 + k, f"b_1 = {row['b_p']}, expected {1 + k}")
        expect(row["b_p_normalized"] == Fraction(1 + k, V), "b_1/|V|")
        mom = row["moments"]
        expect(len(mom) == order + 1, "moment count")
        expect(mom[0] == 3, f"m_0 = {mom[0]}, expected 3")
        expect(mom[1] == Fraction(2 * E + 3 * F, V), f"m_1 = {mom[1]}")
        traces, ev = trace_moments(plain, order)
        for r in range(order + 1):
            close(mom[r], traces[r], f"m_{r} against the trace identity")
        for eps in eps_list:
            want = Fraction(int(np.sum(np.abs(ev) < eps)), V)
            expect(row["nu"][eps] == want, f"nu(-{eps},{eps}) = {row['nu'][eps]}")
    expect(report.distances_to_last[-1] == 0, "last level is not at distance 0")


def verify_isomorphism(vmap, a, b):
    """``vmap`` is a root-preserving simplicial bijection from a onto b."""
    expect(vmap is not None, "no rooted isomorphism between code and ball")
    expect(vmap.get(a.root) == b.root, "map does not fix the root")
    expect(sorted(vmap) == sorted(a.complex.vertices)
           and sorted(vmap.values()) == sorted(b.complex.vertices),
           "map is not a vertex bijection")
    image = {tuple(sorted(vmap[v] for v in s)) for s in a.complex.simplices}
    expect(image == set(b.complex.simplices), "map does not carry simplices")


def check_law(law):
    expect(sum(law.values(), Fraction(0)) == 1, "ball law weights do not sum to 1")
    expect(all(w > 0 for w in law.values()), "nonpositive ball law weight")


# -- CLI outputs ------------------------------------------------------------------


def check_exit(run):
    expect(run["returncode"] == 0,
           f"{' '.join(run['argv'])} exited {run['returncode']}: "
           f"{run['stderr'].strip()[-300:]}")


def parse_betti(stdout):
    """{p: (b_p, b_p/|V|)} from ``l2limits betti`` output."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("p="):
            fields = dict(tok.split("=", 1) for tok in line.split())
            out[int(fields["p"])] = (int(fields["b"]), Fraction(fields["norm"]))
    return out


def check_betti(run, plain: Plain, want):
    check_exit(run)
    got = parse_betti(run["stdout"])
    expect([got[p][0] for p in sorted(got)] == list(want),
           f"betti of {run['argv'][-1]}: {got}, expected {want}")
    for p, (b, norm) in got.items():
        expect(norm == Fraction(b, plain.n_vertices), f"b_{p}/|V| = {norm}")
    if "--exact" in run["argv"]:
        expect("cross-check: eigensolver kernel mass matches exact rank"
               in run["stdout"], "missing exact cross-check line")


def check_spectrum(run, csv_text, plain: Plain, kernel_norm):
    check_exit(run)
    lines = csv_text.strip().splitlines()
    expect(lines and lines[0] == "eigenvalue,weight", "spectrum CSV header")
    atoms = [(float(a), Fraction(w)) for a, w in
             (line.split(",") for line in lines[1:])]
    V, E, F = plain.n_vertices, len(plain.edges), len(plain.triangles)
    expect(sum(w for _, w in atoms) == Fraction(E, V), "spectrum weights != |K(1)|/|V|")
    close(math.fsum(a * float(w) * V for a, w in atoms), 2 * E + 3 * F,
          "sum of eigenvalue * weight * |V|")
    kernel = sum((w for a, w in atoms if a == 0.0), Fraction(0))
    expect(kernel == kernel_norm, f"kernel weight {kernel} != betti {kernel_norm}")


def check_converge(run, csv_text, levels, order):
    """Rows of a ``converge --family torus2d`` CSV against numpy traces."""
    check_exit(run)
    rows = [line.split(",") for line in csv_text.splitlines()
            if line and not line.startswith("#")]
    header, rows = rows[0], rows[1:]
    expect(len(rows) == len(levels), "one CSV row per level")
    first = header.index("m0")
    for n, row in zip(levels, rows):
        plain = Plain(*torus(n))
        traces, _ = trace_moments(plain, order)
        expect(int(row[0]) == n and int(row[3]) == 2, f"level {n}: {row[:5]}")
        for r in range(order + 1):
            close(Fraction(row[first + r]), traces[r], f"level {n} m{r}")
