"""Command-line interface.

Exit codes are declared on the error classes; the table is in
:mod:`l2limits.errors`.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .complexes import rooted_at
from .encoding import bs_distance, canonical_code
from .errors import L2LimitsError, MalformedInputError, ValidationError
from .estimators import convergence_experiment
from .formats import load_measure, read_scx, scx_text, write_scx
from .generators import fixtures, linial_meshulam, random_flag, torus_tower
from .measures import (degree_truncate, mass_transport_check,
                       measure_distance, standard_battery)
from .spectral import (_betti_numbers, _boundary_ranks, _nonzero_spectrum,
                       _radius_bound, spectral_measure, write_spectrum_csv)

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    # spec'd exit codes reserve 2 for parse failures; usage errors exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _rooted_from_arg(arg: str):
    """Parse 'file.scx:root'; fall back to the file's root directive."""
    path, sep, root_part = arg.rpartition(":")
    if sep and root_part.isdigit():
        cx, _ = read_scx(path)
        root = int(root_part)
    else:
        cx, root = read_scx(arg)
        if root is None:
            raise MalformedInputError(
                f"{arg}: no root given (use file.scx:ROOT or a root directive)")
    return rooted_at(cx, root)


def _cmd_validate(args):
    cx, root = read_scx(args.file)
    fvec = cx.f_vector()
    print(f"simplices: {len(cx)}")
    print(f"f_vector: {fvec if fvec else '()'}")
    print(f"dim: {cx.dim}")
    print(f"connected: {'yes' if cx.is_connected() else 'no'}")
    print(f"components: {len(cx.components())}")
    if root is not None:
        if not cx.has_vertex(root):
            raise ValidationError(f"root {root} is not a vertex")
        print(f"root: {root}")
    print("valid")
    return 0


def _cmd_betti(args):
    cx, _ = read_scx(args.file)
    if not cx.vertices:
        print("empty complex")
        return 0
    ps = [args.p] if args.p is not None else range(cx.dim + 1)
    ranks = _boundary_ranks(cx, ps)
    for p, b in _betti_numbers(cx, ps, ranks).items():
        norm = Fraction(b, len(cx.faces(0)))
        print(f"p={p} b={b} norm={norm}")
    if args.exact:
        # the Gram piece of d_q serves Delta_{q-1} and Delta_q, so each is
        # solved once; each raises CrossCheckError unless its zero cluster
        # is its order minus rank d_q, which makes b_p the kernel of Delta_p
        for q, rank in ranks.items():
            _nonzero_spectrum(cx, q, rank)
        print("cross-check: eigensolver kernel mass matches exact rank")
    return 0


def _cmd_spectrum(args):
    cx, _ = read_scx(args.file)
    measure = spectral_measure(cx, args.p)
    degree = cx.max_degree()
    print(f"nu({{0}}) = {measure.mass_at_zero()}")
    print(f"nu(R) = {measure.total_mass()}")
    print(f"spectral radius = {measure.spectral_radius()!r}")
    print(f"a priori bound max(0,(p+1)(D-p+1))+max(0,(p+2)(D-p)) = "
          f"{_radius_bound(args.p, degree)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_spectrum_csv(measure, fh)
        print(f"wrote {args.out}")
    else:
        print("atoms (eigenvalue,weight):")
        for value, weight in measure.atoms():
            print(f"{value!r},{weight}")
    return 0


def _cmd_canon(args):
    cx, file_root = read_scx(args.file)
    root = args.root if args.root is not None else file_root
    if root is None:
        raise MalformedInputError("no root given (--root or a root directive)")
    code = canonical_code(rooted_at(cx, root))
    print("code:", " ".join(str(i) for i in code.indices))
    decoded = code.decode()
    print("minimal representative (root 0):")
    sys.stdout.write(scx_text(decoded.complex, decoded.root))
    return 0


def _cmd_bs_distance(args):
    a = _rooted_from_arg(args.a)
    b = _rooted_from_arg(args.b)
    print(bs_distance(a, b, args.rmax))
    return 0


def _cmd_measure_distance(args):
    m1 = load_measure(args.m1)
    m2 = load_measure(args.m2)
    print(measure_distance(m1, m2, args.rmax))
    return 0


def _cmd_mass_transport(args):
    mu = load_measure(args.measure)
    all_pass = True
    for name, fn in standard_battery():
        lhs, rhs, passed = mass_transport_check(mu, fn)
        all_pass = all_pass and passed
        print(f"{name:28s} lhs={lhs} rhs={rhs} {'pass' if passed else 'FAIL'}")
    print(f"unimodular on battery: {'yes' if all_pass else 'no'}")
    return 0


def _cmd_truncate(args):
    cx, root = read_scx(args.file)
    out = degree_truncate(cx, args.degree)
    sys.stdout.write(scx_text(out, root))
    return 0


def _cmd_generate(args):
    if args.family == "torus2d":
        cx = torus_tower(2, args.n)
    elif args.family == "torus1d":
        cx = torus_tower(1, args.n)
    elif args.family == "lm":
        cx = linial_meshulam(args.d, args.n, args.prob, args.seed)
    elif args.family == "flag":
        cx = random_flag(args.n, args.prob, args.maxdim, args.seed)
    else:
        corpus = fixtures()
        if args.name not in corpus:
            raise ValidationError(
                f"unknown fixture {args.name!r}; choices: {', '.join(sorted(corpus))}")
        cx = corpus[args.name]
    if args.out:
        write_scx(cx, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(scx_text(cx))
    return 0


def _cmd_converge(args):
    try:
        levels = [int(tok) for tok in args.levels.split(",") if tok]
        eps_list = [float(tok) for tok in args.eps.split(",") if tok]
    except ValueError:
        raise MalformedInputError("levels and eps must be comma-separated numbers")
    if not levels:
        raise MalformedInputError("need at least one level")
    d = 2 if args.family == "torus2d" else 1
    sequence = [torus_tower(d, n) for n in levels]
    report = convergence_experiment(
        sequence, args.p, args.moments, eps_list, rmax=args.rmax,
        labels=levels, degree_bound=args.degree_bound)
    report.write_csv(args.out)
    for line in report.summary_lines():
        print(line)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="l2limits",
                     description="Spectral and local statistics of finite "
                                 "simplicial complexes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an .scx file and report its shape")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("betti", help="Betti numbers by exact rational rank")
    p.add_argument("file")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--exact", action="store_true",
                   help="cross-check against the eigensolver kernel")
    p.set_defaults(fn=_cmd_betti)

    p = sub.add_parser("spectrum", help="spectral measure of the p-Laplacian")
    p.add_argument("file")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--out", default=None, help="write atoms to a CSV file")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("canon", help="canonical code of a rooted complex")
    p.add_argument("file")
    p.add_argument("--root", type=int, default=None)
    p.set_defaults(fn=_cmd_canon)

    p = sub.add_parser("bs-distance",
                       help="rooted distance between two complexes")
    p.add_argument("a", metavar="a.scx:ROOT")
    p.add_argument("b", metavar="b.scx:ROOT")
    p.add_argument("--rmax", type=int, default=None,
                   help="compare balls only up to this radius")
    p.set_defaults(fn=_cmd_bs_distance)

    p = sub.add_parser("measure-distance",
                       help="weighted TV distance between two measure files")
    p.add_argument("m1")
    p.add_argument("m2")
    p.add_argument("--rmax", type=int, required=True)
    p.set_defaults(fn=_cmd_measure_distance)

    p = sub.add_parser("mass-transport",
                       help="unimodularity check over the built-in battery")
    p.add_argument("measure")
    p.set_defaults(fn=_cmd_mass_transport)

    p = sub.add_parser("truncate", help="cap vertex degrees by edge removal")
    p.add_argument("file")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(fn=_cmd_truncate)

    p = sub.add_parser("generate", help="write a generated complex as .scx")
    gen = p.add_subparsers(dest="family", required=True)
    g = gen.add_parser("torus2d")
    g.add_argument("--n", type=int, required=True)
    g = gen.add_parser("torus1d")
    g.add_argument("--n", type=int, required=True)
    g = gen.add_parser("lm")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--prob", type=float, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--d", type=int, default=2)
    g = gen.add_parser("flag")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--prob", type=float, required=True)
    g.add_argument("--maxdim", type=int, default=2)
    g.add_argument("--seed", type=int, default=0)
    g = gen.add_parser("fixture")
    g.add_argument("name")
    for g_parser in gen.choices.values():
        g_parser.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("converge", help="statistics along a tower of complexes")
    p.add_argument("--family", choices=["torus2d", "torus1d"], required=True)
    p.add_argument("--levels", required=True, help="comma-separated sizes")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--moments", type=int, default=4)
    p.add_argument("--eps", default="0.1", help="comma-separated eps values")
    p.add_argument("--rmax", type=int, default=2)
    p.add_argument("--degree-bound", type=int, default=None,
                   help="enforce this uniform degree bound on every level")
    p.add_argument("--out", default="experiment.csv")
    p.set_defaults(fn=_cmd_converge)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except L2LimitsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
