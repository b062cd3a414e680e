"""Command-line interface.

Exit codes are declared on the error classes; the table is in
:mod:`l2limits.errors`.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction

# module objects, so a command runs only the modules it calls; main's
# except clauses need the error classes themselves
from . import (complexes, encoding, estimators, formats, generators, measures,
               spectral)
from .errors import L2LimitsError, MalformedInputError, ValidationError

__all__ = ["main", "build_parser"]

# the tower families of generate and converge --family: a builder of level n
_TOWERS = {"torus2d": lambda n: generators.torus_tower(2, n),
           "torus1d": lambda n: generators.torus_tower(1, n)}


class _Parser(argparse.ArgumentParser):
    # spec'd exit codes reserve 2 for parse failures; usage errors exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _rooted(path, root=None):
    """The complex in ``path`` rooted at ``root``, or else at its root directive."""
    cx, file_root = formats.read_scx(path)
    root = file_root if root is None else root
    if root is None:
        raise MalformedInputError(f"{path}: no root given and no root directive")
    return complexes.rooted_at(cx, root)


def _vertex_arg(token: str) -> int:
    """``--root``: an `.scx` vertex id (:func:`formats._vertex_id`), else a
    usage error."""
    root = formats._vertex_id(token)
    if root is None:
        raise argparse.ArgumentTypeError(f"not a vertex id: {token!r}")
    return root


def _rooted_from_arg(arg: str):
    """'file.scx:ROOT' with ROOT an `.scx` vertex id, or a file with a root directive."""
    path, _, suffix = arg.rpartition(":")
    root = formats._vertex_id(suffix) if path else None
    return _rooted(arg) if root is None else _rooted(path, root)


def _cmd_validate(args):
    cx, root = formats.read_scx(args.file)
    print(f"simplices: {len(cx)}")
    print(f"f_vector: {cx.f_vector()}")
    print(f"dim: {cx.dim}")
    print(f"connected: {'yes' if cx.is_connected() else 'no'}")
    print(f"components: {len(cx.components())}")
    if root is not None:
        print(f"root: {root}")
    print("valid")


def _cmd_betti(args):
    cx, _ = formats.read_scx(args.file)
    if not cx.vertices:
        print("empty complex")
        return
    ps = [args.p] if args.p is not None else range(cx.dim + 1)
    if args.exact:
        bettis = {p: measure.kernel_dim
                  for p, (measure, _) in spectral._spectra(cx, ps, 0).items()}
    else:
        bettis = spectral._chain_numbers(cx, ps)[0]
    for p, b in bettis.items():
        norm = Fraction(b, len(cx.faces(0)))
        print(f"p={p} b={b} norm={norm}")
    if args.exact:
        print("cross-check: eigensolver kernel mass matches exact rank")


def _cmd_spectrum(args):
    cx, _ = formats.read_scx(args.file)
    measure = spectral.spectral_measure(cx, args.p)
    degree = cx.max_degree()
    print(f"nu({{0}}) = {measure.mass_at_zero()}")
    print(f"nu(R) = {measure.total_mass()}")
    print(f"spectral radius = {measure.spectral_radius()!r}")
    print(f"a priori bound at D={degree} = "
          f"{spectral._radius_bound(args.p, degree)}")
    spectral.write_spectrum_csv(measure, args.out or sys.stdout)
    if args.out:
        print(f"wrote {args.out}")


def _cmd_canon(args):
    code = encoding.canonical_code(_rooted(args.file, args.root))
    print("code:", " ".join(str(i) for i in code.indices))
    decoded = code.decode()
    print("minimal representative (root 0):")
    formats.write_scx(decoded.complex, sys.stdout, decoded.root)


def _cmd_bs_distance(args):
    a = _rooted_from_arg(args.a)
    b = _rooted_from_arg(args.b)
    print(encoding.bs_distance(a, b, args.rmax))


def _cmd_measure_distance(args):
    m1 = formats.load_measure(args.m1)
    m2 = formats.load_measure(args.m2)
    print(measures.measure_distance(m1, m2, args.rmax))


def _cmd_mass_transport(args):
    mu = formats.load_measure(args.measure)
    all_pass = True
    for name, fn in measures.standard_battery():
        lhs, rhs, passed = measures.mass_transport_check(mu, fn)
        all_pass = all_pass and passed
        print(f"{name:28s} lhs={lhs} rhs={rhs} {'pass' if passed else 'FAIL'}")
    print(f"unimodular on battery: {'yes' if all_pass else 'no'}")


def _cmd_truncate(args):
    cx, root = formats.read_scx(args.file)
    out = measures.degree_truncate(cx, args.degree)
    formats.write_scx(out, sys.stdout, root)


def _fixture(args):
    corpus = generators.fixtures()
    if args.name not in corpus:
        raise ValidationError(
            f"unknown fixture {args.name!r}; choices: {', '.join(sorted(corpus))}")
    return corpus[args.name]


def _cmd_generate(args):
    formats.write_scx(args.build(args), args.out or sys.stdout)
    if args.out:
        print(f"wrote {args.out}")


def _cmd_converge(args):
    try:
        levels = [int(tok) for tok in args.levels.split(",") if tok]
        eps_list = [float(tok) for tok in args.eps.split(",") if tok]
    except ValueError:
        raise MalformedInputError("levels and eps must be comma-separated numbers")
    if not levels:
        raise MalformedInputError("need at least one level")
    report = estimators.convergence_experiment(
        [_TOWERS[args.family](n) for n in levels], args.p, args.moments,
        eps_list, rmax=args.rmax, labels=levels, degree_bound=args.degree_bound)
    report.write_csv(args.out)
    for line in report.summary_lines():
        print(line)
    print(f"wrote {args.out}")


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
    p.add_argument("--root", type=_vertex_arg, default=None)
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
    for family, build in _TOWERS.items():
        g = gen.add_parser(family)
        g.add_argument("--n", type=int, required=True)
        g.set_defaults(build=lambda a, build=build: build(a.n))
    sampled = argparse.ArgumentParser(add_help=False)
    sampled.add_argument("--n", type=int, required=True)
    sampled.add_argument("--prob", type=float, required=True)
    sampled.add_argument("--seed", type=int, default=0)
    g = gen.add_parser("lm", parents=[sampled])
    g.add_argument("--d", type=int, default=2)
    g.set_defaults(build=lambda a: generators.linial_meshulam(a.d, a.n, a.prob, a.seed))
    g = gen.add_parser("flag", parents=[sampled])
    g.add_argument("--maxdim", type=int, default=2)
    g.set_defaults(build=lambda a: generators.random_flag(a.n, a.prob, a.maxdim, a.seed))
    g = gen.add_parser("fixture")
    g.add_argument("name")
    g.set_defaults(build=_fixture)
    for g_parser in gen.choices.values():
        g_parser.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("converge", help="statistics along a tower of complexes")
    p.add_argument("--family", choices=list(_TOWERS), required=True)
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
        args.fn(args)
        return 0
    except (L2LimitsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, L2LimitsError) else 2


if __name__ == "__main__":
    sys.exit(main())
