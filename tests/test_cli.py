import argparse
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import l2limits
from l2limits.cli import build_parser, main
from l2limits.complexes import SimplicialComplex
from l2limits.errors import CrossCheckError, L2LimitsError
from l2limits.formats import read_scx, save_measure, write_scx
from l2limits.generators import (fixtures, linial_meshulam, random_flag,
                                 torus_tower)
from l2limits.measures import uniform_rooting


@pytest.fixture
def scx(tmp_path):
    def write(name, cx, root=None):
        path = tmp_path / name
        write_scx(cx, path, root=root)
        return str(path)
    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate(scx, capsys):
    path = scx("path3.scx", fixtures()["path3"], root=1)
    code, out, _ = run(capsys, ["validate", path])
    assert code == 0
    lines = out.splitlines()
    assert "f_vector: (3, 2)" in lines
    assert "connected: yes" in lines
    assert "root: 1" in lines
    assert lines[-1] == "valid"


def test_validate_error_exit_codes(scx, capsys, tmp_path):
    code, _, err = run(capsys, ["validate", str(tmp_path / "missing.scx")])
    assert code == 2 and "error:" in err
    bad = tmp_path / "bad.scx"
    bad.write_text("0 zero\n")
    code, _, err = run(capsys, ["validate", str(bad)])
    assert code == 2
    rootless = tmp_path / "badroot.scx"
    rootless.write_text("root 9\n0 1\n")
    code, out, err = run(capsys, ["validate", str(rootless)])
    # the reader refuses the file before any line of the report
    assert code == 3 and out == ""
    assert "line 1: root 9 is not a vertex" in err


def test_usage_errors_exit_1(capsys):
    for argv in ([], ["betti"], ["no-such-command"], ["spectrum", "x.scx"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1 or exc.value.code == 2  # argparse usage
        capsys.readouterr()


def test_betti(scx, capsys):
    path = scx("tri.scx", fixtures()["filled_triangle"])
    code, out, _ = run(capsys, ["betti", path])
    assert code == 0
    assert out.splitlines() == ["p=0 b=1 norm=1/3", "p=1 b=0 norm=0",
                                "p=2 b=0 norm=0"]
    code, out, _ = run(capsys, ["betti", path, "--p", "0", "--exact"])
    assert code == 0
    assert out.splitlines() == [
        "p=0 b=1 norm=1/3",
        "cross-check: eigensolver kernel mass matches exact rank"]


def test_betti_cross_check_failure_exits_5(scx, capsys, monkeypatch):
    import l2limits.spectral as spectral_mod

    def boom(cx, p):
        raise CrossCheckError("fabricated disagreement")

    monkeypatch.setattr(spectral_mod, "boundary_rank", boom)
    path = scx("tri.scx", fixtures()["filled_triangle"])
    code, _, err = run(capsys, ["betti", path])
    assert code == 5
    assert "fabricated disagreement" in err


def test_betti_exact_computes_each_rank_once(scx, capsys, monkeypatch):
    import l2limits.spectral as spectral_mod

    calls = []
    rank = spectral_mod.boundary_rank

    def counted(cx, q):
        calls.append(q)
        return rank(cx, q)

    monkeypatch.setattr(spectral_mod, "boundary_rank", counted)
    cx = fixtures()["octahedron"]
    assert cx.dim == 2
    path = scx("octa.scx", cx)
    code, out, _ = run(capsys, ["betti", path, "--exact"])
    assert code == 0
    assert out.splitlines()[:3] == ["p=0 b=1 norm=1/6", "p=1 b=0 norm=0",
                                    "p=2 b=1 norm=1/6"]
    assert sorted(calls) == [0, 1, 2, 3]


def test_betti_exact_solves_each_piece_once(scx, capsys, monkeypatch):
    # the piece of d_q serves Delta_{q-1} and Delta_q: the octahedron's
    # nonempty pieces are those of d_1 and d_2 (d_0 and d_3 are 0x0)
    import numpy as np

    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        solved.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    path = scx("octa.scx", fixtures()["octahedron"])
    code, out, _ = run(capsys, ["betti", path, "--exact"])
    assert code == 0
    assert out.splitlines()[-1].startswith("cross-check:")
    assert sorted(n for n in solved if n) == [6, 8]


def test_betti_exact_refuses_a_piece_past_the_cap_before_any_rank(
        scx, capsys, monkeypatch):
    # the side-6 torus has pieces of 0, 36, 72 and 0 rows (d_0 to d_3)
    import l2limits.spectral as spectral_mod

    calls = []
    rank = spectral_mod.boundary_rank
    monkeypatch.setattr(spectral_mod, "boundary_rank",
                        lambda cx, q: calls.append(q) or rank(cx, q))
    monkeypatch.setattr(spectral_mod, "DENSE_EIGENSOLVE_CAP", 40)
    path = scx("torus6.scx", torus_tower(2, 6))
    code, out, err = run(capsys, ["betti", path, "--exact"])
    assert code == 3 and out == ""
    assert "Gram piece of d_2 has 72 rows" in err
    assert calls == []


def test_betti_exact_failed_cross_check_prints_no_betti_number(
        scx, capsys, monkeypatch):
    # a zero tolerance of 2 swallows genuine eigenvalues of the 5-cycle
    import l2limits.spectral as spectral_mod

    monkeypatch.setattr(spectral_mod, "ZERO_TOL", 2.0)
    path = scx("cycle5.scx", fixtures()["cycle5"])
    code, out, err = run(capsys, ["betti", path, "--exact"])
    assert code == 5 and out == ""
    assert "eigensolver zero count" in err


def test_bare_package_error_exits_3(capsys, monkeypatch):
    import l2limits.cli as cli_mod

    def boom(args):
        raise L2LimitsError("fabricated package error")

    monkeypatch.setattr(cli_mod, "_cmd_validate", boom)
    code, out, err = run(capsys, ["validate", "any.scx"])
    assert code == 3
    assert out == ""
    assert err == "error: fabricated package error\n"  # one line, no traceback


def test_spectrum(scx, capsys, tmp_path):
    path = scx("tri.scx", fixtures()["filled_triangle"])
    code, out, _ = run(capsys, ["spectrum", path, "--p", "0"])
    assert code == 0
    assert "nu({0}) = 1/3" in out
    assert "nu(R) = 1" in out
    assert "0.0,1/3" in out
    csv_path = tmp_path / "atoms.csv"
    code, out_with_file, _ = run(capsys, ["spectrum", path, "--p", "0",
                                          "--out", str(csv_path)])
    assert code == 0
    table = csv_path.read_text()
    assert table.startswith("eigenvalue,weight\n0.0,1/3\n")
    # stdout carries the same table that --out writes, after the summary
    summary = out_with_file.removesuffix(f"wrote {csv_path}\n")
    assert out == summary + table


def test_spectrum_negative_degree_exits_3(scx, capsys):
    path = scx("tri.scx", fixtures()["filled_triangle"])
    code, out, err = run(capsys, ["spectrum", path, "--p", "-1"])
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_canon(scx, capsys):
    path = scx("path3.scx", fixtures()["path3"])
    code, out, _ = run(capsys, ["canon", path, "--root", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "code: 0 1 2 3 4"
    assert lines[1] == "minimal representative (root 0):"
    assert set(lines[2:]) == {"root 0", "0 1", "0 2"}
    code, out, err = run(capsys, ["canon", path])
    assert code == 2  # no root anywhere
    assert err == f"error: {path}: no root given and no root directive\n"
    code, out, err = run(capsys, ["canon", path, "--root", "-1"])
    assert (code, out, err) == (3, "", "error: root -1 is not a vertex\n")
    rooted = scx("rooted.scx", fixtures()["path3"], root=0)
    code, out, _ = run(capsys, ["canon", rooted])
    assert code == 0
    assert out.splitlines()[0] == "code: 0 1 2 3 5"


def test_canon_root_follows_the_scx_id_rule(scx, capsys):
    # --root is read as an .scx line reads an id: int() would also take
    # "1_0", "+10", other scripts' digits and padding as vertex 10
    path = scx("path12.scx", SimplicialComplex.closure(
        [(v, v + 1) for v in range(11)]))
    code, want, _ = run(capsys, ["canon", path, "--root", "10"])
    assert code == 0 and want.startswith("code: ")
    for token in ("1_0", "+10", "\u0661\u0660", " 10", "abc", "", "-0"):
        # a usage error ends in argparse's SystemExit, exit 1
        with pytest.raises(SystemExit) as exc:
            main(["canon", path, "--root", token])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (1, ""), token
        assert "argument --root: not a vertex id" in err, token
    for token in ("-1", "12"):
        code, out, err = run(capsys, ["canon", path, "--root", token])
        assert (code, out, err) == (3, "", f"error: root {token} is not a vertex\n")


def test_bs_distance(scx, capsys):
    c5 = scx("c5.scx", fixtures()["cycle5"])
    c6 = scx("c6.scx", fixtures()["cycle6"], root=0)
    code, out, _ = run(capsys, ["bs-distance", f"{c5}:0", c6])
    assert code == 0 and out.strip() == "1/2"
    code, out, _ = run(capsys, ["bs-distance", f"{c5}:0", f"{c5}:2"])
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, ["bs-distance", f"{c5}:0", c6, "--rmax", "1"])
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, ["bs-distance", f"{c5}:0", c6, "--rmax", "5"])
    assert code == 0 and out.strip() == "1/2"
    code, _, err = run(capsys, ["bs-distance", c5, c6])
    assert code == 2  # first file has no root directive
    assert err == f"error: {c5}: no root given and no root directive\n"
    # any integer suffix is a root, and meets the rule a --root meets
    code, out, err = run(capsys, ["bs-distance", f"{c5}:-1", f"{c5}:0"])
    assert (code, out, err) == (3, "", "error: root -1 is not a vertex\n")
    # a suffix that is no integer is part of the file name
    odd = scx("odd:name.scx", fixtures()["cycle5"], root=2)
    code, out, _ = run(capsys, ["bs-distance", odd, f"{c5}:0"])
    assert code == 0 and out.strip() == "0"
    code, _, err = run(capsys, ["bs-distance", f"{c5}:²", f"{c5}:0"])
    assert code == 2 and "No such file" in err  # a digit int() does not read


def test_scx_vertex_ids_are_ascii_digits(scx, tmp_path, capsys):
    # int() also reads "1_0" as 10, "+3" as 3, "-0" as 0 and other scripts'
    # digits; an id is ASCII digits after an optional "-" that makes it
    # negative, in a simplex line, a root directive and a suffix
    path = tmp_path / "bad.scx"
    for text, line in (("1_0 2\n", 1), ("0 1\n\u0663 4\n", 2), ("+3 4\n", 1),
                       ("0 1\nroot 1_0\n", 2), ("-0 1 2\n", 1),
                       ("0 1 2\nroot -0\n", 2)):
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, ["validate", str(path)])
        assert (code, out) == (2, "") and err.startswith(f"error: line {line}: ")
    c5 = scx("c5.scx", fixtures()["cycle5"])
    for suffix in ("\u0663", "-0"):  # a name, not root 3 or 0
        code, _, err = run(capsys, ["bs-distance", f"{c5}:{suffix}", f"{c5}:0"])
        assert code == 2 and "No such file" in err


def test_measure_distance(tmp_path, capsys):
    m5 = tmp_path / "c5.json"
    m6 = tmp_path / "c6.json"
    save_measure(uniform_rooting(fixtures()["cycle5"]), m5)
    save_measure(uniform_rooting(fixtures()["cycle6"]), m6)
    code, out, _ = run(capsys, ["measure-distance", str(m5), str(m6),
                                "--rmax", "2"])
    assert code == 0 and out.strip() == "1/4"
    code, out, _ = run(capsys, ["measure-distance", str(m5), str(m5),
                                "--rmax", "3"])
    assert code == 0 and out.strip() == "0"


def test_mass_transport(tmp_path, capsys):
    good = tmp_path / "uniform.json"
    save_measure(uniform_rooting(fixtures()["path3"]), good)
    code, out, _ = run(capsys, ["mass-transport", str(good)])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 13
    assert all(line.endswith("pass") for line in lines[:-1])
    assert lines[-1] == "unimodular on battery: yes"
    skewed = tmp_path / "skewed.json"
    skewed.write_text(json.dumps({"support": [
        {"weight": "1", "maximal_simplices": [[0, 1], [1, 2]], "root": 0}]}))
    code, out, _ = run(capsys, ["mass-transport", str(skewed)])
    assert code == 0
    lines = out.splitlines()
    assert any("FAIL" in line for line in lines)
    assert lines[-1] == "unimodular on battery: no"


def test_mass_transport_fails_a_tiny_skew(tmp_path, capsys):
    # path3's uniform rooting with 1e-12 moved from the center to an end
    skewed = tmp_path / "skewed.json"
    skewed.write_text(json.dumps({"support": [
        {"weight": "2000000000003/3000000000000",
         "maximal_simplices": [[0, 1], [1, 2]], "root": 0},
        {"weight": "999999999997/3000000000000",
         "maximal_simplices": [[0, 1], [1, 2]], "root": 1}]}))
    code, out, _ = run(capsys, ["mass-transport", str(skewed)])
    assert code == 0
    lines = out.splitlines()
    assert ("adjacency_times_far_degree   lhs=2 "
            "rhs=1999999999997/1000000000000 FAIL") in lines
    assert lines[-1] == "unimodular on battery: no"


def test_truncate(scx, capsys):
    path = scx("star.scx", fixtures()["star5"], root=0)
    code, out, _ = run(capsys, ["truncate", path, "--degree", "3"])
    assert code == 0
    assert out == "root 0\n0 3\n0 4\n0 5\n1\n2\n"


def test_generate(tmp_path, capsys):
    code, out, _ = run(capsys, ["generate", "fixture", "book"])
    assert code == 0 and out == "0 1 2\n0 1 3\n"
    for name, cx in fixtures().items():
        want = io.StringIO()
        write_scx(cx, want)
        code, out, _ = run(capsys, ["generate", "fixture", name])
        assert code == 0 and out == want.getvalue(), name
    target = tmp_path / "torus.scx"
    code, out, _ = run(capsys, ["generate", "torus2d", "--n", "4",
                                "--out", str(target)])
    assert code == 0 and f"wrote {target}" in out
    code, out, _ = run(capsys, ["validate", str(target)])
    assert code == 0 and "f_vector: (16, 48, 32)" in out
    code, _, err = run(capsys, ["generate", "fixture", "nonesuch"])
    assert code == 3


# one row per generate family: its arguments, and its generator called
# directly with the same values
_GENERATE = [
    (["torus1d", "--n", "5"], lambda: torus_tower(1, 5)),
    (["torus2d", "--n", "4"], lambda: torus_tower(2, 4)),
    (["lm", "--n", "7", "--prob", "0.4", "--seed", "2"],
     lambda: linial_meshulam(2, 7, 0.4, 2)),
    (["lm", "--n", "7", "--prob", "0.4", "--seed", "2", "--d", "3"],
     lambda: linial_meshulam(3, 7, 0.4, 2)),
    (["flag", "--n", "8", "--prob", "0.5", "--maxdim", "3", "--seed", "3"],
     lambda: random_flag(8, 0.5, 3, 3)),
    (["fixture", "octahedron"], lambda: fixtures()["octahedron"]),
]


@pytest.mark.parametrize("argv, build", _GENERATE)
def test_each_generate_family_writes_its_generator(capsys, argv, build):
    want = io.StringIO()
    write_scx(build(), want)
    assert run(capsys, ["generate", *argv]) == (0, want.getvalue(), "")


def test_generate_towers_are_converge_families():
    def subcommands(parser):
        return next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))

    commands = subcommands(build_parser())
    families = next(action.choices for action in commands["converge"]._actions
                    if action.dest == "family")
    generate = subcommands(commands["generate"])
    assert {argv[0] for argv, _ in _GENERATE} == set(generate)
    towers = [name for name in generate if name not in ("lm", "flag", "fixture")]
    assert towers == list(families) == ["torus2d", "torus1d"]


def test_converge(tmp_path, capsys):
    target = tmp_path / "exp.csv"
    code, out, _ = run(capsys, [
        "converge", "--family", "torus2d", "--levels", "4,6", "--p", "1",
        "--moments", "2", "--eps", "0.5", "--out", str(target)])
    assert code == 0
    assert "n=4 |V|=16 b_1=2 normalized=1/8" in out
    assert f"wrote {target}" in out
    lines = target.read_text().splitlines()
    assert lines[0] == "n,|V|,p,b_p,b_p_normalized,m0,m1,m2,nu_eps_0.5"
    assert lines[1] == "4,16,1,2,1/8,3,12,66,1/8"


def test_converge_levels_past_a_cap_below_their_edge_count(tmp_path, capsys,
                                                          monkeypatch):
    # a cap below f_1 of both levels (75 and 108 edges) but not below
    # their pieces (25 and 50, 36 and 72 rows) refuses no level
    import l2limits.spectral as spectral_mod
    monkeypatch.setattr(spectral_mod, "DENSE_EIGENSOLVE_CAP", 74)
    code, out, _ = run(capsys, [
        "converge", "--family", "torus2d", "--levels", "5,6", "--p", "1",
        "--moments", "2", "--eps", "0.5", "--out", str(tmp_path / "c.csv")])
    assert code == 0
    for n in (5, 6):
        assert f"n={n} |V|={n * n} b_1=2 normalized={Fraction(2, n * n)} " in out


def test_converge_refuses_a_level_past_the_cap_before_any_level(tmp_path,
                                                                capsys):
    # the side-46 torus has a piece of 4232 rows at p = 1
    code, out, err = run(capsys, [
        "converge", "--family", "torus2d", "--levels", "40,46", "--p", "1",
        "--out", str(tmp_path / "c.csv")])
    assert code == 3 and out == ""
    assert "Gram piece of d_2 has 4232 rows" in err
    assert not (tmp_path / "c.csv").exists()


def test_converge_error_paths(tmp_path, capsys):
    code, _, err = run(capsys, [
        "converge", "--family", "torus2d", "--levels", "4,x", "--p", "1",
        "--out", str(tmp_path / "a.csv")])
    assert code == 2
    code, _, err = run(capsys, [
        "converge", "--family", "torus2d", "--levels", "4,6", "--p", "1",
        "--degree-bound", "5", "--out", str(tmp_path / "b.csv")])
    assert code == 4
    assert "bounded degree" in err
    # levels run in one process: there is no --threads option
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--family", "torus2d", "--levels", "4,6", "--p", "1",
              "--threads", "2", "--out", str(tmp_path / "t.csv")])
    assert exc.value.code == 1
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_converge_bad_eps_exits_3_before_any_level(tmp_path, capsys,
                                                   monkeypatch):
    import l2limits.estimators as estimators
    levels = []
    monkeypatch.setattr(estimators, "_level_stats", levels.append)
    for eps in ("0.1,2", "0.1,0.1000001", "0.5,0.5"):
        code, out, err = run(capsys, [
            "converge", "--family", "torus2d", "--levels", "4,6", "--p", "1",
            "--eps", eps, "--out", str(tmp_path / "c.csv")])
        assert code == 3
        assert err.startswith("error:") and "eps" in err
    assert levels == []
    assert not (tmp_path / "c.csv").exists()


def test_converge_negative_rmax_exits_3_before_any_level(tmp_path, capsys,
                                                         monkeypatch):
    import l2limits.estimators as estimators
    levels = []
    monkeypatch.setattr(estimators, "_level_stats", levels.append)
    for p, extra, message in [
            ("1", ["--rmax", "-1"], "rmax must be nonnegative"),
            ("1", ["--moments", "-1"], "moment order must be nonnegative"),
            ("1", ["--degree-bound", "-1"], "degree bound must be nonnegative"),
            ("-1", [], "dimension must be nonnegative")]:
        code, out, err = run(capsys, [
            "converge", "--family", "torus2d", "--levels", "6,8", "--p", p,
            *extra, "--out", str(tmp_path / "r.csv")])
        assert code == 3
        assert err.startswith("error:") and message in err
        assert out == ""
    assert levels == []
    assert not (tmp_path / "r.csv").exists()


def test_unwritable_out_exits_2(scx, capsys, tmp_path):
    target = str(tmp_path / "no-such-dir" / "out")
    code, out, err = run(capsys, ["generate", "torus2d", "--n", "4",
                                  "--out", target])
    assert code == 2 and err.startswith("error:")
    path = scx("tri.scx", fixtures()["filled_triangle"])
    code, out, err = run(capsys, ["spectrum", path, "--p", "0",
                                  "--out", target])
    assert code == 2 and err.startswith("error:")
    assert "nu({0}) = 1/3" in out  # the results came before the write
    code, out, err = run(capsys, [
        "converge", "--family", "torus1d", "--levels", "4,5", "--p", "0",
        "--moments", "1", "--out", target])
    assert code == 2 and err.startswith("error:")


def test_unwritable_out_prints_no_traceback(tmp_path):
    src = str(Path(l2limits.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    target = str(tmp_path / "no-such-dir" / "x.scx")
    proc = subprocess.run(
        [sys.executable, "-m", "l2limits.cli", "generate", "torus2d",
         "--n", "4", "--out", target],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def _src_env():
    src = str(Path(l2limits.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_python_dash_m_package_runs_the_cli(scx, tmp_path):
    def package(*argv):
        return subprocess.run([sys.executable, "-m", "l2limits", *argv],
                              capture_output=True, text=True, env=_src_env())

    path = scx("tri.scx", fixtures()["filled_triangle"])
    proc = package("betti", path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["p=0 b=1 norm=1/3", "p=1 b=0 norm=0",
                                        "p=2 b=0 norm=0"]
    proc = package("validate", path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "valid"
    bad = tmp_path / "bad.scx"
    bad.write_text("0 1.5\n")
    proc = package("validate", str(bad))
    assert proc.returncode == 2
    assert proc.stdout == "" and proc.stderr.startswith("error:")


_UNUSED_BY_RANKS = ("encoding", "estimators", "generators", "measures")


def _cli_probe(*argvs, tail=""):
    """Run ``argvs`` through ``cli.main`` in a fresh process, then ``tail``;
    the process's stdout, with the commands' own output dropped."""
    lines = ["import sys, types, contextlib, io",
             "from l2limits.cli import main",
             "def ran(names):",
             "    # reading type() does not run a lazy module",
             "    return [n for n in names",
             "            if type(sys.modules['l2limits.' + n]) is types.ModuleType]",
             "with contextlib.redirect_stdout(io.StringIO()):"]
    lines += [f"    assert main({argv!r}) == 0" for argv in argvs]
    proc = subprocess.run([sys.executable, "-c", "\n".join(lines) + "\n" + tail],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_rank_commands_leave_numpy_unloaded(scx):
    path = scx("torus.scx", torus_tower(2, 4))
    tail = ("print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('numpy', 'concurrent',\n"
            "                                    'dataclasses', 'inspect')))\n"
            f"print(ran({_UNUSED_BY_RANKS!r}))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['spectrum', {path!r}, '--p', '1']) == 0\n"
            f"print(ran({_UNUSED_BY_RANKS!r}))\n")
    out = _cli_probe(["betti", path], ["validate", path], tail=tail)
    assert out.splitlines() == ["[]", "[]", "[]"]


def test_code_commands_leave_numpy_unloaded(scx):
    # colour refinement runs on numpy, but only an isomorphism context
    # refines, and a canonical search within its tie cap builds none
    path = scx("octahedron.scx", fixtures()["octahedron"], root=0)
    tail = ("print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'numpy'))\n"
            "print(ran(('encoding',)))\n")
    out = _cli_probe(["canon", path], ["bs-distance", path, f"{path}:4"],
                     tail=tail)
    assert out.splitlines() == ["[]", "['encoding']"]


def test_converge_runs_every_module(tmp_path):
    out = _cli_probe(["converge", "--family", "torus2d", "--levels", "3",
                      "--p", "1", "--out", str(tmp_path / "c.csv")],
                     tail=f"print(ran({_UNUSED_BY_RANKS!r}))\n")
    assert out == repr(list(_UNUSED_BY_RANKS))


def test_import_package_loads_every_submodule():
    # the benchmark's tracer imports l2limits and then patches each
    # submodule it finds in sys.modules
    src = Path(l2limits.__file__).resolve().parent
    names = sorted(f"l2limits.{f.stem}" for f in src.glob("*.py")
                   if f.stem not in ("__init__", "__main__", "cli"))
    probe = ("import sys, l2limits\n"
             f"print([m for m in {names!r} if m not in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_reexports_each_module_all():
    modules = [importlib.import_module(f"l2limits.{name}") for name in (
        "complexes", "encoding", "errors", "estimators", "formats",
        "generators", "measures", "spectral")]
    missing = [m.__name__ for m in modules if not hasattr(m, "__all__")]
    assert missing == []
    names = [name for m in modules for name in m.__all__]
    assert l2limits.__all__ == names + ["__version__"]
    assert len(set(l2limits.__all__)) == len(l2limits.__all__)
    for m in modules:
        for name in m.__all__:
            obj = getattr(m, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == m.__name__, name
            assert getattr(l2limits, name) is obj, name


def _spectrum_figures(out):
    lines = out.splitlines()
    radius = next(line for line in lines if line.startswith("spectral radius"))
    bound = next(line for line in lines if line.startswith("a priori bound"))
    return (float(radius.rsplit(" = ", 1)[1]),
            int(bound.rsplit(" = ", 1)[1]))


def test_spectrum_prints_a_bound_that_holds(scx, capsys):
    # 2*sqrt((p+2)*D) = 8.49 sits below this radius of 8.83
    path = scx("torus8.scx", torus_tower(2, 8))
    code, out, _ = run(capsys, ["spectrum", path, "--p", "1"])
    assert code == 0
    radius, bound = _spectrum_figures(out)
    assert radius > 8.8 and bound >= radius
    for name in ("filled_triangle", "octahedron", "star5", "book"):
        cx = fixtures()[name]
        path = scx(f"{name}.scx", cx)
        for p in range(cx.dim + 3):
            code, out, _ = run(capsys, ["spectrum", path, "--p", str(p)])
            assert code == 0
            radius, bound = _spectrum_figures(out)
            assert bound >= radius - 1e-9
    # degree 2, p = 4: both terms are negative before clamping
    path = scx("tri.scx", fixtures()["filled_triangle"])
    code, out, _ = run(capsys, ["spectrum", path, "--p", "4"])
    assert code == 0 and _spectrum_figures(out) == (0.0, 0)


def test_boolean_ids_in_measure_exit_2(tmp_path, capsys):
    bad = tmp_path / "bool.json"
    bad.write_text(json.dumps({"support": [
        {"weight": "1", "maximal_simplices": [[0, 1]], "root": True}]}))
    code, out, err = run(capsys, ["mass-transport", str(bad)])
    assert code == 2 and out == "" and err.startswith("error:")


def test_non_utf8_input_exits_2_without_traceback(tmp_path):
    bad_scx = tmp_path / "bad.scx"
    bad_scx.write_bytes(b"0 1\n\xff\n")
    bad_json = tmp_path / "bad.json"
    bad_json.write_bytes(b"\xff")
    for argv in (["validate", str(bad_scx)], ["mass-transport", str(bad_json)]):
        proc = subprocess.run([sys.executable, "-m", "l2limits", *argv],
                              capture_output=True, text=True, env=_src_env())
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and "UTF-8" in proc.stderr
        assert len(proc.stderr.splitlines()) == 1


def test_deeply_nested_measure_exits_2(tmp_path, capsys):
    # the JSON decoder's RecursionError is malformed input, not a crash
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    support = tmp_path / "support.json"
    support.write_text('{"support": ' + "[" * 100_000 + "]" * 100_000 + "}")
    for argv in (["mass-transport", str(deep)],
                 ["measure-distance", str(support), str(support), "--rmax", "1"]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and err.startswith("error:"), argv


# Bad arguments for every subcommand, with the exit code of errors.py's
# table: 1 usage, 2 malformed input or a missing file, 3 validation.  An
# empty complex has no Betti numbers to print, which is not an error.
# ``{d}`` is a directory holding the files the ``bad_inputs`` fixture
# writes; nothing named out.csv is there.
_BAD_ARGUMENTS = [
    ([], 1),
    (["no-such-command"], 1),
    (["validate", "{d}/missing.scx"], 2),
    (["validate", "{d}/bad.scx"], 2),
    (["validate", "{d}/badroot.scx"], 3),
    (["betti", "{d}/badroot.scx"], 3),
    (["canon", "{d}/badroot.scx", "--root", "0"], 3),
    (["bs-distance", "{d}/badroot.scx:0", "{d}/path.scx:0"], 3),
    (["truncate", "{d}/badroot.scx", "--degree", "2"], 3),
    (["betti", "{d}/empty.scx"], 0),
    (["betti", "{d}/path.scx", "--p", "-1"], 3),
    (["betti", "{d}/path.scx", "--p", "x"], 1),
    (["spectrum", "{d}/path.scx"], 1),
    (["spectrum", "{d}/path.scx", "--p", "-1"], 3),
    (["spectrum", "{d}/empty.scx", "--p", "0"], 3),
    (["canon", "{d}/path.scx"], 2),
    (["canon", "{d}/path.scx", "--root", "9"], 3),
    (["bs-distance", "{d}/path.scx", "{d}/path.scx:0"], 2),
    (["bs-distance", "{d}/path.scx:0", "{d}/path.scx:0", "--rmax", "-1"], 3),
    (["measure-distance", "{d}/bad.json", "{d}/bad.json", "--rmax", "1"], 2),
    (["measure-distance", "{d}/bad.json", "{d}/bad.json"], 1),
    (["mass-transport", "{d}/bad.json"], 2),
    (["mass-transport", "{d}/missing.json"], 2),
    (["truncate", "{d}/path.scx", "--degree", "-1"], 3),
    (["generate", "torus1d", "--n", "2"], 3),
    (["generate", "torus2d", "--n", "1"], 3),
    (["generate", "flag", "--n", "5", "--prob", "0.5", "--seed", "-1"], 3),
    (["generate", "lm", "--n", "5", "--prob", "0.5", "--seed", "-1"], 3),
    (["generate", "flag", "--n", "5", "--prob", "2"], 3),
    (["generate", "fixture", "nonesuch"], 3),
    (["generate", "klein"], 1),
    (["converge", "--family", "torus2d", "--levels", ",", "--p", "1"], 2),
    (["converge", "--family", "torus2d", "--levels", "4,a", "--p", "1"], 2),
    (["converge", "--family", "torus1d", "--levels", "2", "--p", "0"], 3),
    (["converge", "--family", "torus2d", "--levels", "4", "--p", "-1"], 3),
    (["converge", "--family", "torus2d", "--levels", "4", "--p", "1",
      "--moments", "-1"], 3),
    (["converge", "--family", "torus2d", "--levels", "4", "--p", "1",
      "--rmax", "-1"], 3),
    (["converge", "--family", "torus2d", "--levels", "4", "--p", "1",
      "--degree-bound", "-1"], 3),
    (["converge", "--family", "torus2d", "--levels", "4", "--p", "1",
      "--eps", "2"], 3),
    (["converge", "--family", "torus3d", "--levels", "4", "--p", "1"], 1),
]


@pytest.fixture
def bad_inputs(tmp_path):
    (tmp_path / "empty.scx").write_text("")
    (tmp_path / "bad.scx").write_text("0 zero\n")
    (tmp_path / "badroot.scx").write_text("root 9\n0 1\n")
    (tmp_path / "bad.json").write_text("{")
    write_scx(fixtures()["path3"], tmp_path / "path.scx")
    return tmp_path


@pytest.mark.parametrize("argv, want", _BAD_ARGUMENTS,
                         ids=[" ".join(argv) or "none" for argv, _ in _BAD_ARGUMENTS])
def test_bad_arguments_exit_with_their_documented_code(bad_inputs, capsys,
                                                       argv, want):
    argv = [arg.format(d=bad_inputs) for arg in argv]
    if argv[:1] == ["converge"]:
        argv += ["--out", str(bad_inputs / "out.csv")]
    # argparse ends a usage error with SystemExit; any other exception
    # escaping main fails the test
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == want
    assert ("error:" in err) == (want != 0) and "Traceback" not in err
    assert not (bad_inputs / "out.csv").exists()
