"""The repository's tooling keeps fitting the program: the names the
benchmark tracer wraps, and the Python floor that ``pyproject.toml``
declares."""
import ast
import importlib.util
import re
from pathlib import Path

import numpy.linalg  # noqa: F401  (the tracer's eigensolver span lives there)

import l2limits  # noqa: F401  (loads every submodule the tracer resolves)
from l2limits import canonical_code, rooted_at, torus_tower, uniform_rooting

ROOT = Path(__file__).resolve().parents[1]


def _tracing():
    """``perfbench/tracing.py``, loaded without putting perfbench on the path."""
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_resolve_and_read_their_results():
    # ``run.py --trace 1`` wraps each span's callable by name, so a rename
    # in the library would break it
    tracing = _tracing()
    for module_name, attr in tracing.SPANS.values():
        owner, name = tracing._resolve(module_name, attr)
        assert callable(getattr(owner, name, None)), (module_name, attr)
    # the uniform_rooting span counts classes by len, canonical_code's
    # distinct codes by hash
    torus = torus_tower(2, 4)
    assert len(uniform_rooting(torus)) == 1
    code = canonical_code(rooted_at(torus, 0))
    assert hash(code) == hash(canonical_code(rooted_at(torus, 5)))


def test_sources_parse_at_the_declared_python_floor():
    declared = (ROOT / "pyproject.toml").read_text()
    floor = tuple(map(int, re.search(
        r'requires-python = ">=(\d+)\.(\d+)"', declared).groups()))
    paths = [path for folder in ("src", "tests", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=floor)


def test_only_encoding_binds_the_isomorphism_search():
    # rooted classes are decided in one place: no other module may define
    # or import the search or its context
    names = {"_IsoContext", "_search"}
    binders = set()
    for path in sorted((ROOT / "src" / "l2limits").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = {node.name}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound = {node.id}
            else:
                continue
            if bound & names:
                binders.add(path.stem)
    assert binders == {"encoding"}


def test_only_errors_spells_the_integer_rule():
    # integer arguments are checked in one place, errors._check_int: no
    # other module may spell its refusal of a negative value
    spellers = set()
    for path in sorted((ROOT / "src" / "l2limits").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value.endswith("must be nonnegative")):
                spellers.add(path.stem)
    assert spellers == {"errors"}


def test_only_spectral_runs_dense_linear_algebra():
    # one dense route, in one module: no other module may multiply
    # matrices, eigensolve or scatter with bincount
    users = set()
    for path in sorted((ROOT / "src" / "l2limits").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.MatMult)
                    or isinstance(node, ast.Attribute)
                    and node.attr in ("eigvalsh", "bincount")):
                users.add(path.stem)
    assert users == {"spectral"}


def test_only_formats_opens_files():
    # every file is opened in one place, formats._text: no other module may
    # call open, Path.open, read_text or write_text
    openers = set()
    for path in sorted((ROOT / "src" / "l2limits").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "open"
                    or isinstance(func, ast.Attribute)
                    and func.attr in ("open", "read_text", "write_text")):
                openers.add(path.stem)
    assert openers == {"formats"}
