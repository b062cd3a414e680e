"""The repository's tooling keeps fitting the program: the names the
benchmark tracer wraps, and the Python floor that ``pyproject.toml``
declares."""
import ast
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy.linalg  # noqa: F401  (the tracer's eigensolver span lives there)

import l2limits  # registers every submodule the tracer resolves
from l2limits import (canonical_code, rooted_at, torus_tower, uniform_rooting,
                      write_scx)
from test_cli import _src_env

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


def _fresh(probe):
    """The stdout of ``probe`` run in a new interpreter on the same sources."""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_a_patch_before_first_use_is_the_one_callers_get(tmp_path):
    # the tracer patches each submodule it finds in sys.modules, which may
    # not have run yet; the patch must survive the module's first run
    path = tmp_path / "torus.scx"
    write_scx(torus_tower(2, 4), path)
    probe = (
        "import sys, types, contextlib, io\n"
        "import l2limits\n"
        "from l2limits.cli import main\n"
        "spectral = sys.modules['l2limits.spectral']\n"
        "calls = []\n"
        "def counted(cx, p):\n"
        "    calls.append(p)\n"
        "    return 0\n"
        "assert type(spectral) is not types.ModuleType\n"
        "spectral.boundary_rank = counted\n"
        "assert type(spectral) is not types.ModuleType\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['betti', {str(path)!r}]) == 0\n"
        "print(calls)\n")
    assert _fresh(probe) == "[0, 1, 2, 3]"


def test_importing_cli_from_the_package_runs_no_library_module(tmp_path):
    # the import system asks the package for cli before it loads the
    # module; that read must not bind, and so run, every library module
    path = tmp_path / "torus.scx"
    write_scx(torus_tower(2, 4), path)
    library = ("complexes", "encoding", "estimators", "generators",
               "measures", "spectral")
    probe = (
        "import sys, types, contextlib, io\n"
        "from l2limits import cli\n"
        f"print([n for n in {library!r}\n"
        "       if type(sys.modules['l2limits.' + n]) is types.ModuleType])\n"
        "import l2limits\n"
        "assert l2limits.cli is cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['betti', {str(path)!r}]) == 0\n"
        "print(l2limits.SimplicialComplex\n"
        "      is sys.modules['l2limits.complexes'].SimplicialComplex)\n")
    assert _fresh(probe).splitlines() == ["[]", "True"]


def test_first_reads_from_many_threads_see_one_binding():
    # more threads than cores, switching often, all at the first read
    probe = (
        "import sys, threading, l2limits\n"
        "sys.setswitchinterval(1e-6)\n"
        "barrier = threading.Barrier(8)\n"
        "seen = []\n"
        "def read():\n"
        "    barrier.wait()\n"
        "    seen.append((l2limits.SimplicialComplex, l2limits.__all__,\n"
        "                 l2limits.spectral_measure))\n"
        "threads = [threading.Thread(target=read) for _ in range(8)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(60)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "assert len(seen) == 8\n"
        "assert all(a is b for got in seen for a, b in zip(got, seen[0]))\n"
        "assert seen[0][0] is l2limits.complexes.SimplicialComplex\n"
        "assert seen[0][2] is l2limits.spectral.spectral_measure\n"
        "print(seen[0][1])\n")
    assert _fresh(probe) == repr(l2limits.__all__)


def test_dir_before_any_read_lists_every_public_name():
    # dir() is the first read here, so it must bind the names it lists
    probe = (
        "import l2limits\n"
        "assert '__all__' not in vars(l2limits)\n"
        "names = dir(l2limits)\n"
        "print(sorted(set(l2limits.__all__) - set(names)))\n")
    assert _fresh(probe) == "[]"


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


def test_each_argument_rule_is_spelled_in_one_module():
    # the probability, eps and number rules live in errors; the root and
    # empty-complex rules in complexes, which every module imports
    homes = {"must lie in [0, 1]": "errors",
             "must lie strictly between 0 and 1": "errors",
             "must be a real number": "errors",
             "needs a nonempty complex": "complexes",
             "is not a vertex": "complexes"}
    spellers = {sentence: set() for sentence in homes}
    for path in sorted((ROOT / "src" / "l2limits").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for sentence in homes:
                    if sentence in node.value:
                        spellers[sentence].add(path.stem)
    assert spellers == {sentence: {home} for sentence, home in homes.items()}


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


def test_numpy_is_imported_only_where_it_runs():
    # commands that never reach an array leave numpy unloaded: every import
    # of it sits in a function body, or under ``if TYPE_CHECKING:`` for
    # annotations
    def imports_numpy(node):
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] == "numpy"
                       for alias in node.names)
        return (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "numpy")

    def type_checking(node):
        return isinstance(node, ast.If) and ast.unparse(node.test) in (
            "TYPE_CHECKING", "typing.TYPE_CHECKING")

    found = []

    def visit(node, lazy):
        if imports_numpy(node):
            found.append(lazy)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lazy = True
        if type_checking(node):
            # the body only: an else branch runs
            for child in node.body:
                visit(child, True)
            nodes = node.orelse
        else:
            nodes = ast.iter_child_nodes(node)
        for child in nodes:
            visit(child, lazy)

    for path in sorted((ROOT / "src" / "l2limits").glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), False)
    assert len(found) > 5 and all(found)


def test_one_function_indexes_faces():
    # d_q's nonzeros have one builder, spectral._boundary, beside the dense
    # reference boundary_matrix: no other function that reads faces(...)
    # may map simplices to their positions, {s: i for i, s in enumerate(...)}
    def reads_faces(node):
        return (isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "faces")

    def indexes(node):
        return isinstance(node, ast.DictComp) and any(
            isinstance(g.iter, ast.Call)
            and getattr(g.iter.func, "id", None) == "enumerate"
            for g in node.generators)

    indexers = set()
    for path in sorted((ROOT / "src" / "l2limits").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(func, ast.FunctionDef):
                nodes = list(ast.walk(func))
                if any(map(reads_faces, nodes)) and any(map(indexes, nodes)):
                    indexers.add(f"{path.stem}.{func.name}")
    assert indexers == {"spectral._boundary", "spectral.boundary_matrix"}


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


def _scoped(match):
    """(enclosing ``module.Class.function``, node) for each node of the
    package's sources that ``match`` takes."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif match(child):
                found.append((scope, child))
            visit(child, inner)

    for path in sorted((ROOT / "src" / "l2limits").glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    return found


def _attribute_reads(attr):
    """(enclosing ``module.Class.function``, owner expression) for each read
    of ``.attr`` in the package's sources."""
    return [(scope, ast.unparse(node.value)) for scope, node in _scoped(
        lambda node: isinstance(node, ast.Attribute) and node.attr == attr)]


def test_checked_objects_are_made_only_by_their_constructors():
    # a rooted complex and a moment vector each check their invariant where
    # they are made: no object skips its constructor but a complex laid out
    # from trusted faces, only complexes cuts subcomplexes (recording them
    # as connected), and a moment vector's check runs in its constructor
    assert [scope for scope, owner in _attribute_reads("__new__")
            if owner == "object"] == ["complexes.SimplicialComplex._from_faces"]
    assert {scope.split(".")[0] for scope, _ in _attribute_reads("induced")} \
        == {"complexes"}
    assert [scope for scope, _ in _attribute_reads("validate")] \
        == ["estimators.MomentVector.__init__"]


def test_one_function_codes_balls():
    # the code cache and the canonical search it fills have one user: no
    # other function may read or write the cache or run the search
    cache = {scope for scope, _ in _scoped(
        lambda node: isinstance(node, ast.Name) and node.id == "_CODE_CACHE")}
    assert cache == {"encoding", "encoding._ball_codes"}  # its binding, its user
    callers = {scope for scope, _ in _scoped(
        lambda node: isinstance(node, ast.Call)
        and ast.unparse(node.func).endswith("_canonical_order"))}
    assert callers == {"encoding._ball_codes"}


def test_spectral_alone_plans_gram_pieces():
    # every spectrum, convergence level and betti --exact is one pass of
    # spectral._spectra: no other function solves a Gram piece, and only
    # spectral._pieces compares a piece with the cap
    solvers = {scope for scope, _ in _scoped(
        lambda node: isinstance(node, ast.Call)
        and ast.unparse(node.func).endswith("_nonzero_spectrum"))}
    assert solvers == {"spectral._spectra"}
    readers = {scope for scope, _ in _scoped(
        lambda node: isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Load)
        and node.id == "DENSE_EIGENSOLVE_CAP"
        or isinstance(node, ast.Attribute)
        and node.attr == "DENSE_EIGENSOLVE_CAP")}
    assert readers == {"spectral._pieces"}
