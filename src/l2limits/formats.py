"""On-disk formats: `.scx` complexes and JSON measure files, and :func:`_text`,
the package's one file opener, which every reader and writer goes through.

`.scx` is line-oriented UTF-8: one maximal simplex per line as
space-separated vertex ids, `#` starts a comment, and an optional
`root <id>` line marks a distinguished vertex of the complex.  Writing
always emits the sorted maximal simplices, so read -> write -> read
round-trips exactly.

Measures are JSON documents of the shape
``{"support": [{"weight": "p/q", "maximal_simplices": [[...]], "root": id}]}``
with weights as exact rational strings.
"""
from __future__ import annotations

from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

from . import measures
from .complexes import RootedComplex, SimplicialComplex, _as_simplex, _check_root
from .errors import MalformedInputError, ValidationError

__all__ = [
    "read_scx",
    "write_scx",
    "load_measure",
    "save_measure",
]


def _text(file, mode: str):
    """A path opened as UTF-8 text in ``mode``, or an open stream as is."""
    if isinstance(file, (str, Path)):
        return open(file, mode, encoding="utf-8")
    return nullcontext(file)


def _vertex_id(token: str):
    """The one rule for a vertex id in text: ASCII digits after an optional
    ``-`` (a negative id meets its own message later); else None, as for
    ``-0``, which no negative id spells."""
    digits = token.removeprefix("-")
    if token.isascii() and digits.isdigit() and (digits == token or digits.strip("0")):
        return int(token)
    return None


def _parse_scx_lines(lines):
    root = None
    maximal = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "root":
            if len(parts) != 2:
                raise MalformedInputError(f"line {lineno}: root takes one vertex id")
            if root is not None:
                raise MalformedInputError(f"line {lineno}: second root directive")
            root_line = lineno
            root = _vertex_id(parts[1])
            if root is None:
                raise MalformedInputError(f"line {lineno}: root id must be an integer")
            if root < 0:
                raise MalformedInputError(f"line {lineno}: vertex ids are nonnegative")
            continue
        ids = [_vertex_id(tok) for tok in parts]
        if None in ids:
            raise MalformedInputError(f"line {lineno}: vertex ids must be integers")
        try:
            maximal.append(_as_simplex(ids))
        except MalformedInputError as exc:
            raise MalformedInputError(f"line {lineno}: {exc}")
    cx = SimplicialComplex.closure(maximal)
    if root is not None:
        try:
            _check_root(cx, root)
        except ValidationError as exc:
            raise ValidationError(f"line {root_line}: {exc}")
    return cx, root


def read_scx(source):
    """Parse an `.scx` file; returns (complex, root or None).  A root
    directive that names no vertex raises :class:`ValidationError`."""
    try:
        with _text(source, "r") as fh:
            return _parse_scx_lines(fh)
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"not UTF-8 text: {exc}")


def write_scx(cx: SimplicialComplex, target, root=None) -> None:
    """A root that is no vertex of ``cx`` is refused before ``target`` opens."""
    lines = [] if root is None else [f"root {_check_root(cx, root)}"]
    lines += [" ".join(str(v) for v in s) for s in cx.maximal_simplices()]
    with _text(target, "w") as fh:
        fh.write("\n".join(lines) + "\n" if lines else "")


def _is_id(value) -> bool:
    # JSON true and false load as bools, which are ints to isinstance
    return isinstance(value, int) and not isinstance(value, bool)


def _measure_from_obj(obj) -> measures.RandomRootedComplex:
    if not isinstance(obj, dict) or "support" not in obj:
        raise MalformedInputError('measure file needs a "support" array')
    support = obj["support"]
    if not isinstance(support, list) or not support:
        raise MalformedInputError('"support" must be a non-empty array')
    points = []
    for i, entry in enumerate(support):
        if not isinstance(entry, dict):
            raise MalformedInputError(f"support[{i}] must be an object")
        try:
            weight = Fraction(str(entry["weight"]))
            maximal = entry["maximal_simplices"]
            root = entry["root"]
        except KeyError as missing:
            raise MalformedInputError(f"support[{i}] lacks {missing}")
        except (ValueError, ZeroDivisionError):
            raise MalformedInputError(
                f"support[{i}].weight is not an exact rational")
        if not isinstance(maximal, list) or not _is_id(root):
            raise MalformedInputError(f"support[{i}] has wrong field types")
        if not all(isinstance(s, list) and all(map(_is_id, s)) for s in maximal):
            raise MalformedInputError(f"support[{i}]: simplices are lists of ids")
        try:
            cx = SimplicialComplex.closure(maximal)
        except MalformedInputError as exc:
            raise MalformedInputError(f"support[{i}]: {exc}")
        points.append(measures.SupportPoint(RootedComplex(cx, root), weight))
    return measures.RandomRootedComplex(points)


def load_measure(source) -> measures.RandomRootedComplex:
    """Parse a measure JSON file into a finite-support law."""
    import json

    try:
        with _text(source, "r") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"invalid JSON: {exc}")
    except RecursionError:
        raise MalformedInputError("invalid JSON: nested too deeply")
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"not UTF-8 text: {exc}")
    return _measure_from_obj(obj)


def save_measure(mu: measures.RandomRootedComplex, target) -> None:
    import json

    support = [{
        "weight": str(pt.weight),
        "maximal_simplices": [list(s) for s in pt.rooted.complex.maximal_simplices()],
        "root": pt.rooted.root,
    } for pt in mu.points]
    with _text(target, "w") as fh:
        fh.write(json.dumps({"support": support}, indent=2) + "\n")
