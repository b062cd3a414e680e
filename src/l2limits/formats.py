"""On-disk formats: `.scx` complexes and JSON measure files.

`.scx` is line-oriented UTF-8: one maximal simplex per line as
space-separated vertex ids, `#` starts a comment, and an optional
`root <id>` line marks a distinguished vertex.  Writing always emits the
sorted maximal simplices, so read -> write -> read round-trips exactly.

Measures are JSON documents of the shape
``{"support": [{"weight": "p/q", "maximal_simplices": [[...]], "root": id}]}``
with weights as exact rational strings.
"""
from __future__ import annotations

import json
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

from .complexes import RootedComplex, SimplicialComplex
from .errors import MalformedInputError
from .measures import RandomRootedComplex, SupportPoint

__all__ = [
    "read_scx",
    "write_scx",
    "scx_text",
    "load_measure",
    "save_measure",
    "measure_json",
]


def _text(file, mode: str):
    """A path opened as UTF-8 text in ``mode``, or an open stream as is."""
    if isinstance(file, (str, Path)):
        return open(file, mode, encoding="utf-8")
    return nullcontext(file)


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
            try:
                root = int(parts[1])
            except ValueError:
                raise MalformedInputError(f"line {lineno}: root id must be an integer")
            if root < 0:
                raise MalformedInputError(f"line {lineno}: vertex ids are nonnegative")
            continue
        try:
            simplex = tuple(int(tok) for tok in parts)
        except ValueError:
            raise MalformedInputError(f"line {lineno}: vertex ids must be integers")
        if any(v < 0 for v in simplex):
            raise MalformedInputError(f"line {lineno}: vertex ids are nonnegative")
        if len(set(simplex)) != len(simplex):
            raise MalformedInputError(f"line {lineno}: repeated vertex in simplex")
        maximal.append(simplex)
    return SimplicialComplex.closure(maximal), root


def read_scx(source):
    """Parse an `.scx` file; returns (complex, root or None)."""
    try:
        with _text(source, "r") as fh:
            return _parse_scx_lines(fh)
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"not UTF-8 text: {exc}")


def scx_text(cx: SimplicialComplex, root=None) -> str:
    lines = [] if root is None else [f"root {root}"]
    lines += [" ".join(str(v) for v in s) for s in cx.maximal_simplices()]
    return "\n".join(lines) + "\n" if lines else ""


def write_scx(cx: SimplicialComplex, target, root=None) -> None:
    text = scx_text(cx, root)
    with _text(target, "w") as fh:
        fh.write(text)


def _is_id(value) -> bool:
    # JSON true and false load as bools, which are ints to isinstance
    return isinstance(value, int) and not isinstance(value, bool)


def _measure_from_obj(obj) -> RandomRootedComplex:
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
        simplices = []
        for s in maximal:
            if (not isinstance(s, list) or not s
                    or any(not _is_id(v) or v < 0 for v in s)):
                raise MalformedInputError(
                    f"support[{i}]: simplices are non-empty lists of ids")
            simplices.append(tuple(s))
        cx = SimplicialComplex.closure(simplices)
        points.append(SupportPoint(RootedComplex(cx, root), weight))
    return RandomRootedComplex(points)


def load_measure(source) -> RandomRootedComplex:
    """Parse a measure JSON file into a finite-support law."""
    try:
        with _text(source, "r") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"invalid JSON: {exc}")
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"not UTF-8 text: {exc}")
    return _measure_from_obj(obj)


def measure_json(mu: RandomRootedComplex) -> str:
    support = [{
        "weight": str(pt.weight),
        "maximal_simplices": [list(s) for s in pt.rooted.complex.maximal_simplices()],
        "root": pt.rooted.root,
    } for pt in mu.points]
    return json.dumps({"support": support}, indent=2) + "\n"


def save_measure(mu: RandomRootedComplex, target) -> None:
    text = measure_json(mu)
    with _text(target, "w") as fh:
        fh.write(text)
