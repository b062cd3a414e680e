import io
import json
from fractions import Fraction

import numpy as np
import pytest

from l2limits.complexes import rooted_at
from l2limits.errors import MalformedInputError, ValidationError
from l2limits.estimators import convergence_experiment
from l2limits.formats import load_measure, read_scx, save_measure, write_scx
from l2limits.generators import fixtures, torus_tower
from l2limits.measures import RandomRootedComplex, uniform_rooting
from l2limits.spectral import spectral_measure, write_betti_csv, write_spectrum_csv


def scx_text(cx, root=None):
    stream = io.StringIO()
    write_scx(cx, stream, root)
    return stream.getvalue()


def measure_json(mu):
    stream = io.StringIO()
    save_measure(mu, stream)
    return stream.getvalue()


def test_read_scx_basic():
    text = "# a filled triangle with a pendant\n0 1 2\n2 3  # pendant edge\n"
    cx, root = read_scx(io.StringIO(text))
    assert root is None
    assert cx.maximal_simplices() == ((0, 1, 2), (2, 3))
    assert (0, 1) in cx


def test_read_scx_root_directive():
    cx, root = read_scx(io.StringIO("root 2\n0 1\n1 2\n"))
    assert root == 2
    assert cx.f_vector() == (3, 2)


def test_read_scx_refuses_a_root_that_is_no_vertex():
    # checked once the complex is built, so the directive may come first
    # or last; a file without simplices has no vertex to name
    for text, where in (("root 9\n0 1 2\n2 3\n", "line 1: root 9"),
                        ("0 1 2\n# comment\nroot 9\n2 3\n", "line 3: root 9"),
                        ("root 0\n", "line 1: root 0")):
        with pytest.raises(ValidationError, match=f"{where} is not a vertex"):
            read_scx(io.StringIO(text))


def test_read_scx_errors():
    cases = [
        "root 1 2\n",          # root takes one id
        "root 1\nroot 2\n",    # second directive
        "root x\n",            # non-integer root
        "root -1\n",           # negative root
        "0 one\n",             # non-integer vertex
        "0 -2\n",              # negative vertex
        "0 1 1\n",             # repeated vertex
    ]
    for text in cases:
        with pytest.raises(MalformedInputError):
            read_scx(io.StringIO(text))


def test_scx_error_messages_carry_line_numbers():
    for bad in ("2 two", "2 -3", "2 3 2"):
        with pytest.raises(MalformedInputError, match="line 3"):
            read_scx(io.StringIO(f"0 1\n1 2\n{bad}\n"))


def test_scx_round_trip_is_byte_exact(tmp_path):
    for name, cx in fixtures().items():
        path = tmp_path / f"{name}.scx"
        write_scx(cx, path, root=min(cx.vertices))
        again, root = read_scx(path)
        assert again == cx, name
        assert root == min(cx.vertices)
        assert path.read_text() == scx_text(again, root)


def test_scx_text_shape():
    cx = fixtures()["book"]
    text = scx_text(cx)
    assert text == "0 1 2\n0 1 3\n"
    assert scx_text(cx, root=3).startswith("root 3\n")
    stream = io.StringIO()
    write_scx(cx, stream)
    assert stream.getvalue() == text


def test_every_writer_writes_a_path_as_it_writes_a_stream(tmp_path):
    # a path becomes a UTF-8 file with \n line ends; an open stream is
    # written as it is
    cx = fixtures()["torus4"]
    report = convergence_experiment([torus_tower(2, 4)], 1, 2, [0.5], labels=["σ"])
    writers = {
        "write_scx": lambda target: write_scx(cx, target, root=0),
        "save_measure": lambda target: save_measure(uniform_rooting(cx), target),
        "write_spectrum_csv":
            lambda target: write_spectrum_csv(spectral_measure(cx, 1), target),
        "write_betti_csv": lambda target: write_betti_csv(cx, target),
        "ConvergenceReport.write_csv": report.write_csv,
    }
    for name, write in writers.items():
        path = tmp_path / f"{name}.txt"
        write(path)
        stream = io.StringIO()
        write(stream)
        assert stream.getvalue(), name
        assert path.read_bytes() == stream.getvalue().encode("utf-8"), name


def test_measure_round_trip(tmp_path):
    for name in ("path3", "star5", "two_triangles", "torus4"):
        mu = uniform_rooting(fixtures()[name])
        path = tmp_path / f"{name}.json"
        save_measure(mu, path)
        stream = io.StringIO()
        save_measure(mu, stream)
        stream.seek(0)
        for again in (load_measure(path), load_measure(stream)):
            again.validate()
            assert len(again) == len(mu)
            assert sorted(pt.weight for pt in again) == \
                sorted(pt.weight for pt in mu)
            assert ({pt.ball_code(None) for pt in again}
                    == {pt.ball_code(None) for pt in mu})
            assert measure_json(again) == measure_json(mu)


def test_roots_are_written_as_the_ints_the_readers_take():
    # a numpy root is stored as an int, so the JSON holds one; a float root
    # names a vertex by hash but would be written as 1.0, which the
    # readers refuse, so it is refused up front
    path4 = fixtures()["path4"]
    mu = RandomRootedComplex.point_mass(rooted_at(path4, np.int64(1)))
    assert type(mu.points[0].rooted.root) is int
    again = load_measure(io.StringIO(measure_json(mu)))
    assert again.points[0].rooted == mu.points[0].rooted
    assert measure_json(again) == measure_json(mu)
    assert read_scx(io.StringIO(scx_text(path4, np.int64(1)))) == (path4, 1)
    for call in (lambda: rooted_at(path4, 1.0), lambda: scx_text(path4, 1.0)):
        with pytest.raises(ValidationError, match="root must be an integer, not 1.0"):
            call()


def test_write_scx_refuses_a_root_that_is_no_vertex(tmp_path):
    # refused before the target is opened: no file is created or truncated
    path4 = fixtures()["path4"]
    fresh, kept = tmp_path / "fresh.scx", tmp_path / "kept.scx"
    kept.write_text("0 1\n")
    for target in (fresh, kept):
        with pytest.raises(ValidationError, match="root 9 is not a vertex"):
            write_scx(path4, target, 9)
    assert not fresh.exists()
    assert kept.read_text() == "0 1\n"


def test_measure_json_is_exact():
    mu = uniform_rooting(fixtures()["path3"])
    doc = json.loads(measure_json(mu))
    weights = sorted(Fraction(entry["weight"]) for entry in doc["support"])
    assert weights == [Fraction(1, 3), Fraction(2, 3)]
    for entry in doc["support"]:
        assert isinstance(entry["root"], int)
        assert all(isinstance(v, int) for s in entry["maximal_simplices"]
                   for v in s)


def test_load_measure_rejects_bad_documents():
    def loads(obj):
        return load_measure(io.StringIO(json.dumps(obj)))

    with pytest.raises(MalformedInputError):
        load_measure(io.StringIO("not json"))
    with pytest.raises(MalformedInputError):
        loads({"points": []})
    with pytest.raises(MalformedInputError):
        loads({"support": []})
    with pytest.raises(MalformedInputError):
        loads({"support": ["entry"]})
    with pytest.raises(MalformedInputError):
        loads({"support": [{"weight": "1/3"}]})
    with pytest.raises(MalformedInputError):
        loads({"support": [{"weight": "a/b", "maximal_simplices": [[0]],
                            "root": 0}]})
    with pytest.raises(MalformedInputError, match=r"support\[0\]"):
        loads({"support": [{"weight": "1", "maximal_simplices": [[0, -1]],
                            "root": 0}]})
    with pytest.raises(MalformedInputError, match=r"support\[0\]"):
        loads({"support": [{"weight": "1", "maximal_simplices": [[]],
                            "root": 0}]})
    # deeper than the decoder's recursion limit
    with pytest.raises(MalformedInputError, match="nested too deeply"):
        load_measure(io.StringIO("[" * 100_000 + "]" * 100_000))


def test_load_measure_rejects_bad_laws():
    def loads(obj):
        return load_measure(io.StringIO(json.dumps(obj)))

    # negative weight
    with pytest.raises(ValidationError):
        loads({"support": [
            {"weight": "-1/2", "maximal_simplices": [[0]], "root": 0},
            {"weight": "3/2", "maximal_simplices": [[0, 1]], "root": 0}]})
    # weights off one
    with pytest.raises(ValidationError):
        loads({"support": [{"weight": "1/2", "maximal_simplices": [[0]],
                            "root": 0}]})
    # root outside its complex
    with pytest.raises(ValidationError):
        loads({"support": [{"weight": "1", "maximal_simplices": [[0, 1]],
                            "root": 5}]})
    # support complex must be connected
    with pytest.raises(ValidationError):
        loads({"support": [{"weight": "1",
                            "maximal_simplices": [[0, 1], [3, 4]],
                            "root": 0}]})


def test_load_measure_rejects_boolean_root():
    # JSON true is a Python bool, and bool is an int: it must not read as 1
    doc = {"support": [{"weight": "1", "maximal_simplices": [[0, 1]],
                        "root": True}]}
    with pytest.raises(MalformedInputError):
        load_measure(io.StringIO(json.dumps(doc)))


def test_load_measure_rejects_boolean_vertex_ids():
    doc = {"support": [{"weight": "1", "maximal_simplices": [[False, 1]],
                        "root": 1}]}
    with pytest.raises(MalformedInputError):
        load_measure(io.StringIO(json.dumps(doc)))


def test_non_utf8_input_is_malformed(tmp_path):
    scx_path = tmp_path / "bad.scx"
    scx_path.write_bytes(b"0 1\n\xff 2\n")
    with pytest.raises(MalformedInputError, match="UTF-8"):
        read_scx(scx_path)
    with pytest.raises(MalformedInputError, match="UTF-8"):
        read_scx(io.TextIOWrapper(io.BytesIO(b"0 1\xff\n"), encoding="utf-8"))
    json_path = tmp_path / "bad.json"
    json_path.write_bytes(b'{"support": "\xff"}')
    with pytest.raises(MalformedInputError, match="UTF-8"):
        load_measure(json_path)
    with pytest.raises(MalformedInputError, match="UTF-8"):
        load_measure(io.BytesIO(b'{"support": "\xff"}'))
