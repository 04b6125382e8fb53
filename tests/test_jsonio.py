"""Shared JSON document helpers: atomic writes, format checks, field access."""

import json
import os

import numpy as np
import pytest

from mocorr.errors import NumericFailureError, ParseError, UnsupportedVersionError
from mocorr.jsonio import (
    decode_array,
    encode_array,
    load_document,
    require_array,
    require_field,
    save_document,
)


def test_save_leaves_no_partial(tmp_path):
    path = tmp_path / "doc.json"
    save_document(path, {"format": "x/1", "value": 3})
    assert path.exists()
    assert not (tmp_path / "doc.json.partial").exists()
    assert load_document(path, "x/1")["value"] == 3


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf])
def test_save_refuses_non_finite_values(tmp_path, bad):
    path = tmp_path / "doc.json"
    save_document(path, {"format": "x/1", "value": 3})
    before = path.read_bytes()
    doc = {"format": "x/1", "nested": {"history": [1.0, bad]}}
    with pytest.raises(NumericFailureError, match="doc.json"):
        save_document(path, doc)
    assert path.read_bytes() == before
    assert not (tmp_path / "doc.json.partial").exists()
    with pytest.raises(NumericFailureError):
        save_document(tmp_path / "new.json", {"format": "x/1", "x": np.float64(bad)})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]


def test_save_is_atomic_replacement(tmp_path):
    path = tmp_path / "doc.json"
    save_document(path, {"format": "x/1", "value": 1})
    first = path.read_bytes()
    save_document(path, {"format": "x/1", "value": 2})
    assert path.read_bytes() != first
    assert load_document(path, "x/1")["value"] == 2


def test_save_bytes_deterministic(tmp_path):
    # sort_keys makes key order irrelevant to the serialized bytes.
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_document(a, {"format": "x/1", "p": 1, "q": [1.5, 2.5]})
    save_document(b, {"q": [1.5, 2.5], "p": 1, "format": "x/1"})
    assert a.read_bytes() == b.read_bytes()


def test_save_matches_dumps_of_whole_document(tmp_path):
    doc = {
        "format": "x/1",
        "z": {"b": [1.5, -0.0, 1e300], "a": {}, "c": {"y": None, "x": True}},
        "list": [{"k2": 1, "k1": [2, 3]}, "text", []],
        "caf\u00e9 \u2192": np.float64(0.1),
        "int_keys": {3: "c", 1: "a"},
        "empty": [],
        "w": [[0.1, 0.2], [1.0 / 3.0, 5e-324]],
        # longer than one encoding slice, and exactly two slices long
        "long": [i / 7.0 for i in range(10001)],
        "rows": [[i, {"b": i, "a": -i}] for i in range(8192)],
    }
    path = tmp_path / "doc.json"
    save_document(path, doc)
    expected = json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"
    assert path.read_text() == expected


def test_float_round_trip_exact(tmp_path):
    values = [0.1, 1e-17, 1.0 / 3.0, -2.5e300, np.pi, 5e-324]
    path = tmp_path / "f.json"
    save_document(path, {"format": "x/1", "values": values})
    loaded = load_document(path, "x/1")["values"]
    assert loaded == values


def test_load_errors(tmp_path):
    with pytest.raises(ParseError):
        load_document(tmp_path / "missing.json", "x/1")

    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "x/1", ')
    with pytest.raises(ParseError, match="line"):
        load_document(bad, "x/1")

    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2, 3]")
    with pytest.raises(ParseError, match="object"):
        load_document(arr, "x/1")

    wrong = tmp_path / "wrong.json"
    save_document(wrong, {"format": "x/2"})
    with pytest.raises(UnsupportedVersionError, match="x/1"):
        load_document(wrong, "x/1")

    missing_fmt = tmp_path / "nofmt.json"
    missing_fmt.write_text("{}")
    with pytest.raises(UnsupportedVersionError):
        load_document(missing_fmt, "x/1")


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_load_refuses_non_finite_constants(tmp_path, token):
    path = tmp_path / "doc.json"
    path.write_text('{"format": "x/1", "values": [1.0, %s]}' % token)
    with pytest.raises(ParseError, match=f"doc.json.*{token}"):
        load_document(path, "x/1")


def test_load_accepts_any_of_several_formats(tmp_path):
    path = tmp_path / "doc.json"
    save_document(path, {"format": "x/1"})
    assert load_document(path, ("x/2", "x/1"))["format"] == "x/1"
    with pytest.raises(UnsupportedVersionError, match="'x/2' or 'x/3'"):
        load_document(path, ("x/2", "x/3"))


def test_require_field():
    doc = {"a": 1}
    assert require_field(doc, "p.json", "a") == 1
    with pytest.raises(ParseError, match="'b'"):
        require_field(doc, "p.json", "b")


def test_require_array():
    doc = {"m": [[1, 2], [3, 4]], "s": 2.5, "bad": ["x", "y"],
           "text": ["1.5", True], "flags": [True, False], "word": "2.5",
           "ragged": [[1.0], [1.0, 2.0]], "null": None,
           "mixed": [1.5, True], "nested": [[1.0], [False]]}
    arr = require_array(doc, "p.json", "m", (2, 2))
    assert arr.dtype == float and np.array_equal(arr, [[1, 2], [3, 4]])
    assert float(require_array(doc, "p.json", "s", ())) == 2.5
    with pytest.raises(ParseError, match="shape"):
        require_array(doc, "p.json", "m", (3, 2))
    for key in ("bad", "text", "flags", "word", "ragged", "null", "mixed", "nested"):
        with pytest.raises(ParseError, match="numeric"):
            require_array(doc, "p.json", key, (2,))
    with pytest.raises(ParseError, match="missing"):
        require_array(doc, "p.json", "absent", (1,))


def test_encode_decode_array_round_trip_bitwise(tmp_path):
    # the text is base64 of the little-endian float64 bytes
    assert encode_array([1.0, -0.0], "p.json") == "AAAAAAAA8D8AAAAAAAAAgA=="
    values = np.array([[0.1, -0.0, 5e-324], [1.0 / 3.0, -2.5e300, np.pi]])
    path = tmp_path / "doc.json"
    save_document(path, {"format": "x/1", "a": encode_array(values, path)})
    loaded = decode_array(load_document(path, "x/1"), path, "a", (2, 3))
    assert loaded.tobytes() == values.tobytes()
    loaded[0, 0] = 7.0  # writable, not a view of the decoded bytes


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_encode_array_refuses_non_finite_values(bad):
    with pytest.raises(NumericFailureError, match="p.json"):
        encode_array([1.0, bad], "p.json")
