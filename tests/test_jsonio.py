"""Shared JSON document helpers: atomic writes, format checks, field access."""

import json
import os

import numpy as np
import pytest

from mocorr.errors import NumericFailureError, ParseError, UnsupportedVersionError
from mocorr.jsonio import load_document, require_array, require_field, save_document


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


def test_require_field():
    doc = {"a": 1}
    assert require_field(doc, "p.json", "a") == 1
    with pytest.raises(ParseError, match="'b'"):
        require_field(doc, "p.json", "b")


def test_require_array():
    doc = {"m": [[1, 2], [3, 4]], "s": 2.5, "bad": ["x", "y"]}
    arr = require_array(doc, "p.json", "m", (2, 2))
    assert arr.dtype == float and np.array_equal(arr, [[1, 2], [3, 4]])
    assert float(require_array(doc, "p.json", "s", ())) == 2.5
    with pytest.raises(ParseError, match="shape"):
        require_array(doc, "p.json", "m", (3, 2))
    with pytest.raises(ParseError, match="numeric"):
        require_array(doc, "p.json", "bad", (2,))
    with pytest.raises(ParseError, match="missing"):
        require_array(doc, "p.json", "absent", (1,))
