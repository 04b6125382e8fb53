"""Shared JSON document helpers.

Every on-disk artifact is a JSON object with a "format" field naming its
schema ("skeleton/1", "motion/1", ...). Floats go through the stdlib encoder,
which emits shortest round-trip representations (>= 15 significant digits),
so save followed by load is bit-exact for finite values. Large float arrays
(the checkpoint's layer arrays) are stored instead as one string each: the
base64 text (RFC 4648) of their little-endian float64 bytes ("<f8"), which is
bit-exact too, -0.0 included (`encode_array` / `decode_array`).

Writes land in "<path>.partial" first and are renamed into place; a crash
mid-write leaves the .partial file behind and never a truncated final file.
NaN and infinity are not JSON: a document holding one is refused, its
.partial file removed and the target left as it was; on load the tokens
NaN, Infinity and -Infinity, which Python's json module would accept, are
refused too, and numeric fields refuse numbers too large for a float, which
it reads as infinity. The writer walks the nested objects itself and
encodes each other value, a list included, whole with json.dumps, which
takes the C encoder (json.dump always takes the slower pure-Python one). The
output is byte for byte json.dumps(doc, sort_keys=True, allow_nan=False), but
only one object member's value is held as text at a time. No artifact list
is long: the longest has one item per frame, and large arrays are strings.
"""

import base64
import json
import os

import numpy as np

from .errors import NumericFailureError, ParseError, UnsupportedVersionError


def _write_json(fh, value):
    """Write value as json.dumps(value, sort_keys=True, allow_nan=False)."""
    if isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        sep = "{"
        for key in sorted(value):
            fh.write(sep + json.dumps(key) + ": ")
            _write_json(fh, value[key])
            sep = ", "
        fh.write("}")
    else:
        fh.write(json.dumps(value, sort_keys=True, allow_nan=False))


def save_document(path, doc):
    path = os.fspath(path)
    tmp = path + ".partial"
    with open(tmp, "w") as fh:
        try:
            _write_json(fh, doc)
        except ValueError as exc:
            fh.close()
            os.remove(tmp)
            raise NumericFailureError(
                f"{path}: refusing to save a non-finite value ({exc})") from exc
        fh.write("\n")
    os.replace(tmp, path)


def load_document(path, expected_format):
    """Load a JSON object whose "format" is `expected_format`, or one of them
    when a tuple of formats is given."""
    path = os.fspath(path)

    def refuse_constant(token):
        raise ParseError(f"{path}: non-finite value {token} is not allowed")

    try:
        with open(path) as fh:
            try:
                doc = json.load(fh, parse_constant=refuse_constant)
            except json.JSONDecodeError as exc:
                raise ParseError(
                    f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
                ) from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value must be a JSON object")
    fmt = doc.get("format")
    accepted = expected_format if isinstance(expected_format, tuple) else (expected_format,)
    if fmt not in accepted:
        expected = " or ".join(repr(f) for f in accepted)
        raise UnsupportedVersionError(f"{path}: expected format {expected}, found {fmt!r}")
    return doc


def require_field(doc, path, key):
    if key not in doc:
        raise ParseError(f"{path}: missing field {key!r}")
    return doc[key]


def require_int(doc, path, key):
    """Fetch an integer field. Booleans, non-integral numbers and anything
    that is not a number raise ParseError."""
    value = require_field(doc, path, key)
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ParseError(f"{path}: field {key!r} must be an integer, found {value!r}")
    return int(value)


def _holds_bool(value):
    """Whether a JSON value is or holds true or false anywhere."""
    if not isinstance(value, list):
        return isinstance(value, bool)
    # map(type, ...) runs in C, so a long list of numbers is cheap to scan
    kinds = set(map(type, value))
    return bool in kinds or (list in kinds and any(map(_holds_bool, value)))


def numeric_array(raw, what):
    """A JSON number or nested list of numbers as a finite float array.

    Strings, booleans (also mixed in among numbers, which numpy would
    promote), nulls, ragged lists and numbers that overflow a float (the
    json module reads 1e400 as inf) raise ParseError naming `what`."""
    if _holds_bool(raw):
        raise ParseError(f"{what} is not numeric")
    try:
        arr = np.asarray(raw)
    except ValueError as exc:
        raise ParseError(f"{what} is not numeric") from exc
    if arr.dtype.kind not in "iuf":
        raise ParseError(f"{what} is not numeric")
    arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():
        raise ParseError(f"{what} holds a non-finite value")
    return arr


def require_array(doc, path, key, shape):
    """Fetch a numeric field (see `numeric_array`) as a float array of the
    given shape."""
    arr = numeric_array(require_field(doc, path, key), f"{path}: field {key!r}")
    if arr.shape != tuple(shape):
        raise ParseError(
            f"{path}: field {key!r} has shape {arr.shape}, expected {tuple(shape)}"
        )
    return arr


def encode_array(arr, path):
    """The base64 text of a float array's little-endian float64 bytes.

    Raises NumericFailureError naming `path` on a non-finite value, so a
    caller that encodes before saving leaves the target untouched."""
    arr = np.asarray(arr, dtype="<f8")
    if not np.isfinite(arr).all():
        raise NumericFailureError(f"{path}: refusing to save a non-finite value")
    return base64.b64encode(arr.tobytes()).decode("ascii")


def decode_array(doc, path, key, shape):
    """Fetch a field written by `encode_array` as a float array of the given shape."""
    raw = require_field(doc, path, key)
    if not isinstance(raw, str):
        raise ParseError(f"{path}: field {key!r} is not a base64 string")
    try:
        data = base64.b64decode(raw, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ParseError(f"{path}: field {key!r} is not valid base64") from exc
    size = int(np.prod(shape, dtype=np.int64))
    if len(data) != 8 * size:
        raise ParseError(
            f"{path}: field {key!r} holds {len(data)} bytes, expected {8 * size}")
    arr = np.frombuffer(data, dtype="<f8").astype(float).reshape(shape)
    if not np.isfinite(arr).all():
        raise ParseError(f"{path}: field {key!r} holds a non-finite value")
    return arr
