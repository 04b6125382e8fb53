"""Shared JSON document helpers.

Every on-disk artifact is a JSON object with a "format" field naming its
schema ("skeleton/1", "motion/1", ...). Floats go through the stdlib encoder,
which emits shortest round-trip representations (>= 15 significant digits),
so save followed by load is bit-exact for finite values.

Writes land in "<path>.partial" first and are renamed into place; a crash
mid-write leaves the .partial file behind and never a truncated final file.
NaN and infinity are not JSON: a document holding one is refused, its
.partial file removed and the target left as it was. The writer walks the
nested objects itself and encodes each other value, or a slice of a long
list, with json.dumps, which takes the C encoder (json.dump always takes the
slower pure-Python one). The output is byte for byte
json.dumps(doc, sort_keys=True, allow_nan=False), but only a small piece of
it is held as text at a time.
"""

import json
import os

from .errors import NumericFailureError, ParseError, UnsupportedVersionError


# list items encoded per json.dumps call: json.dumps holds every item's text
# before joining it, so a long list goes out in slices
_LIST_SLICE = 1024


def _write_json(fh, value):
    """Write value as json.dumps(value, sort_keys=True, allow_nan=False)."""
    if isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        sep = "{"
        for key in sorted(value):
            fh.write(sep + json.dumps(key) + ": ")
            _write_json(fh, value[key])
            sep = ", "
        fh.write("}")
    elif isinstance(value, list) and len(value) > _LIST_SLICE:
        sep = "["
        for i in range(0, len(value), _LIST_SLICE):
            text = json.dumps(value[i:i + _LIST_SLICE], sort_keys=True, allow_nan=False)
            fh.write(sep + text[1:-1])
            sep = ", "
        fh.write("]")
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
    path = os.fspath(path)
    try:
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(
                    f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
                ) from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value must be a JSON object")
    fmt = doc.get("format")
    if fmt != expected_format:
        raise UnsupportedVersionError(
            f"{path}: expected format {expected_format!r}, found {fmt!r}"
        )
    return doc


def require_field(doc, path, key):
    if key not in doc:
        raise ParseError(f"{path}: missing field {key!r}")
    return doc[key]


def require_array(doc, path, key, shape):
    """Fetch a numeric field and coerce it to a float array of the given shape."""
    import numpy as np

    raw = require_field(doc, path, key)
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: field {key!r} is not numeric") from exc
    if arr.shape != tuple(shape):
        raise ParseError(
            f"{path}: field {key!r} has shape {arr.shape}, expected {tuple(shape)}"
        )
    return arr
