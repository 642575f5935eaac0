"""Artifacts on disk: write text atomically; read JSON, check the
format tag and the type of each number; store numeric tables as binary
columns and check each one on read.

A write goes to a sibling temp file that is then renamed over the
target, so a failed write keeps any earlier artifact intact.

A stored table is a JSON object of columns, each a pair [dtype, base64
of the column's little-endian bytes].  A column's kind fixes its dtype:
"<i8" for int, "<f8" for float.  By hand, np.frombuffer(
base64.b64decode(data), dtype) reads one.
"""

from __future__ import annotations

import base64
import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ConsistencyError, ParseError


def write_atomic(path, text: str) -> None:
    """Write `text` to `path` through a temp sibling renamed over it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path, doc: dict) -> None:
    write_atomic(path, json.dumps(doc))


def read_json(path) -> dict:
    """Decode a JSON file; malformed JSON, bytes that are not UTF-8 text
    and nesting too deep to decode raise ParseError."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ParseError(f"{path} is not valid JSON: {err.msg}",
                         line=err.lineno) from err
    except (UnicodeDecodeError, RecursionError) as err:
        raise ParseError(f"{path} is not valid JSON: {err}") from err


@contextmanager
def parsing(doc, doc_format: str, hint: str):
    """Reject a document without the expected format tag; one of the
    same kind (the text before "-v") in another version is named with
    the reader's `hint`, say how to get a current one.  Inside the
    block, a KeyError becomes a ConsistencyError naming the key, and the
    errors a value of the wrong type, length or range raises become a
    ConsistencyError too; among the package's errors these are the
    ValueErrors (DomainError, e.g. a stored ellipse with a < b, and
    ShapeError), while ConfigError and DataError pass through."""
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != doc_format:
        if isinstance(found, str) and found.startswith(
                doc_format.partition("-v")[0] + "-v"):
            raise ConsistencyError(f"{found} document: {hint}")
        raise ConsistencyError(f"not a {doc_format} document: "
                               f"format={found!r}")
    try:
        yield
    except KeyError as err:
        raise ConsistencyError(f"{doc_format} document lacks key {err}") \
            from err
    except (AttributeError, IndexError, OverflowError, TypeError,
            ValueError) as err:
        raise ConsistencyError(f"{doc_format} document has a bad value: "
                               f"{err}") from err


# what a JSON number of each kind must be an instance of: a bool is no
# number, an int kind takes only an int and a float kind an int too
_NUMBER_TYPES = {int: int, float: (int, float)}


# the dtype of a stored column of each kind
DTYPES = {int: "<i8", float: "<f8"}


def to_base64(values, dtype: str) -> str:
    """Base64 of the little-endian bytes of `values` as `dtype`."""
    return base64.b64encode(np.asarray(values, dtype).tobytes()).decode()


def from_base64(text, dtype: str, what: str) -> np.ndarray:
    """The read-only values the base64 string `text` stores as `dtype`.
    ConsistencyError names `what` unless `text` is a string of the
    base64 alphabet alone (no whitespace) that decodes to whole 8-byte
    values, all finite for a float dtype."""
    if not isinstance(text, str):
        raise ConsistencyError(f"{what} is not a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as err:  # binascii.Error, or a non-ASCII character
        raise ConsistencyError(f"{what} is not base64: {err}") from err
    if len(raw) % 8:
        raise ConsistencyError(f"{what} has {len(raw)} bytes, not a "
                               f"multiple of element size 8")
    values = np.frombuffer(raw, dtype)
    if values.dtype.kind == "f":
        bad = ~np.isfinite(values)
        if bad.any():
            raise ConsistencyError(f"{what} has a non-finite value at row "
                                   f"{int(np.argmax(bad))}")
    return values


def encode_table(kinds: dict, columns) -> dict:
    """The stored table of `columns`, a sequence of numbers for each name
    of `kinds` in order; no columns at all (zip(*rows) of no rows) store
    a table without rows."""
    columns = list(columns) or [()] * len(kinds)
    return {name: [DTYPES[kind], to_base64(column, DTYPES[kind])]
            for (name, kind), column in zip(kinds.items(), columns)}


def decode_table(doc, kinds: dict) -> list[np.ndarray]:
    """The read-only columns `kinds` names of the stored table `doc`, in
    order.  A missing column raises KeyError; one that is not a pair of
    strings [dtype, base64], has another kind's dtype, fails from_base64
    or is not as long as the first raises ConsistencyError naming it, and
    a `doc` that is no object ConsistencyError naming them all."""
    if not isinstance(doc, dict):
        raise ConsistencyError(f"expected a table of columns "
                               f"{', '.join(map(repr, kinds))}, found "
                               f"{type(doc).__name__}")
    out = []
    for name, kind in kinds.items():
        column, what = doc[name], f"column {name!r}"
        if not (isinstance(column, list) and len(column) == 2 and
                all(isinstance(part, str) for part in column)):
            raise ConsistencyError(f"{what} is not a [dtype, base64] pair")
        if column[0] != DTYPES[kind]:
            raise ConsistencyError(f"{what} has dtype {column[0]!r}, "
                                   f"expected {DTYPES[kind]!r}")
        out.append(from_base64(column[1], DTYPES[kind], what))
        if len(out[-1]) != len(out[0]):
            raise ConsistencyError(f"{what} has {len(out[-1])} values, "
                                   f"column {next(iter(kinds))!r} "
                                   f"{len(out[0])}")
    return out


def number(value, kind: type = float):
    """`value` as `kind` if it is a JSON number of that kind, else
    ConsistencyError."""
    found = type(value)
    if found is bool or not issubclass(found, _NUMBER_TYPES[kind]):
        raise ConsistencyError(f"expected {kind.__name__}, found "
                               f"{found.__name__}")
    return kind(value)
