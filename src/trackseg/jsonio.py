"""Artifacts on disk: write text atomically; read JSON, check the
format tag, the type of each number and the shape of each stored table.

A write goes to a sibling temp file that is then renamed over the
target, so a failed write keeps any earlier artifact intact.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

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


def numbers(values, kind: type = float, what: str = "values") -> None:
    """ConsistencyError unless every one of the iterable `values` is a
    JSON number of `kind`.  One pass collects their types, so the check
    costs little per value."""
    for t in set(map(type, values)):
        if t is bool or not issubclass(t, _NUMBER_TYPES[kind]):
            raise ConsistencyError(f"expected {kind.__name__} {what}, "
                                   f"found {t.__name__}")


def to_columns(names, rows) -> dict[str, list]:
    """The object of columns `names` that stores the table `rows`."""
    return {name: [row[i] for row in rows] for i, name in enumerate(names)}


def columns(doc, kinds: dict) -> list[list]:
    """The columns `kinds` names of the stored table `doc`, in order; a
    missing one raises KeyError, a bad one ConsistencyError naming it,
    and a `doc` that is no object ConsistencyError naming them all."""
    if not isinstance(doc, dict):
        raise ConsistencyError(f"expected a table of columns "
                               f"{', '.join(map(repr, kinds))}, found "
                               f"{type(doc).__name__}")
    out = [doc[name] for name in kinds]
    for (name, kind), column in zip(kinds.items(), out):
        if not (isinstance(column, list) and len(column) == len(out[0])):
            raise ConsistencyError(f"column {name!r} is not an array as "
                                   f"long as column {next(iter(kinds))!r}")
        numbers(column, kind, f"values in column {name!r}")
    return out


def number(value, kind: type = float):
    """`value` as `kind` if it is a JSON number of that kind, else
    ConsistencyError."""
    if type(value) is not kind:
        numbers((value,), kind)
    return kind(value)
