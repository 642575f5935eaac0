"""JSON artifacts on disk: read, write atomically, check the format tag.

A write goes to a sibling temp file that is then renamed over the
target, so a failed write leaves any earlier artifact intact.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import ConsistencyError, ParseError, TracksegError


def write_json(path, doc: dict) -> None:
    path = Path(path)
    text = json.dumps(doc)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ParseError(f"{path} is not valid JSON: {err.msg}",
                         line=err.lineno) from err


@contextmanager
def parsing(doc, doc_format: str):
    """Reject a document without the expected format tag.  Inside the
    block, a KeyError becomes a ConsistencyError naming the key, and a
    TypeError or ValueError from a value of the wrong type becomes a
    ConsistencyError too; package errors pass through unchanged."""
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != doc_format:
        raise ConsistencyError(f"not a {doc_format} document: "
                               f"format={found!r}")
    try:
        yield
    except TracksegError:
        raise
    except KeyError as err:
        raise ConsistencyError(f"{doc_format} document lacks key {err}") \
            from err
    except (TypeError, ValueError) as err:
        raise ConsistencyError(f"{doc_format} document has a bad value: "
                               f"{err}") from err
