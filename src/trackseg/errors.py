"""Exception types shared across the package.

The CLI maps these onto process exit codes; library code raises them
directly and never calls sys.exit.
"""

from __future__ import annotations

import numpy as np


class TracksegError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(TracksegError):
    """Invalid or inconsistent configuration."""


class DataError(TracksegError):
    """Problem with input data (files, records, cross references)."""


class ParseError(DataError):
    """Malformed input record; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConsistencyError(DataError):
    """Cross-reference violation (e.g. truth row without a matching hit)."""


class DomainError(TracksegError, ValueError):
    """Input outside an operation's mathematical domain."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row  # the row of a table's failing row


def check_rows(problems: dict, name, **values) -> None:
    """DomainError, carrying the row, for the first row a mask of
    `problems` ({message: mask}, in checking order) flags: name(row) and
    its first message, formatted with that row of each of `values`."""
    failed = np.any(list(problems.values()), axis=0)
    if failed.any():
        row = int(np.argmax(failed))
        problem = next(p for p, mask in problems.items() if mask[row])
        raise DomainError(name(row) + problem.format(
            **{key: value[row] for key, value in values.items()}), row=row)


class ShapeError(TracksegError, ValueError):
    """Array shape mismatch; the message names both shapes."""


class NumericError(TracksegError):
    """Non-finite value during training; carries location diagnostics."""

    def __init__(self, message: str, epoch: int | None = None,
                 graph_id: int | None = None, component: str | None = None):
        parts = [message]
        if epoch is not None:
            parts.append(f"epoch={epoch}")
        if graph_id is not None:
            parts.append(f"graph={graph_id}")
        if component is not None:
            parts.append(f"component={component}")
        super().__init__(" ".join(parts))
        self.detail = message
        self.epoch = epoch
        self.graph_id = graph_id
        self.component = component
