"""Exception types shared across the package.

The CLI maps these onto process exit codes; library code raises them
directly and never calls sys.exit.
"""

from __future__ import annotations


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


class FitError(TracksegError):
    """Least-squares fit failure; carries the condition number seen."""

    def __init__(self, message: str, condition: float | None = None):
        if condition is not None:
            message = f"{message} (condition number {condition:.3e})"
        super().__init__(message)
        self.condition = condition


class ShapeError(TracksegError, ValueError):
    """Array shape mismatch; the message names both shapes."""


class StateError(TracksegError, RuntimeError):
    """Object used in an invalid lifecycle state (e.g. tape reuse)."""


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
