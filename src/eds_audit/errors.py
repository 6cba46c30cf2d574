"""Error types shared across the package."""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed input; ``offset``, a 0-based byte offset into graph6 text if
    known, is named at the end of the message."""

    def __init__(self, message: str, *, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


class CapacityError(RuntimeError):
    """A generator ran out of its retry budget before it made a graph."""
