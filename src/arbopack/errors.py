"""Exception types shared across the package."""

from __future__ import annotations


class ArbopackError(Exception):
    """Base class for package-specific errors."""


class ParseError(ArbopackError):
    """Malformed input document; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CapacityError(ArbopackError):
    """An exhaustive code path was asked to exceed a configured bound.

    ``limit`` is the bound, ``observed`` the size that exceeded it, and
    ``atom`` the 0-based index of the atom being solved; each is None
    where the raising code does not know it.
    """

    def __init__(
        self,
        message: str,
        limit: int | None = None,
        observed: int | None = None,
        atom: int | None = None,
    ):
        super().__init__(message)
        self.limit = limit
        self.observed = observed
        self.atom = atom


class InvariantError(ArbopackError):
    """Internal consistency breach.  Indicates a bug, not bad input."""
