"""Error types shared across the package, each with the exit code the CLI gives it.

The exit-code contract, stated once: 0 success; 1 a sequence that fails the
check an operation needs (`InvalidSequence`); 2 a target out of range, a size
cap exceeded, an infeasible design or a degenerate target (`OutOfRange`,
`RangeError`, `Infeasible`, `DegenerateTarget`); 3 bad input, an unreadable
file or a rejected command line (`InvalidInput`, `ParseError`,
`cli.CliUsageError`). Every concrete error class sets `exit_code`.
"""

from __future__ import annotations


class NimsError(Exception):
    """Base class for all package errors."""
    exit_code: int


class InvalidInput(NimsError):
    """Malformed argument: wrong shape, empty input, mismatched lengths."""
    exit_code = 3


class InvalidSequence(NimsError):
    """Sequence fails the completeness-capability check required by the operation."""
    exit_code = 1


class OutOfRange(NimsError):
    """Requested target lies outside what the sequence can express."""
    exit_code = 2


class RangeError(NimsError):
    """Computation would exceed a configured size cap."""
    exit_code = 2


class Infeasible(NimsError):
    """No design satisfies the given constraints."""
    exit_code = 2


class DegenerateTarget(NimsError):
    """Nonzero voltage requested but the expressed multiple is zero."""
    exit_code = 2


class ParseError(NimsError):
    """A file could not be read, or a device or config document could not be parsed.

    Carries an optional row/field location for CSV sources.
    """
    exit_code = 3

    def __init__(self, message: str, row: int | None = None, field: str | None = None):
        where = [f"row {row}"] if row is not None else []
        if field is not None:
            where.append(f"field {field!r}")
        super().__init__(f"{', '.join(where)}: {message}" if where else message)
        self.row = row
        self.field = field
