"""Error types shared across the package, each with the exit code the CLI gives it.

The exit-code contract, stated once: 0 success; 1 a sequence that fails the
check an operation needs (`InvalidSequence`); 2 a target out of range, a size
cap exceeded, an infeasible design or a degenerate target (`OutOfRange`,
`RangeError`, `Infeasible`, `DegenerateTarget`); 3 bad input, an unreadable
file or a rejected command line (`InvalidInput`, `ParseError`,
`cli.CliUsageError`). Every concrete error class sets `exit_code`.

Beside them, the one rule for writing a large number as text: CPython's
str refuses an int of more digits than sys.get_int_max_str_digits(), so
a refusal words such an int by its digit count (int_text), and any
other value it shows by repr_text; a Fraction that cannot be written is
refused as RangeError when it is rendered (fraction_text).
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

# log10(2) to 30 places, scaled by 10**30
_LOG10_2 = 301029995663981195213738894724


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


def digit_count(n: int) -> int:
    """The decimal digits of abs(n), 1 for 0, from its bit_length and one comparison with a power of ten.

    Never from str, which refuses an int past the interpreter's digit
    limit. An int of b bits lies in [2^(b-1), 2^b), so it has the digits
    of 2^(b-1), floor((b - 1) log10 2) + 1, or one more exactly when it
    reaches the next power of ten.
    """
    n = abs(n)
    digits = max(n.bit_length() - 1, 0) * _LOG10_2 // 10**30 + 1
    return digits + (n >= 10**digits)


def _unwritable_digits(n: int) -> int:
    """digit_count(n) when str refuses to write n, else 0.

    The limit is 0 (none) or at least 640 digits, and an int below
    2^(3 * limit) has fewer digits than the limit, so a short int costs
    one bit_length.
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit or n.bit_length() <= 3 * limit:
        return 0
    digits = digit_count(n)
    return digits if digits > limit else 0


def int_text(n: int) -> str:
    """n in decimal for a message, or "<d digits>", "-<d digits>" below zero, where str would refuse to write it."""
    digits = _unwritable_digits(n)
    return f"{'-' * (n < 0)}<{digits} digits>" if digits else str(n)


def repr_text(value: object) -> str:
    """repr(value) for a message; an int too long for str is worded by int_text, a value holding one by its type."""
    try:
        return repr(value)
    except ValueError:  # the digit limit of CPython's int-to-string conversion
        if isinstance(value, int):
            return int_text(value)
        return f"<{type(value).__name__} holding a number too long to write>"


def fraction_text(what: str, value: Fraction) -> str:
    """str(value), or RangeError when its numerator or denominator has more digits than str writes.

    Called where a Fraction is rendered (a document, CSV or table), not
    where it is computed, so a library call that only computes pays nothing.
    """
    for part, n in (("numerator", value.numerator), ("denominator", value.denominator)):
        digits = _unwritable_digits(n)
        if digits:
            raise RangeError(
                f"{what} cannot be written as text: its {part} has {digits} digits, "
                f"past the interpreter's limit of {sys.get_int_max_str_digits()}"
            )
    return str(value)
