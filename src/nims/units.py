"""Volts from junction steps: the exact SI constants and the array's voltage scales.

A junction driven at frequency f contributes f/K_J volts per step, so n
steps at f give n*f/K_J. The device report, the bias planner and the CLI
read these; none of them needs the planner to do so. decimal is loaded by
fixed_decimal alone, when it first writes a float.
"""

from __future__ import annotations

import math
import sys

from .errors import InvalidInput, RangeError, repr_text
from .sequence import Sequence, _require_type

# Exact SI defining constants.
ELEMENTARY_CHARGE_C = 1.602176634e-19
PLANCK_JS = 6.62607015e-34

# 2e/h in Hz per volt; the unit test recomputes this from the two values above.
JOSEPHSON_HZ_PER_VOLT = 483597848416983.6


def fixed_decimal(x: float) -> str:
    """Render a float in fixed notation with exact round-trip digits."""
    from decimal import Decimal

    return format(Decimal(repr(float(x))), "f")


def _require_finite(what: str, x: float) -> None:
    """Refuse an x that is not a number, NaN or infinite (InvalidInput), or an int past float range (RangeError)."""
    try:
        finite = math.isfinite(x)
    except TypeError:
        raise InvalidInput(f"{what} must be a number, got {repr_text(x)}") from None
    except OverflowError:  # an int past float range, refused by _as_float
        _as_float(what, x)
    if not finite:
        raise InvalidInput(f"{what} must be finite, got {x}")


def _require_frequency(freq_hz: float) -> None:
    """Refuse with InvalidInput a drive frequency that is not a number, not finite, or not positive.

    The one statement of the refusal, read by _volts and representation.plan:
    finiteness first, so NaN is refused as not finite wherever it is passed.
    """
    _require_finite("drive frequency", freq_hz)
    if freq_hz <= 0:
        raise InvalidInput(f"drive frequency must be positive, got {freq_hz}")


def _as_float(what: str, n: int) -> float:
    """n as a float, the value int * float multiplies by; RangeError past float range."""
    try:
        return float(n)
    except OverflowError:
        raise RangeError(f"{what} exceeds the largest float, {sys.float_info.max:.4g}") from None


def _volts(what: str, n: int, freq_hz: float) -> float:
    """n junction steps at freq_hz in volts, n * f / K_J: what max_voltage and resolution share.

    Raises InvalidInput for a frequency that is not a positive, finite
    number, and RangeError when n, or the voltage, is beyond float range.
    """
    _require_frequency(freq_hz)
    volts = _as_float(what, n) * freq_hz / JOSEPHSON_HZ_PER_VOLT
    if not math.isfinite(volts):
        raise RangeError(
            f"{what} times the drive frequency exceeds the largest float, {sys.float_info.max:.4g}"
        )
    return volts


def max_voltage(seq: Sequence, freq_hz: float) -> float:
    """Largest voltage the array expresses at the given frequency.

    Raises RangeError when the total, or the voltage, is beyond float
    range, and InvalidInput when seq is not a Sequence.
    """
    _require_type("seq", seq, Sequence)
    return _volts("sequence total", seq.total, freq_hz)


def resolution(seq: Sequence, freq_hz: float) -> float:
    """Voltage step between adjacent first-bit multiples, a_0 * f / K_J.

    Frequency retuning against the residual refines the effective step
    to a single junction's f/K_J. Raises RangeError when a_0, or the
    step, is beyond float range, and InvalidInput when seq is not a
    Sequence.
    """
    _require_type("seq", seq, Sequence)
    return _volts("first bit", seq.bits[0], freq_hz)
