"""Voltage bias planning: pick the integer multiple, then retune frequency.

A junction driven at frequency f contributes f/K_J volts per step, so an
array expressing the multiple m outputs m*f/K_J. Planning rounds the
requested voltage to the nearest multiple, represents it over the
sequence, and shifts the drive frequency so the expressed multiple lands
on the target exactly. The residual below the first bit is absorbed by
that same frequency shift.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Decimal

from .errors import DegenerateTarget, InvalidInput, OutOfRange, RangeError
from .representation import Representation, _descend, _descent
from .sequence import Sequence

# Exact SI defining constants.
ELEMENTARY_CHARGE_C = 1.602176634e-19
PLANCK_JS = 6.62607015e-34

# 2e/h in Hz per volt; the unit test recomputes this from the two values above.
JOSEPHSON_HZ_PER_VOLT = 483597848416983.6

DEFAULT_BAND_HALF_WIDTH = 0.005


@dataclass(frozen=True)
class BiasPlan:
    """One planned bias point: the multiple, its digits and the retuned frequency.

    Still a frozen dataclass: callers rebuild it with dataclasses.replace.
    """

    target_voltage: float
    base_frequency_hz: float
    m_target: int
    representation: Representation
    adjusted_frequency_hz: float
    achieved_voltage: float
    frequency_shift: float
    in_band: bool

    def to_doc(self) -> dict:
        return {
            "V": self.target_voltage,
            "f": self.base_frequency_hz,
            "m": self.m_target,
            "signs": list(self.representation.signs),
            "beta": self.representation.beta,
            "f_adjusted": self.adjusted_frequency_hz,
            "in_band": self.in_band,
        }

    def to_json(self) -> str:
        doc = self.to_doc()
        parts = [
            f'"V": {fixed_decimal(doc["V"])}',
            f'"f": {fixed_decimal(doc["f"])}',
            f'"m": {doc["m"]}',
            f'"signs": [{", ".join(str(s) for s in doc["signs"])}]',
            f'"beta": {doc["beta"]}',
            f'"f_adjusted": {fixed_decimal(doc["f_adjusted"])}',
            f'"in_band": {"true" if doc["in_band"] else "false"}',
        ]
        return "{" + ", ".join(parts) + "}"


def fixed_decimal(x: float) -> str:
    """Render a float in fixed notation with exact round-trip digits."""
    return format(Decimal(repr(float(x))), "f")


def _round_half_away(x: float) -> int:
    """Round to the nearest integer, halves away from zero.

    abs(x) - floor(abs(x)) is exact in floats, where abs(x) + 0.5 can
    round up: 0.49999999999999994 and the odd integers in [2**52, 2**53).
    """
    a = abs(x)
    f = math.floor(a)
    return (f + (a - f >= 0.5)) * (1 if x >= 0 else -1)


def _require_finite(what: str, x: float) -> None:
    if not math.isfinite(x):
        raise InvalidInput(f"{what} must be finite, got {x}")


def _as_float(what: str, n: int) -> float:
    """n as a float, the value int * float multiplies by; RangeError past float range."""
    try:
        return float(n)
    except OverflowError:
        raise RangeError(f"{what} exceeds the largest float, {sys.float_info.max:.4g}") from None


def _resolve_band(freq_hz: float, band: tuple[float, float] | None) -> tuple[float, float]:
    if band is None:
        band = (freq_hz * (1 - DEFAULT_BAND_HALF_WIDTH), freq_hz * (1 + DEFAULT_BAND_HALF_WIDTH))
    else:
        for edge in band:
            _require_finite("frequency band edge", edge)
    lo, hi = band
    if not 0 < lo <= hi:
        raise InvalidInput(f"bad frequency band ({lo}, {hi})")
    if not lo <= freq_hz <= hi:
        raise InvalidInput(f"base frequency {freq_hz} outside band ({lo}, {hi})")
    return lo, hi


def plan(volts: float, freq_hz: float, seq: Sequence, band: tuple[float, float] | None = None) -> BiasPlan:
    """Plan a bias point for the requested voltage.

    The adjusted frequency may fall outside the band; the plan is still
    returned, flagged in_band=False. Raises OutOfRange when the voltage
    needs a larger multiple than the array expresses even at the band
    top, DegenerateTarget when a nonzero voltage rounds to an expressed
    multiple of zero (no frequency shift can reach it), InvalidInput
    when the voltage, frequency or band is NaN or infinite,
    InvalidSequence when seq is not completeness capable, and RangeError
    when its total exceeds TOTAL_LIMIT or its headroom float range. The
    capability gate and the headroom read the table
    representation._descent keeps on seq, built by the first plan,
    represent or represent_range_check on that object.
    """
    _require_finite("voltage", volts)
    _require_finite("drive frequency", freq_hz)
    lo, hi = _resolve_band(freq_hz, band)
    table = _descent(seq)

    headroom = table[0]
    if abs(volts) * JOSEPHSON_HZ_PER_VOLT > _as_float("headroom", headroom) * hi:
        raise OutOfRange(
            f"{volts} V needs multiple {abs(volts) * JOSEPHSON_HZ_PER_VOLT / freq_hz:.1f}, "
            f"beyond {headroom} even at the band top"
        )

    if volts == 0:
        rep = _descend(0, seq, table)
        return BiasPlan(volts, freq_hz, 0, rep, freq_hz, 0.0, 0.0, True)

    m_target = _round_half_away(volts * JOSEPHSON_HZ_PER_VOLT / freq_hz)
    if abs(m_target) > headroom:
        raise OutOfRange(f"multiple {m_target} outside representable range {headroom}")
    rep = _descend(m_target, seq, table)
    if rep.expressed_m == 0:
        raise DegenerateTarget(
            f"{volts} V rounds to expressed multiple 0; retuning cannot reach it"
        )
    adjusted = volts * JOSEPHSON_HZ_PER_VOLT / rep.expressed_m
    if adjusted <= 0:
        raise DegenerateTarget("expressed multiple opposes the requested voltage")
    achieved = rep.expressed_m * adjusted / JOSEPHSON_HZ_PER_VOLT
    shift = abs(adjusted - freq_hz) / freq_hz
    return BiasPlan(
        volts, freq_hz, m_target, rep, adjusted, achieved, shift, lo <= adjusted <= hi
    )


def max_voltage(seq: Sequence, freq_hz: float) -> float:
    """Largest voltage the array expresses at the given frequency.

    Raises RangeError when the total is beyond float range.
    """
    if not freq_hz > 0:
        raise InvalidInput(f"drive frequency must be positive, got {freq_hz}")
    _require_finite("drive frequency", freq_hz)
    return _as_float("sequence total", seq.total) * freq_hz / JOSEPHSON_HZ_PER_VOLT


def resolution(seq: Sequence, freq_hz: float) -> float:
    """Voltage step between adjacent first-bit multiples, a_0 * f / K_J.

    Frequency retuning against the residual refines the effective step
    to a single junction's f/K_J. Raises RangeError when a_0 is beyond
    float range.
    """
    if not freq_hz > 0:
        raise InvalidInput(f"drive frequency must be positive, got {freq_hz}")
    _require_finite("drive frequency", freq_hz)
    return _as_float("first bit", seq.bits[0]) * freq_hz / JOSEPHSON_HZ_PER_VOLT
