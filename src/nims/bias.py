"""Voltage bias planning: pick the integer multiple, then retune frequency.

A junction driven at frequency f contributes f/K_J volts per step (K_J
from units), so an array expressing the multiple m outputs m*f/K_J.
Planning rounds the requested voltage to the nearest multiple,
represents it over the sequence, and shifts the drive frequency so the
expressed multiple lands on the target exactly. The residual below the
first bit is absorbed by that same frequency shift.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import DegenerateTarget, InvalidInput, OutOfRange
from .representation import Representation, _greedy
from .sequence import Sequence, _descent
from .units import JOSEPHSON_HZ_PER_VOLT, _require_finite, _require_frequency, fixed_decimal

DEFAULT_BAND_HALF_WIDTH = 0.005

# the plan's floats that JSON, CSV and the table print in fixed notation
FIXED_KEYS = ("V", "f", "f_adjusted")


@dataclass(frozen=True, init=False)
class BiasPlan:
    """One planned bias point: the multiple, its digits and the retuned frequency.

    A frozen dataclass, so that callers can rebuild it with
    dataclasses.replace, built by a constructor that stores every field in
    one update of the instance dict instead of one object.__setattr__ each.
    """

    target_voltage: float
    base_frequency_hz: float
    m_target: int
    representation: Representation
    adjusted_frequency_hz: float
    achieved_voltage: float
    frequency_shift: float
    in_band: bool

    def __init__(
        self,
        target_voltage: float,
        base_frequency_hz: float,
        m_target: int,
        representation: Representation,
        adjusted_frequency_hz: float,
        achieved_voltage: float,
        frequency_shift: float,
        in_band: bool,
    ) -> None:
        self.__dict__.update(
            target_voltage=target_voltage,
            base_frequency_hz=base_frequency_hz,
            m_target=m_target,
            representation=representation,
            adjusted_frequency_hz=adjusted_frequency_hz,
            achieved_voltage=achieved_voltage,
            frequency_shift=frequency_shift,
            in_band=in_band,
        )

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
        """to_doc as JSON text, the FIXED_KEYS floats in fixed notation."""
        return "{" + ", ".join(
            f'"{key}": {fixed_decimal(value) if key in FIXED_KEYS else json.dumps(value)}'
            for key, value in self.to_doc().items()
        ) + "}"


def _round_half_away(x: float) -> int:
    """Round to the nearest integer, halves away from zero.

    abs(x) - floor(abs(x)) is exact in floats, where abs(x) + 0.5 can
    round up: 0.49999999999999994 and the odd integers in [2**52, 2**53).
    """
    a = abs(x)
    f = math.floor(a)
    return (f + (a - f >= 0.5)) * (1 if x >= 0 else -1)


def _resolve_band(freq_hz: float, band: tuple[float, float] | None) -> tuple[float, float]:
    if band is None:
        lo, hi = freq_hz * (1 - DEFAULT_BAND_HALF_WIDTH), freq_hz * (1 + DEFAULT_BAND_HALF_WIDTH)
    else:
        try:
            for edge in band:
                _require_finite("frequency band edge", edge)
            lo, hi = band
        except (TypeError, ValueError):  # not iterable, or not two edges
            raise InvalidInput(f"bad frequency band {band!r}: expected two edges (low, high)") from None
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
    when the voltage, frequency or a band edge is not a number or is NaN
    or infinite, the frequency is not positive, the band is not two
    edges or seq is not a Sequence,
    InvalidSequence when seq is not completeness capable, and RangeError
    when its total exceeds TOTAL_LIMIT. The table sequence._descent keeps
    on seq, built by the first plan, represent or represent_range_check
    on that object, is read once: building it refuses the limit, before
    the headroom tests, so the headroom is below 2**63 and multiplies a
    float without leaving float range. Its bound is the headroom, and its
    rows go straight to the greedy kernel representation._greedy, since
    the multiple plan rounds is an int already tested against that bound.
    """
    _require_finite("voltage", volts)
    _require_frequency(freq_hz)
    lo, hi = _resolve_band(freq_hz, band)
    headroom, steps = _descent(seq)
    if abs(volts) * JOSEPHSON_HZ_PER_VOLT > headroom * hi:
        raise OutOfRange(
            f"{volts} V needs multiple {abs(volts) * JOSEPHSON_HZ_PER_VOLT / freq_hz:.1f}, "
            f"beyond {headroom} even at the band top"
        )

    m_target = _round_half_away(volts * JOSEPHSON_HZ_PER_VOLT / freq_hz)
    if abs(m_target) > headroom:
        raise OutOfRange(f"multiple {m_target} outside representable range {headroom}")
    rep = _greedy(m_target, seq.bits, steps)
    if volts == 0:
        return BiasPlan(volts, freq_hz, 0, rep, freq_hz, 0.0, 0.0, True)
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

