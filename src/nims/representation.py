"""Signed-digit representation of integer targets over a bit sequence, and the bias plans built on it.

The representation walks bits from most to least significant, activating a
bit whenever the remainder's magnitude reaches the activation threshold
(the running total below the bit, plus the first bit count). The chain
inequality 3*a_n - A_n <= A_n + a_0 guarantees the remainder never
overshoots, so the walk always lands with a residual smaller than a_0.

A junction driven at frequency f contributes f/K_J volts per step (K_J
from units), so an array expressing the multiple m outputs m*f/K_J.
Planning rounds the requested voltage to the nearest multiple,
represents it over the sequence, and shifts the drive frequency so the
expressed multiple lands on the target exactly. The residual below the
first bit is absorbed by that same frequency shift, and so is a rounded
multiple past the table's bound that the band top still reaches: it is
clamped to the bound.

The two entry points, represent and plan, read their own arguments, then
the table sequence._descent stores on seq, and run the kernel _greedy on
its rows. Reading the table refuses, on every call and in this order, a
seq that is not a Sequence (InvalidInput), one not completeness capable
(InvalidSequence) and one whose total exceeds TOTAL_LIMIT (RangeError);
so the table's bound, below 2**63, is tested after the limit, and
multiplies a float without leaving float range. Representation and
BiasPlan are frozen dataclasses, for dataclasses.replace, each built by
one item store into the instance dict a field, in field order: cheaper
than one update call with keywords, which builds a dict of them first,
and far cheaper than one object.__setattr__ a field.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

from .errors import DegenerateTarget, InvalidInput, OutOfRange, int_text, repr_text
from .sequence import Sequence, _descent, _integer, _require_type
from .units import JOSEPHSON_HZ_PER_VOLT, _require_finite, _require_frequency, fixed_decimal

DEFAULT_BAND_HALF_WIDTH = 0.005
# the default band's edges as factors of the drive frequency, the floats plan multiplies by
_BAND_LOW = 1 - DEFAULT_BAND_HALF_WIDTH
_BAND_HIGH = 1 + DEFAULT_BAND_HALF_WIDTH

# the plan's floats that JSON, CSV and the table print in fixed notation
FIXED_KEYS = ("V", "f", "f_adjusted")


@dataclass(frozen=True, init=False)
class Representation:
    """Digits in {-1, 0, +1} per bit plus the residual beta."""

    __module__ = "nims"

    signs: tuple[int, ...]
    beta: int
    target_m: int
    expressed_m: int

    def __init__(self, signs: tuple[int, ...], beta: int, target_m: int, expressed_m: int) -> None:
        d = self.__dict__
        d["signs"] = signs
        d["beta"] = beta
        d["target_m"] = target_m
        d["expressed_m"] = expressed_m

    def to_doc(self) -> dict:
        return {"m": self.target_m, "signs": list(self.signs), "beta": self.beta}


@dataclass(frozen=True, init=False)
class BiasPlan:
    """One planned bias point: the multiple, its digits and the retuned frequency."""

    __module__ = "nims"

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
        d = self.__dict__
        d["target_voltage"] = target_voltage
        d["base_frequency_hz"] = base_frequency_hz
        d["m_target"] = m_target
        d["representation"] = representation
        d["adjusted_frequency_hz"] = adjusted_frequency_hz
        d["achieved_voltage"] = achieved_voltage
        d["frequency_shift"] = frequency_shift
        d["in_band"] = in_band

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


def _greedy(m: int, bits: tuple[int, ...], steps: tuple) -> Representation:
    """The greedy kernel: one walk of m down the rows of sequence._descent's table, bit 0 the last.

    The caller has read m as an int within the bound, and steps off a
    capable sequence's table. Ties at the residual level prefer beta over
    activating the first bit, which keeps junction usage minimal. Two
    invariants are checked with explicit raises, so they hold under
    python -O: after each bit the remainder stays within the row's slack,
    after bit 0 the residual bound |beta| < a_0, and the digits plus the
    residual give back m.
    """
    signs = [0] * len(bits)
    r = m
    for n, a, threshold, neg_threshold, slack, neg_slack in steps:
        # the gate keeps a_0 >= 1, so every threshold is at least 1: the two
        # tests are abs(r) >= threshold split by the sign of r
        if r >= threshold:
            signs[n] = 1
            r -= a
        elif r <= neg_threshold:
            signs[n] = -1
            r += a
        if r > slack or r < neg_slack:
            raise AssertionError(f"remainder {r} broke the descent bound at bit {n}")

    expressed = sum(map(operator.mul, signs, bits))
    if expressed + r != m:
        raise AssertionError(f"digits sum to {expressed} with residual {r}: not target {m}")
    return Representation(tuple(signs), r, m, expressed)


def represent(m: int, seq: Sequence) -> Representation:
    """Greedy signed-digit decomposition of m over seq: the checks, then the kernel _greedy.

    m is read by the one integer rule, sequence._integer: a bool, float or
    other non-integer raises InvalidInput. Then the table's refusals, and
    OutOfRange when |m| exceeds its bound, A_N + a_0 - 1.
    """
    m = _integer("target", m)
    bound, steps = _descent(seq)
    if abs(m) > bound:
        raise OutOfRange(f"target {int_text(m)} outside [-{bound}, {bound}]")
    return _greedy(m, seq.bits, steps)


def evaluate(rep: Representation, seq: Sequence) -> int:
    """Recover the integer rep denotes over seq.

    InvalidInput when rep or seq is of another type, the digits and bits
    differ in number, a digit is not -1, 0 or 1, or a digit or the
    residual is not a plain int: 1.0 and True pass `in (-1, 0, 1)`.
    """
    _require_type("rep", rep, Representation)
    _require_type("seq", seq, Sequence)
    if len(rep.signs) != len(seq.bits):
        raise InvalidInput(
            f"representation has {len(rep.signs)} digits, sequence has {len(seq.bits)} bits"
        )
    if any(type(s) is not int or s not in (-1, 0, 1) for s in rep.signs):
        raise InvalidInput("digits must be -1, 0, or +1")
    if type(rep.beta) is not int:
        raise InvalidInput(f"residual must be an integer, got {repr_text(rep.beta)}")
    return sum(s * a for s, a in zip(rep.signs, seq.bits)) + rep.beta


def _round_half_away(x: float) -> int:
    """Round to the nearest integer, halves away from zero.

    abs(x) - floor(abs(x)) is exact in floats, where abs(x) + 0.5 can
    round up: 0.49999999999999994 and the odd integers in [2**52, 2**53).
    """
    a = abs(x)
    f = math.floor(a)
    return (f + (a - f >= 0.5)) * (1 if x >= 0 else -1)


def _resolve_band(freq_hz: float, band: tuple[float, float] | None) -> tuple[float, float]:
    """The band's (low, high) edges around the freq_hz that _require_frequency accepted.

    The default band skips the checks, which it cannot fail: 0 < low <=
    freq_hz <= high (high may be inf). An explicit band is read as one
    tuple first, as Sequence reads its bits, so no check uses up an iterator.
    """
    if band is None:
        return freq_hz * _BAND_LOW, freq_hz * _BAND_HIGH
    try:
        edges = tuple(band)
    except (TypeError, ValueError):  # not iterable, or its iteration failed
        edges = None
    else:
        for edge in edges:
            _require_finite("frequency band edge", edge)
    if edges is None or len(edges) != 2:
        # an iterator is named by the edges it gave: its own repr holds an address
        named = edges if edges is not None and iter(band) is band else band
        raise InvalidInput(f"bad frequency band {repr_text(named)}: expected two edges (low, high)")
    lo, hi = edges
    if not 0 < lo <= hi:
        raise InvalidInput(f"bad frequency band ({lo}, {hi})")
    if not lo <= freq_hz <= hi:
        raise InvalidInput(f"base frequency {freq_hz} outside band ({lo}, {hi})")
    return lo, hi


def plan(volts: float, freq_hz: float, seq: Sequence, band: tuple[float, float] | None = None) -> BiasPlan:
    """Plan a bias point for the requested voltage.

    The adjusted frequency may fall outside the band; the plan is still
    returned, flagged in_band=False. InvalidInput when the voltage,
    frequency or a band edge is not a number or is NaN or infinite, the
    frequency is not positive or the band is not two edges; RangeError
    when one is an int past float range. Then the table's refusals, its
    bound the headroom; then OutOfRange when the voltage needs a multiple
    past float range or past the headroom even at the band top, the one
    range rule. A multiple that, rounded at the base frequency, passes the
    headroom is clamped to it and reached by retuning, as any residual is.
    DegenerateTarget when a nonzero voltage rounds to an expressed
    multiple of zero (no frequency shift can reach it).
    """
    _require_finite("voltage", volts)
    _require_frequency(freq_hz)
    lo, hi = _resolve_band(freq_hz, band)
    headroom, steps = _descent(seq)
    multiple = volts * JOSEPHSON_HZ_PER_VOLT / freq_hz
    if math.isinf(multiple):  # overflowed in the product or in the quotient alone: the band-top test words no inf
        raise OutOfRange(f"{volts} V at {freq_hz} Hz needs a multiple past float range, beyond {headroom}")
    if abs(volts) * JOSEPHSON_HZ_PER_VOLT > headroom * hi:
        raise OutOfRange(
            f"{volts} V needs multiple {abs(volts) * JOSEPHSON_HZ_PER_VOLT / freq_hz:.1f}, "
            f"beyond {headroom} even at the band top"
        )

    m_target = _round_half_away(multiple)
    if m_target > headroom:
        m_target = headroom
    elif m_target < -headroom:
        m_target = -headroom
    rep = _greedy(m_target, seq.bits, steps)
    if volts == 0:
        return BiasPlan(volts, freq_hz, 0, rep, freq_hz, 0.0, 0.0, True)
    expressed = rep.expressed_m
    if expressed == 0:
        raise DegenerateTarget(
            f"{volts} V rounds to expressed multiple 0; retuning cannot reach it"
        )
    adjusted = volts * JOSEPHSON_HZ_PER_VOLT / expressed
    if adjusted <= 0:
        raise DegenerateTarget("expressed multiple opposes the requested voltage")
    achieved = expressed * adjusted / JOSEPHSON_HZ_PER_VOLT
    shift = abs(adjusted - freq_hz) / freq_hz
    return BiasPlan(
        volts, freq_hz, m_target, rep, adjusted, achieved, shift, lo <= adjusted <= hi
    )
