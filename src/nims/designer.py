"""Array design: grow an LSB chain, then fill with equal MSB banks.

The chain grows as fast as the fault-tolerance reserve allows,
a_{n+1} = 3 * (a_n - reserve), optionally capped by a ratio limit.
Once three times the reserved headroom reaches the bank size, the rest
of the junction budget is laid out as equal banks, with one trimmed bank
absorbing the remainder so the total comes out exact. The trimmed bank
leads the bank section when it is large enough to sustain the chain into
a full bank, and trails otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, NamedTuple

from .errors import Infeasible, InvalidInput, RangeError
from .fault_tolerance import _tolerance_table
from .sequence import (
    Sequence,
    _chain_capable,
    _Frozen,
    _integer,
    _refusal,
    csv_rows,
    read_json,
)

if TYPE_CHECKING:
    from pathlib import Path

BRANCH_COUNT = 16
STANDARD_RATIOS = {"binary": 2, "ternary": 3}
# The most bits a designed, standard or compared layout may have. The measured
# device has 23; the limit stops a huge target total or column count from
# laying out millions of banks, one list entry each.
MAX_LAYOUT_BITS = 10_000


def _within_limit(bits: int) -> None:
    if bits > MAX_LAYOUT_BITS:
        raise RangeError(f"layout of {bits} bits exceeds the limit of {MAX_LAYOUT_BITS}")


def _comparison_sizes(lsb_count: int, msb_size: int) -> tuple[int, int]:
    """compare_logics' sizes by sequence._integer: both at least 1, lsb_count within the layout limit."""
    lsb_count, msb_size = _integer("lsb_count", lsb_count), _integer("msb_size", msb_size)
    if lsb_count < 1 or msb_size < 1:
        raise InvalidInput("lsb_count and msb_size must be positive")
    _within_limit(lsb_count)
    return lsb_count, msb_size


class ToleranceRule(_Frozen):
    """Bits holding at_least junctions must tolerate `tolerance` losses.

    Both are converted by sequence._integer, and at_least >= 1 and
    tolerance >= 0 are checked: a class that checks its input when built.
    """

    __slots__ = ("at_least", "tolerance")
    _fields = ("at_least", "tolerance")
    at_least: int
    tolerance: int

    def __init__(self, at_least: int, tolerance: int) -> None:
        at_least = _integer("tolerance rule at_least", at_least)
        tolerance = _integer("tolerance rule tolerance", tolerance)
        if at_least < 1 or tolerance < 0:
            raise InvalidInput("tolerance rule needs at_least >= 1 and tolerance >= 0")
        object.__setattr__(self, "at_least", at_least)
        object.__setattr__(self, "tolerance", tolerance)

    @classmethod
    def from_text(cls, text: str) -> "ToleranceRule":
        """Parse 'AT_LEAST:TOL', as the CLI and the design script take it."""
        at_least, colon, tolerance = text.partition(":")
        if not colon:
            raise InvalidInput(f"min tolerance {text!r} must be AT_LEAST:TOLERANCE")
        return cls(at_least, tolerance)


def _decimal_exponent(text: str) -> int:
    """Decimal(text).adjusted(), 0 for every ratio in (1, 3] and for text that is not decimal."""
    from decimal import Decimal, InvalidOperation

    try:
        return Decimal(text).adjusted()
    except InvalidOperation:
        return 0


class DesignSpec(_Frozen):
    """What design lays out: first bit, bank size, junction total, tolerance rules, ratio cap.

    The three sizes are converted by sequence._integer and max_ratio by
    Fraction, then range-checked: a class that checks its input when built.
    """

    __slots__ = ("a0", "msb_size", "target_total", "min_tolerance", "max_ratio")
    _fields = __slots__
    a0: int
    msb_size: int
    target_total: int
    min_tolerance: tuple[ToleranceRule, ...]
    max_ratio: Fraction

    def __init__(
        self,
        a0: int,
        msb_size: int,
        target_total: int,
        min_tolerance: tuple[ToleranceRule, ...] = (),
        max_ratio: Fraction | int | str = Fraction(3),
    ) -> None:
        a0 = _integer("a0", a0)
        msb_size = _integer("msb_size", msb_size)
        target_total = _integer("target_total", target_total)
        if isinstance(max_ratio, str) and _decimal_exponent(max_ratio):
            raise InvalidInput("max_ratio must lie in (1, 3]")  # before Fraction builds 10**exponent
        try:
            ratio = Fraction(max_ratio)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise InvalidInput(f"bad max ratio {max_ratio!r}: {exc}") from exc
        if not 1 <= a0 <= 3:
            raise InvalidInput(f"a0 must be 1..3, got {a0}")
        if msb_size < 3 * a0:
            raise InvalidInput(f"msb_size must be at least 3*a0 = {3 * a0}")
        if target_total < msb_size:
            raise InvalidInput("target_total must be at least msb_size")
        if not 1 < ratio <= 3:
            raise InvalidInput("max_ratio must lie in (1, 3]")
        for name, value in zip(self._fields, (a0, msb_size, target_total, tuple(min_tolerance), ratio)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_doc(cls, doc: dict) -> "DesignSpec":
        if not isinstance(doc, dict):
            raise InvalidInput("design spec document must be a JSON object")
        try:
            return cls(
                a0=doc["a0"],
                msb_size=doc["msb_size"],
                target_total=doc["target_total"],
                min_tolerance=tuple(
                    ToleranceRule(r["at_least"], r["tolerance"]) for r in doc.get("min_tolerance", [])
                ),
                max_ratio=doc.get("max_ratio", 3),
            )
        except (KeyError, TypeError) as exc:
            raise InvalidInput(f"bad design spec document: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "DesignSpec":
        return cls.from_doc(read_json(path))

    def required_tolerance(self, size: int) -> int:
        return max((r.tolerance for r in self.min_tolerance if size >= r.at_least), default=0)


class DesignResult(_Frozen):
    """A designed layout and the facts about it; equality and hash read the layout alone.

    A class, since a NamedTuple would compare the metadata too.
    """

    __slots__ = ("sequence", "metadata")
    _fields = __slots__
    sequence: Sequence
    metadata: dict

    def __init__(self, sequence: Sequence, metadata: dict) -> None:
        object.__setattr__(self, "sequence", sequence)
        object.__setattr__(self, "metadata", metadata)

    def _key(self) -> tuple:
        return (self.sequence,)

    def to_doc(self) -> dict:
        return {"bits": list(self.sequence.bits), "metadata": dict(self.metadata)}


def design(spec: DesignSpec) -> DesignResult:
    """Deterministic layout meeting the spec exactly, or Infeasible.

    The ratio cap is applied in integers: with max_ratio = p/q (q > 0),
    cur * p // q is exactly floor(cur * max_ratio). One test, a size's
    largest successor reaching the bank size, ends the chain and lets a
    trimmed bank lead the full banks. The layout is checked again when
    built: an incapable one is refused in sequence._refusal's wording, and
    each distinct bit size's required tolerance is asked once, against the
    one tolerance table, _tolerance_table, which stays on the new Sequence.
    """

    def largest_successor(size: int) -> int:  # the largest next bit leaving size its required tolerance
        return 3 * (size - spec.required_tolerance(size))

    p, q = spec.max_ratio.as_integer_ratio()
    chain = [spec.a0]
    while True:
        cur = chain[-1]
        grown = largest_successor(cur)
        if grown >= spec.msb_size:
            break
        nxt = min(grown, cur * p // q)
        if nxt <= cur:
            raise Infeasible(
                f"tolerance/ratio constraints stall the chain at bit size {cur}"
            )
        _within_limit(len(chain) + 1)
        chain.append(nxt)

    remaining = spec.target_total - sum(chain)
    if remaining < 0:
        raise Infeasible(
            f"LSB chain alone needs {sum(chain)} junctions, above the target {spec.target_total}"
        )

    full_banks, trim = divmod(remaining, spec.msb_size)
    _within_limit(len(chain) + full_banks + (trim > 0))
    banks: list[int] = [spec.msb_size] * full_banks
    if trim:
        if full_banks > 0 and largest_successor(trim) >= spec.msb_size:
            banks.insert(0, trim)
        else:
            banks.append(trim)

    seq = Sequence(tuple(chain + banks))
    bits = seq.bits

    # Post-verification: the greedy construction is supposed to guarantee
    # all of this; failing any check means the spec is infeasible for it.
    if not _chain_capable(bits):
        raise Infeasible(_refusal("constructed layout", bits))
    if seq.total != spec.target_total:
        raise Infeasible(f"layout total {seq.total} misses target {spec.target_total}")
    need = {a: spec.required_tolerance(a) for a in set(bits)}
    for n, (a, t) in enumerate(zip(bits[:-1], _tolerance_table(seq))):
        if t < need[a]:
            raise Infeasible(f"bit {n} (size {a}) tolerates {t}, needs {need[a]}")

    metadata = {
        "branches": BRANCH_COUNT,
        "symmetric_halves": True,
        "symmetric_subtraction": True,
        "lsb_chain_bits": len(chain),
        "bank_size": spec.msb_size if banks else None,
        "full_banks": full_banks,
        "trimmed_bank": trim if trim else None,
        "total": spec.target_total,
    }
    return DesignResult(seq, metadata)


class CandidateColumn(NamedTuple):
    """One candidate's column of a comparison table. A NamedTuple."""

    name: str
    bits: tuple[int, ...]
    bits_to_msb: int
    min_efficiency: Fraction | None
    mean_efficiency: Fraction | None
    tolerances: tuple[int | None, ...]


class ComparisonTable(NamedTuple):
    """Candidate layouts side by side, as compare_logics tabulates them. A NamedTuple."""

    lsb_count: int
    msb_size: int
    candidates: tuple[CandidateColumn, ...]

    def to_csv(self) -> str:
        rows = [["bit"] + [f"{c.name} {col}" for c in self.candidates for col in ("junctions", "tolerance")]]
        for n in range(self.lsb_count):
            row: list[object] = [n]
            for c in self.candidates:
                row += [c.bits[n], c.tolerances[n]] if n < len(c.bits) else [None, None]
            rows.append(row)
        return csv_rows(rows)

    def to_doc(self) -> dict:
        return {
            "lsb_count": self.lsb_count,
            "msb_size": self.msb_size,
            "candidates": [
                {
                    "name": c.name,
                    "bits": list(c.bits),
                    "bits_to_msb": c.bits_to_msb,
                    "min_efficiency": None if c.min_efficiency is None else str(c.min_efficiency),
                    "mean_efficiency": None if c.mean_efficiency is None else str(c.mean_efficiency),
                    "tolerances": list(c.tolerances),
                }
                for c in self.candidates
            ],
        }


def compare_logics(
    lsb_count: int,
    msb_size: int,
    candidates: list[tuple[str, Sequence]],
) -> ComparisonTable:
    """Tabulate candidate sequences side by side.

    For each candidate: how many leading bits sit below the bank size,
    the worst and mean consecutive growth ratio a_{n+1}/a_n within that
    leading stretch, and every bit's tolerance. The ratios are compared by
    integer cross-multiplication and summed as one numerator/denominator
    pair, its denominator kept at the lcm of the bits, so each reported
    Fraction is built once. The tolerances are the candidate's shared
    table, fault_tolerance._tolerance_table. lsb_count and msb_size are
    read and checked by _comparison_sizes.
    """
    lsb_count, msb_size = _comparison_sizes(lsb_count, msb_size)
    if not candidates:
        raise InvalidInput("need at least one candidate")
    columns: list[CandidateColumn] = []
    for name, seq in candidates:
        bits = seq.bits
        if not _chain_capable(bits):
            raise InvalidInput(f"candidate {name!r} is not completeness capable")
        # a capable chain has no ratio above 3 and no zero bit, so 3/1 is a
        # safe start for the minimum and every denominator is positive
        lo_p, lo_q = 3, 1
        num, den = 0, 1
        leading = 0
        for a in bits:
            if a >= msb_size:
                break
            if leading:
                if a * lo_q < lo_p * below:
                    lo_p, lo_q = a, below
                # den stays the lcm of the bits so far, as Fraction addition keeps it
                g = gcd(den, below)
                num, den = num * (below // g) + a * (den // g), den // g * below
            below = a
            leading += 1
        if leading > 1:
            min_eff, mean_eff = Fraction(lo_p, lo_q), Fraction(num, den * (leading - 1))
        else:
            min_eff = mean_eff = None
        columns.append(
            CandidateColumn(name, bits, leading, min_eff, mean_eff, _tolerance_table(seq))
        )
    return ComparisonTable(lsb_count, msb_size, tuple(columns))


def standard_column(kind: str, msb_size: int, length: int) -> Sequence:
    """Reference layout: geometric growth below the bank size, then banks; the one standard builder.

    msb_size and length are read by sequence._integer, and both must be
    positive.
    """
    if kind not in STANDARD_RATIOS:
        raise InvalidInput(f"unknown standard kind {kind!r}")
    msb_size = _integer("msb_size", msb_size)
    length = _integer("length", length)
    if length < 1 or msb_size < 1:
        raise InvalidInput("length and msb_size must be positive")
    _within_limit(length)
    ratio = STANDARD_RATIOS[kind]
    bits = [1]
    while bits[-1] * ratio < msb_size and len(bits) < length:
        bits.append(bits[-1] * ratio)
    while len(bits) < length:
        bits.append(msb_size)
    return Sequence(tuple(bits))
