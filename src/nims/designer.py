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

from .errors import Infeasible, InvalidInput, RangeError, fraction_text, int_text, repr_text
from .sequence import (
    Sequence,
    _Frozen,
    _capable_sequence,
    _integer,
    _require_capable,
    _require_type,
    _tolerance_table,
    _unchecked_sequence,
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
        raise RangeError(f"layout of {int_text(bits)} bits exceeds the limit of {MAX_LAYOUT_BITS}")


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

    __module__ = "nims"

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
    Fraction (a Fraction is kept as it is), then range-checked, and
    min_tolerance must be an iterable of ToleranceRules: a class that
    checks its input when built. The ratio's bound 1 < p/q <= 3 is tested
    in integers, as q < p <= 3q on its numerator and positive denominator.
    """

    __module__ = "nims"

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
            ratio = max_ratio if type(max_ratio) is Fraction else Fraction(max_ratio)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise InvalidInput(f"bad max ratio {repr_text(max_ratio)}: {exc}") from exc
        if not 1 <= a0 <= 3:
            raise InvalidInput(f"a0 must be 1..3, got {int_text(a0)}")
        if msb_size < 3 * a0:
            raise InvalidInput(f"msb_size must be at least 3*a0 = {3 * a0}")
        if target_total < msb_size:
            raise InvalidInput("target_total must be at least msb_size")
        p, q = ratio.as_integer_ratio()
        if not q < p <= 3 * q:
            raise InvalidInput("max_ratio must lie in (1, 3]")
        try:
            rules = tuple(min_tolerance)
        except TypeError as exc:
            raise InvalidInput(
                f"min_tolerance must be an iterable of ToleranceRule, got {repr_text(min_tolerance)}"
            ) from exc
        for rule in rules:
            if not isinstance(rule, ToleranceRule):
                raise InvalidInput(f"min_tolerance holds {repr_text(rule)}, not a ToleranceRule")
        for name, value in zip(self._fields, (a0, msb_size, target_total, rules, ratio)):
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
        """The largest tolerance a rule asks of a bit of `size` junctions, 0 when none applies.

        A plain loop over the rules, which the constructor has checked are
        all ToleranceRules.
        """
        need = 0
        for rule in self.min_tolerance:
            if size >= rule.at_least and rule.tolerance > need:
                need = rule.tolerance
        return need


class DesignResult(_Frozen):
    """A designed layout and the facts about it; equality and hash read the layout alone.

    A class, since a NamedTuple would compare the metadata too.
    """

    __module__ = "nims"

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
    trimmed bank lead the full banks. The bits are plain ints formed from
    the spec's checked ints (a_0 >= 1, each chain bit larger than the one
    before, the banks and the trim positive), so the layout is built by
    sequence._unchecked_sequence, without the constructor's checks. It is
    then checked: an incapable one is refused by sequence._require_capable,
    whose report stays on it, and each distinct bit size's required
    tolerance is asked once, against the one tolerance table,
    _tolerance_table, which stays on the new Sequence too.
    spec must be a DesignSpec, else InvalidInput.
    """
    _require_type("spec", spec, DesignSpec)

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

    seq = _unchecked_sequence(tuple(chain + banks))
    bits = seq.bits

    # Post-verification: the greedy construction is supposed to guarantee
    # all of this; failing any check means the spec is infeasible for it.
    _require_capable(seq, "constructed layout", Infeasible)
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

    @property
    def efficiency_texts(self) -> tuple[str | None, str | None]:
        """The min and mean efficiencies as their str, None for none; RangeError where one is too long to write."""
        return tuple(
            None if value is None else fraction_text(what, value)
            for what, value in (("min efficiency", self.min_efficiency), ("mean efficiency", self.mean_efficiency))
        )


class ComparisonTable(NamedTuple):
    """Candidate layouts side by side, as compare_logics tabulates them. A NamedTuple."""

    __module__ = "nims"

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
                    **dict(zip(("min_efficiency", "mean_efficiency"), c.efficiency_texts)),
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
    table, sequence._tolerance_table. lsb_count and msb_size are
    read and checked by _comparison_sizes, and each candidate must be a
    (name, Sequence) pair with a str name, else InvalidInput.
    """
    lsb_count, msb_size = _comparison_sizes(lsb_count, msb_size)
    try:
        candidates = list(candidates)
    except TypeError as exc:
        raise InvalidInput(
            f"candidates must be an iterable of (name, Sequence) pairs, got {repr_text(candidates)}"
        ) from exc
    if not candidates:
        raise InvalidInput("need at least one candidate")
    columns: list[CandidateColumn] = []
    for candidate in candidates:
        match candidate:
            case (str() as name, Sequence() as seq):
                bits = seq.bits
            case _:
                raise InvalidInput(f"candidate {repr_text(candidate)} is not a (name, Sequence) pair")
        _require_capable(seq, f"candidate {name!r}", InvalidInput)
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

    kind must be a str naming one of STANDARD_RATIOS; msb_size and length
    are read by sequence._integer, and both must be positive. The bits are
    plain positive ints formed here, so the result is built by
    sequence._capable_sequence, without the constructor's checks and with
    the capable report already stored: each geometric bit is 2 or 3 times
    the one below, and the banks follow only once the last geometric bit
    times the ratio reaches msb_size, so no bank is above three times its
    predecessor. compare_logics' chain gate then reads that report. The
    banks are added in one list step.
    """
    _require_type("kind", kind, str)
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
    bits += [msb_size] * (length - len(bits))
    return _capable_sequence(tuple(bits))
