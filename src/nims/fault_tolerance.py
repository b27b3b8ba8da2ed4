"""Per-bit fault tolerance: how many junctions a bit can lose.

Bit n (below the last) tolerates t_n = max(0, a_n - ceil(a_{n+1}/3))
missing junctions before the upper chain at n+1 can break. Losing more
than t_n from a single bit always breaks the chain there; losing up to
t_n from every bit at once still leaves the chain intact. The last bit
has no chain successor, so junctions lost there only shrink the range.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidInput, RangeError
from .sequence import (
    DEFAULT_ORACLE_CAP,
    Sequence,
    SumSet,
    ValidationReport,
    _chain_capable,
    _Frozen,
    _integer,
    _unchecked_sequence,
    csv_rows,
    is_complete,
    reachable_sums,
    read_json,
    validate,
)

if TYPE_CHECKING:
    from collections.abc import Mapping
    from fractions import Fraction
    from pathlib import Path

# single-bit placements the worst-case scan cross-checks with the oracle
ORACLE_SAMPLES = 8


class BitTolerance(NamedTuple):
    """One bit's row of a tolerance report. A NamedTuple."""

    index: int
    nominal: int
    tolerance: int | None
    proportion: Fraction | None
    last_bit: bool


class ToleranceReport(NamedTuple):
    """Every bit's tolerance, least significant first. A NamedTuple."""

    entries: tuple[BitTolerance, ...]

    # the one statement of an entry's output fields, in BitTolerance's field order
    COLUMNS = ("bit", "nominal", "tolerance", "proportion")

    def to_csv(self) -> str:
        return csv_rows([self.COLUMNS, *(e[:4] for e in self.entries)])

    def to_doc(self) -> dict:
        """Each entry's COLUMNS, the proportion as its str, then last_bit, which the CSV leaves out."""
        return {
            "entries": [
                {
                    **dict(zip(self.COLUMNS, (*e[:3], None if e.proportion is None else str(e.proportion)))),
                    "last_bit": e.last_bit,
                }
                for e in self.entries
            ]
        }


def _tolerance_table(seq: Sequence) -> tuple[int | None, ...]:
    """t_n = max(0, a_n - ceil(a_{n+1}/3)) for every bit of seq, None for the last.

    The one statement of the tolerance rule, in integers. The first reader
    of a Sequence object builds the table into its private _tolerances
    slot; every later reader of that object reuses it.
    """
    try:
        return seq._tolerances
    except AttributeError:  # an unset slot: not built yet
        bits = seq.bits
        table = (*[max(0, a - (b + 2) // 3) for a, b in zip(bits, bits[1:])], None)
        object.__setattr__(seq, "_tolerances", table)
        return table


def tolerance_report(seq: Sequence) -> ToleranceReport:
    """Tolerance and fault proportion for every bit.

    The proportion is the exact fraction of bit n that may fail,
    1 - a_{n+1}/(3*a_n), clamped into [0, 1). The last bit is reported
    with no tolerance bound: removing its junctions only reduces range,
    never completeness of what remains. The tolerances are seq's shared
    table, _tolerance_table.
    """
    from fractions import Fraction

    bits = seq.bits
    entries = [
        BitTolerance(n, a, t, Fraction(max(0, 3 * a - b), 3 * a) if a else Fraction(0), False)
        for n, (a, b, t) in enumerate(zip(bits, bits[1:], _tolerance_table(seq)))
    ]
    entries.append(BitTolerance(seq.last_index, bits[-1], None, None, True))
    return ToleranceReport(tuple(entries))


class DefectMap(_Frozen):
    """Missing-junction counts keyed by bit index.

    Bits and counts are converted by the one integer rule, sequence._integer;
    a negative bit or count raises InvalidInput, and zero counts are dropped.
    missing is a copy of the checked counts, which stay in _missing. A class
    that checks its input when built; it does not hash, since missing is a dict.
    """

    __slots__ = ("_missing",)
    _fields = ("missing",)

    def __init__(self, missing: Mapping[int, int]) -> None:
        converted = {_integer("defect bit", k): _integer("defect count", v) for k, v in missing.items()}
        for idx, cnt in converted.items():
            if idx < 0:
                raise InvalidInput(f"defect bit index {idx} is negative")
            if cnt < 0:
                raise InvalidInput(f"defect count for bit {idx} is negative")
        clean = {idx: cnt for idx, cnt in sorted(converted.items()) if cnt}
        object.__setattr__(self, "_missing", clean)

    @property
    def missing(self) -> dict[int, int]:
        return dict(self._missing)

    @classmethod
    def from_doc(cls, doc: dict) -> "DefectMap":
        if not isinstance(doc, dict) or "defects" not in doc or not isinstance(doc["defects"], dict):
            raise InvalidInput("defect document must be an object with a 'defects' mapping")
        return cls(doc["defects"])

    @classmethod
    def from_file(cls, path: str | Path) -> "DefectMap":
        return cls.from_doc(read_json(path))

    def to_doc(self) -> dict:
        return {"defects": {str(k): v for k, v in self._missing.items()}}


def apply_defects(seq: Sequence, defects: DefectMap) -> tuple[Sequence, ValidationReport]:
    """Subtract missing junctions and revalidate what is left.

    The report's verdicts are set at once; its violations are worded only
    if something reads them.
    """
    bits = list(seq.bits)
    last = seq.last_index
    for idx, cnt in defects._missing.items():
        if idx > last:
            raise InvalidInput(f"defect bit index {idx} beyond last bit {last}")
        if cnt > bits[idx]:
            raise InvalidInput(f"bit {idx} holds {bits[idx]} junctions, cannot lose {cnt}")
        bits[idx] -= cnt
    defective = _unchecked_sequence(tuple(bits))
    return defective, validate(defective)


def within_tolerance(seq: Sequence, defects: DefectMap) -> bool:
    """True when every non-last bit loses at most its tolerance.

    The tolerances are seq's shared table, _tolerance_table, so a run of
    defect maps against one array computes them once.
    """
    last = seq.last_index
    tolerances = _tolerance_table(seq)
    within = True
    for idx, cnt in defects._missing.items():
        if idx > last:
            raise InvalidInput(f"defect bit index {idx} beyond last bit {last}")
        if idx < last and cnt > tolerances[idx]:
            within = False
    return within


class ScanEntry(NamedTuple):
    """One bit's row of a worst-case scan. A NamedTuple."""

    index: int
    nominal: int
    tolerance: int | None
    safe_up_to: int
    status: str


class ScanReport(NamedTuple):
    """A worst-case scan: its budget, a row per bit and the oracle checks made. A NamedTuple."""

    budget: int
    entries: tuple[ScanEntry, ...]
    oracle_checked: int

    # the one statement of an entry's output fields, in ScanEntry's field order
    COLUMNS = ("bit", "nominal", "tolerance", "safe_up_to", "status")

    def to_csv(self) -> str:
        return csv_rows([self.COLUMNS, *self.entries])

    def to_doc(self) -> dict:
        return {
            "budget": self.budget,
            "oracle_checked": self.oracle_checked,
            "entries": [dict(zip(self.COLUMNS, e)) for e in self.entries],
        }


def worst_case_scan(seq: Sequence, budget: int, *, cap: int = DEFAULT_ORACLE_CAP) -> ScanReport:
    """Classify single-bit defect placements up to `budget` as SAFE or UNSAFE.

    SAFE means every placement of 1..budget missing junctions on that bit
    keeps the sequence completeness capable; the guarantee is checked by
    construction against the chain and cross-checked on a sample of
    scenarios with the reachability oracle. UNSAFE means the chain
    certificate is void beyond the bit's tolerance, not that every larger
    defect is provably incomplete. The tolerances are seq's shared table,
    _tolerance_table. budget is read by sequence._integer.
    """
    budget = _integer("scan budget", budget)
    if budget < 0:
        raise InvalidInput("budget must be non-negative")
    total = sum(seq.bits)
    if total > cap:
        raise RangeError(f"sequence total {total} exceeds oracle cap {cap}")
    bits = seq.bits

    def without(index: int, count: int) -> tuple[int, ...]:
        return bits[:index] + (bits[index] - count,) + bits[index + 1 :]

    entries: list[ScanEntry] = []
    for n, (a, t) in enumerate(zip(bits, _tolerance_table(seq))):
        max_d = min(budget, a)
        # Full removal of the last bit zeroes it, which fails positivity.
        safe = min(max_d, a - 1 if t is None else t)
        status = "SAFE" if safe == max_d else "UNSAFE"
        entries.append(ScanEntry(n, a, t, safe, status))

    checked = 0
    for e in entries:
        if checked >= ORACLE_SAMPLES:
            break
        if e.safe_up_to < 1:
            continue
        if not is_complete(Sequence(without(e.index, e.safe_up_to)), cap=cap):
            raise AssertionError(
                f"scan certified bit {e.index} safe at {e.safe_up_to} but the oracle found a gap"
            )
        checked += 1

    # Sharpness: one junction past the tolerance must break the chain.
    for e in entries:
        if e.tolerance is None:
            continue
        d = e.tolerance + 1
        if d <= min(budget, e.nominal) and _chain_capable(without(e.index, d)):
            raise AssertionError(
                f"bit {e.index} survived {d} missing junctions, above its tolerance"
            )

    return ScanReport(budget, tuple(entries), checked)


def _window_gaps(sums: SumSet) -> tuple[tuple[int, int], ...]:
    """The uncovered intervals inside [-span, span], listed from [1, span] and mirrored.

    Exact for any reachable set: it is symmetric about 0 (negating every
    digit negates the sum, and the residual widens both ways alike) and it
    holds 0 (all digits zero), so the gaps below 0 are the negated gaps
    above it and no gap crosses 0. A set held by its width is one run and
    has no gaps: it is answered without building its mask.
    """
    if sums._one_run:
        return ()
    upper = sums.gaps(1, sums.span)
    return tuple((-hi, -lo) for lo, hi in reversed(upper)) + upper


def oracle_gaps(seq: Sequence, *, cap: int = DEFAULT_ORACLE_CAP) -> tuple[SumSet, tuple[tuple[int, int], ...]]:
    """Reachable sums plus the uncovered intervals inside [-A_N, A_N].

    The gaps are listed from half the window by _window_gaps, which reads
    only the set, never the chain.
    """
    sums = reachable_sums(seq, a0_offset=True, cap=cap)
    return sums, _window_gaps(sums)
