"""Per-bit fault tolerance: how many junctions a bit can lose.

Bit n (below the last) tolerates t_n = max(0, a_n - ceil(a_{n+1}/3))
missing junctions before the upper chain at n+1 can break. Losing more
than t_n from a single bit always breaks the chain there; losing up to
t_n from every bit at once still leaves the chain intact. The last bit
has no chain successor, so losing up to a_N - 1 there only shrinks the
range; losing all of it breaks positivity. The table of t_n is
sequence._tolerance_table's, kept on each Sequence, and
sequence.tolerance_report reports it. This module holds the defect
audits: it applies a defect map, checks one against the table, and scans
the worst single-bit defects, cross-checked with the reachability
oracle, which it loads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidInput, int_text, repr_text
from .oracle import DEFAULT_ORACLE_CAP, _check_cap, is_complete
from .sequence import (
    Sequence,
    ValidationReport,
    _chain_capable,
    _Frozen,
    _integer,
    _require_capable,
    _require_type,
    _tolerance_table,
    _unchecked_sequence,
    csv_rows,
    read_json,
    validate,
)

if TYPE_CHECKING:
    from collections.abc import Mapping
    from pathlib import Path

# single-bit placements the worst-case scan cross-checks with the oracle
ORACLE_SAMPLES = 8


class DefectMap(_Frozen):
    """Missing-junction counts keyed by bit index.

    Bits and counts are converted by the one integer rule, sequence._integer;
    missing that is not a mapping, two keys naming one bit (1 and "01"),
    or a negative bit or count, raises InvalidInput, and zero counts are
    dropped.
    missing is a copy of the checked counts, which stay in _missing. A class
    that checks its input when built; it does not hash, since missing is a dict.
    """

    __module__ = "nims"

    __slots__ = ("_missing",)
    _fields = ("missing",)

    def __init__(self, missing: Mapping[int, int]) -> None:
        try:
            items = missing.items()
        except AttributeError:
            raise InvalidInput(f"defects must be a mapping of bit index to count, got {repr_text(missing)}") from None
        converted: dict[int, int] = {}
        for k, v in items:
            idx = _integer("defect bit", k)
            if idx in converted:
                raise InvalidInput(f"defect bit {int_text(idx)} is given more than once")
            converted[idx] = _integer("defect count", v)
        for idx, cnt in converted.items():
            if idx < 0:
                raise InvalidInput(f"defect bit index {int_text(idx)} is negative")
            if cnt < 0:
                raise InvalidInput(f"defect count for bit {int_text(idx)} is negative")
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


def _sequence_and_defects(seq: Sequence, defects: DefectMap) -> dict[int, int]:
    """The checked counts of defects on seq, lowest bit first.

    Refuses with InvalidInput a seq that is not a Sequence, defects that
    are not a DefectMap, and a defect on a bit past seq's last: the
    lowest such bit is named, before any count is read.
    """
    _require_type("seq", seq, Sequence)
    _require_type("defects", defects, DefectMap)
    missing = defects._missing
    last = seq.last_index
    for idx in missing:
        if idx > last:
            raise InvalidInput(f"defect bit index {int_text(idx)} beyond last bit {last}")
    return missing


def apply_defects(seq: Sequence, defects: DefectMap) -> tuple[Sequence, ValidationReport]:
    """Subtract missing junctions and revalidate what is left.

    The report's verdicts are set at once; its violations are worded only
    if something reads them. seq must be a Sequence and defects a
    DefectMap on its bits, else InvalidInput.
    """
    missing = _sequence_and_defects(seq, defects)
    bits = list(seq.bits)
    for idx, cnt in missing.items():
        if cnt > bits[idx]:
            raise InvalidInput(f"bit {idx} holds {int_text(bits[idx])} junctions, cannot lose {int_text(cnt)}")
        bits[idx] -= cnt
    defective = _unchecked_sequence(tuple(bits))
    return defective, validate(defective)


def within_tolerance(seq: Sequence, defects: DefectMap) -> bool:
    """True when every non-last bit loses at most its tolerance, and the last bit at most a_N - 1.

    The tolerances are seq's shared table, _tolerance_table, so a run of
    defect maps against one array computes them once. seq must be a
    Sequence and defects a DefectMap on its bits, else InvalidInput.
    """
    missing = _sequence_and_defects(seq, defects)
    last = seq.last_index
    tolerances = _tolerance_table(seq)
    for idx, cnt in missing.items():
        if cnt > (tolerances[idx] if idx < last else seq.bits[last] - 1):
            return False
    return True


class ScanEntry(NamedTuple):
    """One bit's row of a worst-case scan. A NamedTuple."""

    index: int
    nominal: int
    tolerance: int | None
    safe_up_to: int
    status: str


class ScanReport(NamedTuple):
    """A worst-case scan: its budget, a row per bit and the oracle checks made. A NamedTuple."""

    __module__ = "nims"

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
    defect is provably incomplete. budget is read by sequence._integer.

    A sequence that is not completeness capable has no certificate to
    scan: the chain gate, sequence._require_capable, refuses it from the
    report validate stores on seq. So every safe_up_to is at least 0, and
    a SAFE placement the oracle finds a gap in is a fault of the scan,
    raised as AssertionError; so is a bit whose chain survives one
    junction past its tolerance. One pass over the bits and their
    tolerances writes each row and runs that bit's two checks, so the
    lower bit's fault is raised first. A sampled placement is seq's bits
    minus at most the bit's safe count, built by
    sequence._unchecked_sequence and never validated. seq must be a
    Sequence, else InvalidInput; the cap is read by the one cap rule,
    oracle._check_cap, before any placement is checked.
    """
    _require_type("seq", seq, Sequence)
    budget = _integer("scan budget", budget)
    if budget < 0:
        raise InvalidInput("budget must be non-negative")
    _require_capable(seq)
    bits = seq.bits
    _check_cap(sum(bits), cap)

    def without(index: int, count: int) -> tuple[int, ...]:
        return bits[:index] + (bits[index] - count,) + bits[index + 1 :]

    entries: list[ScanEntry] = []
    checked = 0
    for n, (a, t) in enumerate(zip(bits, _tolerance_table(seq))):
        max_d = min(budget, a)
        # Full removal of the last bit zeroes it, which fails positivity.
        safe = min(max_d, a - 1 if t is None else t)
        entries.append(ScanEntry(n, a, t, safe, "SAFE" if safe == max_d else "UNSAFE"))
        if safe >= 1 and checked < ORACLE_SAMPLES:
            if not is_complete(_unchecked_sequence(without(n, safe)), cap=cap):
                raise AssertionError(f"scan certified bit {n} safe at {safe} but the oracle found a gap")
            checked += 1
        # Sharpness: one junction past the tolerance must break the chain.
        if t is not None and t < max_d and _chain_capable(without(n, t + 1)):
            raise AssertionError(f"bit {n} survived {t + 1} missing junctions, above its tolerance")

    return ScanReport(budget, tuple(entries), checked)
