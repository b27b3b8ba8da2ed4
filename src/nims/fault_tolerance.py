"""Per-bit fault tolerance: how many junctions a bit can lose.

Bit n (below the last) tolerates t_n = max(0, a_n - ceil(a_{n+1}/3))
missing junctions before the upper chain at n+1 can break. Losing more
than t_n from a single bit always breaks the chain there; losing up to
t_n from every bit at once still leaves the chain intact. The last bit
has no chain successor, so losing up to a_N - 1 there only shrinks the
range; losing all of it breaks positivity.

The audits that check a layout end to end live here too: the
worst-case defect scan and the full-range round trip of the greedy,
represent_range_check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidInput, RangeError
from .sequence import (
    DEFAULT_ORACLE_CAP,
    TOTAL_LIMIT,
    Sequence,
    ValidationReport,
    _chain_capable,
    _descent,
    _Frozen,
    _integer,
    _require_capable,
    _require_type,
    _unchecked_sequence,
    csv_rows,
    read_json,
    validate,
)

if TYPE_CHECKING:
    from collections.abc import Mapping
    from fractions import Fraction
    from pathlib import Path

# single-bit placements the worst-case scan cross-checks with the oracle
ORACLE_SAMPLES = 8


def _exceeds(total: int, cap: int) -> bool:
    """Whether total exceeds cap, the audits' cap test; InvalidInput where it refuses a cap that is not an int."""
    try:
        if total <= cap:
            return False
    except TypeError:
        pass
    _require_type("cap", cap, int)
    return True


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
        table = (*[t if (t := a - (b + 2) // 3) > 0 else 0 for a, b in zip(bits, bits[1:])], None)
        object.__setattr__(seq, "_tolerances", table)
        return table


def tolerance_report(seq: Sequence) -> ToleranceReport:
    """Tolerance and fault proportion for every bit.

    The proportion is the exact fraction of bit n that may fail,
    1 - a_{n+1}/(3*a_n), clamped at 0 below (and 0 for a dead bit n);
    it is 1 only when bit n + 1 is dead. The last bit is reported
    with no tolerance bound: removing its junctions only reduces range,
    never completeness of what remains. The tolerances are seq's shared
    table, _tolerance_table. seq must be a Sequence, else InvalidInput.

    Each distinct proportion is built once per call: a pair (a, b) with
    3a > b gets (3a - b)/(3a), and every clamped pair (b >= 3a, a dead bit
    included) shares one Fraction(0). So the equal banks of a designed
    layout, whose pairs (a, a) all give 2/3, hold one Fraction between them.
    Each entry is built by tuple.__new__ from its five fields, without the
    NamedTuple's own Python-level __new__.
    """
    from fractions import Fraction

    _require_type("seq", seq, Sequence)
    bits = seq.bits
    new = tuple.__new__
    shared: dict[object, Fraction] = {}  # by (a, b), or 0 for a clamped pair
    entries = []
    for n, (a, b, t) in enumerate(zip(bits, bits[1:], _tolerance_table(seq))):
        gap = 3 * a - b
        key = (a, b) if gap > 0 else 0
        proportion = shared.get(key)
        if proportion is None:
            proportion = shared[key] = Fraction(gap, 3 * a) if gap > 0 else Fraction(0)
        entries.append(new(BitTolerance, (n, a, t, proportion, False)))
    entries.append(new(BitTolerance, (seq.last_index, bits[-1], None, None, True)))
    return ToleranceReport(tuple(entries))


class DefectMap(_Frozen):
    """Missing-junction counts keyed by bit index.

    Bits and counts are converted by the one integer rule, sequence._integer;
    missing that is not a mapping, or a negative bit or count, raises
    InvalidInput, and zero counts are dropped.
    missing is a copy of the checked counts, which stay in _missing. A class
    that checks its input when built; it does not hash, since missing is a dict.
    """

    __slots__ = ("_missing",)
    _fields = ("missing",)

    def __init__(self, missing: Mapping[int, int]) -> None:
        try:
            items = missing.items()
        except AttributeError:
            raise InvalidInput(f"defects must be a mapping of bit index to count, got {missing!r}") from None
        converted = {_integer("defect bit", k): _integer("defect count", v) for k, v in items}
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


def _sequence_and_defects(seq: Sequence, defects: DefectMap) -> None:
    """Refuse with InvalidInput a seq that is not a Sequence or defects that are not a DefectMap."""
    _require_type("seq", seq, Sequence)
    _require_type("defects", defects, DefectMap)


def apply_defects(seq: Sequence, defects: DefectMap) -> tuple[Sequence, ValidationReport]:
    """Subtract missing junctions and revalidate what is left.

    The report's verdicts are set at once; its violations are worded only
    if something reads them. seq must be a Sequence and defects a
    DefectMap, else InvalidInput.
    """
    _sequence_and_defects(seq, defects)
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
    """True when every non-last bit loses at most its tolerance, and the last bit at most a_N - 1.

    The tolerances are seq's shared table, _tolerance_table, so a run of
    defect maps against one array computes them once. seq must be a
    Sequence and defects a DefectMap, else InvalidInput.
    """
    _sequence_and_defects(seq, defects)
    last = seq.last_index
    tolerances = _tolerance_table(seq)
    within = True
    for idx, cnt in defects._missing.items():
        if idx > last:
            raise InvalidInput(f"defect bit index {idx} beyond last bit {last}")
        if cnt > (tolerances[idx] if idx < last else seq.bits[last] - 1):
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

    A sequence that is not completeness capable has no certificate to
    scan: the chain gate, sequence._require_capable, refuses it from the
    report validate stores on seq; no sampled placement is validated. So
    every safe_up_to is at least 0, and a SAFE placement the oracle finds
    a gap in is a fault of the scan, raised as AssertionError. seq must be
    a Sequence, and cap an int, else InvalidInput. The oracle is loaded
    here, on the first scan, so that no other audit loads it.
    """
    from .oracle import is_complete

    _require_type("seq", seq, Sequence)
    budget = _integer("scan budget", budget)
    if budget < 0:
        raise InvalidInput("budget must be non-negative")
    _require_capable(seq)
    bits = seq.bits
    total = sum(bits)
    if _exceeds(total, cap):
        raise RangeError(f"sequence total {total} exceeds oracle cap {cap}")

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


class RangeCheckReport(NamedTuple):
    """A full-range sweep: how many targets it round-tripped and each failure. A NamedTuple."""

    checked: int
    failures: tuple[tuple[int, str], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def represent_range_check(seq: Sequence, *, cap: int = DEFAULT_ORACLE_CAP) -> RangeCheckReport:
    """Round-trip every representable target, from -A_N-a_0+1 to A_N+a_0-1.

    Sweeps windows of remainders instead of one target at a time. This is
    exact because the greedy's remaining steps depend only on the bit and
    the current remainder, not on the target that produced it, and every
    step moves a whole piece of a window by one shift. Starting from the
    single window [-bound, bound], each row of the table sequence._descent
    keeps on seq, as representation's greedy reads them, splits each
    window at its threshold t and the row's stored -t: first r >= t
    (shift -a), then r <= -t (shift +a), and the rest keeps r. Each
    piece, translated by its shift, is again a window; equal windows of
    one step are kept once. A backward pass carries the final
    remainders not below a_0 up to the targets m that reach them, so
    failures come out as (m, message) in ascending m. The device's 184,199
    targets share 190 windows; the loop is iterative, so thousands of bits
    do not recurse.
    """
    bound, steps = _descent(seq)
    a0 = seq.bits[0]
    total = bound - a0 + 1
    if _exceeds(total, cap):
        raise RangeError(f"sequence total {total} exceeds cap {cap}")
    if steps is None:
        raise RangeError(f"sequence total exceeds {TOTAL_LIMIT}")

    # levels[k] maps each window after step k to the (parent window, shift) pieces landing on it
    levels: list[dict] = []
    landed: dict = {(-bound, bound): []}
    for _, a, t, neg_t, _, _ in steps:
        windows, landed = landed, {}
        for lo, hi in windows:
            for plo, phi, shift in (
                (max(lo, t), hi, -a),
                (lo, min(hi, t - 1, neg_t), a),
                (max(lo, 1 - t), min(hi, t - 1), 0),
            ):
                if plo <= phi:
                    landed.setdefault((plo + shift, phi + shift), []).append(((lo, hi), shift))
        levels.append(landed)

    # (window, lo, hi, offset): remainders lo..hi of window end with residual r + offset
    failing = [
        (window, flo, fhi, 0)
        for window in landed
        for flo, fhi in ((window[0], min(window[1], -a0)), (max(window[0], a0), window[1]))
        if flo <= fhi
    ]
    for pieces in reversed(levels):
        failing = [
            (parent, flo - shift, fhi - shift, offset + shift)
            for window, flo, fhi, offset in failing
            for parent, shift in pieces[window]
        ]
    failures = [
        (m, f"residual {m + offset} not below {a0}")
        for _, flo, fhi, offset in sorted(failing, key=lambda f: f[1])
        for m in range(flo, fhi + 1)
    ]
    return RangeCheckReport(2 * bound + 1, tuple(failures))
