"""Measured device records: load, margin analysis, defect inference.

The on-disk form is a CSV with a key=value metadata preamble ahead of the
header row. Canonical serialization always writes the optional
tolerance_note column, required metadata keys in a fixed order, and any
extra keys verbatim in sorted order, and writes the rows with
sequence.csv_rows, which quotes a note only where it holds a comma, a
quote or a line break, so loading a canonical file and re-serializing it
is byte identical. A rec that is not a DeviceRecord, or a nominal that
is not a Sequence, is InvalidInput.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import operator
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidInput, ParseError
from .sequence import Sequence, ToleranceReport, _read_text, _require_type, _tolerance_table, csv_rows, validate
from .units import _require_finite, max_voltage, resolution

if TYPE_CHECKING:
    from pathlib import Path

    from .fault_tolerance import DefectMap

# The preamble in file order: each key with the DeviceMetadata fields its value
# fills. A key that fills two fields holds them as LENGTHxWIDTH.
METADATA_KEYS = (
    ("frequency_hz", ("frequency_hz",)),
    ("temperature_k", ("temperature_k",)),
    ("critical_current_ma", ("critical_current_ma",)),
    ("normal_resistance_mohm", ("normal_resistance_mohm",)),
    ("junction_um", ("junction_length_um", "junction_width_um")),
    ("current_density_ka_cm2", ("current_density_ka_cm2",)),
)
# The data columns in file order: each header name with the DeviceBit field
# it fills and the type of its cells. The note column may follow them.
COLUMNS = (
    ("bit", "index", int),
    ("junctions", "junctions", int),
    ("step_pos_mA", "step_pos_ma", float),
    ("step_zero_mA", "step_zero_ma", float),
    ("step_neg_mA", "step_neg_ma", float),
)
HEADER = tuple(name for name, _, _ in COLUMNS)
NOTE_COLUMN = "tolerance_note"
# The signed steps of a bit: each side of the zero step with its DeviceBit field.
SIDES = (("positive", "step_pos_ma"), ("negative", "step_neg_ma"))


class DeviceBit(NamedTuple):
    """One data row of a device file. A NamedTuple."""

    __module__ = "nims"

    index: int
    junctions: int
    step_pos_ma: float
    step_zero_ma: float
    step_neg_ma: float
    tolerance_note: str = ""


class DeviceMetadata(NamedTuple):
    """The preamble of a device file; extras holds the keys beyond METADATA_KEYS. A NamedTuple."""

    __module__ = "nims"

    frequency_hz: float
    temperature_k: float
    critical_current_ma: float
    normal_resistance_mohm: float
    junction_length_um: float
    junction_width_um: float
    current_density_ka_cm2: float
    extras: tuple[tuple[str, str], ...] = ()

    def extra(self, key: str) -> str | None:
        for k, v in self.extras:
            if k == key:
                return v
        return None


class DeviceRecord(NamedTuple):
    """A parsed device file: its bits in order and its metadata. A NamedTuple."""

    __module__ = "nims"

    bits: tuple[DeviceBit, ...]
    metadata: DeviceMetadata

    @property
    def total_junctions(self) -> int:
        return sum(b.junctions for b in self.bits)

    def sequence(self) -> Sequence:
        return Sequence(tuple(b.junctions for b in self.bits))


def _meta_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ParseError(f"metadata {key} is not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ParseError(f"metadata {key} must be finite, got {raw}")
    if value < 0:
        raise ParseError(f"metadata {key} must not be negative, got {raw}")
    return value


def load_device(path: str | Path) -> DeviceRecord:
    """Read a device CSV file (UTF-8, through sequence._read_text) and parse it with parse_device."""
    return parse_device(_read_text(path))


def _cell(row: int, name: str, kind: type, text: str) -> int | float:
    """One data cell: present, and an integer or a finite, non-negative float."""
    if not text:
        raise ParseError("missing value", row=row, field=name)
    try:
        value = kind(text)
    except ValueError as exc:
        raise ParseError(f"not {'an integer' if kind is int else 'a number'}: {text!r}", row=row, field=name) from exc
    if kind is float:
        if not math.isfinite(value):
            raise ParseError("step width must be finite", row=row, field=name)
        if value < 0:
            raise ParseError("step width must not be negative", row=row, field=name)
    return value


def parse_device(text: str) -> DeviceRecord:
    r"""Parse device CSV text: the key=value preamble, the header, one row per bit.

    Each key appears once, and a data row holds at most the five columns
    and the note. Where the text breaks several rules, the first broken in
    file order is reported: a key, then a row's leftmost cell. Lines end at
    \n, \r or \r\n alone, as csv reads them, so a quoted note keeps any
    other character, a line break included.
    """
    lines = io.StringIO(text, newline="")
    raw: dict[str, str] = {}
    header_at = None
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("bit,"):
            header_at = i
            break
        if "=" not in stripped:
            raise ParseError(f"expected key=value before the header, got {stripped!r}", row=i + 1)
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in raw:
            raise ParseError(f"metadata {key} given twice", row=i + 1)
        raw[key] = value.strip()
    if header_at is None:
        raise ParseError("no header row found")

    missing = [key for key, _ in METADATA_KEYS if key not in raw]
    if missing:
        raise ParseError(f"missing metadata keys: {', '.join(missing)}")
    values: dict[str, float] = {}
    for key, fields in METADATA_KEYS:
        value = raw.pop(key)
        if len(fields) > 1 and "x" not in value:
            raise ParseError(f"{key} must be LENGTHxWIDTH, got {value!r}")
        parts = value.partition("x")[::2] if len(fields) > 1 else (value,)
        values.update((field, _meta_float(key, part)) for field, part in zip(fields, parts))
    metadata = DeviceMetadata(**values, extras=tuple(raw.items()))

    # csv reads on from the header line, in the same stream; a quoted note
    # may span lines, so each row is numbered by the file line it starts on
    reader = csv.reader(itertools.chain((line,), lines))
    rows: list[tuple[int, list[str]]] = []
    start = header_at + 1
    try:
        for row in reader:
            rows.append((start, row))
            start = header_at + reader.line_num + 1
    except csv.Error as exc:  # a NUL byte before Python 3.11, or a field over the csv module's size limit
        raise ParseError(f"unreadable CSV: {exc}") from exc
    header = tuple(c.strip() for c in rows[0][1])
    if header != HEADER and header != HEADER + (NOTE_COLUMN,):
        raise ParseError(f"unexpected header {','.join(header)!r}", row=header_at + 1)

    bits: list[DeviceBit] = []
    for rownum, row in rows[1:]:
        texts = [cell.strip() for cell in row]
        if not any(texts):
            continue
        if len(texts) > len(COLUMNS) + 1:
            raise ParseError(f"{len(texts)} fields, at most {len(COLUMNS) + 1} allowed", row=rownum)
        texts += [""] * (len(COLUMNS) + 1 - len(texts))
        cells = {field: _cell(rownum, name, kind, text) for (name, field, kind), text in zip(COLUMNS, texts)}
        if cells["index"] != len(bits):
            raise ParseError(f"bit index {cells['index']}, expected {len(bits)}", row=rownum, field="bit")
        if cells["junctions"] < 0:
            raise ParseError("junction count must not be negative", row=rownum, field="junctions")
        bits.append(DeviceBit(**cells, tolerance_note=texts[-1]))
    if not bits:
        raise ParseError("device file lists no bits")
    return DeviceRecord(tuple(bits), metadata)


def serialize_device(rec: DeviceRecord) -> str:
    """Canonical text form; see module docstring."""
    _require_type("rec", rec, DeviceRecord)
    m = rec.metadata
    preamble = [f"{key}={'x'.join(repr(getattr(m, field)) for field in fields)}\n" for key, fields in METADATA_KEYS]
    preamble += [f"{key}={value}\n" for key, value in sorted(m.extras)]
    rows = [[*HEADER, NOTE_COLUMN]] + [[*(getattr(b, f) for _, f, _ in COLUMNS), b.tolerance_note] for b in rec.bits]
    return "".join(preamble) + csv_rows(rows)


class MarginViolation(NamedTuple):
    """One signed step narrower than the margin threshold. A NamedTuple."""

    bit: int
    side: str
    width_ma: float


class MarginReport(NamedTuple):
    """Operating-margin statistics of both signed sides, and every violation. A NamedTuple."""

    __module__ = "nims"

    threshold_ma: float
    min_positive_ma: float
    mean_positive_ma: float
    min_negative_ma: float
    mean_negative_ma: float
    violations: tuple[MarginViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_doc(self) -> dict:
        return {**self._asdict(), "violations": [v._asdict() for v in self.violations]}


def _side_widths(rec: DeviceRecord) -> list[tuple[str, list[float]]]:
    """Each side of SIDES with the bits' step widths on it, in bit order."""
    _require_type("rec", rec, DeviceRecord)
    return [(side, [getattr(b, field) for b in rec.bits]) for side, field in SIDES]


def margin_report(rec: DeviceRecord, min_margin_ma: float) -> MarginReport:
    """Operating-margin summary over the signed step widths.

    A threshold that is not a number, or is NaN or infinite, raises
    InvalidInput.
    """
    _require_finite("margin threshold", min_margin_ma)
    sides = _side_widths(rec)
    # plain float adds, left to right: sum compensates from Python 3.12 on, which moves the mean's last digits
    stats = [
        stat for _, widths in sides for stat in (min(widths), functools.reduce(operator.add, widths, 0) / len(widths))
    ]
    violations = tuple(
        MarginViolation(b.index, side, widths[i])
        for i, b in enumerate(rec.bits)
        for side, widths in sides
        if widths[i] < min_margin_ma
    )
    return MarginReport(min_margin_ma, *stats, violations)


def infer_defects(rec: DeviceRecord, nominal: Sequence) -> DefectMap:
    """Missing junctions per bit relative to a nominal layout."""
    from .fault_tolerance import DefectMap

    _require_type("rec", rec, DeviceRecord)
    _require_type("nominal", nominal, Sequence)
    if len(nominal.bits) != len(rec.bits):
        raise InvalidInput(
            f"nominal has {len(nominal.bits)} bits, device has {len(rec.bits)}"
        )
    missing = {}
    for b, expected in zip(rec.bits, nominal.bits):
        if b.junctions > expected:
            raise InvalidInput(
                f"bit {b.index} holds {b.junctions} junctions, above nominal {expected}"
            )
        if b.junctions < expected:
            missing[b.index] = expected - b.junctions
    return DefectMap(missing)


def plausibility_lints(rec: DeviceRecord) -> tuple[str, ...]:
    """Flag step widths that look like transcription slips.

    A signed step equal to the bit's zero step, or towering over both
    neighbours, is reported verbatim rather than corrected.
    """
    sides = _side_widths(rec)
    last = len(rec.bits) - 1
    lints: list[str] = []
    for i, b in enumerate(rec.bits):
        for side, widths in sides:
            width = widths[i]
            reasons = []
            if width == b.step_zero_ma:
                reasons.append("equals the zero-step width")
            # an end bit's one neighbour stands in for the one it lacks
            if last and width > 2 * max(widths[i - 1 if i else 1], widths[i + 1 if i < last else i - 1]):
                reasons.append("more than twice both neighbours")
            if reasons:
                lints.append(f"bit {b.index}: {side} step width {width} mA {'; '.join(reasons)}")
    return tuple(lints)


def build_report(rec: DeviceRecord, min_margin_ma: float = 1.0) -> dict:
    """Combined device summary used by the CLI report command.

    The tolerance rows read the sequence's one table, _tolerance_table;
    retuned_resolution_v is None when bit 0 holds no junctions.
    """
    _require_type("rec", rec, DeviceRecord)
    seq = rec.sequence()
    vr = validate(seq)
    margins = margin_report(rec, min_margin_ma)
    freq = rec.metadata.frequency_hz
    vmax = max_voltage(seq, freq)
    step = resolution(seq, freq)
    retuned = step / seq.bits[0] if seq.bits[0] else None
    after = "" if retuned is None else f" ({retuned:.3e} V after retuning)"

    notes: list[str] = []
    for key, computed, bound, shown in (
        ("nameplate_max_v", vmax, "maximum", f"{vmax:.4f} V"),
        ("nameplate_min_v", step, "minimum", f"step {step:.3e} V{after}"),
    ):
        rating = rec.metadata.extra(key)
        if rating is None:
            continue
        nameplate = _meta_float(key, rating)
        if abs(computed - nameplate) > 0.005 * max(abs(nameplate), 1e-12):
            notes.append(f"nameplate {bound} {nameplate} V unreconciled with computed {shown}")

    return {
        "total_junctions": rec.total_junctions,
        "bit_count": len(rec.bits),
        "complete_capable": vr.complete_capable,
        "strict_valid": vr.strict_valid,
        "frequency_hz": freq,
        "max_voltage_v": vmax,
        "resolution_v": step,
        "retuned_resolution_v": retuned,
        "margins": margins.to_doc(),
        "tolerances": [
            # the first three of a tolerance report's columns
            dict(zip(ToleranceReport.COLUMNS, (n, a, t)))
            for n, (a, t) in enumerate(zip(seq.bits, _tolerance_table(seq)))
        ],
        "lints": list(plausibility_lints(rec)),
        "notes": notes,
    }
