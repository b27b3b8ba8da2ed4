"""Measured device records: load, margin analysis, defect inference.

The on-disk form is a CSV with a key=value metadata preamble ahead of the
header row. Canonical serialization always writes the optional
tolerance_note column, required metadata keys in a fixed order, and any
extra keys verbatim in sorted order, so loading a canonical file and
re-serializing it is byte identical.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

from . import bias
from .errors import InvalidInput, ParseError
from .fault_tolerance import DefectMap, _tolerances
from .sequence import Sequence, _read_text, validate

REQUIRED_METADATA = (
    "frequency_hz",
    "temperature_k",
    "critical_current_ma",
    "normal_resistance_mohm",
    "junction_um",
    "current_density_ka_cm2",
)
HEADER = ("bit", "junctions", "step_pos_mA", "step_zero_mA", "step_neg_mA")
NOTE_COLUMN = "tolerance_note"


@dataclass(frozen=True)
class DeviceBit:
    index: int
    junctions: int
    step_pos_ma: float
    step_zero_ma: float
    step_neg_ma: float
    tolerance_note: str = ""


@dataclass(frozen=True)
class DeviceMetadata:
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


@dataclass(frozen=True)
class DeviceRecord:
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


def parse_device(text: str) -> DeviceRecord:
    """Parse device CSV text: the key=value preamble, the header, one row per bit."""
    lines = text.splitlines()
    meta_raw: dict[str, str] = {}
    extras: list[tuple[str, str]] = []
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
        key, value = key.strip(), value.strip()
        if key in REQUIRED_METADATA:
            meta_raw[key] = value
        else:
            extras.append((key, value))
    if header_at is None:
        raise ParseError("no header row found")

    missing = [k for k in REQUIRED_METADATA if k not in meta_raw]
    if missing:
        raise ParseError(f"missing metadata keys: {', '.join(missing)}")

    junction = meta_raw["junction_um"]
    if "x" not in junction:
        raise ParseError(f"junction_um must be LENGTHxWIDTH, got {junction!r}")
    jl, _, jw = junction.partition("x")
    metadata = DeviceMetadata(
        frequency_hz=_meta_float("frequency_hz", meta_raw["frequency_hz"]),
        temperature_k=_meta_float("temperature_k", meta_raw["temperature_k"]),
        critical_current_ma=_meta_float("critical_current_ma", meta_raw["critical_current_ma"]),
        normal_resistance_mohm=_meta_float("normal_resistance_mohm", meta_raw["normal_resistance_mohm"]),
        junction_length_um=_meta_float("junction_um", jl),
        junction_width_um=_meta_float("junction_um", jw),
        current_density_ka_cm2=_meta_float("current_density_ka_cm2", meta_raw["current_density_ka_cm2"]),
        extras=tuple(extras),
    )

    try:
        rows = list(csv.reader(lines[header_at:]))
    except csv.Error as exc:  # a NUL byte before Python 3.11, or a field over the csv module's size limit
        raise ParseError(f"unreadable CSV: {exc}") from exc
    header = tuple(c.strip() for c in rows[0])
    if header != HEADER and header != HEADER + (NOTE_COLUMN,):
        raise ParseError(f"unexpected header {','.join(header)!r}", row=header_at + 1)

    bits: list[DeviceBit] = []
    for offset, row in enumerate(rows[1:], start=1):
        if not row or not any(cell.strip() for cell in row):
            continue
        rownum = header_at + offset + 1
        if len(row) < len(HEADER):
            missing_field = HEADER[len(row)]
            raise ParseError("missing value", row=rownum, field=missing_field)
        values = {}
        for name, cell in zip(HEADER, row):
            cell = cell.strip()
            if not cell:
                raise ParseError("missing value", row=rownum, field=name)
            values[name] = cell
        counts = []
        for name in HEADER[:2]:
            try:
                counts.append(int(values[name]))
            except ValueError as exc:
                raise ParseError(f"not an integer: {values[name]!r}", row=rownum, field=name) from exc
        idx, junctions = counts
        if idx != len(bits):
            raise ParseError(f"bit index {idx}, expected {len(bits)}", row=rownum, field="bit")
        if junctions < 0:
            raise ParseError("junction count must not be negative", row=rownum, field="junctions")
        widths = []
        for name in HEADER[2:]:
            try:
                w = float(values[name])
            except ValueError as exc:
                raise ParseError(f"not a number: {values[name]!r}", row=rownum, field=name) from exc
            if not math.isfinite(w):
                raise ParseError("step width must be finite", row=rownum, field=name)
            if w < 0:
                raise ParseError("step width must not be negative", row=rownum, field=name)
            widths.append(w)
        note = row[len(HEADER)].strip() if len(row) > len(HEADER) else ""
        bits.append(DeviceBit(idx, junctions, *widths, note))
    if not bits:
        raise ParseError("device file lists no bits")
    return DeviceRecord(tuple(bits), metadata)


def serialize_device(rec: DeviceRecord) -> str:
    """Canonical text form; see module docstring."""
    m = rec.metadata
    out = io.StringIO()
    out.write(f"frequency_hz={m.frequency_hz!r}\n")
    out.write(f"temperature_k={m.temperature_k!r}\n")
    out.write(f"critical_current_ma={m.critical_current_ma!r}\n")
    out.write(f"normal_resistance_mohm={m.normal_resistance_mohm!r}\n")
    out.write(f"junction_um={m.junction_length_um!r}x{m.junction_width_um!r}\n")
    out.write(f"current_density_ka_cm2={m.current_density_ka_cm2!r}\n")
    for key, value in sorted(m.extras):
        out.write(f"{key}={value}\n")
    out.write(",".join(HEADER + (NOTE_COLUMN,)) + "\n")
    for b in rec.bits:
        out.write(
            f"{b.index},{b.junctions},{b.step_pos_ma!r},{b.step_zero_ma!r},"
            f"{b.step_neg_ma!r},{b.tolerance_note}\n"
        )
    return out.getvalue()


@dataclass(frozen=True)
class MarginViolation:
    bit: int
    side: str
    width_ma: float


@dataclass(frozen=True)
class MarginReport:
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
        return {
            "threshold_ma": self.threshold_ma,
            "min_positive_ma": self.min_positive_ma,
            "mean_positive_ma": self.mean_positive_ma,
            "min_negative_ma": self.min_negative_ma,
            "mean_negative_ma": self.mean_negative_ma,
            "violations": [
                {"bit": v.bit, "side": v.side, "width_ma": v.width_ma} for v in self.violations
            ],
        }


def margin_report(rec: DeviceRecord, min_margin_ma: float) -> MarginReport:
    """Operating-margin summary over the signed step widths."""
    if not math.isfinite(min_margin_ma):
        raise InvalidInput(f"margin threshold must be finite, got {min_margin_ma}")
    pos = [b.step_pos_ma for b in rec.bits]
    neg = [b.step_neg_ma for b in rec.bits]
    violations = []
    for b in rec.bits:
        if b.step_pos_ma < min_margin_ma:
            violations.append(MarginViolation(b.index, "positive", b.step_pos_ma))
        if b.step_neg_ma < min_margin_ma:
            violations.append(MarginViolation(b.index, "negative", b.step_neg_ma))
    return MarginReport(
        min_margin_ma,
        min(pos),
        sum(pos) / len(pos),
        min(neg),
        sum(neg) / len(neg),
        tuple(violations),
    )


def infer_defects(rec: DeviceRecord, nominal: Sequence) -> DefectMap:
    """Missing junctions per bit relative to a nominal layout."""
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
    lints: list[str] = []
    for i, b in enumerate(rec.bits):
        for side, width in (("positive", b.step_pos_ma), ("negative", b.step_neg_ma)):
            reasons = []
            if width == b.step_zero_ma:
                reasons.append("equals the zero-step width")
            neighbours = []
            if i > 0:
                prev = rec.bits[i - 1]
                neighbours.append(prev.step_pos_ma if side == "positive" else prev.step_neg_ma)
            if i + 1 < len(rec.bits):
                nxt = rec.bits[i + 1]
                neighbours.append(nxt.step_pos_ma if side == "positive" else nxt.step_neg_ma)
            if neighbours and width > 2 * max(neighbours):
                reasons.append("more than twice both neighbours")
            if reasons:
                lints.append(f"bit {b.index}: {side} step width {width} mA {'; '.join(reasons)}")
    return tuple(lints)


def build_report(rec: DeviceRecord, min_margin_ma: float = 1.0) -> dict:
    """Combined device summary used by the CLI report command."""
    seq = rec.sequence()
    vr = validate(seq)
    margins = margin_report(rec, min_margin_ma)
    freq = rec.metadata.frequency_hz
    vmax = bias.max_voltage(seq, freq)
    step = bias.resolution(seq, freq)
    retuned = step / seq.bits[0]

    notes: list[str] = []
    for key, computed, bound, shown in (
        ("nameplate_max_v", vmax, "maximum", f"{vmax:.4f} V"),
        ("nameplate_min_v", step, "minimum", f"step {step:.3e} V ({retuned:.3e} V after retuning)"),
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
            {"bit": n, "nominal": a, "tolerance": t}
            for n, (a, t) in enumerate(zip(seq.bits, _tolerances(seq.bits)))
        ],
        "lints": list(plausibility_lints(rec)),
        "notes": notes,
    }
