from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nims import (
    InvalidInput,
    ParseError,
    Sequence,
    build_report,
    infer_defects,
    load_device,
    margin_report,
    parse_device,
    plausibility_lints,
    serialize_device,
)
from nims.device import DeviceBit, DeviceMetadata, DeviceRecord
from nims.sequence import ToleranceReport

from .conftest import DEVICE_CSV

FIXTURE_SHA256 = "8b34d259e3176eeab542d872fd7d5989ec5c122845ebb47232e1e29e7193132a"

MINIMAL_PREAMBLE = """\
frequency_hz=1.8e10
temperature_k=4.2
critical_current_ma=8.0
normal_resistance_mohm=4.2
junction_um=11.0x4.0
current_density_ka_cm2=18.0
"""


def minimal_text(rows: str, header: str = "bit,junctions,step_pos_mA,step_zero_mA,step_neg_mA") -> str:
    return MINIMAL_PREAMBLE + header + "\n" + rows


class TestFixture:
    def test_checksum_pins_transcription(self):
        digest = hashlib.sha256(DEVICE_CSV.read_bytes()).hexdigest()
        assert digest == FIXTURE_SHA256

    def test_totals(self, device_record):
        assert device_record.total_junctions == 92098
        assert sum(device_record.sequence().bits[:9]) == 11489

    def test_bit_count(self, device_record):
        assert len(device_record.bits) == 23

    def test_round_trip_is_byte_identical(self, device_record):
        text = DEVICE_CSV.read_text()
        assert serialize_device(device_record) == text

    def test_metadata(self, device_record):
        md = device_record.metadata
        assert md.frequency_hz == 18.01e9
        assert md.temperature_k == 4.2
        assert md.critical_current_ma == 8.0
        assert md.normal_resistance_mohm == 4.2
        assert md.junction_length_um == 11.0
        assert md.junction_width_um == 4.0
        assert md.current_density_ka_cm2 == 18.0
        assert md.extra("nameplate_max_v") == "3.2"
        assert md.extra("nameplate_min_v") == "0.0025"

    def test_tolerance_notes_preserved(self, device_record):
        notes = [b.tolerance_note for b in device_record.bits]
        assert notes[:7] == ["0", "0", "0", "0", "2", "2", "242"]
        assert notes[7:] == [">100"] * 16


class TestLoader:
    def test_accepts_path_or_text(self, device_record):
        text = DEVICE_CSV.read_text()
        rec = parse_device(text)
        assert rec.total_junctions == device_record.total_junctions

    def test_five_column_form(self):
        rec = parse_device(minimal_text("0,2,1.0,1.0,1.0\n1,6,1.0,1.0,1.0\n"))
        assert rec.sequence().bits == (2, 6)
        assert rec.bits[0].tolerance_note == ""

    def test_note_holding_a_comma_round_trips(self):
        rec = parse_device(minimal_text('0,2,1.0,1.0,1.0,"past 100, see log"\n'))
        assert rec.bits[0].tolerance_note == "past 100, see log"
        assert parse_device(serialize_device(rec)) == rec

    # every line boundary str.splitlines knows, plus the characters csv quotes for
    notes = st.text(st.sampled_from('ab ,"\n\r\x0b\x0c\x1c\x85\u2028\u2029'), max_size=8)

    @given(notes.filter(lambda note: note == note.strip()), notes.filter(lambda note: note == note.strip()))
    def test_note_holding_a_line_break_round_trips(self, first, second):
        # parse_device strips each cell, so a note is drawn as its own strip
        metadata = parse_device(minimal_text("0,2,1.0,1.0,1.0\n")).metadata
        rec = DeviceRecord((DeviceBit(0, 2, 1.0, 1.0, 1.0, first), DeviceBit(1, 6, 1.0, 1.0, 1.0, second)), metadata)
        text = serialize_device(rec)
        assert parse_device(text) == rec
        assert serialize_device(parse_device(text)) == text

    def test_canonicalization_is_idempotent(self):
        rec = parse_device(minimal_text("0,2,1.0,1.0,1.0\n1,6,1.0,1.0,1.0\n"))
        once = serialize_device(rec)
        again = serialize_device(parse_device(once))
        assert once == again

    def test_missing_metadata_key(self):
        text = minimal_text("0,2,1.0,1.0,1.0\n").replace("temperature_k=4.2\n", "")
        with pytest.raises(ParseError, match="temperature_k"):
            parse_device(text)

    def test_empty_bit_list(self):
        with pytest.raises(ParseError):
            parse_device(minimal_text(""))

    def test_short_row_names_row_and_field(self):
        # preamble is six lines, header the seventh; second data row is row 9
        with pytest.raises(ParseError, match=r"row 9.*step_neg_mA"):
            parse_device(minimal_text("0,2,1.0,1.0,1.0\n1,6,1.0,1.0\n"))

    def test_rows_after_a_multi_line_note_keep_their_file_lines(self):
        # a note spanning lines 9-10 used to make every later row read one line early
        rows = '0,2,1.0,1.0,1.0\n1,6,1.0,1.0,1.0,"a\nb"\n2,18,1.0,1.0,1.0\n3,54,1.0,1.0,1.0\n4,162,1.0,x,1.0\n'
        with pytest.raises(ParseError, match=r"^row 13, field 'step_zero_mA': not a number: 'x'$"):
            parse_device(minimal_text(rows))
        # a row that holds the note is numbered by the line it starts on
        with pytest.raises(ParseError, match=r"^row 9, field 'step_zero_mA'"):
            parse_device(minimal_text('0,2,1.0,1.0,1.0\n1,6,1.0,x,1.0,"a\nb"\n'))
        assert len(parse_device(minimal_text(rows.replace(",x,", ",1.0,"))).bits) == 5

    def test_bad_number_names_field(self):
        with pytest.raises(ParseError, match="junctions"):
            parse_device(minimal_text("0,x,1.0,1.0,1.0\n"))

    def test_nonconsecutive_bits_rejected(self):
        with pytest.raises(ParseError, match="expected 1"):
            parse_device(minimal_text("0,2,1.0,1.0,1.0\n2,6,1.0,1.0,1.0\n"))

    def test_negative_junctions_rejected(self):
        with pytest.raises(ParseError):
            parse_device(minimal_text("0,-2,1.0,1.0,1.0\n"))

    def test_unknown_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            parse_device(minimal_text("0,2,1.0,1.0,1.0\n", header="bit,junctions,width"))

    @pytest.mark.parametrize(
        "lines,row,key",
        [("frequency_hz=2e9\n", 7, "frequency_hz"), ("nameplate_max_v=3.2\nnameplate_max_v=3.3\n", 8, "nameplate_max_v")],
        ids=["required", "extra"],
    )
    def test_repeated_key_rejected(self, lines, row, key):
        # a second frequency_hz used to replace the first
        text = minimal_text("0,2,1.0,1.0,1.0\n").replace("bit,", lines + "bit,")
        with pytest.raises(ParseError, match=rf"^row {row}: metadata {key} given twice$"):
            parse_device(text)

    def test_wide_row_rejected(self):
        # the extra fields used to vanish when the record was written back out
        with pytest.raises(ParseError, match=r"^row 8: 8 fields, at most 6 allowed$"):
            parse_device(minimal_text("0,2,1,1,1,note,junk,more\n"))

    def test_six_fields_under_a_five_column_header(self):
        rec = parse_device(minimal_text("0,2,1.0,1.0,1.0,note\n"))
        assert rec.bits[0].tolerance_note == "note"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_metadata_rejected(self, value):
        text = minimal_text("0,2,1.0,1.0,1.0\n").replace("frequency_hz=1.8e10", f"frequency_hz={value}")
        with pytest.raises(ParseError, match="frequency_hz must be finite"):
            parse_device(text)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_step_width_rejected(self, value):
        with pytest.raises(ParseError, match=r"row 8, field 'step_zero_mA': step width must be finite"):
            parse_device(minimal_text(f"0,2,1.0,{value},1.0\n"))

    def test_negative_metadata_rejected(self):
        text = minimal_text("0,2,1.0,1.0,1.0\n").replace("temperature_k=4.2", "temperature_k=-4.2")
        with pytest.raises(ParseError, match=r"^metadata temperature_k must not be negative, got -4.2$"):
            parse_device(text)

    def test_negative_step_width_rejected(self):
        with pytest.raises(ParseError, match=r"^row 8, field 'step_neg_mA': step width must not be negative$"):
            parse_device(minimal_text("0,2,1.0,1.0,-1.0\n"))

    def test_junction_size_needs_both_sides(self):
        text = minimal_text("0,2,1.0,1.0,1.0\n").replace("junction_um=11.0x4.0", "junction_um=11.0")
        with pytest.raises(ParseError, match=r"^junction_um must be LENGTHxWIDTH, got '11.0'$"):
            parse_device(text)

    def test_blank_lines_are_skipped(self):
        # blank and whitespace-only lines in the preamble, and empty data rows, hold nothing
        rows = "0,2,1.0,1.0,1.0\n\n,,,,\n1,6,1.0,1.0,1.0\n \n"
        plain = parse_device(minimal_text("0,2,1.0,1.0,1.0\n1,6,1.0,1.0,1.0\n"))
        assert parse_device("\n  \n" + minimal_text(rows).replace("temperature_k", "\ntemperature_k")) == plain


class TestReadingFiles:
    def test_text_is_not_a_path(self):
        with pytest.raises(ParseError, match="cannot read"):
            load_device(DEVICE_CSV.read_text())

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "device.csv"
        path.write_bytes(b"\xff\xfe" + DEVICE_CSV.read_bytes())
        with pytest.raises(ParseError, match="cannot read .*utf-8"):
            load_device(path)

    @pytest.mark.parametrize("name", ["missing.csv", "a\nb", "a\x00b", "."])
    def test_unopenable_path(self, tmp_path, name):
        with pytest.raises(ParseError, match="cannot read"):
            load_device(tmp_path / name)

    def test_field_over_the_csv_limit(self):
        text = minimal_text("0,2,1.0,1.0,1.0," + "x" * 200_000 + "\n")
        with pytest.raises(ParseError, match="unreadable CSV"):
            parse_device(text)


class TestMargins:
    def test_one_milliamp_passes(self, device_record):
        report = margin_report(device_record, 1.0)
        assert report.passed
        assert report.violations == ()
        assert report.min_positive_ma == 1.21
        assert report.min_negative_ma == 1.26

    def test_min_positive_sits_at_two_bits(self, device_record):
        widths = [b.step_pos_ma for b in device_record.bits]
        holders = [i for i, w in enumerate(widths) if w == 1.21]
        assert holders == [6, 22]

    def test_two_milliamps_flags_seventh_bit(self, device_record):
        report = margin_report(device_record, 2.0)
        assert not report.passed
        assert any(v.bit == 6 and v.width_ma == 1.21 for v in report.violations)

    def test_zero_threshold_always_passes(self, device_record):
        assert margin_report(device_record, 0.0).passed

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, device_record, threshold):
        with pytest.raises(InvalidInput, match="margin threshold must be finite"):
            margin_report(device_record, threshold)

    def test_mean_adds_left_to_right_on_every_python(self, device_record):
        # 1e16 + 1.0 rounds back to 1e16 in plain floats; a compensated sum keeps both ones
        bits = tuple(DeviceBit(i, 1, w, 1.0, w) for i, w in enumerate([1e16, 1.0, 1.0]))
        report = margin_report(DeviceRecord(bits, device_record.metadata), 1.0)
        assert report.mean_positive_ma == report.mean_negative_ma == 3333333333333333.5

    def test_doc(self, device_record):
        doc = margin_report(device_record, 1.0).to_doc()
        json.dumps(doc)
        assert doc["threshold_ma"] == 1.0
        assert doc["violations"] == []


class TestInferDefects:
    def test_against_full_bank_nominal(self, device_record):
        nominal = Sequence(device_record.sequence().bits[:8] + (5760,) * 15)
        defects = infer_defects(device_record, nominal)
        assert defects.missing == {8: 1, 14: 1, 22: 30}

    def test_identical_is_empty(self, device_record):
        defects = infer_defects(device_record, device_record.sequence())
        assert defects.missing == {}

    def test_measured_above_nominal_rejected(self, device_record):
        small = Sequence((1,) * 23)
        with pytest.raises(InvalidInput):
            infer_defects(device_record, small)

    def test_length_mismatch_rejected(self, device_record):
        with pytest.raises(InvalidInput):
            infer_defects(device_record, Sequence((2, 6, 18)))


class TestLints:
    def test_fixture_flags_wide_negative_step(self, device_record):
        lints = plausibility_lints(device_record)
        assert len(lints) == 1
        assert "bit 15" in lints[0]

    def test_zero_step_flagged(self):
        rec = parse_device(minimal_text("0,2,1.0,1.0,0.0\n1,6,1.0,1.0,1.0\n"))
        assert any("bit 0" in lint for lint in plausibility_lints(rec))


class TestBuildReport:
    def test_summary_values(self, device_record):
        doc = build_report(device_record)
        assert doc["total_junctions"] == 92098
        assert doc["bit_count"] == 23
        assert doc["complete_capable"] is True
        assert doc["strict_valid"] is False
        assert doc["max_voltage_v"] == pytest.approx(3.4299, abs=1e-4)
        assert doc["resolution_v"] == pytest.approx(7.4483e-5, rel=1e-4)
        assert doc["retuned_resolution_v"] == pytest.approx(3.7242e-5, rel=1e-4)
        assert [tuple(row) for row in doc["tolerances"]] == [ToleranceReport.COLUMNS[:3]] * 23

    def test_unreconciled_nameplate_notes(self, device_record):
        doc = build_report(device_record)
        notes = " | ".join(doc["notes"])
        assert "unreconciled" in notes
        assert "3.2" in notes and "3.4299" in notes
        assert "0.0025" in notes

    @pytest.mark.parametrize("key", ["nameplate_max_v", "nameplate_min_v"])
    def test_bad_nameplate_names_the_key(self, key):
        rec = parse_device(f"{key}=abc\n" + minimal_text("0,2,1.0,1.0,1.0\n1,6,1.0,1.0,1.0\n"))
        with pytest.raises(ParseError, match=f"metadata {key} is not a number"):
            build_report(rec)

    def test_margins_embedded(self, device_record):
        doc = build_report(device_record, 2.0)
        assert doc["margins"]["threshold_ma"] == 2.0
        assert any(v["bit"] == 6 for v in doc["margins"]["violations"])

    def test_serializes(self, device_record):
        json.dumps(build_report(device_record))


class TestSerializer:
    def test_canonical_shape(self):
        rec = DeviceRecord(
            bits=(
                DeviceBit(0, 2, 1.21, 2.0, 1.26, "0"),
                DeviceBit(1, 6, 1.5, 2.0, 1.5, ""),
            ),
            metadata=DeviceMetadata(
                frequency_hz=1.8e10,
                temperature_k=4.2,
                critical_current_ma=8.0,
                normal_resistance_mohm=4.2,
                junction_length_um=11.0,
                junction_width_um=4.0,
                current_density_ka_cm2=18.0,
                extras=(),
            ),
        )
        text = serialize_device(rec)
        lines = text.splitlines()
        assert lines[0] == "frequency_hz=18000000000.0"
        assert "bit,junctions,step_pos_mA,step_zero_mA,step_neg_mA,tolerance_note" in lines
        assert lines[-2] == "0,2,1.21,2.0,1.26,0"
        assert lines[-1] == "1,6,1.5,2.0,1.5,"
