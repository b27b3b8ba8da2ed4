from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nims import Sequence, cli, errors, fault_tolerance, oracle, sequence, tolerance_report
from nims.cli import main, run

from .conftest import DEVICE_CSV, DIRECTORY, ERROR_TYPES, INCAPABLE_MESSAGES, MISSING, NIMS1_BITS

NIMS1_ARG = ",".join(map(str, NIMS1_BITS))

# Byte-exact CLI output, pinned so that rendering changes cannot drift.
REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"
DEVICE = "<device bits>"
GOLDEN_CASES = {
    "oracle_device": (["oracle", "--seq", DEVICE], 0),
    "oracle_device_a0": (["oracle", "--seq", DEVICE, "--a0-offset"], 0),
    "oracle_1_2_7": (["oracle", "--seq", "1,2,7"], 0),
    "oracle_sweep": (["oracle", "--seq", "2,6,17", "--sweep"], 0),
    "defects_within": (["defects", "--seq", DEVICE, "--defects", "6:200,9:1000"], 0),
    "defects_past": (["defects", "--seq", DEVICE, "--defects", "4:40"], 1),
    "defects_scan": (["defects", "--seq", NIMS1_ARG, "--scan-budget", "3"], 0),
    "validate_device": (["validate", "--seq", DEVICE], 1),
    "validate_1_3_8": (["validate", "--seq", "1,3,8"], 0),
    "validate_1_2_7": (["validate", "--seq", "1,2,7"], 1),
    "represent": (["represent", "--seq", "1,3,8", "--m", "7"], 0),
    "tolerance": (["tolerance", "--seq", NIMS1_ARG], 0),
    "design": (
        ["design", "--a0", "2", "--msb-size", "5760", "--target-total", "92098",
         "--min-tolerance", "100:2"],
        0,
    ),
    "plan_device": (["plan", "--device", str(DEVICE_CSV), "--volts", "1.0"], 0),
    "plan_device_band_top": (["plan", "--device", str(DEVICE_CSV), "--volts", "3.44"], 0),
    "plan_seq": (["plan", "--seq", "1,3,8", "--freq", "1e10", "--volts", "0.0001"], 0),
    "compare": (
        ["compare", "--msb-size", "8000", "--standards", "--candidate", f"nims1={NIMS1_ARG}"],
        0,
    ),
    "report": (["report", "--device", str(DEVICE_CSV)], 0),
    "report_margin": (["report", "--device", str(DEVICE_CSV), "--min-margin", "2.0"], 1),
    "enumerate": (["enumerate", "--a0", "1", "--depth", "3", "--max-bit", "9"], 0),
    "enumerate_none": (["enumerate", "--a0", "5", "--depth", "2", "--max-bit", "3"], 0),
    "error_out_of_range": (["represent", "--seq", "1,3,8", "--m", "13"], 2),
    "error_bad_bits": (["validate", "--seq", "1,two,8"], 3),
}


def run_json(argv):
    res = run(argv + ["--format", "json"])
    return res.exit_code, json.loads(res.text)


class TestValidate:
    def test_strict_sequence_passes(self):
        code, doc = run_json(["validate", "--seq", "1,3,8"])
        assert code == 0
        assert doc["strict_valid"] is True

    def test_broken_chain_fails(self):
        code, doc = run_json(["validate", "--seq", "1,2,7"])
        assert code == 1
        assert doc["strict_valid"] is False
        assert doc["violations"][0]["constraint"] == "UPPER"

    def test_table_output(self):
        res = run(["validate", "--seq", "1,2,7"])
        assert res.exit_code == 1
        assert "UPPER" in res.text

    def test_seq_from_file(self, tmp_path):
        p = tmp_path / "seq.json"
        p.write_text(json.dumps({"bits": [1, 3, 8]}))
        code, doc = run_json(["validate", "--seq", str(p)])
        assert code == 0 and doc["strict_valid"] is True

    def test_csv_lists_violations(self):
        res = run(["validate", "--seq", "1,2,7", "--format", "csv"])
        assert res.exit_code == 1
        assert res.text.splitlines()[0] == "constraint,bit,message"
        assert res.text.splitlines()[1].startswith("UPPER,2,")


class TestRepresent:
    def test_published_row(self):
        code, doc = run_json(["represent", "--seq", "1,3,8", "--m", "7"])
        assert code == 0
        assert doc == {"m": 7, "signs": [-1, 0, 1], "beta": 0}

    def test_out_of_range_exit(self):
        code, doc = run_json(["represent", "--seq", "1,3,8", "--m", "13"])
        assert code == 2
        assert doc["error"]["type"] == "OutOfRange"

    def test_incapable_exit(self):
        code, doc = run_json(["represent", "--seq", "1,2,7", "--m", "3"])
        assert code == 1
        assert doc["error"]["type"] == "InvalidSequence"


class TestTolerance:
    def test_csv_matches_library(self):
        res = run(["tolerance", "--seq", NIMS1_ARG, "--format", "csv"])
        assert res.exit_code == 0
        assert res.text == tolerance_report(Sequence(NIMS1_BITS)).to_csv()


@pytest.mark.parametrize(
    "argv,columns",
    [
        (["tolerance", "--seq", NIMS1_ARG], sequence.ToleranceReport.COLUMNS),
        (["defects", "--seq", NIMS1_ARG, "--scan-budget", "1"], fault_tolerance.ScanReport.COLUMNS),
    ],
    ids=["tolerance", "scan"],
)
def test_each_report_header_reads_its_columns(argv, columns):
    assert run(argv + ["--format", "csv"]).text.splitlines()[0] == ",".join(columns)
    for entry in json.loads(run(argv + ["--format", "json"]).text)["entries"]:
        assert tuple(entry)[: len(columns)] == columns
    assert "  ".join(columns) in run(argv).text.splitlines()


class TestDefects:
    def test_inline_defects(self):
        code, doc = run_json(["defects", "--seq", NIMS1_ARG, "--defects", "2:1"])
        assert code == 0
        assert doc["within_tolerance"] is True
        assert doc["defective_bits"][2] == 5
        assert doc["oracle_complete"] is True

    def test_defect_file(self, tmp_path):
        p = tmp_path / "defects.json"
        p.write_text(json.dumps({"defects": {"2": 2}}))
        code, doc = run_json(["defects", "--seq", NIMS1_ARG, "--defects", str(p)])
        assert code == 1
        assert doc["within_tolerance"] is False
        assert doc["complete_capable"] is False

    def test_removing_the_whole_last_bit_is_past_tolerance(self):
        code, doc = run_json(["defects", "--seq", "1,3,8", "--defects", "2:8"])
        assert code == 1
        assert doc["within_tolerance"] is False
        assert doc["defective_bits"] == [1, 3, 0] and doc["complete_capable"] is False

    def test_scan(self):
        code, doc = run_json(["defects", "--seq", NIMS1_ARG, "--scan-budget", "1"])
        assert code == 0
        statuses = [e["status"] for e in doc["entries"]]
        assert statuses[:2] == ["UNSAFE", "UNSAFE"]

    @pytest.mark.parametrize(
        "bits,budget,violations",
        [
            ("1,0,3", "2", INCAPABLE_MESSAGES[(1, 0, 3)]),
            (
                "0,0,0",
                "1",
                "bit 0 must hold at least one junction, got 0; bit 1 must hold at least one junction, got 0; "
                "bit 2 must hold at least one junction, got 0",
            ),
        ],
        ids=["dead-middle-bit", "all-dead"],
    )
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_a_scan_of_an_incapable_sequence_is_refused(self, bits, budget, violations, fmt):
        # a scan certifies a chain; with none to certify it once raised, or reported safe_up_to -1
        message = "sequence is not completeness capable: " + violations
        res = run(["defects", "--seq", bits, "--scan-budget", budget, "--format", fmt])
        assert res.exit_code == 1
        expected = {
            "table": f"error: {message}\n",
            "csv": sequence.csv_rows([["error", "message"], ["InvalidSequence", message]]),
            "json": json.dumps({"error": {"type": "InvalidSequence", "message": message, "exit_code": 1}}) + "\n",
        }
        assert res.text == expected[fmt]
        if fmt == "json":
            assert strict_json(res.text)["error"]["type"] == "InvalidSequence"

    def test_requires_a_mode(self):
        code, doc = run_json(["defects", "--seq", NIMS1_ARG])
        assert code == 3
        assert doc["error"]["type"] == "InvalidInput"


class TestDesign:
    def test_flags(self):
        code, doc = run_json(
            ["design", "--a0", "1", "--msb-size", "3", "--target-total", "6"]
        )
        assert code == 0
        assert doc["bits"] == [1, 2, 3]

    def test_spec_file(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"a0": 1, "msb_size": 3, "target_total": 6}))
        code, doc = run_json(["design", "--spec", str(p)])
        assert code == 0 and doc["bits"] == [1, 2, 3]

    def test_infeasible_exit(self):
        code, doc = run_json(
            ["design", "--a0", "1", "--msb-size", "8000", "--target-total", "8000"]
        )
        assert code == 2
        assert doc["error"]["type"] == "Infeasible"

    def test_min_tolerance_flag(self):
        code, doc = run_json(
            [
                "design",
                "--a0", "2",
                "--msb-size", "5760",
                "--target-total", "92098",
                "--min-tolerance", "100:2",
            ]
        )
        assert code == 0
        assert doc["bits"][:9] == [2, 6, 18, 54, 162, 480, 1434, 4296, 5006]


class TestPlan:
    def test_device_defaults_frequency(self):
        code, doc = run_json(["plan", "--device", str(DEVICE_CSV), "--volts", "1.0"])
        assert code == 0
        assert doc["m"] == 26852
        assert doc["in_band"] is True

    def test_explicit_frequency(self):
        code, doc = run_json(
            ["plan", "--device", str(DEVICE_CSV), "--volts", "1.0", "--freq", "18.01e9"]
        )
        assert code == 0 and doc["m"] == 26852

    def test_needs_a_device_or_a_sequence(self):
        code, doc = run_json(["plan", "--volts", "0.001", "--freq", "18e9"])
        assert code == 3
        assert doc["error"] == {"type": "InvalidInput", "message": "pass --device or --seq", "exit_code": 3}

    def test_seq_requires_freq(self):
        code, doc = run_json(["plan", "--seq", "1,3,8", "--volts", "0.001"])
        assert code == 3

    def test_out_of_range(self):
        code, doc = run_json(["plan", "--device", str(DEVICE_CSV), "--volts", "3.6"])
        assert code == 2
        assert doc["error"]["type"] == "OutOfRange"

    def test_band_flag(self):
        code, doc = run_json(
            [
                "plan",
                "--device", str(DEVICE_CSV),
                "--volts", "1.0",
                "--band", "18.0099e9:18.0101e9",
            ]
        )
        assert code == 0
        assert doc["in_band"] is False

    def test_bad_band(self):
        code, doc = run_json(
            ["plan", "--device", str(DEVICE_CSV), "--volts", "1.0", "--band", "x:y"]
        )
        assert code == 3

    @pytest.mark.parametrize("band", ["17e9", ":", "17e9:", ":19e9", " :19e9"])
    def test_band_needs_both_edges(self, band):
        code, doc = run_json(["plan", "--seq", "1,3,8", "--freq", "18e9", "--volts", "1e-4", "--band", band])
        assert code == 3
        assert doc["error"] == {"type": "InvalidInput", "message": f"bad band {band!r}: expected LO:HI", "exit_code": 3}

    def test_headroom_beyond_float_range(self):
        code, doc = run_json(["plan", "--seq", "1" + "0" * 400, "--volts", "1", "--freq", "1e10"])
        assert code == 2
        assert doc["error"]["type"] == "RangeError"


class TestCompare:
    def test_standards(self):
        res = run(
            ["compare", "--msb-size", "8000", "--lsb-count", "14", "--standards", "--format", "csv"]
        )
        assert res.exit_code == 0
        header = res.text.splitlines()[0]
        assert "binary junctions" in header and "ternary junctions" in header

    def test_custom_candidate(self):
        code, doc = run_json(
            ["compare", "--msb-size", "8000", "--candidate", f"nims1={NIMS1_ARG}"]
        )
        assert code == 0
        assert doc["candidates"][0]["name"] == "nims1"
        assert doc["candidates"][0]["bits_to_msb"] == 9

    def test_candidate_needs_a_name(self):
        code, doc = run_json(["compare", "--msb-size", "100", "--candidate", "1,3,8"])
        assert code == 3
        message = "candidate '1,3,8' must be NAME=BITS"
        assert doc["error"] == {"type": "InvalidInput", "message": message, "exit_code": 3}

    @pytest.mark.parametrize("name", ["a,b", 'say "hi"'])
    def test_csv_quotes_candidate_names(self, name):
        res = run(
            ["compare", "--msb-size", "100", "--lsb-count", "3", "--candidate", f"{name}=1,3,8",
             "--format", "csv"]
        )
        assert res.exit_code == 0
        rows = list(csv.reader(io.StringIO(res.text)))
        assert rows[0] == ["bit", f"{name} junctions", f"{name} tolerance"]
        assert rows[1:] == [["0", "1", "0"], ["1", "3", "0"], ["2", "8", ""]]

    def test_csv_quotes_a_name_holding_a_carriage_return(self):
        res = run(["compare", "--msb-size", "10", "--candidate", "a\rb=1,3", "--format", "csv"])
        assert res.exit_code == 0
        rows = list(csv.reader(io.StringIO(res.text, newline="")))
        assert rows[0] == ["bit", "a\rb junctions", "a\rb tolerance"]
        assert len(rows) == 15 and {len(row) for row in rows} == {3}

    def test_requires_candidates(self):
        code, doc = run_json(["compare", "--msb-size", "8000"])
        assert code == 3

    @pytest.mark.parametrize(
        "sizes", [["--msb-size", "9", "--lsb-count", "0"], ["--msb-size", "0"]], ids=["lsb", "msb"]
    )
    @pytest.mark.parametrize("standards", [[], ["--standards"]], ids=["plain", "standards"])
    def test_a_size_below_one_names_the_flags_typed(self, sizes, standards):
        # the sizes are checked before a standard column is built, so its "length" never shows
        code, doc = run_json(["compare", *sizes, *standards])
        assert code == 3
        assert doc["error"] == {
            "type": "InvalidInput", "message": "lsb_count and msb_size must be positive", "exit_code": 3
        }


class TestReport:
    def test_passes_at_default_margin(self):
        code, doc = run_json(["report", "--device", str(DEVICE_CSV)])
        assert code == 0
        assert doc["total_junctions"] == 92098
        assert any("unreconciled" in note for note in doc["notes"])

    def test_fails_at_two_milliamps(self):
        code, doc = run_json(["report", "--device", str(DEVICE_CSV), "--min-margin", "2.0"])
        assert code == 1
        assert doc["margins"]["violations"]

    @staticmethod
    def _device_with_first_bit(tmp_path, first_bit):
        lines = DEVICE_CSV.read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("0,"))
        row = lines[first].split(",")
        row[1] = str(first_bit)
        lines[first] = ",".join(row)
        device = tmp_path / "device.csv"
        device.write_text("\n".join(lines) + "\n")
        return str(device)

    @pytest.mark.parametrize("margin, code", [("1.0", 0), ("2.0", 1)])
    def test_a_dead_first_bit_has_no_retuned_resolution(self, tmp_path, margin, code):
        # a step over bit 0's junctions is undefined when it holds none; the margins set the exit code
        argv = ["report", "--device", self._device_with_first_bit(tmp_path, 0), "--min-margin", margin]
        res = {fmt: run(argv + ["--format", fmt]) for fmt in ("json", "csv", "table")}
        assert {r.exit_code for r in res.values()} == {code}
        doc = strict_json(res["json"].text)
        note = "nameplate minimum 0.0025 V unreconciled with computed step 0.000e+00 V"
        assert doc["retuned_resolution_v"] is None and doc["resolution_v"] == 0.0
        assert note in doc["notes"] and not any("retuning" in n for n in doc["notes"])
        assert "retuned_resolution_v,null\n" in res["csv"].text
        assert f"note,{note}\n" in res["csv"].text
        assert "retuned_resolution_v  None\n" in res["table"].text
        assert f"note: {note}\n" in res["table"].text

    def test_total_beyond_float_range(self, tmp_path):
        code, doc = run_json(["report", "--device", self._device_with_first_bit(tmp_path, 10**400)])
        assert code == 2
        assert doc["error"] == {
            "type": "RangeError",
            "message": "sequence total exceeds the largest float, 1.798e+308",
            "exit_code": 2,
        }

    def test_voltage_beyond_float_range(self, tmp_path):
        # the total is a float, but times the drive frequency it is not: no Infinity in the document
        res = run(["report", "--device", self._device_with_first_bit(tmp_path, 10**300), "--format", "json"])
        assert res.exit_code == 2
        assert strict_json(res.text)["error"] == {
            "type": "RangeError",
            "message": "sequence total times the drive frequency exceeds the largest float, 1.798e+308",
            "exit_code": 2,
        }


class TestEnumerateOracle:
    def test_enumerate(self):
        code, doc = run_json(["enumerate", "--a0", "1", "--depth", "2", "--max-bit", "3"])
        assert code == 0
        assert doc["sequences"] == [[1, 2], [1, 3]]

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_enumerate_builds_only_the_requested_format(self, fmt):
        argv = ["enumerate", "--a0", "1", "--depth", "3", "--max-bit", "9", "--format", fmt]
        args = cli.build_parser().parse_args(argv)
        out = args.handler(args)
        built = {"json": bool(out.doc), "csv": bool(out.csv), "table": bool(out.table)}
        assert built == {name: name == fmt for name in built}

    def test_oracle_complete_despite_broken_chain(self):
        code, doc = run_json(["oracle", "--seq", "1,2,7"])
        assert code == 0
        assert doc["complete"] is True
        assert doc["gap_count"] == 0

    def test_oracle_reports_gaps(self):
        code, doc = run_json(["oracle", "--seq", "1,2,8"])
        assert code == 0
        assert doc["complete"] is False
        assert doc["gap_count"] == 2

    def test_oracle_sweep(self):
        code, doc = run_json(["oracle", "--seq", "1,3,8", "--sweep"])
        assert code == 0
        assert doc["sweep_checked"] == 25
        assert doc["sweep_failures"] == []


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_oracle_output_is_unchanged(case, fmt, measured):
    argv, code = GOLDEN_CASES[case]
    device = ",".join(map(str, measured.bits))
    res = run([device if a == DEVICE else a for a in argv] + ["--format", fmt])
    assert res.exit_code == code
    assert res.text.encode() == (GOLDEN / f"{case}.{fmt}").read_bytes()


@pytest.mark.parametrize(
    "argv, calls",
    [
        (["oracle", "--seq", "1,3,8"], 1),
        (["oracle", "--seq", "1,3,8", "--sweep"], 1),
        (["oracle", "--seq", "2,6,18", "--a0-offset"], 1),
        (["oracle", "--seq", "2,6,18"], 2),
    ],
)
def test_oracle_builds_the_plain_set_only_when_it_differs(argv, calls, monkeypatch):
    real = oracle.reachable_sums
    seen = []

    def counting(*args, **kwargs):
        seen.append(kwargs.get("a0_offset"))
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "reachable_sums", counting)
    assert run(argv).exit_code == 0
    assert len(seen) == calls


class TestCapControls:
    @pytest.mark.parametrize(
        "case", sorted(c for c, (argv, _) in GOLDEN_CASES.items() if argv[0] not in ("oracle", "defects"))
    )
    def test_cap_is_a_usage_error_where_no_oracle_runs(self, case):
        code, doc = run_json(GOLDEN_CASES[case][0] + ["--cap", "5"])
        assert code == 3
        assert doc["error"]["type"] == "CliUsageError"

    def test_flag_caps_defects(self):
        code, doc = run_json(["defects", "--seq", "1,3,8", "--defects", "2:1", "--cap", "5"])
        assert code == 0
        assert doc["oracle_complete"] is None

    def test_flag_caps_oracle(self):
        code, doc = run_json(["oracle", "--seq", "1,3,9", "--cap", "5"])
        assert code == 2
        assert doc["error"]["type"] == "RangeError"

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("NIMS_ORACLE_CAP", "5")
        code, doc = run_json(["oracle", "--seq", "1,3,9"])
        assert code == 2

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("NIMS_ORACLE_CAP", "5")
        code, doc = run_json(["oracle", "--seq", "1,3,9", "--cap", "100"])
        assert code == 0

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("NIMS_ORACLE_CAP", "lots")
        code, doc = run_json(["oracle", "--seq", "1,3,9"])
        assert code == 3


class TestErrorPlumbing:
    def test_unknown_flag(self):
        res = run(["validate", "--seq", "1,3,8", "--wat"])
        assert res.exit_code == 3

    def test_unknown_command(self):
        res = run(["transmogrify"])
        assert res.exit_code == 3

    def test_no_arguments(self):
        res = run([])
        assert res.exit_code == 3

    def test_csv_error_document(self):
        res = run(["represent", "--seq", "1,3,8", "--m", "99", "--format", "csv"])
        assert res.exit_code == 2
        lines = res.text.splitlines()
        assert lines[0] == "error,message"
        assert lines[1].startswith("OutOfRange,")

    def test_csv_error_document_quotes_a_carriage_return(self):
        res = run(["validate", "--seq", "1,3", "--format", "csv", "x\ry"])
        assert res.exit_code == 3
        rows = list(csv.reader(io.StringIO(res.text, newline="")))
        assert rows == [["error", "message"], ["CliUsageError", "unrecognized arguments: x\ry"]]

    def test_json_error_document_fields(self):
        code, doc = run_json(["represent", "--seq", "1,3,8", "--m", "99"])
        assert code == 2
        assert set(doc["error"]) == {"type", "message", "exit_code"}
        assert doc["error"]["exit_code"] == 2

    def test_bad_inline_bits(self):
        res = run(["validate", "--seq", "1,two,8"])
        assert res.exit_code == 3


DESIGN_FLAGS = ["design", "--a0", "2", "--msb-size", "5760", "--target-total", "92098"]
# each design flag that --spec would otherwise leave unread, with a value it accepts
SPEC_CONFLICTS = (
    ("--a0", "2"), ("--msb-size", "5760"), ("--target-total", "92098"), ("--min-tolerance", "100:2"), ("--max-ratio", "3"),
)
PLAN_FLAGS = ["plan", "--seq", "1,3,8"]


class JsonFile(str):
    """An argv slot the test fills with the path of a file holding this text."""


class RawFile(bytes):
    """An argv slot the test fills with the path of a file holding these bytes."""



def with_files(argv: list, tmp_path: Path) -> list[str]:
    """argv with each JsonFile, RawFile, MISSING or DIRECTORY slot replaced by a path."""
    out = []
    for i, arg in enumerate(argv):
        if isinstance(arg, (JsonFile, RawFile)):
            path = tmp_path / f"arg{i}.json"
            path.write_bytes(arg if isinstance(arg, bytes) else arg.encode())
            arg = str(path)
        elif arg == MISSING:
            arg = str(tmp_path / "missing.json")
        elif arg == DIRECTORY:
            arg = str(tmp_path)
        out.append(arg)
    return out


@pytest.mark.parametrize(
    "argv",
    [
        DESIGN_FLAGS + ["--min-tolerance", "x:2"],
        DESIGN_FLAGS + ["--max-ratio", "abc"],
        DESIGN_FLAGS + ["--max-ratio", "0/0"],
        PLAN_FLAGS + ["--freq", "1e10", "--volts", "nan"],
        PLAN_FLAGS + ["--freq", "1e10", "--volts", "inf"],
        PLAN_FLAGS + ["--freq", "inf", "--volts", "0.001"],
        PLAN_FLAGS + ["--freq", "nan", "--volts", "0.001"],
        ["plan", "--device", str(DEVICE_CSV), "--freq", "inf", "--volts", "1.0"],
        ["design", "--spec", JsonFile("[1, 2]")],
        ["design", "--spec", JsonFile('{"a0": 2, "msb_size": 5760, "target_total": 92098, "max_ratio": "0/0"}')],
        ["defects", "--seq", "1,3,8", "--defects", JsonFile('{"defects": {"x": 3}}')],
        ["defects", "--seq", "1,3,8", "--defects", JsonFile('{"defects": {"1": null}}')],
        ["defects", "--seq", "1,3,8", "--defects", JsonFile('{"defects": {"2": 1.9}}')],
        ["defects", "--seq", "1,3,8", "--defects", JsonFile('{"defects": {"2": true}}')],
        ["validate", "--seq", JsonFile("[" * 200_000)],
        ["report", "--device", str(DEVICE_CSV), "--min-margin", "nan"],
        ["report", "--device", str(DEVICE_CSV), "--min-margin", "inf"],
        ["design", "--spec", JsonFile(
            '{"a0": 2.9, "msb_size": 5760.7, "target_total": 92098,'
            ' "min_tolerance": [{"at_least": 100.5, "tolerance": true}]}'
        )],
        ["design", "--spec", JsonFile('{"a0": 2.0, "msb_size": 5760, "target_total": 92098}')],
        ["design", "--spec", JsonFile(
            '{"a0": 2, "msb_size": 5760, "target_total": 92098, "min_tolerance": [{"at_least": 100, "tolerance": true}]}'
        )],
        ["design", "--spec", JsonFile('{"a0": 2, "msb_size": 5760, "target_total": 92098, "max_ratio": Infinity}')],
        ["enumerate", "--a0", "1", "--depth", "3", "--max-bit", "9", "--limit", "-1"],
        ["oracle", "--seq", "1,3,8", "--cap", "-5"],
        ["defects", "--seq", "1,3,8", "--defects", "2:1", "--cap", "-5"],
        # an integer with more digits than int() converts from a string, in each JSON loader
        ["validate", "--seq", JsonFile('{"bits": [1, 3, ' + "8" * 4301 + "]}")],
        ["defects", "--seq", "1,3,8", "--defects", JsonFile('{"defects": {"2": ' + "1" * 4301 + "}}")],
        ["design", "--spec", JsonFile('{"a0": 2, "msb_size": 5760, "target_total": ' + "9" * 4301 + "}")],
        # a key given twice, which a dict would keep one count of
        ["defects", "--seq", "1,3", "--defects", "1:2,1:1"],
        ["defects", "--seq", "1,3", "--defects", JsonFile('{"defects": {"1": 2, "01": 1}}')],
        ["defects", "--seq", "1,3", "--defects", JsonFile('{"defects": {"1": 2, "1": 1}}')],
        ["validate", "--seq", JsonFile('{"bits": [1, 3], "bits": [1, 2, 7]}')],
        # two inputs of which the command would read one
        ["defects", "--seq", "1,3,8", "--defects", "2:1", "--scan-budget", "1"],
        ["plan", "--device", str(DEVICE_CSV), "--seq", "1,3,8", "--volts", "1.0"],
        *(
            ["design", "--spec", JsonFile('{"a0": 2, "msb_size": 5760, "target_total": 92098}'), flag, value]
            for flag, value in SPEC_CONFLICTS
        ),
    ],
    ids=[
        "min-tolerance", "max-ratio-abc", "max-ratio-0-0",
        "volts-nan", "volts-inf", "freq-inf", "freq-nan", "device-freq-inf",
        "spec-not-object", "spec-ratio-0-0", "defect-bit-not-int", "defect-count-null",
        "defect-count-float", "defect-count-bool", "seq-nested-too-deeply",
        "min-margin-nan", "min-margin-inf", "spec-floats-and-bool", "spec-integral-float",
        "spec-rule-bool", "spec-ratio-infinity", "enumerate-negative-limit", "oracle-negative-cap",
        "defects-negative-cap", "seq-past-int-digit-limit", "defects-past-int-digit-limit",
        "spec-past-int-digit-limit", "defects-inline-bit-twice", "defect-file-bit-twice",
        "defect-file-key-twice", "seq-file-key-twice", "defects-and-scan-budget", "plan-device-and-seq",
        *(f"spec-and{flag[1:]}" for flag, _ in SPEC_CONFLICTS),
    ],
)
def test_malformed_values_exit_3_with_json_document(argv, capsys, tmp_path):
    code = main(with_files(argv, tmp_path) + ["--format", "json"])
    captured = capsys.readouterr()
    assert code == 3
    assert "Traceback" not in captured.out + captured.err
    doc = strict_json(captured.out)
    assert doc["error"]["type"] == "InvalidInput"
    assert doc["error"]["exit_code"] == 3


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["defects", "--seq", "1,3,8", "--defects", "2:1", "--scan-budget", "1"], "pass --defects or --scan-budget, not both"),
        (["plan", "--device", str(DEVICE_CSV), "--seq", "1,3,8", "--volts", "1.0"], "pass --device or --seq, not both"),
        *(
            (["design", "--spec", MISSING, flag, value], f"pass --spec or {flag}, not both")
            for flag, value in SPEC_CONFLICTS
        ),
        (["defects", "--seq", "1,3", "--defects", "1:2, 1:1"], "inline defect bit '1' is given more than once"),
    ],
    ids=["defects", "plan", *(flag[2:] for flag, _ in SPEC_CONFLICTS), "inline-defects"],
)
def test_conflicting_and_repeated_inputs_are_named(argv, message, tmp_path):
    # both inputs are named, before any file is read: the spec here does not exist
    res = run(with_files(argv, tmp_path))
    assert res.exit_code == 3 and res.text == f"error: {message}\n"


def strict_json(text: str) -> object:
    """json.loads that rejects NaN and Infinity, which RFC 8259 JSON does not have."""

    def reject(constant):
        raise ValueError(f"not RFC 8259 JSON: {constant}")

    return json.loads(text, parse_constant=reject)


NOT_UTF8 = RawFile(b'\xff\xfe{"bits": [1, 3, 8]}')


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "--spec", MISSING],
        ["design", "--spec", DIRECTORY],
        ["design", "--spec", NOT_UTF8],
        ["validate", "--seq", MISSING],
        ["validate", "--seq", "data/no_such_bits"],
        ["validate", "--seq", DIRECTORY],
        ["validate", "--seq", NOT_UTF8],
        ["defects", "--seq", "1,3,8", "--defects", MISSING],
        ["defects", "--seq", "1,3,8", "--defects", "no_such_defects.json"],
        ["defects", "--seq", "1,3,8", "--defects", DIRECTORY],
        ["defects", "--seq", "1,3,8", "--defects", NOT_UTF8],
        ["design", "--spec", "a\x00b"],
        ["report", "--device", "a\x00b"],
    ],
    ids=[
        "spec-missing", "spec-directory", "spec-not-utf8", "seq-missing", "seq-missing-slash",
        "seq-directory", "seq-not-utf8", "defects-missing", "defects-missing-json", "defects-directory",
        "defects-not-utf8", "spec-nul-in-path", "device-nul-in-path",
    ],
)
def test_unreadable_file_exits_3_with_parse_error(argv, capsys, tmp_path):
    argv = with_files(argv, tmp_path)
    code = main(argv + ["--format", "json"])
    captured = capsys.readouterr()
    assert code == 3
    assert "Traceback" not in captured.out + captured.err
    error = strict_json(captured.out)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith(f"cannot read {argv[-1]}: ")


# The exit-code contract of the nims.errors docstring, one row per error type.
EXIT_CODES = {
    "InvalidSequence": 1,
    "OutOfRange": 2,
    "RangeError": 2,
    "Infeasible": 2,
    "DegenerateTarget": 2,
    "InvalidInput": 3,
    "ParseError": 3,
    "CliUsageError": 3,
}


def test_every_error_type_declares_the_documented_exit_code():
    assert {klass.__name__: vars(klass).get("exit_code") for klass in ERROR_TYPES} == EXIT_CODES


@pytest.mark.parametrize("error_type", ERROR_TYPES, ids=lambda klass: klass.__name__)
def test_error_document_reports_the_exit_code_of_its_type(error_type, monkeypatch):
    def fail(args):
        raise error_type("boom")

    monkeypatch.setattr(cli, "_cmd_validate", fail)
    code, doc = run_json(["validate", "--seq", "1,3,8"])
    assert code == doc["error"]["exit_code"] == error_type.exit_code
    assert doc["error"] == {"type": error_type.__name__, "message": "boom", "exit_code": code}


LONG_BITS = ",".join(["1000"] * 60)  # 299 characters, past the 255-byte limit of a file name
LONG_DEFECTS = ",".join(f"{n}:1" for n in range(60))


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--seq", "{bits}"],
        ["defects", "--seq", LONG_BITS, "--defects", "{defects}"],
        ["compare", "--msb-size", "8000", "--candidate", "long={bits}"],
    ],
    ids=["seq", "defects", "candidate"],
)
def test_long_inline_values_read_like_their_files(argv, fmt, tmp_path):
    bits = tmp_path / "bits.json"
    bits.write_text(json.dumps({"bits": [1000] * 60}))
    defects = tmp_path / "defects.json"
    defects.write_text(json.dumps({"defects": {n: 1 for n in range(60)}}))
    inline = run([arg.format(bits=LONG_BITS, defects=LONG_DEFECTS) for arg in argv] + ["--format", fmt])
    stored = run([arg.format(bits=bits, defects=defects) for arg in argv] + ["--format", fmt])
    assert inline.exit_code in (0, 1)
    assert (inline.exit_code, inline.text) == (stored.exit_code, stored.text)


@pytest.mark.parametrize("ratio", ["1e100000000", "-1e100000000", "1e-100000000"])
@pytest.mark.parametrize("source", ["flag", "spec"])
def test_ratio_with_a_huge_exponent_is_refused_at_once(ratio, source, tmp_path):
    # Fraction would build 10**100000000 first; a subprocess bounds the wait if that returns
    if source == "flag":
        argv = DESIGN_FLAGS + [f"--max-ratio={ratio}"]  # "=": argparse takes a lone -1e... for an option
    else:
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"a0": 2, "msb_size": 5760, "target_total": 92098, "max_ratio": ratio}))
        argv = ["design", "--spec", str(spec)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nims.cli", *argv, "--format", "json"], capture_output=True, env=env, timeout=10
    )
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"] == {
        "type": "InvalidInput", "message": "max_ratio must lie in (1, 3]", "exit_code": 3
    }


@pytest.mark.parametrize(
    "argv,code",
    [
        (["enumerate", "--a0", "1", "--depth", "30", "--max-bit", "3000", "--limit", "5"], 0),
        (["enumerate", "--a0", "1", "--depth", "2000", "--max-bit", "9" * 1000, "--limit", "1"], 2),
        (["compare", "--msb-size", "5760", "--lsb-count", "1000000", "--standards"], 2),
        (["compare", "--msb-size", "5760", "--lsb-count", "1000000", "--candidate", "mine=1,3,9"], 2),
        (["design", "--a0", "1", "--msb-size", "3", "--target-total", "3000000"], 2),
        (["design", "--a0", "1", "--msb-size", "3", "--target-total", str(10**12)], 2),
    ],
    ids=["enumerate_depth_30", "enumerate_depth_2000", "compare_standards", "compare_candidate", "design", "design_1e12"],
)
def test_huge_searches_and_layouts_end_at_once(argv, code):
    # a subprocess bounds the wait: these searched every dead prefix, recursed past
    # the interpreter's limit, or laid out one list entry per bank
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nims.cli", *argv, "--format", "json"], capture_output=True, env=env, timeout=10
    )
    assert proc.returncode == code
    doc = json.loads(proc.stdout)
    if code == 0:
        assert doc["count"] == 0
    else:
        assert doc["error"]["type"] == "RangeError"


def test_negative_env_cap_exits_3(monkeypatch):
    monkeypatch.setenv("NIMS_ORACLE_CAP", "-5")
    code, doc = run_json(["oracle", "--seq", "1,3,9"])
    assert code == 3
    assert doc["error"]["type"] == "InvalidInput"


def test_the_library_refuses_a_negative_cap_as_the_cli_does():
    # one cap rule: the wording and exit code of the --cap -5 cases above
    seq = Sequence((1, 3, 8))
    for call in (
        lambda: oracle.is_complete(seq, cap=-1),
        lambda: oracle.reachable_sums(seq, cap=-1),
        lambda: oracle.oracle_gaps(seq, cap=-1),
        lambda: fault_tolerance.worst_case_scan(seq, 1, cap=-1),
    ):
        with pytest.raises(errors.InvalidInput, match="^oracle cap must not be negative, got -1$") as caught:
            call()
        assert caught.value.exit_code == 3


# the interpreter's limit on the digits str writes of an int, and int() reads
DIGIT_LIMIT = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
LONGEST = 10**DIGIT_LIMIT - 1  # the longest int the CLI reads


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this interpreter writes an int of any length")
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize(
    "argv,message",
    [
        # twelve bits the CLI reads, whose total str cannot write
        (["oracle", "--seq", ",".join([str(LONGEST)] * 12)], "exceeds oracle cap"),
        (["defects", "--seq", ",".join([str(LONGEST)] * 12), "--scan-budget", "1"], "exceeds oracle cap"),
        # the proportion (2B + 1)/(3B) of bit 0 is one digit longer than B
        (["tolerance", "--seq", f"{LONGEST},{LONGEST - 1}"], "proportion cannot be written"),
        # the mean efficiency is a Fraction over the lcm of the bits
        (
            [
                "compare", "--msb-size", str(10 ** (DIGIT_LIMIT - 100)), "--candidate",
                "x={},{},{}".format(*(k * 10 ** (DIGIT_LIMIT - 300) + j for k, j in ((1, 1), (2, 3), (5, 7)))),
            ],
            "efficiency cannot be written",
        ),
    ],
    ids=["oracle", "defects-scan", "tolerance", "compare"],
)
def test_a_number_too_long_to_write_is_a_range_error(argv, message, fmt, capsys):
    code = main(argv + ["--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.out + captured.err
    if fmt == "json":
        error = strict_json(captured.out)["error"]
        assert (error["type"], error["exit_code"]) == ("RangeError", 2)
        assert message in error["message"]
    elif fmt == "csv":
        assert list(csv.reader(io.StringIO(captured.out)))[1][0] == "RangeError"
    else:
        assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_a_multiple_past_float_range_is_out_of_range(fmt, capsys):
    # 1e308 V needs inf times K_J, and the headroom times a band top near 1e308 is inf too
    code = main(["plan", "--seq", "1,3,8", "--freq", "1e308", "--volts", "1e308", "--format", fmt])
    captured = capsys.readouterr()
    message = "1e+308 V at 1e+308 Hz needs a multiple past float range, beyond 12"
    assert code == 2
    assert "Traceback" not in captured.out + captured.err
    if fmt == "json":
        assert strict_json(captured.out) == {"error": {"type": "OutOfRange", "message": message, "exit_code": 2}}
    elif fmt == "csv":
        assert list(csv.reader(io.StringIO(captured.out))) == [["error", "message"], ["OutOfRange", message]]
    else:
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize(
    ("argv", "kind", "message"),
    [
        # 1e290 V times K_J is finite and past the band top; only its quotient by 1e-30 Hz overflows
        (
            ["plan", "--seq", "1,3,8", "--freq", "1e-30", "--volts", "1e290"],
            "OutOfRange",
            "1e+290 V at 1e-30 Hz needs a multiple past float range, beyond 12",
        ),
        (["defects", "--seq", "1,3,8", "--defects", "2"], "InvalidInput", "inline defect '2' must be BIT:COUNT"),
    ],
    ids=["multiple-past-float-range-at-the-band-top", "inline-defect-without-colon"],
)
def test_a_refusal_is_worded_alike_in_table_and_json(argv, kind, message, fmt, capsys):
    code = main([*argv, "--format", fmt])
    captured = capsys.readouterr()
    assert code == EXIT_CODES[kind]
    if fmt == "json":
        assert strict_json(captured.out) == {"error": {"type": kind, "message": message, "exit_code": code}}
    else:
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this interpreter writes an int of any length")
def test_a_fraction_too_long_to_write_is_refused_when_rendered():
    # computing the report pays nothing; each rendering refuses
    report = tolerance_report(Sequence((LONGEST, LONGEST - 1)))
    assert report.entries[0].proportion.denominator == 3 * LONGEST
    for render in (report.to_doc, report.to_csv):
        with pytest.raises(errors.RangeError, match="its numerator has"):
            render()
    assert errors.int_text(12 * LONGEST) == f"<{DIGIT_LIMIT + 2} digits>"
    assert errors.int_text(-12 * LONGEST) == f"-<{DIGIT_LIMIT + 2} digits>"
    assert errors.int_text(-LONGEST) == str(-LONGEST)


@given(st.integers(-(10**5000), 10**5000) | st.sampled_from([10**k + j for k in range(1, 60) for j in (-1, 0)]))
@example(0)
@example(10**4300)
def test_digit_count_brackets_the_int(n):
    digits = errors.digit_count(n)
    assert digits == 1 if n == 0 else 10 ** (digits - 1) <= abs(n) < 10**digits


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--a0", "1", "--depth", "2", "--max-bit", "3", "--limit", "0"],
        ["oracle", "--seq", "1,3,8", "--cap", "0"],
    ],
    ids=["limit-0", "cap-0"],
)
def test_zero_limits_still_bound_the_result(argv):
    code, doc = run_json(argv)
    assert code == 2
    assert doc["error"]["type"] == "RangeError"


@pytest.mark.parametrize("command", [["report"], ["plan", "--volts", "1.0"]])
@pytest.mark.parametrize(
    "device_file, message",
    [
        (RawFile(b"\xff\xfe" + DEVICE_CSV.read_bytes()), "cannot read"),
        (
            RawFile(DEVICE_CSV.read_bytes().replace(b"4.01,0", b"4.01," + b"x" * 200_000)),
            "unreadable CSV: field larger than field limit",
        ),
        # a path is opened, never parsed as CSV text, whatever characters it holds
        ("a\nb", "cannot read a\nb"),
    ],
    ids=["not-utf8", "field-over-csv-limit", "newline-in-path"],
)
def test_unreadable_device_exits_3_with_parse_error(command, device_file, message, capsys, tmp_path):
    path = device_file
    if isinstance(device_file, RawFile):
        path = tmp_path / "device.csv"
        path.write_bytes(device_file)
    code = main(command + ["--device", str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 3
    assert "Traceback" not in captured.out + captured.err
    error = strict_json(captured.out)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith(message)


def test_report_bad_nameplate_exits_3_naming_the_key(tmp_path, capsys):
    path = tmp_path / "device.csv"
    path.write_text(DEVICE_CSV.read_text().replace("nameplate_max_v=3.2", "nameplate_max_v=abc"))
    code = main(["report", "--device", str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 3
    assert "Traceback" not in captured.out + captured.err
    error = json.loads(captured.out)["error"]
    assert error["type"] == "ParseError"
    assert "nameplate_max_v" in error["message"]


class TestMainEntry:
    def test_main_prints_to_stdout_and_returns_code(self, capsys):
        code = main(["represent", "--seq", "1,3,8", "--m", "7", "--format", "json"])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["signs"] == [-1, 0, 1]

    def test_main_table_errors_go_to_stderr(self, capsys):
        code = main(["validate", "--seq", "1,two,8"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    def test_main_machine_errors_stay_on_stdout(self, capsys):
        code = main(["validate", "--seq", "1,two,8", "--format", "json"])
        assert code == 3
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"]["exit_code"] == 3

    def test_main_errors_follow_an_abbreviated_format_flag(self, capsys):
        code = main(["validate", "--seq", "1,two", "--form", "json"])
        assert code == 3
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"]["exit_code"] == 3
        assert captured.err == ""

    @pytest.mark.parametrize("flag", [["--form", "json"], ["--form=json"]])
    def test_rejected_argv_follows_an_abbreviated_format_flag(self, capsys, flag):
        code = main(["validate"] + flag)
        assert code == 3
        captured = capsys.readouterr()
        error = json.loads(captured.out)["error"]
        assert error["type"] == "CliUsageError"
        assert error["message"] == "the following arguments are required: --seq"
        assert captured.err == ""

    def test_rejected_argv_ignores_an_ambiguous_prefix(self, capsys):
        # in plan, --f could be --format or --freq, so argparse takes neither
        code = main(["plan", "--f", "json"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ambiguous option: --f could match --format, --freq\n"

    def test_rejected_argv_reads_no_format_after_double_dash(self, capsys):
        code = main(["validate", "--", "--format", "json"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from nims.cli import main; sys.exit(main(sys.argv[1:]))",
             "validate", "--seq", "1,3,8"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "strict_valid" in proc.stdout
