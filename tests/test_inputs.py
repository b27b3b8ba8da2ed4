"""The input boundary: one integer rule, one file reader, and a CLI that turns any argv into an exit code.

Every integer read from outside (defect maps, tolerance rules, design specs,
representation targets, scan budgets, compared and standard column sizes)
goes through one rule, and every file through one reader; the argv-grammar
test drives cli.run with drawn flags, long inline values, huge totals and
column counts, sequence, spec and defect files (empty and deeply nested ones
too), missing and mistyped paths, directories, damaged and empty device
files, device files with a dead bit, worst-case scans with budgets at the
integer edges over sequences with dead bits, and long flags cut to
prefixes. A second test reads every subcommand's long flags off the parser
and fails when the grammar never draws one. Library arguments of the wrong
shape, a tolerance rule that is not a ToleranceRule, a compared candidate
that is not a (name, Sequence) pair, a voltage, frequency or margin that is
not a number, a band that is not two edges, a defect map that is not a
mapping, or a device record, representation or nominal sequence of another
type, are refused as InvalidInput too.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import nims
from nims import (
    DefectMap,
    DesignSpec,
    InvalidInput,
    ParseError,
    RangeError,
    Representation,
    Sequence,
    ToleranceRule,
    apply_defects,
    build_report,
    compare_logics,
    design,
    is_complete,
    load_device,
    margin_report,
    max_voltage,
    oracle_gaps,
    plan,
    reachable_sums,
    represent,
    resolution,
    sequence_from_file,
    standard_column,
    tolerance_report,
    within_tolerance,
    worst_case_scan,
)
from nims.cli import build_parser, run

from .conftest import DEVICE_CSV, DIRECTORY, ERROR_TYPES, MISSING

SMALL_INTS = st.integers(-10**6, 10**6)

# Values a JSON file or an argv slot can carry where an integer is expected.
OUTSIDE_VALUES = st.one_of(
    SMALL_INTS,
    st.booleans(),
    SMALL_INTS.map(float),
    st.floats(),
    SMALL_INTS.map(str),
    SMALL_INTS.map(lambda i: f" {i:+d} "),
    st.text(max_size=6),
    st.none(),
    st.lists(SMALL_INTS, max_size=2),
)


def is_outside_integer(value: object) -> bool:
    """The rule as stated: an int that is not a bool, or a string int() parses."""
    if type(value) is int:
        return True
    if isinstance(value, str):
        try:
            int(value)
        except ValueError:
            return False
        return True
    return False


def passes_the_integer_rule(build, value) -> bool:
    """Whether build(value) got past conversion; range refusals come after it."""
    try:
        build(value)
    except InvalidInput as exc:
        return "must be an integer" not in str(exc)
    return True


def past_the_layout_limit(build):
    """build, with the layout limit's RangeError, a range refusal after conversion, read as a pass."""

    def checked(value):
        try:
            build(value)
        except RangeError:
            pass

    return checked


# powers of 3 up to 3^13: every target and budget in SMALL_INTS is in range,
# so no range refusal hides a conversion
POWERS_OF_3 = Sequence(tuple(3**n for n in range(14)))

CONSTRUCTORS = {
    "defect bit": lambda v: DefectMap({v: 1}),
    "defect count": lambda v: DefectMap({0: v}),
    "rule at_least": lambda v: ToleranceRule(v, 0),
    "rule tolerance": lambda v: ToleranceRule(1, v),
    "a0": lambda v: DesignSpec(a0=v, msb_size=9, target_total=20),
    "msb_size": lambda v: DesignSpec(a0=1, msb_size=v, target_total=10**7),
    "target_total": lambda v: DesignSpec(a0=1, msb_size=3, target_total=v),
    "target": lambda v: represent(v, POWERS_OF_3),
    "scan budget": lambda v: worst_case_scan(POWERS_OF_3, v),
    "compare lsb_count": past_the_layout_limit(lambda v: compare_logics(v, 9, [("powers", POWERS_OF_3)])),
    "compare msb_size": lambda v: compare_logics(3, v, [("powers", POWERS_OF_3)]),
    "standard msb_size": lambda v: standard_column("binary", v, 3),
    "standard length": past_the_layout_limit(lambda v: standard_column("binary", 9, v)),
}


@settings(max_examples=300, deadline=None)
@given(value=OUTSIDE_VALUES, field=st.sampled_from(sorted(CONSTRUCTORS)))
@example(value=2.0, field="defect count")
@example(value=2.0, field="a0")
@example(value=True, field="rule tolerance")
@example(value=" +3 ", field="defect bit")
@example(value="x", field="target_total")
@example(value=1.5, field="target")
@example(value=True, field="target")
@example(value="3", field="target")
@example(value=1.5, field="scan budget")
@example(value="3", field="scan budget")
@example(value=3.5, field="compare lsb_count")
@example(value="3", field="compare lsb_count")
@example(value=True, field="compare lsb_count")
@example(value=9.5, field="compare msb_size")
@example(value=float("nan"), field="standard length")
@example(value=9.5, field="standard length")
@example(value=9.5, field="standard msb_size")
def test_one_integer_rule_everywhere(value, field):
    assume(field != "defect bit" or not isinstance(value, list))  # a dict key must hash
    assert passes_the_integer_rule(CONSTRUCTORS[field], value) == is_outside_integer(value)


# field: (the smallest value its constructor accepts, the refusal of a value below it, {} standing for the value)
RANGE_CASES = {
    "defect bit": (0, "defect bit index {} is negative"),
    "defect count": (0, "defect count for bit 0 is negative"),
    "rule at_least": (1, "tolerance rule needs at_least >= 1 and tolerance >= 0"),
    "rule tolerance": (0, "tolerance rule needs at_least >= 1 and tolerance >= 0"),
    "a0": (1, "a0 must be 1..3, got {}"),
    "msb_size": (3, "msb_size must be at least 3*a0 = 3"),
    "target_total": (3, "target_total must be at least msb_size"),
    "scan budget": (0, "budget must be non-negative"),
    "compare lsb_count": (1, "lsb_count and msb_size must be positive"),
    "compare msb_size": (1, "lsb_count and msb_size must be positive"),
    "standard msb_size": (1, "length and msb_size must be positive"),
    "standard length": (1, "length and msb_size must be positive"),
}


@pytest.mark.parametrize("field", RANGE_CASES)
def test_each_size_is_refused_just_below_its_range(field):
    lowest, message = RANGE_CASES[field]
    CONSTRUCTORS[field](lowest)
    for below in (lowest - 1, lowest - 5):
        with pytest.raises(InvalidInput) as caught:
            CONSTRUCTORS[field](below)
        assert str(caught.value) == message.format(below)


@settings(max_examples=100, deadline=None)
@given(value=st.one_of(SMALL_INTS, SMALL_INTS.map(str)).filter(lambda v: int(v) > 0))
def test_the_rule_keeps_the_value(value):
    assert DefectMap({value: value}).missing == {int(value): int(value)}
    assert ToleranceRule(value, value) == ToleranceRule(int(value), int(value))
    spec = DesignSpec(a0=1, msb_size=3 + int(value), target_total=str(3 + 2 * int(value)))
    assert (spec.msb_size, spec.target_total) == (3 + int(value), 3 + 2 * int(value))
    assert standard_column("ternary", value, "3") == standard_column("ternary", int(value), 3)
    columns = [("powers", POWERS_OF_3)]
    assert compare_logics("3", value, columns) == compare_logics(3, int(value), columns)


# --- arguments of the wrong shape --------------------------------------------

SEQ = Sequence((1, 3, 8))
DEVICE = load_device(DEVICE_CSV)

MALFORMED = {
    "a tuple for a rule": (
        lambda: design(DesignSpec(1, 10, 100, min_tolerance=[(5, 1)])),
        "min_tolerance holds (5, 1), not a ToleranceRule",
    ),
    "rule text": (
        lambda: DesignSpec(1, 10, 100, min_tolerance="5:1"),
        "min_tolerance holds '5', not a ToleranceRule",
    ),
    "an int for the rules": (
        lambda: DesignSpec(1, 10, 100, min_tolerance=5),
        "min_tolerance must be an iterable of ToleranceRule, got 5",
    ),
    "a tuple for a sequence": (
        lambda: compare_logics(3, 10, [("x", (1, 3, 8))]),
        "candidate ('x', (1, 3, 8)) is not a (name, Sequence) pair",
    ),
    "a bare sequence": (
        lambda: compare_logics(3, 10, [SEQ]),
        "candidate Sequence(bits=(1, 3, 8)) is not a (name, Sequence) pair",
    ),
    "a triple": (
        lambda: compare_logics(3, 10, [("x", SEQ, "y")]),
        "candidate ('x', Sequence(bits=(1, 3, 8)), 'y') is not a (name, Sequence) pair",
    ),
    "a name that is not text": (
        lambda: compare_logics(3, 10, [(1, SEQ)]),
        "candidate (1, Sequence(bits=(1, 3, 8))) is not a (name, Sequence) pair",
    ),
    "an int for the candidates": (
        lambda: compare_logics(3, 10, 5),
        "candidates must be an iterable of (name, Sequence) pairs, got 5",
    ),
    "an empty iterator of candidates": (lambda: compare_logics(3, 10, iter([])), "need at least one candidate"),
    "a list for a standard kind": (lambda: standard_column(["binary"], 9, 3), "kind must be a str, got ['binary']"),
    "a tuple for a reported sequence": (
        lambda: tolerance_report((1, 3, 8)),
        "seq must be a Sequence, got (1, 3, 8)",
    ),
    "a tuple for a spec": (lambda: design((1, 2)), "spec must be a DesignSpec, got (1, 2)"),
    "a dict for a defect map checked": (
        lambda: within_tolerance(Sequence((1, 3)), {0: 1}),
        "defects must be a DefectMap, got {0: 1}",
    ),
    "a dict for a defect map applied": (
        lambda: apply_defects(Sequence((1, 3)), {0: 1}),
        "defects must be a DefectMap, got {0: 1}",
    ),
    "a tuple for a sequence with defects": (
        lambda: within_tolerance((1, 3), DefectMap({0: 1})),
        "seq must be a Sequence, got (1, 3)",
    ),
    "text for a frequency": (lambda: max_voltage(SEQ, "1e9"), "drive frequency must be a number, got '1e9'"),
    "None for a frequency": (lambda: resolution(SEQ, None), "drive frequency must be a number, got None"),
    "NaN for a frequency": (lambda: max_voltage(SEQ, float("nan")), "drive frequency must be finite, got nan"),
    "NaN for a resolution's frequency": (
        lambda: resolution(SEQ, float("nan")),
        "drive frequency must be finite, got nan",
    ),
    "text for a planned voltage": (lambda: plan("1", 1e10, SEQ), "voltage must be a number, got '1'"),
    "text for a planned frequency": (lambda: plan(1.0, "1e10", SEQ), "drive frequency must be a number, got '1e10'"),
    "a zero planned frequency": (lambda: plan(1.0, 0.0, SEQ), "drive frequency must be positive, got 0.0"),
    "a negative planned frequency": (
        lambda: plan(1.0, -1e10, SEQ),
        "drive frequency must be positive, got -10000000000.0",
    ),
    "a band of one edge": (
        lambda: plan(1.0, 1e10, SEQ, band=(1e9,)),
        "bad frequency band (1000000000.0,): expected two edges (low, high)",
    ),
    "a number for a band": (lambda: plan(1.0, 1e10, SEQ, band=5), "bad frequency band 5: expected two edges (low, high)"),
    "a list of pairs for a defect map": (
        lambda: DefectMap([(0, 1)]),
        "defects must be a mapping of bit index to count, got [(0, 1)]",
    ),
    "None for an oracle cap": (lambda: is_complete(SEQ, cap=None), "cap must be an int, got None"),
    "text for an oracle cap": (lambda: reachable_sums(SEQ, cap="9"), "cap must be an int, got '9'"),
    "None for a scan's cap": (lambda: worst_case_scan(SEQ, 3, cap=None), "cap must be an int, got None"),
    # no total is at most NaN, so each refuses it, where a comparison that admits would switch the cap off
    "NaN for an oracle cap": (lambda: is_complete(SEQ, cap=float("nan")), "cap must be an int, got nan"),
    "NaN for a reachable set's cap": (lambda: reachable_sums(SEQ, cap=float("nan")), "cap must be an int, got nan"),
    "NaN for a gap listing's cap": (lambda: oracle_gaps(SEQ, cap=float("nan")), "cap must be an int, got nan"),
    "NaN for a scan's cap": (lambda: worst_case_scan(SEQ, 3, cap=float("nan")), "cap must be an int, got nan"),
    "text for a margin threshold": (lambda: margin_report(DEVICE, "x"), "margin threshold must be a number, got 'x'"),
    "text for a report's margin": (lambda: build_report(DEVICE, "x"), "margin threshold must be a number, got 'x'"),
}
# every total is at most inf or 1e300, so a float cap compared would switch the cap off: the one cap rule refuses it,
# and a bool, which the integer rule refuses everywhere else
MALFORMED.update(
    {
        f"{cap!r} for {what}": (lambda check=check, cap=cap: check(cap), f"cap must be an int, got {cap!r}")
        for cap in (float("inf"), 1e300, 5.0, True, False)
        for what, check in (
            ("an oracle cap", lambda cap: is_complete(SEQ, cap=cap)),
            ("a reachable set's cap", lambda cap: reachable_sums(SEQ, cap=cap)),
            ("a gap listing's cap", lambda cap: oracle_gaps(SEQ, cap=cap)),
            ("a scan's cap", lambda cap: worst_case_scan(SEQ, 3, cap=cap)),
        )
    }
)


@pytest.mark.parametrize("case", MALFORMED)
def test_a_malformed_argument_is_invalid_input(case):
    build, message = MALFORMED[case]
    with pytest.raises(InvalidInput) as caught:
        build()
    assert str(caught.value) == message


# --- numbers too long to write ------------------------------------------------

# str refuses an int of more digits than sys.get_int_max_str_digits(), so a refusal words one through
# errors.int_text and errors.repr_text; the CLI cannot pass one, since argparse and parse_bits stop at the limit
HUGE = 10**5000
TOO_LONG = {
    "validate": (lambda: nims.validate(HUGE), InvalidInput, "seq must be a Sequence, got <5001 digits>"),
    "represent's seq": (lambda: represent(1, HUGE), InvalidInput, "seq must be a Sequence, got <5001 digits>"),
    "standard_column's kind": (
        lambda: standard_column(HUGE, 9, 3), InvalidInput, "kind must be a str, got <5001 digits>",
    ),
    "represent's target": (lambda: represent(HUGE, SEQ), nims.OutOfRange, "target <5001 digits> outside [-12, 12]"),
    "a defect map": (
        lambda: DefectMap(HUGE), InvalidInput, "defects must be a mapping of bit index to count, got <5001 digits>",
    ),
    "a negative defect bit": (
        lambda: DefectMap({-HUGE: 1}), InvalidInput, "defect bit index -<5001 digits> is negative",
    ),
    "a defect count": (
        lambda: apply_defects(SEQ, DefectMap({1: HUGE})),
        InvalidInput,
        "bit 1 holds 3 junctions, cannot lose <5001 digits>",
    ),
    "a defect bit past the last": (
        lambda: within_tolerance(SEQ, DefectMap({HUGE: 1})),
        InvalidInput,
        "defect bit index <5001 digits> beyond last bit 2",
    ),
    "a design's a0": (lambda: DesignSpec(HUGE, 9, 13), InvalidInput, "a0 must be 1..3, got <5001 digits>"),
    "a design's rules": (
        lambda: DesignSpec(1, 9, 13, min_tolerance=HUGE),
        InvalidInput,
        "min_tolerance must be an iterable of ToleranceRule, got <5001 digits>",
    ),
    "a design's total": (
        lambda: design(DesignSpec(1, 9, HUGE)), RangeError, "layout of <5000 digits> bits exceeds the limit of 10000",
    ),
    "compare's candidates": (
        lambda: compare_logics(3, 9, HUGE),
        InvalidInput,
        "candidates must be an iterable of (name, Sequence) pairs, got <5001 digits>",
    ),
    "compare's lsb_count": (
        lambda: compare_logics(HUGE, 9, [("a", SEQ)]), RangeError, "layout of <5001 digits> bits exceeds the limit of 10000",
    ),
    "enumerate's max_results": (
        lambda: nims.enumerate_nims(1, 3, 9, max_results=-HUGE),
        InvalidInput,
        "max_results must not be negative, got -<5001 digits>",
    ),
    "a violation's bit": (
        lambda: nims.validate(Sequence((1, HUGE))).violations[0].message,
        None,
        "bit 1 is <5001 digits>, above three times bit 0 (1)",
    ),
    "a band edge past float range": (
        lambda: plan(1.0, 1e10, SEQ, (HUGE, HUGE)),
        RangeError,
        "frequency band edge exceeds the largest float, 1.798e+308",
    ),
    "a list holding one": (
        lambda: represent([HUGE], SEQ), InvalidInput, "target must be an integer, got <list holding a number too long to write>",
    ),
}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="this interpreter writes an int of any length")
@pytest.mark.parametrize("case", TOO_LONG)
def test_a_number_too_long_to_write_is_worded_by_its_digits(case):
    call, error, message = TOO_LONG[case]
    if error is None:
        assert call() == message
        return
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


def _functions_taking_a_sequence() -> list[str]:
    """Every exported function with a seq parameter, found by walking nims.__all__."""
    return [
        name
        for name in nims.__all__
        if inspect.isfunction(getattr(nims, name)) and "seq" in inspect.signature(getattr(nims, name)).parameters
    ]


# the required arguments beside seq, by parameter name, all of them valid
BESIDE_SEQ = {
    "m": 0,
    "rep": Representation((0, 0, 0), 0, 0, 0),
    "volts": 1.0,
    "freq_hz": 1.8e10,
    "budget": 1,
    "defects": DefectMap({0: 1}),
}


def test_the_walk_finds_every_function_taking_a_sequence():
    assert set(_functions_taking_a_sequence()) >= {
        "apply_defects", "evaluate", "is_complete", "max_voltage", "oracle_gaps", "plan", "prefix_sums",
        "reachable_sums", "represent", "represent_range_check", "resolution", "segmentation_efficiency",
        "tolerance_report", "validate", "within_tolerance", "worst_case_scan",
    }


@pytest.mark.parametrize("name", _functions_taking_a_sequence())
def test_a_tuple_for_seq_is_invalid_input(name):
    function = getattr(nims, name)
    required = [p for p in inspect.signature(function).parameters.values() if p.default is p.empty]
    for _ in range(2):  # a refusal stores nothing, so the second call is refused alike
        with pytest.raises(InvalidInput) as caught:
            function(**{p.name: (1, 3, 8) if p.name == "seq" else BESIDE_SEQ[p.name] for p in required})
        assert str(caught.value) == "seq must be a Sequence, got (1, 3, 8)"


# the record types a parameter other than seq may be annotated with
RECORD_TYPES = {"DeviceRecord", "Representation", "Sequence"}
# the required arguments beside such a parameter, by name, all of them valid
BESIDE_RECORD = {**BESIDE_SEQ, "seq": SEQ, "rec": DEVICE, "nominal": SEQ, "min_margin_ma": 1.0}


def _record_parameters() -> list[tuple[str, str]]:
    """Every (exported function, parameter) other than seq annotated with a record type, by walking nims.__all__."""
    return [
        (name, p.name)
        for name in nims.__all__
        if inspect.isfunction(getattr(nims, name))
        for p in inspect.signature(getattr(nims, name)).parameters.values()
        if p.annotation in RECORD_TYPES and p.name != "seq"
    ]


def test_the_walk_finds_every_record_parameter():
    assert set(_record_parameters()) >= {
        ("build_report", "rec"), ("evaluate", "rep"), ("infer_defects", "nominal"), ("infer_defects", "rec"),
        ("margin_report", "rec"), ("plausibility_lints", "rec"), ("serialize_device", "rec"),
    }


@pytest.mark.parametrize("name,param", _record_parameters(), ids=[f"{n}-{p}" for n, p in _record_parameters()])
def test_a_wrong_type_for_a_record_is_invalid_input(name, param):
    function = getattr(nims, name)
    parameters = inspect.signature(function).parameters
    required = [p for p in parameters if parameters[p].default is inspect.Parameter.empty]
    for wrong in ((1, 3, 8), None):
        with pytest.raises(InvalidInput) as caught:
            function(**{p: wrong if p == param else BESIDE_RECORD[p] for p in required})
        assert str(caught.value) == f"{param} must be a {parameters[param].annotation}, got {wrong!r}"


# --- the file reader --------------------------------------------------------


@pytest.mark.parametrize(
    "read", [sequence_from_file, DefectMap.from_file, DesignSpec.from_file, load_device],
    ids=["sequence", "defects", "spec", "device"],
)
def test_a_path_holding_a_nul_cannot_be_read(read):
    with pytest.raises(ParseError, match="^cannot read a\x00b: "):
        read("a\x00b")


@pytest.mark.parametrize(
    "path,message",
    [
        ("missing.json", "cannot read missing.json: [Errno 2] No such file or directory: 'missing.json'"),
        ("dir", "cannot read dir: [Errno 21] Is a directory: 'dir'"),
        ("latin1.json", "cannot read latin1.json: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ("a\x00b", "cannot read a\x00b: embedded null byte"),
    ],
    ids=["missing", "directory", "not-utf8", "nul"],
)
def test_the_reader_words_each_failure(tmp_path, monkeypatch, path, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    (tmp_path / "latin1.json").write_bytes(b"\xff{}")
    with pytest.raises(ParseError) as caught:
        sequence_from_file(path)
    assert str(caught.value) == message


# --- argv grammar -----------------------------------------------------------

# Up to 10^12: a layout past designer.MAX_LAYOUT_BITS is refused before it is built.
NUMBERS = st.sampled_from(["-5", "-1", "0", "1", "2", "3", "4", "6", "100", "5760", "92098", "1000000", "1000000000000"])
# Tokens holding \r and \n end up in error messages, and so in CSV fields.
JUNK = st.sampled_from(
    ["", "x", "nan", "inf", "-inf", "1e400", "2.5", "0/0", "5/2", "x:1", "100:2", "1:2:3", ":", "a\rb", "1\n2", "3\r\n"]
)
VALUES = st.one_of(NUMBERS, JUNK)
JSON_VALUES = st.sampled_from(
    [-1, 0, 1, 2, 3, 6, 100, 5760, 92098, 10**6, 10**12, 2.0, 2.5, True, None, "2", "x", [], {}, float("nan"), float("inf")]
)
FORMATS = st.sampled_from(["table", "csv", "json"])

# Well-formed values per flag or spec key, so that drawn argv also get past
# the parsers and reach design, its refusals and its infeasible cases.
GOOD = {
    "a0": st.sampled_from([1, 2, 3]),
    "msb_size": st.sampled_from([6, 100, 5760]),
    "target_total": st.sampled_from([5760, 92098, 10**6, 10**12]),
    "at_least": st.sampled_from([1, 10, 100]),
    "tolerance": st.sampled_from([0, 1, 2]),
    "max_ratio": st.sampled_from(["3", "5/2", "2", 2, 2.5]),
}


def pick(draw, good, bad):
    """Mostly a well-formed value, one time in four a drawn malformed one."""
    return draw(bad if draw(st.integers(0, 3)) == 0 else good)


class File(bytes):
    """An argv slot the test fills with the path of a file holding these bytes."""


class Prefixed(tuple):
    """An argv slot (text, slot): the text, then what the test fills the slot with."""


PATHS = st.sampled_from([MISSING, DIRECTORY])

# Mistyped --seq and --defects paths, relative to the working directory: a "/"
# or a ".json" suffix marks a file, so these are read, never parsed inline.
MISTYPED = st.tuples(
    st.text("0123456789,:ab_", min_size=1, max_size=10),
    st.sampled_from(["no_such_dir/{}", "{}.json", "{}/bits.json"]),
).map(lambda parts: parts[1].format(parts[0]))
INPUT_PATHS = st.one_of(PATHS, MISTYPED)

# Inline lists up to 100 bits or defects long, past the 255-byte limit of a file name.
LONG_BITS = st.lists(st.integers(-1, 10**4), min_size=1, max_size=100).map(lambda bits: ",".join(map(str, bits)))
LONG_DEFECTS = st.lists(st.tuples(st.integers(0, 99), st.integers(-1, 10)), min_size=1, max_size=100).map(
    lambda entries: ",".join(f"{bit}:{count}" for bit, count in entries)
)


def json_file(doc) -> File:
    return File(json.dumps(doc).encode())


# Files at the edges of the JSON reader: empty, and nested far past the parser's recursion limit.
EDGE_FILES = st.sampled_from([File(b""), File(b"[" * 10**5 + b"]" * 10**5)])

# --seq files: well-formed, wrong-shaped, empty and deeply nested.
SEQ_FILES = st.one_of(
    st.sampled_from(
        [{"bits": [1, 3, 8]}, {"bits": [2, 6, 18]}, [1, 3, 8], {"bits": "1,3,8"}, {"bits": [1.5, 3]}, {"bits": [True]}, {}]
    ).map(json_file),
    EDGE_FILES,
)
SEQS = st.one_of(LONG_BITS, INPUT_PATHS, SEQ_FILES)


@st.composite
def spec_files(draw) -> File:
    keys = ("a0", "msb_size", "target_total")
    doc = {key: pick(draw, GOOD[key], JSON_VALUES) for key in keys if draw(st.integers(0, 9))}
    if draw(st.booleans()):
        doc["min_tolerance"] = [
            {key: pick(draw, GOOD[key], JSON_VALUES) for key in ("at_least", "tolerance") if draw(st.integers(0, 9))}
        ]
    if draw(st.booleans()):
        doc["max_ratio"] = pick(draw, GOOD["max_ratio"], st.one_of(JSON_VALUES, VALUES))
    malformed = st.one_of(st.sampled_from([[doc], "spec", {"spec": doc}]).map(json_file), EDGE_FILES)
    return pick(draw, st.just(json_file(doc)), malformed)


def design_argv(draw) -> list:
    if draw(st.booleans()):
        return ["design", "--spec", draw(st.one_of(spec_files(), PATHS))]
    argv = ["design"]
    for key in ("a0", "msb_size", "target_total"):
        if draw(st.integers(0, 9)):
            argv += ["--" + key.replace("_", "-"), pick(draw, GOOD[key].map(str), VALUES)]
    for _ in range(draw(st.integers(0, 2))):
        rule = st.tuples(GOOD["at_least"], GOOD["tolerance"]).map(lambda r: f"{r[0]}:{r[1]}")
        argv += ["--min-tolerance", pick(draw, rule, VALUES)]
    if draw(st.booleans()):
        argv += ["--max-ratio", pick(draw, GOOD["max_ratio"].map(str), VALUES)]
    return argv


@st.composite
def defect_files(draw) -> File:
    bits = st.one_of(st.sampled_from(["1", "2"]), VALUES)
    counts = st.one_of(st.sampled_from([0, 1, 2]), JSON_VALUES)
    entries = draw(st.dictionaries(bits, counts, max_size=3))
    malformed = st.one_of(st.sampled_from([entries, {"defects": [1]}]).map(json_file), EDGE_FILES)
    return pick(draw, st.just(json_file({"defects": entries})), malformed)


DEVICE_BIT_COUNT = len(DEVICE.bits)


def dead_bit(data: bytes, index: int) -> File:
    """The device file with the junction count of bit `index` set to 0."""
    lines = data.split(b"\n")
    at = next(i for i, line in enumerate(lines) if line.startswith(b"bit,")) + 1 + index
    cells = lines[at].split(b",")
    lines[at] = b",".join([cells[0], b"0", *cells[2:]])
    return File(b"\n".join(lines))


@st.composite
def device_files(draw) -> File | str:
    data = DEVICE_CSV.read_bytes()
    kinds = ["truncated", "empty", "mutated", "not-utf8", "newline-path", "intact", "path", "dead-bit"]
    kind = draw(st.sampled_from(kinds))
    if kind == "dead-bit":
        # bit 0 one time in two: a step over its junctions is the one division by a bit
        return dead_bit(data, draw(st.one_of(st.just(0), st.integers(0, DEVICE_BIT_COUNT - 1))))
    if kind == "empty":
        return File(b"")
    if kind == "truncated":
        return File(data[: draw(st.integers(0, len(data)))])
    if kind == "mutated":
        at = draw(st.integers(0, len(data) - 1))
        return File(data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1 :])
    if kind == "not-utf8":
        return File(b"\xff\xfe" + data)
    if kind == "newline-path":
        return "a\nb"
    if kind == "path":
        return draw(PATHS)
    return File(data)


def compare_argv(draw) -> list:
    argv = ["compare", "--msb-size", pick(draw, st.sampled_from(["6", "5760"]), VALUES)]
    if draw(st.booleans()):
        argv += ["--lsb-count", pick(draw, st.sampled_from(["14", "10000", "10001", "1000000"]), NUMBERS)]
    if draw(st.booleans()):
        argv.append("--standards")
    if draw(st.booleans()):
        name = pick(draw, st.just("mine"), st.sampled_from(["a\rb", "a\nb", "a,b", 'a"b']))
        bits = pick(draw, st.just("1,3,9"), st.one_of(LONG_BITS, SEQ_FILES, INPUT_PATHS))
        argv += ["--candidate", Prefixed((name + "=", bits))]
    return argv


def represent_argv(draw) -> list:
    seq = pick(draw, st.sampled_from(["1,3,8", "2,6,18", "1,2,7"]), SEQS)
    return ["represent", "--seq", seq, "--m", pick(draw, NUMBERS, VALUES)]


def oracle_argv(draw) -> list:
    """An oracle run, with a cap drawn from below zero up to past the sequence's total."""
    bits = draw(
        st.one_of(st.sampled_from([(1, 3, 8), (2, 6, 18), (1, 2, 8)]), st.lists(st.integers(-1, 10**4), min_size=1, max_size=100))
    )
    argv = ["oracle", "--seq", pick(draw, st.just(",".join(map(str, bits))), st.one_of(VALUES, INPUT_PATHS, SEQ_FILES))]
    argv += [flag for flag in ("--sweep", "--a0-offset") if draw(st.booleans())]
    if draw(st.booleans()):
        argv += ["--cap", pick(draw, st.integers(-2, max(sum(bits), 0) + 2).map(str), VALUES)]
    return argv


def enumerate_argv(draw) -> list:
    """An enumeration whose --limit is always passed and at most 1,000: NUMBERS' 10^6 would let one run for seconds."""
    argv = ["enumerate"]
    for flag, good in (("--a0", ["1", "2", "3"]), ("--depth", ["1", "3", "5"]), ("--max-bit", ["9", "60", "100"])):
        argv += [flag, pick(draw, st.sampled_from(good), VALUES)]
    return argv + ["--limit", pick(draw, st.integers(-1, 1000).map(str), JUNK)]


# Scan budgets at the integer edges: below zero, zero, past every bit, past 64 bits.
BUDGETS = st.sampled_from(["-1", "0", "1", "2", "3", "100", "5760", str(2**63), "1000000000000000000000"])
# Short sequences as any_bits draws them: dead bits, a_0 >= 2, jumps past 3*a_{n-1}.
ANY_BITS = st.lists(st.one_of(st.just(0), st.integers(1, 5), st.integers(1, 40)), min_size=1, max_size=6).map(
    lambda bits: ",".join(map(str, bits))
)


def defects_argv(draw) -> list:
    """A defect map applied, or a worst-case scan; either with a cap drawn from below zero to past the total."""
    if draw(st.booleans()):
        seq = pick(draw, st.one_of(st.sampled_from(["1,3,8", "2,6,18", "1,3,9,27"]), ANY_BITS), SEQS)
        argv = ["defects", "--seq", seq, "--scan-budget", pick(draw, BUDGETS, VALUES)]
    else:
        inline = st.sampled_from(["2:1", "1:1,2:1", "2:9"])
        defects = pick(draw, st.one_of(defect_files(), inline), st.one_of(VALUES, LONG_DEFECTS, INPUT_PATHS))
        seq = pick(draw, st.just("1,3,8"), st.one_of(LONG_BITS, SEQ_FILES))
        argv = ["defects", "--seq", seq, "--defects", defects]
    if draw(st.booleans()):
        argv += ["--cap", pick(draw, st.integers(-2, 40).map(str), VALUES)]
    return argv


# Plan values at the edges: NaN, infinite, zero, negative, near the largest float and past float range.
EDGES = st.sampled_from(
    ["nan", "inf", "-inf", "0", "-0.0", "-1", "-18e9", "1e400", "-1e400", "1e308", "-1e308", "1.7976931348623157e308"]
)
FREQUENCIES = st.sampled_from(["1e9", "10e9", "18e9", "25e9"])


def plan_seq_argv(draw) -> list:
    """A plan over a drawn sequence, its values joined by "=" so that a leading minus reaches plan."""
    seq = pick(draw, st.sampled_from(["1,3,8", "2,6,18", "1,2,7"]), SEQS)
    volts = st.sampled_from(["0", "1e-4", "-2e-4", "4e-4", "1"])
    argv = ["plan", "--seq", seq, "--volts=" + pick(draw, volts, st.one_of(EDGES, JUNK))]
    if draw(st.integers(0, 9)):
        argv.append("--freq=" + pick(draw, FREQUENCIES, st.one_of(EDGES, JUNK)))
    if draw(st.booleans()):
        # each edge is drawn on its own, so about half the bands come reversed
        edge = st.one_of(FREQUENCIES, EDGES)
        argv.append("--band=" + pick(draw, st.tuples(edge, edge).map(":".join), JUNK))
    return argv


def abbreviate(draw, arg: str) -> str:
    """A long flag cut to a prefix of its name, ambiguous or not: argparse takes a prefix no other option shares."""
    name, eq, value = arg.partition("=")
    return name[: draw(st.integers(3, len(name)))] + eq + value


@st.composite
def argvs(draw) -> list:
    """A drawn command line; one time in four, each of its long flags is cut to a prefix."""
    argv = command_argv(draw)
    if draw(st.integers(0, 3)):
        return argv
    return [abbreviate(draw, arg) if isinstance(arg, str) and arg.startswith("--") else arg for arg in argv]


def command_argv(draw) -> list:
    command = draw(st.sampled_from([
        "design", "compare", "defects", "validate", "tolerance", "report", "plan", "represent", "oracle", "enumerate"
    ]))
    if command == "design":
        return design_argv(draw)
    if command == "compare":
        return compare_argv(draw)
    if command == "represent":
        return represent_argv(draw)
    if command == "oracle":
        return oracle_argv(draw)
    if command == "enumerate":
        return enumerate_argv(draw)
    if command == "plan" and draw(st.booleans()):
        return plan_seq_argv(draw)
    if command in ("validate", "tolerance"):
        return [command, "--seq", draw(SEQS)]
    if command == "defects":
        return defects_argv(draw)
    argv = [command, "--device", draw(device_files())]
    if command == "report" and draw(st.booleans()):
        argv += ["--min-margin", pick(draw, st.sampled_from(["0", "1.0", "2.0"]), VALUES)]
    if command == "plan":
        argv += ["--volts", draw(st.sampled_from(["1.0", "-1.0", "0", "nan", "100"]))]
    return argv


ERROR_NAMES = {klass.__name__ for klass in ERROR_TYPES}


def test_the_grammar_emits_every_long_flag_of_the_parser():
    # read off build_parser, so a flag added to a subcommand fails here until the grammar draws it;
    # --format is left out, since the argv test appends it to every drawn command line
    parser = build_parser()
    wanted = {
        (command, flag)
        for command, sub in parser.commands.items()
        for flag in sub._option_string_actions
        if flag.startswith("--") and flag not in ("--help", "--format")
    }
    seen: set[tuple[str, str]] = set()

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(argv=st.composite(command_argv)())
    def record(argv):
        seen.update((argv[0], arg.partition("=")[0]) for arg in argv if isinstance(arg, str) and arg.startswith("--"))

    record()
    assert {command for command, _ in seen} == set(parser.commands)
    assert sorted(wanted - seen) == []


def strict_json(text: str) -> object:
    def reject(constant):
        raise ValueError(f"not RFC 8259 JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def filled(arg, tmp: str, i: int) -> str:
    """The argv text of a slot: a File's path, the missing path, the directory, or the text itself."""
    if isinstance(arg, Prefixed):
        return arg[0] + filled(arg[1], tmp, i)
    if isinstance(arg, File):
        path = Path(tmp) / f"arg{i}"
        path.write_bytes(arg)
        return str(path)
    if arg == MISSING:
        return str(Path(tmp) / "missing")
    return tmp if arg == DIRECTORY else arg


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs(), fmt=FORMATS, format_flag=st.sampled_from(["--format", "--forma", "--form"]))
@example(argv=["report", "--device", dead_bit(DEVICE_CSV.read_bytes(), 0)], fmt="json", format_flag="--format")
@example(argv=["defects", "--seq", "1,0,3", "--scan-budget", "2"], fmt="json", format_flag="--format")
@example(argv=["plan", "--seq", "1,3,8", "--freq", "1e308", "--volts", "1e308"], fmt="json", format_flag="--format")
@example(argv=["defects", "--seq", "1,3,8", "--defects", "2"], fmt="table", format_flag="--format")
def test_any_argv_gets_an_exit_code(argv, fmt, format_flag):
    with tempfile.TemporaryDirectory() as tmp:
        result = run([filled(arg, tmp, i) for i, arg in enumerate(argv)] + [format_flag, fmt])
    assert result.exit_code in (0, 1, 2, 3)
    if fmt == "json":
        doc = strict_json(result.text)
        if isinstance(doc, dict) and "error" in doc:
            assert doc["error"]["type"] in ERROR_NAMES
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(result.text, newline="")))
        assert rows and all(len(row) == len(rows[0]) for row in rows), result.text


@settings(max_examples=100, deadline=None)
@given(path=MISTYPED, flag=st.sampled_from(["--seq", "--defects"]))
@example(path="data/no_such_bits.json", flag="--seq")
@example(path="1,3,8.json", flag="--defects")
def test_a_mistyped_path_is_unreadable_not_bad_inline_data(path, flag):
    assume(not os.path.exists(path))
    argv = ["validate", "--seq", path] if flag == "--seq" else ["defects", "--seq", "1,3,8", "--defects", path]
    result = run(argv + ["--format", "json"])
    assert result.exit_code == 3
    error = strict_json(result.text)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith(f"cannot read {path}: ")
