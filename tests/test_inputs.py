"""The input boundary: one integer rule, one file reader, and a CLI that turns any argv into an exit code.

Every integer read from outside (defect maps, tolerance rules, design specs,
representation targets, scan budgets, compared and standard column sizes)
goes through one rule, and every file through one reader; the argv-grammar
test drives cli.run with drawn flags, long inline values, huge totals and
column counts, sequence, spec and defect files (empty and deeply nested ones
too), missing and mistyped paths, directories, damaged and empty device
files, device files with a dead bit, and long flags cut to prefixes.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from nims import (
    DefectMap,
    DesignSpec,
    InvalidInput,
    ParseError,
    RangeError,
    Sequence,
    ToleranceRule,
    compare_logics,
    load_device,
    represent,
    sequence_from_file,
    standard_column,
    worst_case_scan,
)
from nims.cli import run

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


DEVICE_BIT_COUNT = len(load_device(DEVICE_CSV).bits)


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


# Plan values at the edges: NaN, infinite, zero, negative and past float range.
EDGES = st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1", "-18e9", "1e400", "-1e400"])
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
        inline = st.sampled_from(["2:1", "1:1,2:1", "2:9"])
        defects = pick(draw, st.one_of(defect_files(), inline), st.one_of(VALUES, LONG_DEFECTS, INPUT_PATHS))
        return ["defects", "--seq", pick(draw, st.just("1,3,8"), st.one_of(LONG_BITS, SEQ_FILES)), "--defects", defects]
    argv = [command, "--device", draw(device_files())]
    if command == "report" and draw(st.booleans()):
        argv += ["--min-margin", pick(draw, st.sampled_from(["0", "1.0", "2.0"]), VALUES)]
    if command == "plan":
        argv += ["--volts", draw(st.sampled_from(["1.0", "-1.0", "0", "nan", "100"]))]
    return argv


ERROR_NAMES = {klass.__name__ for klass in ERROR_TYPES}


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
