"""Value semantics of every record the library and the CLI return.

Each record keeps the ==, hash, repr, pickling, to_doc and refusal to
assign that it had as a frozen dataclass: equal field values compare
equal and hash as the tuple of the compared fields, the repr names every
shown field, a pickled copy compares equal, and no attribute can be set
or deleted. Every record class nims exports pickles by its public name,
nims.<class>, not by the submodule that defines it.
"""

from __future__ import annotations

import copy
import io
import pickle

import pytest

import nims

from nims import (
    DefectMap,
    DesignSpec,
    DeviceBit,
    DeviceMetadata,
    DeviceRecord,
    Sequence,
    ToleranceRule,
    compare_logics,
    design,
    enumerate_nims,
    margin_report,
    plan,
    prefix_sums,
    reachable_sums,
    represent,
    represent_range_check,
    tolerance_report,
    validate,
    within_tolerance,
    worst_case_scan,
)
from nims.cli import CommandResult, Output
from nims.device import MarginViolation
from nims.sequence import UPPER, Violation

SEQ = Sequence((1, 3, 8))
META = DeviceMetadata(1.8e10, 4.2, 8.0, 4.2, 11.0, 4.0, 18.0, (("nameplate_max_v", "3.2"),))
DEVICE_BITS = (DeviceBit(0, 1, 1.0, 2.0, 1.0, "a, b"), DeviceBit(1, 3, 0.5, 2.0, 1.5))
SPEC = DesignSpec(1, 9, 13, (ToleranceRule("3", 0),), "3")
VIOLATION_REPR = "Violation(constraint='UPPER', index=2, message='bit 2 is 7, above three times bit 1 (2)', observed=(7, 2))"
BIT_REPRS = (
    "BitTolerance(index=0, nominal=1, tolerance=0, proportion=Fraction(0, 1), last_bit=False)",
    "BitTolerance(index=1, nominal=3, tolerance=0, proportion=Fraction(1, 9), last_bit=False)",
    "BitTolerance(index=2, nominal=8, tolerance=None, proportion=None, last_bit=True)",
)
SCAN_REPRS = (
    "ScanEntry(index=0, nominal=1, tolerance=0, safe_up_to=0, status='UNSAFE')",
    "ScanEntry(index=1, nominal=3, tolerance=0, safe_up_to=0, status='UNSAFE')",
    "ScanEntry(index=2, nominal=8, tolerance=None, safe_up_to=1, status='SAFE')",
)
COLUMN_REPR = (
    "CandidateColumn(name='x', bits=(1, 3, 8), bits_to_msb=3, min_efficiency=Fraction(8, 3), "
    "mean_efficiency=Fraction(17, 6), tolerances=(0, 0, None))"
)
DEVICE_BIT_REPRS = (
    "DeviceBit(index=0, junctions=1, step_pos_ma=1.0, step_zero_ma=2.0, step_neg_ma=1.0, tolerance_note='a, b')",
    "DeviceBit(index=1, junctions=3, step_pos_ma=0.5, step_zero_ma=2.0, step_neg_ma=1.5, tolerance_note='')",
)
META_REPR = (
    "DeviceMetadata(frequency_hz=18000000000.0, temperature_k=4.2, critical_current_ma=8.0, "
    "normal_resistance_mohm=4.2, junction_length_um=11.0, junction_width_um=4.0, current_density_ka_cm2=18.0, "
    "extras=(('nameplate_max_v', '3.2'),))"
)
METADATA = {
    "branches": 16,
    "symmetric_halves": True,
    "symmetric_subtraction": True,
    "lsb_chain_bits": 2,
    "bank_size": 9,
    "full_banks": 1,
    "trimmed_bank": None,
    "total": 13,
}

# name: (a factory, the fields equality and hash read, the repr, whether it hashes)
RECORDS = {
    "Sequence": (lambda: SEQ, ("bits",), "Sequence(bits=(1, 3, 8))", True),
    "Violation": (
        lambda: Violation(UPPER, 2, "bit 2 is 7, above three times bit 1 (2)", (7, 2)),
        ("constraint", "index", "message", "observed"),
        VIOLATION_REPR,
        True,
    ),
    "ValidationReport": (
        lambda: validate(Sequence((1, 2, 7))),
        ("strict_valid", "complete_capable", "violations"),
        f"ValidationReport(strict_valid=False, complete_capable=False, violations=({VIOLATION_REPR},))",
        True,
    ),
    "PrefixSums": (
        lambda: prefix_sums(SEQ),
        ("totals", "thresholds"),
        "PrefixSums(totals=(1, 4, 12), thresholds=(2, 5, 13))",
        True,
    ),
    "SumSet": (lambda: reachable_sums(Sequence((1, 3))), ("mask", "span", "beta_radius"), "SumSet(span=4, beta_radius=0)", True),
    "BitTolerance": (
        lambda: tolerance_report(SEQ).entries[0],
        ("index", "nominal", "tolerance", "proportion", "last_bit"),
        BIT_REPRS[0],
        True,
    ),
    "ToleranceReport": (
        lambda: tolerance_report(SEQ),
        ("entries",),
        f"ToleranceReport(entries=({', '.join(BIT_REPRS)}))",
        True,
    ),
    "DefectMap": (lambda: DefectMap({"2": "1", 0: 0}), ("missing",), "DefectMap(missing={2: 1})", False),
    "ScanEntry": (
        lambda: worst_case_scan(SEQ, 1).entries[2],
        ("index", "nominal", "tolerance", "safe_up_to", "status"),
        SCAN_REPRS[2],
        True,
    ),
    "ScanReport": (
        lambda: worst_case_scan(SEQ, 1),
        ("budget", "entries", "oracle_checked"),
        f"ScanReport(budget=1, entries=({', '.join(SCAN_REPRS)}), oracle_checked=1)",
        True,
    ),
    "Representation": (
        lambda: represent(5, SEQ),
        ("signs", "beta", "target_m", "expressed_m"),
        "Representation(signs=(0, -1, 1), beta=0, target_m=5, expressed_m=5)",
        True,
    ),
    "RangeCheckReport": (
        lambda: represent_range_check(Sequence((1, 3))),
        ("checked", "failures"),
        "RangeCheckReport(checked=9, failures=())",
        True,
    ),
    "ToleranceRule": (lambda: ToleranceRule("3", 0), ("at_least", "tolerance"), "ToleranceRule(at_least=3, tolerance=0)", True),
    "DesignSpec": (
        lambda: SPEC,
        ("a0", "msb_size", "target_total", "min_tolerance", "max_ratio"),
        "DesignSpec(a0=1, msb_size=9, target_total=13, min_tolerance=(ToleranceRule(at_least=3, tolerance=0),), "
        "max_ratio=Fraction(3, 1))",
        True,
    ),
    "DesignResult": (
        lambda: design(SPEC),
        ("sequence",),
        f"DesignResult(sequence=Sequence(bits=(1, 3, 9)), metadata={METADATA!r})",
        True,
    ),
    "CandidateColumn": (
        lambda: compare_logics(3, 9, [("x", SEQ)]).candidates[0],
        ("name", "bits", "bits_to_msb", "min_efficiency", "mean_efficiency", "tolerances"),
        COLUMN_REPR,
        True,
    ),
    "ComparisonTable": (
        lambda: compare_logics(3, 9, [("x", SEQ)]),
        ("lsb_count", "msb_size", "candidates"),
        f"ComparisonTable(lsb_count=3, msb_size=9, candidates=({COLUMN_REPR},))",
        True,
    ),
    "BiasPlan": (
        lambda: plan(0.0, 18.01e9, SEQ),
        (
            "target_voltage",
            "base_frequency_hz",
            "m_target",
            "representation",
            "adjusted_frequency_hz",
            "achieved_voltage",
            "frequency_shift",
            "in_band",
        ),
        "BiasPlan(target_voltage=0.0, base_frequency_hz=18010000000.0, m_target=0, "
        "representation=Representation(signs=(0, 0, 0), beta=0, target_m=0, expressed_m=0), "
        "adjusted_frequency_hz=18010000000.0, achieved_voltage=0.0, frequency_shift=0.0, in_band=True)",
        True,
    ),
    "DeviceBit": (
        lambda: DEVICE_BITS[0],
        ("index", "junctions", "step_pos_ma", "step_zero_ma", "step_neg_ma", "tolerance_note"),
        DEVICE_BIT_REPRS[0],
        True,
    ),
    "DeviceMetadata": (
        lambda: META,
        (
            "frequency_hz",
            "temperature_k",
            "critical_current_ma",
            "normal_resistance_mohm",
            "junction_length_um",
            "junction_width_um",
            "current_density_ka_cm2",
            "extras",
        ),
        META_REPR,
        True,
    ),
    "DeviceRecord": (
        lambda: DeviceRecord(DEVICE_BITS, META),
        ("bits", "metadata"),
        f"DeviceRecord(bits=({', '.join(DEVICE_BIT_REPRS)}), metadata={META_REPR})",
        True,
    ),
    "MarginViolation": (
        lambda: MarginViolation(1, "positive", 0.5),
        ("bit", "side", "width_ma"),
        "MarginViolation(bit=1, side='positive', width_ma=0.5)",
        True,
    ),
    "MarginReport": (
        lambda: margin_report(DeviceRecord(DEVICE_BITS, META), 1.0),
        ("threshold_ma", "min_positive_ma", "mean_positive_ma", "min_negative_ma", "mean_negative_ma", "violations"),
        "MarginReport(threshold_ma=1.0, min_positive_ma=0.5, mean_positive_ma=0.75, min_negative_ma=1.0, "
        "mean_negative_ma=1.25, violations=(MarginViolation(bit=1, side='positive', width_ma=0.5),))",
        True,
    ),
    "CommandResult": (
        lambda: CommandResult(0, "x\n", "json"),
        ("exit_code", "text", "format"),
        "CommandResult(exit_code=0, text='x\\n', format='json')",
        True,
    ),
    "Output": (
        lambda: Output({"a": 1}, "a\n", [("k", 1), "line"]),
        ("doc", "csv", "table", "exit_code"),
        "Output(doc={'a': 1}, csv='a\\n', table=[('k', 1), 'line'], exit_code=0)",
        False,
    ),
}

# to_doc of every sample that has one, beyond ValidationReport (pinned in test_sequence.py)
DOCS = {
    "ToleranceReport": {
        "entries": [
            {"bit": 0, "nominal": 1, "tolerance": 0, "proportion": "0", "last_bit": False},
            {"bit": 1, "nominal": 3, "tolerance": 0, "proportion": "1/9", "last_bit": False},
            {"bit": 2, "nominal": 8, "tolerance": None, "proportion": None, "last_bit": True},
        ]
    },
    "DefectMap": {"defects": {"2": 1}},
    "ScanReport": {
        "budget": 1,
        "oracle_checked": 1,
        "entries": [
            {"bit": 0, "nominal": 1, "tolerance": 0, "safe_up_to": 0, "status": "UNSAFE"},
            {"bit": 1, "nominal": 3, "tolerance": 0, "safe_up_to": 0, "status": "UNSAFE"},
            {"bit": 2, "nominal": 8, "tolerance": None, "safe_up_to": 1, "status": "SAFE"},
        ],
    },
    "Representation": {"m": 5, "signs": [0, -1, 1], "beta": 0},
    "DesignResult": {"bits": [1, 3, 9], "metadata": METADATA},
    "ComparisonTable": {
        "lsb_count": 3,
        "msb_size": 9,
        "candidates": [
            {
                "name": "x",
                "bits": [1, 3, 8],
                "bits_to_msb": 3,
                "min_efficiency": "8/3",
                "mean_efficiency": "17/6",
                "tolerances": [0, 0, None],
            }
        ],
    },
    "BiasPlan": {"V": 0.0, "f": 18010000000.0, "m": 0, "signs": [0, 0, 0], "beta": 0, "f_adjusted": 18010000000.0, "in_band": True},
    "MarginReport": {
        "threshold_ma": 1.0,
        "min_positive_ma": 0.5,
        "mean_positive_ma": 0.75,
        "min_negative_ma": 1.0,
        "mean_negative_ma": 1.25,
        "violations": [{"bit": 1, "side": "positive", "width_ma": 0.5}],
    },
}


def _key(record, fields: tuple[str, ...]) -> tuple:
    return tuple(getattr(record, name) for name in fields)


@pytest.mark.parametrize("name", RECORDS)
class TestValueSemantics:
    def test_repr(self, name):
        make, _, shown, _ = RECORDS[name]
        assert type(make()).__name__ == name
        assert repr(make()) == shown

    def test_equality_reads_the_compared_fields(self, name):
        make, fields, _, _ = RECORDS[name]
        record = make()
        assert record == make() and not record != make()
        assert record != object()
        assert _key(record, fields) == _key(make(), fields)

    def test_hash_is_the_hash_of_the_compared_fields(self, name):
        make, fields, _, hashable = RECORDS[name]
        if hashable:
            assert hash(make()) == hash(_key(make(), fields))
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(make())

    def test_pickles(self, name):
        make, fields, shown, _ = RECORDS[name]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(make(), protocol))
            assert type(copy) is type(make()) and copy == make()
            assert _key(copy, fields) == _key(make(), fields)
            assert repr(copy) == shown

    def test_copies(self, name):
        make, fields, shown, _ = RECORDS[name]
        for other in (copy.copy(make()), copy.deepcopy(make())):
            assert type(other) is type(make()) and other == make()
            assert _key(other, fields) == _key(make(), fields)
            assert repr(other) == shown

    def test_refuses_assignment(self, name):
        make, fields, _, _ = RECORDS[name]
        record = make()
        for attr in (fields[0], "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(record, attr, 1)
        with pytest.raises(AttributeError):
            delattr(record, fields[0])
        assert repr(record) == repr(make())

    def test_to_doc(self, name):
        if name in DOCS:
            assert RECORDS[name][0]().to_doc() == DOCS[name]


# records that check their input, cache a property or leave a field out of equality
CLASSES = ("Sequence", "ValidationReport", "SumSet", "DefectMap", "ToleranceRule", "DesignSpec", "DesignResult")


@pytest.mark.parametrize("name", CLASSES)
def test_classes_are_not_tuples(name):
    make, fields, _, _ = RECORDS[name]
    record = make()
    assert not isinstance(record, tuple)
    assert record != _key(record, fields)


# the record classes nims exports: every exported class but the errors
EXPORTED = [
    name
    for name, value in ((name, getattr(nims, name)) for name in nims.__all__)
    if isinstance(value, type) and not issubclass(value, Exception)
]


class _NamedClasses(pickle.Unpickler):
    """Loads a pickle and keeps the (module, name) of every class its bytes name."""

    def __init__(self, data: bytes) -> None:
        super().__init__(io.BytesIO(data))
        self.named: list[tuple[str, str]] = []

    def find_class(self, module_name: str, name: str) -> object:
        self.named.append((module_name, name))
        return super().find_class(module_name, name)


@pytest.mark.parametrize("name", EXPORTED)
def test_exported_records_pickle_by_the_public_name(name):
    make, _, shown, _ = RECORDS[name]
    record = make()
    assert type(record).__module__ == "nims" and repr(type(record)) == f"<class 'nims.{name}'>"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loader = _NamedClasses(pickle.dumps(record, protocol))
        loaded = loader.load()
        assert type(loaded) is type(record) and loaded == record and repr(loaded) == shown
        assert ("nims", name) in loader.named
        assert not [named for named in loader.named if named[0].startswith("nims.") and named[1] == name]


def test_design_result_equality_leaves_out_the_metadata():
    result = design(SPEC)
    other = type(result)(result.sequence, {"total": 0})
    assert other == result and hash(other) == hash(result)
    assert type(result)(Sequence((1, 3, 8)), result.metadata) != result


def test_cached_intervals_survive_pickling():
    sums = reachable_sums(Sequence((1, 3)))
    assert sums.intervals == ((-4, 4),)
    copy = pickle.loads(pickle.dumps(sums))
    assert copy == sums and copy.intervals == ((-4, 4),)


def test_a_built_descent_table_stays_out_of_the_value():
    # the descent table, the tolerance table and the report, kept in the private _tables map;
    # design leaves the tolerance table and the report of its post-check on the sequence it
    # returns, represent's chain gate the report on the sequence it checked, and
    # enumerate_nims the strict report on each it lists
    checked = Sequence((1, 3, 8))
    represent(5, checked)
    within_tolerance(checked, DefectMap({}))
    designed = design(SPEC).sequence
    listed = enumerate_nims(1, 3, 8)[-1]
    for built, keys in (
        (checked, {"validate", "_descent", "_tolerance_table"}),
        (designed, {"validate", "_tolerance_table"}),
        (listed, {"validate"}),
    ):
        fresh = Sequence(built.bits)
        assert set(built._tables) == keys and fresh._tables == {}
        assert built._tables["validate"] is validate(built)
        assert built == fresh and hash(built) == hash(fresh) and repr(built) == repr(fresh)
        copies = [pickle.loads(pickle.dumps(built, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies + [copy.copy(built), copy.deepcopy(built)]:
            assert type(other) is Sequence and other == built and hash(other) == hash(built)
            assert other._tables == {}


# the records bench/tests rebuild with dataclasses.replace
DATACLASSES = ("Representation", "BiasPlan")
NAMED_TUPLES = tuple(name for name in RECORDS if name not in CLASSES + DATACLASSES)


@pytest.mark.parametrize("name", NAMED_TUPLES)
def test_named_tuples_compare_equal_to_plain_tuples_and_unpack(name):
    make, fields, _, _ = RECORDS[name]
    record = make()
    assert isinstance(record, tuple) and record._fields == fields
    assert record == _key(record, fields) and _key(record, fields) == record
    *values, last = record
    assert (*values, last) == _key(record, fields)
    assert record._replace(**{fields[0]: getattr(record, fields[0])}) == record


@pytest.mark.parametrize("name", DATACLASSES)
def test_dataclasses_left_rebuild_with_replace(name):
    import dataclasses

    make, fields, shown, _ = RECORDS[name]
    record = make()
    assert dataclasses.replace(record) == record and not isinstance(record, tuple)
    assert tuple(f.name for f in dataclasses.fields(record)) == fields
    values = _key(record, fields)
    for built in (type(record)(*values), type(record)(**dict(zip(fields, values)))):
        assert built == record and repr(built) == shown
    for field in fields:
        changed = dataclasses.replace(record, **{field: "changed"})
        assert getattr(changed, field) == "changed"
        assert all(getattr(changed, other) == getattr(record, other) for other in fields if other != field)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, "changed")


@pytest.mark.parametrize("name", DATACLASSES)
def test_item_store_records_keep_the_dataclass_contract(name):
    # each constructor stores its fields one item at a time into the instance dict, in field order, which
    # repr and asdict follow; assignment and replace of every field are pinned above
    import dataclasses

    make, fields, shown, _ = RECORDS[name]
    record = make()
    assert list(vars(record)) == [field.name for field in dataclasses.fields(record)] == list(fields)
    assert list(dataclasses.asdict(record)) == list(fields) and repr(record) == shown
    changed = dataclasses.replace(record, **{fields[1]: "changed"})
    assert list(vars(changed)) == list(fields) and getattr(changed, fields[1]) == "changed"
    for field in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, field)
    copies = [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies + [copy.copy(record), copy.deepcopy(record)]:
        assert other == record and list(vars(other)) == list(fields) and repr(other) == shown
