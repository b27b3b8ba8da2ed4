from __future__ import annotations

import copy
import csv
import io
import json
import pickle
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nims.sequence
from nims import (
    DEFAULT_ORACLE_CAP,
    DefectMap,
    DesignSpec,
    InvalidInput,
    InvalidSequence,
    RangeError,
    Sequence,
    SumSet,
    compare_logics,
    design,
    enumerate_nims,
    is_complete,
    oracle_gaps,
    parse_bits,
    plan,
    prefix_sums,
    reachable_sums,
    represent,
    represent_range_check,
    sequence_from_file,
    standard_column,
    tolerance_report,
    validate,
    within_tolerance,
    worst_case_scan,
)
from nims.oracle import _reach, _runs, _window_gaps
from nims.sequence import (
    LOWER,
    POSITIVITY,
    TOTAL_LIMIT,
    UPPER,
    _chain_capable,
    _descent,
    _reported_sequence,
    _tolerance_table,
    _unchecked_sequence,
    csv_rows,
    read_json,
)

from .conftest import (
    INCAPABLE_MESSAGES,
    NIMS1_BITS,
    any_bits,
    brute_sums,
    capable_bits,
    eager_validate,
    full_width_sums,
    growing_width_sums,
    interval_dp_sums,
    perbit_reach,
    perturbed_capable_bits,
    recursive_enumerate,
    regex_runs,
    strict_bits,
)


class _Int(int):
    """An int subclass, which a Sequence stores as a plain int."""


def _as_intervals(values) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for v in sorted(values):
        if out and v == out[-1][1] + 1:
            out[-1] = (out[-1][0], v)
        else:
            out.append((v, v))
    return tuple(out)


class TestSequenceType:
    def test_basic(self):
        s = Sequence((1, 3, 8))
        assert len(s) == 3
        assert list(s) == [1, 3, 8]
        assert s.total == 12
        assert s.last_index == 2

    def test_rejects_empty(self):
        with pytest.raises(InvalidInput):
            Sequence(())

    def test_rejects_negative(self):
        with pytest.raises(InvalidInput):
            Sequence((1, -2, 4))

    def test_bits_from_a_generator(self):
        # the type check used to use up a generator, leaving a sequence with no bits
        assert Sequence(b for b in (1, 3, 8)).bits == (1, 3, 8)
        assert validate(Sequence(b for b in (1, 3, 8))).strict_valid
        with pytest.raises(InvalidInput, match="^sequence must contain at least one bit$"):
            Sequence(b for b in ())

    def test_bit_rules_in_order(self):
        for bits, message in [
            ((), "sequence must contain at least one bit"),
            ((1.5, -1), "bits must be integers"),
            ((-1, True), "bits must be integers"),
            ((1, "3"), "bits must be integers"),
            ((3, -1), "bits must be nonnegative (zero models a dead bit)"),
        ]:
            with pytest.raises(InvalidInput) as excinfo:
                Sequence(bits)
            assert str(excinfo.value) == message

    def test_int_subclasses_are_stored_as_int(self):
        class Count(int):
            pass

        bits = Sequence((Count(1), 3, Count(8))).bits
        assert bits == (1, 3, 8) and set(map(type, bits)) == {int}

    def test_zero_allowed_for_defect_modelling(self):
        s = Sequence((1, 0, 4))
        assert not validate(s).complete_capable


class TestValidate:
    def test_strict_chain(self):
        r = validate(Sequence((1, 3, 8, 24)))
        assert r.strict_valid and r.complete_capable
        assert r.violations == ()

    def test_upper_violation(self):
        r = validate(Sequence((1, 2, 7)))
        assert not r.strict_valid and not r.complete_capable
        assert [(v.constraint, v.index) for v in r.violations] == [(UPPER, 2)]

    def test_positivity(self):
        r = validate(Sequence((1, 0, 2)))
        assert any(v.constraint == POSITIVITY and v.index == 1 for v in r.violations)
        assert not r.complete_capable

    def test_lower_violation_interior(self):
        # third bit must exceed triple the first
        r = validate(Sequence((1, 2, 3)))
        assert not r.strict_valid and r.complete_capable
        assert [(v.constraint, v.index) for v in r.violations] == [(LOWER, 2)]

    def test_last_pair_must_grow(self):
        r = validate(Sequence((1, 1)))
        assert not r.strict_valid and r.complete_capable
        assert [(v.constraint, v.index) for v in r.violations] == [(LOWER, 1)]

    def test_banked_columns_capable_not_strict(self, nims1, nims2, measured):
        for seq in (nims1, nims2, measured):
            r = validate(seq)
            assert r.complete_capable
            assert not r.strict_valid
            assert all(v.constraint == LOWER for v in r.violations)

    def test_report_views_pinned(self, measured):
        # equality, hash, repr and to_doc, whether or not the violations were read first
        for bits in (*INCAPABLE_MESSAGES, NIMS1_BITS, measured.bits):
            report, unread, eager = validate(Sequence(bits)), validate(Sequence(bits)), eager_validate(Sequence(bits))
            assert report.violations == eager.violations
            assert hash(unread) == hash(eager) == hash((eager.strict_valid, eager.complete_capable, eager.violations))
            assert unread == report and report != validate(Sequence((1, 3, 8)))
            assert pickle.loads(pickle.dumps(validate(Sequence(bits)))) == report
            judged = validate(Sequence(bits))
            judged.strict_valid  # a report whose cached verdict was read pickles as one that was not
            assert pickle.loads(pickle.dumps(judged)) == report
            assert repr(pickle.loads(pickle.dumps(judged))) == repr(eager)
            assert repr(validate(Sequence(bits))) == repr(eager)
            assert validate(Sequence(bits)).to_doc() == eager.to_doc()
            assert (report.strict_valid, report.complete_capable) == (eager.strict_valid, eager.complete_capable)
        assert repr(validate(Sequence((1, 2, 7)))) == (
            "ValidationReport(strict_valid=False, complete_capable=False, violations=(Violation(constraint='UPPER', "
            "index=2, message='bit 2 is 7, above three times bit 1 (2)', observed=(7, 2)),))"
        )
        assert repr(validate(Sequence((1, 3, 8)))) == (
            "ValidationReport(strict_valid=True, complete_capable=True, violations=())"
        )

    def test_strictness_is_worded_once_and_only_when_read(self, measured, monkeypatch):
        calls = []
        violations = nims.sequence._violations

        def counting(bits):
            calls.append(bits)
            return violations(bits)

        monkeypatch.setattr(nims.sequence, "_violations", counting)
        # a fresh sequence: the session's measured one may carry a report already read
        seq = Sequence(measured.bits)
        report = validate(seq)
        assert report.complete_capable and calls == []
        assert not report.strict_valid and calls == [seq.bits]
        assert report.violations and not report.strict_valid and calls == [seq.bits]
        assert validate(seq).violations and calls == [seq.bits]

    def test_an_ordinary_sequence_keeps_its_first_report(self):
        # validate stores the report it builds, and every later call returns it
        for bits in ((2, 6, 18), (1, 3, 8), (1, 0, 2)):
            seq = Sequence(bits)
            assert seq._tables == {}
            first, second = validate(seq), validate(seq)
            assert first is second and seq._tables == {"validate": first}
            assert first == validate(Sequence(bits))

    def test_to_doc_round_trip(self):
        doc = validate(Sequence((1, 2, 7))).to_doc()
        assert doc["strict_valid"] is False
        assert doc["violations"][0]["constraint"] == UPPER
        json.dumps(doc)

    @given(strict_bits())
    def test_generated_strict_sequences_validate(self, seq):
        assert validate(seq).strict_valid

    @given(capable_bits())
    def test_generated_capable_sequences_validate(self, seq):
        assert validate(seq).complete_capable

    @given(any_bits())
    @settings(max_examples=300)
    def test_chain_predicate_matches_the_violation_list(self, seq):
        # compared with the violations, not complete_capable, which is the predicate itself
        violations = validate(seq).violations
        assert _chain_capable(seq.bits) == (not any(v.constraint in (UPPER, POSITIVITY) for v in violations))

    @given(st.one_of(any_bits(), perturbed_capable_bits(), strict_bits()))
    @settings(max_examples=300)
    def test_report_matches_the_eager_reference(self, seq):
        # strict_bits draws sequences with no violation, the only ones strict_valid accepts
        eager = eager_validate(seq)
        assert validate(seq).strict_valid == (not eager.violations)
        report = validate(seq)
        assert hash(report) == hash(eager)
        assert repr(validate(seq)) == repr(eager)
        assert validate(seq).to_doc() == eager.to_doc()
        assert report == validate(seq)
        assert (report.strict_valid, report.complete_capable, report.violations) == (
            eager.strict_valid,
            eager.complete_capable,
            eager.violations,
        )


class TestOneVerdictPerSequence:
    """Each Sequence object is walked once and worded at most once, whichever entry point judges it."""

    @pytest.fixture
    def counted(self, monkeypatch):
        # the chain walk and the violation wording, each call logged by the bits it was given
        calls = {"_chain_capable": [], "_violations": []}
        for name, log in calls.items():
            fn = getattr(nims.sequence, name)
            monkeypatch.setattr(nims.sequence, name, lambda bits, fn=fn, log=log: log.append(bits) or fn(bits))
        return calls

    def test_repeated_refusals_reuse_the_first_verdict(self, counted):
        seq = Sequence((1, 2, 7))
        messages = set()
        for _ in range(100):
            with pytest.raises(InvalidSequence) as caught:
                plan(1.0, 18.01e9, seq)
            messages.add(str(caught.value))
        assert messages == {"sequence is not completeness capable: bit 2 is 7, above three times bit 1 (2)"}
        assert counted == {"_chain_capable": [seq.bits], "_violations": [seq.bits]}

    def test_every_gated_entry_point_reads_one_report(self, counted):
        seq = Sequence((1, 2, 7))
        reason = "is not completeness capable: bit 2 is 7, above three times bit 1 (2)"
        for call, error, what in (
            (lambda: represent(0, seq), InvalidSequence, "sequence"),
            (lambda: plan(1.0, 18.01e9, seq), InvalidSequence, "sequence"),
            (lambda: represent_range_check(seq), InvalidSequence, "sequence"),
            (lambda: worst_case_scan(seq, 1), InvalidSequence, "sequence"),
            (lambda: compare_logics(3, 10, [("x", seq)]), InvalidInput, "candidate 'x'"),
        ):
            with pytest.raises(error) as caught:
                call()
            assert str(caught.value) == f"{what} {reason}"
        assert validate(seq) is seq._tables["validate"] and not validate(seq).complete_capable
        assert counted == {"_chain_capable": [seq.bits], "_violations": [seq.bits]}

    def test_a_designed_sequence_is_compared_without_a_second_walk(self, counted):
        seq = design(DesignSpec(a0=1, msb_size=9, target_total=40)).sequence
        compare_logics(3, 9, [("designed", seq)])
        assert counted == {"_chain_capable": [seq.bits], "_violations": []}


class TestStoredTables:
    """The tables built from a Sequence's bits are kept in its one private map, which no value or copy shows."""

    @given(any_bits())
    @settings(max_examples=200)
    def test_a_stored_table_never_leaks_into_a_value(self, seq):
        tables = [_tolerance_table(seq), validate(seq)]
        if tables[1].complete_capable:
            tables.append(_descent(seq))
        assert list(seq._tables.values()) == tables
        fresh = Sequence(seq.bits)
        assert seq == fresh and hash(seq) == hash(fresh) and repr(seq) == repr(fresh)
        copies = [copy.copy(seq), copy.deepcopy(seq)]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(seq, protocol) == pickle.dumps(fresh, protocol)
            copies.append(pickle.loads(pickle.dumps(seq, protocol)))
        for other in copies:
            assert type(other) is Sequence and other == seq and other._tables == {}
        assert _tolerance_table(seq) is tables[0] and validate(seq) is tables[1]
        assert len(tables) == 2 or _descent(seq) is tables[2]

    @pytest.mark.parametrize(
        ("bits", "error", "message"),
        [
            ((1, 2, 7), InvalidSequence, "sequence is not completeness capable: bit 2 is 7, above three times bit 1 (2)"),
            ((TOTAL_LIMIT, TOTAL_LIMIT), RangeError, f"sequence total exceeds {TOTAL_LIMIT}"),
        ],
        ids=["incapable", "past-total-limit"],
    )
    def test_a_refused_descent_table_is_refused_again_and_stores_nothing(self, bits, error, message):
        # refused on a bare sequence and on one whose map already holds its tolerance table
        bare, holding = Sequence(bits), Sequence(bits)
        tolerances = _tolerance_table(holding)
        for seq in (bare, holding):
            for _ in range(2):
                with pytest.raises(error) as caught:
                    _descent(seq)
                assert type(caught.value) is error and str(caught.value) == message
        # the gate's report is kept, the refused table is not
        assert bare._tables == {"validate": validate(bare)}
        assert holding._tables == {"_tolerance_table": tolerances, "validate": validate(holding)}

    def test_the_map_is_all_a_sequence_keeps(self):
        # the report is a builder's entry like the two tables, so no slot of its own comes back
        assert Sequence.__slots__ == ("bits", "_tables")
        seq = Sequence((1, 3, 8))
        assert validate(seq) is seq._tables["validate"] and validate.__wrapped__(seq) == validate(seq)

    @given(any_bits(), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=100)
    def test_the_shared_maps_never_change(self, seq, a0, depth):
        # every constructor, and every reader that stores, replaces a sequence's map and never writes into one
        empty, strict = nims.sequence._NO_TABLES, nims.sequence._STRICT_TABLES
        strict_report = strict["validate"]
        bits = seq.bits
        built = [seq, _unchecked_sequence(bits), _reported_sequence(bits), *enumerate_nims(a0, depth, 40)[:3]]
        if _chain_capable(bits):
            built.append(_reported_sequence(bits, capable=True))
        for s in built:
            within_tolerance(s, DefectMap({}))
            tolerance_report(s)
            if validate(s).complete_capable:
                represent(0, s)
                plan(0.0, 1e10, s)
                worst_case_scan(s, 1)
            else:
                with pytest.raises(InvalidSequence):
                    worst_case_scan(s, 1)
            assert set(s._tables) <= {"validate", "_descent", "_tolerance_table"}
            for other in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
                assert other._tables is empty
        assert empty == {} and nims.sequence._NO_TABLES is empty
        assert strict == {"validate": strict_report} and nims.sequence._STRICT_TABLES is strict
        assert strict_report == validate(Sequence((1, 3, 8)))

    @pytest.mark.parametrize("builder", [_descent, _tolerance_table], ids=["descent", "tolerance"])
    def test_a_value_that_is_not_a_sequence_is_refused_before_any_build(self, builder):
        for _ in range(2):
            with pytest.raises(InvalidInput, match=r"^seq must be a Sequence, got \(1, 3, 8\)$"):
                builder((1, 3, 8))


class TestPrefixSums:
    def test_totals_and_thresholds(self):
        sums = prefix_sums(Sequence((1, 3, 8)))
        assert sums.totals == (1, 4, 12)
        assert sums.thresholds == (2, 5, 13)

    def test_offset_first_bit(self):
        sums = prefix_sums(Sequence((2, 6, 18)))
        assert sums.totals == (2, 8, 26)
        assert sums.thresholds == (4, 10, 28)

    def test_total_limit(self):
        with pytest.raises(RangeError):
            prefix_sums(Sequence((TOTAL_LIMIT, TOTAL_LIMIT)))

    def test_a_total_of_exactly_the_limit_is_summed(self):
        half = TOTAL_LIMIT // 2
        assert prefix_sums(Sequence((half, half))).totals == (half, TOTAL_LIMIT)
        with pytest.raises(RangeError):
            prefix_sums(Sequence((half, half + 1)))

    @given(capable_bits())
    def test_chain_inequality_every_bit(self, seq):
        # triple of any bit stays within twice the running total plus a0
        sums = prefix_sums(seq)
        a0 = seq.bits[0]
        for n, a in enumerate(seq.bits):
            assert 3 * a - sums.totals[n] <= sums.totals[n] + a0


class TestSegmentationEfficiency:
    def test_published_prefix(self):
        # the ratios 2, 3 and 7/3 of (1, 2, 6, 14), every bit below a bank of 15
        from fractions import Fraction

        (column,) = compare_logics(4, 15, [("nims", Sequence((1, 2, 6, 14)))]).candidates
        assert (column.bits_to_msb, column.min_efficiency, column.mean_efficiency) == (4, 2, Fraction(22, 9))


class TestReachableSums:
    @given(capable_bits(max_total=120, max_len=5))
    @settings(max_examples=150)
    def test_matches_brute_force(self, seq):
        sums = reachable_sums(seq)
        expected = brute_sums(seq.bits)
        got = {v for lo, hi in sums.intervals for v in range(lo, hi + 1)}
        assert got == expected

    @given(capable_bits(max_total=120, max_len=5))
    @settings(max_examples=80)
    def test_symmetry(self, seq):
        sums = reachable_sums(seq)
        for lo, hi in sums.intervals:
            assert (-hi, -lo) in {(a, b) for a, b in sums.intervals}

    def test_offset_inflates_by_first_bit_slack(self):
        plain = reachable_sums(Sequence((2, 6, 18)))
        offset = reachable_sums(Sequence((2, 6, 18)), a0_offset=True)
        assert plain.beta_radius == 0
        assert offset.beta_radius == 1
        assert offset.count > plain.count
        assert 1 in offset and 1 not in plain

    def test_membership_and_count(self):
        sums = reachable_sums(Sequence((1, 3)))
        assert sums.span == 4
        assert all(v in sums for v in range(-4, 5))
        assert sums.count == 9
        assert 5 not in sums

    def test_gap_reporting(self):
        sums = reachable_sums(Sequence((1, 3, 10)))
        gaps = sums.gaps(-sums.span, sums.span)
        assert gaps == ((-5, -5), (5, 5))

    @pytest.mark.parametrize(
        "lo,hi,expected",
        [
            (-4, 4, ()),  # inside the central run: the skip reaches past hi
            (-2, 3, ()),
            (5, 14, ((5, 5),)),  # the first sum is missing: nothing skipped, the gap kept
            (5, 5, ((5, 5),)),
            (-20, 20, ((-20, -15), (-5, -5), (5, 5), (15, 20))),  # from below the lowest bit to above the top
            (6, 20, ((15, 20),)),  # a run up to the top, then the clipped end
            (3, 2, ()),  # lo > hi
            (-50, -60, ()),
        ],
    )
    def test_gap_windows_at_the_edges(self, lo, hi, expected):
        # the set of 1, 3, 10 is -14..-6, -4..4 and 6..14
        assert reachable_sums(Sequence((1, 3, 10))).gaps(lo, hi) == expected

    def test_cap_guard(self):
        with pytest.raises(RangeError):
            reachable_sums(Sequence((1, 3, 9)), cap=5)

    @given(any_bits(), st.booleans(), st.integers(-60, 60), st.integers(0, 120))
    @settings(max_examples=300)
    def test_matches_interval_dp_and_brute_force(self, seq, a0_offset, lo, width):
        sums = reachable_sums(seq, a0_offset=a0_offset)
        radius = max(seq.bits[0] - 1, 0) if a0_offset else 0
        assert (sums.span, sums.beta_radius) == (seq.total, radius)
        expected = {v + d for v in brute_sums(seq.bits) for d in range(-radius, radius + 1)}
        assert sums.intervals == interval_dp_sums(seq.bits, radius) == _as_intervals(expected)
        assert sums.count == len(expected)
        reach = seq.total + radius
        assert all((v in sums) == (v in expected) for v in range(-reach - 2, reach + 3))
        windows = ((-seq.total, seq.total), (-reach - 3, reach + 5), (lo, lo + width), (lo, lo - 1))
        for wlo, whi in windows:
            missing = [v for v in range(wlo, whi + 1) if v not in expected]
            assert sums.covers(wlo, whi) == (not missing)
            assert sums.gaps(wlo, whi) == _as_intervals(missing)

    @given(any_bits(max_len=8, max_bit=300), st.booleans())
    @example(Sequence((0,)), False)
    @example(Sequence((0,)), True)
    @example(Sequence((0, 0, 0)), True)
    @example(Sequence((1,)), False)
    @example(Sequence((9,)), True)
    @example(Sequence((5, 0, 2)), True)
    @settings(max_examples=300)
    def test_growing_width_matches_full_width(self, seq, a0_offset):
        sums = reachable_sums(seq, a0_offset=a0_offset)
        assert (sums.mask, sums.span, sums.beta_radius) == full_width_sums(seq.bits, a0_offset)

    @given(perturbed_capable_bits(), st.booleans())
    @settings(max_examples=300)
    def test_run_first_matches_both_bitset_references(self, seq, a0_offset):
        sums = reachable_sums(seq, a0_offset=a0_offset)
        expected = growing_width_sums(seq.bits, a0_offset)
        assert (sums.mask, sums.span, sums.beta_radius) == expected == full_width_sums(seq.bits, a0_offset)

    @pytest.mark.parametrize("a0_offset", [False, True])
    def test_device_matches_full_width(self, measured, a0_offset):
        sums = reachable_sums(measured, a0_offset=a0_offset)
        expected = growing_width_sums(measured.bits, a0_offset)
        assert (sums.mask, sums.span, sums.beta_radius) == expected == full_width_sums(measured.bits, a0_offset)

    def test_one_run_that_breaks_the_chain(self):
        # with the residual, 2 then 7 stays one run (-10..10) although 7 > 3*2
        seq = Sequence((2, 7))
        assert not _chain_capable(seq.bits)
        sums = reachable_sums(seq, a0_offset=True)
        assert sums.intervals == ((-10, 10),)
        expected = growing_width_sums(seq.bits, True)
        assert (sums.mask, sums.span, sums.beta_radius) == expected == full_width_sums(seq.bits, True)

    @given(st.one_of(any_bits(), perturbed_capable_bits()), st.booleans())
    @example(Sequence((0, 0, 0)), True)
    @example(Sequence((5,)), False)
    @settings(max_examples=300)
    def test_mirrored_gaps_match_the_full_window(self, seq, a0_offset):
        sums = reachable_sums(seq, a0_offset=a0_offset)
        assert _window_gaps(sums) == sums.gaps(-sums.span, sums.span)

    @given(st.one_of(any_bits(), capable_bits(max_total=2000)), st.booleans(), st.integers(-60, 60), st.integers(0, 120))
    @example(Sequence((1, 5, 2)), False, 0, 0)  # the bitset path ends all ones
    @example(Sequence((1, 5, 2)), True, 0, 0)
    @example(Sequence((1, 3, 9)), False, 0, 0)  # one run from the start
    @example(Sequence((0, 0, 0)), True, 0, 0)
    @settings(max_examples=200)
    def test_a_set_held_by_its_width_answers_as_its_mask(self, seq, a0_offset, lo, width):
        # each query reads a fresh set, before anything has built its mask
        explicit = SumSet(*full_width_sums(seq.bits, a0_offset))
        mask, span, radius = explicit.mask, explicit.span, explicit.beta_radius

        def fresh() -> SumSet:
            return reachable_sums(seq, a0_offset=a0_offset)

        assert not fresh()._one_run or mask & (mask + 1) == 0
        reach = span + radius
        values, sums = range(-reach - 2, reach + 3), fresh()
        assert [v in sums for v in values] == [v in explicit for v in values]
        assert fresh().count == explicit.count
        assert fresh().intervals == explicit.intervals
        assert _window_gaps(fresh()) == _window_gaps(explicit)
        for wlo, whi in ((-span, span), (-reach - 3, reach + 5), (lo, lo + width), (lo, lo - 1)):
            assert fresh().covers(wlo, whi) == explicit.covers(wlo, whi)
            assert fresh().gaps(wlo, whi) == explicit.gaps(wlo, whi)
        assert fresh() == explicit and explicit == fresh()
        assert hash(fresh()) == hash(explicit) and repr(fresh()) == repr(explicit)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(fresh(), protocol) == pickle.dumps(explicit, protocol)
            assert pickle.loads(pickle.dumps(fresh(), protocol)) == explicit

    def test_large_residual_radius(self):
        sums = reachable_sums(Sequence((1000, 1500)), a0_offset=True)
        assert sums.beta_radius == 999
        # consecutive sums are at most 1,000 apart, so the widening joins them
        assert sums.intervals == ((-3499, 3499),) == interval_dp_sums((1000, 1500), 999)
        assert sums.count == 6999
        assert sums.covers(-sums.span, sums.span)
        assert sums.gaps(-3600, 3600) == ((-3600, -3500), (3500, 3600))
        assert -3499 in sums and 3500 not in sums

    def test_all_zero_sequence(self):
        for a0_offset in (False, True):
            sums = reachable_sums(Sequence((0, 0, 0)), a0_offset=a0_offset)
            assert (sums.span, sums.beta_radius) == (0, 0)
            assert sums.intervals == ((0, 0),)
            assert sums.count == 1
            assert 0 in sums and 1 not in sums and -1 not in sums
            assert sums.covers(0, 0) and not sums.covers(-1, 0)
            assert sums.gaps(-2, 2) == ((-2, -1), (1, 2))
            # windows far wider than the set are clipped, not materialised
            assert not sums.covers(0, 10**18)
            assert sums.gaps(-(10**18), 10**18) == ((-(10**18), -1), (1, 10**18))
        assert is_complete(Sequence((0, 0, 0)))

    @pytest.mark.parametrize(
        "oracle",
        [reachable_sums, is_complete, oracle_gaps],
        ids=["reachable_sums", "is_complete", "oracle_gaps"],
    )
    def test_cap_boundary(self, oracle):
        seq = Sequence((2, 6, 18))
        oracle(seq, cap=seq.total)
        with pytest.raises(RangeError, match="exceeds oracle cap 25"):
            oracle(seq, cap=seq.total - 1)

    def test_default_cap_boundary(self):
        at_cap = Sequence((1, DEFAULT_ORACLE_CAP - 1))
        assert reachable_sums(at_cap).count == 9
        assert not is_complete(at_cap)
        over = Sequence((1, DEFAULT_ORACLE_CAP))
        for oracle in (reachable_sums, is_complete, oracle_gaps):
            with pytest.raises(RangeError, match=f"total {DEFAULT_ORACLE_CAP + 1} exceeds"):
                oracle(over)


def _from_run_lengths(lengths: list[int]) -> int:
    """Alternating runs of ones and zeros, lowest first, starting with ones."""
    x, pos = 0, 0
    for i, n in enumerate(lengths):
        if i % 2 == 0:
            x |= ((1 << n) - 1) << pos
        pos += n
    return x


# Bytes that _runs decodes from its tables: empty, full, a run through bit 7
# or from bit 0, and several runs inside one byte.
EDGE_BYTES = st.sampled_from([0x00, 0xFF, 0x80, 0x01, 0xC0, 0x03, 0x81, 0x55, 0xAA, 0x5A, 0x7E, 0xE7])


def _from_bytes(chunks: list[bytes]) -> int:
    return int.from_bytes(b"".join(chunks), "little")


class TestRuns:
    @given(
        st.one_of(
            st.integers(0, 2**300),
            st.integers(0, 300).map(lambda n: (1 << n) - 1),
            st.integers(0, 300).map(lambda n: 1 << n),
            st.lists(st.integers(1, 400), max_size=12).map(_from_run_lengths),
            # runs that end on bit 7 of a byte and start on bit 0 of the next
            st.lists(st.tuples(st.integers(0, 40), st.integers(1, 40)), max_size=8).map(
                lambda pairs: _from_run_lengths([8 * n for pair in pairs for n in pair])
            ),
            # stretches of full and empty bytes between edge bytes, and a partial top byte
            st.lists(
                st.one_of(
                    EDGE_BYTES.map(lambda b: bytes([b])),
                    st.integers(1, 30).map(lambda n: b"\xff" * n),
                    st.integers(1, 30).map(lambda n: b"\x00" * n),
                    st.integers(0, 255).map(lambda b: bytes([b])),
                ),
                max_size=12,
            ).map(_from_bytes),
        )
    )
    @example(0)
    @example(1)
    @example(2**64 - 1)
    @example(2**64)
    @example(0b1010)
    @example(0x0180)  # a run across the byte boundary, bits 7 and 8
    @example(0xFF00FF)  # full bytes around an empty one
    @example(0x7FFF)  # a run through full bytes up to a partial top byte
    @example(0x55AA)  # four runs inside each byte
    @example(0xFF_FF_FF_E7)  # a byte of two runs, its top one carried through three full bytes
    @settings(max_examples=300)
    def test_matches_regex(self, x):
        assert _runs(x) == regex_runs(x)
        # a shift moves both ends of every run, the run carried to the top byte too
        shift = -x.bit_length() - 5
        assert _runs(x, shift) == [(lo + shift, hi + shift) for lo, hi in regex_runs(x)]

    def test_every_byte_decodes_alone_and_between_full_bytes(self):
        # each of the 256 table entries, and each as the byte a carried run ends in
        for b in range(256):
            for x in (b, b << 8, b << 8 | 0xFF, 0xFF << 16 | b << 8 | 0xFF):
                assert _runs(x) == regex_runs(x)
                assert _runs(x, b - 7) == [(lo + b - 7, hi + b - 7) for lo, hi in regex_runs(x)]


@st.composite
def repeated_bits(draw) -> tuple[int, ...]:
    """Bits drawn with some repeated 2-8 times in a row, dead bits among them."""
    bits: list[int] = []
    for _ in range(draw(st.integers(1, 5))):
        bit = draw(st.one_of(st.just(0), st.integers(1, 5), st.integers(1, 60)))
        bits += [bit] * draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8]))
    return tuple(bits)


class TestReach:
    @given(repeated_bits(), st.booleans())
    @example((1, 5, 5, 5, 5, 5, 5, 5), False)  # a gap at bit 1, then seven equal bits
    @example((2, 6, 18, 54, 162, 480, 1434, 4296, 5006) + (5760,) * 14, True)  # the designed layout
    @example((0, 6, 18, 54, 162, 480, 1434, 3574, 5759) + (5760,) * 5 + (5759,) + (5760,) * 7 + (5730,), True)
    @example((3, 0, 0, 0, 20, 20), True)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_bit_loop(self, bits, a0_offset):
        assert _reach(bits, a0_offset, DEFAULT_ORACLE_CAP) == perbit_reach(bits, a0_offset, DEFAULT_ORACLE_CAP)
        if sum(bits) > 40 or len(bits) > 9:
            return
        # small totals: the set is every digit sum, widened by the residual radius
        sums = reachable_sums(Sequence(bits), a0_offset=a0_offset)
        radius = sums.beta_radius
        brute = {s + r for s in brute_sums(bits) for r in range(-radius, radius + 1)}
        assert {v for v in range(-sums.span - radius, sums.span + radius + 1) if v in sums} == brute

    @pytest.mark.parametrize("slack", [-1, 0, 1])
    @given(repeated_bits(), st.booleans())
    @example((3,), False)  # the walk breaks at the first bit: 3 > 1 without the residual
    @example((1, 3, 10), False)  # the walk breaks at the last bit: 10 > 9
    @example((1, 3, 9), False)  # no break: the total is read off the width
    @example((0, 0, 0), True)  # a dead first bit: no residual, one run of total 0
    @settings(max_examples=150, deadline=None)
    def test_the_cap_is_checked_on_either_path(self, slack, bits, a0_offset):
        # the one-run path reads its total off the width, the bitset path sums
        # the bits; at cap = total - 1, total and total + 1 both give the
        # per-bit loop's result or its refusal (InvalidInput for a cap below 0)
        cap = sum(bits) + slack

        def outcome(kernel):
            try:
                return kernel(bits, a0_offset, cap)
            except (InvalidInput, RangeError) as exc:
                return type(exc).__name__, str(exc)

        assert outcome(_reach) == outcome(perbit_reach)


class TestIsComplete:
    def test_strict_examples(self):
        assert is_complete(Sequence((1, 3, 8)))
        assert is_complete(Sequence((1, 2, 6)))

    @given(st.one_of(any_bits(), perturbed_capable_bits()), st.integers(-1, 1))
    @example(Sequence((1, 3, 9)), 0)  # one run from the first bit to the last
    @example(Sequence((3, 10)), 0)  # one run only with the residual
    @example(Sequence((1, 5, 3)), 0)  # a gap that a later bit closes
    @example(Sequence((1, 3, 10)), 0)  # a gap that stays, at +-5
    @example(Sequence((0, 0, 0)), 0)
    @example(Sequence((2, 6, 18)), -1)  # one below the total: over the cap
    @example(Sequence((0, 0)), -1)  # a negative cap
    @settings(max_examples=300)
    def test_matches_the_sum_set_and_brute_force(self, seq, slack):
        cap = seq.total + slack

        def outcome(check):
            try:
                return check()
            except (InvalidInput, RangeError) as exc:
                return type(exc).__name__, str(exc)

        def covers():
            sums = reachable_sums(seq, a0_offset=True, cap=cap)
            return sums.covers(-sums.span, sums.span)

        verdict = outcome(lambda: is_complete(seq, cap=cap))
        assert verdict == outcome(covers)
        if cap < 0:  # a total of 0 with a slack of -1: the one cap rule refuses the cap itself
            assert verdict == ("InvalidInput", f"oracle cap must not be negative, got {cap}")
            return
        if slack < 0:
            assert verdict == ("RangeError", f"sequence total {seq.total} exceeds oracle cap {cap}")
            return
        # every target lies within the residual radius of a sum exactly when
        # no two neighbouring sums are more than 2 * radius + 1 apart
        radius = max(seq.bits[0] - 1, 0)
        sums = sorted(brute_sums(seq.bits))
        assert verdict == all(hi - lo <= 2 * radius + 1 for lo, hi in zip(sums, sums[1:]))

    def test_chain_is_sufficient_not_necessary(self):
        # breaks the triple bound at the last bit yet covers every target
        assert not validate(Sequence((1, 2, 7))).complete_capable
        assert is_complete(Sequence((1, 2, 7)))
        assert not is_complete(Sequence((1, 2, 8)))

    def test_offset_first_bit_uses_residual_slack(self, measured):
        assert measured.bits[0] == 2
        assert is_complete(measured)

    @given(capable_bits(max_total=4000))
    @settings(max_examples=120)
    def test_capable_implies_complete(self, seq):
        assert is_complete(seq)


class TestEnumerate:
    def test_depth_two(self):
        seqs = enumerate_nims(1, 2, 3)
        assert [list(s.bits) for s in seqs] == [[1, 2], [1, 3]]

    def test_depth_three_full(self):
        seqs = enumerate_nims(1, 3, 9)
        assert [list(s.bits) for s in seqs] == [
            [1, 2, 4],
            [1, 2, 5],
            [1, 2, 6],
            [1, 3, 4],
            [1, 3, 5],
            [1, 3, 6],
            [1, 3, 7],
            [1, 3, 8],
            [1, 3, 9],
        ]

    @pytest.mark.parametrize("a0,depth,max_bit", [(1, 3, 9), (2, 3, 18), (1, 4, 20)])
    def test_matches_brute_filter(self, a0, depth, max_bit):
        got = {tuple(s.bits) for s in enumerate_nims(a0, depth, max_bit)}
        brute = set()

        def walk(prefix):
            if len(prefix) == depth:
                if validate(Sequence(prefix)).strict_valid:
                    brute.add(prefix)
                return
            for nxt in range(1, max_bit + 1):
                if validate(Sequence(prefix + (nxt,))).complete_capable:
                    walk(prefix + (nxt,))

        walk((a0,))
        assert got == brute

    def test_all_results_strictly_valid(self):
        for s in enumerate_nims(2, 4, 54):
            assert validate(s).strict_valid

    def test_result_cap(self):
        with pytest.raises(RangeError):
            enumerate_nims(1, 4, 27, max_results=5)

    @given(st.integers(1, 3), st.integers(1, 7), st.integers(1, 60), st.integers(0, 400))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_recursive_reference(self, a0, depth, max_bit, max_results):
        def outcome(search):
            try:
                return search()
            except RangeError as exc:
                return str(exc)

        pruned = outcome(lambda: [s.bits for s in enumerate_nims(a0, depth, max_bit, max_results=max_results)])
        assert pruned == outcome(lambda: recursive_enumerate(a0, depth, max_bit, max_results))

    @given(st.integers(1, 3), st.integers(1, 7), st.integers(1, 60), st.integers(0, 400))
    @settings(max_examples=200, deadline=None)
    def test_results_carry_the_report_validate_would_give(self, a0, depth, max_bit, max_results):
        try:
            found = enumerate_nims(a0, depth, max_bit, max_results=max_results)
        except RangeError:
            return
        # each result's bits are exactly a tuple of plain ints, the reference's
        assert [s.bits for s in found] == recursive_enumerate(a0, depth, max_bit, max_results)
        assert all(type(s.bits) is tuple and all(type(b) is int for b in s.bits) for s in found)
        for s in found:
            # fresh: the lazy report of a sequence enumerate_nims did not list
            report, fresh, eager = validate(s), validate(Sequence(s.bits)), eager_validate(s)
            assert report is validate(s) and report == fresh and hash(report) == hash(fresh) == hash(eager)
            assert (report.strict_valid, report.complete_capable, report.violations) == (True, True, ())
            assert repr(report) == repr(eager) and report.to_doc() == eager.to_doc()
            assert pickle.loads(pickle.dumps(report)) == fresh
            # a copy is rebuilt by the constructor: it starts with no stored report, then keeps its own
            for other in (copy.copy(s), pickle.loads(pickle.dumps(s))):
                assert other == s and other._tables == {}
                assert validate(other) == report and validate(other) is validate(other) is other._tables["validate"]

    @pytest.mark.parametrize(
        "args,max_results,listed",
        [
            ((2, 1, 5), 1, [(2,)]),
            ((2, 1, 5), 0, None),
            ((6, 1, 5), 0, []),  # a0 above max_bit lists nothing, whatever the cap
            ((1, 2, 3), 2, [(1, 2), (1, 3)]),
            ((1, 2, 3), 1, None),
            ((1, 2, 1), 0, []),  # the second bit has no room under max_bit
            # the last bit's slices are 4..6 after (1, 2) and 4..9 after (1, 3)
            ((1, 3, 9), 3, None),
            ((1, 3, 9), 9, [(1, 2, 4), (1, 2, 5), (1, 2, 6), *((1, 3, b) for b in range(4, 10))]),
            ((1, 3, 9), 8, None),
        ],
    )
    def test_the_cap_at_the_edges_of_a_slice(self, args, max_results, listed):
        # listed None: the enumeration is one past the cap
        assert listed is None or recursive_enumerate(*args, max_results) == listed
        if listed is None:
            with pytest.raises(RangeError, match=f"^enumeration exceeds {max_results} sequences$"):
                enumerate_nims(*args, max_results=max_results)
            with pytest.raises(RangeError):
                recursive_enumerate(*args, max_results)
        else:
            found = enumerate_nims(*args, max_results=max_results)
            assert [s.bits for s in found] == listed
            assert all(validate(s) == validate(Sequence(s.bits)) for s in found)

    @given(st.integers(1, 3), st.one_of(st.integers(1, 7), st.integers(8, 10**9)), st.integers(1, 60))
    @settings(max_examples=200, deadline=None)
    def test_a_cap_at_the_count_lists_all_and_one_below_refuses(self, a0, depth, max_bit):
        listed = recursive_enumerate(a0, depth, max_bit, 10**6)
        assert [s.bits for s in enumerate_nims(a0, depth, max_bit, max_results=len(listed))] == listed
        if listed:
            with pytest.raises(RangeError) as caught:
                enumerate_nims(a0, depth, max_bit, max_results=len(listed) - 1)
            assert str(caught.value) == f"enumeration exceeds {len(listed) - 1} sequences"

    def test_the_search_stops_at_the_first_empty_level(self):
        # no strict sequence of more than a few bits stays within 5, so the search ends long before depth
        assert enumerate_nims(1, 10**9, 5) == []

    def test_a_refused_run_is_never_built(self):
        # The second bit's run after a0 holds 2 * a0 bits. The small case comes first and is
        # measured, so that a search which builds the run before refusing it fails on its
        # 2 * 10**6 prefixes, before it reaches the 2 * 10**8 of the second.
        tracemalloc.start()
        try:
            with pytest.raises(RangeError, match="^enumeration exceeds 10 sequences$"):
                enumerate_nims(10**6, 2, 10**7, max_results=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        with pytest.raises(RangeError, match="^enumeration exceeds 10 sequences$"):
            enumerate_nims(10**8, 2, 10**9, max_results=10)

    def test_negative_result_cap_is_bad_input(self):
        with pytest.raises(InvalidInput, match="max_results must not be negative"):
            enumerate_nims(1, 2, 3, max_results=-1)

    @pytest.mark.parametrize(
        "args,max_results",
        [
            ((1.5, 3, 10), 5),
            (("1", 3, 10), 5),
            ((True, 3, 10), 5),
            ((None, 3, 10), 5),
            ((1, 3.0, 10), 5),
            ((1, False, 10), 5),
            ((1, 3, 10.5), 5),
            ((1, 3, True), 5),
            ((1, 3, 10), 5.0),
            ((1, 3, 10), True),
        ],
        ids=["a0-float", "a0-str", "a0-bool", "a0-none", "depth-float", "depth-bool",
             "max_bit-float", "max_bit-bool", "max_results-float", "max_results-bool"],
    )
    def test_non_integer_arguments_are_bad_input(self, args, max_results):
        with pytest.raises(InvalidInput, match=r"^(a0|depth|max_bit|max_results) must be an integer, got "):
            enumerate_nims(*args, max_results=max_results)

    @given(st.integers(1, 3), st.integers(1, 6), st.integers(1, 60), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_results_are_checked_sequences_of_plain_ints(self, a0, depth, max_bit, subclass):
        # the results skip Sequence's checks, so each must be what they would give
        for s in enumerate_nims(_Int(a0) if subclass else a0, depth, max_bit):
            assert s == Sequence(s.bits)
            assert type(s.bits) is tuple
            assert all(type(b) is int for b in s.bits)


class TestStandardsAndParsing:
    def test_make_standard(self):
        # plain doubling or tripling: a bank size above the top bit never caps the growth
        assert standard_column("binary", 2**4 + 1, 5).bits == (1, 2, 4, 8, 16)
        assert standard_column("ternary", 3**3 + 1, 4).bits == (1, 3, 9, 27)

    def test_parse_bits(self):
        assert parse_bits("1,3,8").bits == (1, 3, 8)
        assert parse_bits(" 2, 6 ,18 ").bits == (2, 6, 18)

    def test_parse_bits_rejects_junk(self):
        with pytest.raises(InvalidInput):
            parse_bits("1,x,8")
        with pytest.raises(InvalidInput):
            parse_bits("")

    def test_sequence_from_file(self, tmp_path):
        p = tmp_path / "seq.json"
        p.write_text(json.dumps({"bits": [1, 3, 8]}))
        assert sequence_from_file(p).bits == (1, 3, 8)

    def test_sequence_from_file_rejects_shape(self, tmp_path):
        p = tmp_path / "seq.json"
        p.write_text(json.dumps({"values": [1, 3]}))
        with pytest.raises(InvalidInput):
            sequence_from_file(p)

    @pytest.mark.parametrize(
        ("text", "key"),
        [('{"bits": [1, 3], "bits": [1, 2, 7]}', "bits"), ('{"bits": [1, 3], "x": {"a": 1, "a": 1}}', "a")],
    )
    def test_a_repeated_key_is_refused_at_any_depth(self, tmp_path, text, key):
        # json keeps the last of a repeated key; the reader refuses the file instead
        p = tmp_path / "seq.json"
        p.write_text(text)
        with pytest.raises(InvalidInput, match=f"^{re.escape(str(p))}: key '{key}' is repeated in one object$"):
            read_json(p)

    def test_one_key_in_two_objects_is_not_repeated(self, tmp_path):
        p = tmp_path / "seq.json"
        p.write_text('{"bits": [1, 3], "x": [{"a": 1}, {"a": 2}]}')
        assert read_json(p) == {"bits": [1, 3], "x": [{"a": 1}, {"a": 2}]}


CSV_FIELDS = st.one_of(st.none(), st.integers(), st.text(alphabet="ab \r\n,\"", max_size=6))


@given(st.lists(st.lists(CSV_FIELDS, max_size=4), max_size=5))
@example([["a\rb", None], ["\r", "\n"], ['"', ","], [""], [None]])
@settings(max_examples=300)
def test_csv_rows_read_back(rows):
    text = csv_rows(rows)
    assert text.endswith("\n") or not rows
    expected = [["" if field is None else str(field) for field in row] for row in rows]
    assert list(csv.reader(io.StringIO(text, newline=""))) == expected
