from __future__ import annotations

import ast
import csv
import inspect
import io
import json
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nims.sequence
from nims import (
    DEFAULT_ORACLE_CAP,
    InvalidInput,
    RangeError,
    Sequence,
    SumSet,
    enumerate_nims,
    is_complete,
    oracle_gaps,
    parse_bits,
    prefix_sums,
    reachable_sums,
    segmentation_efficiency,
    sequence_from_file,
    standard_column,
    validate,
)
from nims.fault_tolerance import _window_gaps
from nims.sequence import LOWER, POSITIVITY, UPPER, TOTAL_LIMIT, _chain_capable, _reach, _runs, csv_rows

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
        report = validate(measured)
        assert report.complete_capable and calls == []
        assert not report.strict_valid and calls == [measured.bits]
        assert report.violations and not report.strict_valid and calls == [measured.bits]

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
        from fractions import Fraction

        ratios = segmentation_efficiency(Sequence((1, 2, 6, 14)))
        assert ratios == (Fraction(2), Fraction(3), Fraction(7, 3))

    def test_requires_two_bits(self):
        with pytest.raises(InvalidInput):
            segmentation_efficiency(Sequence((5,)))

    def test_requires_positive(self):
        with pytest.raises(InvalidInput):
            segmentation_efficiency(Sequence((1, 0, 2)))


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

    def test_oracle_names_no_chain_certificate(self):
        # the oracle stays independent of the chain certificate, though its
        # one-run shortcut looks like a chain test
        banned = {
            "_chain_capable", "_lower_chain", "_strict_valid", "validate", "_tolerances", "_tolerance_table",
            "_violations", "_refusal",
        }
        for oracle in (_reach, reachable_sums, is_complete, oracle_gaps, _window_gaps, SumSet):
            nodes = list(ast.walk(ast.parse(inspect.getsource(oracle))))
            names = {node.id for node in nodes if isinstance(node, ast.Name)}
            names |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            assert not names & banned, oracle.__name__

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


class TestRuns:
    @given(
        st.one_of(
            st.integers(0, 2**300),
            st.integers(0, 300).map(lambda n: (1 << n) - 1),
            st.integers(0, 300).map(lambda n: 1 << n),
            st.lists(st.integers(1, 400), max_size=12).map(_from_run_lengths),
        )
    )
    @example(0)
    @example(1)
    @example(2**64 - 1)
    @example(2**64)
    @example(0b1010)
    @settings(max_examples=300)
    def test_matches_regex(self, x):
        assert _runs(x) == regex_runs(x)


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
    @settings(max_examples=300)
    def test_matches_the_sum_set_and_brute_force(self, seq, slack):
        cap = seq.total + slack

        def outcome(check):
            try:
                return check()
            except RangeError as exc:
                return str(exc)

        def covers():
            sums = reachable_sums(seq, a0_offset=True, cap=cap)
            return sums.covers(-sums.span, sums.span)

        verdict = outcome(lambda: is_complete(seq, cap=cap))
        assert verdict == outcome(covers)
        if slack < 0:
            assert verdict == f"sequence total {seq.total} exceeds oracle cap {cap}"
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


CSV_FIELDS = st.one_of(st.none(), st.integers(), st.text(alphabet="ab \r\n,\"", max_size=6))


@given(st.lists(st.lists(CSV_FIELDS, max_size=4), max_size=5))
@example([["a\rb", None], ["\r", "\n"], ['"', ","], [""], [None]])
@settings(max_examples=300)
def test_csv_rows_read_back(rows):
    text = csv_rows(rows)
    assert text.endswith("\n") or not rows
    expected = [["" if field is None else str(field) for field in row] for row in rows]
    assert list(csv.reader(io.StringIO(text, newline=""))) == expected
