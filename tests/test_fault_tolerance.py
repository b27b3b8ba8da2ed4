from __future__ import annotations

import json
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nims
from nims import (
    DefectMap,
    DesignSpec,
    InvalidInput,
    InvalidSequence,
    RangeError,
    Sequence,
    ToleranceRule,
    apply_defects,
    compare_logics,
    design,
    is_complete,
    oracle_gaps,
    reachable_sums,
    tolerance_report,
    validate,
    within_tolerance,
    worst_case_scan,
)
from nims.fault_tolerance import ORACLE_SAMPLES, ScanEntry
from nims.sequence import PROPORTION_PAIRS, UPPER, _fraction_and_zero, _proportion, _tolerance_table

from .conftest import (
    INCAPABLE_MESSAGES,
    any_bits,
    capable_bits,
    fraction_proportion,
    growing_width_sums,
    interval_dp_sums,
    regex_runs,
)


@st.composite
def runs_of_bits(draw):
    """Bits in runs of equal values from a small pool: equal banks, dead bits and pairs with b >= 3a recur."""
    pool = draw(st.lists(st.integers(1, 60), min_size=1, max_size=3))
    pool += [0] + [3 * v + draw(st.integers(0, 4)) for v in pool]
    runs = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 5)), min_size=1, max_size=6))
    return Sequence(tuple(v for v, k in runs for _ in range(k)))

NIMS1_TOLERANCES = (0, 0, 1, 1, 1, 2, 4, 6, 303, 5333, 5333, 5333, 5333, None)
NIMS2_TOLERANCES = (0, 0, 2, 4, 6, 6, 12, 378, 5866, 5866, 5866, 5866, 5866, None)
MEASURED_BITS = (
    2, 6, 18, 54, 162, 480, 1434, 3574,
    5759, 5760, 5760, 5760, 5760, 5760, 5759,
    5760, 5760, 5760, 5760, 5760, 5760, 5760, 5730,
)
MEASURED_TOLERANCES = (
    0, 0, 0, 0, 2, 2, 242, 1654,
    3839, 3840, 3840, 3840, 3840, 3840, 3839,
    3840, 3840, 3840, 3840, 3840, 3840, 3850, None,
)


@st.composite
def device_defect_maps(draw) -> dict[int, int]:
    """Defects on one to three bits of the measured device, as the certify benchmark draws them.

    Each count is within the bit's tolerance, which keeps the set one run,
    just past it, which breaks the walk, or anywhere up to the whole bit.
    """
    missing = {}
    for n in draw(st.sets(st.integers(0, len(MEASURED_BITS) - 1), min_size=1, max_size=3)):
        bit, tolerance = MEASURED_BITS[n], MEASURED_TOLERANCES[n]
        if tolerance is None:
            tolerance = bit - 1
        counts = [st.integers(1, bit)]
        if tolerance:
            counts.append(st.integers(1, tolerance))
        if tolerance < bit:
            counts.append(st.integers(tolerance + 1, min(bit, tolerance + 51)))
        missing[n] = draw(st.one_of(counts))
    return missing


class TestToleranceReport:
    def test_first_column(self, nims1):
        assert tuple(e.tolerance for e in tolerance_report(nims1).entries) == NIMS1_TOLERANCES

    def test_second_column(self, nims2):
        assert tuple(e.tolerance for e in tolerance_report(nims2).entries) == NIMS2_TOLERANCES

    def test_second_column_published_value_unreproduced(self, nims2):
        # the published fault-tolerance column lists 20 for the eighth bit;
        # the removable-junction count that keeps the chain is 3312 - 2934
        t7 = tolerance_report(nims2).entries[7].tolerance
        assert t7 == 378
        assert t7 != 20

    def test_device_column(self, measured):
        assert measured.bits == MEASURED_BITS
        assert tuple(e.tolerance for e in tolerance_report(measured).entries) == MEASURED_TOLERANCES

    def test_proportions_exact(self, nims1):
        entries = tolerance_report(nims1).entries
        assert entries[2].proportion == Fraction(2, 9)
        assert entries[0].proportion == Fraction(1, 3)
        assert entries[-1].proportion is None

    @given(any_bits(max_len=10, max_bit=400))
    @settings(max_examples=300)
    def test_kernel_matches_report_and_closed_form(self, seq):
        # the table is built on a fresh object, so the report builds its own
        bits = seq.bits
        tolerances = _tolerance_table(Sequence(bits))
        entries = tolerance_report(seq).entries
        assert tolerances == tuple(e.tolerance for e in entries)
        assert tolerances[-1] is None and entries[-1].proportion is None and entries[-1].last_bit
        for n, (a, b) in enumerate(zip(bits, bits[1:])):
            assert tolerances[n] == max(0, a - math.ceil(Fraction(b, 3)))
            assert entries[n].proportion == fraction_proportion(a, b)
            assert not entries[n].last_bit

    @given(runs_of_bits())
    @settings(max_examples=300)
    def test_repeated_pairs_match_the_fraction_formula(self, seq):
        bits = seq.bits
        entries = tolerance_report(seq).entries
        shared = {}
        for n, (a, b) in enumerate(zip(bits, bits[1:])):
            proportion = entries[n].proportion
            assert type(proportion) is Fraction and proportion == fraction_proportion(a, b)
            # equal pairs within one report hold one Fraction
            assert shared.setdefault((a, b), proportion) is proportion

    def test_one_fraction_per_distinct_proportion(self, monkeypatch):
        spec = DesignSpec(a0=2, msb_size=5760, target_total=92098, min_tolerance=(ToleranceRule(100, 2),))
        seq = design(spec).sequence
        _proportion.cache_clear()
        _fraction_and_zero.cache_clear()
        built, new = [], Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        # every Fraction built while the reports run, however the class is reached
        monkeypatch.setattr(Fraction, "__new__", counting)
        proportions = [e.proportion for e in tolerance_report(seq).entries[:-1]]
        cold = len(built)
        again = [e.proportion for e in tolerance_report(Sequence(seq.bits)).entries[:-1]]
        monkeypatch.undo()
        # 0 for the four clamped chain pairs, 1/81, 1/240, 1/717, two at the trimmed bank, 2/3 for 13 bank pairs
        assert len(proportions) == 22 and len(set(proportions)) == 7
        assert cold == len({id(p) for p in proportions}) == 7
        # a second report, on a fresh object of the same bits, builds none and reads the same seven
        assert len(built) == cold and all(p is q for p, q in zip(proportions, again, strict=True))

    @given(
        st.lists(
            st.integers(0, 40).flatmap(
                lambda a: st.tuples(
                    st.just(a),
                    st.one_of(st.just(a), st.just(0), st.integers(0, 3 * a), st.integers(3 * a, 3 * a + 9)),
                )
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(1, 10**9),
    )
    @settings(max_examples=100)
    def test_the_proportion_cache_keeps_each_pair_and_one_zero(self, pairs, base):
        # equal pairs, pairs with b >= 3a and dead bits, each reported on fresh objects twice
        def proportions():
            return [tolerance_report(Sequence(pair)).entries[0].proportion for pair in pairs]

        first, again = proportions(), proportions()
        zeros = set()
        for (a, b), p, q in zip(pairs, first, again):
            assert type(p) is Fraction and p == fraction_proportion(a, b)
            assert q is p
            if 3 * a <= b:
                zeros.add(id(p))
        # every clamped pair, a dead bit included, is one Fraction(0)
        assert len(zeros) <= 1
        # 300 distinct pairs (n, n + 1) keep the cache within its bound, and the clamped pairs' one 0
        tolerance_report(Sequence(range(base, base + 301)))
        assert _proportion.cache_info().currsize <= PROPORTION_PAIRS
        zero = tolerance_report(Sequence((0, 1))).entries[0].proportion
        assert zeros <= {id(zero)}

    def test_proportion_clamped_at_zero(self):
        entries = tolerance_report(Sequence((1, 3, 9))).entries
        assert entries[0].proportion == 0
        assert entries[1].proportion == 0

    def test_last_bit_reduces_range_only(self):
        entries = tolerance_report(Sequence((1, 3, 8))).entries
        assert entries[-1].last_bit
        assert entries[-1].tolerance is None

    def test_csv_shape(self):
        text = tolerance_report(Sequence((1, 3, 8))).to_csv()
        assert text.splitlines() == [
            "bit,nominal,tolerance,proportion",
            "0,1,0,0",
            "1,3,0,1/9",
            "2,8,,",
        ]

    def test_doc_serializes(self, measured):
        json.dumps(tolerance_report(measured).to_doc())

    @given(capable_bits())
    @settings(max_examples=100)
    def test_tolerance_never_exceeds_bit(self, seq):
        for e in tolerance_report(seq).entries:
            if e.tolerance is not None:
                assert 0 <= e.tolerance < seq.bits[e.index]


class TestDefectMap:
    def test_doc_round_trip(self):
        d = DefectMap({2: 1, 5: 3})
        assert DefectMap.from_doc(d.to_doc()).missing == d.missing

    @pytest.mark.parametrize("doc", [[{"defects": {}}], "defects", {"defects": [1]}, {"missing": {}}])
    def test_from_doc_needs_an_object_with_a_mapping(self, doc):
        with pytest.raises(InvalidInput, match="^defect document must be an object with a 'defects' mapping$"):
            DefectMap.from_doc(doc)

    def test_from_file(self, tmp_path):
        p = tmp_path / "defects.json"
        p.write_text(json.dumps({"defects": {"2": 1}}))
        assert DefectMap.from_file(p).missing == {2: 1}

    def test_missing_is_a_copy_of_the_checked_counts(self):
        dm = DefectMap({1: 1})
        dm.missing[1] = 0.5
        assert dm.missing == {1: 1} and dm == DefectMap({1: 1})
        assert repr(dm) == "DefectMap(missing={1: 1})" and dm.to_doc() == {"defects": {"1": 1}}
        assert apply_defects(Sequence((1, 3, 8)), dm)[0].bits == (1, 2, 8)
        assert pickle.loads(pickle.dumps(dm)) == dm
        with pytest.raises(TypeError):
            hash(dm)

    def test_rejects_negative_count(self):
        with pytest.raises(InvalidInput):
            DefectMap({2: -1})

    def test_rejects_negative_index(self):
        with pytest.raises(InvalidInput):
            DefectMap({-1: 1})

    @pytest.mark.parametrize("missing", [{1: 2, "1": 3}, {"1": 2, "01": 1}, {1: 0, " 1 ": 1}])
    def test_two_keys_naming_one_bit_are_refused(self, missing):
        with pytest.raises(InvalidInput, match="^defect bit 1 is given more than once$"):
            DefectMap(missing)


class TestApplyDefects:
    def test_subtracts(self, nims1):
        defective, report = apply_defects(nims1, DefectMap({2: 1}))
        assert defective.bits[2] == 5
        assert report.complete_capable
        assert within_tolerance(nims1, DefectMap({2: 1}))

    def test_chain_certificate_can_void_while_oracle_stays_complete(self, nims1):
        # one junction past the third bit's tolerance voids the chain
        # certificate, yet every target is still coverable: the chain is
        # sufficient, not necessary
        defective, report = apply_defects(nims1, DefectMap({2: 2}))
        assert defective.bits[2] == 4
        assert not report.complete_capable
        assert not within_tolerance(nims1, DefectMap({2: 2}))
        truncated = Sequence(defective.bits[:9])
        assert is_complete(truncated)

    def test_the_last_bit_keeps_one_junction(self, measured):
        # removing the whole last bit zeroes it, which breaks positivity, so the
        # bound is a_N - 1, as worst_case_scan caps it
        seq = Sequence((1, 3, 8))
        assert not within_tolerance(seq, DefectMap({2: 8}))
        assert within_tolerance(seq, DefectMap({2: 7}))
        assert not apply_defects(seq, DefectMap({2: 8}))[1].complete_capable
        assert not within_tolerance(measured, DefectMap({22: 5730}))
        assert within_tolerance(measured, DefectMap({22: 5729}))

    def test_index_out_of_range(self, nims1):
        with pytest.raises(InvalidInput):
            apply_defects(nims1, DefectMap({14: 1}))

    def test_within_tolerance_rejects_index_beyond_last_bit(self):
        seq = Sequence((1, 3, 8))
        message = "defect bit index 5 beyond last bit 2"
        # bit 1 holds 3 junctions, so it cannot lose 4, nor more than its tolerance of 0;
        # the bad index is refused before any count is read, by both functions
        for missing in ({5: 1}, {1: 3, 5: 1}, {1: 4, 5: 1}):
            for function in (apply_defects, within_tolerance):
                with pytest.raises(InvalidInput) as excinfo:
                    function(seq, DefectMap(missing))
                assert str(excinfo.value) == message

    def test_count_exceeds_bit(self):
        with pytest.raises(InvalidInput):
            apply_defects(Sequence((1, 3, 8)), DefectMap({1: 4}))

    def test_bit_may_be_wiped_to_zero(self):
        defective, report = apply_defects(Sequence((1, 3, 8)), DefectMap({1: 3}))
        assert defective.bits == (1, 0, 8)
        assert not report.complete_capable

    @given(any_bits(), st.data())
    @settings(max_examples=150)
    def test_result_equals_the_checked_sequence(self, seq, data):
        missing = {}
        for idx, bit in enumerate(seq.bits):
            cnt = data.draw(st.integers(0, bit))
            key = data.draw(st.sampled_from([idx, str(idx)]))
            missing[key] = data.draw(st.sampled_from([cnt, str(cnt)]))
        defects = DefectMap(missing)
        expected = Sequence(tuple(b - defects.missing.get(i, 0) for i, b in enumerate(seq.bits)))
        defective, report = apply_defects(seq, defects)
        assert defective == expected and hash(defective) == hash(expected)
        assert all(type(b) is int for b in defective.bits)
        assert report.complete_capable == validate(expected).complete_capable

    @pytest.mark.parametrize("audit", ["apply_defects", "worst_case_scan"])
    def test_builds_no_checked_sequence(self, monkeypatch, measured, audit):
        # a defect map and each sampled scan placement are a checked Sequence's bits less counts within them
        calls = []
        init = Sequence.__init__

        def counting(self, bits):
            calls.append(bits)
            init(self, bits)

        monkeypatch.setattr(Sequence, "__init__", counting)
        if audit == "apply_defects":
            defective, _ = apply_defects(measured, DefectMap({4: 2, 7: 1, 22: 5}))
            assert defective.bits[4] == measured.bits[4] - 2
        else:
            assert worst_case_scan(measured, 100).oracle_checked == 8
        assert calls == []

    @given(capable_bits(max_total=3000), st.data())
    @settings(max_examples=120)
    def test_within_tolerance_defects_keep_capability(self, seq, data):
        entries = tolerance_report(seq).entries
        missing = {}
        for e in entries[:-1]:
            if e.tolerance:
                missing[e.index] = data.draw(st.integers(0, e.tolerance))
        # the last bit may lose all but one junction
        missing[seq.last_index] = data.draw(st.integers(0, seq.bits[-1] - 1))
        missing = {k: v for k, v in missing.items() if v}
        defects = DefectMap(missing)
        assert within_tolerance(seq, defects)
        _, report = apply_defects(seq, defects)
        assert report.complete_capable

    @given(capable_bits(max_total=800, max_len=6), st.data())
    @settings(max_examples=80)
    def test_within_tolerance_defects_keep_oracle_completeness(self, seq, data):
        entries = tolerance_report(seq).entries
        missing = {}
        for e in entries[:-1]:
            if e.tolerance:
                missing[e.index] = data.draw(st.integers(0, e.tolerance))
        missing = {k: v for k, v in missing.items() if v}
        defective, _ = apply_defects(seq, DefectMap(missing))
        assert is_complete(defective)

    @given(capable_bits(max_total=3000))
    @settings(max_examples=120)
    def test_one_past_tolerance_breaks_the_chain(self, seq):
        entries = tolerance_report(seq).entries
        for e in entries[:-1]:
            if e.tolerance is None or e.tolerance + 1 > seq.bits[e.index]:
                continue
            defective, report = apply_defects(seq, DefectMap({e.index: e.tolerance + 1}))
            assert not report.complete_capable
            if defective.bits[e.index] > 0:
                assert any(
                    v.constraint == UPPER and v.index == e.index + 1
                    for v in validate(defective).violations
                )


class TestWorstCaseScan:
    def test_first_two_bits_not_tolerant(self, nims1):
        scan = worst_case_scan(nims1, 1)
        statuses = [e.status for e in scan.entries]
        assert statuses[:2] == ["UNSAFE", "UNSAFE"]
        assert statuses[2:] == ["SAFE"] * 12

    def test_pure_ternary_has_no_slack(self):
        scan = worst_case_scan(Sequence((1, 3, 9, 27, 81)), 1)
        assert [e.status for e in scan.entries] == ["UNSAFE"] * 4 + ["SAFE"]

    def test_device_tolerates_hundred_from_seventh_bit(self, measured):
        scan = worst_case_scan(measured, 100)
        safe = [e.index for e in scan.entries if e.status == "SAFE"]
        assert safe == list(range(6, 23))

    def test_device_scan_validates_only_its_input(self, measured, monkeypatch):
        # the chain gate reads the scanned sequence's report; no sample is validated
        calls = []

        def counting(seq):
            calls.append(seq)
            return validate(seq)

        for module in (nims.sequence, nims.fault_tolerance):
            monkeypatch.setattr(module, "validate", counting)
        scan = worst_case_scan(measured, 100)
        assert len(calls) == 1 and calls[0] is measured
        assert scan.oracle_checked == 8

    def test_budget_zero_everything_safe(self, nims1):
        scan = worst_case_scan(nims1, 0)
        assert all(e.status == "SAFE" for e in scan.entries)

    def test_a_budget_past_the_last_bit_leaves_it_one_junction(self):
        # zeroing the last bit fails positivity, so it is safe only up to a - 1
        assert worst_case_scan(Sequence((1, 3, 8)), 10).entries[-1] == ScanEntry(2, 8, None, 7, "UNSAFE")
        assert worst_case_scan(Sequence((1, 3, 8)), 7).entries[-1] == ScanEntry(2, 8, None, 7, "SAFE")

    def test_cap_equal_to_the_total_is_scanned(self):
        assert worst_case_scan(Sequence((1, 3, 8)), 1, cap=12).budget == 1
        with pytest.raises(RangeError):
            worst_case_scan(Sequence((1, 3, 8)), 1, cap=11)

    def test_sharpness_check_fires_at_the_budget(self):
        # bit 2 of (1, 3, 8, 20) tolerates 1; a table one below that leaves the
        # chain capable one junction past the tolerance, exactly at the budget
        seq = Sequence((1, 3, 8, 20))
        object.__setattr__(seq, "_tolerances", (0, 0, 0, None))
        with pytest.raises(AssertionError, match="^bit 2 survived 1 missing junctions, above its tolerance$"):
            worst_case_scan(seq, 1)

    def test_oracle_cross_check_fires(self):
        # a table that calls bit 0 of (1, 3, 8) safe at 1 leaves (0, 3, 8), which misses 1
        seq = Sequence((1, 3, 8))
        object.__setattr__(seq, "_tolerances", (1, 0, None))
        with pytest.raises(AssertionError, match="^scan certified bit 0 safe at 1 but the oracle found a gap$"):
            worst_case_scan(seq, 1)

    def test_an_incapable_sequence_is_refused(self):
        # a dead bit or an upper-chain jump leaves no chain certificate to scan
        for bits, violations in INCAPABLE_MESSAGES.items():
            for budget in (0, 1, 2, 100):
                with pytest.raises(InvalidSequence) as caught:
                    worst_case_scan(Sequence(bits), budget)
                assert str(caught.value) == "sequence is not completeness capable: " + violations
        with pytest.raises(InvalidSequence, match="^sequence is not completeness capable: bit 0 must hold"):
            worst_case_scan(Sequence((0, 0, 0)), 1)

    @given(any_bits(), st.integers(0, 50))
    @example(Sequence((1, 0, 3)), 2)  # once an AssertionError from the oracle cross-check
    @example(Sequence((0, 0, 0)), 1)  # once safe_up_to -1 on the last bit
    @settings(max_examples=200, deadline=None)
    def test_a_scan_runs_exactly_on_capable_sequences(self, seq, budget):
        try:
            scan = worst_case_scan(seq, budget)
        except InvalidSequence:
            assert not validate(seq).complete_capable
            return
        assert validate(seq).complete_capable
        expected = []
        for n, (a, t) in enumerate(zip(seq.bits, _tolerance_table(seq))):
            max_d = min(budget, a)
            safe = min(max_d, a - 1 if t is None else t)
            expected.append((n, a, t, safe, "SAFE" if safe == max_d else "UNSAFE"))
        assert scan.budget == budget and scan.entries == tuple(expected)
        assert all(0 <= e.safe_up_to <= min(budget, e.nominal) for e in scan.entries)
        assert scan.oracle_checked == min(ORACLE_SAMPLES, sum(e.safe_up_to >= 1 for e in scan.entries))

    def test_rejects_negative_budget(self, nims1):
        with pytest.raises(InvalidInput):
            worst_case_scan(nims1, -1)

    def test_csv_header(self, nims1):
        lines = worst_case_scan(nims1, 1).to_csv().splitlines()
        assert lines[0] == "bit,nominal,tolerance,safe_up_to,status"
        assert len(lines) == 15


class TestOracleGaps:
    def test_gap_positions(self):
        _, gaps = oracle_gaps(Sequence((1, 2, 8)))
        assert gaps == ((-4, -4), (4, 4))

    def test_complete_sequence_has_none(self):
        _, gaps = oracle_gaps(Sequence((1, 2, 6)))
        assert gaps == ()

    @pytest.mark.parametrize("missing", [{}, {1: 3}, {5: 200}, {7: 2000, 8: 3000}, {0: 2, 3: 40}])
    def test_device_maps_match_the_full_window(self, measured, missing):
        defective, _ = apply_defects(measured, DefectMap(missing))
        sums, gaps = oracle_gaps(defective)
        assert gaps == sums.gaps(-sums.span, sums.span)
        assert (not gaps) == is_complete(defective)

    @pytest.mark.parametrize(
        "missing,count",
        [({0: 2}, 7164), ({2: 11}, 214), ({5: 23, 19: 3622}, 2)],
        ids=["dense", "sparse", "two-gaps"],
    )
    def test_certify_maps_match_the_interval_reference(self, measured, missing, count):
        # three defect maps of the certify benchmark: thousands of short gaps
        # crossing bytes of the bitset, a few hundred, and one mirrored pair
        defective, _ = apply_defects(measured, DefectMap(missing))
        sums, gaps = oracle_gaps(defective)
        assert len(gaps) == count
        span = sums.span
        expected, below = [], -span
        for lo, hi in interval_dp_sums(defective.bits, max(defective.bits[0] - 1, 0)):
            if lo > below and below <= span:
                expected.append((below, min(lo - 1, span)))
            below = max(below, hi + 1)
        if below <= span:
            expected.append((below, span))
        assert list(gaps) == expected

    @given(device_defect_maps())
    @example({0: 2})  # 7,164 gaps
    @example({5: 23, 19: 3622})  # two gaps, in the top 2% of the span
    @example({2: 18, 5: 2})  # gaps from near sum 1: almost nothing to skip
    @example({17: 1840})  # splits the 5,760-junction banks
    @settings(max_examples=100, deadline=None)
    def test_device_maps_match_the_in_order_references(self, measured, missing):
        # the mask against the bitset grown one bit at a time in layout order,
        # and the gaps against the complement of [-span, span] read by a regex
        defective, _ = apply_defects(measured, DefectMap(missing))
        mask, span, radius = growing_width_sums(defective.bits, True)
        assert reachable_sums(defective, a0_offset=True).mask == mask
        window = (1 << 2 * span + 1) - 1
        expected = [(lo - span, hi - span) for lo, hi in regex_runs(~(mask >> radius) & window)]
        assert list(oracle_gaps(defective)[1]) == expected

    def test_a_within_tolerance_map_builds_no_mask(self, measured):
        # every bit below the last loses its whole tolerance, and the set stays one run
        defects = DefectMap({n: t for n, t in enumerate(_tolerance_table(measured)[:-1]) if t})
        assert within_tolerance(measured, defects)
        defective, _ = apply_defects(measured, defects)
        sums, gaps = oracle_gaps(defective)
        assert gaps == () and "mask" not in vars(sums)
        reach = sums.span + sums.beta_radius
        assert sums.intervals == ((-reach, reach),) and "mask" not in vars(sums)
        assert sums.mask == (1 << 2 * reach + 1) - 1


class TestWithinTolerance:
    def test_a_sequence_computes_its_tolerances_once(self, measured):
        # a hand-built table, one junction below the rule's at bit 6, is read and never rebuilt
        seq = Sequence(measured.bits)
        table = (*MEASURED_TOLERANCES[:6], 241, *MEASURED_TOLERANCES[7:])
        object.__setattr__(seq, "_tolerances", table)
        within, past = DefectMap({6: 241, 22: 5}), DefectMap({6: 242})
        assert all(within_tolerance(seq, within) for _ in range(50))
        assert not any(within_tolerance(seq, past) for _ in range(50))
        assert seq._tolerances is table

    def test_every_reader_reads_the_one_table(self, measured):
        # a Sequence whose _tolerances slot records each store and each read
        stores, reads = [], []
        slot = Sequence._tolerances

        class Recorded(Sequence):
            __slots__ = ()

            @property
            def _tolerances(self):
                reads.append(slot.__get__(self))
                return reads[-1]

            @_tolerances.setter
            def _tolerances(self, table):
                stores.append(table)
                slot.__set__(self, table)

        seq = Recorded(measured.bits)
        assert within_tolerance(seq, DefectMap({6: 242}))
        scan = worst_case_scan(seq, 3)
        report = tolerance_report(seq)
        column = compare_logics(len(seq), 5760, [("device", seq)]).candidates[0]
        assert stores == [MEASURED_TOLERANCES]
        assert len(reads) == 3 and all(table is stores[0] for table in reads) and column.tolerances is stores[0]
        assert tuple(e.tolerance for e in scan.entries) == tuple(e.tolerance for e in report.entries) == stores[0]
