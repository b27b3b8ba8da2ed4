from __future__ import annotations

import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nims.designer
from nims import (
    DesignSpec,
    Infeasible,
    InvalidInput,
    RangeError,
    Sequence,
    ToleranceRule,
    compare_logics,
    design,
    standard_column,
    tolerance_report,
    validate,
)

from .conftest import (
    INCAPABLE_MESSAGES,
    NIMS1_BITS,
    TERNARY14_BITS,
    capable_bits,
    fraction_chain,
    fraction_column,
    three_clause_leads,
)

LIMIT = nims.designer.MAX_LAYOUT_BITS


class TestDesignSpec:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            DesignSpec(a0=0, msb_size=10, target_total=100)
        with pytest.raises(InvalidInput):
            DesignSpec(a0=1, msb_size=2, target_total=100)
        with pytest.raises(InvalidInput):
            DesignSpec(a0=1, msb_size=10, target_total=9)
        with pytest.raises(InvalidInput):
            DesignSpec(a0=1, msb_size=10, target_total=100, max_ratio=Fraction(4))

    def test_doc_round_trip(self):
        doc = {
            "a0": 2,
            "msb_size": 5760,
            "target_total": 92098,
            "min_tolerance": [{"at_least": 100, "tolerance": 2}],
            "max_ratio": "3",
        }
        spec = DesignSpec.from_doc(doc)
        assert spec.a0 == 2
        assert spec.min_tolerance == (ToleranceRule(100, 2),)
        assert spec.max_ratio == Fraction(3)

    def test_doc_takes_integer_strings(self):
        doc = {"a0": "2", "msb_size": "5760", "target_total": "92098",
               "min_tolerance": [{"at_least": "100", "tolerance": "2"}]}
        spec = DesignSpec.from_doc(doc)
        assert (spec.a0, spec.msb_size, spec.target_total) == (2, 5760, 92098)
        assert spec.min_tolerance == (ToleranceRule(100, 2),)

    @pytest.mark.parametrize(
        "change",
        [{"a0": 2.0}, {"a0": True}, {"msb_size": 5760.7}, {"target_total": None},
         {"min_tolerance": [{"at_least": 100.5, "tolerance": 2}]},
         {"min_tolerance": [{"at_least": 100, "tolerance": True}]}],
    )
    def test_doc_rejects_non_integers(self, change):
        doc = {"a0": 2, "msb_size": 5760, "target_total": 92098, **change}
        with pytest.raises(InvalidInput, match="must be an integer"):
            DesignSpec.from_doc(doc)

    @pytest.mark.parametrize(
        "doc",
        [{"a0": 2, "msb_size": 5760}, {"a0": 2, "msb_size": 5760, "target_total": 92098, "min_tolerance": 5},
         {"a0": 2, "msb_size": 5760, "target_total": 92098, "min_tolerance": [{"at_least": 100}]}],
    )
    def test_doc_missing_or_misshapen_fields(self, doc):
        with pytest.raises(InvalidInput, match="bad design spec document"):
            DesignSpec.from_doc(doc)

    @pytest.mark.parametrize("ratio", ["0/0", "abc", float("inf"), float("nan"), None, [2]])
    def test_bad_max_ratio(self, ratio):
        with pytest.raises(InvalidInput, match="bad max ratio"):
            DesignSpec(a0=2, msb_size=5760, target_total=92098, max_ratio=ratio)

    def test_max_ratio_text(self):
        assert DesignSpec(a0=1, msb_size=64, target_total=300, max_ratio="5/2").max_ratio == Fraction(5, 2)

    @pytest.mark.parametrize("text", ["2.5", "25e-1", "3", "3e0", "30e-1", "1.000001"])
    def test_max_ratio_decimal_text(self, text):
        assert DesignSpec(a0=1, msb_size=64, target_total=300, max_ratio=text).max_ratio == Fraction(text)

    @pytest.mark.parametrize("text", ["4", "10", "1e1", "0.5", "0e5", "-2.5"])
    def test_max_ratio_decimal_text_out_of_range(self, text):
        with pytest.raises(InvalidInput, match=r"max_ratio must lie in \(1, 3\]"):
            DesignSpec(a0=1, msb_size=64, target_total=300, max_ratio=text)

    @pytest.mark.parametrize("text", ["nan", "Infinity", "-inf"])
    def test_max_ratio_non_finite_text(self, text):
        with pytest.raises(InvalidInput, match=f"bad max ratio '{text}'"):
            DesignSpec(a0=1, msb_size=64, target_total=300, max_ratio=text)

    def test_from_file(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"a0": 1, "msb_size": 3, "target_total": 6}))
        assert design(DesignSpec.from_file(p)).sequence.bits == (1, 2, 3)

    def test_required_tolerance(self):
        spec = DesignSpec(
            a0=1,
            msb_size=100,
            target_total=1000,
            min_tolerance=(ToleranceRule(10, 1), ToleranceRule(100, 5)),
        )
        assert spec.required_tolerance(5) == 0
        assert spec.required_tolerance(10) == 1
        assert spec.required_tolerance(100) == 5

    @given(
        rules=st.lists(st.tuples(st.integers(1, 200), st.integers(0, 10)), max_size=4),
        sizes=st.lists(st.integers(0, 250), min_size=1, max_size=10),
    )
    @settings(max_examples=200)
    def test_required_tolerance_matches_the_max_over_the_rules(self, rules, sizes):
        spec = DesignSpec(a0=1, msb_size=3, target_total=3, min_tolerance=[ToleranceRule(*r) for r in rules])
        for size in sizes:
            expected = max((r.tolerance for r in spec.min_tolerance if size >= r.at_least), default=0)
            assert spec.required_tolerance(size) == expected

    def test_a_fraction_max_ratio_is_kept_as_it_is(self):
        ratio = Fraction(5, 2)
        assert DesignSpec(a0=1, msb_size=9, target_total=9, max_ratio=ratio).max_ratio is ratio

        class Ratio(Fraction):
            pass

        for given_ratio in (Ratio(5, 2), "5/2", 2.5):
            kept = DesignSpec(a0=1, msb_size=9, target_total=9, max_ratio=given_ratio).max_ratio
            assert type(kept) is Fraction and kept == ratio

    def test_the_rules_are_a_tuple_of_tolerance_rules(self):
        rules = [ToleranceRule(10, 1), ToleranceRule(100, 5)]
        spec = DesignSpec(a0=1, msb_size=9, target_total=9, min_tolerance=iter(rules))
        assert spec.min_tolerance == tuple(rules)


class TestToleranceRule:
    def test_from_text(self):
        assert ToleranceRule.from_text("100:2") == ToleranceRule(100, 2)
        assert ToleranceRule.from_text(" 100 : 2 ") == ToleranceRule(100, 2)

    @pytest.mark.parametrize(
        "text, message",
        [("100", "must be AT_LEAST:TOLERANCE"), ("x:2", "at_least must be an integer"),
         ("100:2:3", "tolerance must be an integer"), ("100:2.5", "tolerance must be an integer"),
         ("0:2", "needs at_least >= 1"), ("100:-1", "needs at_least >= 1 and tolerance >= 0")],
    )
    def test_from_text_rejects(self, text, message):
        with pytest.raises(InvalidInput, match=message):
            ToleranceRule.from_text(text)


class TestDesign:
    def test_minimal(self):
        r = design(DesignSpec(a0=1, msb_size=3, target_total=6))
        assert r.sequence.bits == (1, 2, 3)
        assert r.metadata["total"] == 6

    def test_device_scale(self):
        spec = DesignSpec(
            a0=2,
            msb_size=5760,
            target_total=92098,
            min_tolerance=(ToleranceRule(100, 2),),
        )
        r = design(spec)
        assert r.sequence.bits == (
            2, 6, 18, 54, 162, 480, 1434, 4296, 5006,
            5760, 5760, 5760, 5760, 5760, 5760, 5760,
            5760, 5760, 5760, 5760, 5760, 5760, 5760,
        )
        assert r.metadata["full_banks"] == 14
        assert r.metadata["trimmed_bank"] == 5006
        assert r.metadata["lsb_chain_bits"] == 8
        assert r.sequence.total == 92098
        assert validate(r.sequence).complete_capable

    def test_device_scale_chain_matches_measured_head(self, measured):
        spec = DesignSpec(
            a0=2,
            msb_size=5760,
            target_total=92098,
            min_tolerance=(ToleranceRule(100, 2),),
        )
        # graduated head agrees with the fabricated device through bit 6
        assert design(spec).sequence.bits[:7] == measured.bits[:7]

    def test_ternary_head_when_unconstrained(self):
        r = design(DesignSpec(a0=1, msb_size=8000, target_total=46033))
        assert r.sequence.bits == (
            1, 3, 9, 27, 81, 243, 729, 2187, 6561, 4192, 8000, 8000, 8000, 8000,
        )
        assert r.sequence.total == 46033

    def test_max_ratio_two_gives_doubling_head(self):
        r = design(DesignSpec(a0=1, msb_size=64, target_total=300, max_ratio=Fraction(2)))
        assert r.sequence.bits[:6] == (1, 2, 4, 8, 16, 32)
        assert r.sequence.total == 300

    def test_deterministic(self):
        spec = DesignSpec(a0=2, msb_size=5760, target_total=92098)
        assert design(spec).sequence.bits == design(spec).sequence.bits

    def test_tolerance_rules_hold_on_output(self):
        spec = DesignSpec(
            a0=2,
            msb_size=5760,
            target_total=92098,
            min_tolerance=(ToleranceRule(100, 2),),
        )
        r = design(spec)
        for e in tolerance_report(r.sequence).entries[:-1]:
            if e.nominal >= 100:
                assert e.tolerance >= 2

    def test_metadata_constants(self):
        meta = design(DesignSpec(a0=1, msb_size=3, target_total=6)).metadata
        assert meta["branches"] == 16
        assert meta["symmetric_halves"] is True
        assert meta["symmetric_subtraction"] is True

    def test_infeasible_when_chain_overshoots(self):
        with pytest.raises(Infeasible):
            design(DesignSpec(a0=1, msb_size=8000, target_total=8000))

    def test_post_check_names_the_violations(self, monkeypatch):
        # the construction never yields an incapable layout, so substitute one
        for bits, violations in INCAPABLE_MESSAGES.items():
            monkeypatch.setattr(nims.designer, "Sequence", lambda _, bits=bits: Sequence(bits))
            with pytest.raises(Infeasible) as excinfo:
                design(DesignSpec(a0=1, msb_size=3, target_total=6))
            assert str(excinfo.value) == "constructed layout is not completeness capable: " + violations

    def test_post_check_names_a_bit_below_its_tolerance(self, monkeypatch):
        # design lays out (1, 3, 6, 9, 3) for this spec; substitute a capable layout of
        # the same total whose second bit of 4, the one before the last, tolerates 0
        # where the rule asks for 1 (the first tolerates 2)
        spec = DesignSpec(a0=1, msb_size=9, target_total=22, min_tolerance=(ToleranceRule(3, 1),))
        monkeypatch.setattr(nims.designer, "Sequence", lambda _: Sequence((1, 2, 4, 4, 11)))
        with pytest.raises(Infeasible, match=r"^bit 3 \(size 4\) tolerates 0, needs 1$"):
            design(spec)

    def test_the_post_check_table_stays_on_the_designed_sequence(self, monkeypatch):
        # design, tolerance_report and compare_logics share one tolerance table: a
        # hand-built one, 9 for every bit below the last where the rule gives 0 to
        # 3840, is stored in the slot of the sequence design builds, and all three read it
        spec = DesignSpec(a0=2, msb_size=5760, target_total=92098, min_tolerance=(ToleranceRule(100, 2),))
        planted, table = Sequence(design(spec).sequence.bits), (9,) * 22 + (None,)
        object.__setattr__(planted, "_tolerances", table)
        monkeypatch.setattr(nims.designer, "Sequence", lambda _: planted)
        seq = design(spec).sequence
        monkeypatch.undo()  # compare_logics checks its candidates against the Sequence class itself
        report = tolerance_report(seq)
        column = compare_logics(len(seq), 5760, [("designed", seq)]).candidates[0]
        assert seq is planted and seq._tolerances is table and column.tolerances is table
        assert tuple(e.tolerance for e in report.entries) == table

    @given(
        a0=st.integers(1, 3),
        msb_scale=st.integers(1, 400),
        banks=st.integers(0, 12),
        extra=st.integers(0, 50),
        rules=st.lists(st.tuples(st.integers(1, 1200), st.integers(0, 4)), max_size=2),
        ratio=st.one_of(
            st.sampled_from(["3", "5/2", "2", 2.5, Fraction(7, 3)]),
            st.fractions(min_value=1, max_value=3, max_denominator=60).filter(lambda r: r > 1),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_the_chain_matches_the_fraction_ratio_cap(self, a0, msb_scale, banks, extra, rules, ratio):
        msb = 3 * a0 * msb_scale
        spec = DesignSpec(a0, msb, msb * (banks + 1) + extra, tuple(ToleranceRule(*r) for r in rules), ratio)
        chain = fraction_chain(spec)
        try:
            result = design(spec)
        except Infeasible as exc:
            assert (chain is None) == str(exc).startswith("tolerance/ratio constraints stall the chain")
            return
        assert chain is not None
        assert result.sequence.bits[: len(chain)] == chain and result.metadata["lsb_chain_bits"] == len(chain)

    @given(
        a0=st.integers(1, 3),
        msb_scale=st.integers(1, 300),
        banks=st.integers(0, 3),
        trim_share=st.fractions(0, 1, max_denominator=60),
        past_a_third=st.one_of(st.none(), st.integers(-3, 90)),
        # at_least above twice the tolerance: no rule stalls the chain, and every layout is feasible
        rules=st.lists(
            st.tuples(st.integers(0, 80), st.integers(1, 900)).map(lambda r: (2 * r[0] + r[1], r[0])), max_size=2
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_the_trimmed_bank_leads_where_the_three_clause_test_says(
        self, a0, msb_scale, banks, trim_share, past_a_third, rules
    ):
        # the trim is drawn as a share of the bank, or a few junctions either side of a third of it
        msb = 3 * a0 * msb_scale
        trim = int(trim_share * msb) if past_a_third is None else max(0, msb // 3 + past_a_third)
        trim = min(msb - 1, trim)
        spec = DesignSpec(a0, msb, msb, tuple(ToleranceRule(*r) for r in rules))
        chain = fraction_chain(spec)
        total = sum(chain) + banks * msb + trim
        if total < msb:
            return
        bits = design(DesignSpec(a0, msb, total, spec.min_tolerance)).sequence.bits
        if trim:
            leads = banks > 0 and bits[len(chain)] == trim
            assert leads == three_clause_leads(spec, banks, trim)

    def test_infeasible_when_tolerance_stalls_growth(self):
        with pytest.raises(Infeasible):
            design(
                DesignSpec(
                    a0=1,
                    msb_size=8000,
                    target_total=46033,
                    min_tolerance=(ToleranceRule(1, 5),),
                )
            )

    @given(
        st.integers(1, 3),
        st.integers(2, 40),
        st.integers(1, 60),
        st.integers(0, 3),
    )
    @settings(max_examples=150)
    def test_output_contract(self, a0, msb_scale, extra, tol):
        msb = 3 * a0 * msb_scale
        total = msb * 3 + extra
        spec = DesignSpec(
            a0=a0,
            msb_size=msb,
            target_total=total,
            min_tolerance=(ToleranceRule(msb, tol),) if tol else (),
        )
        try:
            r = design(spec)
        except Infeasible:
            return
        assert r.sequence.total == total
        report = validate(r.sequence)
        assert report.complete_capable
        entries = tolerance_report(r.sequence).entries
        for e in entries[:-1]:
            assert e.tolerance >= spec.required_tolerance(e.nominal)


# candidates with a dead bit, each with the chain rules it breaks, as compare_logics names them
ZERO_BIT_VIOLATIONS = {
    (0,): "bit 0 must hold at least one junction, got 0",
    (0, 1): "bit 0 must hold at least one junction, got 0; bit 1 is 1, above three times bit 0 (0)",
    (1, 0): "bit 1 must hold at least one junction, got 0",
    (1, 3, 0): "bit 2 must hold at least one junction, got 0",
    (2, 0, 0): "bit 1 must hold at least one junction, got 0; bit 2 must hold at least one junction, got 0",
}


class TestCompare:
    def test_standard_columns(self):
        binary = standard_column("binary", 8000, 14)
        ternary = standard_column("ternary", 8000, 14)
        assert binary.bits[:5] == (1, 2, 4, 8, 16)
        assert binary.bits[-1] == 8000
        assert ternary.bits[:5] == (1, 3, 9, 27, 81)
        assert ternary.bits[9:] == (8000,) * 5

    def test_bits_below_bank(self, nims1):
        table = compare_logics(
            14,
            8000,
            [
                ("binary", standard_column("binary", 8000, 14)),
                ("ternary", standard_column("ternary", 8000, 14)),
                ("nims1", nims1),
            ],
        )
        by_name = {c.name: c for c in table.candidates}
        assert by_name["binary"].bits_to_msb == 13
        assert by_name["ternary"].bits_to_msb == 9
        assert by_name["nims1"].bits_to_msb == 9

    def test_efficiencies(self, nims1):
        table = compare_logics(
            14,
            8000,
            [
                ("ternary", standard_column("ternary", 8000, 14)),
                ("nims1", nims1),
            ],
        )
        by_name = {c.name: c for c in table.candidates}
        assert by_name["ternary"].min_efficiency == Fraction(3)
        assert by_name["ternary"].mean_efficiency == Fraction(3)
        assert by_name["nims1"].min_efficiency == Fraction(2)
        assert Fraction(2) < by_name["nims1"].mean_efficiency < Fraction(3)

    def test_csv_matrix(self, nims1):
        table = compare_logics(14, 8000, [("nims1", nims1)])
        lines = table.to_csv().splitlines()
        assert lines[0] == "bit,nims1 junctions,nims1 tolerance"
        assert len(lines) == 15

    def test_doc(self, nims1):
        doc = compare_logics(14, 8000, [("nims1", nims1)]).to_doc()
        json.dumps(doc)
        assert doc["msb_size"] == 8000

    def test_rejects_empty(self):
        with pytest.raises(InvalidInput):
            compare_logics(14, 8000, [])

    def test_rejects_incapable_candidate(self, nims1):
        for bits in INCAPABLE_MESSAGES:
            with pytest.raises(InvalidInput) as excinfo:
                compare_logics(14, 8000, [("nims1", nims1), ("broken", Sequence(bits))])
            assert str(excinfo.value) == "candidate 'broken' is not completeness capable: " + INCAPABLE_MESSAGES[bits]

    @pytest.mark.parametrize("bits", list(ZERO_BIT_VIOLATIONS))
    def test_rejects_a_zero_bit(self, bits):
        # every bit sits below the bank size, so a zero would reach the ratios
        with pytest.raises(InvalidInput) as excinfo:
            compare_logics(3, 10**6, [("dead", Sequence(bits))])
        assert str(excinfo.value) == "candidate 'dead' is not completeness capable: " + ZERO_BIT_VIOLATIONS[bits]

    @given(
        seq=st.one_of(capable_bits(), st.sampled_from([NIMS1_BITS, TERNARY14_BITS]).map(Sequence)),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_columns_match_the_fraction_loop(self, seq, data):
        # bank sizes at a bit, between bits, and below or above them all
        msb = data.draw(st.one_of(st.sampled_from(seq.bits), st.integers(1, 3 * max(seq.bits) + 2)))
        column = compare_logics(len(seq), msb, [("drawn", seq)]).candidates[0]
        got = (column.bits_to_msb, column.min_efficiency, column.mean_efficiency)
        assert got == fraction_column(seq, msb)
        assert list(map(str, got)) == list(map(str, fraction_column(seq, msb)))

    def test_a_long_leading_stretch_keeps_the_mean_small(self):
        # 2000 ternary ratios below the bank size: a mean summed over the
        # product of the bits, not their lcm, reaches a denominator of some
        # three million bits here and took tens of seconds
        n = 2000
        seq = standard_column("ternary", 3**n, n + 1)
        start = time.perf_counter()
        column = compare_logics(n + 1, 3**n, [("ternary", seq)]).candidates[0]
        elapsed = time.perf_counter() - start
        assert (column.bits_to_msb, column.min_efficiency, column.mean_efficiency) == fraction_column(seq, 3**n)
        assert elapsed < 2.0

    def test_standard_column_rejects_unknown(self):
        with pytest.raises(InvalidInput):
            standard_column("octal", 8000, 14)

    @given(
        kind=st.sampled_from(sorted(nims.designer.STANDARD_RATIOS)),
        msb=st.one_of(st.integers(1, 10**6), st.integers(1, 10**6).map(str)),
        length=st.integers(1, 60),
    )
    @settings(max_examples=200)
    def test_standard_column_equals_the_checked_constructor(self, kind, msb, length):
        # bit n is ratio**n while that stays below the bank size, and the bank size after
        ratio, size = nims.designer.STANDARD_RATIOS[kind], int(msb)
        expected = tuple(ratio**n if n == 0 or ratio**n < size else size for n in range(length))
        column = standard_column(kind, msb, length)
        assert column == Sequence(expected) and column.bits == expected
        assert all(type(b) is int for b in column.bits)
        assert column._report is None


class TestLayoutLimit:
    REFUSED = f"layout of {LIMIT + 1} bits exceeds the limit of {LIMIT}"

    def test_design(self):
        # a0 = 1 and banks of 3: the chain is one bit, then one bank per 3 junctions
        assert len(design(DesignSpec(a0=1, msb_size=3, target_total=1 + 3 * (LIMIT - 1))).sequence) == LIMIT
        with pytest.raises(RangeError, match=f"^{self.REFUSED}$"):
            design(DesignSpec(a0=1, msb_size=3, target_total=2 + 3 * (LIMIT - 1)))

    def test_standard_column(self):
        assert len(standard_column("binary", 8000, LIMIT)) == LIMIT
        with pytest.raises(RangeError, match=f"^{self.REFUSED}$"):
            standard_column("binary", 8000, LIMIT + 1)

    def test_compare_logics(self, nims1):
        assert compare_logics(LIMIT, 8000, [("nims1", nims1)]).lsb_count == LIMIT
        with pytest.raises(RangeError, match=f"^{self.REFUSED}$"):
            compare_logics(LIMIT + 1, 8000, [("nims1", nims1)])
