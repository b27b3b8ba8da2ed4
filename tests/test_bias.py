from __future__ import annotations

import json
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nims.representation
import nims.sequence
from nims import (
    DegenerateTarget,
    InvalidInput,
    InvalidSequence,
    JOSEPHSON_HZ_PER_VOLT,
    OutOfRange,
    RangeError,
    Sequence,
    max_voltage,
    plan,
    represent,
    resolution,
)
from nims.bias import ELEMENTARY_CHARGE_C, FIXED_KEYS, PLANCK_JS, _round_half_away, fixed_decimal

from .conftest import INCAPABLE_MESSAGES, NIMS1_BITS, capable_bits, fraction_round_half_away


class TestConstants:
    def test_josephson_constant_from_si_definitions(self):
        assert JOSEPHSON_HZ_PER_VOLT == 2 * ELEMENTARY_CHARGE_C / PLANCK_JS
        assert JOSEPHSON_HZ_PER_VOLT == pytest.approx(483597.848416984e9, abs=1.0)


class TestMaxVoltageAndResolution:
    def test_device_headroom(self, measured):
        v = max_voltage(measured, 18.01e9)
        assert abs(v - 3.4299) <= 1e-4

    def test_resolution_scales_with_first_bit(self, measured, nims1):
        assert resolution(measured, 18.01e9) == pytest.approx(7.4483e-05, rel=1e-4)
        assert resolution(nims1, 18.01e9) == pytest.approx(3.7242e-05, rel=1e-4)
        assert resolution(measured, 18.01e9) == pytest.approx(
            2 * resolution(nims1, 18.01e9), rel=1e-12
        )

    def test_rejects_nonpositive_frequency(self, measured):
        with pytest.raises(InvalidInput):
            max_voltage(measured, 0.0)
        with pytest.raises(InvalidInput):
            resolution(measured, -1.0)
        for freq in (math.inf, math.nan):
            with pytest.raises(InvalidInput):
                max_voltage(measured, freq)
            with pytest.raises(InvalidInput):
                resolution(measured, freq)

    def test_beyond_float_range_is_a_range_error(self):
        beyond = Sequence((10**400,))
        with pytest.raises(RangeError, match="^sequence total exceeds the largest float"):
            max_voltage(beyond, 1e10)
        with pytest.raises(RangeError, match="^first bit exceeds the largest float"):
            resolution(beyond, 1e10)
        within = Sequence((10**300,))
        assert max_voltage(within, 1.0) == 10**300 * 1.0 / JOSEPHSON_HZ_PER_VOLT
        assert resolution(within, 1.0) == 10**300 * 1.0 / JOSEPHSON_HZ_PER_VOLT

    def test_a_voltage_beyond_float_range_is_a_range_error(self):
        # 10**300 is a float, but 10**300 * 1e10 Hz is not: the voltage would be inf
        within = Sequence((10**300,))
        with pytest.raises(RangeError, match="^sequence total times the drive frequency exceeds the largest float"):
            max_voltage(within, 1e10)
        with pytest.raises(RangeError, match="^first bit times the drive frequency exceeds the largest float"):
            resolution(within, 1e10)
        # at 1e8 Hz the product, 1e308, is still a float and keeps its value
        assert max_voltage(within, 1e8) == 10**300 * 1e8 / JOSEPHSON_HZ_PER_VOLT
        assert resolution(within, 1e8) == 10**300 * 1e8 / JOSEPHSON_HZ_PER_VOLT


class TestPlan:
    def test_one_volt_point(self, measured):
        p = plan(1.0, 18.01e9, measured)
        assert p.m_target == 26852
        assert p.representation.beta == -1
        assert p.representation.expressed_m == 26853
        assert p.adjusted_frequency_hz == pytest.approx(18009080863.105934, rel=1e-12)
        assert p.in_band
        assert p.achieved_voltage == pytest.approx(1.0, rel=1e-12)

    def test_zero_voltage(self, measured):
        p = plan(0.0, 18.01e9, measured)
        assert p.m_target == 0
        assert set(p.representation.signs) == {0}
        assert p.adjusted_frequency_hz == 18.01e9
        assert p.achieved_voltage == 0.0
        assert p.in_band

    def test_negative_voltage_mirrors(self, measured):
        pos = plan(2.5, 18.01e9, measured)
        neg = plan(-2.5, 18.01e9, measured)
        assert neg.m_target == -pos.m_target
        assert neg.representation.signs == tuple(-s for s in pos.representation.signs)
        assert neg.adjusted_frequency_hz == pytest.approx(
            pos.adjusted_frequency_hz, rel=1e-12
        )
        assert neg.achieved_voltage == pytest.approx(-2.5, rel=1e-12)

    def test_degenerate_target(self, measured):
        with pytest.raises(DegenerateTarget):
            plan(1e-6, 18.01e9, measured)

    def test_out_of_range(self, measured):
        with pytest.raises(OutOfRange):
            plan(3.6, 18.01e9, measured)

    def test_band_edges(self, measured):
        inside = plan(1.0, 18.01e9, measured, (17.9e9, 18.1e9))
        assert inside.in_band
        narrow = plan(1.0, 18.01e9, measured, (18.0099e9, 18.0101e9))
        assert not narrow.in_band

    def test_band_validation(self, measured):
        with pytest.raises(InvalidInput):
            plan(1.0, 18.01e9, measured, (19e9, 20e9))
        with pytest.raises(InvalidInput):
            plan(1.0, 18.01e9, measured, (18.1e9, 17.9e9))

    @pytest.mark.parametrize(
        "volts, freq",
        [(math.nan, 18.01e9), (math.inf, 18.01e9), (-math.inf, 18.01e9), (1.0, math.nan), (1.0, math.inf)],
    )
    def test_rejects_non_finite_values(self, measured, volts, freq):
        with pytest.raises(InvalidInput, match="must be finite"):
            plan(volts, freq, measured)

    def test_rejects_non_finite_band(self, measured):
        with pytest.raises(InvalidInput, match="must be finite"):
            plan(1.0, 18.01e9, measured, (17.9e9, math.inf))

    def test_incapable_sequence(self):
        # alike on every call: a refusal leaves no table on the sequence
        for bits, violations in INCAPABLE_MESSAGES.items():
            seq = Sequence(bits)
            for volts in (0.1, 0.0, 0.1):
                with pytest.raises(InvalidSequence) as excinfo:
                    plan(volts, 18.01e9, seq)
                assert str(excinfo.value) == "sequence is not completeness capable: " + violations

    @pytest.mark.parametrize("volts", [1.0, 0.0])
    def test_validates_zero_times_on_a_capable_sequence(self, measured, monkeypatch, volts):
        calls = []
        violations = nims.sequence._violations

        def counting(bits):
            calls.append(bits)
            return violations(bits)

        monkeypatch.setattr(nims.sequence, "_violations", counting)
        plan(volts, 18.01e9, measured)
        assert calls == []
        # a refusal words the violations once, in its message
        incapable = Sequence((1, 2, 7))
        with pytest.raises(InvalidSequence):
            plan(volts, 18.01e9, incapable)
        assert calls == [(1, 2, 7)]

    def test_builds_the_table_once_per_sequence(self, monkeypatch):
        calls = {"_chain_capable": 0, "prefix_sums": 0}

        def counting(name, fn):
            def wrapper(arg):
                calls[name] += 1
                return fn(arg)

            return wrapper

        for name in calls:
            monkeypatch.setattr(nims.representation, name, counting(name, getattr(nims.representation, name)))
        seq = Sequence(NIMS1_BITS)
        for k in range(100):
            plan(0.01 * k, 18.01e9, seq)
        assert calls == {"_chain_capable": 1, "prefix_sums": 1}

    @given(st.floats(min_value=0.001, max_value=3.42, allow_nan=False))
    @settings(max_examples=300)
    def test_round_trip_and_shift_bound(self, measured, volts):
        p = plan(volts, 18.01e9, measured)
        assert abs(p.achieved_voltage - volts) / volts <= 1e-12
        beta = abs(p.representation.beta)
        expressed = abs(p.representation.expressed_m)
        assert p.frequency_shift <= (0.5 + beta) / expressed + 1e-12

    def test_headroom_beyond_float_range(self):
        seq = Sequence((10**400,))
        for _ in range(2):
            with pytest.raises(RangeError) as excinfo:
                plan(1.0, 1e10, seq)
            assert str(excinfo.value) == "headroom exceeds the largest float, 1.798e+308"


class TestPlanRunsTheGreedy:
    """plan runs the greedy kernel on the table it reads; its digits are represent's, its refusals alike."""

    @given(capable_bits(max_total=3000), st.data())
    @settings(max_examples=300)
    def test_digits_are_represents(self, seq, data):
        bound = seq.total + seq.bits[0] - 1
        # a multiple within the bound, off the integers by less than a half
        m = min(max(data.draw(st.integers(-bound, bound)) + data.draw(st.floats(-0.49, 0.49)), -bound), bound)
        volts = m * 1.8e10 / JOSEPHSON_HZ_PER_VOLT
        fresh = Sequence(seq.bits)  # represent builds this one's table, plan the other's
        try:
            p = plan(volts, 1.8e10, seq)
        except DegenerateTarget:
            assert represent(_round_half_away(volts * JOSEPHSON_HZ_PER_VOLT / 1.8e10), fresh).expressed_m == 0
        else:
            assert p.representation == represent(p.m_target, fresh)
            assert p.representation == represent(p.m_target, seq)


class TestErrorOrder:
    """A capable sequence whose total passes TOTAL_LIMIT: headroom first, then the limit, on every call."""

    OVER_LIMIT = "sequence total exceeds 4611686018427387904"

    def test_headroom_then_limit_on_every_call(self):
        seq = Sequence((2**62, 2**62))
        for _ in range(2):
            with pytest.raises(OutOfRange):
                plan(1e15, 1.8e10, seq)
            for volts in (1.0, 0.0):
                with pytest.raises(RangeError) as excinfo:
                    plan(volts, 1.8e10, seq)
                assert str(excinfo.value) == self.OVER_LIMIT
            with pytest.raises(RangeError) as excinfo:
                represent(0, seq)
            assert str(excinfo.value) == self.OVER_LIMIT

    @pytest.mark.parametrize("volts", [1e15, -1e15, 1e300])
    def test_out_of_range_on_an_over_limit_sequence(self, volts):
        seq = Sequence((2**62, 2**62))
        for _ in range(2):
            with pytest.raises(OutOfRange) as excinfo:
                plan(volts, 1.8e10, seq)
            needs = abs(volts) * JOSEPHSON_HZ_PER_VOLT / 1.8e10
            assert str(excinfo.value) == f"{volts} V needs multiple {needs:.1f}, beyond {2**63 + 2**62 - 1} even at the band top"

    def test_limit_first_on_a_fresh_sequence(self):
        seq = Sequence((2**62, 2**62))
        for _ in range(2):
            with pytest.raises(RangeError) as excinfo:
                represent(0, seq)
            assert str(excinfo.value) == self.OVER_LIMIT
        with pytest.raises(OutOfRange):
            plan(1e15, 1.8e10, seq)


class TestRoundHalfAway:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.49999999999999994)
    @example(-0.49999999999999994)
    @example(2.0**52 + 1)
    @example(-(2.0**52 + 1))
    @example(2.0**53 - 1)
    @example(0.5)
    @example(-2.5)
    @settings(max_examples=300)
    def test_matches_exact_rounding(self, x):
        assert _round_half_away(x) == fraction_round_half_away(x)


class TestSerialization:
    def test_json_fixed_notation(self, measured):
        p = plan(1.0, 18.01e9, measured)
        text = p.to_json()
        doc = json.loads(text)
        assert doc["m"] == 26852
        assert doc["beta"] == -1
        assert '"f": 18010000000.0' in text
        assert '"f_adjusted": 18009080863.105934' in text
        assert doc["f_adjusted"] == pytest.approx(18009080863.105934, rel=1e-12)

    def test_fixed_decimal(self):
        assert fixed_decimal(1.0) == "1.0"
        assert fixed_decimal(18.01e9) == "18010000000.0"
        assert fixed_decimal(7.448337522159869e-05) == "0.00007448337522159869"

    @settings(max_examples=200, deadline=None)
    @given(volts=st.floats(1e-9, 3.0), freq=st.floats(10e9, 25e9))
    @example(volts=1e-9, freq=25e9)
    @example(volts=1.0, freq=18.01e9)
    def test_json_is_the_doc_in_fixed_notation(self, measured, volts, freq):
        try:
            p = plan(volts, freq, measured)
        except (OutOfRange, DegenerateTarget):
            assume(False)
        text = p.to_json()
        assert json.loads(text) == p.to_doc()
        written = json.loads(text, parse_float=str)
        for key in FIXED_KEYS:
            assert "e" not in written[key].lower() and float(written[key]) == p.to_doc()[key]

    def test_doc_fields(self, measured):
        doc = plan(1.0, 18.01e9, measured).to_doc()
        assert sorted(doc) == ["V", "beta", "f", "f_adjusted", "in_band", "m", "signs"]
