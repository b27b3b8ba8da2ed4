from __future__ import annotations

import dataclasses
import json
import math
import struct
import subprocess
import sys
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nims.sequence
from nims import (
    BiasPlan,
    DEFAULT_BAND_HALF_WIDTH,
    DegenerateTarget,
    InvalidInput,
    InvalidSequence,
    JOSEPHSON_HZ_PER_VOLT,
    NimsError,
    OutOfRange,
    RangeError,
    Sequence,
    enumerate_nims,
    evaluate,
    plan,
    prefix_sums,
    represent,
    represent_range_check,
)
from nims.representation import FIXED_KEYS, _resolve_band, _round_half_away
from nims.sequence import PrefixSums
from nims.units import _require_frequency, fixed_decimal

from .conftest import (
    INCAPABLE_MESSAGES,
    NIMS1_BITS,
    capable_bits,
    descent_rows,
    fraction_round_half_away,
    lean_range_check,
    percall_descend,
    plant_table,
)

REFERENCE = Sequence((1, 3, 8))

# published sign matrix for targets 0..12 over (1, 3, 8)
SIGN_ROWS = {
    0: (0, 0, 0),
    1: (1, 0, 0),
    2: (-1, 1, 0),
    3: (0, 1, 0),
    4: (1, 1, 0),
    5: (0, -1, 1),
    6: (1, -1, 1),
    7: (-1, 0, 1),
    8: (0, 0, 1),
    9: (1, 0, 1),
    10: (-1, 1, 1),
    11: (0, 1, 1),
    12: (1, 1, 1),
}


class TestSignMatrix:
    @pytest.mark.parametrize("m,signs", sorted(SIGN_ROWS.items()))
    def test_published_rows(self, m, signs):
        rep = represent(m, REFERENCE)
        assert rep.signs == signs
        assert rep.beta == 0

    @pytest.mark.parametrize("m,signs", sorted(SIGN_ROWS.items()))
    def test_negated_rows(self, m, signs):
        rep = represent(-m, REFERENCE)
        assert rep.signs == tuple(-s for s in signs)
        assert rep.beta == 0


class TestOffsetFirstBit:
    def test_worked_example(self):
        rep = represent(3, Sequence((2, 6, 18)))
        assert rep.signs == (1, 0, 0)
        assert rep.beta == 1
        assert rep.expressed_m == 2

    def test_residual_prefers_idle_first_bit(self):
        rep = represent(1, Sequence((2, 6, 18)))
        assert rep.signs == (0, 0, 0)
        assert rep.beta == 1

    def test_even_target_lands_exactly(self):
        rep = represent(10, Sequence((2, 6, 18)))
        assert rep.beta == 0
        assert evaluate(rep, Sequence((2, 6, 18))) == 10


class TestBounds:
    def test_range_limits(self):
        assert represent(12, REFERENCE).signs == (1, 1, 1)
        with pytest.raises(OutOfRange):
            represent(13, REFERENCE)
        with pytest.raises(OutOfRange):
            represent(-13, REFERENCE)

    def test_offset_extends_reach_by_residual(self):
        seq = Sequence((2, 6, 18))
        rep = represent(27, seq)
        assert rep.signs == (1, 1, 1) and rep.beta == 1
        with pytest.raises(OutOfRange):
            represent(28, seq)

    def test_incapable_sequence_rejected(self):
        # alike on every call: a refusal leaves no table on the sequence
        for bits, violations in INCAPABLE_MESSAGES.items():
            seq = Sequence(bits)
            for _ in range(3):
                with pytest.raises(InvalidSequence) as excinfo:
                    represent(3, seq)
                assert str(excinfo.value) == "sequence is not completeness capable: " + violations


class TestEvaluate:
    def test_round_trip(self):
        rep = represent(7, REFERENCE)
        assert evaluate(rep, REFERENCE) == 7

    def test_length_mismatch(self):
        rep = represent(7, REFERENCE)
        with pytest.raises(InvalidInput):
            evaluate(rep, Sequence((1, 3)))

    def test_bad_digit(self):
        from nims import Representation

        rep = Representation((2, 0, 0), 0, 2, 2)
        with pytest.raises(InvalidInput):
            evaluate(rep, REFERENCE)

    @given(capable_bits(max_total=2000), st.data())
    @settings(max_examples=100)
    def test_the_kernel_gives_plain_ints(self, seq, data):
        bound = seq.total + seq.bits[0] - 1
        m = data.draw(st.integers(-bound, bound))
        volts = m * 1.8e10 / JOSEPHSON_HZ_PER_VOLT
        reps = [represent(m, seq)]
        try:
            reps.append(plan(volts, 1.8e10, seq).representation)
        except DegenerateTarget:
            pass
        for rep in reps:
            assert {type(s) for s in rep.signs} <= {int}
            assert type(rep.beta) is type(rep.target_m) is type(rep.expressed_m) is int
            assert type(evaluate(rep, seq)) is int and evaluate(rep, seq) == rep.target_m


class TestAudit:
    def test_remainder_descent_bound(self):
        sums = prefix_sums(REFERENCE)
        for n, r in descent_rows(represent(11, REFERENCE), REFERENCE):
            if n >= 1:
                assert abs(r) <= sums.totals[n - 1] + REFERENCE.bits[0] - 1

    @given(capable_bits(max_total=2000), st.data())
    @settings(max_examples=120)
    def test_descent_bound_everywhere(self, seq, data):
        bound = seq.total + seq.bits[0] - 1
        m = data.draw(st.integers(-bound, bound))
        sums = prefix_sums(seq)
        a0 = seq.bits[0]
        for n, r in descent_rows(represent(m, seq), seq):
            if n >= 1:
                assert abs(r) <= sums.totals[n - 1] + a0 - 1
            else:
                assert abs(r) <= a0 - 1


class TestRoundTripProperty:
    @given(capable_bits(max_total=2000), st.data())
    @settings(max_examples=200)
    def test_round_trip_and_residual(self, seq, data):
        bound = seq.total + seq.bits[0] - 1
        m = data.draw(st.integers(-bound, bound))
        rep = represent(m, seq)
        assert evaluate(rep, seq) == m
        assert abs(rep.beta) < seq.bits[0]

    @given(capable_bits(max_total=2000), st.data())
    @settings(max_examples=80)
    def test_unit_first_bit_is_exact(self, seq, data):
        # a first bit of one leaves no room for a residual
        if seq.bits[0] != 1:
            seq = Sequence((1,) + seq.bits[1:]) if seq.bits[1] <= 3 else Sequence((1, 3) + seq.bits[2:])
        from nims import validate

        if not validate(seq).complete_capable:
            return
        bound = seq.total
        m = data.draw(st.integers(-bound, bound))
        assert represent(m, seq).beta == 0


# 2,016 strict sequences; each object is kept across examples, so later draws reuse its table
ENUMERATED = enumerate_nims(1, 5, 60)


class TestDescentTable:
    """represent reads a table built once per Sequence; every call must match the per-call descent."""

    @given(capable_bits(max_total=3000), st.data())
    @settings(max_examples=200)
    def test_first_and_repeated_calls_match_the_per_call_descent(self, seq, data):
        bound = seq.total + seq.bits[0] - 1
        m = data.draw(st.integers(-bound, bound))
        expected = percall_descend(m, seq)
        assert represent(m, seq) == expected
        assert represent(m, seq) == expected
        assert represent(-m, seq) == percall_descend(-m, seq)
        assert represent(m, Sequence(seq.bits)) == expected

    @given(st.sampled_from(ENUMERATED), st.data())
    @settings(max_examples=200)
    def test_enumerated_sequences(self, seq, data):
        bound = seq.total + seq.bits[0] - 1
        m = data.draw(st.integers(-bound, bound))
        assert represent(m, seq) == percall_descend(m, seq)
        assert represent(m, seq) == percall_descend(m, seq)


# Runs under python -O with prefix_sums corrupted; prints the invariant error.
CORRUPT_PREFIX_SUMS = """
import sys
import nims.sequence as seqmod
from nims import Sequence, prefix_sums, represent
from nims.sequence import PrefixSums

if __debug__:
    sys.exit("not running under -O")

def corrupt(seq):
    sums = prefix_sums(seq)
    huge = 100 * sums.totals[-1]
    totals = tuple(huge for _ in sums.totals) if {corrupt_totals} else sums.totals
    return PrefixSums(totals, tuple(huge for _ in sums.thresholds))

seqmod.prefix_sums = corrupt
try:
    represent(7, Sequence((1, 3, 8)))
except AssertionError as exc:
    print(exc)
else:
    sys.exit("represent returned despite corrupt thresholds")
"""


@pytest.mark.parametrize(
    "corrupt_totals, message",
    [(False, "broke the descent bound at bit 2"), (True, "remainder 6 broke the descent bound at bit 0")],
    ids=["descent-bound", "residual-bound"],
)
def test_invariants_survive_optimize_flag(corrupt_totals, message):
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPT_PREFIX_SUMS.format(corrupt_totals=corrupt_totals)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert message in proc.stdout


# Hand-built descent tables, stored in a fresh sequence's map under _descent, that
# put one invariant check exactly at its bound or one past it. Over (1, 3, 8),
# bit 2 leaves the remainder -1 for 7 and +1 for -7, against a slack of 1 and
# then of 0. Over (2, 6, 18), no bit above a_0 = 2 activates, so bit 0's row
# alone leaves the residual m - 2 against its slack a_0 - 1. A row whose a_n
# is not the bit's size leaves a sum that only the round-trip check catches.
SLACK_ONE = (12, ((2, 8, 5, -5, 1, -1), (1, 3, 2, -2, 1, -1), (0, 1, 1, -1, 0, 0)))
SLACK_ZERO = (12, ((2, 8, 5, -5, 0, 0), (1, 3, 2, -2, 1, -1), (0, 1, 1, -1, 0, 0)))
SKIP_THE_HIGH_BITS = (27, ((2, 18, 99, -99, 99, -99), (1, 6, 99, -99, 99, -99), (0, 2, 2, -2, 1, -1)))
WRONG_SIZE = (12, ((2, 7, 5, -5, 1, -1), (1, 3, 2, -2, 1, -1), (0, 1, 1, -1, 0, 0)))
# case: (bits, table, target, what represent gives back or the AssertionError it raises)
AT_THE_BOUNDS = {
    "descent-on-slack": (
        (1, 3, 8), SLACK_ONE, 7, "Representation(signs=(-1, 0, 1), beta=0, target_m=7, expressed_m=7)"
    ),
    "descent-on-minus-slack": (
        (1, 3, 8), SLACK_ONE, -7, "Representation(signs=(1, 0, -1), beta=0, target_m=-7, expressed_m=-7)"
    ),
    "descent-past-slack": ((1, 3, 8), SLACK_ZERO, 7, "remainder -1 broke the descent bound at bit 2"),
    "descent-past-minus-slack": ((1, 3, 8), SLACK_ZERO, -7, "remainder 1 broke the descent bound at bit 2"),
    "residual-below-a0": (
        (2, 6, 18), SKIP_THE_HIGH_BITS, 3, "Representation(signs=(1, 0, 0), beta=1, target_m=3, expressed_m=2)"
    ),
    "residual-below-minus-a0": (
        (2, 6, 18), SKIP_THE_HIGH_BITS, -3, "Representation(signs=(-1, 0, 0), beta=-1, target_m=-3, expressed_m=-2)"
    ),
    "residual-at-a0": ((2, 6, 18), SKIP_THE_HIGH_BITS, 4, "remainder 2 broke the descent bound at bit 0"),
    "residual-at-minus-a0": ((2, 6, 18), SKIP_THE_HIGH_BITS, -4, "remainder -2 broke the descent bound at bit 0"),
    "round-trip": ((1, 3, 8), WRONG_SIZE, 7, "digits sum to 8 with residual 0: not target 7"),
}

# Runs one AT_THE_BOUNDS case under python -O; prints what represent gave back or raised.
ONE_CASE_UNDER_O = """
import sys
from nims import Sequence, represent

if __debug__:
    sys.exit("not running under -O")

seq = Sequence({bits!r})
object.__setattr__(seq, "_tables", {{"_descent": {table!r}}})
try:
    print(repr(represent({m!r}, seq)))
except AssertionError as exc:
    print(exc)
"""


def test_the_descent_table_holds_the_slack_column():
    seq = Sequence((2, 6, 18))
    represent(0, seq)
    assert seq._tables["_descent"] == (27, ((2, 18, 10, -10, 9, -9), (1, 6, 4, -4, 3, -3), (0, 2, 2, -2, 1, -1)))


@pytest.mark.parametrize("case", AT_THE_BOUNDS)
def test_invariant_checks_fire_exactly_past_their_bounds(case):
    bits, table, m, outcome = AT_THE_BOUNDS[case]
    seq = plant_table(Sequence(bits), nims.sequence._descent, table)
    if outcome.startswith("Representation("):
        assert repr(represent(m, seq)) == outcome
    else:
        with pytest.raises(AssertionError) as caught:
            represent(m, seq)
        assert str(caught.value) == outcome
    proc = subprocess.run(
        [sys.executable, "-O", "-c", ONE_CASE_UNDER_O.format(bits=bits, table=table, m=m)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == outcome + "\n"


class TestRangeCheck:
    def test_small_sweep(self):
        chk = represent_range_check(REFERENCE)
        assert chk.checked == 25
        assert chk.passed and chk.failures == ()

    def test_offset_sweep(self):
        chk = represent_range_check(Sequence((2, 6, 18)))
        assert chk.checked == 55
        assert chk.passed

    def test_sweeps_past_the_oracle_cap(self):
        # the sweep's cost is its windows, not its total, so it takes no oracle cap
        chk = represent_range_check(Sequence((10**8, 3 * 10**8, 9 * 10**8)))
        assert chk.checked == 2_799_999_999
        assert chk.passed

    def test_rejects_incapable(self):
        for bits, violations in INCAPABLE_MESSAGES.items():
            with pytest.raises(InvalidSequence) as excinfo:
                represent_range_check(Sequence(bits))
            assert str(excinfo.value) == "sequence is not completeness capable: " + violations

    @given(capable_bits(max_total=400, max_len=6))
    @settings(max_examples=60)
    def test_every_capable_sequence_sweeps_clean(self, seq):
        assert represent_range_check(seq).passed

    def test_thousands_of_bits_do_not_recurse(self):
        chk = represent_range_check(Sequence((1,) * 3000))
        assert chk.checked == 6001
        assert chk.passed


def sweep_with_thresholds(seq, thresholds):
    """Sweep a fresh copy of seq, whose descent table is built from these thresholds.

    A table already kept on seq itself would skip the patched prefix_sums,
    and a table built under the patch must not stay on a shared sequence.
    """
    sums = prefix_sums(seq)
    with patch.object(nims.sequence, "prefix_sums", lambda _: PrefixSums(sums.totals, thresholds)):
        return represent_range_check(Sequence(seq.bits))


class TestSweepMatchesReference:
    @given(capable_bits(max_total=3000))
    @settings(max_examples=150)
    def test_capable_sequences(self, seq):
        chk = represent_range_check(seq)
        assert (chk.checked, chk.failures) == lean_range_check(seq.bits, prefix_sums(seq).thresholds)

    @given(capable_bits(max_total=1500), st.data())
    @settings(max_examples=300)
    def test_one_corrupted_threshold(self, seq, data):
        thresholds = list(prefix_sums(seq).thresholds)
        reach = seq.total + seq.bits[0] + 2
        i = data.draw(st.integers(0, len(thresholds) - 2))
        thresholds[i] = data.draw(st.one_of(st.integers(-3, 1), st.integers(-reach, reach)))
        chk = sweep_with_thresholds(seq, tuple(thresholds))
        assert (chk.checked, chk.failures) == lean_range_check(seq.bits, tuple(thresholds))

    @pytest.mark.parametrize("threshold", [-5, 0, 2, 5])
    def test_corrupted_threshold_fails_like_reference(self, threshold):
        # (1, 3, 8) has thresholds 2, 5, 13; at t <= 0 both branches match r = 0 and r >= t wins
        thresholds = (2, threshold, 13)
        chk = sweep_with_thresholds(REFERENCE, thresholds)
        checked, failures = lean_range_check(REFERENCE.bits, thresholds)
        assert chk.checked == checked == 25
        assert chk.failures == failures
        assert chk.passed == (threshold == 5)


class TestSweepReadsTheDescentTable:
    def test_patched_thresholds_reach_the_sweep_after_represent(self):
        represent(0, REFERENCE)  # builds the table kept on the shared REFERENCE
        chk = sweep_with_thresholds(REFERENCE, (2, 0, 13))
        assert chk.failures == lean_range_check(REFERENCE.bits, (2, 0, 13))[1]
        assert not chk.passed
        assert represent_range_check(REFERENCE).passed

    def test_builds_the_table_once_per_sequence(self, monkeypatch):
        calls = {"_chain_capable": 0, "prefix_sums": 0}

        def counting(name, fn):
            def wrapper(arg):
                calls[name] += 1
                return fn(arg)

            return wrapper

        for name in calls:
            monkeypatch.setattr(nims.sequence, name, counting(name, getattr(nims.sequence, name)))
        seq = Sequence((1, 3, 8, 24, 70))
        for _ in range(20):
            assert represent_range_check(seq).passed
        represent(5, seq)
        assert calls == {"_chain_capable": 1, "prefix_sums": 1}


def walk_rows(table):
    """Reference (checked, failures) of a descent table: every target walked down its rows one at a time.

    Each row moves the remainder as representation's greedy does; a
    residual outside bit 0's slack and its negated slack fails, worded
    with bit 0's a. Reads the rows alone, so a hand-built table is swept
    as the kernel would walk it.
    """
    bound, steps = table
    _, a0, _, _, slack, neg_slack = steps[-1]
    failures = []
    for m in range(-bound, bound + 1):
        r = m
        for _, a, t, neg_t, _, _ in steps:
            if r >= t:
                r -= a
            elif r <= neg_t:
                r += a
        if r > slack or r < neg_slack:
            failures.append((m, f"residual {r} not below {a0}"))
    return 2 * bound + 1, tuple(failures)


def sweep_table(bits, table):
    """represent_range_check of a fresh sequence whose stored _descent table is table."""
    return represent_range_check(plant_table(Sequence(bits), nims.sequence._descent, table))


# (1, 3, 8) with bit 2's row given the digits {0, +1}: its lower threshold is below every remainder
UPWARD_ONLY = (12, ((2, 8, 5, -13, 4, -4), (1, 3, 2, -2, 1, -1), (0, 1, 1, -1, 0, 0)))


class TestSweepReadsEveryBoundFromTheRows:
    def test_a_lower_threshold_that_is_not_minus_t(self):
        # -12 to -5 never take bit 2, and bits 1 and 0 leave them short of zero
        chk = sweep_table((1, 3, 8), UPWARD_ONLY)
        assert (chk.checked, chk.failures) == walk_rows(UPWARD_ONLY)
        assert [m for m, _ in chk.failures] == list(range(-12, -4))

    @given(capable_bits(max_total=300, max_len=6), st.data())
    @settings(max_examples=150)
    def test_hand_built_rows_sweep_like_their_walk(self, seq, data):
        bound, steps = nims.sequence._descent(Sequence(seq.bits))
        reach = bound + 2
        rows = [list(row) for row in steps]
        rows[data.draw(st.integers(0, len(rows) - 1))][3] = data.draw(st.integers(-reach, reach))  # a lower threshold
        rows[-1][4:] = data.draw(st.integers(0, reach)), -data.draw(st.integers(0, reach))  # bit 0's slacks
        table = (bound, tuple(map(tuple, rows)))
        chk = sweep_table(seq.bits, table)
        assert (chk.checked, chk.failures) == walk_rows(table)


class TestSweepMatchesRepresent:
    @given(capable_bits(max_total=300, max_len=6))
    @settings(max_examples=60)
    def test_failure_exactly_when_residual_too_large(self, seq):
        failed = {m for m, _ in represent_range_check(seq).failures}
        bound = seq.total + seq.bits[0] - 1
        for m in range(-bound, bound + 1):
            assert (abs(represent(m, seq).beta) < seq.bits[0]) == (m not in failed)


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

    @pytest.mark.parametrize(
        "volts,freq,band",
        [
            # volts * K_J is inf, and so is the headroom times the band top
            pytest.param(1e300, 1e10, (1e10, 1.79e308), id="1e+300-band-top"),
            (1e308, 1e308, None),
            (-1e308, 1e308, None),
            (1e-5, 1e-300, (1e-300, 1e308)),  # volts * K_J is finite, its quotient by the frequency is not
            # past the band top, whose refusal words the multiple: inf there would name no multiple
            pytest.param(1e300, 1e10, None, id="1e+300-no-band"),
            (1e290, 1e-30, None),
        ],
    )
    def test_a_multiple_past_float_range_is_out_of_range(self, volts, freq, band):
        # the multiple is refused before the band-top test, which would compare inf with inf and pass
        with pytest.raises(OutOfRange) as caught:
            plan(volts, freq, Sequence((1, 3, 8)), band)
        assert str(caught.value) == f"{volts} V at {freq} Hz needs a multiple past float range, beyond 12"

    def test_a_multiple_within_the_band_top_but_past_the_headroom_is_clamped(self, measured):
        # 92,100 <= 92,099 * 1.005 passes the band-top test; rounded at the base frequency it is clamped and retuned
        volts = 92_100 * 18.01e9 / JOSEPHSON_HZ_PER_VOLT
        p = plan(volts, 18.01e9, measured)
        assert p.m_target == evaluate(p.representation, measured) == 92_099
        assert p.representation.signs == (1,) * 23 and p.representation.beta == 1
        assert p.in_band
        assert p.achieved_voltage == pytest.approx(volts, rel=1e-12)

    def test_the_device_plans_every_multiple_up_to_the_band_top(self, measured):
        # at 18.01 GHz the band top reaches 92,099 * 1.005 = 92,559.495: 920 multiples past the headroom get a plan
        plans = {
            sign * m: plan(sign * m * 18.01e9 / JOSEPHSON_HZ_PER_VOLT, 18.01e9, measured)
            for sign in (1, -1)
            for m in range(92_100, 92_560)
        }
        assert len(plans) == 920
        assert {p.m_target for p in plans.values()} == {92_099, -92_099}
        assert sorted(m for m, p in plans.items() if not p.in_band) == [-92_559, 92_559]
        for m in (92_560, -92_560):
            with pytest.raises(OutOfRange, match="even at the band top$"):
                plan(m * 18.01e9 / JOSEPHSON_HZ_PER_VOLT, 18.01e9, measured)

    @given(st.integers(0, 2), st.floats(12e9, 20e9), st.sampled_from((1, -1)), st.data())
    @settings(max_examples=300)
    def test_a_multiple_past_the_headroom_is_clamped_and_retuned(self, measured, nims1, nims2, which, freq, sign, data):
        seq = (measured, nims1, nims2)[which]
        headroom = seq.total + seq.bits[0] - 1
        top = headroom * 201 // 200  # the largest multiple within the band top, headroom * 1.005
        m = data.draw(st.integers(headroom + 1, top))
        # off the integer by less than a half, and never past the band top
        multiple = m + data.draw(st.floats(-0.49, 0.49 if m < top else 0.0))
        volts = sign * multiple * freq / JOSEPHSON_HZ_PER_VOLT
        p = plan(volts, freq, seq)
        assert p.m_target == evaluate(p.representation, seq) == sign * headroom
        assert abs(p.achieved_voltage - volts) <= 1e-12 * abs(volts)
        assert p.in_band is (p.adjusted_frequency_hz <= freq * (1 + DEFAULT_BAND_HALF_WIDTH))
        past = sign * data.draw(st.integers(top + 1, 2 * headroom)) * freq / JOSEPHSON_HZ_PER_VOLT
        with pytest.raises(OutOfRange, match="even at the band top$"):
            plan(past, freq, seq)

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

    def test_an_iterator_of_two_edges_plans_as_the_tuple(self, measured):
        # the band is read as one tuple before its checks, which would otherwise use the iterator up
        for volts in (1.0, 0.0, -2.5):
            expected = plan(volts, 18.01e9, measured, (17.9e9, 18.1e9))
            for band in (iter([17.9e9, 18.1e9]), (edge for edge in (17.9e9, 18.1e9)), [17.9e9, 18.1e9]):
                got = plan(volts, 18.01e9, measured, band)
                assert got == expected and repr(got) == repr(expected)

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
            monkeypatch.setattr(nims.sequence, name, counting(name, getattr(nims.sequence, name)))
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
        # the total limit is refused first, so no headroom past 2**63 reaches a float
        seq = Sequence((10**400,))
        for _ in range(2):
            with pytest.raises(RangeError) as excinfo:
                plan(1.0, 1e10, seq)
            assert str(excinfo.value) == "sequence total exceeds 4611686018427387904"


class TestDefaultBand:
    """_resolve_band returns the default band without its checks, which no accepted frequency fails."""

    @given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    @example(5e-324)
    @example(sys.float_info.max)
    @example(1.0)
    def test_is_the_old_expression_and_holds_the_frequency(self, freq):
        _require_frequency(freq)  # the drawn frequency is one plan accepts
        lo, hi = _resolve_band(freq, None)
        old = (freq * (1 - DEFAULT_BAND_HALF_WIDTH), freq * (1 + DEFAULT_BAND_HALF_WIDTH))
        assert struct.pack("<2d", lo, hi) == struct.pack("<2d", *old)
        assert 0 < lo <= freq <= hi

    @given(st.integers(0, 2), st.floats(1e8, 1e12), st.floats(-1.1, 1.1))
    @settings(max_examples=300)
    @example(0, 18.01e9, 0.0)
    @example(0, 18.01e9, 1e-9)
    @example(0, 18.01e9, 1.003)
    @example(1, 18.01e9, -1.05)
    def test_plans_as_the_explicit_band_of_the_same_edges(self, measured, nims1, nims2, which, freq, share):
        # share of the headroom at the base frequency: past 1.0 the multiple is clamped, past 1.005 refused
        seq = (measured, nims1, nims2)[which]
        volts = share * (seq.total + seq.bits[0] - 1) * freq / JOSEPHSON_HZ_PER_VOLT
        band = (freq * (1 - DEFAULT_BAND_HALF_WIDTH), freq * (1 + DEFAULT_BAND_HALF_WIDTH))
        try:
            default = plan(volts, freq, seq)
        except NimsError as exc:
            with pytest.raises(type(exc)) as caught:
                plan(volts, freq, seq, band)
            assert str(caught.value) == str(exc)
        else:
            explicit = plan(volts, freq, seq, band)
            for field in dataclasses.fields(BiasPlan):
                assert repr(getattr(default, field.name)) == repr(getattr(explicit, field.name)), field.name
            assert default == explicit


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
    """A capable sequence whose total passes TOTAL_LIMIT: building the table refuses the limit first, on every call."""

    OVER_LIMIT = "sequence total exceeds 4611686018427387904"

    def assert_over_limit(self, call):
        with pytest.raises(RangeError) as excinfo:
            call()
        assert str(excinfo.value) == self.OVER_LIMIT

    def test_limit_on_every_call(self):
        seq = Sequence((2**62, 2**62))
        for _ in range(2):
            for volts in (1e15, 1.0, 0.0):
                self.assert_over_limit(lambda: plan(volts, 1.8e10, seq))
            for m in (0, 2**64):
                self.assert_over_limit(lambda: represent(m, seq))
            self.assert_over_limit(lambda: represent_range_check(seq))

    @pytest.mark.parametrize("volts", [1e15, -1e15, 1e300])
    def test_out_of_range_on_an_over_limit_sequence(self, volts):
        # the limit comes before the headroom tests, so a voltage beyond the headroom is refused as the limit
        seq = Sequence((2**62, 2**62))
        for _ in range(2):
            self.assert_over_limit(lambda: plan(volts, 1.8e10, seq))

    def test_limit_first_on_a_fresh_sequence(self):
        for call in (
            lambda seq: represent(0, seq),
            lambda seq: plan(1e15, 1.8e10, seq),
            represent_range_check,
        ):
            seq = Sequence((2**62, 2**62))
            for _ in range(2):
                self.assert_over_limit(lambda: call(seq))

    def test_inputs_before_the_limit(self):
        # plan reads its numbers and represent its target before the table is built
        seq = Sequence((2**62, 2**62))
        with pytest.raises(InvalidInput):
            plan(float("nan"), 1.8e10, seq)
        with pytest.raises(InvalidInput):
            represent(0.5, seq)


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
