from __future__ import annotations

import subprocess
import sys
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nims.representation
from nims import (
    InvalidInput,
    InvalidSequence,
    OutOfRange,
    RangeError,
    Sequence,
    enumerate_nims,
    evaluate,
    prefix_sums,
    represent,
    represent_range_check,
)
from nims.sequence import PrefixSums

from .conftest import INCAPABLE_MESSAGES, capable_bits, descent_rows, lean_range_check, percall_descend

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
import nims.representation as rep
from nims import Sequence, prefix_sums
from nims.sequence import PrefixSums

if __debug__:
    sys.exit("not running under -O")

def corrupt(seq):
    sums = prefix_sums(seq)
    huge = 100 * sums.totals[-1]
    totals = tuple(huge for _ in sums.totals) if {corrupt_totals} else sums.totals
    return PrefixSums(totals, tuple(huge for _ in sums.thresholds))

rep.prefix_sums = corrupt
try:
    rep.represent(7, Sequence((1, 3, 8)))
except AssertionError as exc:
    print(exc)
else:
    sys.exit("represent returned despite corrupt thresholds")
"""


@pytest.mark.parametrize(
    "corrupt_totals, message",
    [(False, "broke the descent bound at bit 2"), (True, "not target 7 with |beta| < a_0")],
    ids=["descent-bound", "final-sum"],
)
def test_invariants_survive_optimize_flag(corrupt_totals, message):
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPT_PREFIX_SUMS.format(corrupt_totals=corrupt_totals)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert message in proc.stdout


# Hand-built descent tables, stored in a fresh sequence's _descent slot, that
# put one invariant check exactly at its bound or one past it. Over (1, 3, 8),
# bit 2 leaves the remainder -1 for 7 and +1 for -7, against a slack of 1 and
# then of 0. Over (2, 6, 18), no bit above a_0 = 2 activates, so bit 0 alone
# leaves the residual m - 2.
SLACK_ONE = (12, 1, ((2, 8, 5, 1), (1, 3, 2, 1)))
SLACK_ZERO = (12, 1, ((2, 8, 5, 0), (1, 3, 2, 1)))
SKIP_THE_HIGH_BITS = (27, 2, ((2, 18, 99, 99), (1, 6, 99, 99)))
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
    "residual-at-a0": (
        (2, 6, 18), SKIP_THE_HIGH_BITS, 4, "digits sum to 2 with residual 2: not target 4 with |beta| < a_0"
    ),
}

# Runs one AT_THE_BOUNDS case under python -O; prints what represent gave back or raised.
ONE_CASE_UNDER_O = """
import sys
from nims import Sequence, represent

if __debug__:
    sys.exit("not running under -O")

seq = Sequence({bits!r})
object.__setattr__(seq, "_descent", {table!r})
try:
    print(repr(represent({m!r}, seq)))
except AssertionError as exc:
    print(exc)
"""


def test_the_descent_table_holds_the_slack_column():
    seq = Sequence((2, 6, 18))
    represent(0, seq)
    assert seq._descent == (27, 2, ((2, 18, 10, 9), (1, 6, 4, 3)))


@pytest.mark.parametrize("case", AT_THE_BOUNDS)
def test_invariant_checks_fire_exactly_past_their_bounds(case):
    bits, table, m, outcome = AT_THE_BOUNDS[case]
    seq = Sequence(bits)
    object.__setattr__(seq, "_descent", table)
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

    def test_cap(self):
        with pytest.raises(RangeError):
            represent_range_check(REFERENCE, cap=5)

    def test_rejects_incapable(self):
        for bits, violations in INCAPABLE_MESSAGES.items():
            with pytest.raises(InvalidSequence) as excinfo:
                represent_range_check(Sequence(bits))
            assert str(excinfo.value) == "sequence is not completeness capable: " + violations

    @given(capable_bits(max_total=400, max_len=6))
    @settings(max_examples=60)
    def test_every_capable_sequence_sweeps_clean(self, seq):
        assert represent_range_check(seq).passed

    def test_cap_boundary(self):
        assert represent_range_check(REFERENCE, cap=12).passed
        with pytest.raises(RangeError):
            represent_range_check(REFERENCE, cap=11)

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
    with patch.object(nims.representation, "prefix_sums", lambda _: PrefixSums(sums.totals, thresholds)):
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
            monkeypatch.setattr(nims.representation, name, counting(name, getattr(nims.representation, name)))
        seq = Sequence((1, 3, 8, 24, 70))
        for _ in range(20):
            assert represent_range_check(seq).passed
        represent(5, seq)
        assert calls == {"_chain_capable": 1, "prefix_sums": 1}

    def test_total_limit_past_a_cap_above_it(self):
        seq = Sequence((2**62, 2**62))
        for _ in range(2):
            with pytest.raises(RangeError) as excinfo:
                represent_range_check(seq, cap=2**64)
            assert str(excinfo.value) == "sequence total exceeds 4611686018427387904"
        with pytest.raises(RangeError) as excinfo:
            represent_range_check(seq)
        assert str(excinfo.value) == f"sequence total {2**63} exceeds cap 10000000"


class TestSweepMatchesRepresent:
    @given(capable_bits(max_total=300, max_len=6))
    @settings(max_examples=60)
    def test_failure_exactly_when_residual_too_large(self, seq):
        failed = {m for m, _ in represent_range_check(seq).failures}
        bound = seq.total + seq.bits[0] - 1
        for m in range(-bound, bound + 1):
            assert (abs(represent(m, seq).beta) < seq.bits[0]) == (m not in failed)
